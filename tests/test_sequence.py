import re
import time
import tracemalloc

import pytest

from prouhet import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CyclotomicElement,
    LehmerSpec,
    PTMParams,
    ZeroSumForm,
    ZeroSumVector,
    omega_pow,
    ptm_block,
    ptm_block_recursive,
    ptm_term,
)

from randomized import random_cases


class TestPtmTerm:
    def test_classical_first_eight(self):
        assert [ptm_term(n, 2) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    @pytest.mark.parametrize("p", range(2, 8))
    def test_zero_index(self, p):
        assert ptm_term(0, p) == 0

    @pytest.mark.parametrize("p", range(2, 8))
    def test_powers_of_base(self, p):
        for k in range(6):
            assert ptm_term(p**k, p) == 1

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            ptm_term(5, 1)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            ptm_term(-1, 2)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_shift_property(self, p):
        # t(n + k*p^m) = (t(n) + k) mod p for n < p^m, exhaustive at desk scale
        for m in range(6):
            stride = p**m
            for n in range(stride):
                base = ptm_term(n, p)
                for k in range(p):
                    assert ptm_term(n + k * stride, p) == (base + k) % p


class TestPtmBlock:
    def test_classical_block(self):
        assert ptm_block(PTMParams(2, 3)) == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_single_digits(self):
        assert ptm_block(PTMParams(3, 1)) == [0, 1, 2]

    def test_base_three_two_levels(self):
        assert ptm_block(PTMParams(3, 2)) == [0, 1, 2, 1, 2, 0, 2, 0, 1]

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (4, 3), (5, 3), (7, 2)])
    def test_prefix_property(self, p, n):
        assert ptm_block(PTMParams(p, n))[: p ** (n - 1)] == ptm_block(PTMParams(p, n - 1))

    @random_cases
    def test_matches_per_term_oracle(self, rng):
        p = rng.randint(2, 9)
        n = rng.randint(1, 4 if p <= 6 else 3)
        block = ptm_block(PTMParams(p, n))
        assert block == [ptm_term(i, p) for i in range(p**n)]

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (4, 3), (5, 3), (6, 3)])
    def test_class_counts(self, p, n):
        block = ptm_block(PTMParams(p, n))
        for k in range(p):
            assert block.count(k) == p ** (n - 1)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 4), (4, 3), (5, 3), (7, 2)])
    def test_recursive_construction_agrees(self, p, n):
        params = PTMParams(p, n)
        assert ptm_block_recursive(params) == ptm_block(params)

    def test_one_level_block_builds_no_addition_table(self):
        # A p x p table for p = 3000 would take about 340 MB; the block
        # itself is 3000 small ints.
        tracemalloc.start()
        try:
            block = ptm_block(PTMParams(3000, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block == list(range(3000))
        assert peak < 10 * 2**20


class TestPTMParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PTMParams(1, 3)
        with pytest.raises(ValueError):
            PTMParams(2, 0)
        with pytest.raises(ValueError):
            PTMParams.from_degree(2, -1)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            PTMParams(2, 30, budget=10**6)
        with pytest.raises(BudgetExceededError):
            PTMParams(10, 8)  # 10^8 over the default cap

    def test_budget_boundary(self):
        params = PTMParams(10, 3, budget=1000)
        assert params.block_length == 1000
        with pytest.raises(BudgetExceededError):
            PTMParams(10, 3, budget=999)

    @pytest.mark.parametrize("p", [1, 0, 2.0, "2"])
    def test_one_base_check_everywhere(self, p):
        message = re.escape(f"base p must be an integer >= 2, got {p!r}")
        builders = [
            lambda: PTMParams(p, 1),
            lambda: ptm_term(1, p),
            lambda: LehmerSpec(p, (1,)),
            lambda: CyclotomicElement(p, ()),
            lambda: ZeroSumForm(p, ()),
            lambda: omega_pow(p, 1),
        ]
        for build in builders:
            with pytest.raises(ValueError, match=message):
                build()

    def test_one_budget_gate_everywhere(self):
        huge = 100000
        message = r"^block of 3\*\*\d+ terms exceeds budget 10$"
        builders = [
            lambda budget: PTMParams(3, huge, budget),
            lambda budget: PTMParams.from_degree(3, huge, budget),
            lambda budget: LehmerSpec(3, (1,) * huge, budget),
            lambda budget: LehmerSpec.base_powers(3, huge, budget),
        ]
        for build in builders:
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError, match=message):
                build(10)
            assert time.perf_counter() - start < 1.0
            with pytest.raises(ValueError, match="budget must be positive"):
                build(0)

    def test_degree_relation(self):
        params = PTMParams.from_degree(3, 2)
        assert params.n == 3
        assert params.degree == 2

    def test_value_type(self):
        params = PTMParams(3, 2)
        assert repr(params) == "PTMParams(p=3, n=2, budget=10000000)"
        assert params == PTMParams(3, 2, DEFAULT_BUDGET) == PTMParams.from_degree(3, 1)
        assert hash(params) == hash(PTMParams(3, 2))
        assert params != PTMParams(3, 2, 10)
        for field in ("p", "n", "budget", "extra"):
            with pytest.raises(AttributeError):
                setattr(params, field, 4)

    @pytest.mark.parametrize(
        "args,error,message",
        [
            ((2, 0), ValueError, "block exponent n must be an integer >= 1, got 0"),
            ((2, 1.0), ValueError, "block exponent n must be an integer >= 1, got 1.0"),
            ((2, 1, 0), ValueError, "budget must be positive, got 0"),
            ((2, 4, 15), BudgetExceededError, "block of 2**4 terms exceeds budget 15"),
        ],
    )
    def test_validation_messages(self, args, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PTMParams(*args)


class TestZeroSumVector:
    def test_rejects_nonzero_sum_and_reports_it(self):
        with pytest.raises(ValueError, match="sum 3"):
            ZeroSumVector([1, 2])

    def test_shift_identity(self):
        a = ZeroSumVector([1, 1, -2])
        assert a.shift(0) == a

    def test_shift_left_by_one(self):
        a = ZeroSumVector([5, -2, -3])
        assert a.shift(1).entries == (-2, -3, 5)

    def test_shift_full_cycle(self):
        a = ZeroSumVector([4, -1, -3])
        assert a.shift(1).shift(a.p - 1) == a
        assert a.shift(7) == a.shift(7 % 3)

    def test_symbolic_entries_are_generators(self):
        a = ZeroSumVector.symbolic(4)
        for i in range(4):
            assert a[i] == ZeroSumForm.generator(4, i)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_roots_of_unity_vector(self, p):
        a = ZeroSumVector.roots_of_unity(p)
        for k in range(p):
            assert a[k] == omega_pow(p, k)
