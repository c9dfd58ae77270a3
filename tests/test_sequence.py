import re
import sys
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
    ptm_block,
    ptm_block_recursive,
    ptm_term,
)

from oracles import omega_pow, roots_of_unity, shift
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

    # Every block up to 3**10 terms for p = 2..5: even and odd n, a one-digit
    # low half (n = 2, 3) and deeper splits.
    @pytest.mark.parametrize(
        "p,n", [(p, n) for p in range(2, 6) for n in range(1, 17) if p**n <= 3**10] + [(7, 2)]
    )
    def test_recursive_construction_agrees(self, p, n):
        params = PTMParams(p, n)
        assert ptm_block_recursive(params) == ptm_block(params)

    def test_wide_base_matches_per_term_oracle(self):
        assert ptm_block(PTMParams(300, 2)) == [ptm_term(i, 300) for i in range(300**2)]

    def test_traced_peak_is_the_block_itself(self):
        # The block is copied together from short half-blocks, so nothing
        # of the block's own size is built besides the returned list.
        tracemalloc.start()
        try:
            block = ptm_block(PTMParams(2, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block) == 2**20
        assert peak <= 1.1 * sys.getsizeof(block)

    def test_two_level_block_holds_no_addition_table(self):
        # A two-digit block is the p x p addition table's rows in order;
        # each row is made as it is copied, so no table sits next to it.
        tracemalloc.start()
        try:
            block = ptm_block(PTMParams(1000, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block[1000:1003] == [1, 2, 3] and block[-1] == 998
        assert peak <= 1.1 * sys.getsizeof(block)

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
            lambda: CyclotomicElement.basis(p, 1),
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


# Three entries in each ring a vector may hold; the first two sum to
# nonzero, so each rejection below starts sum() from the int 0 in that ring.
RING_ENTRIES = {
    "int": (1, 2, -3),
    "cyclotomic": (omega_pow(3, 0), omega_pow(3, 1), omega_pow(3, 2)),
    "zero_sum_form": tuple(ZeroSumForm.basis(3, i) for i in range(3)),
}


class TestZeroSumVector:
    @pytest.mark.parametrize("ring", sorted(RING_ENTRIES))
    def test_rejects_nonzero_sum_and_reports_it(self, ring):
        first, second, _ = RING_ENTRIES[ring]
        message = f"entries must sum to zero, got sum {first + second}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ZeroSumVector([first, second])

    @pytest.mark.parametrize("ring", sorted(RING_ENTRIES))
    def test_rejects_fewer_than_two_entries(self, ring):
        for entries in [(), RING_ENTRIES[ring][:1]]:
            with pytest.raises(ValueError, match="^a zero-sum vector needs at least two entries$"):
                ZeroSumVector(entries)

    @pytest.mark.parametrize("ring", sorted(RING_ENTRIES))
    def test_is_the_tuple_of_its_entries(self, ring):
        entries = RING_ENTRIES[ring]
        a = ZeroSumVector(iter(entries))
        assert a == entries and entries == a
        assert hash(a) == hash(entries)
        assert {a: "vector"}[entries] == "vector"
        assert a.p == len(a) == 3
        assert list(a) == list(entries)
        assert type(a[1:]) is tuple and a[1:] == entries[1:]

    def test_repr(self):
        assert repr(ZeroSumVector([1, 0, -1])) == "ZeroSumVector((1, 0, -1))"
        assert repr(ZeroSumVector.symbolic(2)) == (
            "ZeroSumVector((ZeroSumForm(2, (1,)), ZeroSumForm(2, (-1,))))"
        )

    def test_shift_identity(self):
        a = ZeroSumVector([1, 1, -2])
        assert shift(a, 0) == a

    def test_shift_left_by_one(self):
        a = ZeroSumVector([5, -2, -3])
        assert shift(a, 1) == (-2, -3, 5)

    def test_shift_full_cycle(self):
        a = ZeroSumVector([4, -1, -3])
        assert shift(shift(a, 1), a.p - 1) == a
        assert shift(a, 7) == shift(a, 7 % 3)

    def test_symbolic_entries_are_generators(self):
        a = ZeroSumVector.symbolic(4)
        for i in range(4):
            assert a[i] == ZeroSumForm.basis(4, i)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_roots_of_unity_vector(self, p):
        a = roots_of_unity(p)
        for k in range(p):
            assert a[k] == omega_pow(p, k)
