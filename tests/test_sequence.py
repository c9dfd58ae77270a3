import pytest

from prouhet import (
    BudgetExceededError,
    PTMParams,
    ZeroSumForm,
    ZeroSumVector,
    omega_pow,
    ptm_block,
    ptm_block_recursive,
    ptm_term,
)


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

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (4, 3), (5, 3), (6, 3)])
    def test_class_counts(self, p, n):
        block = ptm_block(PTMParams(p, n))
        for k in range(p):
            assert block.count(k) == p ** (n - 1)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 4), (4, 3), (5, 3), (7, 2)])
    def test_recursive_construction_agrees(self, p, n):
        params = PTMParams(p, n)
        assert ptm_block_recursive(params) == ptm_block(params)


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

    def test_degree_relation(self):
        params = PTMParams.from_degree(3, 2)
        assert params.n == 3
        assert params.degree == 2


class TestZeroSumVector:
    def test_rejects_nonzero_sum_and_reports_it(self):
        with pytest.raises(ValueError, match="sum 3"):
            ZeroSumVector.from_integers([1, 2])

    def test_shift_identity(self):
        a = ZeroSumVector.from_integers([1, 1, -2])
        assert a.shift(0) == a

    def test_shift_left_by_one(self):
        a = ZeroSumVector.from_integers([5, -2, -3])
        assert a.shift(1).entries == (-2, -3, 5)

    def test_shift_full_cycle(self):
        a = ZeroSumVector.from_integers([4, -1, -3])
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

    def test_prefix_sums_base_case(self):
        a = ZeroSumVector.from_integers([1, 1, -2])
        prefixes = a.prefix_shift_sums()
        assert prefixes[0] == a

    def test_prefix_sums_derived_example(self):
        # B_1 = A + shift(A,1) = (1,1,-2) + (1,-2,1) = (2,-1,-1) = -shift(A,2)
        a = ZeroSumVector.from_integers([1, 1, -2])
        prefixes = a.prefix_shift_sums()
        assert prefixes[1].entries == (2, -1, -1)
        assert prefixes[1] == -a.shift(2)

    def test_prefix_sums_last_equals_minus_last_shift(self):
        a = ZeroSumVector.from_integers([3, -1, 2, -4])
        assert a.prefix_shift_sums()[-1] == -a.shift(a.p - 1)

    def test_prefix_sums_p2(self):
        # with a1 = -a0 the single prefix vector is the vector itself,
        # and -shift(A,1) = A is forced by the zero sum
        a = ZeroSumVector.from_integers([7, -7])
        assert a.prefix_shift_sums() == [a]
        assert -a.shift(1) == a

    def test_symbolic_prefix_sums_stay_zero_sum(self):
        # construction re-checks the invariant, so this simply must not raise
        for p in range(2, 7):
            for vec in ZeroSumVector.symbolic(p).prefix_shift_sums():
                assert len(vec) == p

    def test_is_zero(self):
        assert ZeroSumVector.from_integers([0, 0, 0]).is_zero
        assert not ZeroSumVector.from_integers([1, -1]).is_zero
