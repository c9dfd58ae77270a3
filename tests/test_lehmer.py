import itertools
import random

import pytest

from prouhet import (
    BudgetExceededError,
    CyclotomicElement,
    LehmerSpec,
    PTMParams,
    lehmer_expand,
    lehmer_verify,
    lehmer_weighted_sum,
    multiset_power_sum,
    product_identity_sides,
    prouhet_partition,
    verify_product_identity,
)


def brute_force_class_sums(p, mu, exponent):
    """Independent oracle: enumerate tuples directly with itertools.product."""
    sums = [0] * p
    for digits in itertools.product(range(p), repeat=len(mu)):
        value = sum(d * w for d, w in zip(digits, mu))
        sums[sum(digits) % p] += value**exponent
    return sums


class TestLehmerSpec:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            LehmerSpec(2, (1, 0))
        with pytest.raises(ValueError):
            LehmerSpec(2, (-3,))
        with pytest.raises(ValueError):
            LehmerSpec(2, ())

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            LehmerSpec(1, (1,))

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            LehmerSpec(2, (1,) * 30, budget=10**6)

    def test_budget_boundary(self):
        assert LehmerSpec(2, (1,) * 3, budget=8).tuple_count == 8
        with pytest.raises(BudgetExceededError):
            LehmerSpec(2, (1,) * 3, budget=7)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            LehmerSpec(2, (1,), budget=0)

    def test_base_powers(self):
        assert LehmerSpec.base_powers(3, 2).mu == (1, 3, 9)


class TestLehmerExpand:
    def test_collision_keeps_multiplicity(self):
        multiset = lehmer_expand(LehmerSpec(2, (1, 1)))
        assert multiset.classes == (((0, 1), (2, 1)), ((1, 2),))
        assert multiset.total_count == 4

    def test_base_powers_reproduce_partition(self):
        multiset = lehmer_expand(LehmerSpec(2, (1, 2, 4, 8)))
        part = prouhet_partition(PTMParams.from_degree(2, 3))
        assert multiset.multiplicities_all_one()
        assert multiset.value_sets() == part.classes

    def test_p3_two_weights(self):
        # hand enumeration of the nine tuples (a0, a1), value a0 + 2*a1
        multiset = lehmer_expand(LehmerSpec(3, (1, 2)))
        assert multiset.classes == (
            ((0, 1), (4, 1), (5, 1)),
            ((1, 1), (2, 1), (6, 1)),
            ((2, 1), (3, 1), (4, 1)),
        )

    @pytest.mark.parametrize("p,mu", [(2, (3, 5)), (3, (1, 2)), (4, (2, 2, 7))])
    def test_total_count(self, p, mu):
        assert lehmer_expand(LehmerSpec(p, mu)).total_count == p ** len(mu)


class TestLehmerVerify:
    def test_golden_base_powers(self):
        report = lehmer_verify(LehmerSpec(2, (1, 2, 4, 8)))
        assert report.equal_up_to == 3
        assert report.first_violation is None
        assert report.power_sums == ((8, 8), (60, 60), (620, 620), (7200, 7200))

    def test_forced_equality_tiny(self):
        report = lehmer_verify(LehmerSpec(2, (1, 1)))
        assert report.equal_up_to == 1
        assert report.power_sums == ((2, 2), (2, 2))

    def test_p3_odd_weights(self):
        report = lehmer_verify(LehmerSpec(3, (3, 7, 11)))
        assert report.equal_up_to == 2
        assert report.first_violation is None

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_random_weight_sweep(self, p, m):
        rng = random.Random(1700 + 10 * p + m)
        for _ in range(4):
            mu = tuple(rng.randint(1, 20) for _ in range(m + 1))
            report = lehmer_verify(LehmerSpec(p, mu))
            assert report.first_violation is None, (mu, report)

    def test_sums_match_brute_force(self):
        spec = LehmerSpec(3, (2, 5, 9))
        report = lehmer_verify(spec)
        for m in range(3):
            assert list(report.power_sums[m]) == brute_force_class_sums(3, (2, 5, 9), m)


class TestWeightedSum:
    def test_single_weight_p2(self):
        # 1 + w = 0 in the p = 2 quotient ring
        assert lehmer_weighted_sum(LehmerSpec(2, (1,)), 0) == CyclotomicElement.zero(2)

    @pytest.mark.parametrize("p,mu", [(2, (1, 5)), (3, (1, 2)), (3, (3, 7, 11)), (5, (2, 9))])
    def test_vanishes_up_to_degree(self, p, mu):
        spec = LehmerSpec(p, mu)
        for m in range(len(mu)):
            assert not lehmer_weighted_sum(spec, m)

    def test_first_nonvanishing_p3(self):
        # frozen from the nine-tuple enumeration: class sums at m=2 are
        # (41, 41, 29), and 41 + 41w + 29w^2 reduces to 12 + 12w
        spec = LehmerSpec(3, (1, 2))
        assert brute_force_class_sums(3, (1, 2), 2) == [41, 41, 29]
        assert lehmer_weighted_sum(spec, 2) == CyclotomicElement(3, (12, 12))
        assert lehmer_weighted_sum(spec, 3) == CyclotomicElement(3, (90, 126))


class TestProductIdentity:
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("m", range(0, 3))
    def test_identity_sweep(self, p, m):
        assert verify_product_identity(p, m)

    def test_p2_reduces_to_alternating_signs(self):
        lhs, rhs = product_identity_sides(2, 3)
        assert lhs == rhs
        plus_one = CyclotomicElement.one(2)
        minus_one = CyclotomicElement(2, (-1,))
        signs = [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]
        expected = [plus_one if s == 1 else minus_one for s in signs]
        assert list(rhs.coeffs) == expected

    def test_p3_single_factor(self):
        lhs, rhs = product_identity_sides(3, 0)
        assert lhs == rhs
        assert lhs.degree == 2

    def test_p5_m2_exact(self):
        lhs, rhs = product_identity_sides(5, 2)
        assert lhs.degree == 124
        assert lhs == rhs
