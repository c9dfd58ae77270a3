import itertools
import random
import re
import sys
import time
import tracemalloc
from collections import Counter

import pytest

from prouhet import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CyclotomicElement,
    EspReport,
    LehmerSpec,
    PTMParams,
    class_power_sums,
    lehmer_expand,
    lehmer_verify,
    lehmer_weighted_sum,
    product_identity_sides,
    prouhet_partition,
    weighted_classes,
)

from oracles import (
    cyclotomic_int,
    identity_side_polynomials,
    multiset_power_sum,
    omega_pow,
    ring_zero,
    verify_product_identity,
)
from randomized import random_cases


def brute_force_class_sums(p, mu, exponent):
    """Independent oracle: enumerate tuples directly with itertools.product."""
    sums = [0] * p
    for digits in itertools.product(range(p), repeat=len(mu)):
        value = sum(d * w for d, w in zip(digits, mu))
        sums[sum(digits) % p] += value**exponent
    return sums


def product_classes(p, mu):
    """Oracle: (value, multiplicity) pairs per class from itertools.product."""
    counters = [Counter() for _ in range(p)]
    for digits in itertools.product(range(p), repeat=len(mu)):
        counters[sum(digits) % p][sum(d * w for d, w in zip(digits, mu))] += 1
    return tuple(tuple(sorted(c.items())) for c in counters)


def per_tuple_weighted_sum(spec, exponent):
    """Oracle: sum over every tuple of w^{digit sum} * value**exponent."""
    total = ring_zero(CyclotomicElement, spec.p)
    for k, s in enumerate(brute_force_class_sums(spec.p, spec.mu, exponent)):
        total = total + s * omega_pow(spec.p, k)
    return total


def random_spec(rng):
    """A small spec whose weights are random, or repeat one weight so that
    distinct tuples collide on a value (multiplicities above 1)."""
    p = rng.randint(2, 4)
    mu = [rng.randint(1, 30) for _ in range(rng.randint(1, {2: 6, 3: 4, 4: 3}[p]))]
    if rng.random() < 0.5:
        mu.insert(rng.randint(0, len(mu)), rng.choice(mu))
    return LehmerSpec(p, tuple(mu))


def random_weighted_spec(rng):
    """A random_spec whose weights are not the base powers 1, p, p**2, ..."""
    while True:
        spec = random_spec(rng)
        if spec.mu != tuple(spec.p**j for j in range(len(spec.mu))):
            return spec


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

    def test_base_powers_checks_budget_before_building_weights(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            LehmerSpec.base_powers(3, 100000, budget=10)
        assert time.perf_counter() - start < 1.0

    def test_value_type(self):
        spec = LehmerSpec(2, [1, 2])
        assert spec.mu == (1, 2)
        assert repr(spec) == "LehmerSpec(p=2, mu=(1, 2), budget=10000000)"
        assert spec == LehmerSpec(2, (1, 2)) == LehmerSpec(2, iter([1, 2]), DEFAULT_BUDGET)
        assert hash(spec) == hash(LehmerSpec(2, (1, 2)))
        assert spec != LehmerSpec(2, (2, 1))
        for field in ("p", "mu", "budget", "extra"):
            with pytest.raises(AttributeError):
                setattr(spec, field, (3,))

    @pytest.mark.parametrize(
        "args,error,message",
        [
            ((2, []), ValueError, "at least one weight is required"),
            ((2, [1, 0]), ValueError, "weights must be positive integers, got 0"),
            ((2, [1.5]), ValueError, "weights must be positive integers, got 1.5"),
            ((1, [1]), ValueError, "base p must be an integer >= 2, got 1"),
            ((2, (1,) * 3, 7), BudgetExceededError, "block of 2**3 terms exceeds budget 7"),
        ],
    )
    def test_validation_messages(self, args, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            LehmerSpec(*args)

    def test_base_powers_keeps_validation_order(self):
        with pytest.raises(ValueError):
            LehmerSpec.base_powers(1, 100000, budget=10)
        with pytest.raises(ValueError):
            LehmerSpec.base_powers(3, 100000, budget=0)


class TestLehmerExpand:
    def test_collision_keeps_multiplicity(self):
        classes = lehmer_expand(LehmerSpec(2, (1, 1)))
        assert classes == (((0, 1), (2, 1)), ((1, 2),))
        assert sum(mult for cls in classes for _, mult in cls) == 4

    def test_base_powers_reproduce_partition(self):
        classes = lehmer_expand(LehmerSpec(2, (1, 2, 4, 8)))
        part = prouhet_partition(PTMParams.from_degree(2, 3))
        assert all(mult == 1 for cls in classes for _, mult in cls)
        assert tuple(tuple(value for value, _ in cls) for cls in classes) == part

    def test_p3_two_weights(self):
        # hand enumeration of the nine tuples (a0, a1), value a0 + 2*a1
        assert lehmer_expand(LehmerSpec(3, (1, 2))) == (
            ((0, 1), (4, 1), (5, 1)),
            ((1, 1), (2, 1), (6, 1)),
            ((2, 1), (3, 1), (4, 1)),
        )

    @pytest.mark.parametrize("p,mu", [(2, (3, 5)), (3, (1, 2)), (4, (2, 2, 7))])
    def test_total_count(self, p, mu):
        classes = lehmer_expand(LehmerSpec(p, mu))
        assert sum(mult for cls in classes for _, mult in cls) == p ** len(mu)

    @random_cases
    def test_matches_product_oracle(self, rng):
        spec = random_spec(rng)
        assert lehmer_expand(spec) == product_classes(spec.p, spec.mu)

    def test_repeated_weight_gives_multiplicities(self):
        classes = product_classes(3, (2, 5, 2))
        assert any(mult > 1 for cls in classes for _, mult in cls)
        assert lehmer_expand(LehmerSpec(3, (2, 5, 2))) == classes


class TestLehmerVerify:
    def test_golden_base_powers(self):
        report = lehmer_verify(LehmerSpec(2, (1, 2, 4, 8)))
        assert isinstance(report, EspReport)  # the report verify_esp gives
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

    @random_cases
    def test_sums_match_product_oracle(self, rng):
        spec = random_spec(rng)
        classes = product_classes(spec.p, spec.mu)
        report = lehmer_verify(spec)
        assert report.power_sums == tuple(
            tuple(multiset_power_sum(cls, m) for cls in classes)
            for m in range(spec.degree + 1)
        )
        assert report.first_violation is None


class TestClassPowerSums:
    @random_cases
    def test_matches_product_oracle(self, rng):
        spec = random_spec(rng)
        classes = product_classes(spec.p, spec.mu)
        rows = itertools.islice(class_power_sums(spec.p, spec.mu), len(spec.mu) + 3)
        for m, row in enumerate(rows):
            assert row == tuple(multiset_power_sum(cls, m) for cls in classes), (spec, m)


class TestWeightedSum:
    def test_single_weight_p2(self):
        # 1 + w = 0 in the p = 2 quotient ring
        assert lehmer_weighted_sum(LehmerSpec(2, (1,)), 0) == ring_zero(CyclotomicElement, 2)

    @pytest.mark.parametrize("p,mu", [(2, (1, 5)), (3, (1, 2)), (3, (3, 7, 11)), (5, (2, 9))])
    def test_vanishes_up_to_degree(self, p, mu):
        spec = LehmerSpec(p, mu)
        for m in range(len(mu)):
            assert not lehmer_weighted_sum(spec, m)

    @random_cases
    def test_matches_per_tuple_oracle(self, rng):
        spec = random_spec(rng)
        for m in range(len(spec.mu) + 3):
            assert lehmer_weighted_sum(spec, m) == per_tuple_weighted_sum(spec, m)

    @random_cases
    def test_vanishes_exactly_on_constant_rows(self, rng):
        # Past degree M the rows need not be constant, so both outcomes occur.
        spec = random_weighted_spec(rng)
        rows = itertools.islice(class_power_sums(spec.p, spec.mu), spec.degree + 3)
        for r, row in enumerate(rows):
            value = lehmer_weighted_sum(spec, r)
            assert (not value) == (len(set(row)) == 1), (spec, r)
            assert list(value.coeffs) == [s - row[-1] for s in row[:-1]], (spec, r)

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
        lhs, rhs = identity_side_polynomials(2, 3)
        assert lhs == rhs
        plus_one = cyclotomic_int(2, 1)
        minus_one = CyclotomicElement(2, (-1,))
        signs = [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]
        expected = [plus_one if s == 1 else minus_one for s in signs]
        assert list(rhs.coeffs) == expected

    def test_p3_single_factor(self):
        lhs, rhs = identity_side_polynomials(3, 0)
        assert lhs == rhs
        assert lhs.degree == 2

    def test_p5_m2_exact(self):
        lhs, rhs = identity_side_polynomials(5, 2)
        assert lhs.degree == 124
        assert lhs == rhs

    @pytest.mark.parametrize("p,m", [(2, 15), (3, 9)])
    def test_class_lists_and_columns_are_never_all_alive(self, p, m):
        # Each class list is dropped once its column is counted.  On Python
        # 3.11 the peak reads 0.65-0.77 of the lists' own peak plus the
        # returned columns; holding every list to the end read 1.17.
        params = PTMParams.from_degree(p, m)

        def peak(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, lists_peak = peak(lambda: weighted_classes(p, params.weights))
        (lhs, rhs), sides_peak = peak(lambda: product_identity_sides(params))
        assert lhs == rhs
        columns = sum(map(sys.getsizeof, lhs + rhs))
        assert sides_peak <= 0.95 * (lists_peak + columns)
