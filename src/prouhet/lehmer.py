"""Root-of-unity weighted constructions of equal-power-sum multisets.

Given a base p and positive integer weights (mu_0, ..., mu_M), every digit
tuple (a_0, ..., a_M) with entries in 0..p-1 contributes the value
a_0*mu_0 + ... + a_M*mu_M to the class named by (a_0 + ... + a_M) mod p.
The p classes, kept as multisets (distinct tuples may collide on the same
value), have equal power sums for every exponent up to M.  With mu_m = p**m
the values enumerate 0..p**(M+1)-1 exactly once each and the classes are
the digit-sum partition.

Convention used throughout: a weight vector of length M+1 contributes
exactly one product factor per weight (M+1 factors, strides p**0..p**M).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .factorization import DensePolynomial, first_coefficient_mismatch, ptm_polynomial
from .rings import CyclotomicElement, omega_pow
from .sequence import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PTMParams,
    ZeroSumVector,
    power_exceeds,
)


@dataclass(frozen=True)
class LehmerSpec:
    """Base p >= 2 and positive integer weights (mu_0, ..., mu_M)."""

    p: int
    mu: tuple
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"base p must be an integer >= 2, got {self.p!r}")
        object.__setattr__(self, "mu", tuple(self.mu))
        if not self.mu:
            raise ValueError("at least one weight is required")
        for w in self.mu:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget!r}")
        if power_exceeds(self.p, len(self.mu), self.budget):
            raise BudgetExceededError(
                f"enumeration of {self.p}**{len(self.mu)} tuples exceeds "
                f"budget {self.budget}"
            )

    @classmethod
    def base_powers(cls, p, degree, budget=DEFAULT_BUDGET):
        """Weights (1, p, ..., p**degree), the digit-sum partition case."""
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
        return cls(p, tuple(p**m for m in range(degree + 1)), budget)

    @property
    def degree(self):
        """Highest guaranteed degree of power-sum agreement: len(mu) - 1."""
        return len(self.mu) - 1

    @property
    def tuple_count(self):
        return self.p ** len(self.mu)


@dataclass(frozen=True)
class ClassifiedMultiset:
    """p value multisets, each a tuple of (value, multiplicity) pairs sorted
    by value; total multiplicity across classes is p**(M+1)."""

    p: int
    classes: tuple

    @property
    def total_count(self):
        return sum(mult for cls in self.classes for _, mult in cls)

    def multiplicities_all_one(self):
        return all(mult == 1 for cls in self.classes for _, mult in cls)

    def value_sets(self):
        """Per-class tuples of values, multiplicities dropped."""
        return tuple(tuple(value for value, _ in cls) for cls in self.classes)


def multiset_power_sum(pairs, exponent):
    """Multiplicity-weighted sum of exponent-th powers (0**0 = 1)."""
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    return sum(mult * value**exponent for value, mult in pairs)


def lehmer_expand(spec):
    """Enumerate all p**(M+1) digit tuples and bucket their weighted values
    by digit-sum class, keeping multiplicities."""
    counters = [Counter() for _ in range(spec.p)]
    for digits in itertools.product(range(spec.p), repeat=len(spec.mu)):
        value = sum(d * w for d, w in zip(digits, spec.mu))
        counters[sum(digits) % spec.p][value] += 1
    return ClassifiedMultiset(
        spec.p, tuple(tuple(sorted(c.items())) for c in counters)
    )


@dataclass(frozen=True)
class LehmerReport:
    """Power-sum comparison across the classified multisets for m = 0..M."""

    equal_up_to: int
    first_violation: Optional[tuple]
    power_sums: tuple


def lehmer_verify(spec):
    """Check equal multiset power sums across all p classes for m = 0..M."""
    multiset = lehmer_expand(spec)
    rows = []
    equal_up_to = spec.degree
    first_violation = None
    for m in range(spec.degree + 1):
        sums = [multiset_power_sum(cls, m) for cls in multiset.classes]
        rows.append(tuple(sums))
        if first_violation is None:
            for k in range(1, len(sums)):
                if sums[k] != sums[0]:
                    equal_up_to = m - 1
                    first_violation = (m, 0, k)
                    break
    return LehmerReport(equal_up_to, first_violation, tuple(rows))


def lehmer_weighted_sum(spec, exponent):
    """The exact cyclotomic value sum_tuples w^{digit sum} * value**m.

    Computed as a finite sum over all tuples (grouped by class, then scaled
    by the class's root-of-unity weight).  Zero for every m <= M.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    sums = [0] * spec.p
    for digits in itertools.product(range(spec.p), repeat=len(spec.mu)):
        value = sum(d * w for d, w in zip(digits, spec.mu))
        sums[sum(digits) % spec.p] += value**exponent
    total = CyclotomicElement.zero(spec.p)
    for k, s in enumerate(sums):
        total = total + s * omega_pow(spec.p, k)
    return total


def product_identity_sides(p, degree, budget=DEFAULT_BUDGET):
    """Both sides of the class generating identity over the cyclotomic ring.

    Left: the product over m = 0..degree of
    1 + w*x^{p^m} + w^2*x^{2*p^m} + ... + w^{p-1}*x^{(p-1)*p^m}.
    Right: the block polynomial whose x^i coefficient is w^{t(i)},
    i = 0..p**(degree+1)-1.  For p = 2 each factor is 1 - x^{2^m}.
    """
    params = PTMParams(p, degree + 1, budget)
    lhs = DensePolynomial([CyclotomicElement.one(p)])
    for level in range(degree + 1):
        stride = p**level
        factor = [CyclotomicElement.zero(p)] * ((p - 1) * stride + 1)
        for j in range(p):
            factor[j * stride] = omega_pow(p, j)
        lhs = lhs * DensePolynomial(factor)
    rhs = ptm_polynomial(params, ZeroSumVector.roots_of_unity(p))
    return lhs, rhs


def verify_product_identity(p, degree, budget=DEFAULT_BUDGET):
    """True when the product expansion equals the block polynomial exactly."""
    lhs, rhs = product_identity_sides(p, degree, budget)
    return first_coefficient_mismatch(lhs, rhs) is None
