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

import itertools
import operator
from collections import Counter, namedtuple

from .factorization import block_columns
# ptm_polynomial stays importable from here: perfbench/spans.py wraps it by this name.
from .factorization import ptm_polynomial  # noqa: F401
from .partition import class_power_sums, scan_power_sums, weighted_classes
from .rings import CyclotomicElement, reduce_zero_sum, symbol_columns
from .sequence import DEFAULT_BUDGET, PTMParams, ptm_block


class LehmerSpec(namedtuple("LehmerSpec", "p mu budget")):
    """Base p >= 2 and positive integer weights (mu_0, ..., mu_M), held as
    a tuple; an immutable value, checked on construction."""

    __slots__ = ()

    def __new__(cls, p, mu, budget=DEFAULT_BUDGET):
        mu = tuple(mu)
        if not mu:
            raise ValueError("at least one weight is required")
        for w in mu:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        # The p**(M+1) tuples are a block of M+1 digits: PTMParams checks
        # the base, the budget and that count.
        PTMParams(p, len(mu), budget)
        return super().__new__(cls, p, mu, budget)

    @classmethod
    def base_powers(cls, p, degree, budget=DEFAULT_BUDGET):
        """Weights (1, p, ..., p**degree), the digit-sum partition case.

        The degree, base and budget are checked before any weight is built.
        """
        return cls(p, PTMParams.from_degree(p, degree, budget).weights, budget)

    @property
    def degree(self):
        """Highest guaranteed degree of power-sum agreement: len(mu) - 1."""
        return len(self.mu) - 1

    @property
    def tuple_count(self):
        return self.p ** len(self.mu)


def lehmer_expand(spec):
    """The weighted values of all p**(M+1) digit tuples by digit-sum class:
    p tuples of (value, multiplicity) pairs sorted by value, whose
    multiplicities total p**(M+1).  It is weighted_classes, sorted and
    counted: sorting the ints first, not the pairs, compares ints alone,
    and a Counter keeps first-insertion order, so its pairs come out
    sorted."""
    classes = weighted_classes(spec.p, spec.mu)
    return tuple(tuple(Counter(sorted(values)).items()) for values in classes)


def _class_moments(pairs, degree):
    """Multiplicity-weighted power sums of (value, multiplicity) pairs for
    exponents 0..degree (0**0 = 1), one running power per value."""
    values = [value for value, _ in pairs]
    powers = [mult for _, mult in pairs]  # mult * value**0
    sums = [sum(powers)]
    for _ in range(degree):
        powers = list(map(operator.mul, powers, values))
        sums.append(sum(powers))
    return sums


def lehmer_verify(spec):
    """Check equal multiset power sums across all p classes for m = 0..M,
    as an EspReport."""
    rows = zip(*(_class_moments(cls, spec.degree) for cls in lehmer_expand(spec)))
    return scan_power_sums(rows, spec.degree)


def lehmer_weighted_sum(spec, exponent):
    """The exact cyclotomic value sum_tuples w^{digit sum} * value**m.

    It is sum_k S_k * w^k over row m of class_power_sums, read without
    listing any tuple; reduce_zero_sum gives its coordinates and shows that
    it is zero exactly when the row is constant, as for every m <= M.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    sums = next(itertools.islice(class_power_sums(spec.p, spec.mu), exponent, None))
    return CyclotomicElement(spec.p, reduce_zero_sum(sums))


def product_identity_sides(params):
    """Both sides of the class generating identity for the block of params,
    as the p - 1 integer columns of their coordinates on w^0, ..., w^{p-2},
    each of length p**n.

    Left: the product over m = 0..n-1 of
    1 + w*x^{p^m} + w^2*x^{2*p^m} + ... + w^{p-1}*x^{(p-1)*p^m}.
    Right: the block polynomial whose x^i coefficient is w^{t(i)},
    i = 0..p**n-1.  For p = 2 each factor is 1 - x^{2^m}.

    Expanded over Z[w]/(w^p - 1), the left side's coefficient of w^r is the
    histogram of class r of weighted_classes at the base-power weights, so
    its p integer columns are read off those lists.  They are reduced to the
    quotient ring once, by w^{p-1} = -(1 + w + ... + w^{p-2}).  The right
    side reads one ptm_block through the coordinate columns of the w^t
    (symbol_columns).  The sides are equal exactly when their columns
    are; polynomial_from_columns turns either into a polynomial over the
    cyclotomic ring.
    """
    p = params.p
    *classes, last = weighted_classes(p, params.weights)
    # reduce_zero_sum on every row at once: each column starts from minus
    # the histogram of class p - 1, the coefficients of w^{p-1}.  Each
    # class list is dropped once it is counted, so the lists and the
    # columns are never all alive at once.
    minus_last = [0] * params.block_length
    for v in last:
        minus_last[v] -= 1
    del last
    lhs = []
    for k, values in enumerate(classes):
        classes[k] = None
        column = list(minus_last)
        for v in values:
            column[v] += 1
        lhs.append(column)
    del values
    return lhs, block_columns(ptm_block(params), symbol_columns(p))
