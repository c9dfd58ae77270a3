"""Digit-sum partitions of {0, ..., p**n - 1} and exact power-sum checks.

Assigning each n to the class named by its digit-sum residue splits the
block into p classes of equal size whose power sums agree for every degree
up to n - 1 (all sums are exact big integers, with 0**0 = 1).
"""

import itertools
from collections import namedtuple

# ptm_term stays importable from here: perfbench/spans.py wraps it by this name.
from .sequence import ptm_term  # noqa: F401


def weighted_classes(p, weights):
    """The values a_0*mu_0 + a_1*mu_1 + ... of all digit tuples (a_j in
    0..p-1) for weights (mu_0, mu_1, ...), as p lists: list k holds the
    values of the tuples of digit sum k mod p, repeated where they collide.

    This is the term-by-term expansion of prod_j sum_{d<p} w^d x^{d*mu_j}:
    after weight mu, class (k + d) mod p holds the previous class k shifted
    by d*mu, d = 0..p-1.  With weights (1, p, ..., p**(n-1)) each list is
    sorted and the lists are the digit-sum partition of {0, ..., p**n - 1}.
    A level shifts only the classes that hold values (class 0 alone at the
    first weight), in d-outer order, which keeps base-power lists sorted.
    """
    classes = [[0]] + [[] for _ in range(p - 1)]
    for mu in weights:
        grown = [list(values) for values in classes]
        filled = [(k, values) for k, values in enumerate(classes) if values]
        for d in range(1, p):
            shift = d * mu
            for k, values in filled:
                grown[(k + d) % p] += [v + shift for v in values]
        classes = grown
    return classes


def prouhet_partition(params):
    """The digit-sum partition of {0, ..., p**n - 1}: p sorted tuples,
    tuple k holding every n with t(n) = k.  It is weighted_classes at the
    base-power weights, so the params alone determine it."""
    return tuple(map(tuple, weighted_classes(params.p, params.weights)))


def power_sum(values, exponent):
    """Sum of exponent-th powers, with the 0**0 = 1 convention."""
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    return sum(n**exponent for n in values)


def class_power_sums(p, weights):
    """Rows (S_0(r), ..., S_{p-1}(r)) for r = 0, 1, 2, ..., without end.

    S_k(r) is the r-th power sum (0**0 = 1) of the multiset of values
    a_0*w_0 + a_1*w_1 + ... over all digit tuples (a_j in 0..p-1) whose
    digit sum is k mod p.  No value is listed: each weight w adds a level,
    whose class (k + d) mod p holds the previous class k shifted by d*w,
    d = 0..p-1, so by the binomial theorem
    S'_{(k+d) mod p}(r) += sum_i C(r, i) * (d*w)**(r-i) * S_k(i).
    Rows are built on demand; at each weight, row r makes p - 1 passes over
    the nonzero entries of rows 0..r, at most O(len(weights) * p**2 * r)
    big-integer operations in all.  With weights (1, p, ..., p**(n-1)) the
    classes are the digit-sum partition of {0, ..., p**n - 1}.
    """
    weights = tuple(weights)
    # history[j] holds rows 0..r of the classes built from weights[:j], each
    # as its nonzero (k, S_k) pairs: row 0 before the first weight is one pair.
    history = [[] for _ in weights]
    binomials = [1]  # row r of Pascal's triangle
    for r in itertools.count():
        row = [1 if r == 0 else 0] + [0] * (p - 1)  # no weights: the value 0
        for w, rows in zip(weights, history):
            rows.append([(k, s) for k, s in enumerate(row) if s])
            grown = list(row)
            for d in range(1, p):
                shift = d * w
                power = 1
                for i in range(r, -1, -1):
                    coeff = binomials[i] * power
                    for k, s in rows[i]:
                        grown[(k + d) % p] += coeff * s
                    power *= shift
            row = grown
        yield tuple(row)
        binomials = [a + b for a, b in zip([0] + binomials, binomials + [0])]


def power_sum_table(params):
    """The digit-sum classes' power-sum rows of degrees 0..n-1."""
    return tuple(itertools.islice(class_power_sums(params.p, params.weights), params.n))


class EspReport(namedtuple("EspReport", "equal_up_to first_violation power_sums")):
    """Result of an equal-power-sums check.

    equal_up_to is the largest degree d <= through_degree with all classes
    agreeing for every exponent <= d (-1 if they already differ in size);
    first_violation is the lexicographically first failing (m, j, k), or
    None; power_sums holds the rows scanned, degree 0 through the last one
    read.
    """

    __slots__ = ()


def scan_power_sums(rows, through_degree):
    """EspReport of the class power-sum rows for degrees 0..through_degree.

    Rows are read only up to the first violation, so a lazy source past it
    is never built.
    """
    scanned = []
    for m, sums in zip(range(through_degree + 1), rows):
        scanned.append(sums)
        for k in range(1, len(sums)):
            if sums[k] != sums[0]:
                return EspReport(m - 1, (m, 0, k), tuple(scanned))
    return EspReport(through_degree, None, tuple(scanned))


def verify_esp(params, through_degree):
    """Check equal power sums across the digit-sum classes of params' block
    for exponents 0..through_degree, as an EspReport."""
    if through_degree < 0:
        raise ValueError(f"through_degree must be non-negative, got {through_degree!r}")
    return scan_power_sums(class_power_sums(params.p, params.weights), through_degree)
