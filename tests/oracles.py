"""Reference constructions that only the tests use.

Each one computes a quantity the package computes another way: term by
term, by repeated ring-generic division, or by multiplying DensePolynomial
factors.  They stay slow and direct on purpose.
"""

import itertools

from prouhet import (
    CyclotomicElement,
    DensePolynomial,
    NotDivisibleError,
    PTMParams,
    ZeroSumForm,
    first_coefficient_mismatch,
    omega_pow,
    one_minus_x_pow,
    product_identity_sides,
    ptm_block,
    ptm_term,
)
from prouhet.factorization import polynomial_from_columns


def map_coeffs(poly, fn):
    """Apply fn to every coefficient of poly and re-canonicalize."""
    return DensePolynomial(fn(c) for c in poly.coeffs)


def specialize(poly, values):
    """Substitute concrete zero-sum values for the symbolic generators in
    every coefficient; non-symbolic coefficients pass through unchanged."""
    return map_coeffs(
        poly, lambda c: c.specialize(values) if isinstance(c, ZeroSumForm) else c
    )


def ptm_polynomial_recursive(params, vector):
    """Independent blockwise construction of the block polynomial: the
    level-n polynomial is the sum of the level-(n-1) polynomials of the
    cyclic shifts of the vector, the k-th moved up by k * p**(n-1)."""
    p = params.p
    if len(vector) != p:
        raise ValueError(f"vector length {len(vector)} does not match base {p}")
    if params.n == 1:
        return DensePolynomial(vector)
    sub = PTMParams(p, params.n - 1, params.budget)
    stride = p ** (params.n - 1)
    total = DensePolynomial()
    for k in range(p):
        block = ptm_polynomial_recursive(sub, vector.shift(k))
        total = total + block.shifted(k * stride)
    return total


def classes_by_label(params):
    """The digit-sum classes of {0, ..., p**n - 1} by bucketing the indices
    of one ptm_block by their labels."""
    buckets = [[] for _ in range(params.p)]
    for n, label in enumerate(ptm_block(params)):
        buckets[label].append(n)
    return tuple(map(tuple, buckets))


def product_value_lists(p, weights):
    """Class value lists of every digit tuple, from itertools.product."""
    lists = [[] for _ in range(p)]
    for digits in itertools.product(range(p), repeat=len(weights)):
        lists[sum(digits) % p].append(sum(d * w for d, w in zip(digits, weights)))
    return lists


def cube_cofactor(n, vector):
    """The level-n cofactor of a zero-sum list of ints A as the direct cube
    sum C[i] = sum of A[t(e)] over all e <= i digit by digit, for each i
    whose base-p digits are all at most p - 2, and 0 for every other i; as
    long as the block of p**n terms divided by the n binomials."""
    p = len(vector)
    out = []
    for i in range(p**n - (p**n - 1) // (p - 1)):
        digits = [i // p**k % p for k in range(n)]
        if max(digits) > p - 2:
            out.append(0)
            continue
        below = itertools.product(*(range(d + 1) for d in digits))
        out.append(sum(vector[ptm_term(sum(d * p**k for k, d in enumerate(e)), p)] for e in below))
    return out


def vanishing_order_at_one(poly):
    """Multiplicity of the root x = 1, via repeated exact division by 1 - x."""
    if not poly:
        raise ValueError("the zero polynomial vanishes to every order at x = 1")
    binomial = one_minus_x_pow(1)
    order = 0
    while True:
        try:
            poly = poly.exact_div(binomial)
        except NotDivisibleError:
            return order
        order += 1


def weighted_power_sum(params, vector, exponent):
    """Sum of i**m * vector[t(i)] over the block, in the vector's ring.

    Equals a_0*s_0(m) + ... + a_{p-1}*s_{p-1}(m) where s_k(m) is the m-th
    power sum of digit-sum class k (0**0 = 1).  Zero for every m < n.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    p = params.p
    if len(vector) != p:
        raise ValueError(f"vector length {len(vector)} does not match base {p}")
    total = 0
    for i in range(params.block_length):
        total = total + (i**exponent) * vector[ptm_term(i, p)]
    return total


def multiset_power_sum(pairs, exponent):
    """Multiplicity-weighted sum of exponent-th powers (0**0 = 1)."""
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    return sum(mult * value**exponent for value, mult in pairs)


def dense_product_lhs(p, degree):
    """The product over m = 0..degree of 1 + w*x^{p^m} + ... +
    w^{p-1}*x^{(p-1)*p^m}, by DensePolynomial multiplication over the
    cyclotomic ring."""
    lhs = DensePolynomial([CyclotomicElement.one(p)])
    for level in range(degree + 1):
        stride = p**level
        factor = [CyclotomicElement.zero(p)] * ((p - 1) * stride + 1)
        for j in range(p):
            factor[j * stride] = omega_pow(p, j)
        lhs = lhs * DensePolynomial(factor)
    return lhs


def identity_side_polynomials(p, degree):
    """Both sides of product_identity_sides as polynomials over the
    cyclotomic ring, built from their coordinate columns."""
    one = CyclotomicElement.one(p)
    sides = product_identity_sides(PTMParams.from_degree(p, degree))
    return tuple(polynomial_from_columns(side, one) for side in sides)


def verify_product_identity(p, degree):
    """True when the product expansion equals the block polynomial exactly."""
    lhs, rhs = identity_side_polynomials(p, degree)
    return first_coefficient_mismatch(lhs, rhs) is None
