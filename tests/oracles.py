"""Reference constructions that only the tests use.

Each one computes a quantity the package computes another way: term by
term, by repeated ring-generic division, or by multiplying DensePolynomial
factors.  They stay slow and direct on purpose.  The ring helpers below
them (binomials, shifts, ring constants, roots of unity) build the test
vectors and polynomials; the package itself computes on integer columns.
off_by_one_expand is a fault, not an oracle: a listing that disagrees
with its power-sum rows.
"""

import itertools

import prouhet.lehmer
from prouhet import (
    CyclotomicElement,
    DensePolynomial,
    NotDivisibleError,
    PTMParams,
    ZeroSumForm,
    ZeroSumVector,
    first_coefficient_mismatch,
    product_identity_sides,
    ptm_block,
    ptm_term,
)
from prouhet.factorization import (
    coordinate_columns,
    polynomial_from_columns,
    times_binomial_columns,
)
from prouhet.rings import check_base


def one_minus_x_pow(d):
    """The integer binomial 1 - x^d."""
    if d < 1:
        raise ValueError(f"exponent must be >= 1, got {d!r}")
    return DensePolynomial((1,) + (0,) * (d - 1) + (-1,))


def shifted(poly, d):
    """poly multiplied by x^d, the padding in poly's coefficient ring."""
    if d < 0:
        raise ValueError(f"shift must be non-negative, got {d!r}")
    if d == 0 or not poly:
        return poly
    pad = 0 * poly.coeffs[0]  # zero of the coefficient ring
    return DensePolynomial((pad,) * d + poly.coeffs)


def times_binomial_product(params, poly):
    """poly * (1 - x)(1 - x^p)...(1 - x^{p^{n-1}}) over poly's ring, through
    the package's column kernel."""
    if not poly:
        return poly
    sample = poly.coeffs[-1]
    columns = coordinate_columns(poly.coeffs, sample)
    return polynomial_from_columns(times_binomial_columns(params, columns), sample)


def ring_zero(cls, p):
    """The zero of a zero-sum ring class (CyclotomicElement or ZeroSumForm)."""
    return cls(p, (0,) * (p - 1))


def cyclotomic_int(p, value):
    """The image of an ordinary integer under Z -> Z[w]: value * w^0."""
    return CyclotomicElement(p, (value,) + (0,) * (p - 2))


def specialize_form(form, values):
    """Evaluate a ZeroSumForm at a concrete length-p assignment whose
    entries sum to zero."""
    values = tuple(values)
    if len(values) != form.p:
        raise ValueError(f"expected {form.p} values, got {len(values)}")
    total = sum(values)
    if total != 0:
        raise ValueError(f"values must sum to zero, got sum {total!r}")
    return sum(c * v for c, v in zip(form.coeffs, values))


def omega_pow(p, k):
    """w^k in canonical form; k may be any integer (reduced mod p)."""
    check_base(p)
    return CyclotomicElement.basis(p, k % p)


def roots_of_unity(p):
    """The zero-sum vector (w^0, w^1, ..., w^{p-1}) over the cyclotomic ring."""
    return ZeroSumVector(omega_pow(p, k) for k in range(p))


def shift(vector, k):
    """The k-th left cyclic shift of a zero-sum vector (k reduced mod p)."""
    k %= vector.p
    return ZeroSumVector(vector[k:] + vector[:k])


def map_coeffs(poly, fn):
    """Apply fn to every coefficient of poly and re-canonicalize."""
    return DensePolynomial(fn(c) for c in poly.coeffs)


def specialize(poly, values):
    """Substitute concrete zero-sum values for the symbolic generators in
    every coefficient; non-symbolic coefficients pass through unchanged."""
    return map_coeffs(
        poly, lambda c: specialize_form(c, values) if isinstance(c, ZeroSumForm) else c
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
        block = ptm_polynomial_recursive(sub, shift(vector, k))
        total = total + shifted(block, k * stride)
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


def off_by_one_expand(degree):
    """lehmer_expand with the first pair of its last class changed so that
    the listing's degree-`degree` power sum is off: a multiplicity lowered
    by 1 (the count moves) or a value raised by 1 (the plain sum moves, the
    count does not)."""
    real = prouhet.lehmer.lehmer_expand

    def expand(spec):
        *classes, ((value, mult), *rest) = real(spec)
        pair = (value, mult - 1) if degree == 0 else (value + 1, mult)
        return (*classes, (pair, *rest))

    return expand


def dense_product_lhs(p, degree):
    """The product over m = 0..degree of 1 + w*x^{p^m} + ... +
    w^{p-1}*x^{(p-1)*p^m}, by DensePolynomial multiplication over the
    cyclotomic ring."""
    lhs = DensePolynomial([cyclotomic_int(p, 1)])
    for level in range(degree + 1):
        stride = p**level
        factor = [ring_zero(CyclotomicElement, p)] * ((p - 1) * stride + 1)
        for j in range(p):
            factor[j * stride] = omega_pow(p, j)
        lhs = lhs * DensePolynomial(factor)
    return lhs


def identity_side_polynomials(p, degree):
    """Both sides of product_identity_sides as polynomials over the
    cyclotomic ring, built from their coordinate columns."""
    one = cyclotomic_int(p, 1)
    sides = product_identity_sides(PTMParams.from_degree(p, degree))
    return tuple(polynomial_from_columns(side, one) for side in sides)


def verify_product_identity(p, degree):
    """True when the product expansion equals the block polynomial exactly."""
    lhs, rhs = identity_side_polynomials(p, degree)
    return first_coefficient_mismatch(lhs, rhs) is None
