"""Dense exact polynomial arithmetic and the Thue-Morse factorization.

For a base p, exponent n, and zero-sum vector A, the block polynomial whose
x^i coefficient is A[t(i)] (t the digit-sum residue) factors exactly as

    cofactor(x) * (1 - x) * (1 - x^p) * ... * (1 - x^{p^{n-1}})

over A's coefficient ring.  The cofactor is produced two independent ways —
by dividing out each binomial in turn, and by a direct recursive
construction — and the two must agree coefficient-for-coefficient.  The
factorization forces the block polynomial to vanish at x = 1 to order at
least n, which is what makes the digit-sum classes share power sums.

Polynomials are dense coefficient tuples, lowest degree first, with no
trailing zeros; coefficients live in any of the exact rings (int,
CyclotomicElement, ZeroSumForm).  Each ring adds coordinate by coordinate
(an int is its own coordinate, a ring element its coeffs), the identity is
linear in A, and multiplying or dividing by 1 - x^d only adds: so the
factorization runs as one integer identity per coordinate, on plain-int
columns, and its kernels name no ring.  The ring-generic DensePolynomial
multiply and exact_div are their reference.  All arithmetic is exact.
"""

import itertools
import operator

from .rings import power_name, signed_terms

# ptm_term stays importable from here: perfbench/spans.py wraps it by this name.
from .sequence import ptm_block, ptm_term  # noqa: F401


class NotDivisibleError(ArithmeticError):
    """Exact division left a nonzero remainder, kept in .remainder: a
    DensePolynomial from exact_div, its integer coordinate columns from
    the column kernels (divide_columns)."""

    def __init__(self, remainder):
        super().__init__(f"division is not exact; remainder {remainder!s}")
        self.remainder = remainder


class DensePolynomial:
    """Dense polynomial over an exact coefficient ring.

    Coefficients are stored lowest degree first.  Canonical form strips
    trailing zeros, so the zero polynomial has an empty coefficient tuple
    and equality is plain tuple comparison.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i):
        """Coefficient of x^i (integer zero beyond the stored span)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return DensePolynomial(out)

    def __neg__(self):
        return DensePolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return DensePolynomial()
        # Only nonzero pairs are multiplied, so the cost scales with the
        # nonzero counts; every slot starts at the zero of the product's ring.
        b_support = [(j, cb) for j, cb in enumerate(b) if cb]
        out = [0 * (a[-1] * b[-1])] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in b_support:
                out[i + j] = out[i + j] + ca * cb
        return DensePolynomial(out)

    def exact_div(self, divisor):
        """Exact quotient by a divisor whose constant term is a unit (+1 or
        -1); raises NotDivisibleError otherwise.

        Valid over any of the coefficient rings: the only inverse ever taken
        is of the +-1 pivot.  The recurrence runs over all len(self) terms,
        so q is the power series self / divisor to that order; the division
        is exact exactly when q is zero from the quotient's length on.
        NotDivisibleError carries the remainder self - quotient * divisor.
        """
        if not isinstance(divisor, DensePolynomial):
            raise TypeError("divisor must be a DensePolynomial")
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        f, g = self.coeffs, divisor.coeffs
        if g[0] != 1 and g[0] != -1:
            raise ValueError("divisor must have a unit (+1/-1) constant term")
        if not self:
            return DensePolynomial()
        qlen = len(f) - len(g) + 1
        if qlen <= 0:
            raise NotDivisibleError(self)
        sign = g[0]
        support = [(i, gi) for i, gi in enumerate(g) if i > 0 and gi]
        q = []
        for j in range(len(f)):
            acc = f[j]
            for i, gi in support:
                if i > j:
                    break
                acc = acc - gi * q[j - i]
            q.append(acc if sign == 1 else -acc)
        quotient = DensePolynomial(q[:qlen])
        if any(q[qlen:]):
            raise NotDivisibleError(self - quotient * divisor)
        return quotient

    def __eq__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((DensePolynomial, self.coeffs))

    def __repr__(self):
        return f"DensePolynomial({self.coeffs!r})"

    def __str__(self):
        return signed_terms((c, power_name("x", i)) for i, c in enumerate(self.coeffs))


def coordinate_columns(values, sample):
    """The coordinate columns of ring values of sample's ring, as int lists."""
    if isinstance(sample, int):
        return [list(values)]
    return [list(column) for column in zip(*(v.coeffs for v in values))]


def polynomial_from_columns(columns, sample):
    """The polynomial over sample's ring whose coordinate columns are given;
    all-zero rows share one zero element."""
    if isinstance(sample, int):
        return DensePolynomial(columns[0])
    ring, zero = type(sample), 0 * sample
    return DensePolynomial(ring(sample.p, row) if any(row) else zero for row in zip(*columns))


def _strided_prefix_sums(column, d):
    """s[j] = column[j] + s[j - d]: one accumulate per residue class mod d
    when there are few of them, else one vector add per length-d block."""
    s = list(column)
    if d * d < len(s):
        for r in range(d):
            s[r::d] = itertools.accumulate(s[r::d])
    else:
        for start in range(d, len(s), d):
            s[start:start + d] = map(operator.add, s[start:start + d], s[start - d:start])
    return s


def first_coefficient_mismatch(lhs, rhs):
    """First (exponent, lhs_coeff, rhs_coeff) where two polynomials differ,
    or None when they are equal."""
    for i in range(max(len(lhs.coeffs), len(rhs.coeffs))):
        a, b = lhs.coefficient(i), rhs.coefficient(i)
        if a != b:
            return (i, a, b)
    return None


def block_columns(labels, columns):
    """The block polynomial's coordinate columns: entry i of each is its entry at label t(i)."""
    return [list(map(column.__getitem__, labels)) for column in columns]


def strip_zero_rows(columns):
    """Columns without their trailing all-zero rows: DensePolynomial's canonical length."""
    length = len(columns[0])
    while length and not any(column[length - 1] for column in columns):
        length -= 1
    return [column[:length] for column in columns]


def ptm_polynomial(params, vector):
    """Polynomial of degree < p**n whose x^i coefficient is vector[t(i)],
    t the digit-sum residue mod p."""
    columns = vector_columns(params, vector)
    return polynomial_from_columns(block_columns(ptm_block(params), columns), vector[0])


def binomial_product(params):
    """The divisor: product of (1 - x^{p^m}) for m = 0..n-1, built by
    shift-and-subtract.  Vanishes at x = 1 to order exactly n."""
    return polynomial_from_columns(times_binomial_columns(params, [[1]]), 1)


def times_binomial_columns(params, columns):
    """Coordinate columns multiplied back by each binomial 1 - x^{p^m} in
    turn, by shift and subtract: O(n * p**n) integer operations per column
    for a cofactor.  Empty (zero) columns stay empty."""
    if not columns[0]:
        return columns
    for m in range(params.n):
        d = params.p**m
        columns = [column + [0] * d for column in columns]
        for column in columns:
            column[d:] = map(operator.sub, column[d:], column[:-d])
    return columns


def vector_columns(params, vector):
    """The coordinate columns of a length-p vector, p ints each."""
    if len(vector) != params.p:
        raise ValueError(f"vector length {len(vector)} does not match base {params.p}")
    return coordinate_columns(vector, vector[0])


def cofactor_recursive(params, vector):
    """Cofactor built directly, without division, from each coordinate column
    of the vector; every column is itself a zero-sum integer vector."""
    columns = [recursive_column(params.n, c) for c in vector_columns(params, vector)]
    return polynomial_from_columns(columns, vector[0])


def recursive_column(n, vector):
    """Level-n cofactor of a zero-sum list of ints A, trailing zeros kept.

    Base case: coefficients are the prefix sums of the vector (the last one
    equals minus the final entry, which is what makes the base identity
    close).  Step: place the level-(n-1) cofactors of the prefix-shift sums
    B_k[t] = A[t] + A[t + 1] + ... + A[t + k] (indices mod p), k = 0..p-2,
    at offsets k * p**(n-1).

    In closed form C[i] = sum of A[t(e)] over all e <= i digit by digit,
    where every base-p digit of i is at most p - 2, and C[i] = 0 otherwise:
    the prefix sum of the block over the digit cube [0, p-2]**n.  Proof by
    induction on n: split i = k * p**(n-1) + i' at its top digit k.  Level
    n - 1 gives C[i] = sum_{e' <= i'} B_k[t(e')] = sum_{j <= k, e' <= i'}
    A[t(e') + j], and t(e') + j = t(j * p**(n-1) + e') mod p.
    """
    if n == 1:
        return list(itertools.accumulate(vector[:-1]))
    p = len(vector)
    stride = p ** (n - 1)
    out = []
    prefix = vector
    for k in range(p - 1):
        if k:
            prefix = list(map(operator.add, prefix, vector[k:] + vector[:k]))
        out += [0] * (k * stride - len(out)) + recursive_column(n - 1, prefix)
    return out


def cofactor_by_division(params, vector):
    """Cofactor obtained by dividing the block polynomial by each binomial
    (1 - x^{p^m}) in turn; see division_columns."""
    columns = block_columns(ptm_block(params), vector_columns(params, vector))
    return polynomial_from_columns(division_columns(params, columns), vector[0])


def division_columns(params, columns):
    """Block columns divided by each binomial (1 - x^{p^m}) in turn, largest
    first so the columns shrink fastest: at most O(n * p**n) additions per
    column, O(p**n) for p = 2.  A nonzero remainder raises NotDivisibleError
    and means a bug, since zero-sum vectors always divide out cleanly."""
    for m in reversed(range(params.n)):
        columns = divide_columns(columns, params.p**m)
    return columns


def divide_columns(columns, d):
    """Coordinate columns f divided by 1 - x^d: the strided prefix sums
    q[j] = f[j] + q[j - d], carried on through the top d places, where they
    are the remainder f - q * (1 - x^d), zero below them.  A nonzero one
    raises NotDivisibleError carrying the remainder's columns."""
    sums = [_strided_prefix_sums(column, d) for column in columns]
    if any(any(s[-d:]) for s in sums):
        raise NotDivisibleError([[0] * (len(s) - d) + s[-d:] for s in sums])
    return [s[:-d] for s in sums]
