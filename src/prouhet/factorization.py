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
CyclotomicElement, ZeroSumForm).  All arithmetic is exact; there is no
floating point anywhere.
"""

from __future__ import annotations

from .rings import ZeroSumForm
from .sequence import PTMParams, ZeroSumVector, ptm_term


class NotDivisibleError(ArithmeticError):
    """Exact division left a nonzero remainder (kept in .remainder)."""

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

    def map_coeffs(self, fn):
        """Apply fn to every coefficient and re-canonicalize."""
        return DensePolynomial(fn(c) for c in self.coeffs)

    def shifted(self, d):
        """Multiply by x^d."""
        if d < 0:
            raise ValueError(f"shift must be non-negative, got {d!r}")
        if d == 0 or not self.coeffs:
            return self
        pad = 0 * self.coeffs[0]  # zero of the coefficient ring
        return DensePolynomial((pad,) * d + self.coeffs)

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
        # nonzero counts; gaps get the zero of the product's ring.
        b_support = [(j, cb) for j, cb in enumerate(b) if cb]
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in b_support:
                prod = ca * cb
                k = i + j
                out[k] = prod if out[k] is None else out[k] + prod
        zero = 0 * (a[-1] * b[-1])
        return DensePolynomial(zero if c is None else c for c in out)

    def exact_div(self, divisor):
        """Exact quotient by a divisor whose lowest or highest coefficient
        is a unit (+1 or -1); raises NotDivisibleError otherwise.

        Valid over any of the coefficient rings: the only inverse ever taken
        is of the +-1 pivot.  With the pivot at the bottom the recurrence's
        own leftover top coefficients must vanish; otherwise the remainder
        is verified by re-multiplying.  NotDivisibleError always carries the
        remainder self - quotient * divisor.
        """
        if not isinstance(divisor, DensePolynomial):
            raise TypeError("divisor must be a DensePolynomial")
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return DensePolynomial()
        f, g = self.coeffs, divisor.coeffs
        qlen = len(f) - len(g) + 1
        if qlen <= 0:
            raise NotDivisibleError(self)
        if g[0] == 1 or g[0] == -1:
            quotient, exact = self._div_from_bottom(f, g, qlen)
            if exact:
                return quotient
        elif g[-1] == 1 or g[-1] == -1:
            quotient = self._div_from_top(f, g, qlen)
        else:
            raise ValueError(
                "divisor must have a unit (+1/-1) lowest or highest coefficient"
            )
        remainder = self - quotient * divisor
        if remainder:
            raise NotDivisibleError(remainder)
        return quotient

    @staticmethod
    def _div_from_bottom(f, g, qlen):
        """Quotient from the low-order recurrence, and whether the division
        is exact.  f - q*g vanishes below qlen by construction; at j >= qlen
        its coefficient is f[j] - sum g[i]*q[j-i], so the division is exact
        exactly when all of those leftovers vanish."""
        sign = g[0]
        support = [(i, gi) for i, gi in enumerate(g) if i > 0 and gi]
        q = []
        for j in range(qlen):
            acc = f[j]
            for i, gi in support:
                if i > j:
                    break
                acc = acc - gi * q[j - i]
            q.append(acc if sign == 1 else -acc)
        for j in range(qlen, len(f)):
            acc = f[j]
            for i, gi in support:
                if i > j:
                    break
                if j - i < qlen:
                    acc = acc - gi * q[j - i]
            if acc:
                return DensePolynomial(q), False
        return DensePolynomial(q), True

    @staticmethod
    def _div_from_top(f, g, qlen):
        sign = g[-1]
        top = len(g) - 1
        support = [(i, gi) for i, gi in enumerate(g) if i < top and gi]
        q = [None] * qlen
        for j in range(qlen - 1, -1, -1):
            acc = f[j + top]
            for i, gi in support:
                k = j + top - i  # quotient slot contributing via g's x^i term
                if j < k < qlen:
                    acc = acc - gi * q[k]
            q[j] = acc if sign == 1 else -acc
        return DensePolynomial(q)

    def __eq__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((DensePolynomial, self.coeffs))

    def __repr__(self):
        return f"DensePolynomial({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            power = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if isinstance(c, int):
                sign = "-" if c < 0 else "+"
                mag = abs(c)
                body = power if (mag == 1 and power) else f"{mag}{power}"
            else:
                sign = "+"
                text = str(c)
                body = f"({text}){power}" if power else f"({text})"
            pieces.append((sign, body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def one_minus_x_pow(d):
    """The integer binomial 1 - x^d."""
    if d < 1:
        raise ValueError(f"exponent must be >= 1, got {d!r}")
    return DensePolynomial((1,) + (0,) * (d - 1) + (-1,))


def first_coefficient_mismatch(lhs, rhs):
    """First (exponent, lhs_coeff, rhs_coeff) where two polynomials differ,
    or None when they are equal."""
    for i in range(max(len(lhs.coeffs), len(rhs.coeffs))):
        a, b = lhs.coefficient(i), rhs.coefficient(i)
        if a != b:
            return (i, a, b)
    return None


def ptm_polynomial(params, vector):
    """Polynomial of degree < p**n whose x^i coefficient is vector[t(i)],
    t the digit-sum residue mod p."""
    p = params.p
    if len(vector) != p:
        raise ValueError(f"vector length {len(vector)} does not match base {p}")
    return DensePolynomial(vector[ptm_term(i, p)] for i in range(params.block_length))


def ptm_polynomial_recursive(params, vector):
    """Independent blockwise construction of the same polynomial: the level-n
    polynomial is the sum of the level-(n-1) polynomials of the cyclic shifts
    of the vector, the k-th moved up by k * p**(n-1)."""
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


def binomial_product(params):
    """The divisor: product of (1 - x^{p^m}) for m = 0..n-1, built by
    shift-and-subtract.  Vanishes at x = 1 to order exactly n."""
    coeffs = [1]
    for m in range(params.n):
        d = params.p**m
        out = coeffs + [0] * d
        for i, c in enumerate(coeffs):
            out[i + d] -= c
        coeffs = out
    return DensePolynomial(coeffs)


def cofactor_support_indices(params):
    """Exponents where the cofactor may carry a nonzero coefficient.

    Base block (0, ..., p-2); each higher level concatenates p-1 copies of
    the previous block offset by k * p**level.  The count is (p-1)**n.
    """
    indices = list(range(params.p - 1))
    for level in range(1, params.n):
        stride = params.p**level
        indices = [j + k * stride for k in range(params.p - 1) for j in indices]
    return tuple(indices)


def cofactor_recursive(params, vector):
    """Cofactor built directly, without division.

    Base case: coefficients are the prefix sums of the vector (the last one
    equals minus the final entry, which is what makes the base identity
    close).  Step: place the level-(n-1) cofactors of the prefix-shift-sum
    vectors B_k at offsets k * p**(n-1).
    """
    p = params.p
    if len(vector) != p:
        raise ValueError(f"vector length {len(vector)} does not match base {p}")
    if params.n == 1:
        acc = vector[0]
        coeffs = [acc]
        for i in range(1, p - 1):
            acc = acc + vector[i]
            coeffs.append(acc)
        return DensePolynomial(coeffs)
    sub = PTMParams(p, params.n - 1, params.budget)
    stride = p ** (params.n - 1)
    total = DensePolynomial()
    for k, prefix in enumerate(vector.prefix_shift_sums()):
        total = total + cofactor_recursive(sub, prefix).shifted(k * stride)
    return total


def cofactor_by_division(params, vector):
    """Cofactor obtained by dividing the block polynomial by each binomial
    (1 - x^{p^m}) in turn.  Every step is an exact division; a nonzero
    remainder raises NotDivisibleError and means a bug, since zero-sum
    vectors always divide out cleanly."""
    quotient = ptm_polynomial(params, vector)
    for m in range(params.n):
        quotient = quotient.exact_div(one_minus_x_pow(params.p**m))
    return quotient


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


def specialize(poly, values):
    """Substitute concrete zero-sum values for the symbolic generators in
    every coefficient; non-symbolic coefficients pass through unchanged."""
    return poly.map_coeffs(
        lambda c: c.specialize(values) if isinstance(c, ZeroSumForm) else c
    )
