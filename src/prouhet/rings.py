"""Exact coefficient rings for the polynomial machinery.

Integer coefficients are plain Python ints (arbitrary precision, so nothing
here ever overflows or rounds).  Both structured rings are integer
combinations of p symbols s_0, ..., s_{p-1} whose one relation is
s_0 + ... + s_{p-1} = 0, stored as the p - 1 coordinates over s_0, ..., s_{p-2}
left once that relation eliminates s_{p-1} (reduce_zero_sum); equal elements
have equal coordinates.  ZeroSumCoordinates holds this form and its module
arithmetic for both:

* ``CyclotomicElement`` — Z[w]/(1 + w + ... + w^{p-1}), s_k = w^k for a p-th
  root of unity w; any p >= 2, prime or not.  Every int n is n * w^0.
* ``ZeroSumForm`` — integer-linear forms in symbols s_k = a_k that sum to
  zero.  The only int among them is 0; products of symbols are not defined.

All elements are immutable values, safe to share across threads.
"""

import operator


def check_base(p):
    """Reject any base p that is not an integer >= 2."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"base p must be an integer >= 2, got {p!r}")


def reduce_zero_sum(values):
    """Coordinates on s_0, ..., s_{p-2} of sum_k values[k] * s_k, for p
    symbols that sum to zero.

    Eliminating s_{p-1} = -(s_0 + ... + s_{p-2}) gives
    sum_{k<p} v_k * s_k = sum_{k<p-1} (v_k - v_{p-1}) * s_k, and s_0, ...,
    s_{p-2} are a basis (for s_k = w^k, the powers 1, ..., w^{p-2}), so the
    sum is zero exactly when every v_k equals v_{p-1}.  In particular a
    weighted sum sum_k S_k(r) * w^k of class power sums vanishes exactly
    when row r is constant.
    """
    last = values[-1]
    return [v - last for v in values[:-1]]


def symbol_coordinates(p, k):
    """Coordinates of the symbol s_k, 0 <= k < p: reduce_zero_sum of the unit
    vector e_k, so e_k itself for k < p - 1 and all -1 for k = p - 1."""
    values = [0] * p
    values[k] = 1
    return reduce_zero_sum(values)


def symbol_columns(p):
    """The p - 1 coordinate columns of s_0, ..., s_{p-1}: entry t of column r
    is coordinate r of s_t.  Lists, as a block of labels reads through them
    by list.__getitem__, a faster lookup than tuple.__getitem__."""
    return [list(column) for column in zip(*[symbol_coordinates(p, t) for t in range(p)])]


def power_name(var, i):
    """The monomial var^i as text: '' for i = 0, var for i = 1."""
    return "" if i == 0 else (var if i == 1 else f"{var}^{i}")


def signed_terms(pairs):
    """Render (coefficient, symbol) pairs as a signed sum, '0' if empty.  An
    int coefficient shows its sign; a ring element is added in parentheses."""
    pieces = []
    for coef, sym in pairs:
        if not coef:
            continue
        if isinstance(coef, int):
            mag = abs(coef)
            body = sym if mag == 1 and sym else f"{mag}{sym}"
            pieces.append(("-" if coef < 0 else "+", body))
        else:
            pieces.append(("+", f"({coef}){sym}"))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


class ZeroSumCoordinates:
    """An integer combination of p zero-sum symbols, as p - 1 coordinates.

    Elements of one subclass and one p add and scale coordinate-wise; those
    of different subclasses never mix or compare equal.  A subclass says
    which ints it holds (_int_coeffs) and how two elements multiply (_times).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        check_base(p)
        coeffs = tuple(coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(
                f"expected {p - 1} coefficients for base {p}, got {len(coeffs)}"
            )
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def basis(cls, p, k):
        """The k-th symbol s_k, 0 <= k <= p-1; s_{p-1} = -(s_0 + ... + s_{p-2})."""
        check_base(p)
        if not 0 <= k <= p - 1:
            raise IndexError(f"symbol index {k} out of range for base {p}")
        return cls(p, symbol_coordinates(p, k))

    def _coerce(self, other):
        """other's coordinates in this ring; None for a type it does not take."""
        if isinstance(other, type(self)):
            if other.p != self.p:
                raise ValueError(f"mismatched bases: {self.p} vs {other.p}")
            return other.coeffs
        if isinstance(other, int):
            coeffs = self._int_coeffs(self.p, other)
            if coeffs is None:
                raise TypeError(f"{type(self).__name__} holds no integer {other}")
            return coeffs
        return None

    def __add__(self, other):
        coeffs = self._coerce(other)
        if coeffs is None:
            return NotImplemented
        return type(self)(self.p, map(operator.add, self.coeffs, coeffs))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.p, map(operator.neg, self.coeffs))

    def __sub__(self, other):
        coeffs = self._coerce(other)
        if coeffs is None:
            return NotImplemented
        return type(self)(self.p, map(operator.sub, self.coeffs, coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scaling by an int; a product of two elements is the subclass's _times."""
        if isinstance(other, int):
            return type(self)(self.p, [other * a for a in self.coeffs])
        if isinstance(other, type(self)):
            return self._times(other)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == self._int_coeffs(self.p, other)
        return NotImplemented

    def __hash__(self):
        # An element equal to an int n has coordinates (n, 0, ..., 0): hash as n.
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({self.p}, {self.coeffs!r})"


class CyclotomicElement(ZeroSumCoordinates):
    """Element of Z[w]/(1 + w + ... + w^{p-1}), as its representative of
    degree <= p-2 in w: w^p = 1 and w^{p-1} = -(1 + w + ... + w^{p-2})."""

    __slots__ = ()

    # perfbench/spans.py wraps these three in this class's own dict.
    __init__ = ZeroSumCoordinates.__init__
    __mul__ = __rmul__ = ZeroSumCoordinates.__mul__

    @staticmethod
    def _int_coeffs(p, value):  # every int n is n * w^0
        return (value,) + (0,) * (p - 2)

    def _times(self, other):
        # Convolve, fold exponents modulo p (w^p = 1), then eliminate the
        # single possible w^{p-1} term.
        coeffs = self._coerce(other)
        p = self.p
        folded = [0] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(coeffs):
                if not b:
                    continue
                folded[(i + j) % p] += a * b
        return CyclotomicElement(p, reduce_zero_sum(folded))

    def __str__(self):
        return signed_terms((c, power_name("w", i)) for i, c in enumerate(self.coeffs))


class ZeroSumForm(ZeroSumCoordinates):
    """Integer-linear form in symbols a_0, ..., a_{p-1} that sum to zero, as
    its coefficients on a_0, ..., a_{p-2}; a_{p-1} = -(a_0 + ... + a_{p-2})."""

    __slots__ = ()

    # perfbench/spans.py wraps __init__ in this class's own dict.
    __init__ = ZeroSumCoordinates.__init__

    @staticmethod
    def _int_coeffs(p, value):  # the only int in the span of the symbols is 0
        return None if value else (0,) * (p - 1)

    def _times(self, other):
        raise TypeError("zero-sum forms are linear; products of symbols are not defined")

    def __str__(self):
        return signed_terms((c, f"a{i}") for i, c in enumerate(self.coeffs))
