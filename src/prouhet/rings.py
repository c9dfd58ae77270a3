"""Exact coefficient rings for the polynomial machinery.

Integer coefficients are plain Python ints (arbitrary precision, so nothing
here ever overflows or rounds).  Two structured rings sit on top of them:

* ``CyclotomicElement`` — the quotient ring Z[w]/(1 + w + ... + w^{p-1}),
  housing a p-th root of unity w.  Only the relation "all p-th roots of
  unity sum to zero" is built in, so p may be any integer >= 2, prime or not.
* ``ZeroSumForm`` — integer-linear forms in symbols a_0, ..., a_{p-1}
  constrained by a_0 + ... + a_{p-1} = 0, canonicalized by eliminating
  a_{p-1}.  Equality of forms is decidable by comparing coefficient vectors.

All elements are immutable values; every operation returns a new element.
Pure functions throughout, safe to share across threads.
"""

from __future__ import annotations


def check_base(p):
    """Reject any base p that is not an integer >= 2."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"base p must be an integer >= 2, got {p!r}")


def _signed_terms(pairs):
    """Render (coefficient, symbol) pairs as a signed sum, '0' if empty."""
    pieces = []
    for coef, sym in pairs:
        if not coef:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        if sym:
            body = sym if mag == 1 else f"{mag}{sym}"
        else:
            body = str(mag)
        pieces.append((sign, body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


class CyclotomicElement:
    """Element of Z[w]/(1 + w + ... + w^{p-1}) in canonical form.

    Stored as the representative of degree <= p-2 in w.  The defining
    relation collapses high powers: w^{p-1} = -(1 + w + ... + w^{p-2}) and
    consequently w^p = 1.
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
    def zero(cls, p):
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p):
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p, value):
        """The image of an ordinary integer under Z -> Z[w]."""
        return cls(p, (value,) + (0,) * (p - 2))

    def _coerce(self, other):
        if isinstance(other, int):
            return CyclotomicElement.from_int(self.p, other)
        if isinstance(other, CyclotomicElement):
            if other.p != self.p:
                raise ValueError(f"mismatched bases: {self.p} vs {other.p}")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicElement(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicElement(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicElement(self.p, tuple(other * a for a in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        # Convolve, fold exponents modulo p (w^p = 1), then eliminate the
        # single possible w^{p-1} term via w^{p-1} = -(1 + w + ... + w^{p-2}).
        folded = [0] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                folded[(i + j) % p] += a * b
        top = folded[p - 1]
        return CyclotomicElement(p, tuple(folded[i] - top for i in range(p - 1)))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = CyclotomicElement.one(self.p)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicElement.from_int(self.p, other)
        elif not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((CyclotomicElement, self.p, self.coeffs))

    def __repr__(self):
        return f"CyclotomicElement({self.p}, {self.coeffs!r})"

    def __str__(self):
        return _signed_terms(
            (c, "" if i == 0 else ("w" if i == 1 else f"w^{i}"))
            for i, c in enumerate(self.coeffs)
        )


def omega_pow(p, k):
    """w^k in canonical form; k may be any integer (reduced mod p)."""
    check_base(p)
    k %= p
    if k == p - 1:
        return CyclotomicElement(p, (-1,) * (p - 1))
    return CyclotomicElement(p, tuple(1 if i == k else 0 for i in range(p - 1)))


class ZeroSumForm:
    """Integer-linear form in symbols a_0, ..., a_{p-1} that sum to zero.

    Canonical representation: the coefficient vector over a_0, ..., a_{p-2}
    after substituting a_{p-1} = -(a_0 + ... + a_{p-2}).  Two forms are equal
    exactly when their vectors match.  Forms are linear: addition and integer
    scaling are closed, products of symbols are not defined.
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
    def zero(cls, p):
        return cls(p, (0,) * (p - 1))

    @classmethod
    def generator(cls, p, index):
        """The form a_index; for index = p-1 this is -(a_0 + ... + a_{p-2})."""
        check_base(p)
        if not 0 <= index <= p - 1:
            raise IndexError(f"symbol index {index} out of range for base {p}")
        if index == p - 1:
            return cls(p, (-1,) * (p - 1))
        return cls(p, tuple(1 if i == index else 0 for i in range(p - 1)))

    def __add__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self
            raise TypeError("cannot add a nonzero integer to a zero-sum form")
        if not isinstance(other, ZeroSumForm):
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mismatched bases: {self.p} vs {other.p}")
        return ZeroSumForm(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return ZeroSumForm(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, ZeroSumForm):
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mismatched bases: {self.p} vs {other.p}")
        return ZeroSumForm(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return ZeroSumForm(self.p, tuple(other * a for a in self.coeffs))
        if isinstance(other, ZeroSumForm):
            raise TypeError(
                "zero-sum forms are linear; products of symbols are not defined"
            )
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            # The only integer in the span of the symbols is zero.
            return other == 0 and not any(self.coeffs)
        if not isinstance(other, ZeroSumForm):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((ZeroSumForm, self.p, self.coeffs))

    def specialize(self, values):
        """Evaluate at a concrete length-p assignment whose entries sum to zero."""
        values = tuple(values)
        if len(values) != self.p:
            raise ValueError(f"expected {self.p} values, got {len(values)}")
        total = sum(values)
        if total != 0:
            raise ValueError(f"values must sum to zero, got sum {total!r}")
        acc = 0
        for c, v in zip(self.coeffs, values):
            acc = acc + c * v
        return acc

    def __repr__(self):
        return f"ZeroSumForm({self.p}, {self.coeffs!r})"

    def __str__(self):
        return _signed_terms((c, f"a{i}") for i, c in enumerate(self.coeffs))
