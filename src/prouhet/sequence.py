"""Generalized Thue-Morse sequences over a base p, and zero-sum vectors.

The sequence value at n is the sum of the base-p digits of n reduced mod p;
the classical 0,1,1,0,1,0,0,1,... sequence is the case p = 2.
"""

from collections import namedtuple
from itertools import chain

from .rings import ZeroSumForm, check_base

DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """An enumeration would exceed the configured term budget."""


class PTMParams(namedtuple("PTMParams", "p n budget")):
    """Base p and block exponent n; a block spans the first p**n integers.

    An immutable value, checked on construction: the base, n >= 1, and a
    block of p**n terms within the budget."""

    __slots__ = ()

    def __new__(cls, p, n, budget=DEFAULT_BUDGET):
        check_base(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"block exponent n must be an integer >= 1, got {n!r}")
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget!r}")
        count = 1
        for _ in range(n):  # multiplied up with an early exit: no huge power is built
            count *= p
            if count > budget:
                raise BudgetExceededError(f"block of {p}**{n} terms exceeds budget {budget}")
        return super().__new__(cls, p, n, budget)

    @classmethod
    def from_degree(cls, p, degree, budget=DEFAULT_BUDGET):
        """Parameters whose block supports power-sum agreement up to `degree`."""
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
        return cls(p, degree + 1, budget)

    @property
    def block_length(self):
        return self.p**self.n

    def check_cells(self):
        """Gate the (p - 1) * p**n int cells of the block's coordinate columns on the budget."""
        cells = (self.p - 1) * self.block_length
        if cells > self.budget:
            raise BudgetExceededError(f"{cells} coordinate cells of {self.p}**{self.n} terms "
                                      f"exceed budget {self.budget}")

    @property
    def weights(self):
        """The base powers (1, p, ..., p**(n-1)): the block's digit weights."""
        return tuple(self.p**j for j in range(self.n))


def ptm_term(n, p):
    """Sum of the base-p digits of n, reduced mod p."""
    check_base(p)
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n!r}")
    total = 0
    while n:
        n, digit = divmod(n, p)
        total += digit
    return total % p


def ptm_block(params):
    """The first p**n terms: ptm_halves at b = n // 2 joined by list copies
    alone; at n = 2 the copies come in order, each made as copied: none held."""
    if params.n == 1:
        return list(range(params.p))
    shifted, high = ptm_halves(params, params.n // 2)
    rows = map(shifted, range(params.p))
    return list(chain.from_iterable(rows if params.n == 2 else map([*rows].__getitem__, high)))


def ptm_halves(params, b):
    """The block split at digit b, 1 <= b <= n: by t(q*p**b + r) = (t(q) +
    t(r)) mod p for r < p**b, it is shifted(t), the low block (b digits)
    shifted by t via row t of the addition table, for each t of the list
    high, the (n - b)-digit block ([0] if b = n).  Returns (shifted, high)."""
    p, n = params.p, params.n
    digits, k = list(range(p)), max(b, n - b)  # the shorter half is the longer's prefix
    longer = digits if k == 1 else ptm_block(params._replace(n=k))
    low = longer if b == k else longer[:p**b]
    high = [0] if b == n else longer if n - b == k else longer[:p**(n - b)]

    def shifted(t):
        row = digits[t:] + digits[:t] if t else digits
        return row if b == 1 else list(map(row.__getitem__, low))
    return shifted, high


def ptm_block_recursive(params):
    """The same block built by concatenation: each extension appends p copies
    of the previous block with all class labels shifted by k, k = 0..p-1."""
    p = params.p
    block = list(range(p))
    for _ in range(params.n - 1):
        block = [(v + k) % p for k in range(p) for v in block]
    return block


class ZeroSumVector(tuple):
    """Length-p coefficient vector whose entries sum to zero in their ring.

    Entries may be ints, CyclotomicElement values, or ZeroSumForm values.
    An immutable tuple of its entries, checked on construction: at least two
    entries, summing to zero.
    """

    __slots__ = ()

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        if len(self) < 2:
            raise ValueError("a zero-sum vector needs at least two entries")
        total = sum(self)  # every entry's ring accepts 0 + x
        if total:
            raise ValueError(f"entries must sum to zero, got sum {total!s}")
        return self

    @property
    def p(self):
        return len(self)

    @classmethod
    def symbolic(cls, p):
        """The generic vector (a_0, ..., a_{p-1}) with a_{p-1} eliminated."""
        return cls(ZeroSumForm.basis(p, i) for i in range(p))

    def __repr__(self):
        return f"ZeroSumVector({tuple.__repr__(self)})"
