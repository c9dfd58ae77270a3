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
    def degree(self):
        """Highest degree of guaranteed power-sum agreement: n - 1."""
        return self.n - 1

    @property
    def block_length(self):
        return self.p**self.n

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
    """The first p**n sequence terms, from two half-blocks.

    Split the digits at b = n // 2: for r < p**b,
    t(q*p**b + r) = (t(q) + t(r)) mod p.  So the block is the low block
    (b digits) shifted by t(q), copied once for each term q of the high
    block (n - b digits), and both half-blocks are built by the same rule.
    The p shifted copies of the low block come from the addition table
    mod p; the block itself is assembled by list copies alone.  A block of
    one digit is 0, ..., p-1 and builds no table; one of two digits is the
    table's rows, each made as it is copied, so no table is held."""
    digits = list(range(params.p))
    if params.n == 1:
        return digits
    if params.n == 2:
        return list(chain.from_iterable(digits[t:] + digits[:t] for t in digits))
    table = [digits[t:] + digits[:t] for t in digits]  # row t: (t + d) mod p
    return _half_block_join(params.n, table)


def _half_block_join(n, table):
    """The n-digit block, for n >= 2, by the split of ptm_block; row 0 of the
    addition table is the one-digit block, and row t its copy shifted by t."""
    b = n // 2
    if b == 1:
        low, shifted = table[0], table
    else:
        low = _half_block_join(b, table)
        shifted = [list(map(row.__getitem__, low)) for row in table]
    high = low if n == 2 * b else _half_block_join(n - b, table)
    return list(chain.from_iterable(map(shifted.__getitem__, high)))


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
