"""Generalized Thue-Morse sequences over a base p, and zero-sum vectors.

The sequence value at n is the sum of the base-p digits of n reduced mod p;
the classical 0,1,1,0,1,0,0,1,... sequence is the case p = 2.
"""

import functools
import operator
from collections import namedtuple

from .rings import ZeroSumForm, check_base, omega_pow

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
    """The first p**n sequence terms, by the digit recurrence
    t(i) = (t(i // p) + i % p) mod p: each pass appends one low digit, so the
    term at q*p + d is row t(q) of the addition table mod p, at column d.
    The first pass gives 0, ..., p-1; the table is built only for a second."""
    block = list(range(params.p))
    if params.n > 1:
        table = [block[t:] + block[:t] for t in block]  # row t: (t + d) mod p
        for _ in range(params.n - 1):
            block = [term for t in block for term in table[t]]
    return block


def ptm_block_recursive(params):
    """The same block built by concatenation: each extension appends p copies
    of the previous block with all class labels shifted by k, k = 0..p-1."""
    p = params.p
    block = list(range(p))
    for _ in range(params.n - 1):
        block = [(v + k) % p for k in range(p) for v in block]
    return block


class ZeroSumVector:
    """Length-p coefficient vector whose entries sum to zero in their ring.

    Entries may be ints, CyclotomicElement values, or ZeroSumForm values.
    The zero-sum constraint is checked on construction.
    """

    __slots__ = ("p", "entries")

    def __init__(self, entries):
        entries = tuple(entries)
        if len(entries) < 2:
            raise ValueError("a zero-sum vector needs at least two entries")
        total = functools.reduce(operator.add, entries)
        if total:
            raise ValueError(f"entries must sum to zero, got sum {total!s}")
        self.p = len(entries)
        self.entries = entries

    @classmethod
    def symbolic(cls, p):
        """The generic vector (a_0, ..., a_{p-1}) with a_{p-1} eliminated."""
        return cls(tuple(ZeroSumForm.generator(p, i) for i in range(p)))

    @classmethod
    def roots_of_unity(cls, p):
        """(w^0, w^1, ..., w^{p-1}) in the cyclotomic quotient ring."""
        return cls(tuple(omega_pow(p, k) for k in range(p)))

    def shift(self, k):
        """k-th left cyclic shift (k reduced mod p); still sums to zero."""
        k %= self.p
        return ZeroSumVector(self.entries[k:] + self.entries[:k])

    def __len__(self):
        return self.p

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __eq__(self, other):
        if not isinstance(other, ZeroSumVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((ZeroSumVector, self.entries))

    def __repr__(self):
        return f"ZeroSumVector({self.entries!r})"
