"""Generalized Thue-Morse sequences over a base p, and zero-sum vectors.

The sequence value at n is the sum of the base-p digits of n reduced mod p;
the classical 0,1,1,0,1,0,0,1,... sequence is the case p = 2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .rings import ZeroSumForm, omega_pow

DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """An enumeration would exceed the configured term budget."""


def power_exceeds(base, exponent, limit):
    """Whether base**exponent > limit for base >= 2, found by multiplying
    up with an early exit so a huge power is never built."""
    count = 1
    for _ in range(exponent):
        count *= base
        if count > limit:
            return True
    return False


@dataclass(frozen=True)
class PTMParams:
    """Base p and block exponent n; a block spans the first p**n integers."""

    p: int
    n: int
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"base p must be an integer >= 2, got {self.p!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"block exponent n must be an integer >= 1, got {self.n!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget!r}")
        if power_exceeds(self.p, self.n, self.budget):
            raise BudgetExceededError(
                f"block of {self.p}**{self.n} terms exceeds budget {self.budget}"
            )

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


def ptm_term(n, p):
    """Sum of the base-p digits of n, reduced mod p."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"base must be an integer >= 2, got {p!r}")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n!r}")
    total = 0
    while n:
        n, digit = divmod(n, p)
        total += digit
    return total % p


def ptm_block(params):
    """The first p**n sequence terms, each computed digit-by-digit."""
    return [ptm_term(i, params.p) for i in range(params.block_length)]


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
    def from_integers(cls, values):
        return cls(tuple(values))

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

    def prefix_shift_sums(self):
        """The vectors B_k = shift(0) + ... + shift(k) for k = 0..p-2.

        Each is again zero-sum, and the last equals -shift(p-1).
        """
        out = [self]
        acc = self
        for k in range(1, self.p - 1):
            acc = acc + self.shift(k)
            out.append(acc)
        return out

    @property
    def is_zero(self):
        return not any(self.entries)

    def __add__(self, other):
        if not isinstance(other, ZeroSumVector):
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mismatched lengths: {self.p} vs {other.p}")
        return ZeroSumVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return ZeroSumVector(tuple(-a for a in self.entries))

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
