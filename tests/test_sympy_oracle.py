"""Ring products and cofactors against sympy's polynomial division.

sympy shares no code with prouhet: products are reduced by its remainder
modulo 1 + w + ... + w^{p-1}, and cofactors are its quotient of the block
polynomial by the binomial product.  Skipped when sympy is absent.
"""

import pytest

from prouhet import CyclotomicElement, PTMParams, ZeroSumVector, cofactor_by_division

from randomized import random_cases

sympy = pytest.importorskip("sympy")
w, x = sympy.symbols("w x")


def expression(coeffs, var):
    return sum(c * var**i for i, c in enumerate(coeffs))


def coefficients(expr, var):
    """Integer coefficients of expr in var, lowest degree first, no trailing zeros."""
    coeffs = [int(c) for c in reversed(sympy.Poly(expr, var).all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def digit_sum_residue(i, p):
    total = 0
    while i:
        i, digit = divmod(i, p)
        total += digit
    return total % p


@pytest.mark.parametrize("p", range(2, 8))
@random_cases
def test_cyclotomic_product_is_the_remainder(p, rng):
    a, b = (CyclotomicElement(p, [rng.randint(-9, 9) for _ in range(p - 1)]) for _ in range(2))
    modulus = sum(w**k for k in range(p))
    remainder = sympy.rem(expression(a.coeffs, w) * expression(b.coeffs, w), modulus, w)
    expected = coefficients(remainder, w)
    assert list((a * b).coeffs) == expected + [0] * (p - 1 - len(expected))


@random_cases
def test_cofactor_is_the_quotient_by_the_binomial_product(rng):
    p, n = rng.randint(2, 5), rng.randint(1, 3)
    head = [rng.randint(-9, 9) for _ in range(p - 1)]
    vector = head + [-sum(head)]
    block = sum(vector[digit_sum_residue(i, p)] * x**i for i in range(p**n))
    divisor = sympy.prod(1 - x ** (p**k) for k in range(n))
    quotient, remainder = sympy.div(block, divisor, x)
    assert remainder == 0
    cofactor = cofactor_by_division(PTMParams(p, n), ZeroSumVector(vector))
    assert list(cofactor.coeffs) == coefficients(quotient, x)
