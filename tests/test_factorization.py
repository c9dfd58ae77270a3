import random

import pytest

from prouhet import (
    CyclotomicElement,
    DensePolynomial,
    NotDivisibleError,
    PTMParams,
    ZeroSumForm,
    ZeroSumVector,
    binomial_product,
    cofactor_by_division,
    cofactor_recursive,
    ptm_polynomial,
)
from prouhet.factorization import first_coefficient_mismatch

from oracles import (
    cyclotomic_int,
    one_minus_x_pow,
    ptm_polynomial_recursive,
    ring_zero,
    roots_of_unity,
    shift,
    shifted,
    specialize,
    vanishing_order_at_one,
    weighted_power_sum,
)
from randomized import random_cases


def form(p, *coeffs):
    return ZeroSumForm(p, coeffs)


def random_zero_sum_vector(rng, p, bound=10):
    """Nonzero integer zero-sum vector with all entries in [-bound, bound]."""
    while True:
        head = [rng.randint(-bound, bound) for _ in range(p - 1)]
        last = -sum(head)
        if -bound <= last <= bound and any(head + [last]):
            return ZeroSumVector(head + [last])


SWEEP = [(p, n) for p in range(2, 6) for n in range(1, 4)]


class TestPolynomialArithmetic:
    def test_mul(self):
        assert DensePolynomial([1, -1]) * DensePolynomial([1, 1]) == DensePolynomial([1, 0, -1])

    def test_trailing_zeros_stripped(self):
        assert DensePolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert DensePolynomial([0, 0]).degree == -1
        assert not DensePolynomial([])

    def test_add_sub(self):
        f = DensePolynomial([1, 2, 3])
        g = DensePolynomial([0, -2, -3, 4])
        assert f + g == DensePolynomial([1, 0, 0, 4])
        assert (f + g) - g == f

    @pytest.mark.parametrize("operate", [
        lambda poly: poly + 1,
        lambda poly: poly - 1,
        lambda poly: poly * 1,
    ], ids=["add", "sub", "mul"])
    def test_arithmetic_with_a_non_polynomial_raises_type_error(self, operate):
        with pytest.raises(TypeError):
            operate(DensePolynomial([1, 2]))

    def test_a_non_polynomial_is_never_equal(self):
        assert (DensePolynomial([1]) == 1) is False

    def test_coefficient_beyond_span(self):
        assert DensePolynomial([1, 2]).coefficient(5) == 0

    def test_exact_div_simple(self):
        quotient = DensePolynomial([1, 0, -1]).exact_div(one_minus_x_pow(1))
        assert quotient == DensePolynomial([1, 1])

    def test_exact_div_remainder_carried(self):
        with pytest.raises(NotDivisibleError) as err:
            DensePolynomial([1, 0, 1]).exact_div(one_minus_x_pow(1))
        assert err.value.remainder == DensePolynomial([0, 0, 2])

    def test_exact_div_degree_too_small(self):
        with pytest.raises(NotDivisibleError) as err:
            DensePolynomial([1, 1]).exact_div(DensePolynomial([1, 0, -1]))
        assert err.value.remainder == DensePolynomial([1, 1])

    def test_exact_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            DensePolynomial([1]).exact_div(DensePolynomial())

    def test_exact_div_requires_unit_pivot(self):
        with pytest.raises(ValueError):
            DensePolynomial([2, 4]).exact_div(DensePolynomial([2, 2]))
        # x and 2 + x have a unit only as their leading coefficient
        with pytest.raises(ValueError):
            DensePolynomial([0, 1, 1]).exact_div(DensePolynomial([0, 1]))
        with pytest.raises(ValueError):
            DensePolynomial([2, 3, 1]).exact_div(DensePolynomial([2, 1]))

    @pytest.mark.parametrize("divisor", [[1, -1], (1, -1), 1], ids=["list", "tuple", "int"])
    def test_exact_div_rejects_a_divisor_that_is_not_a_polynomial(self, divisor):
        with pytest.raises(TypeError, match="^divisor must be a DensePolynomial$"):
            DensePolynomial([1, 0, -1]).exact_div(divisor)

    def test_exact_div_random_roundtrip(self):
        rng = random.Random(2024)
        for _ in range(50):
            q = DensePolynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 8))])
            g_body = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
            g = DensePolynomial([rng.choice([1, -1])] + g_body)
            if not q or not g:
                continue
            assert (q * g).exact_div(g) == q

    def test_exact_div_symbolic_base_case(self):
        f = ptm_polynomial(PTMParams(3, 1), ZeroSumVector.symbolic(3))
        quotient = f.exact_div(one_minus_x_pow(1))
        assert quotient == DensePolynomial([form(3, 1, 0), form(3, 1, 1)])

    def test_shifted_keeps_coefficient_ring(self):
        poly = shifted(DensePolynomial([form(3, 1, 0)]), 2)
        assert isinstance(poly.coeffs[0], ZeroSumForm)
        assert not poly.coeffs[0]

    def test_str(self):
        assert str(DensePolynomial([1, -1, 0, -1, 1])) == "1 - x - x^3 + x^4"
        assert str(DensePolynomial()) == "0"

    @pytest.mark.parametrize("coeffs,text", [
        ([1, -1, 0], "DensePolynomial((1, -1))"),
        ([], "DensePolynomial(())"),
        ([form(3, 1, 0)], "DensePolynomial((ZeroSumForm(3, (1, 0)),))"),
    ], ids=["ints", "zero", "form"])
    def test_repr(self, coeffs, text):
        assert repr(DensePolynomial(coeffs)) == text

    @pytest.mark.parametrize("lhs,rhs,expected", [
        ([1, 2, 3], [1, 2, 3], None),
        ([1, 2, 3], [1, 5, 3], (1, 2, 5)),
        ([1, 2], [1, 2, 0, 4], (3, 0, 4)),
        ([1, 2, 7], [1, 2], (2, 7, 0)),
        ([], [0, -1], (1, 0, -1)),
    ], ids=["equal", "inside", "past lhs", "past rhs", "zero lhs"])
    def test_first_coefficient_mismatch(self, lhs, rhs, expected):
        # The first differing exponent, reading 0 past either polynomial's span.
        assert first_coefficient_mismatch(DensePolynomial(lhs), DensePolynomial(rhs)) == expected


class TestBlockPolynomial:
    def test_symbolic_base(self):
        poly = ptm_polynomial(PTMParams(3, 1), ZeroSumVector.symbolic(3))
        assert poly == DensePolynomial([form(3, 1, 0), form(3, 0, 1), form(3, -1, -1)])

    def test_alternating_signs_p2(self):
        poly = ptm_polynomial(PTMParams(2, 3), ZeroSumVector([1, -1]))
        assert poly == DensePolynomial([1, -1, -1, 1, -1, 1, 1, -1])

    def test_zero_vector_gives_zero_polynomial(self):
        poly = ptm_polynomial(PTMParams(3, 2), ZeroSumVector([0, 0, 0]))
        assert not poly

    def test_recursive_symbolic_p3(self):
        params = PTMParams(3, 2)
        a = ZeroSumVector.symbolic(3)
        direct = ptm_polynomial(params, a)
        blockwise = ptm_polynomial_recursive(params, a)
        assert blockwise == direct
        # and the blockwise structure really is shifted level-1 pieces
        sub = PTMParams(3, 1)
        manual = (
            ptm_polynomial(sub, a)
            + shifted(ptm_polynomial(sub, shift(a, 1)), 3)
            + shifted(ptm_polynomial(sub, shift(a, 2)), 6)
        )
        assert manual == direct

    def test_recursive_p2_expansion(self):
        poly = ptm_polynomial_recursive(PTMParams(2, 2), ZeroSumVector([1, -1]))
        assert poly == DensePolynomial([1, -1, -1, 1])

    def test_recursive_integer_p3(self):
        poly = ptm_polynomial_recursive(PTMParams(3, 2), ZeroSumVector([1, 1, -2]))
        assert poly == DensePolynomial([1, 1, -2, 1, -2, 1, -2, 1, 1])

    @pytest.mark.parametrize("p,n", SWEEP)
    def test_recursive_agrees_with_direct(self, p, n):
        rng = random.Random(1000 * p + n)
        params = PTMParams(p, n)
        vectors = [ZeroSumVector.symbolic(p), roots_of_unity(p)]
        vectors += [random_zero_sum_vector(rng, p) for _ in range(5)]
        for vec in vectors:
            assert ptm_polynomial_recursive(params, vec) == ptm_polynomial(params, vec)

    @pytest.mark.parametrize("build", [ptm_polynomial, cofactor_by_division, cofactor_recursive])
    @pytest.mark.parametrize("vector", [ZeroSumVector([1, -1]), ZeroSumVector.symbolic(4)],
                             ids=["short", "long"])
    def test_rejects_a_vector_whose_length_is_not_the_base(self, build, vector):
        message = f"^vector length {len(vector)} does not match base 3$"
        with pytest.raises(ValueError, match=message):
            build(PTMParams(3, 2), vector)

    def test_degree_bound(self):
        for p, n in SWEEP:
            poly = ptm_polynomial(PTMParams(p, n), ZeroSumVector.symbolic(p))
            assert poly.degree <= p**n - 1


class TestBinomialProduct:
    def test_p2_n2(self):
        assert binomial_product(PTMParams(2, 2)) == DensePolynomial([1, -1, -1, 1])

    def test_p3_n2(self):
        expected = one_minus_x_pow(1) * one_minus_x_pow(3)
        assert binomial_product(PTMParams(3, 2)) == expected
        assert binomial_product(PTMParams(3, 2)) == DensePolynomial([1, -1, 0, -1, 1])

    def test_n1(self):
        for p in range(2, 7):
            assert binomial_product(PTMParams(p, 1)) == one_minus_x_pow(1)

    @pytest.mark.parametrize("p,n", [(p, n) for p in range(2, 6) for n in range(2, 5)])
    def test_recurrence(self, p, n):
        lower = binomial_product(PTMParams(p, n - 1))
        step = one_minus_x_pow(p ** (n - 1))
        assert binomial_product(PTMParams(p, n)) == lower * step

    @pytest.mark.parametrize("p,n", [(p, n) for p in range(2, 6) for n in range(1, 5)])
    def test_degree_and_vanishing_order(self, p, n):
        divisor = binomial_product(PTMParams(p, n))
        assert divisor.degree == sum(p**m for m in range(n))
        assert vanishing_order_at_one(divisor) == n


def symbolic_support(p, n):
    """Exponents where the generic cofactor, found by division, is nonzero."""
    cofactor = cofactor_by_division(PTMParams(p, n), ZeroSumVector.symbolic(p))
    return tuple(i for i, c in enumerate(cofactor.coeffs) if c)


def on_digit_cube(i, p):
    """Whether every base-p digit of i is at most p - 2."""
    while i:
        i, digit = divmod(i, p)
        if digit > p - 2:
            return False
    return True


def assert_division_support_on_digit_cube(p, n):
    """Every nonzero cofactor coefficient of the generic vector and of small
    random integer vectors sits on the digit cube.  Division does not use
    the recursion, so this checks recursive_column's closed form from outside."""
    params = PTMParams(p, n)
    rng = random.Random(31 * p + n)
    vectors = [ZeroSumVector.symbolic(p)]
    vectors += [random_zero_sum_vector(rng, p, bound=2) for _ in range(5)]
    for vector in vectors:
        cofactor = cofactor_by_division(params, vector)
        for i, c in enumerate(cofactor.coeffs):
            if c:
                assert on_digit_cube(i, p), (vector, i)


class TestCofactorSupport:
    # The generic cofactor is nonzero exactly on the digit cube [0, p-2]**n:
    # the sparsity tests bound its support there, the others list and count it.
    def test_p3_examples(self):
        assert symbolic_support(3, 1) == (0, 1)
        assert symbolic_support(3, 2) == (0, 1, 3, 4)
        assert symbolic_support(3, 3) == (0, 1, 3, 4, 9, 10, 12, 13)

    def test_p2_always_constant(self):
        for n in range(1, 6):
            assert symbolic_support(2, n) == (0,)

    def test_p4_base(self):
        assert symbolic_support(4, 1) == (0, 1, 2)

    @pytest.mark.parametrize("p,n", [(p, n) for p in range(2, 6) for n in range(1, 5)])
    def test_count(self, p, n):
        assert len(symbolic_support(p, n)) == (p - 1) ** n

    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3) for n in range(1, 5)])
    def test_sparsity_pattern_p2_p3(self, p, n):
        assert_division_support_on_digit_cube(p, n)

    @pytest.mark.parametrize(
        "p,n", [(p, n) for p, top in {4: 3, 5: 3, 6: 2, 7: 2}.items() for n in range(1, top + 1)]
    )
    def test_sparsity_pattern_measured_for_larger_bases(self, p, n):
        assert_division_support_on_digit_cube(p, n)


class TestCofactor:
    def test_symbolic_base_p3(self):
        cofactor = cofactor_recursive(PTMParams(3, 1), ZeroSumVector.symbolic(3))
        assert cofactor == DensePolynomial([form(3, 1, 0), form(3, 1, 1)])

    def test_symbolic_p3_n2(self):
        expected = DensePolynomial(
            [form(3, 1, 0), form(3, 1, 1), form(3, 0, 0), form(3, 1, 1), form(3, 0, 1)]
        )
        params = PTMParams(3, 2)
        a = ZeroSumVector.symbolic(3)
        assert cofactor_recursive(params, a) == expected
        assert cofactor_by_division(params, a) == expected

    def test_p2_alternating_gives_one(self):
        for n in range(1, 5):
            params = PTMParams(2, n)
            a = ZeroSumVector([1, -1])
            assert cofactor_recursive(params, a) == DensePolynomial([1])
            assert cofactor_by_division(params, a) == DensePolynomial([1])

    def test_integer_p3_n2(self):
        params = PTMParams(3, 2)
        a = ZeroSumVector([1, 1, -2])
        expected = DensePolynomial([1, 2, 0, 2, 1])
        assert cofactor_by_division(params, a) == expected
        # re-multiplying recovers the block polynomial exactly
        assert expected * binomial_product(params) == ptm_polynomial(params, a)

    @pytest.mark.parametrize("p,n", SWEEP)
    def test_factorization_identity_sweep(self, p, n):
        rng = random.Random(7000 + 100 * p + n)
        params = PTMParams(p, n)
        divisor = binomial_product(params)
        vectors = [ZeroSumVector.symbolic(p)]
        vectors += [random_zero_sum_vector(rng, p) for _ in range(5)]
        for vec in vectors:
            block_poly = ptm_polynomial(params, vec)
            by_division = cofactor_by_division(params, vec)
            assert by_division * divisor == block_poly
            assert by_division == cofactor_recursive(params, vec)

    @pytest.mark.parametrize("p,n", SWEEP)
    def test_single_shot_division_agrees_with_binomial_steps(self, p, n):
        # dividing by the whole product at once is an independent route
        params = PTMParams(p, n)
        a = ZeroSumVector.symbolic(p)
        whole = ptm_polynomial(params, a).exact_div(binomial_product(params))
        assert whole == cofactor_by_division(params, a)

    def test_symbolic_degree_bookkeeping(self):
        for p, n in SWEEP:
            params = PTMParams(p, n)
            a = ZeroSumVector.symbolic(p)
            block_poly = ptm_polynomial(params, a)
            divisor = binomial_product(params)
            cofactor = cofactor_by_division(params, a)
            assert cofactor.degree == block_poly.degree - divisor.degree


class TestVanishingOrder:
    def test_constant(self):
        assert vanishing_order_at_one(DensePolynomial([1])) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            vanishing_order_at_one(DensePolynomial())

    @pytest.mark.parametrize("p,n", SWEEP)
    def test_block_polynomials_vanish_to_order_n(self, p, n):
        rng = random.Random(3500 + 100 * p + n)
        params = PTMParams(p, n)
        vectors = [ZeroSumVector.symbolic(p)]
        vectors += [random_zero_sum_vector(rng, p) for _ in range(3)]
        for vec in vectors:
            order = vanishing_order_at_one(ptm_polynomial(params, vec))
            assert order >= n


class TestWeightedPowerSum:
    def test_alternating_p2_golden(self):
        params = PTMParams(2, 4)
        a = ZeroSumVector([1, -1])
        assert weighted_power_sum(params, a, 3) == 0  # 7200 - 7200
        assert weighted_power_sum(params, a, 4) == 1536  # 89924 - 88388

    @pytest.mark.parametrize("p,n", SWEEP)
    def test_vanishing_below_block_exponent_three_rings(self, p, n):
        rng = random.Random(4200 + 100 * p + n)
        params = PTMParams(p, n)
        vectors = [
            ZeroSumVector.symbolic(p),
            roots_of_unity(p),
            random_zero_sum_vector(rng, p),
        ]
        for vec in vectors:
            for m in range(n):
                value = weighted_power_sum(params, vec, m)
                assert not value

    def test_zero_exponent_uses_zero_sum(self):
        # 0**0 = 1, so the m=0 weighted sum is a multiple of the entry sum
        params = PTMParams(3, 1)
        a = ZeroSumVector([2, -1, -1])
        assert weighted_power_sum(params, a, 0) == 0


class TestSpecialization:
    @pytest.mark.parametrize("p,n", SWEEP)
    def test_factor_then_substitute_equals_substitute_then_factor(self, p, n):
        rng = random.Random(6100 + 100 * p + n)
        params = PTMParams(p, n)
        symbolic = ZeroSumVector.symbolic(p)
        symbolic_cofactor = cofactor_by_division(params, symbolic)
        for _ in range(3):
            concrete = random_zero_sum_vector(rng, p)
            values = list(concrete)
            assert specialize(symbolic_cofactor, values) == cofactor_by_division(
                params, concrete
            )
            assert specialize(
                ptm_polynomial(params, symbolic), values
            ) == ptm_polynomial(params, concrete)


# --- Dense oracle -----------------------------------------------------------
#
# DensePolynomial.__mul__ skips zero coefficients and exact_div checks the
# recurrence's own leftovers instead of re-multiplying.  The oracle below is
# the plain double-loop product over every pair of coefficients; the
# property tests compare both against it over int, cyclotomic (p = 4) and
# zero-sum-form coefficients.


def dense_mul(f, g):
    """Oracle: the product of every pair of coefficients, zero or not."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return DensePolynomial()
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            prod = ca * cb
            k = i + j
            out[k] = prod if out[k] is None else out[k] + prod
    return DensePolynomial(out)


def sparse_coeffs(rng, draw, zero, max_len=9):
    """Coefficient list with interior zeros, often leading zeros (a factor
    x^k) and sometimes trailing zeros that canonical form strips."""
    out = [draw() if rng.random() < 0.45 else zero for _ in range(rng.randint(0, max_len))]
    if rng.random() < 0.5:
        out = [zero] * rng.randint(1, 4) + out
    if rng.random() < 0.2:
        out += [zero] * rng.randint(1, 3)
    return out


def int_poly(rng):
    return DensePolynomial(sparse_coeffs(rng, lambda: rng.choice([-3, -2, -1, 1, 2, 3]), 0))


# (1 + w) * (1 + w^2) = 1 + w + w^2 + w^3 = 0 in Z[w]/(1 + w + w^2 + w^3)
ONE_PLUS_W = CyclotomicElement(4, (1, 1, 0))
ONE_PLUS_W2 = CyclotomicElement(4, (1, 0, 1))


def cyclotomic4_poly(rng):
    def draw():
        if rng.random() < 0.4:
            return rng.choice([ONE_PLUS_W, ONE_PLUS_W2])
        return CyclotomicElement(4, tuple(rng.randint(-2, 2) for _ in range(3)))

    return DensePolynomial(sparse_coeffs(rng, draw, ring_zero(CyclotomicElement, 4)))


def form3_poly(rng):
    draw = lambda: form(3, rng.randint(-3, 3), rng.randint(-3, 3))  # noqa: E731
    return DensePolynomial(sparse_coeffs(rng, draw, ring_zero(ZeroSumForm, 3)))


RINGS = {"int": int_poly, "cyclotomic4": cyclotomic4_poly, "form": form3_poly}
RING_PAIRS = [("int", "int"), ("cyclotomic4", "cyclotomic4"), ("form", "int"), ("int", "form")]


def assert_same_poly(actual, expected):
    """Equal coefficient for coefficient and in the same ring: tuple
    equality alone would let an int 0 pass for a ring zero."""
    assert actual == expected
    assert [type(c) for c in actual.coeffs] == [type(c) for c in expected.coeffs]


def unit_pivot_divisor(rng):
    """Integer divisor of degree >= 1 whose constant term is +1 or -1."""
    draw = lambda: rng.choice([-2, -1, 1, 2])  # noqa: E731
    body = sparse_coeffs(rng, draw, 0, max_len=5)
    return DensePolynomial([rng.choice([1, -1])] + body + [draw()])


class TestSparseMulAgainstDenseOracle:
    @pytest.mark.parametrize("ring_a,ring_b", RING_PAIRS)
    @random_cases
    def test_matches_dense_oracle(self, ring_a, ring_b, rng):
        a, b = RINGS[ring_a](rng), RINGS[ring_b](rng)
        assert_same_poly(a * b, dense_mul(a, b))

    def test_zero_divisors_cancel_top_coefficient(self):
        a = DensePolynomial([cyclotomic_int(4, 1), ONE_PLUS_W])
        b = DensePolynomial([cyclotomic_int(4, 1), ONE_PLUS_W2])
        product = a * b
        assert product.degree == 1
        assert_same_poly(product, dense_mul(a, b))

    def test_gaps_keep_coefficient_ring(self):
        product = DensePolynomial([form(3, 1, 0)]) * one_minus_x_pow(3)
        assert [type(c) for c in product.coeffs] == [ZeroSumForm] * 4
        assert not product.coeffs[1] and not product.coeffs[2]


class TestExactDivAgainstDenseOracle:
    @pytest.mark.parametrize("ring", sorted(RINGS))
    @random_cases
    def test_roundtrip(self, ring, rng):
        q = RINGS[ring](rng)
        g = unit_pivot_divisor(rng)
        if not q:
            return
        assert dense_mul(q, g).exact_div(g) == q

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @random_cases
    def test_nondivisible_carries_oracle_remainder(self, ring, rng):
        # f = q*g + r, with r placed above where the division by g looks
        # while building the quotient.  The quotient is then q, so f is not
        # divisible for any nonzero r, and the remainder must equal f - q*g.
        make = RINGS[ring]
        q = make(rng)
        g = unit_pivot_divisor(rng)
        room = len(g.coeffs) - 1
        nonzero = [c for c in make(rng).coeffs if c][:room]
        if not q or not nonzero:
            return
        r = [0 * nonzero[0]] * room
        for slot, c in zip(sorted(rng.sample(range(room), len(nonzero))), nonzero):
            r[slot] = c
        r = shifted(DensePolynomial(r), len(q.coeffs))
        qg = dense_mul(q, g)
        f = qg + r
        if f.degree != qg.degree:
            return
        with pytest.raises(NotDivisibleError) as err:
            f.exact_div(g)
        assert err.value.remainder == f - dense_mul(q, g)
        assert err.value.remainder == r

    def test_exact_bottom_division_does_not_multiply(self, monkeypatch):
        params = PTMParams(3, 3)
        a = ZeroSumVector.symbolic(3)
        f = ptm_polynomial(params, a)
        divisor = binomial_product(params)

        def refuse(self, other):
            raise AssertionError("exact division re-multiplied")

        monkeypatch.setattr(DensePolynomial, "__mul__", refuse)
        quotient = f.exact_div(divisor)
        monkeypatch.undo()
        assert quotient == cofactor_recursive(params, a)


# A nonzero coefficient of each ring, for when a draw gives none.
UNITS = {"int": 1, "cyclotomic4": cyclotomic_int(4, 1), "form": form(3, 1, 0)}


def nonzero_poly(ring, rng):
    """A polynomial drawn from RINGS[ring], or the ring's 1-term one if it is zero."""
    return RINGS[ring](rng) or DensePolynomial([UNITS[ring]])


class TestExactDivRecurrence:
    """exact_div runs its quotient recurrence over every term of f, so q is
    the power series f / g to that order; f is divisible exactly when q
    vanishes from the quotient's length on.  Products here come from the
    production multiply; g has a +-1 constant term and is often more than a
    binomial."""

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @random_cases
    def test_product_divides_back(self, ring, rng):
        f, g = nonzero_poly(ring, rng), unit_pivot_divisor(rng)
        assert_same_poly((f * g).exact_div(g), f)

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @random_cases
    def test_one_term_above_the_quotient_is_the_remainder(self, ring, rng):
        f, g = nonzero_poly(ring, rng), unit_pivot_divisor(rng)
        fg = f * g
        qlen = len(fg.coeffs) - len(g.coeffs) + 1
        j = rng.randrange(qlen, len(fg.coeffs))
        c = rng.choice([c for c in nonzero_poly(ring, rng).coeffs if c])
        if j == fg.degree and not fg.coeffs[j] + c:
            c = -c  # keep the top term, and with it the quotient's length
        term = shifted(DensePolynomial([c]), j)
        with pytest.raises(NotDivisibleError) as err:
            (fg + term).exact_div(g)
        assert err.value.remainder == term
