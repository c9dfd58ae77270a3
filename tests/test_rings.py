import random

import pytest

from prouhet import CyclotomicElement, DensePolynomial, ZeroSumForm, omega_pow

from randomized import random_cases


def naive_reduce(p, coeffs):
    """Independent reduction oracle: fold exponents mod p (w^p = 1), then
    eliminate w^{p-1} using 1 + w + ... + w^{p-1} = 0."""
    folded = [0] * p
    for i, c in enumerate(coeffs):
        folded[i % p] += c
    top = folded[p - 1]
    return tuple(folded[i] - top for i in range(p - 1))


def naive_mul(p, a, b):
    """Schoolbook product of two canonical representatives, then reduce."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            conv[i + j] += ca * cb
    return naive_reduce(p, conv)


def random_cyclo(rng, p, bound=8):
    return CyclotomicElement(p, tuple(rng.randint(-bound, bound) for _ in range(p - 1)))


def random_form(rng, p, bound=8):
    return ZeroSumForm(p, tuple(rng.randint(-bound, bound) for _ in range(p - 1)))


def random_zero_sum_ints(rng, p, bound=10):
    while True:
        head = [rng.randint(-bound, bound) for _ in range(p - 1)]
        last = -sum(head)
        if -bound <= last <= bound:
            return head + [last]


class TestCyclotomic:
    def test_add_componentwise(self):
        a = CyclotomicElement(3, (1, 0))
        b = CyclotomicElement(3, (0, 1))
        assert a + b == CyclotomicElement(3, (1, 1))

    def test_add_identity(self):
        x = CyclotomicElement(5, (3, -1, 0, 2))
        assert x + CyclotomicElement.zero(5) == x

    def test_add_inverse(self):
        assert CyclotomicElement(2, (1,)) + CyclotomicElement(2, (-1,)) == CyclotomicElement.zero(2)

    def test_mul_omega_squared_p3(self):
        w = omega_pow(3, 1)
        assert w * w == CyclotomicElement(3, (-1, -1))

    def test_mul_omega_squared_p2(self):
        w = omega_pow(2, 1)
        assert w * w == CyclotomicElement(2, (1,))

    def test_mul_p5_exponent_fold(self):
        # w^3 * w^3 = w^6 = w, cross-checked against the naive oracle
        w3 = omega_pow(5, 3)
        product = w3 * w3
        assert product == omega_pow(5, 1)
        assert product.coeffs == naive_mul(5, w3.coeffs, w3.coeffs)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_random_products_match_naive_oracle(self, p):
        rng = random.Random(501 + p)
        for _ in range(30):
            x, y = random_cyclo(rng, p), random_cyclo(rng, p)
            assert (x * y).coeffs == naive_mul(p, x.coeffs, y.coeffs)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_roots_sum_to_zero(self, p):
        total = CyclotomicElement.zero(p)
        for k in range(p):
            total = total + omega_pow(p, k)
        assert total == CyclotomicElement.zero(p)
        assert not total

    @pytest.mark.parametrize("p", range(2, 8))
    def test_ring_axioms(self, p):
        rng = random.Random(77 * p)
        for _ in range(20):
            x, y, z = (random_cyclo(rng, p) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_omega_pow_examples(self):
        assert omega_pow(3, 0) == CyclotomicElement(3, (1, 0))
        assert omega_pow(3, 2) == CyclotomicElement(3, (-1, -1))
        assert omega_pow(5, 7) == omega_pow(5, 2)
        assert omega_pow(4, -1) == omega_pow(4, 3)

    def test_omega_full_cycle_is_one(self):
        for p in range(2, 8):
            acc = CyclotomicElement.one(p)
            for _ in range(p):
                acc = acc * omega_pow(p, 1)
            assert acc == CyclotomicElement.one(p)

    def test_int_embedding(self):
        x = CyclotomicElement(3, (2, -1))
        assert x + 1 == CyclotomicElement(3, (3, -1))
        assert 2 * x == CyclotomicElement(3, (4, -2))
        assert 1 - x == CyclotomicElement(3, (-1, 1))
        assert CyclotomicElement.from_int(3, 5) == 5

    def test_mismatched_base_raises(self):
        with pytest.raises(ValueError):
            CyclotomicElement(3, (1, 0)) + CyclotomicElement(4, (1, 0, 0))
        with pytest.raises(ValueError):
            CyclotomicElement(3, (1, 0)) * CyclotomicElement(4, (1, 0, 0))

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            CyclotomicElement(3, (1, 0, 0))

    def test_str(self):
        assert str(CyclotomicElement(3, (-1, -1))) == "-1 - w"
        assert str(CyclotomicElement.zero(4)) == "0"
        assert str(CyclotomicElement(4, (0, 0, 2))) == "2w^2"


class TestZeroSumForm:
    def test_generator_examples(self):
        assert ZeroSumForm.generator(3, 0) == ZeroSumForm(3, (1, 0))
        assert ZeroSumForm.generator(3, 2) == ZeroSumForm(3, (-1, -1))

    @pytest.mark.parametrize("p", range(2, 8))
    def test_generators_sum_to_zero(self, p):
        total = ZeroSumForm.zero(p)
        for i in range(p):
            total = total + ZeroSumForm.generator(p, i)
        assert not total
        assert total == 0

    def test_generator_out_of_range(self):
        with pytest.raises(IndexError):
            ZeroSumForm.generator(3, 3)
        with pytest.raises(IndexError):
            ZeroSumForm.generator(3, -1)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_module_axioms(self, p):
        rng = random.Random(900 + p)
        for _ in range(20):
            f, g, h = (random_form(rng, p) for _ in range(3))
            c, d = rng.randint(-9, 9), rng.randint(-9, 9)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert c * (f + g) == c * f + c * g
            assert (c + d) * f == c * f + d * f
            assert (c * d) * f == c * (d * f)

    def test_products_of_symbols_rejected(self):
        f = ZeroSumForm.generator(3, 0)
        with pytest.raises(TypeError):
            f * f

    def test_nonzero_integer_addition_rejected(self):
        a0, a1, a2 = (ZeroSumForm.generator(3, i) for i in range(3))
        with pytest.raises(TypeError):
            a0 + 1
        with pytest.raises(TypeError):
            1 - a0
        assert a0 + 0 == a0
        assert 0 - a0 == a1 + a2

    @pytest.mark.parametrize("p", range(2, 8))
    def test_specialize_commutes_with_module_ops(self, p):
        rng = random.Random(314 + p)
        for _ in range(20):
            f, g = random_form(rng, p), random_form(rng, p)
            c = rng.randint(-9, 9)
            values = random_zero_sum_ints(rng, p)
            assert (f + g).specialize(values) == f.specialize(values) + g.specialize(values)
            assert (c * f).specialize(values) == c * f.specialize(values)

    def test_specialize_generator_recovers_value(self):
        values = [4, -1, -3]
        for i in range(3):
            assert ZeroSumForm.generator(3, i).specialize(values) == values[i]

    def test_specialize_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            ZeroSumForm.generator(3, 0).specialize([1, 2, 3])

    def test_equality_with_integers(self):
        assert ZeroSumForm.zero(5) == 0
        assert ZeroSumForm.generator(5, 1) != 0
        assert ZeroSumForm.generator(5, 1) != 1
        # a0 has the coordinates a cyclotomic 1 has, but is no integer.
        assert ZeroSumForm.generator(2, 0) != 1
        assert ZeroSumForm(3, (1, 0)) != 1

    def test_str(self):
        assert str(ZeroSumForm(3, (1, 1))) == "a0 + a1"
        assert str(ZeroSumForm(3, (-2, 1))) == "-2a0 + a1"
        assert str(ZeroSumForm.zero(3)) == "0"


class TestSharedCoordinates:
    """What the two rings share (storage, module arithmetic, equality,
    hashing, repr) and what they must keep apart."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rings_do_not_mix(self, p):
        coeffs = (1,) + (0,) * (p - 2)
        one, a0 = CyclotomicElement(p, coeffs), ZeroSumForm(p, coeffs)
        for x, y in ((one, a0), (a0, one)):
            for op in (lambda: x + y, lambda: x - y, lambda: x * y):
                with pytest.raises(TypeError):
                    op()
            assert x != y
            assert not x == y

    @pytest.mark.parametrize(
        "a,b",
        [
            (CyclotomicElement.from_int(3, 5), 5),
            (CyclotomicElement(2, (-4,)), -4),
            (ZeroSumForm.zero(3), 0),
            (
                DensePolynomial((0, ZeroSumForm.generator(3, 1))),
                DensePolynomial((ZeroSumForm.zero(3), ZeroSumForm.generator(3, 1))),
            ),
        ],
    )
    def test_equal_values_hash_equal(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_names_the_class(self):
        assert repr(CyclotomicElement(3, (1, -2))) == "CyclotomicElement(3, (1, -2))"
        assert repr(ZeroSumForm(3, (1, -2))) == "ZeroSumForm(3, (1, -2))"

    @pytest.mark.parametrize("ring", [CyclotomicElement, ZeroSumForm])
    @pytest.mark.parametrize("p", range(2, 6))
    def test_basis_is_the_unit_vector_or_minus_the_rest(self, ring, p):
        for k in range(p - 1):
            assert ring.basis(p, k).coeffs == tuple(int(i == k) for i in range(p - 1))
        assert ring.basis(p, p - 1).coeffs == (-1,) * (p - 1)
        assert type(ring.basis(p, 0)) is ring
        assert type(ZeroSumForm.generator(p, 0)) is ZeroSumForm


class TestRingLaws:
    """The ring and module laws on random elements of a random base, drawn
    by tests/randomized.py."""

    @random_cases
    def test_cyclotomic_multiplication_associates_and_distributes(self, rng):
        p = rng.randint(2, 9)
        x, y, z = (random_cyclo(rng, p, bound=50) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    @random_cases
    def test_zero_sum_form_addition_and_integer_scaling(self, rng):
        p = rng.randint(2, 9)
        f, g, h = (random_form(rng, p, bound=50) for _ in range(3))
        c, d = rng.randint(-50, 50), rng.randint(-50, 50)
        zero = ZeroSumForm.zero(p)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f + zero == f == f + 0
        assert f + (-f) == zero == f - f
        assert c * (f + g) == c * f + c * g
        assert (c + d) * f == c * f + d * f
        assert (c * d) * f == c * (d * f)
        assert 1 * f == f
        assert 0 * f == zero
