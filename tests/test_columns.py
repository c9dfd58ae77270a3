"""The integer-column kernels of `factor` and `identities` against the
ring-generic DensePolynomial multiply and exact_div."""

import contextlib
import io
import json

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
    product_identity_sides,
    ptm_block,
    ptm_polynomial,
)
from prouhet.cli import main
from prouhet.factorization import (
    block_columns,
    coordinate_columns,
    divide_columns,
    division_columns,
    polynomial_from_columns,
    recursive_column,
    vector_columns,
)

from oracles import (
    cube_cofactor,
    cyclotomic_int,
    dense_product_lhs,
    identity_side_polynomials,
    one_minus_x_pow,
    ring_zero,
    roots_of_unity,
    times_binomial_product,
)
from randomized import random_cases

# Largest block exponent per base that keeps the ring-generic oracle quick.
MAX_N = {2: 6, 3: 4, 4: 3, 5: 3, 6: 2, 7: 2}
GRID = [(p, n) for p, top in MAX_N.items() for n in range(1, top + 1)]
RING_VECTORS = {"symbolic": ZeroSumVector.symbolic, "roots": roots_of_unity}


def random_integer_case(rng):
    """Random params and integer zero-sum vector; entries may be zero, so
    blocks with stripped trailing zeros, and the zero vector, occur."""
    p, n = rng.choice(GRID)
    head = [rng.randint(-9, 9) for _ in range(p - 1)]
    return PTMParams(p, n), ZeroSumVector(head + [-sum(head)])


def division_chain(params, vector):
    """Oracle: exact_div by each 1 - x^{p^m} over the vector's ring."""
    quotient = ptm_polynomial(params, vector)
    for m in range(params.n):
        quotient = quotient.exact_div(one_minus_x_pow(params.p**m))
    return quotient


def dense_divisor(params):
    """Oracle: the product of the binomials by DensePolynomial.__mul__."""
    divisor = DensePolynomial([1])
    for m in range(params.n):
        divisor = divisor * one_minus_x_pow(params.p**m)
    return divisor


def padded_columns(poly, sample, length):
    """Oracle: poly's coordinate columns in sample's ring, zero-padded to length."""
    return [c + [0] * (length - len(c)) for c in coordinate_columns(poly.coeffs, sample)]


def assert_same_poly(actual, expected):
    """Equal, and in the same ring coefficient by coefficient."""
    assert actual == expected
    assert [type(c) for c in actual.coeffs] == [type(c) for c in expected.coeffs]


class TestDivision:
    @random_cases
    def test_integer_vectors_match_ring_generic_chain(self, rng):
        params, vector = random_integer_case(rng)
        expected = division_chain(params, vector)
        assert_same_poly(cofactor_by_division(params, vector), expected)
        assert_same_poly(cofactor_recursive(params, vector), expected)

    @pytest.mark.parametrize("kind", sorted(RING_VECTORS))
    @pytest.mark.parametrize("p,n", GRID)
    def test_ring_vectors_match_ring_generic_chain(self, kind, p, n):
        params, vector = PTMParams(p, n), RING_VECTORS[kind](p)
        expected = division_chain(params, vector)
        assert_same_poly(cofactor_by_division(params, vector), expected)
        assert_same_poly(cofactor_recursive(params, vector), expected)

    @random_cases
    def test_nondivisible_integer_column_carries_oracle_remainder(self, rng):
        f = [rng.randint(-5, 5) for _ in range(rng.randint(2, 12))]
        f[-1] = rng.choice([-3, -1, 1, 3])
        d = rng.randint(1, len(f) - 1)
        try:
            expected = DensePolynomial(f).exact_div(one_minus_x_pow(d))
        except NotDivisibleError as oracle:
            with pytest.raises(NotDivisibleError) as err:
                divide_columns([f], d)
            assert err.value.remainder == padded_columns(oracle.remainder, 0, len(f))
        else:
            (quotient,) = divide_columns([f], d)
            assert DensePolynomial(quotient) == expected

    @random_cases
    def test_nondivisible_form_columns_carry_oracle_remainder(self, rng):
        # The top entry is a nonzero form, so the oracle's polynomial keeps
        # every entry and the columns line up with it.
        p = rng.randint(2, 5)
        f = [ZeroSumForm(p, [rng.randint(-3, 3) for _ in range(p - 1)])
             for _ in range(rng.randint(2, 10))]
        if not f[-1]:
            f[-1] = ZeroSumForm.basis(p, 0)
        d = rng.randint(1, len(f) - 1)
        columns = coordinate_columns(f, f[-1])
        try:
            expected = DensePolynomial(f).exact_div(one_minus_x_pow(d))
        except NotDivisibleError as oracle:
            with pytest.raises(NotDivisibleError) as err:
                divide_columns(columns, d)
            remainder = err.value.remainder
            assert remainder == padded_columns(oracle.remainder, f[-1], len(f))
            assert {type(c) for column in remainder for c in column} == {int}
        else:
            quotient = divide_columns(columns, d)
            assert polynomial_from_columns(quotient, f[-1]) == expected

    def test_remainder_is_the_top_rows_over_zeros(self):
        f = [ZeroSumForm(3, (1, 0)), ring_zero(ZeroSumForm, 3), ZeroSumForm(3, (2, -1))]
        with pytest.raises(NotDivisibleError) as err:
            divide_columns(coordinate_columns(f, f[0]), 2)
        # f - a0 * (1 - x^2) = (3a0 - a1) x^2
        assert err.value.remainder == [[0, 0, 3], [0, 0, -1]]


class TestCubeSum:
    """Division, the recursion and the direct cube sum give one cofactor."""

    @staticmethod
    def assert_agree(params, columns):
        divided = division_columns(params, block_columns(ptm_block(params), columns))
        for column, quotient in zip(columns, divided):
            assert quotient == recursive_column(params.n, column) == cube_cofactor(params.n, column)

    @pytest.mark.parametrize("p", range(2, 8))
    @random_cases
    def test_integer_vectors(self, p, rng):
        # Entries are zero half the time, so the zero vector occurs too.
        head = [rng.choice((0, rng.randint(-9, 9))) for _ in range(p - 1)]
        self.assert_agree(PTMParams(p, rng.randint(1, MAX_N[p])), [head + [-sum(head)]])

    @pytest.mark.parametrize("p,n", GRID)
    def test_symbolic_columns(self, p, n):
        params = PTMParams(p, n)
        self.assert_agree(params, vector_columns(params, ZeroSumVector.symbolic(p)))


class TestMultiplyBack:
    @random_cases
    def test_integer_cofactors_match_dense_product(self, rng):
        params, vector = random_integer_case(rng)
        cofactor = cofactor_by_division(params, vector)
        expected = cofactor * dense_divisor(params)
        assert_same_poly(times_binomial_product(params, cofactor), expected)
        assert expected == ptm_polynomial(params, vector)

    @pytest.mark.parametrize("kind", sorted(RING_VECTORS))
    @pytest.mark.parametrize("p,n", GRID)
    def test_ring_cofactors_match_dense_product(self, kind, p, n):
        params = PTMParams(p, n)
        cofactor = cofactor_by_division(params, RING_VECTORS[kind](p))
        product = times_binomial_product(params, cofactor)
        assert_same_poly(product, cofactor * dense_divisor(params))

    @pytest.mark.parametrize("p,n", GRID)
    def test_divisor_matches_dense_product(self, p, n):
        assert binomial_product(PTMParams(p, n)) == dense_divisor(PTMParams(p, n))

    def test_zero_polynomial(self):
        assert times_binomial_product(PTMParams(3, 2), DensePolynomial()) == DensePolynomial()


class TestIdentityColumns:
    @pytest.mark.parametrize("p,n", GRID)
    def test_left_side_matches_dense_product(self, p, n):
        lhs, rhs = identity_side_polynomials(p, n - 1)
        assert_same_poly(lhs, dense_product_lhs(p, n - 1))
        assert all(type(c) is CyclotomicElement for c in lhs.coeffs)
        assert lhs == rhs

    @random_cases
    def test_columns_are_the_coordinates_of_both_sides(self, rng):
        p, m = rng.randint(2, 7), rng.randint(0, 3)
        lhs, rhs = product_identity_sides(PTMParams.from_degree(p, m))
        one = cyclotomic_int(p, 1)
        assert lhs == coordinate_columns(dense_product_lhs(p, m).coeffs, one)
        block = ptm_polynomial(PTMParams.from_degree(p, m), roots_of_unity(p))
        assert rhs == coordinate_columns(block.coeffs, one)
        assert [len(column) for column in lhs] == [p ** (m + 1)] * (p - 1)


def coeff_payload(c):
    return str(c) if isinstance(c, int) else [str(v) for v in c.coeffs]


def library_payload(params, vector):
    """Oracle: the factor payload rendered from the library's polynomials."""
    block = ptm_polynomial(params, vector)
    cofactor = cofactor_by_division(params, vector)
    return {
        "vector": [coeff_payload(v) for v in vector],
        "ptm_poly": [coeff_payload(c) for c in block.coeffs],
        "divisor": [coeff_payload(c) for c in binomial_product(params).coeffs],
        "cofactor": [coeff_payload(c) for c in cofactor.coeffs],
        "product_check": times_binomial_product(params, cofactor) == block,
        "constructions_agree": cofactor == cofactor_recursive(params, vector),
    }


def cli_payload(params, vector_args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["factor", "--p", str(params.p), "--n", str(params.n), *vector_args])
    assert code == 0
    result = json.loads(buf.getvalue())["result"]
    return {key: result[key] for key in result if key not in ("p", "n", "mode")}


class TestFactorPayload:
    @random_cases
    def test_integer_vectors_match_library_payload(self, rng):
        params, vector = random_integer_case(rng)
        coeffs = ",".join(map(str, vector))
        assert cli_payload(params, [f"--coeffs={coeffs}"]) == library_payload(params, vector)

    @pytest.mark.parametrize(
        "p,n,coeffs",
        [(3, 2, "5,0,-5"), (3, 3, "0,5,-5"), (4, 2, "1,0,-1,0"), (2, 3, "0,0"), (5, 2, "0,0,0,0,0")],
    )
    def test_zero_entries_match_library_payload(self, p, n, coeffs):
        params, vector = PTMParams(p, n), ZeroSumVector(map(int, coeffs.split(",")))
        expected = library_payload(params, vector)
        assert cli_payload(params, ["--coeffs", coeffs]) == expected

    def test_stripped_trailing_coefficients_are_covered(self):
        # 5,0,-5 puts 0 at the block's last label, so both the block and the
        # cofactor lose their top coefficient; 0,0 leaves nothing.
        params = PTMParams(3, 2)
        payload = library_payload(params, ZeroSumVector([5, 0, -5]))
        assert len(payload["ptm_poly"]) == 8 and len(payload["cofactor"]) == 4
        assert library_payload(PTMParams(2, 3), ZeroSumVector([0, 0]))["cofactor"] == []

    @pytest.mark.parametrize("p,n", GRID)
    def test_symbolic_vector_matches_library_payload(self, p, n):
        params = PTMParams(p, n)
        expected = library_payload(params, ZeroSumVector.symbolic(p))
        assert cli_payload(params, ["--symbolic"]) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--p", "5", "--n", "3", "--symbolic"],
        ["factor", "--p", "3", "--n", "4", "--coeffs", "4,-7,3"],
        ["identities", "--p", "4", "--m", "3"],
    ],
)
def test_commands_skip_ring_generic_multiply_and_division(argv, capsys, monkeypatch):
    # Exit 0 means every check of the command passed.
    calls = []
    for name in ("__mul__", "exact_div"):
        original = getattr(DensePolynomial, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(DensePolynomial, name, counted)
    assert main(argv) == 0
    assert calls == []
