"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact equality (big integers, exact rings); the only
tolerances are wall-clock ceilings.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import random
import time

from prouhet import (
    LehmerSpec,
    PTMParams,
    ZeroSumForm,
    ZeroSumVector,
    binomial_product,
    cofactor_by_division,
    cofactor_recursive,
    lehmer_expand,
    lehmer_verify,
    power_sum_table,
    prouhet_partition,
    ptm_polynomial,
    verify_esp,
)
from prouhet.cli import main
from prouhet.factorization import DensePolynomial

from oracles import (
    multiset_power_sum,
    ptm_polynomial_recursive,
    vanishing_order_at_one,
    verify_product_identity,
    weighted_power_sum,
)


def report(label, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {label} ({elapsed:.2f}s)")


def random_zero_sum_vector(rng, p, bound=10):
    while True:
        head = [rng.randint(-bound, bound) for _ in range(p - 1)]
        last = -sum(head)
        if -bound <= last <= bound and any(head + [last]):
            return ZeroSumVector(head + [last])


def criterion_sweep_vectors(rng, p):
    """Symbolic vector plus 20 random integer zero-sum vectors in [-10, 10]."""
    return [ZeroSumVector.symbolic(p)] + [random_zero_sum_vector(rng, p) for _ in range(20)]


def test_criterion_1_golden_partition(capsys):
    start = time.perf_counter()
    code = main(["partition", "--p", "2", "--m", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out

    def check():
        assert code == 0
        result = json.loads(out)["result"]
        assert result == {
            "p": 2,
            "m": 3,
            "classes": [[0, 3, 5, 6, 9, 10, 12, 15], [1, 2, 4, 7, 8, 11, 13, 14]],
            "power_sums": [["8", "8"], ["60", "60"], ["620", "620"], ["7200", "7200"]],
            "esp_verified_through": 3,
        }
        assert elapsed < 1.0

    with capsys.disabled():
        report("criterion 1: golden partition p=2 m=3 (exact, <1s)", check)


def test_criterion_2_golden_symbolic_factorizations(capsys):
    def check():
        start = time.perf_counter()
        f = lambda *coeffs: ZeroSumForm(3, coeffs)
        golden_level_1 = DensePolynomial([f(1, 0), f(1, 1)])
        golden_level_2 = DensePolynomial([f(1, 0), f(1, 1), f(0, 0), f(1, 1), f(0, 1)])
        a = ZeroSumVector.symbolic(3)
        for n, golden in ((1, golden_level_1), (2, golden_level_2)):
            params = PTMParams(3, n)
            assert cofactor_by_division(params, a) == golden
            assert cofactor_recursive(params, a) == golden
        assert time.perf_counter() - start < 1.0

    with capsys.disabled():
        report("criterion 2: golden symbolic cofactors p=3 n=1,2 (exact, <1s)", check)


def test_criterion_3_equal_power_sums_sweep(capsys):
    def check():
        start = time.perf_counter()
        for p in range(2, 6):
            for m in range(0, 5):
                if p ** (m + 1) > 10**5:
                    continue
                result = verify_esp(PTMParams.from_degree(p, m), m)
                assert result.first_violation is None, (p, m, result)
                assert result.equal_up_to == m
        assert time.perf_counter() - start < 30.0

    with capsys.disabled():
        report("criterion 3: equal power sums p=2..5 m=0..4 (exact, <30s)", check)


def test_criterion_4_factorization_property_suite(capsys):
    def check():
        start = time.perf_counter()
        for p in range(2, 6):
            for n in range(1, 5):
                rng = random.Random(91 * p + n)
                params = PTMParams(p, n)
                divisor = binomial_product(params)
                for vec in criterion_sweep_vectors(rng, p):
                    block_poly = ptm_polynomial(params, vec)
                    assert ptm_polynomial_recursive(params, vec) == block_poly
                    by_division = cofactor_by_division(params, vec)
                    assert by_division * divisor == block_poly
                    assert by_division == cofactor_recursive(params, vec)
        assert time.perf_counter() - start < 60.0

    with capsys.disabled():
        report(
            "criterion 4: factorization suite p=2..5 n=1..4, symbolic + 20 random (exact, <60s)",
            check,
        )


def test_criterion_5_vanishing_suite(capsys):
    def check():
        for p in range(2, 6):
            for n in range(1, 5):
                rng = random.Random(91 * p + n)  # same sweep as criterion 4
                params = PTMParams(p, n)
                for vec in criterion_sweep_vectors(rng, p):
                    for m in range(n):
                        assert not weighted_power_sum(params, vec, m), (p, n, m)
                    if any(vec):
                        assert vanishing_order_at_one(ptm_polynomial(params, vec)) >= n

    with capsys.disabled():
        report("criterion 5: weighted sums vanish below n, root order >= n (exact)", check)


def test_criterion_6_product_identity_sweep(capsys):
    def check():
        start = time.perf_counter()
        for p in range(2, 7):
            for m in range(0, 4):
                assert verify_product_identity(p, m), (p, m)
        assert time.perf_counter() - start < 10.0

    with capsys.disabled():
        report("criterion 6: product identity p=2..6 m=0..3 (exact, <10s)", check)


def test_criterion_7_lehmer_sweep(capsys):
    def check():
        for p in range(2, 6):
            for m in range(0, 4):
                rng = random.Random(53 * p + m)
                for _ in range(10):
                    mu = tuple(rng.randint(1, 20) for _ in range(m + 1))
                    result = lehmer_verify(LehmerSpec(p, mu))
                    assert result.first_violation is None, (p, mu, result)
                    assert result.equal_up_to == m
                # base-power weights reproduce the digit-sum partition classwise
                classes = lehmer_expand(LehmerSpec.base_powers(p, m))
                part = prouhet_partition(PTMParams.from_degree(p, m))
                assert all(mult == 1 for cls in classes for _, mult in cls)
                assert tuple(tuple(v for v, _ in cls) for cls in classes) == part

    with capsys.disabled():
        report("criterion 7: weighted multisets p=2..5 m=0..3, 10 random mu (exact)", check)


def test_criterion_8_three_way_oracle_agreement(capsys):
    def check():
        for p in range(2, 6):
            for m in range(0, 4):
                params = PTMParams.from_degree(p, m)
                table = power_sum_table(params)
                classes = lehmer_expand(LehmerSpec.base_powers(p, m))
                for exp in range(m + 1):
                    direct = table[exp]
                    # Lehmer enumeration at base-power weights
                    via_lehmer = tuple(
                        multiset_power_sum(cls, exp) for cls in classes
                    )
                    assert via_lehmer == direct, (p, m, exp)
                    # indicator-weighted sums give every pairwise difference
                    for j in range(p):
                        for k in range(j + 1, p):
                            entries = [0] * p
                            entries[j], entries[k] = 1, -1
                            indicator = ZeroSumVector(entries)
                            assert weighted_power_sum(params, indicator, exp) == (
                                direct[j] - direct[k]
                            ), (p, m, exp, j, k)

    with capsys.disabled():
        report("criterion 8: direct / indicator / Lehmer power sums agree (exact)", check)
