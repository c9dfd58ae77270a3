import itertools
import time

import pytest

from prouhet import (
    EspReport,
    PTMParams,
    ZeroSumVector,
    class_power_sums,
    power_sum,
    power_sum_table,
    prouhet_partition,
    ptm_term,
    verify_esp,
    weighted_classes,
)
from prouhet.cli import build_parser

from oracles import classes_by_label, product_value_lists, weighted_power_sum
from randomized import random_cases

# Brute-forced with sum(n**4 for n in ...) over the two classes below.
S0_P2M3 = (0, 3, 5, 6, 9, 10, 12, 15)
S1_P2M3 = (1, 2, 4, 7, 8, 11, 13, 14)


class TestProuhetPartition:
    def test_golden_p2_m3(self):
        part = prouhet_partition(PTMParams.from_degree(2, 3))
        assert part == (S0_P2M3, S1_P2M3)

    def test_singletons_p3_m0(self):
        part = prouhet_partition(PTMParams.from_degree(3, 0))
        assert part == ((0,), (1,), (2,))

    def test_p3_m1(self):
        # read off the block 0,1,2,1,2,0,2,0,1
        part = prouhet_partition(PTMParams.from_degree(3, 1))
        assert part == ((0, 5, 7), (1, 3, 8), (2, 4, 6))

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_invariants(self, p, m):
        part = prouhet_partition(PTMParams.from_degree(p, m))
        sizes = {len(cls) for cls in part}
        assert sizes == {p**m}
        members = sorted(n for cls in part for n in cls)
        assert members == list(range(p ** (m + 1)))

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 1)])
    def test_members_match_digit_sum_oracle(self, p, m):
        part = prouhet_partition(PTMParams.from_degree(p, m))
        for k, cls in enumerate(part):
            assert all(ptm_term(n, p) == k for n in cls)

    def test_determined_by_params(self):
        params = PTMParams.from_degree(2, 1)
        assert prouhet_partition(params) == ((0, 3), (1, 2))


class TestWeightedClasses:
    @pytest.mark.parametrize("p", range(2, 8))
    def test_partition_matches_label_buckets(self, p):
        m = 0
        while p ** (m + 1) <= 3000:
            params = PTMParams.from_degree(p, m)
            assert prouhet_partition(params) == classes_by_label(params), (p, m)
            m += 1

    @random_cases
    def test_matches_product_enumeration(self, rng):
        p = rng.randint(2, 5)
        pool = [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
        weights = [rng.choice(pool) for _ in range(rng.randint(0, {2: 7, 3: 5, 4: 4, 5: 3}[p]))]
        lists = weighted_classes(p, weights)
        expected = product_value_lists(p, weights)
        assert [sorted(values) for values in lists] == [sorted(e) for e in expected], (p, weights)

    def test_repeated_weight_repeats_values(self):
        assert weighted_classes(2, [1, 1]) == [[0, 2], [1, 1]]
        assert weighted_classes(3, []) == [[0], [], []]

    def test_first_level_shifts_only_class_zero(self):
        # Shifting every class at every d is p*(p-1) lists, about 5 s at
        # p = 3000; only class 0 holds a value before the first weight.
        start = time.perf_counter()
        lists = weighted_classes(3000, (1,))
        assert time.perf_counter() - start < 1.0
        assert lists == [[k] for k in range(3000)]


class TestPowerSum:
    def test_golden_cubes(self):
        assert power_sum(S0_P2M3, 3) == 7200
        assert power_sum(S1_P2M3, 3) == 7200

    def test_golden_squares(self):
        assert power_sum(S1_P2M3, 2) == 620

    def test_zero_exponent_counts_members(self):
        # 0**0 = 1, so the m=0 sum is the cardinality
        assert power_sum(S0_P2M3, 0) == 8
        assert power_sum([0], 0) == 1

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power_sum([1, 2], -1)


class TestPowerSumTable:
    def test_golden_p2_m3(self):
        table = power_sum_table(PTMParams.from_degree(2, 3))
        assert table == ((8, 8), (60, 60), (620, 620), (7200, 7200))

    def test_p3_m0(self):
        assert power_sum_table(PTMParams.from_degree(3, 0)) == ((1, 1, 1),)

    def test_p3_m1(self):
        assert power_sum_table(PTMParams.from_degree(3, 1)) == ((3, 3, 3), (12, 12, 12))


class TestVerifyEsp:
    def test_golden_through_declared_degree(self):
        report = verify_esp(PTMParams.from_degree(2, 3), 3)
        assert report.equal_up_to == 3
        assert report.first_violation is None

    def test_golden_beyond_declared_degree(self):
        params = PTMParams.from_degree(2, 3)
        report = verify_esp(params, 4)
        assert report.equal_up_to == 3
        assert report.first_violation == (4, 0, 1)
        assert report.power_sums == power_sum_table(params) + ((89924, 88388),)
        # brute-force oracle for the two fourth-power sums
        assert power_sum(S0_P2M3, 4) == 89924
        assert power_sum(S1_P2M3, 4) == 88388

    def test_p3_m1_beyond(self):
        report = verify_esp(PTMParams.from_degree(3, 1), 2)
        assert report.equal_up_to == 1
        # classes 0 and 1 still agree at m=2 (74 each); class 2 gives 56
        assert report.first_violation == (2, 0, 2)
        assert power_sum((0, 5, 7), 2) == 74
        assert power_sum((1, 3, 8), 2) == 74
        assert power_sum((2, 4, 6), 2) == 56

    def test_smallest_case(self):
        report = verify_esp(PTMParams.from_degree(2, 0), 1)
        assert report.equal_up_to == 0
        assert report.first_violation == (1, 0, 1)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_equal_sums_sweep(self, p, m):
        assert verify_esp(PTMParams.from_degree(p, m), m).first_violation is None


class TestEspReport:
    def test_value_type(self):
        report = verify_esp(PTMParams.from_degree(2, 0), 1)
        assert report == EspReport(0, (1, 0, 1), ((1, 1), (0, 1)))
        assert repr(report) == (
            "EspReport(equal_up_to=0, first_violation=(1, 0, 1), power_sums=((1, 1), (0, 1)))"
        )
        assert hash(report) == hash(EspReport(0, (1, 0, 1), ((1, 1), (0, 1))))
        assert report != EspReport(0, None, ((1, 1), (0, 1)))
        for field in ("equal_up_to", "first_violation", "power_sums", "extra"):
            with pytest.raises(AttributeError):
                setattr(report, field, None)

    @random_cases
    def test_holds_through_n_minus_1_and_fails_at_n(self, rng):
        """ESP of the digit-sum partition of a random block is exact: the
        report, read past the guaranteed degree as --check-beyond asks,
        matches brute-force power sums of the labelled classes."""
        p = rng.randint(2, 7)
        n = rng.randint(1, {2: 10, 3: 6, 4: 5, 5: 4, 6: 4, 7: 3}[p])
        params = PTMParams(p, n)
        args = build_parser().parse_args(
            ["partition", "--p", str(p), "--m", str(n - 1), "--check-beyond", str(n)]
        )
        _, result, ok = args.handler(args)
        assert ok
        assert result["esp_verified_through"] == n - 1
        assert result["first_violation"][0] == n
        classes = classes_by_label(params)
        sums = [[power_sum(cls, r) for cls in classes] for r in range(n + 1)]
        assert all(len(set(row)) == 1 for row in sums[:n]), (p, n)
        assert len(set(sums[n])) > 1, (p, n)
        report = verify_esp(params, n)
        assert report.power_sums == tuple(map(tuple, sums))
        first_differing = next(k for k, s in enumerate(sums[n]) if s != sums[n][0])
        assert report.first_violation == (n, 0, first_differing)


class TestCrossOracle:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (4, 1), (5, 1)])
    def test_indicator_vectors_match_direct_sums(self, p, m):
        # the weighted sum with entries +1 at j, -1 at k equals s_j - s_k
        params = PTMParams.from_degree(p, m)
        table = power_sum_table(params)
        for j in range(p):
            for k in range(j + 1, p):
                entries = [0] * p
                entries[j], entries[k] = 1, -1
                indicator = ZeroSumVector(entries)
                for exp in range(m + 1):
                    direct = table[exp][j] - table[exp][k]
                    assert weighted_power_sum(params, indicator, exp) == direct


class TestClassPowerSums:
    @random_cases
    def test_matches_partition_power_sums(self, rng):
        p = rng.randint(2, 5)
        m = rng.randint(0, {2: 6, 3: 4, 4: 3, 5: 2}[p])
        params = PTMParams.from_degree(p, m)
        classes = prouhet_partition(params)
        weights = [p**j for j in range(params.n)]
        through = m + rng.randint(1, 4)
        rows = itertools.islice(class_power_sums(p, weights), through + 1)
        for r, row in enumerate(rows):
            assert row == tuple(power_sum(cls, r) for cls in classes), (p, m, r)

    def test_first_rows_skip_zero_entries(self):
        # Row 0 before the first weight has one nonzero entry, so the first
        # rows of a single weight cost O(p), not p**2.
        start = time.perf_counter()
        rows = list(itertools.islice(class_power_sums(5000, (1,)), 2))
        assert time.perf_counter() - start < 0.5
        assert rows == [(1,) * 5000, tuple(range(5000))]

    def test_no_weights_is_the_single_value_zero(self):
        rows = list(itertools.islice(class_power_sums(3, []), 3))
        assert rows == [(1, 0, 0), (0, 0, 0), (0, 0, 0)]

    def test_table_and_check_read_the_rows(self):
        params = PTMParams.from_degree(3, 2)
        rows = list(itertools.islice(class_power_sums(3, [1, 3, 9]), 4))
        assert power_sum_table(params) == tuple(rows[:3])
        assert rows[3][0] != rows[3][1]  # so the check fails first at m = 3
        report = verify_esp(params, 10**9)
        assert report.first_violation == (3, 0, 1)
        assert report.power_sums == tuple(rows)  # no row read past the violation
