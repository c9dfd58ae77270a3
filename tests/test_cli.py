import gc
import json
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import prouhet.cli
import prouhet.factorization
import prouhet.lehmer
import prouhet.partition
import prouhet.sequence
from prouhet import (
    CyclotomicElement,
    DensePolynomial,
    LehmerSpec,
    PTMParams,
    ZeroSumForm,
    class_power_sums,
    lehmer_weighted_sum,
    product_identity_sides,
    ptm_block,
    ptm_term,
)
from prouhet.cli import _CHUNK, _json_pieces, main
from prouhet.factorization import division_columns
from prouhet.lehmer import lehmer_verify

SPEC_PARTITION_RESULT = {
    "p": 2,
    "m": 3,
    "classes": [[0, 3, 5, 6, 9, 10, 12, 15], [1, 2, 4, 7, 8, 11, 13, 14]],
    "power_sums": [["8", "8"], ["60", "60"], ["620", "620"], ["7200", "7200"]],
    "esp_verified_through": 3,
}


# stdout and exit code of every command in json, csv and plain, recorded
# byte for byte; json output is recorded without its wall-clock elapsed_ms.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code = main(command.split())
    out = re.sub(r', "elapsed_ms": [^,}]*\}$', "}", capsys.readouterr().out)
    assert (code, out) == (GOLDEN[command]["exit"], GOLDEN[command]["stdout"])


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    return code, envelope


def _inexact_division(params, columns):
    """division_columns on a block with its last coefficient raised by 1.
    At p = 2, n = 2, A = (1, -1), 1 - x - x^2 + 2x^3 is not a multiple of
    1 - x^2: the remainder is x^3, one integer column."""
    columns[0][-1] += 1
    return division_columns(params, columns)


class TestPtmCommand:
    def test_classical(self, capsys):
        code, envelope = run_json(capsys, ["ptm", "--p", "2", "--n", "3"])
        assert code == 0
        assert envelope["command"] == "ptm"
        assert envelope["result"]["sequence"] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_base_three(self, capsys):
        code, envelope = run_json(capsys, ["ptm", "--p", "3", "--n", "2"])
        assert code == 0
        assert envelope["result"]["sequence"] == [0, 1, 2, 1, 2, 0, 2, 0, 1]

    def test_plain_format(self, capsys):
        code = main(["ptm", "--p", "3", "--n", "1", "--format", "plain"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0,1,2"

    @pytest.mark.parametrize("p,n", [(2, 12), (2, 13), (3, 9)])
    def test_csv_rows_across_format_chunks(self, capsys, p, n):
        # One chunk exactly, two chunks, and a short last chunk.
        assert main(["ptm", "--p", str(p), "--n", str(n), "--format", "csv"]) == 0
        rows = [f"{i},{ptm_term(i, p)}" for i in range(p**n)]
        assert capsys.readouterr().out == "\n".join(["n,value"] + rows) + "\n"

    def test_invalid_base(self, capsys):
        code = main(["ptm", "--p", "1", "--n", "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_budget_exceeded(self, capsys):
        code = main(["ptm", "--p", "2", "--n", "30", "--budget", "1000000"])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_huge_exponent_rejected_before_building_the_power(self, capsys):
        start = time.perf_counter()
        code = main(["ptm", "--p", "3", "--n", "30000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "budget" in capsys.readouterr().err


class TestPartitionCommand:
    def test_golden_payload_matches_schema(self, capsys):
        code, envelope = run_json(capsys, ["partition", "--p", "2", "--m", "3"])
        assert code == 0
        assert envelope["result"] == SPEC_PARTITION_RESULT

    def test_singletons(self, capsys):
        code, envelope = run_json(capsys, ["partition", "--p", "3", "--m", "0"])
        assert code == 0
        assert envelope["result"]["classes"] == [[0], [1], [2]]
        assert envelope["result"]["power_sums"] == [["1", "1", "1"]]

    def test_check_beyond(self, capsys):
        code, envelope = run_json(
            capsys, ["partition", "--p", "3", "--m", "1", "--check-beyond", "2"]
        )
        assert code == 0  # agreement through the declared degree still holds
        result = envelope["result"]
        assert result["esp_verified_through"] == 1
        assert result["checked_through"] == 2
        assert result["first_violation"] == [2, 0, 2]

    def test_far_check_beyond_stops_at_first_violation(self, capsys):
        start = time.perf_counter()
        code, envelope = run_json(
            capsys, ["partition", "--p", "2", "--m", "3", "--check-beyond", "100000"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert envelope["result"]["checked_through"] == 100000
        assert envelope["result"]["first_violation"] == [4, 0, 1]

    def test_rejects_negative_check_beyond(self, capsys):
        code = main(["partition", "--p", "2", "--m", "2", "--check-beyond", "-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--check-beyond must be >= 0, got -3" in captured.err
        assert captured.out == ""

    def test_lists_the_classes_once_without_a_label_block(self, capsys, monkeypatch):
        lists, blocks = [], []
        weighted_classes = prouhet.partition.weighted_classes

        def counted_lists(p, weights):
            lists.append(weights)
            return weighted_classes(p, weights)

        def counted_block(params):
            blocks.append(params)
            return ptm_block(params)

        monkeypatch.setattr(prouhet.partition, "weighted_classes", counted_lists)
        for module in (prouhet.cli, prouhet.sequence):
            monkeypatch.setattr(module, "ptm_block", counted_block)
        code, envelope = run_json(
            capsys, ["partition", "--p", "3", "--m", "2", "--check-beyond", "5"]
        )
        assert code == 0
        assert lists == [(1, 3, 9)]
        assert blocks == []
        assert envelope["result"]["classes"][1] == [
            n for n in range(27) if prouhet.sequence.ptm_term(n, 3) == 1
        ]

    @pytest.mark.parametrize("extra", [[], ["--check-beyond", "5"]])
    def test_reads_the_power_sum_rows_once(self, capsys, monkeypatch, extra):
        calls = []

        def counted(p, weights):
            calls.append(weights)
            return class_power_sums(p, weights)

        monkeypatch.setattr(prouhet.partition, "class_power_sums", counted)
        code, envelope = run_json(capsys, ["partition", "--p", "3", "--m", "2", *extra])
        assert code == 0
        assert len(calls) == 1
        classes = envelope["result"]["classes"]
        assert envelope["result"]["power_sums"] == [
            [str(sum(n**m for n in cls)) for cls in classes] for m in range(3)
        ]

    def test_csv_format(self, capsys):
        code = main(["partition", "--p", "2", "--m", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "class,0,0,3"
        assert lines[1] == "class,1,1,2"
        assert lines[2] == "sum,0,2,2"
        assert lines[3] == "sum,1,3,3"
        assert lines[4] == "esp_verified_through,1"


class TestFactorCommand:
    def test_symbolic_golden(self, capsys):
        code, envelope = run_json(capsys, ["factor", "--p", "3", "--n", "2", "--symbolic"])
        assert code == 0
        result = envelope["result"]
        assert result["cofactor"] == [["1", "0"], ["1", "1"], ["0", "0"], ["1", "1"], ["0", "1"]]
        assert result["divisor"] == ["1", "-1", "0", "-1", "1"]
        assert result["product_check"] is True
        assert result["constructions_agree"] is True

    def test_alternating_gives_constant_one(self, capsys):
        code, envelope = run_json(
            capsys, ["factor", "--p", "2", "--n", "4", "--coeffs", "1,-1"]
        )
        assert code == 0
        assert envelope["result"]["cofactor"] == ["1"]

    def test_integer_example(self, capsys):
        code, envelope = run_json(
            capsys, ["factor", "--p", "3", "--n", "2", "--coeffs", "1,1,-2"]
        )
        assert code == 0
        assert envelope["result"]["cofactor"] == ["1", "2", "0", "2", "1"]

    def test_rejects_nonzero_sum_listing_it(self, capsys):
        code = main(["factor", "--p", "3", "--n", "2", "--coeffs", "1,1,1"])
        assert code == 2
        assert "sum 3" in capsys.readouterr().err

    def test_rejects_wrong_length(self, capsys):
        code = main(["factor", "--p", "3", "--n", "2", "--coeffs", "1,-1"])
        assert code == 2

    def test_rejects_non_integer_coeffs(self, capsys):
        code = main(["factor", "--p", "2", "--n", "2", "--coeffs", "1,x"])
        assert code == 2

    @pytest.mark.parametrize("vector", [["--symbolic"], ["--coeffs", "4,-7,3"]])
    def test_builds_the_label_block_once(self, capsys, monkeypatch, vector):
        calls = []

        def counted(params):
            calls.append(params)
            return ptm_block(params)

        for module in (prouhet.cli, prouhet.factorization):
            monkeypatch.setattr(module, "ptm_block", counted)
        code, envelope = run_json(capsys, ["factor", "--p", "3", "--n", "3", *vector])
        assert code == 0
        assert len(calls) == 1
        assert envelope["result"]["product_check"] is True
        assert envelope["result"]["constructions_agree"] is True

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize(
        "vector", [["--symbolic"], ["--coeffs", "4,-7,3"]], ids=["symbolic", "coeffs"]
    )
    def test_builds_no_ring_value(self, capsys, monkeypatch, vector, n):
        built = []

        def counted(original):
            def wrapper(self, *args):
                built.append(type(self).__name__)
                original(self, *args)
            return wrapper

        for cls in (CyclotomicElement, ZeroSumForm, DensePolynomial):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        code, envelope = run_json(capsys, ["factor", "--p", "3", "--n", str(n), *vector])
        assert code == 0
        assert built == []
        assert envelope["result"]["product_check"] is True
        assert envelope["result"]["constructions_agree"] is True

    def test_inexact_division_is_a_verification_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(prouhet.cli, "division_columns", _inexact_division)
        code = main(["factor", "--p", "2", "--n", "2", "--coeffs", "1,-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: division is not exact; remainder [[0, 0, 0, 1]]\n"
        assert captured.out == ""


class TestLehmerCommand:
    def test_base_powers_match_partition(self, capsys):
        code, envelope = run_json(capsys, ["lehmer", "--p", "2", "--mu", "1,2,4,8"])
        assert code == 0
        result = envelope["result"]
        values = [[pair[0] for pair in cls] for cls in result["classes"]]
        assert values == [
            ["0", "3", "5", "6", "9", "10", "12", "15"],
            ["1", "2", "4", "7", "8", "11", "13", "14"],
        ]
        assert result["equal_up_to"] == 3
        assert result["first_violation"] is None

    def test_multiplicities(self, capsys):
        code, envelope = run_json(capsys, ["lehmer", "--p", "2", "--mu", "1,1"])
        assert code == 0
        assert envelope["result"]["classes"] == [[["0", 1], ["2", 1]], [["1", 2]]]

    def test_p3_three_weights(self, capsys):
        code, envelope = run_json(capsys, ["lehmer", "--p", "3", "--mu", "3,7,11"])
        assert code == 0
        assert envelope["result"]["equal_up_to"] == 2
        assert envelope["result"]["first_violation"] is None

    def test_rejects_nonpositive_weight(self, capsys):
        code = main(["lehmer", "--p", "2", "--mu", "1,0"])
        assert code == 2

    def test_rejects_nonpositive_budget(self, capsys):
        code = main(["lehmer", "--p", "2", "--mu", "1", "--budget", "0"])
        assert code == 2
        assert "budget must be positive" in capsys.readouterr().err

    def test_over_budget_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["lehmer", "--p", "2", "--mu", ",".join(["1"] * 31)])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "block of 2**31 terms exceeds budget 10000000" in capsys.readouterr().err


class TestIdentitiesCommand:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 0), (5, 2)])
    def test_pass_cases(self, capsys, p, m):
        code, envelope = run_json(capsys, ["identities", "--p", str(p), "--m", str(m)])
        assert code == 0
        result = envelope["result"]
        assert result["all_pass"] is True
        assert result["first_mismatch"] is None
        assert result["first_nonvanishing"] is None

    def test_negative_degree_names_the_degree(self, capsys):
        code = main(["identities", "--p", "2", "--m", "-1"])
        assert code == 2
        assert "degree must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_csv(self, capsys):
        code = main(["identities", "--p", "2", "--m", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "product_identity,true",
            "weighted_sums_vanish,true",
            "all_pass,true",
        ]

    def test_changed_coordinate_is_the_first_mismatch(self, capsys, monkeypatch):
        def changed(params):
            lhs, rhs = product_identity_sides(params)
            lhs[1][40] += 5
            return lhs, rhs

        monkeypatch.setattr(prouhet.cli, "product_identity_sides", changed)
        code, envelope = run_json(capsys, ["identities", "--p", "3", "--m", "3"])
        assert code == 1
        lhs, rhs = product_identity_sides(PTMParams.from_degree(3, 3))
        result = envelope["result"]
        assert result["product_identity_holds"] is False
        assert result["first_mismatch"] == {
            "exponent": 40,
            "lhs": [str(lhs[0][40]), str(lhs[1][40] + 5)],
            "rhs": [str(rhs[0][40]), str(rhs[1][40])],
        }
        assert result["weighted_sums_vanish"] is True
        assert result["all_pass"] is False

    def test_mismatch_on_an_all_zero_row_names_every_coordinate(self, capsys, monkeypatch):
        def zeroed(params):
            lhs, rhs = product_identity_sides(params)
            for column in rhs:
                column[-1] = 0
            return lhs, rhs

        monkeypatch.setattr(prouhet.cli, "product_identity_sides", zeroed)
        code, envelope = run_json(capsys, ["identities", "--p", "3", "--m", "1"])
        assert code == 1
        # t(8) = 1, so the top coefficient is w = (0, 1); the zeroed row
        # still has one entry per coordinate.
        assert envelope["result"]["first_mismatch"] == {
            "exponent": 8, "lhs": ["0", "1"], "rhs": ["0", "0"],
        }

    @pytest.mark.parametrize("broken", [0, 2])
    def test_unequal_row_is_the_first_nonvanishing_sum(self, capsys, monkeypatch, broken):
        def rows(p, weights):
            for r, row in enumerate(class_power_sums(p, weights)):
                yield (row[0] + 7,) + row[1:] if r == broken else row

        for module in (prouhet.partition, prouhet.lehmer):
            monkeypatch.setattr(module, "class_power_sums", rows)
        code, envelope = run_json(capsys, ["identities", "--p", "4", "--m", "3"])
        assert code == 1
        expected = lehmer_weighted_sum(LehmerSpec.base_powers(4, 3), broken)
        result = envelope["result"]
        assert result["first_nonvanishing"] == {
            "m": broken,
            "value": [str(c) for c in expected.coeffs],
        }
        assert expected.coeffs[0] == 7
        assert result["weighted_sums_vanish"] is False
        assert result["product_identity_holds"] is True

    def test_work_is_on_integers_with_one_pass_of_rows(self, capsys, monkeypatch):
        created, row_passes = [], []
        init = CyclotomicElement.__init__

        def counted_init(self, *args):
            created.append(args[0])
            init(self, *args)

        def counted_rows(p, weights):
            row_passes.append(weights)
            return class_power_sums(p, weights)

        monkeypatch.setattr(CyclotomicElement, "__init__", counted_init)
        for module in (prouhet.partition, prouhet.lehmer):
            monkeypatch.setattr(module, "class_power_sums", counted_rows)
        counts = {}
        for m in (1, 6):
            created.clear()
            row_passes.clear()
            assert main(["identities", "--p", "3", "--m", str(m)]) == 0
            counts[m] = len(created)
            assert len(row_passes) == 1
        # 3**7 block coefficients at m = 6, but no ring element per coefficient.
        assert counts[6] == counts[1]

    @pytest.mark.parametrize("m", [0, 4])
    def test_one_params_and_no_ring_element_per_job(self, capsys, monkeypatch, m):
        built = []

        def counted(original):
            def wrapper(self, *args):
                built.append(type(self).__name__)
                original(self, *args)
            return wrapper

        for cls in (CyclotomicElement, ZeroSumForm):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        new_params = PTMParams.__new__

        def counted_new(cls, *args):
            built.append(cls.__name__)
            return new_params(cls, *args)

        monkeypatch.setattr(PTMParams, "__new__", counted_new)
        assert main(["identities", "--p", "3", "--m", str(m)]) == 0
        assert built == ["PTMParams"]
        assert json.loads(capsys.readouterr().out)["result"]["all_pass"] is True


# A lehmer job listing 3**9 = 19,683 digit tuples, whose values are distinct.
LEHMER_9 = ["lehmer", "--p", "3", "--mu", ",".join(str(10**6 * 3**j + j + 1) for j in range(9))]


# (argv, exit code) of each error a job reports by its exit code; exit 1
# needs division_columns patched to _inexact_division.
ERROR_EXITS = [
    (["factor", "--p", "2", "--n", "2", "--coeffs", "1,-1"], 1),
    (["ptm", "--p", "1", "--n", "3"], 2),
    (["lehmer", "--p", "2", "--mu", "1,0"], 2),
    (["ptm", "--p", "2", "--n", "30", "--budget", "1000000"], 3),
]

ONE_JOB_PER_COMMAND = [
    ["ptm", "--p", "3", "--n", "4"],
    ["partition", "--p", "3", "--m", "2", "--check-beyond", "3"],
    ["factor", "--p", "3", "--n", "3", "--symbolic"],
    ["factor", "--p", "3", "--n", "3", "--coeffs", "1,1,-2"],
    ["lehmer", "--p", "3", "--mu", "2,5,7"],
    ["identities", "--p", "3", "--m", "2"],
]


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as it was, whatever a test set."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """main runs each job with the cyclic garbage collector paused."""

    def test_lehmer_job_starts_no_collection(self, capsys, collector_state):
        gc.enable()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()  # parse_args runs before the pause: start it from empty counts
        gc.callbacks.append(count)
        try:
            code = main(LEHMER_9)
        finally:
            gc.callbacks.remove(count)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["equal_up_to"] == 8
        assert starts == []

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv,exit_code", [
        (["ptm", "--p", "2", "--n", "3"], 0), *ERROR_EXITS,
    ])
    def test_restores_the_collector_state(
        self, capsys, monkeypatch, collector_state, enabled, argv, exit_code
    ):
        monkeypatch.setattr(prouhet.cli, "division_columns", _inexact_division)
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == exit_code
        assert gc.isenabled() is enabled

    def test_restores_the_collector_state_when_a_job_raises(
        self, monkeypatch, collector_state
    ):
        def broken(*args):
            raise RuntimeError("bug")

        monkeypatch.setattr(prouhet.cli, "_emit", broken)
        gc.enable()
        with pytest.raises(RuntimeError):
            main(["ptm", "--p", "2", "--n", "3"])
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", ["on", "off"])
    def test_restores_the_collector_state_after_a_closed_pipe(self, enabled):
        # As in TestHarness: the reader closes stdout after one line of csv.
        src = Path(prouhet.cli.__file__).resolve().parents[1]
        code = (
            "import gc, sys; sys.path.insert(0, sys.argv[1]); from prouhet.cli import main; "
            "sys.argv[2] == 'on' or gc.disable(); "
            "code = main(['ptm', '--p', '2', '--n', '18', '--format', 'csv']); "
            "print(code, gc.isenabled(), file=sys.stderr)"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(src), enabled],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"n,value\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert stderr.split() == [b"141", b"True" if enabled == "on" else b"False"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("argv", ONE_JOB_PER_COMMAND, ids=" ".join)
    def test_a_job_leaves_no_cyclic_garbage(self, capsys, collector_state, argv, fmt):
        # The pause is safe because refcounting alone frees what a job makes.
        argv = argv + ["--format", fmt]
        assert main(argv) == 0  # warm-up: caches such as the parser fill here
        gc.disable()
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0

    @pytest.mark.parametrize("argv,exit_code", ERROR_EXITS)
    def test_an_error_exit_leaves_no_cyclic_garbage(
        self, capsys, monkeypatch, collector_state, argv, exit_code
    ):
        monkeypatch.setattr(prouhet.cli, "division_columns", _inexact_division)
        assert main(argv) == exit_code
        gc.disable()
        gc.collect()
        assert main(argv) == exit_code
        assert gc.collect() == 0


def traced_peak(call):
    """call's result and the most memory it had traced at once, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestOneCopyAtATime:
    """A job holds one listing at a time, and long JSON arrays are encoded
    a chunk at a time."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_lehmer_job_peaks_near_its_check(self, capsys, fmt):
        # The check's listing is freed before the payload's is made, and
        # the payload becomes text a class at a time.  On Python 3.11 this
        # reads 1.10-1.19 of the check's peak; holding both listings read
        # 1.70-2.07, so the bound sits between the two.
        argv = LEHMER_9 + ["--format", fmt]
        assert main(argv) == 0  # warm-up: caches such as the parser fill here
        capsys.readouterr()
        spec = LehmerSpec(3, [int(w) for w in LEHMER_9[-1].split(",")])
        report, check_peak = traced_peak(lambda: lehmer_verify(spec))
        assert report.equal_up_to == 8
        code, job_peak = traced_peak(lambda: main(argv))
        assert code == 0 and capsys.readouterr().out
        assert job_peak <= 1.45 * check_peak

    def test_ptm_json_job_peaks_near_its_block_and_output(self, capsys):
        # One json.dumps call on the whole block held a string per term:
        # about 4 MB for this job, 5.3 times its block and output.  Chunked,
        # it reads 1.2 times on Python 3.11.
        argv = ["ptm", "--p", "2", "--n", "16"]
        assert main(argv) == 0
        capsys.readouterr()
        code, peak = traced_peak(lambda: main(argv))
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out)["result"]["sequence"][:4] == [0, 1, 1, 0]
        assert peak <= 2.5 * (sys.getsizeof(ptm_block(PTMParams(2, 16))) + len(out))

    @pytest.mark.parametrize("argv", [
        ["ptm", "--p", "3", "--n", "8"],
        ["partition", "--p", "2", "--m", "12"],
        ["lehmer", "--p", "2", "--mu", ",".join(str(3**j) for j in range(13))],
    ], ids=" ".join)
    def test_chunked_envelopes_are_json_dumps_text(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize("argv", [
        ["identities", "--p", "3", "--m", "4"],
        ["factor", "--p", "2", "--n", "9", "--symbolic"],
    ], ids=" ".join)
    def test_short_envelopes_take_one_json_dumps_call(self, capsys, monkeypatch, argv):
        calls = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        assert main(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == dumps(calls[0][0]) + "\n"


def _pairs(k):
    return [[str(10**12 + 7 * i), i % 3 + 1] for i in range(k)]


class TestJsonPieces:
    @pytest.mark.parametrize("value", [
        [],
        list(range(_CHUNK)),
        list(range(_CHUNK + 1)),
        tuple(tuple(range(k, 3 * _CHUNK + k)) for k in range(3)),
        [_pairs(_CHUNK + 1 + k) for k in range(3)],
        {"p": 3, "classes": [_pairs(2 * _CHUNK) for _ in range(3)], "esc": ["a\"b", "\u00e9"],
         "\u00e9 \"key\"": list(range(_CHUNK + 2)), "none": None, "empty": {}},
    ], ids=["empty", "one chunk", "one chunk and one", "tuple of tuples", "lists of pairs",
            "dict"])
    def test_gives_the_bytes_of_json_dumps(self, monkeypatch, value):
        lengths = []
        dumps = json.dumps

        def counted(obj, **kwargs):
            lengths.append(len(obj) if isinstance(obj, (list, tuple)) else 0)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        assert "".join(_json_pieces(value)) == dumps(value)
        assert max(lengths) <= _CHUNK  # no call encodes a whole long array


class TestColdStart:
    def test_parser_loads_no_annotation_machinery(self):
        # -S skips the site module, whose .pth files may import typing on
        # their own; src goes on sys.path by hand instead.
        src = Path(prouhet.cli.__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import prouhet.cli; "
            "prouhet.cli.build_parser(); "
            "print(*sorted({'dataclasses', 'inspect', 'typing', '__future__'} & set(sys.modules)))"
        )
        run = subprocess.run(
            [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == []

    def test_parser_adds_only_the_package_to_its_standard_modules(self):
        # The baseline is what this interpreter loads for the standard
        # modules cli.py imports and for one parser with a subcommand, so
        # the test holds across Python versions; any other import fails it.
        src = Path(prouhet.cli.__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import argparse, collections, functools, gc, itertools, json, operator, os, time; "
            "argparse.ArgumentParser().add_subparsers().add_parser('x'); "
            "before = set(sys.modules); import prouhet.cli; prouhet.cli.build_parser(); "
            "print(*sorted(set(sys.modules) - before))"
        )
        run = subprocess.run(
            [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        package = ["cli", "factorization", "lehmer", "partition", "rings", "sequence"]
        assert run.stdout.split() == ["prouhet"] + [f"prouhet.{name}" for name in package]


class TestHarness:
    def test_deterministic_payload(self, capsys):
        _, first = run_json(capsys, ["partition", "--p", "3", "--m", "2"])
        _, second = run_json(capsys, ["partition", "--p", "3", "--m", "2"])
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second

    def test_envelope_fields(self, capsys):
        _, envelope = run_json(capsys, ["ptm", "--p", "2", "--n", "2"])
        assert set(envelope) == {"command", "params", "result", "elapsed_ms"}
        assert envelope["params"]["budget"] == 10**7

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["ptm", "--p", "2"])
        assert err.value.code == 2

    def test_repeated_calls_build_the_parser_once(self, capsys):
        prouhet.cli._parser.cache_clear()
        for _ in range(3):
            assert main(["ptm", "--p", "2", "--n", "2"]) == 0
        assert prouhet.cli._parser.cache_info().misses == 1

    def test_usage_errors_leave_the_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["factor", "--p", "2", "--n", "2", "--coeffs", "1,-1", "--symbolic"])
        assert err.value.code == 2
        assert main(["ptm", "--p", "1", "--n", "3", "--format", "csv"]) == 2
        capsys.readouterr()
        assert main(["ptm", "--p", "2", "--n", "3"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["params"]["format"] == "json"
        assert envelope["result"]["sequence"] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_closed_stdout_pipe_exits_141_quietly(self):
        # About 2.4 MB of csv, more than a pipe buffers, so the command is
        # still writing when the reader closes its end after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "prouhet", "ptm", "--p", "2", "--n", "18", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"n,value\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert stderr == b""

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prouhet", "ptm", "--p", "2", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        envelope = json.loads(proc.stdout)
        assert envelope["result"]["sequence"] == [0, 1, 1, 0, 1, 0, 0, 1]
