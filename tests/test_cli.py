import contextlib
import errno
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import unittest.mock
from collections import Counter
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
    ptm_block_recursive,
    ptm_term,
)
from prouhet.sequence import ptm_halves
from prouhet.cli import _CHUNK, _json_pieces, main
from prouhet.factorization import division_columns
from prouhet.lehmer import lehmer_expand

from oracles import off_by_one_expand, product_value_lists
from randomized import random_cases

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


class _PieceRecorder(io.StringIO):
    """A stdout that keeps the pieces of its last writelines call."""

    def writelines(self, pieces):
        self.pieces = list(pieces)
        super().writelines(self.pieces)


def written_pieces(argv):
    """The pieces main(argv) writes, which must exit 0."""
    with contextlib.redirect_stdout(_PieceRecorder()) as out:
        assert main(argv) == 0
    return out.pieces


def without_elapsed(pieces):
    """The text of pieces, without a JSON envelope's elapsed_ms."""
    return re.sub(r', "elapsed_ms": [^,}]*\}$', "}", "".join(pieces))


def ptm_pieces(p, n, fmt):
    return written_pieces(["ptm", "--p", str(p), "--n", str(n), "--format", fmt])


def ptm_output(p, n, fmt):
    """stdout of `ptm` in fmt, without the JSON envelope's elapsed_ms."""
    return without_elapsed(ptm_pieces(p, n, fmt))


def most_terms_per_piece(pieces, fmt):
    """The most terms (csv: rows) that one piece of `ptm`'s sequence holds;
    in JSON, the sequence's pieces run from its key to its closing bracket."""
    if fmt == "json":
        start = pieces.index(', "sequence": ') + 1
        pieces = pieces[start:pieces.index("]", start)]
    return max(len(re.findall(r"\d+,\d+\n" if fmt == "csv" else r"\d+", piece))
               for piece in pieces)


def ptm_text(p, n, fmt):
    """What ptm_output should read, made term by term from the paper's
    paired construction, ptm_block_recursive."""
    block = ptm_block_recursive(PTMParams(p, n))
    if fmt == "csv":
        return "n,value\n" + "".join(f"{i},{t}\n" for i, t in enumerate(block))
    if fmt == "plain":
        return ",".join(map(str, block)) + "\n"
    params = {"p": p, "n": n, "format": fmt, "budget": 10**7}
    result = {"p": p, "n": n, "sequence": block}
    return json.dumps({"command": "ptm", "params": params, "result": result}) + "\n"


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

    # n = 1; p on both sides of _CHUNK, so the low block is the whole
    # block or a single term; odd and even n; lengths that are and are not
    # multiples of 1000 (a csv piece) and of _CHUNK; low blocks that fill a
    # chunk once (p = 2, 3, 45) or leave room for many copies (p = 46).
    @pytest.mark.parametrize("p,n", [
        (2, 1), (2, 2), (2, 3), (2, 10), (2, 11), (2, 12), (2, 13), (2, 17), (3, 1), (3, 7),
        (3, 8), (5, 6), (7, 4), (10, 3), (10, 4), (10, 5), (45, 2), (46, 2), (1000, 1),
        (2048, 1), (2049, 1),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_output_is_the_recursive_blocks_text(self, p, n, fmt):
        assert ptm_output(p, n, fmt) == ptm_text(p, n, fmt)

    # With a chunk of 8 terms, small blocks take both ways of writing: low
    # blocks that fit a chunk (p <= 8), and, for p > 8, copies longer than
    # a chunk, cut into chunks, with values that recur (n > 1) or not
    # (n = 1).  A piece holds at most a chunk of terms, or a thousand csv
    # rows.
    @pytest.mark.parametrize("p,n", [
        (2, 3), (2, 4), (2, 7), (3, 2), (3, 5), (8, 1), (8, 2), (9, 1), (9, 2), (9, 4),
        (11, 3), (12, 2), (1001, 1), (1001, 2),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_small_chunk_output_is_the_recursive_blocks_text(self, monkeypatch, p, n, fmt):
        monkeypatch.setattr(prouhet.cli, "_CHUNK", 8)
        pieces = ptm_pieces(p, n, fmt)
        assert without_elapsed(pieces) == ptm_text(p, n, fmt)
        assert most_terms_per_piece(pieces, fmt) <= (1000 if fmt == "csv" else 8)

    @random_cases
    def test_random_output_is_the_recursive_blocks_text(self, rng):
        p = rng.choice([rng.randint(2, 12), rng.randint(13, 2100)])
        n = 1
        while p ** (n + 1) <= 6000:
            n += 1
        n = rng.randint(1, n)
        chunk = rng.choice([4, 16, _CHUNK])
        with unittest.mock.patch.object(prouhet.cli, "_CHUNK", chunk):
            for fmt in ("json", "csv", "plain"):
                pieces = ptm_pieces(p, n, fmt)
                assert without_elapsed(pieces) == ptm_text(p, n, fmt), (p, n, chunk, fmt)
                assert most_terms_per_piece(pieces, fmt) <= (1000 if fmt == "csv" else chunk)

    @pytest.mark.parametrize("p,n", [
        (2, 1), (2, 16), (3, 10), (45, 2), (46, 2), (2048, 1), (2049, 1), (2049, 2), (10**6, 1),
    ])
    def test_copies_made_hold_at_most_the_block(self, monkeypatch, p, n):
        # Each copy of the low block is made by one rotation of the p
        # digits and one pass over the low block, so the terms of the
        # copies made bound a job's work.  A copy per shift for p > _CHUNK
        # (p one-term copies, each from a p-term rotation) took p**2 steps.
        made = []

        def counted_halves(params, b):
            shifted, high = ptm_halves(params, b)

            def counted(t):
                copy = shifted(t)
                made.append(len(copy))
                return copy
            return counted, high

        monkeypatch.setattr(prouhet.cli, "ptm_halves", counted_halves)
        for fmt in ("json", "csv", "plain"):
            made.clear()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["ptm", "--p", str(p), "--n", str(n), "--format", fmt]) == 0
            assert out.getvalue() and 0 < sum(made) <= p**n, fmt

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

    def test_unequal_row_below_m_exits_1_with_its_rows(self, capsys, monkeypatch):
        def rows(p, weights):
            for r, row in enumerate(class_power_sums(p, weights)):
                yield (row[0] + 7,) + row[1:] if r == 1 else row

        monkeypatch.setattr(prouhet.partition, "class_power_sums", rows)
        code, envelope = run_json(capsys, ["partition", "--p", "2", "--m", "3"])
        assert code == 1
        result = envelope["result"]
        assert result["power_sums"] == [["8", "8"], ["67", "60"]]
        assert result["esp_verified_through"] == 0

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

    # ZeroSumVector and factorization.vector_columns check the vector.
    @pytest.mark.parametrize("coeffs,message", [
        ("1,-1", "vector length 2 does not match base 3"),
        ("0", "a zero-sum vector needs at least two entries"),
        ("1,1,1", "entries must sum to zero, got sum 3"),
    ], ids=["wrong length", "one entry", "nonzero sum"])
    def test_rejects_a_bad_vector_in_one_line(self, capsys, coeffs, message):
        assert main(["factor", "--p", "3", "--n", "2", "--coeffs", coeffs]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    # Each text line is written a chunk of cells at a time, as a class line
    # is, in the bytes of a line joined at once.
    @pytest.mark.parametrize("vector", [["--p", "2", "--n", "6", "--coeffs=3,-3"],
                                        ["--p", "3", "--n", "3", "--symbolic"]])
    @pytest.mark.parametrize("fmt", ["csv", "plain"])
    def test_text_lines_are_cut_into_chunks(self, monkeypatch, vector, fmt):
        argv = ["factor", *vector, "--format", fmt]
        whole = "".join(written_pieces(argv))
        monkeypatch.setattr(prouhet.cli, "_CHUNK", 8)
        pieces = written_pieces(argv)
        assert "".join(pieces) == whole
        cell = r"-?\d+(?:;-?\d+)*" if fmt == "csv" else r"-?\d+(?:,-?\d+)*"
        assert max(len(re.findall(cell, piece)) for piece in pieces) == 8

    def test_inexact_division_is_a_verification_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(prouhet.cli, "division_columns", _inexact_division)
        code = main(["factor", "--p", "2", "--n", "2", "--coeffs", "1,-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: division is not exact; remainder [[0, 0, 0, 1]]\n"
        assert captured.out == ""


def lehmer_output(p, mu, fmt):
    """stdout of `lehmer` in fmt, without the JSON envelope's elapsed_ms."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["lehmer", "--p", str(p), "--mu", ",".join(map(str, mu)), "--format", fmt]) == 0
    return re.sub(r', "elapsed_ms": [^,}]*\}$', "}", out.getvalue())


def lehmer_text(p, mu, fmt):
    """What lehmer_output should read, made from the value lists of
    itertools.product, counted by a Counter; a JSON cell is the text of
    [str(value), mult]."""
    classes = [sorted(Counter(values).items()) for values in product_value_lists(p, mu)]
    sums = [[str(sum(v**m * c for v, c in cls)) for cls in classes] for m in range(len(mu))]
    assert all(len(set(row)) == 1 for row in sums)  # the theorem: equal through degree M
    degree = len(mu) - 1
    if fmt == "csv":
        return ("".join(f"class,{k}," + ",".join(f"{v}:{c}" for v, c in cls) + "\n"
                        for k, cls in enumerate(classes))
                + "".join(f"sum,{m},{','.join(row)}\n" for m, row in enumerate(sums))
                + f"equal_up_to,{degree}\nfirst_violation,none\n")
    if fmt == "plain":
        return ("".join(f"class {k}: " + ", ".join(str(v) if c == 1 else f"{v} (x{c})"
                                                    for v, c in cls) + "\n"
                        for k, cls in enumerate(classes))
                + "".join(f"m={m}: {' '.join(row)}\n" for m, row in enumerate(sums))
                + f"equal power sums through degree {degree}\n")
    params = {"p": p, "mu": ",".join(map(str, mu)), "format": fmt, "budget": 10**7}
    result = {"p": p, "mu": list(mu), "classes": [[[str(v), c] for v, c in cls] for cls in classes],
              "power_sums": sums, "equal_up_to": degree, "first_violation": None}
    return json.dumps({"command": "lehmer", "params": params, "result": result}) + "\n"


# (p, weights) of the `lehmer` byte grid: classes shorter than a chunk,
# with and without repeats; classes longer than one chunk, repeat-free
# (weights 3**j) and with multiplicities 2 (the weight 1 twice); weights of
# 41 digits; bases 11 and 12.  Every class 0 holds the value 0.
LEHMER_GRID = [
    (3, (1, 1, 2)),
    (3, (2, 5, 7)),
    (2, tuple(3**j for j in range(13))),
    (2, (*(3**j for j in range(12)), 1)),
    (3, (10**40 + 3, 2 * 10**40 + 1, 7 * 10**41)),
    (2, (10**40, 10**40, 3 * 10**40 + 1, 1)),
    (11, (1, 11)),
    (12, (2, 3, 5)),
]


class TestLehmerCommand:
    @pytest.mark.parametrize("p,mu", LEHMER_GRID)
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_output_is_the_counted_product_lists_text(self, p, mu, fmt):
        assert lehmer_output(p, mu, fmt) == lehmer_text(p, mu, fmt)

    def test_grid_holds_every_kind_of_class(self):
        # (longer than a chunk, holds a repeat) for each class of the grid
        kinds = {(len(set(values)) > _CHUNK, len(set(values)) < len(values))
                 for p, mu in LEHMER_GRID for values in product_value_lists(p, mu)}
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

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

    # A listing whose count (degree 0) or plain sum (degree 1) disagrees with
    # its class_power_sums row is a bug: one error line, no payload.  A single
    # weight (M = 0) ties row 1 all the same.
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("mu", ["1,2,4", "5"])
    @pytest.mark.parametrize("degree", [0, 1])
    def test_listing_off_its_rows_exits_1_with_one_line(self, capsys, monkeypatch, fmt, mu,
                                                         degree):
        monkeypatch.setattr(prouhet.lehmer, "lehmer_expand", off_by_one_expand(degree))
        code = main(["lehmer", "--p", "3", "--mu", mu, "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert re.fullmatch(
            rf"error: class 2 of the listing has degree-{degree} power sum \d+, "
            r"but class_power_sums gives \d+\n",
            captured.err,
        )

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
        expected = lehmer_weighted_sum(LehmerSpec(4, (1, 4, 16, 64)), broken)
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


class TestCoordinateCellBudget:
    """`factor --symbolic` and `identities` build p - 1 integer columns of
    p**n cells each, and count every cell against --budget before listing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--p", "4000", "--n", "1", "--symbolic"],
            ["identities", "--p", "4000", "--m", "0"],
        ],
    )
    def test_oversized_base_exits_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: 15996000 coordinate cells of 4000**1 terms exceed budget 10000000\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["factor", "--p", "3", "--n", "2", "--symbolic"], ["identities", "--p", "3", "--m", "1"]],
    )
    def test_budget_boundary_is_the_cell_count(self, capsys, argv):
        assert main(argv + ["--budget", "17"]) == 3  # 2 columns of 3**2 terms
        assert "18 coordinate cells of 3**2 terms exceed budget 17" in capsys.readouterr().err
        assert main(argv + ["--budget", "18"]) == 0

    def test_integer_coeffs_are_one_column(self, capsys):
        assert main(["factor", "--p", "3", "--n", "2", "--coeffs", "1,1,-2", "--budget", "9"]) == 0

    def test_a_thousand_classes_still_fit(self, capsys):
        code, envelope = run_json(capsys, ["identities", "--p", "1000", "--m", "0"])
        assert code == 0
        assert envelope["result"]["all_pass"] is True


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


# A lehmer job whose middle weight has 3001 digits: its degree-2 power sums
# have 6001, past Python's default limit of 4300 on int-to-str digits.
BIG_WEIGHTS = (1, 10**3000, 3)
LEHMER_BIG = ["lehmer", "--p", "2", "--mu", ",".join(map(str, BIG_WEIGHTS))]


@contextlib.contextmanager
def int_digit_limit(digits):
    """Sets the limit on int-to-str digits, and puts the old one back."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestDigitLimit:
    """main lifts the limit on int-to-str digits for the job."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_big_power_sums_print_in_full(self, capsys, fmt):
        with int_digit_limit(4300):  # Python's default
            code = main(LEHMER_BIG + ["--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "json":
            sums = json.loads(out)["result"]["power_sums"]
        elif fmt == "csv":
            sums = [line.split(",")[2:] for line in out.splitlines() if line.startswith("sum,")]
        else:
            sums = [line.split(": ")[1].split(" ") for line in out.splitlines()
                    if line.startswith("m=")]
        with int_digit_limit(0):
            rows = itertools.islice(class_power_sums(2, BIG_WEIGHTS), 3)
            assert sums == [[str(s) for s in row] for row in rows]
        assert len(sums[2][0]) == 6001

    @pytest.mark.parametrize("limit", [640, 4300])
    @pytest.mark.parametrize("argv,exit_code", [
        (["ptm", "--p", "2", "--n", "3"], 0), *ERROR_EXITS,
    ])
    def test_restores_the_callers_limit(self, capsys, monkeypatch, limit, argv, exit_code):
        monkeypatch.setattr(prouhet.cli, "division_columns", _inexact_division)
        run, seen = prouhet.cli._run, []

        def spy(args):
            seen.append(sys.get_int_max_str_digits())
            return run(args)

        monkeypatch.setattr(prouhet.cli, "_run", spy)
        with int_digit_limit(limit):
            assert main(argv) == exit_code
            assert sys.get_int_max_str_digits() == limit
        assert seen == [0]


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
        # reads 1.34-1.46 of a lone payload listing.  Holding both listings
        # at once reads 1.86 (listing the payload before the check) to
        # 2.53 (the code before the check ran first), so the bound sits
        # between the two.
        argv = LEHMER_9 + ["--format", fmt]
        assert main(argv) == 0  # warm-up: caches such as the parser fill here
        capsys.readouterr()
        spec = LehmerSpec(3, [int(w) for w in LEHMER_9[-1].split(",")])
        classes, listing_peak = traced_peak(lambda: lehmer_expand(spec))
        assert sum(mult for cls in classes for _, mult in cls) == 3**9
        del classes
        code, job_peak = traced_peak(lambda: main(argv))
        assert code == 0 and capsys.readouterr().out
        assert job_peak <= 1.65 * listing_peak

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_lehmer_job_holds_one_listing_beside_its_output(self, fmt):
        # The payload is lehmer_expand's own int pairs, written a chunk at
        # a time, so beside the bytes it wrote a job holds about one
        # retained listing.  On Python 3.11 this reads 1.10-1.12 of it; a
        # (str(value), mult) tuple per pair, made before writing, read
        # 1.45-1.51.
        argv = LEHMER_9 + ["--format", fmt]
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")):
            assert main(argv) == 0  # warm-up: caches such as the parser fill here
        spec = LehmerSpec(3, [int(w) for w in LEHMER_9[-1].split(",")])
        tracemalloc.start()
        try:
            classes = lehmer_expand(spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(mult for cls in classes for _, mult in cls) == 3**9
        del classes
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code, peak = traced_peak(lambda: main(argv))
        size = len(out.buffer.getvalue())
        assert code == 0 and size
        assert peak - size <= 1.4 * retained, (peak - size) / retained

    def test_ptm_json_job_peaks_near_its_block_and_output(self, capsys):
        # One json.dumps call on the whole block held a string per term:
        # about 4 MB for this job, 5.3 times its block and output.  Chunked,
        # it read 1.2 times on Python 3.11; written from its half-blocks,
        # with no block listed, it reads 0.3 times.
        argv = ["ptm", "--p", "2", "--n", "16"]
        assert main(argv) == 0
        capsys.readouterr()
        code, peak = traced_peak(lambda: main(argv))
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out)["result"]["sequence"][:4] == [0, 1, 1, 0]
        assert peak <= 2.5 * (sys.getsizeof(ptm_block(PTMParams(2, 16))) + len(out))

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_ptm_job_peaks_near_its_output(self, fmt):
        # The block is written from its two half-blocks and never listed,
        # so the job holds little beside the bytes it wrote.  On Python
        # 3.11 this reads 0.3-1.3 MB over the output; listing the block's
        # 2**20 terms read about 8.7 MB over it in every format.
        argv = ["ptm", "--p", "2", "--n", "20", "--format", fmt]
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")):
            assert main(argv) == 0  # warm-up: caches such as the parser fill here
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code, peak = traced_peak(lambda: main(argv))
        size = len(out.buffer.getvalue())
        assert code == 0 and size >= 2**21
        assert peak <= size + 3 * 10**6, (peak - size) / 1e6

    @pytest.mark.parametrize("argv", [
        ["partition", "--p", "2", "--m", "15", "--format", "csv"],
        ["partition", "--p", "2", "--m", "15", "--format", "plain"],
        ["ptm", "--p", "2", "--n", "18", "--format", "plain"],
    ], ids=" ".join)
    def test_text_job_peaks_near_its_json_job(self, argv):
        # A csv or plain class line joins its cells a chunk at a time, as
        # JSON encodes them, so a text job also holds about one copy of its
        # data.  stdout is a StringIO, as the benchmark and CI capture it,
        # which keeps each written str and encodes nothing.  On Python 3.11
        # these read 1.03-1.05 of the JSON job of the same argv (`ptm`
        # plain 0.68, its output being shorter); a str per cell of a whole
        # class or block at once read 1.58-1.62.  `ptm` csv is left out: its
        # output alone is 2.8 times the JSON text.
        peaks = []
        for run in (argv[:-2], argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(run) == 0  # warm-up: caches such as the parser fill here
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code, peak = traced_peak(lambda: main(run))
            assert code == 0 and out.getvalue()
            peaks.append(peak)
        json_peak, text_peak = peaks
        assert text_peak <= 1.15 * json_peak, text_peak / json_peak

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_wide_one_digit_block_holds_its_values_once(self, fmt):
        # For p > _CHUNK and n = 1 the block is one copy, 0, ..., p-1,
        # written a chunk at a time: the job holds its p values, as a lone
        # list(range(p)) does, beside the bytes it wrote, and no text per
        # value.  On Python 3.11 this reads 1.05 times the lone list over
        # the output; a table of the p values' texts read 2.56.
        p = 10**5
        values, values_peak = traced_peak(lambda: list(range(p)))
        del values
        argv = ["ptm", "--p", str(p), "--n", "1", "--format", fmt]
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code, peak = traced_peak(lambda: main(argv))
        size = len(out.buffer.getvalue())
        assert code == 0 and size > 5 * p
        assert peak <= size + 1.1 * values_peak, (peak - size) / values_peak

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    @pytest.mark.parametrize("p", [2049, 2048])
    def test_wide_two_digit_block_is_never_listed(self, p, fmt):
        # For p > _CHUNK each copy of the low block is made for its high
        # term and written a chunk at a time.  On Python 3.11 this reads
        # 0.8-0.9 MB over the output; listing the 2049**2 terms read 35.5.
        # At p = 2048 a copy fits a chunk, but no shift recurs in a high
        # block of p terms, so each copy's text is made as it is written:
        # 0.8-1.1 MB over the output, where a text per shift made up front
        # read 18.6-22.9 MB.
        argv = ["ptm", "--p", str(p), "--n", "2", "--format", fmt]
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code, peak = traced_peak(lambda: main(argv))
        size = len(out.buffer.getvalue())
        assert code == 0 and size > p**2
        assert peak <= size + 3 * 10**6, (peak - size) / 1e6

    @pytest.mark.parametrize("argv", [
        ["partition", "--p", "2", "--m", "15", "--format", "csv"],
        ["partition", "--p", "2", "--m", "15", "--format", "plain"],
        ["ptm", "--p", "2", "--n", "18", "--format", "plain"],
    ], ids=" ".join)
    def test_encoded_text_job_peaks_near_its_json_job(self, argv):
        # stdout is a TextIOWrapper over a BytesIO, which encodes each
        # written str into bytes as a real stdout does, so a line written in
        # one piece would be held once more as bytes.  Every format is
        # written a chunk at a time, so on Python 3.11 these read 0.87-0.97
        # of the JSON job of the same argv (`ptm` plain 0.64, as no format
        # lists its block); a whole class line or `ptm`
        # plain line per write read 1.10-1.17.  `ptm` csv is left out: its
        # output alone is larger than the JSON text.
        peaks = []
        for run in (argv[:-2], argv):
            with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")):
                assert main(run) == 0  # warm-up: caches such as the parser fill here
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(out):
                code, peak = traced_peak(lambda: main(run))
            assert code == 0 and out.buffer.getvalue()
            peaks.append(peak)
        json_peak, text_peak = peaks
        assert text_peak <= 1.05 * json_peak, text_peak / json_peak

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

    @pytest.mark.parametrize("args,code,stderr", [
        (["ptm", "--p", "2", "--n", "3"], 74, "error: cannot write output: stdout is closed\n"),
        (["ptm", "--p", "1", "--n", "3"], 2, "error: base p must be an integer >= 2, got 1\n"),
    ], ids=["output", "validation"])
    def test_stdout_closed_at_start(self, args, code, stderr):
        # `>&-` starts the process with fd 1 closed, so sys.stdout is None:
        # a job with output exits 74 before its first write, and an error
        # exit keeps its own code.
        proc = subprocess.run(
            ["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "prouhet", *args],
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (code, stderr)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_failed_write_exits_74_with_one_line(self, fmt, n):
        # /dev/full refuses every write: a short output fails at the final
        # flush, a long one (about 0.5 MB of csv at n = 16) mid-way.
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "prouhet", "ptm", "--p", "2", "--n", str(n),
                 "--format", fmt],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        reason = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert proc.returncode == 74
        assert proc.stderr == f"error: cannot write output: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args,stdout_full,code", [
        (["ptm", "--p", "1", "--n", "3"], False, 2),  # validation error
        (["ptm", "--p", "2"], False, 2),  # argparse's own usage error
        (["ptm", "--p", "2", "--n", "30"], False, 3),
        (["ptm", "--p", "2", "--n", "3"], True, 74),
        (["ptm", "--p", "2", "--n", "3"], False, 0),
    ], ids=["validation", "usage", "budget", "write", "ok"])
    def test_full_stderr_keeps_the_exit_code(self, args, stdout_full, code):
        # The error line is lost, but the exit code is the one it names,
        # and nothing else (no traceback, no retried flush) changes it.
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "prouhet", *args],
                stdout=full if stdout_full else subprocess.PIPE,
                stderr=full,
                timeout=60,
            )
        assert proc.returncode == code

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prouhet", "ptm", "--p", "2", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        envelope = json.loads(proc.stdout)
        assert envelope["result"]["sequence"] == [0, 1, 1, 0, 1, 0, 0, 1]
