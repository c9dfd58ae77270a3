import json
import subprocess
import sys
import time

import pytest

import prouhet.cli
from prouhet import DensePolynomial, NotDivisibleError
from prouhet.cli import main

SPEC_PARTITION_RESULT = {
    "p": 2,
    "m": 3,
    "classes": [[0, 3, 5, 6, 9, 10, 12, 15], [1, 2, 4, 7, 8, 11, 13, 14]],
    "power_sums": [["8", "8"], ["60", "60"], ["620", "620"], ["7200", "7200"]],
    "esp_verified_through": 3,
}


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    return code, envelope


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

    def test_inexact_division_is_a_verification_failure(self, capsys, monkeypatch):
        def inexact(params, vector):
            raise NotDivisibleError(DensePolynomial([1]))

        monkeypatch.setattr(prouhet.cli, "cofactor_by_division", inexact)
        code = main(["factor", "--p", "2", "--n", "2", "--coeffs", "1,-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "not exact" in captured.err
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


class TestIdentitiesCommand:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 0), (5, 2)])
    def test_pass_cases(self, capsys, p, m):
        code, envelope = run_json(capsys, ["identities", "--p", str(p), "--m", str(m)])
        assert code == 0
        result = envelope["result"]
        assert result["all_pass"] is True
        assert result["first_mismatch"] is None
        assert result["first_nonvanishing"] is None

    def test_csv(self, capsys):
        code = main(["identities", "--p", "2", "--m", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "product_identity,true",
            "weighted_sums_vanish,true",
            "all_pass,true",
        ]


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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prouhet", "ptm", "--p", "2", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        envelope = json.loads(proc.stdout)
        assert envelope["result"]["sequence"] == [0, 1, 1, 0, 1, 0, 0, 1]
