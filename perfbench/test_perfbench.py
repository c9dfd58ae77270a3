"""Tests of the benchmark's own files.

    PYTHONPATH=src python3 -m pytest -q perfbench

The checkers must accept what the program prints today and reject an output
with one fault put in; the tracer must count what the per-layer metrics
report and leave the package as it found it.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from prouhet import cli  # noqa: E402

Job = run.Job
FORMATS = ("json", "csv", "plain")
SMALL = [
    Job("ptm", {"p": 3, "n": 3}),
    Job("partition", {"p": 2, "m": 3}),
    Job("partition", {"p": 3, "m": 2, "check_beyond": 4}),
    Job("partition", {"p": 2, "m": 2, "check_beyond": 2}),
    Job("lehmer", {"p": 3, "mu": [1, 5, 11]}),
    Job("lehmer", {"p": 2, "mu": [1, 1, 2]}),  # colliding values, multiplicity 2
]
JSON_ONLY = [
    Job("factor", {"p": 3, "n": 3, "symbolic": True}),
    Job("factor", {"p": 4, "n": 2, "symbolic": True}),
    Job("factor", {"p": 2, "n": 4, "coeffs": [-5, 5]}),
    Job("factor", {"p": 3, "n": 3, "coeffs": [2, -7, 5]}),
    Job("identities", {"p": 3, "m": 2}),
    Job("identities", {"p": 2, "m": 3}),
]


def output(job, main=cli.main):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(job.argv) == 0
    return buf.getvalue()


def rejects(job, text):
    with pytest.raises(checks.CheckError):
        checks.verify(job, text, {})


def edited(text, edit):
    envelope = json.loads(text)
    edit(envelope["result"])
    return json.dumps(envelope)


@pytest.mark.parametrize(
    "job",
    [Job(j.command, j.params, fmt) for j in SMALL for fmt in FORMATS] + JSON_ONLY,
    ids=lambda job: " ".join(job.argv),
)
def test_checker_accepts_program_output(job):
    checks.verify(job, output(job), {})


def test_faulhaber_matches_direct_sums():
    for k in range(8):
        for count in (1, 2, 9, 27):
            assert checks.faulhaber(k, count) == sum(i**k for i in range(count))


def test_changed_cofactor_coefficient_is_rejected():
    for job in JSON_ONLY[:4]:
        def bump(result):
            cell = result["cofactor"][-1]
            if isinstance(cell, list):
                cell[0] = str(int(cell[0]) + 1)
            else:
                result["cofactor"][-1] = str(int(cell) + 1)

        rejects(job, edited(output(job), bump))


def test_swapped_partition_members_are_rejected():
    job = SMALL[1]

    def swap(result):
        a, b = result["classes"]
        a[1], b[1] = b[1], a[1]

    rejects(job, edited(output(job), swap))
    csv_job = Job(job.command, job.params, "csv")
    lines = output(csv_job).splitlines()
    first, second = lines[0].split(","), lines[1].split(",")
    first[2], second[2] = second[2], first[2]
    rejects(csv_job, "\n".join([",".join(first), ",".join(second)] + lines[2:]))


def test_power_sum_off_by_one_is_rejected():
    def bump(result):
        row = result["power_sums"][2]
        row[1] = str(int(row[1]) + 1)

    for job in (SMALL[1], SMALL[4]):
        rejects(job, edited(output(job), bump))
    plain_job = Job("partition", SMALL[1].params, "plain")
    text = output(plain_job).replace("m=3: 7200 7200", "m=3: 7200 7201")
    rejects(plain_job, text)


def test_wrong_violation_is_rejected():
    job = SMALL[2]

    def move(result):
        result["first_violation"][2] += 1

    rejects(job, edited(output(job), move))


def test_all_pass_false_is_rejected():
    job = JSON_ONLY[4]

    def fail(result):
        result["all_pass"] = False

    rejects(job, edited(output(job), fail))


def test_checker_process_reports_wrong_outputs():
    job = SMALL[1]
    good = output(job)

    def bump(result):
        result["power_sums"][1][0] = "0"

    lines = [
        json.dumps({"command": job.command, "params": job.params, "fmt": job.fmt, "stdout": text})
        for text in (good, edited(good, bump))
    ]
    done = subprocess.run(
        [sys.executable, str(HERE / "checks.py")], input="\n".join(lines) + "\n",
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["checked"] == 2
    assert len(report["wrong"]) == 1 and "power_sums differs" in report["wrong"][0]


def test_round_runs_each_job_once_per_format_in_a_seeded_order():
    first, again = run.job_round("digit_sums", 7), run.job_round("digit_sums", 7)
    assert [j.argv for j in first] == [j.argv for j in again]
    runs = {}
    for job in first:
        runs.setdefault(json.dumps(job.params, sort_keys=True), []).append(job.fmt)
    assert len(runs) == 7
    assert all(sorted(fmts) == sorted(FORMATS) for fmts in runs.values())
    orders = {tuple(j.params["p"] for j in run.job_round("root_identities", s)) for s in range(6)}
    assert len(orders) > 1


def test_tracer_counts_lehmer_enumerations_and_undoes_its_wrappers():
    original = cli.lehmer_expand
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        main = tracer.span("cli.main", cli.main)
        job = Job("lehmer", {"p": 2, "mu": [1, 3, 9]})
        checks.verify(job, output(job, main), {})
    finally:
        undo()
    assert cli.lehmer_expand is original
    metrics = spans.per_layer(tracer, 1, 1.0)
    # cli calls lehmer_expand, then lehmer_verify enumerates all tuples again.
    assert metrics["lehmer.lehmer_expand.calls"]["value"] == 2
    assert metrics["lehmer.tuples_enumerated"]["value"] == 2 * 2**3
    root, *inner = tracer.spans
    assert root[1] == "cli.main" and root[4] == -1
    assert inner and all(span[4] >= 0 for span in inner)


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == spans.METRICS
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
