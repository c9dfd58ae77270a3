"""Benchmark of the prouhet CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  One run is one workload in this fresh
process.  It first times SETUP_STARTS fresh interpreters that import
`prouhet.cli` and build its parser (setup_s is their median), then imports
the package from `src/` and runs the workload's jobs.  A job is one call of
`prouhet.cli.main(argv)` with stdout captured, timed from call to return,
in a closed loop: one caller, no think time.  A round holds every job of
the workload's cycle once per output format.  One untimed round warms up,
and a child process running `checks.py` checks each of its outputs; then
whole rounds run until `--seconds` have passed, and each output must equal
the one checked for the same argv.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer ones from `spans.py` with `--trace 1`.  The result and, when
traced, every span are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_STARTS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import prouhet.cli; "
    "prouhet.cli.build_parser(); print('ready', flush=True)"
)


@dataclass(frozen=True)
class Job:
    command: str
    params: dict
    fmt: str = "json"

    @property
    def argv(self):
        argv = [self.command]
        for key, value in self.params.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, list):  # one token, since a list may start with "-"
                argv.append(f"{flag}={','.join(str(v) for v in value)}")
            else:
                argv += [flag, str(value)]
        if self.fmt != "json":
            argv += ["--format", self.fmt]
        return argv


def _zero_sum(rng, p):
    """Seeded nonzero integers summing to zero.  With every entry nonzero, no
    block or cofactor coefficient cancels, so the work is the same for every
    seed."""
    while True:
        head = [rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(p - 1)]
        if sum(head):
            return head + [-sum(head)]


def _weights(rng, p, count):
    """Seeded weights R*p**j + r_j with (p-1)*sum(r_j) < R, so that the
    p**count weighted values are distinct for every seed."""
    scale = 10**6
    return [scale * p**j + rng.randint(1, scale // (p * count)) for j in range(count)]


def factor_cofactor(rng):
    jobs = [Job("factor", {"p": p, "n": n, "symbolic": True})
            for p, n in ((2, 9), (3, 5), (4, 4), (5, 3), (6, 3))]
    jobs += [Job("factor", {"p": p, "n": n, "coeffs": _zero_sum(rng, p)})
             for p, n in ((2, 11), (3, 7))]
    return jobs, ("json",)


def root_identities(rng):
    jobs = [Job("identities", {"p": p, "m": m})
            for p, m in ((2, 8), (3, 4), (4, 3), (5, 3), (7, 2))]
    return jobs, ("json",)


def digit_sums(rng):
    jobs = [Job("ptm", {"p": 2, "n": 16}), Job("ptm", {"p": 3, "n": 10}),
            Job("partition", {"p": 2, "m": 13}), Job("partition", {"p": 5, "m": 5}),
            Job("partition", {"p": 3, "m": 8, "check_beyond": 9}),
            Job("lehmer", {"p": 3, "mu": _weights(rng, 3, 9)}),
            Job("lehmer", {"p": 2, "mu": _weights(rng, 2, 13)})]
    return jobs, ("json", "csv", "plain")


WORKLOADS = {f.__name__: f for f in (factor_cofactor, root_identities, digit_sums)}


def job_round(workload, seed):
    """Every job of the seeded cycle once in each format.

    The cycle is the workload's jobs in an order shuffled by the seed.  In
    pass c of the round, job i uses format (i + c) mod F, so formats rotate
    through the cycle and every job runs in every format once.
    """
    rng = random.Random(f"{workload}/{seed}")
    jobs, formats = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return [Job(job.command, job.params, formats[(i + c) % len(formats)])
            for c in range(len(formats)) for i, job in enumerate(jobs)]


def setup_seconds():
    """Median time for a fresh interpreter to import prouhet.cli and build its
    parser.  One extra first start, which may write bytecode caches, is not
    counted."""
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup start failed with exit code {proc.returncode}")
        times.append(ready - start)
    return statistics.median(times[1:])


def steady_bytes(job, stdout):
    """An output as bytes, without the JSON envelope's elapsed_ms, which
    changes from run to run."""
    if job.fmt == "json":
        stdout = stdout.rsplit(', "elapsed_ms": ', 1)[0]
    return stdout.encode()


class Runner:
    """Runs jobs, counts failures and checks every output.

    During the warm-up round every output goes to a child process running
    checks.py, so the checkers' memory stays out of this process's peak.
    After it, an output only has to match the digest of the checked one.
    """

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.digests = {}
        self.checker = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def warm_up(self, jobs):
        """Run one round and check each output in full."""
        with subprocess.Popen([sys.executable, str(HERE / "checks.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as checker:
            self.checker = checker
            try:
                for job in jobs:
                    self.run(job)
            finally:
                self.checker = None
            report, _ = checker.communicate()
        if checker.returncode != 0:
            raise RuntimeError(f"checks.py failed with exit code {checker.returncode}")
        report = json.loads(report)
        if report["checked"] != len(self.digests):
            raise RuntimeError(f"checks.py checked {report['checked']} of {len(self.digests)}")
        for line in report["wrong"]:
            print(f"wrong output: {line}", file=sys.stderr)
        self.wrong += len(report["wrong"])

    def run(self, job):
        """Run one job; its wall time in seconds, or None if it did not pass."""
        self.attempted += 1
        argv = job.argv
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                code = self.main(argv)
                elapsed = time.perf_counter() - start
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        if code != 0:
            self.failed += 1
            print(f"job failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
            return None
        stdout = buf.getvalue()
        steady = steady_bytes(job, stdout)
        digest = hashlib.sha256(steady).digest()
        key = tuple(argv)
        if self.checker is not None:
            self.digests[key] = digest
            item = {"command": job.command, "params": job.params, "fmt": job.fmt}
            self.checker.stdin.write(json.dumps(dict(item, stdout=stdout)) + "\n")
        elif self.digests.get(key) != digest:
            self.wrong += 1
            print(f"output differs from the checked one: {' '.join(argv)}", file=sys.stderr)
            return None
        if self.tracer is not None:
            blocks, needed = spans.job_work(job.command, job.params)
            counts = self.tracer.counts
            counts["cli.output_bytes"] += len(steady)
            counts["sequence.block_values"] += blocks
            counts["partition.power_sum.needed"] += needed
        return elapsed


def measure(workload, seed, seconds, traced):
    sys.path.insert(0, str(SRC))
    import prouhet.cli

    if Path(prouhet.cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"prouhet was imported from {prouhet.cli.__file__}, not {SRC}")
    tracer = undo = None
    main = prouhet.cli.main
    if traced:
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        main = tracer.span("cli.main", main)
    setup = None if traced else setup_seconds()

    runner = Runner(main, tracer)
    jobs = job_round(workload, seed)
    runner.warm_up(jobs)
    if tracer is not None:
        tracer.clear()

    times = []
    start = time.perf_counter()
    while True:
        for job in jobs:
            if tracer is not None:
                tracer.job = len(times)
            elapsed = runner.run(job)
            times.append(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start
    passed = [t for t in times if t is not None]

    if traced:
        undo()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{workload}-seed{seed}.spans.jsonl")
        metrics = spans.per_layer(tracer, len(times), window)
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "jobs_per_s": {"value": len(passed) / window, "unit": "1/s"},
            "job_ms_p50": {"value": 1000 * statistics.median(passed), "unit": "ms"},
            "job_ms_p90": {
                "value": 1000 * statistics.quantiles(passed, n=10)[-1], "unit": "ms"
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prouhet" / "cli.py").is_file():
        print(f"error: no prouhet sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
