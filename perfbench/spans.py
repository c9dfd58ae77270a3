"""Spans and counts for the traced benchmark mode.

The benchmark records spans from its own files: `install` replaces the
names that prouhet's callers look up (module globals such as
`prouhet.cli.cofactor_by_division`, and methods such as
`DensePolynomial.__mul__`) with wrappers that record a span per call, and
puts the originals back when asked.  Nothing in the package changes.

A span is (job, name, start, end, parent), with parent the index of the
enclosing span or -1.  The name's first part is the layer, one per module
of `src/prouhet/`.  Self time is a span's duration minus its child spans.
`ptm_term` runs once per block value, so its calls are kept as one
aggregate per (name, parent) instead of one span each.  Ring constructors
and ring multiplies are only counted.  Everything stays in memory until the
run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """The spans, leaf aggregates and counts of one traced run."""

    def __init__(self):
        self.job = -1
        self.spans = []
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, s]
        self.counts = Counter()

    def clear(self):
        """Drop everything recorded so far; wrappers stay installed."""
        self.spans.clear()
        self.stack.clear()
        self.leaves.clear()
        self.counts.clear()

    def span(self, name, fn, count=None):
        """Wrap fn to record one span per call; count(counts, *args) runs first."""
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(counts, *args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.job, name, start, end, parent)

        return wrapper

    def leaf(self, name, fn):
        """Wrap a hot function whose calls are summed per enclosing span."""
        leaves, stack = self.leaves, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = leaves[name, stack[-1] if stack else -1]
                cell[0] += 1
                cell[1] += perf_counter() - start

        return wrapper

    def counter(self, name, fn, size=None):
        """Wrap fn to add size(*args), or 1, to counts[name] per call."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if size is None else size(*args)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        """Write every span and leaf aggregate as one JSON object a line."""
        with open(path, "w") as out:
            for job, name, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"job": job, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            for (name, parent), (calls, seconds) in self.leaves.items():
                out.write(json.dumps(
                    {"name": name, "parent": parent, "calls": calls, "seconds": seconds}
                ) + "\n")


def _count_mul(counts, a, b):
    if type(b) is not type(a):
        return
    counts["factorization.mul.coeff_products"] += len(a.coeffs) * len(b.coeffs)
    counts["factorization.mul.nonzero_products"] += (
        sum(1 for c in a.coeffs if c) * sum(1 for c in b.coeffs if c)
    )


def _count_tuples(counts, spec, *_):
    counts["lehmer.tuples_enumerated"] += spec.tuple_count


def install(tracer):
    """Wrap the names prouhet's callers look up; returns an undo function."""
    from prouhet import cli, factorization, lehmer, partition, rings, sequence

    saved = []

    def put(owner, attr, wrapper):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def spans_on(name, owners, attr, count=None):
        wrapper = tracer.span(name, getattr(owners[0], attr), count)
        for owner in owners:
            put(owner, attr, wrapper)

    put(cli, "_emit", tracer.span("cli.emit", cli._emit))
    spans_on("sequence.ptm_block", [cli], "ptm_block")
    term = tracer.leaf("sequence.ptm_term", sequence.ptm_term)
    for owner in (sequence, partition, factorization):
        put(owner, "ptm_term", term)

    spans_on("partition.prouhet_partition", [cli], "prouhet_partition")
    spans_on("partition.power_sum_table", [cli], "power_sum_table")
    spans_on("partition.verify_esp", [cli], "verify_esp")
    put(partition, "power_sum", tracer.counter(
        "partition.power_sum.powers", partition.power_sum, lambda values, *_: len(values)
    ))

    poly = factorization.DensePolynomial
    spans_on("factorization.ptm_polynomial", [cli, factorization, lehmer], "ptm_polynomial")
    spans_on("factorization.binomial_product", [cli], "binomial_product")
    spans_on("factorization.cofactor_by_division", [cli], "cofactor_by_division")
    spans_on("factorization.cofactor_recursive", [cli], "cofactor_recursive")
    spans_on("factorization.first_coefficient_mismatch", [cli], "first_coefficient_mismatch")
    spans_on("factorization.exact_div", [poly], "exact_div")
    spans_on("factorization.mul", [poly], "__mul__", _count_mul)

    spans_on("lehmer.product_identity_sides", [cli], "product_identity_sides")
    spans_on("lehmer.lehmer_weighted_sum", [cli], "lehmer_weighted_sum", _count_tuples)
    spans_on("lehmer.lehmer_expand", [cli, lehmer], "lehmer_expand", _count_tuples)
    spans_on("lehmer.lehmer_verify", [cli], "lehmer_verify")

    cyclo, form = rings.CyclotomicElement, rings.ZeroSumForm
    put(cyclo, "__init__", tracer.counter("rings.CyclotomicElement.created", cyclo.__init__))
    ring_mul = tracer.counter("rings.CyclotomicElement.mul_calls", cyclo.__mul__)
    put(cyclo, "__mul__", ring_mul)
    put(cyclo, "__rmul__", ring_mul)
    put(form, "__init__", tracer.counter("rings.ZeroSumForm.created", form.__init__))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def job_work(command, params):
    """(block values, power sums needed) that one job must produce at least.

    Block values are the p**n digit-sum terms of the block a command builds;
    needed powers are p**n values times the degrees 0..checked_through.
    """
    p = params["p"]
    if command in ("ptm", "factor"):
        return p ** params["n"], 0
    if command == "identities":
        return p ** (params["m"] + 1), 0
    if command == "partition":
        through = max(params["m"], params.get("check_beyond") or 0)
        return p ** (params["m"] + 1), p ** (params["m"] + 1) * (through + 1)
    return 0, 0


# name -> (unit, better); the order and names match BENCHMARK.json's per_layer.
METRICS = {
    "cli.self_ms": ("ms", "lower"),
    "cli.emit_ms": ("ms", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "sequence.self_ms": ("ms", "lower"),
    "sequence.ptm_term.calls": ("count", "lower"),
    "sequence.ptm_term.calls_per_value": ("ratio", "lower"),
    "partition.self_ms": ("ms", "lower"),
    "partition.prouhet_partition_ms": ("ms", "lower"),
    "partition.power_sum_table_ms": ("ms", "lower"),
    "partition.verify_esp_ms": ("ms", "lower"),
    "partition.power_sum.powers": ("count", "lower"),
    "partition.power_sum.powers_per_needed": ("ratio", "lower"),
    "factorization.self_ms": ("ms", "lower"),
    "factorization.mul.calls": ("count", "lower"),
    "factorization.mul.coeff_products": ("count", "lower"),
    "factorization.mul.nonzero_products": ("count", "lower"),
    "factorization.mul.useful_share": ("%", "higher"),
    "factorization.mul.ms_under_exact_div": ("ms", "lower"),
    "factorization.mul.ms_under_cli": ("ms", "lower"),
    "factorization.exact_div.calls": ("count", "lower"),
    "factorization.exact_div_ms": ("ms", "lower"),
    "factorization.cofactor_by_division_ms": ("ms", "lower"),
    "factorization.cofactor_recursive_ms": ("ms", "lower"),
    "factorization.ptm_polynomial_ms": ("ms", "lower"),
    "lehmer.self_ms": ("ms", "lower"),
    "lehmer.product_identity_sides_ms": ("ms", "lower"),
    "lehmer.lehmer_weighted_sum.calls": ("count", "lower"),
    "lehmer.lehmer_weighted_sum_ms": ("ms", "lower"),
    "lehmer.lehmer_expand.calls": ("count", "lower"),
    "lehmer.lehmer_expand_ms": ("ms", "lower"),
    "lehmer.lehmer_verify_ms": ("ms", "lower"),
    "lehmer.tuples_enumerated": ("count", "lower"),
    "rings.CyclotomicElement.created": ("count", "lower"),
    "rings.CyclotomicElement.mul_calls": ("count", "lower"),
    "rings.ZeroSumForm.created": ("count", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
}


def per_layer(tracer, jobs, window):
    """Per-layer metrics as means per job over `jobs` jobs run in `window` s.

    Ratios are totals over totals; a ratio with nothing to divide reads 0.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (_, parent), (_, seconds) in tracer.leaves.items():
        if parent >= 0:
            child[parent] += seconds

    busy, own, calls = Counter(), Counter(), Counter(tracer.counts)
    for index, (_, name, start, end, parent) in enumerate(spans):
        busy[name] += end - start
        own[name.split(".")[0]] += end - start - child[index]
        calls[name + ".calls"] += 1
        if name == "factorization.mul" and parent >= 0:
            caller = spans[parent][1]
            if caller == "factorization.exact_div":
                busy["factorization.mul.under_exact_div"] += end - start
            elif caller.startswith("cli."):
                busy["factorization.mul.under_cli"] += end - start
    for (name, _), (count, seconds) in tracer.leaves.items():
        busy[name] += seconds
        own[name.split(".")[0]] += seconds
        calls[name + ".calls"] += count

    def ms(seconds):
        return 1000.0 * seconds / jobs

    def each(count):
        return count / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "cli.self_ms": ms(own["cli"]),
        "cli.emit_ms": ms(busy["cli.emit"]),
        "cli.output_bytes": each(calls["cli.output_bytes"]),
        "sequence.self_ms": ms(own["sequence"]),
        "sequence.ptm_term.calls": each(calls["sequence.ptm_term.calls"]),
        "sequence.ptm_term.calls_per_value": ratio(
            calls["sequence.ptm_term.calls"], calls["sequence.block_values"]
        ),
        "partition.self_ms": ms(own["partition"]),
        "partition.prouhet_partition_ms": ms(busy["partition.prouhet_partition"]),
        "partition.power_sum_table_ms": ms(busy["partition.power_sum_table"]),
        "partition.verify_esp_ms": ms(busy["partition.verify_esp"]),
        "partition.power_sum.powers": each(calls["partition.power_sum.powers"]),
        "partition.power_sum.powers_per_needed": ratio(
            calls["partition.power_sum.powers"], calls["partition.power_sum.needed"]
        ),
        "factorization.self_ms": ms(own["factorization"]),
        "factorization.mul.calls": each(calls["factorization.mul.calls"]),
        "factorization.mul.coeff_products": each(calls["factorization.mul.coeff_products"]),
        "factorization.mul.nonzero_products": each(
            calls["factorization.mul.nonzero_products"]
        ),
        "factorization.mul.useful_share": 100.0 * ratio(
            calls["factorization.mul.nonzero_products"],
            calls["factorization.mul.coeff_products"],
        ),
        "factorization.mul.ms_under_exact_div": ms(busy["factorization.mul.under_exact_div"]),
        "factorization.mul.ms_under_cli": ms(busy["factorization.mul.under_cli"]),
        "factorization.exact_div.calls": each(calls["factorization.exact_div.calls"]),
        "factorization.exact_div_ms": ms(busy["factorization.exact_div"]),
        "factorization.cofactor_by_division_ms": ms(busy["factorization.cofactor_by_division"]),
        "factorization.cofactor_recursive_ms": ms(busy["factorization.cofactor_recursive"]),
        "factorization.ptm_polynomial_ms": ms(busy["factorization.ptm_polynomial"]),
        "lehmer.self_ms": ms(own["lehmer"]),
        "lehmer.product_identity_sides_ms": ms(busy["lehmer.product_identity_sides"]),
        "lehmer.lehmer_weighted_sum.calls": each(calls["lehmer.lehmer_weighted_sum.calls"]),
        "lehmer.lehmer_weighted_sum_ms": ms(busy["lehmer.lehmer_weighted_sum"]),
        "lehmer.lehmer_expand.calls": each(calls["lehmer.lehmer_expand.calls"]),
        "lehmer.lehmer_expand_ms": ms(busy["lehmer.lehmer_expand"]),
        "lehmer.lehmer_verify_ms": ms(busy["lehmer.lehmer_verify"]),
        "lehmer.tuples_enumerated": each(calls["lehmer.tuples_enumerated"]),
        "rings.CyclotomicElement.created": each(calls["rings.CyclotomicElement.created"]),
        "rings.CyclotomicElement.mul_calls": each(calls["rings.CyclotomicElement.mul_calls"]),
        "rings.ZeroSumForm.created": each(calls["rings.ZeroSumForm.created"]),
        "trace.jobs_per_s": jobs / window,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}
