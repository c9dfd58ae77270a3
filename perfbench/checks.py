"""Output checkers for the benchmark, written apart from prouhet.

Nothing here imports prouhet.  Digit sums, the binomial product
(1 - x)(1 - x^p)...(1 - x^{p^{n-1}}), polynomial products, class power sums
and Faulhaber's closed forms are all computed from scratch, so a wrong answer
from the program cannot be confirmed by the same wrong code.

`verify(job, stdout, memo)` raises CheckError when the output of one CLI job
is wrong.  A job is anything with `command`, `params` (a dict) and `fmt`.
Run as a script, the module reads one JSON object a line, with `command`,
`params`, `fmt` and `stdout`, and prints {"checked": n, "wrong": [...]}.
For ptm, partition and lehmer the whole expected payload is computed and
every format (json, csv, plain) must parse to it; for factor and identities,
which only run as json, the payload is checked against the properties the
factorization and the product identity must have.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from fractions import Fraction
from math import comb


_Job = namedtuple("_Job", "command params fmt")


class CheckError(AssertionError):
    """A CLI output disagrees with the independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# --- independent arithmetic -------------------------------------------------


def digit_sums(p, count):
    """Base-p digit sums of 0..count-1, from s(i) = s(i // p) + i % p."""
    sums = [0] * count
    for i in range(1, count):
        sums[i] = sums[i // p] + i % p
    return sums


def bernoulli(k):
    """B_0..B_k with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = []
    for m in range(k + 1):
        if m == 0:
            b.append(Fraction(1))
        else:
            b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def faulhaber(k, count):
    """sum_{i < count} i**k with 0**0 = 1, by Faulhaber's formula."""
    b = bernoulli(k)
    total = sum(comb(k + 1, j) * b[j] * count ** (k + 1 - j) for j in range(k + 1))
    total /= k + 1
    _require(total.denominator == 1, f"Faulhaber sum {total} is not an integer")
    return int(total)


def binomial_product(p, n):
    """Coefficients of prod_{m<n} (1 - x^{p^m}) as a sparse {exponent: int}."""
    poly = {0: 1}
    for m in range(n):
        d = p**m
        out = dict(poly)
        for e, c in poly.items():
            out[e + d] = out.get(e + d, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return poly


def _dense(sparse, zero):
    """Dense list up to the highest nonzero exponent of a sparse mapping."""
    if not sparse:
        return []
    out = [zero] * (max(sparse) + 1)
    for e, c in sparse.items():
        out[e] = c
    return out


def _trim(coeffs, is_zero):
    coeffs = list(coeffs)
    while coeffs and is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


# --- expected payloads ------------------------------------------------------


def expected_ptm(params):
    p, n = params["p"], params["n"]
    return {"p": p, "n": n, "sequence": [s % p for s in digit_sums(p, p**n)]}


def expected_partition(params):
    p, m, beyond = params["p"], params["m"], params.get("check_beyond")
    count = p ** (m + 1)
    sums = digit_sums(p, count)
    classes = [[] for _ in range(p)]
    for i, s in enumerate(sums):
        classes[s % p].append(i)
    rows = []
    for k in range(m + 1):
        total = faulhaber(k, count)
        _require(total % p == 0, f"sum of i**{k} below {count} is not divisible by {p}")
        rows.append([str(total // p)] * p)
    result = {"p": p, "m": m, "classes": classes, "power_sums": rows}
    through = m if beyond is None else max(m, beyond)
    verified, violation = through, None
    for k in range(m + 1, through + 1):
        class_sums = [sum(i**k for i in cls) for cls in classes]
        unequal = [j for j in range(1, p) if class_sums[j] != class_sums[0]]
        if unequal:
            verified, violation = k - 1, [k, 0, unequal[0]]
            break
    result["esp_verified_through"] = verified
    if beyond is not None:
        result["checked_through"] = through
        result["first_violation"] = violation
    return result


def expected_lehmer(params):
    p, mu = params["p"], params["mu"]
    values = [(0, 0)]  # (weighted value, digit sum) of every digit tuple so far
    for w in mu:
        values = [(v + d * w, s + d) for d in range(p) for v, s in values]
    counters = [{} for _ in range(p)]
    for v, s in values:
        counter = counters[s % p]
        counter[v] = counter.get(v, 0) + 1
    classes = [sorted(c.items()) for c in counters]
    degree = len(mu) - 1
    rows = [[0] * p for _ in range(degree + 1)]
    for j, cls in enumerate(classes):
        for v, mult in cls:
            power = mult
            for k in range(degree + 1):
                rows[k][j] += power
                power *= v
    for k, row in enumerate(rows):
        _require(len(set(row)) == 1, f"lehmer classes disagree at degree {k}: {row}")
    return {
        "p": p,
        "mu": list(mu),
        "classes": [[[str(v), mult] for v, mult in cls] for cls in classes],
        "power_sums": [[str(s) for s in row] for row in rows],
        "equal_up_to": degree,
        "first_violation": None,
    }


EXPECTED = {"ptm": expected_ptm, "partition": expected_partition, "lehmer": expected_lehmer}


# --- csv and plain parsers --------------------------------------------------


def _violation(text):
    return None if text == "none" else [int(v) for v in text.split(",")]


def _parse_ptm_csv(lines):
    _require(lines[0] == "n,value", "ptm csv header")
    seq = []
    for i, line in enumerate(lines[1:]):
        index, value = line.split(",")
        _require(int(index) == i, f"ptm csv row {i} has index {index}")
        seq.append(int(value))
    return {"sequence": seq}


def _parse_ptm_plain(lines):
    _require(len(lines) == 1, "ptm plain output is one line")
    return {"sequence": [int(v) for v in lines[0].split(",")]}


def _parse_partition_csv(lines):
    out = {"classes": [], "power_sums": []}
    for line in lines:
        tag, _, rest = line.partition(",")
        if tag == "class":
            k, _, members = rest.partition(",")
            _require(int(k) == len(out["classes"]), f"class row {k} out of order")
            out["classes"].append([int(v) for v in members.split(",")] if members else [])
        elif tag == "sum":
            k, _, row = rest.partition(",")
            _require(int(k) == len(out["power_sums"]), f"sum row {k} out of order")
            out["power_sums"].append(row.split(","))
        elif tag == "esp_verified_through":
            out["esp_verified_through"] = int(rest)
        elif tag == "first_violation":
            out["first_violation"] = _violation(rest)
        else:
            raise CheckError(f"unexpected partition csv row {line[:40]!r}")
    return out


def _parse_partition_plain(lines):
    out = {"classes": [], "power_sums": []}
    for line in lines:
        if line.startswith("class "):
            k, _, members = line[len("class "):].partition(": ")
            _require(int(k) == len(out["classes"]), f"class line {k} out of order")
            out["classes"].append([int(v) for v in members.split()])
        elif line.startswith("m="):
            k, _, row = line[len("m="):].partition(": ")
            _require(int(k) == len(out["power_sums"]), f"sum line {k} out of order")
            out["power_sums"].append(row.split())
        elif line.startswith("equal power sums through degree "):
            out["esp_verified_through"] = int(line.rsplit(" ", 1)[1])
        elif line.startswith("no violation found through degree "):
            out["first_violation"] = None
            out["checked_through"] = int(line.rsplit(" ", 1)[1])
        elif line.startswith("first violation at m="):
            words = line.split()
            out["first_violation"] = [int(words[3][2:]), int(words[6]), int(words[8])]
        else:
            raise CheckError(f"unexpected partition plain line {line[:40]!r}")
    return out


def _parse_lehmer_csv(lines):
    out = {"classes": [], "power_sums": []}
    for line in lines:
        tag, _, rest = line.partition(",")
        if tag == "class":
            k, _, entries = rest.partition(",")
            _require(int(k) == len(out["classes"]), f"class row {k} out of order")
            pairs = [entry.split(":") for entry in entries.split(",")] if entries else []
            out["classes"].append([[v, int(mult)] for v, mult in pairs])
        elif tag == "sum":
            k, _, row = rest.partition(",")
            _require(int(k) == len(out["power_sums"]), f"sum row {k} out of order")
            out["power_sums"].append(row.split(","))
        elif tag == "equal_up_to":
            out["equal_up_to"] = int(rest)
        elif tag == "first_violation":
            out["first_violation"] = _violation(rest)
        else:
            raise CheckError(f"unexpected lehmer csv row {line[:40]!r}")
    return out


def _parse_lehmer_plain(lines):
    out = {"classes": [], "power_sums": []}
    for line in lines:
        if line.startswith("class "):
            k, _, entries = line[len("class "):].partition(": ")
            _require(int(k) == len(out["classes"]), f"class line {k} out of order")
            pairs = []
            for entry in entries.split(", ") if entries else []:
                value, _, mult = entry.partition(" (x")
                pairs.append([value, int(mult[:-1]) if mult else 1])
            out["classes"].append(pairs)
        elif line.startswith("m="):
            k, _, row = line[len("m="):].partition(": ")
            _require(int(k) == len(out["power_sums"]), f"sum line {k} out of order")
            out["power_sums"].append(row.split())
        elif line.startswith("equal power sums through degree "):
            out["equal_up_to"] = int(line.rsplit(" ", 1)[1])
        else:
            raise CheckError(f"unexpected lehmer plain line {line[:40]!r}")
    return out


PARSERS = {
    ("ptm", "csv"): _parse_ptm_csv,
    ("ptm", "plain"): _parse_ptm_plain,
    ("partition", "csv"): _parse_partition_csv,
    ("partition", "plain"): _parse_partition_plain,
    ("lehmer", "csv"): _parse_lehmer_csv,
    ("lehmer", "plain"): _parse_lehmer_plain,
}

# Fields every format must carry, so a parser that reads nothing cannot pass.
CORE = {
    "ptm": {"sequence"},
    "partition": {"classes", "power_sums", "esp_verified_through"},
    "lehmer": {"classes", "power_sums", "equal_up_to"},
}


# --- property checks for factor and identities ------------------------------


def _coeff(cell, mode):
    """A payload coefficient as a tuple of ints (length 1 for integers)."""
    if mode == "integer":
        _require(isinstance(cell, str), f"integer coefficient {cell!r}")
        return (int(cell),)
    _require(isinstance(cell, list), f"symbolic coefficient {cell!r}")
    return tuple(int(v) for v in cell)


def check_factor(params, result):
    p, n, coeffs = params["p"], params["n"], params.get("coeffs")
    mode = "symbolic" if coeffs is None else "integer"
    _require(
        (result["p"], result["n"], result["mode"]) == (p, n, mode),
        f"factor echoes {result['p']}, {result['n']}, {result['mode']}",
    )
    if mode == "integer":
        vector = [(v,) for v in coeffs]
    else:  # generators a_0..a_{p-2}, and a_{p-1} = -(a_0 + ... + a_{p-2})
        vector = [tuple(int(i == j) for i in range(p - 1)) for j in range(p - 1)]
        vector.append((-1,) * (p - 1))
    width = len(vector[0])
    zero = (0,) * width

    def is_zero(c):
        return not any(c)

    _require([_coeff(c, mode) for c in result["vector"]] == vector, "vector differs")

    divisor = binomial_product(p, n)
    _require(
        [int(c) for c in result["divisor"]] == _dense(divisor, 0),
        "divisor is not the product of (1 - x^{p^m})",
    )

    block = _trim((vector[s % p] for s in digit_sums(p, p**n)), is_zero)
    _require([_coeff(c, mode) for c in result["ptm_poly"]] == block, "block polynomial differs")

    cofactor = {
        e: c for e, c in enumerate(_coeff(c, mode) for c in result["cofactor"]) if any(c)
    }
    for e in cofactor:
        digits = e
        while digits:
            digits, digit = divmod(digits, p)
            _require(digit <= p - 2, f"cofactor term x^{e} has base-{p} digit {digit}")

    product = {}
    for e, c in cofactor.items():
        for f, d in divisor.items():
            acc = product.get(e + f, zero)
            product[e + f] = tuple(a + d * b for a, b in zip(acc, c))
    product = _trim(_dense(product, zero), is_zero)
    _require(len(product) == len(block), "cofactor * divisor has the wrong degree")
    for i, (got, want) in enumerate(zip(product, block)):
        _require(got == want, f"cofactor * divisor differs at x^{i}: {got} != {want}")
    _require(result["product_check"] is True, "product_check is not true")
    _require(result["constructions_agree"] is True, "constructions_agree is not true")


def check_identities(params, result):
    _require((result["p"], result["m"]) == (params["p"], params["m"]), "identities echo")
    _require(result["all_pass"] is True, "all_pass is not true")
    _require(result["product_identity_holds"] is True, "product identity fails")
    _require(result["weighted_sums_vanish"] is True, "weighted sums do not vanish")
    _require(result["first_mismatch"] is None, "a coefficient mismatch is reported")
    _require(result["first_nonvanishing"] is None, "a non-vanishing sum is reported")


# --- entry point ------------------------------------------------------------


def verify(job, stdout, memo):
    """Raise CheckError unless `stdout` is the right output for `job`.

    `memo` caches expected payloads by command and parameters, so each is
    computed once per run whatever the number of formats.
    """
    if job.fmt == "json":
        envelope = json.loads(stdout)
        _require(envelope.get("command") == job.command, "envelope names another command")
        parsed = envelope["result"]
        if job.command == "factor":
            return check_factor(job.params, parsed)
        if job.command == "identities":
            return check_identities(job.params, parsed)
    else:
        parsed = PARSERS[job.command, job.fmt](stdout.splitlines())
    key = (job.command, json.dumps(job.params, sort_keys=True))
    if key not in memo:
        memo[key] = EXPECTED[job.command](job.params)
    expected = memo[key]
    required = set(CORE[job.command])
    if job.command == "partition" and "first_violation" in expected:
        required.add("first_violation")
    missing = required - set(parsed)
    _require(not missing, f"{job.command} {job.fmt} output lacks {sorted(missing)}")
    unknown = set(parsed) - set(expected)
    _require(not unknown, f"{job.command} {job.fmt} output has extra {sorted(unknown)}")
    for field in parsed:
        _require(parsed[field] == expected[field], f"{job.command} {job.fmt}: {field} differs")
    if job.fmt == "json":
        _require(set(parsed) == set(expected), f"{job.command} json fields differ")


def main():
    """Check every job on stdin; report how many, and the wrong ones."""
    memo, wrong, checked = {}, [], 0
    for line in sys.stdin:
        item = json.loads(line)
        job = _Job(item["command"], item["params"], item["fmt"])
        try:
            verify(job, item["stdout"], memo)
        except (CheckError, LookupError, ValueError, TypeError, AttributeError) as exc:
            wrong.append(f"{job.command} {json.dumps(job.params)} {job.fmt}: {exc!r}")
        checked += 1
    print(json.dumps({"checked": checked, "wrong": wrong}))


if __name__ == "__main__":
    main()
