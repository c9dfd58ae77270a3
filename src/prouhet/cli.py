"""Command-line front end: every construction and check as a subcommand.

Output formats: json (default, an envelope with the payload under
"result"; every field except the wall-clock "elapsed_ms" is deterministic),
csv, and plain text.  Big integers always serialize as decimal strings.
Exit codes: 0 success / all checks pass, 1 verification failure, including
a division that leaves a remainder (NotDivisibleError, which means a bug),
2 usage or validation error, 3 enumeration budget exceeded, 141 stdout
closed before the output was written.  `factor` and `identities` compute
on integer columns and build no ring value: `factor --symbolic` reads the
one symbol table, rings.symbol_columns, and `--coeffs` the given ints.

A job holds one listing at a time.  `lehmer` checks before it lists its
payload, and turns that into text one class at a time.  Output is written
in pieces: text lines are printed without being joined first, and a JSON
array longer than _CHUNK items is encoded a chunk at a time by json.dumps
itself (_json_pieces), so the bytes are json.dumps's own.

main runs each job (the command and its output) with the cyclic garbage
collector paused, and switches it back on only if it was on at entry.  A
job makes no reference cycle, so refcounting frees all it allocates and
the collector would only re-trace live containers: a `lehmer --p 3` job
with 9 weights holds tens of thousands of small tuples and lists at once.
The pause toggles process-wide state; the library functions never do.
"""

import argparse
import functools
import gc
import json
import os
import sys
import time
from itertools import chain

# binomial_product, cofactor_by_division, cofactor_recursive,
# first_coefficient_mismatch and ptm_polynomial stay importable from here:
# perfbench/spans.py wraps them by these names.
from .factorization import binomial_product, cofactor_by_division  # noqa: F401
from .factorization import cofactor_recursive, ptm_polynomial  # noqa: F401
from .factorization import first_coefficient_mismatch  # noqa: F401
from .factorization import NotDivisibleError, block_columns, division_columns
from .factorization import recursive_column, strip_zero_rows, times_binomial_columns
# lehmer_weighted_sum and power_sum_table stay importable from here:
# perfbench/spans.py wraps them by these names.
from .lehmer import lehmer_weighted_sum  # noqa: F401
from .lehmer import LehmerSpec, lehmer_expand, lehmer_verify, product_identity_sides
from .partition import power_sum_table  # noqa: F401
from .partition import prouhet_partition, verify_esp
from .rings import reduce_zero_sum, symbol_columns
from .sequence import DEFAULT_BUDGET, BudgetExceededError, PTMParams, ZeroSumVector, ptm_block

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as the shell reports `yes | head -1`


# The text of the binomial product's coefficients, which are -1, 0 and 1;
# any other value is a bug, and looking it up raises KeyError.
_UNIT_TEXT = {-1: "-1", 0: "0", 1: "1"}


def _columns_payload(columns, ring):
    """A polynomial's payload, one str() pass per column; over a ring, a row per coefficient."""
    texts = [list(map(str, column)) for column in columns]
    return list(zip(*texts)) if ring else texts[0]


def _parse_int_list(text, what):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _cmd_ptm(args):
    params = PTMParams(args.p, args.n, args.budget)
    result = {"p": args.p, "n": args.n, "sequence": ptm_block(params)}
    return {"n": args.n}, result, True


def _cmd_partition(args):
    if args.check_beyond is not None and args.check_beyond < 0:
        raise ValueError(f"--check-beyond must be >= 0, got {args.check_beyond}")
    params = PTMParams.from_degree(args.p, args.m, args.budget)
    through = args.m if args.check_beyond is None else max(args.m, args.check_beyond)
    report = verify_esp(params, through)
    assert len(report.power_sums) > args.m  # ESP holds through m <= through
    result = {
        "p": args.p,
        "m": args.m,
        "classes": prouhet_partition(params),
        "power_sums": [[str(s) for s in row] for row in report.power_sums[: args.m + 1]],
        "esp_verified_through": report.equal_up_to,
    }
    if args.check_beyond is not None:
        result["checked_through"] = through
        result["first_violation"] = (
            list(report.first_violation) if report.first_violation else None
        )
    echo = {"m": args.m, "check_beyond": args.check_beyond}
    return echo, result, report.equal_up_to >= args.m


def _cmd_factor(args):
    params = PTMParams(args.p, args.n, args.budget)
    mode = "symbolic" if args.symbolic else "integer"
    if args.symbolic:
        columns = symbol_columns(args.p)
    else:
        values = _parse_int_list(args.coeffs, "--coeffs")
        if len(values) != args.p:
            raise ValueError(f"expected {args.p} coefficients, got {len(values)}")
        ZeroSumVector(values)  # raises ValueError unless the entries sum to zero
        columns = [values]
    labels = ptm_block(params)
    full_block = block_columns(labels, columns)
    cofactor = strip_zero_rows(division_columns(params, full_block))
    block = strip_zero_rows(full_block)
    recursive = strip_zero_rows([recursive_column(params.n, c) for c in columns])
    product_check = times_binomial_columns(params, cofactor) == block
    agree = cofactor == recursive
    vector_payload = _columns_payload(columns, args.symbolic)
    (divisor,) = times_binomial_columns(params, [[1]])
    result = {
        "p": args.p,
        "n": args.n,
        "mode": mode,
        "vector": vector_payload,
        "ptm_poly": list(map(vector_payload.__getitem__, labels[: len(block[0])])),
        "divisor": list(map(_UNIT_TEXT.__getitem__, divisor)),
        "cofactor": _columns_payload(cofactor, args.symbolic),
        "product_check": product_check,
        "constructions_agree": agree,
    }
    echo = {"n": args.n, "mode": mode, "coeffs": None if args.symbolic else args.coeffs}
    return echo, result, product_check and agree


def _cmd_lehmer(args):
    weights = _parse_int_list(args.mu, "--mu")
    spec = LehmerSpec(args.p, tuple(weights), args.budget)
    # One listing alive at a time: the check's is freed before the
    # payload's is made, and that one becomes text a class at a time.
    report = lehmer_verify(spec)
    classes = list(lehmer_expand(spec))
    for k, cls in enumerate(classes):
        classes[k] = [(str(value), mult) for value, mult in cls]
    result = {
        "p": args.p,
        "mu": list(spec.mu),
        "classes": classes,
        "power_sums": [[str(s) for s in row] for row in report.power_sums],
        "equal_up_to": report.equal_up_to,
        "first_violation": (
            list(report.first_violation) if report.first_violation else None
        ),
    }
    return {"mu": args.mu}, result, report.first_violation is None


def _cmd_identities(args):
    params = PTMParams.from_degree(args.p, args.m, args.budget)
    lhs, rhs = product_identity_sides(params)
    first_mismatch = None
    if lhs != rhs:  # equal-length columns: name the first differing row
        rows = zip(zip(*lhs), zip(*rhs))
        exponent, (lhs_row, rhs_row) = next((i, r) for i, r in enumerate(rows) if r[0] != r[1])
        first_mismatch = {
            "exponent": exponent,
            "lhs": list(map(str, lhs_row)),
            "rhs": list(map(str, rhs_row)),
        }
    # A weighted sum vanishes exactly when its class power-sum row is
    # constant (reduce_zero_sum), so one check of equal power sums through
    # degree m decides every degree at once.
    report = verify_esp(params, args.m)
    first_nonvanishing = None
    if report.first_violation is not None:
        first_nonvanishing = {
            "m": report.first_violation[0],
            "value": [str(c) for c in reduce_zero_sum(report.power_sums[-1])],
        }
    identity_ok = first_mismatch is None
    vanish_ok = first_nonvanishing is None
    result = {
        "p": args.p,
        "m": args.m,
        "product_identity_holds": identity_ok,
        "first_mismatch": first_mismatch,
        "weighted_sums_vanish": vanish_ok,
        "first_nonvanishing": first_nonvanishing,
        "all_pass": identity_ok and vanish_ok,
    }
    return {"m": args.m}, result, identity_ok and vanish_ok


# Each renderer gives a command's csv lines (csv=True) or plain lines.


def _check_line(csv, key, label, flag):
    if csv:
        return f"{key},{'true' if flag else 'false'}"
    return f"{label}: {'pass' if flag else 'FAIL'}"


def _class_and_sum_lines(csv, class_texts, sums, equal_up_to, csv_key):
    """Class rows, power-sum rows and the agreement degree; `class_texts`
    gives each class's cells, joined, as its line is made."""
    if csv:
        lines = [f"class,{k},{text}" for k, text in enumerate(class_texts)]
        lines += [f"sum,{m}," + ",".join(row) for m, row in enumerate(sums)]
        return lines + [f"{csv_key},{equal_up_to}"]
    lines = [f"class {k}: {text}" for k, text in enumerate(class_texts)]
    lines += [f"m={m}: " + " ".join(row) for m, row in enumerate(sums)]
    return lines + [f"equal power sums through degree {equal_up_to}"]


def _violation_line(csv, violation, checked_through=None):
    if csv:
        return "first_violation," + (
            "none" if violation is None else ",".join(str(v) for v in violation)
        )
    if violation is None:
        return f"no violation found through degree {checked_through}"
    m, j, k = violation
    return f"first violation at m={m} between classes {j} and {k}"


# Items per piece of a long output: (index, term) pairs per % format of the
# ptm csv body, or array items per json.dumps call.  One format or one call
# over a whole block would hold every pair's index object and two tuple
# slots, or every item's text, at once and raise a run's peak memory.  A
# chunk this size holds about 100 KB in a csv format, and about 0.4 MB in a
# json.dumps call on `lehmer` (value, multiplicity) cells (0.8 MB at 4096).
_CHUNK = 2048


def _render_ptm(result, csv):
    sequence = result["sequence"]
    if csv:
        lines = ["n,value"]
        for start in range(0, len(sequence), _CHUNK):
            part = sequence[start:start + _CHUNK]
            pairs = tuple(chain.from_iterable(enumerate(part, start)))
            lines.append("\n".join(["%d,%d"] * len(part)) % pairs)
        return lines
    texts = [str(t) for t in range(result["p"])]
    return [",".join(map(texts.__getitem__, sequence))]


def _render_partition(result, csv):
    # One class's cells at a time: each list is freed once it is joined.
    sep = "," if csv else " "
    texts = (sep.join([str(n) for n in cls]) for cls in result["classes"])
    lines = _class_and_sum_lines(
        csv, texts, result["power_sums"], result["esp_verified_through"],
        "esp_verified_through",
    )
    if "first_violation" in result:
        lines.append(_violation_line(csv, result["first_violation"], result["checked_through"]))
    return lines


def _render_factor(result, csv):
    row_sep, cell_sep = (",", ";") if csv else (" | ", ",")
    lines = []
    for key, label in (("ptm_poly", "block polynomial"), ("divisor", "divisor"),
                       ("cofactor", "cofactor")):
        text = row_sep.join(c if isinstance(c, str) else cell_sep.join(c) for c in result[key])
        lines.append(f"{key},{text}" if csv else f"{label}: {text}")
    return lines + [
        _check_line(csv, "product_check", "product check", result["product_check"]),
        _check_line(csv, "constructions_agree", "constructions agree",
                    result["constructions_agree"]),
    ]


def _render_lehmer(result, csv):
    if csv:
        texts = (
            ",".join([f"{value}:{mult}" for value, mult in cls]) for cls in result["classes"]
        )
    else:
        texts = (
            ", ".join([value if mult == 1 else f"{value} (x{mult})" for value, mult in cls])
            for cls in result["classes"]
        )
    lines = _class_and_sum_lines(
        csv, texts, result["power_sums"], result["equal_up_to"], "equal_up_to"
    )
    if csv:
        lines.append(_violation_line(csv, result["first_violation"]))
    return lines


def _render_identities(result, csv):
    lines = [
        _check_line(csv, "product_identity", "product identity",
                    result["product_identity_holds"]),
        _check_line(csv, "weighted_sums_vanish",
                    f"weighted sums vanish through degree {result['m']}",
                    result["weighted_sums_vanish"]),
    ]
    if csv:
        lines.append(_check_line(csv, "all_pass", None, result["all_pass"]))
    return lines


def _holds_long_array(value):
    """Whether value is, or holds, a list or tuple longer than one chunk.

    A dict is looked at through all its values, a shorter list or tuple
    through its first item only: the class lists of a payload are all of
    one length, or close to it, and looking at every item of a short list
    of rows, such as a `factor` payload's coefficients, would cost a short
    job tens of microseconds.
    """
    if isinstance(value, dict):
        return any(map(_holds_long_array, value.values()))
    if not isinstance(value, (list, tuple)):
        return False
    return len(value) > _CHUNK or (bool(value) and _holds_long_array(value[0]))


def _json_pieces(value):
    """The text of json.dumps(value, check_circular=False), in pieces.

    A value that holds no long array is one json.dumps call.  A long list
    or tuple is encoded one chunk of items at a time, and a dict, list or
    tuple holding one item by item, so no call holds the text of every item
    of a long array at once; the pieces are json.dumps's own text joined by
    its own ", " and ": ".  A dict's items that hold no long array are
    encoded together between the ones that do, one call per run of them,
    since each call has a fixed cost of a few microseconds.  Dict keys must
    be str, as in every envelope.
    """
    if not _holds_long_array(value):
        yield json.dumps(value, check_circular=False)
    elif isinstance(value, dict):
        sep, run = "{", {}
        for key, item in value.items():
            if not _holds_long_array(item):
                run[key] = item
                continue
            if run:
                yield sep + json.dumps(run, check_circular=False)[1:-1]
                sep, run = ", ", {}
            yield f"{sep}{json.dumps(key)}: "
            yield from _json_pieces(item)
            sep = ", "
        if run:
            yield sep + json.dumps(run, check_circular=False)[1:-1]
        yield "}"
    elif len(value) > _CHUNK:
        sep = "["
        for start in range(0, len(value), _CHUNK):
            yield sep + json.dumps(value[start:start + _CHUNK], check_circular=False)[1:-1]
            sep = ", "
        yield "]"
    else:
        sep = "["
        for item in value:
            yield sep
            yield from _json_pieces(item)
            sep = ", "
        yield "]"


def _emit(args, echo, result, elapsed_ms):
    """Print a command's result; the json params are the common options
    around the command's own `echo`."""
    if args.format == "json":
        params = {"p": args.p, **echo, "format": args.format, "budget": args.budget}
        envelope = {
            "command": args.command,
            "params": params,
            "result": result,
            "elapsed_ms": elapsed_ms,
        }
        # Every envelope is a fresh tree, so no cycle can occur.
        sys.stdout.writelines(_json_pieces(envelope))
        print()
    else:
        print(*args.render(result, args.format == "csv"), sep="\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "plain"),
        default="json",
        help="output format (default: json)",
    )
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"cap on enumeration size (default: {DEFAULT_BUDGET})",
    )

    parser = argparse.ArgumentParser(
        prog="prouhet",
        description="Exact equal-sums-of-like-powers constructions and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, render, help):
        """A subcommand taking the common options and the base --p; handler
        gives its (echo, result, ok), render its csv or plain lines."""
        cmd = sub.add_parser(name, parents=[common], help=help)
        cmd.add_argument("--p", type=int, required=True, help="base, >= 2")
        cmd.set_defaults(handler=handler, render=render)
        return cmd

    ptm = command("ptm", _cmd_ptm, _render_ptm, "digit-sum residue sequence block")
    ptm.add_argument("--n", type=int, required=True, help="block exponent, >= 1")

    part = command(
        "partition", _cmd_partition, _render_partition,
        "digit-sum partition with power-sum table and verification",
    )
    part.add_argument("--m", type=int, required=True, help="guaranteed agreement degree, >= 0")
    part.add_argument(
        "--check-beyond",
        type=int,
        default=None,
        dest="check_beyond",
        help="also report power-sum status up to this degree",
    )

    factor = command(
        "factor", _cmd_factor, _render_factor,
        "factor the block polynomial into cofactor times binomial product",
    )
    factor.add_argument("--n", type=int, required=True, help="block exponent, >= 1")
    group = factor.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--coeffs", help="comma-separated integers of length p summing to zero"
    )
    group.add_argument(
        "--symbolic", action="store_true", help="use the generic symbolic vector"
    )

    lehmer = command(
        "lehmer", _cmd_lehmer, _render_lehmer,
        "weighted multiset classes with power-sum verification",
    )
    lehmer.add_argument("--mu", required=True, help="comma-separated positive integer weights")

    identities = command(
        "identities", _cmd_identities, _render_identities,
        "root-of-unity product identity and weighted-sum vanishing checks",
    )
    identities.add_argument("--m", type=int, required=True, help="top degree, >= 0")

    return parser


# Built on first use, then reused: argparse keeps no state between parses.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    # The collector is paused for the job (see the module docstring); a
    # caller that had switched it off finds it off on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if collecting:
            gc.enable()


def _run(args):
    """Run the parsed command and print its output; the exit code."""
    start = time.perf_counter()
    try:
        echo, result, ok = args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotDivisibleError as exc:
        # Zero-sum vectors always divide out cleanly, so this is a bug.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    try:
        _emit(args, echo, result, elapsed_ms)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left (as `head` does).  Point stdout at devnull so the
        # flush at exit stays quiet: the "Note on SIGPIPE" in Python's
        # signal docs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
