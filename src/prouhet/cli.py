"""Command-line front end: every construction and check as a subcommand.

Output formats: json (default, an envelope with the payload under
"result"; every field except the wall-clock "elapsed_ms" is deterministic),
csv, and plain text.  "elapsed_ms" times the command, not its output (for
`ptm`, its two half-blocks).  Big integers always serialize as decimal strings.
Exit codes: 0 success / all checks pass, 1 verification failure, or a bug
an exact check caught (a division with a remainder, a `lehmer` listing
off its power-sum rows), 2 usage or validation error, 3 enumeration budget
exceeded, 74 stdout refused the output (EX_IOERR, e.g. a full device) or
was closed at start, 141 the reader closed stdout before the output was
written; a stderr that refuses the `error:` line changes none of them.
`factor` and `identities` compute on integer columns and build no ring
value: `factor --symbolic` reads the one symbol table,
rings.symbol_columns, and `--coeffs` the given ints (vector_columns).

A job holds one listing at a time, and `ptm` none (_HalfBlocks).  `lehmer`
ties a listing to its power-sum rows (lehmer_verify) before it lists its
payload, one _Pairs of lehmer_expand's classes, whose int pairs become text
a chunk at a time.  Every format is a stream of text pieces of at most one
chunk each (_CHUNK items of a long array, joined by _joined), written by one
writelines call; JSON's pieces are json.dumps's text (an int's is its str):
one call's bytes.

main runs each job (the command and its output) with the cyclic garbage
collector paused, and switches it back on only if it was on at entry.  A
job makes no reference cycle, so refcounting frees all it allocates and
the collector would only re-trace live containers: a `lehmer --p 3` job
with 9 weights holds tens of thousands of small tuples and lists at once.
It also lifts Python's limit on the digits of an int-to-str conversion
(sys.set_int_max_str_digits) for the job, so big power sums print in full,
and puts the caller's limit back on every exit.  Both toggle process-wide
state; the library functions never do.
"""

import argparse
import functools
import gc
import json
import os
import sys
import time
from itertools import chain, islice
from operator import add

# binomial_product, cofactor_by_division, cofactor_recursive,
# first_coefficient_mismatch and ptm_polynomial stay importable from here:
# perfbench/spans.py wraps them by these names.
from .factorization import binomial_product, cofactor_by_division  # noqa: F401
from .factorization import cofactor_recursive, ptm_polynomial  # noqa: F401
from .factorization import first_coefficient_mismatch  # noqa: F401
from .factorization import block_columns, division_columns, vector_columns
from .factorization import recursive_column, strip_zero_rows, times_binomial_columns
# lehmer_weighted_sum and power_sum_table stay importable from here:
# perfbench/spans.py wraps them by these names.
from .lehmer import lehmer_weighted_sum  # noqa: F401
from .lehmer import LehmerSpec, lehmer_expand, lehmer_verify, product_identity_sides
from .partition import power_sum_table  # noqa: F401
from .partition import prouhet_partition, verify_esp
from .rings import reduce_zero_sum, symbol_columns
from .sequence import DEFAULT_BUDGET, BudgetExceededError, PTMParams, ZeroSumVector
from .sequence import ptm_block, ptm_halves

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_OUTPUT = 74  # EX_IOERR in sysexits.h
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
    result = {"p": args.p, "n": args.n, "sequence": _HalfBlocks(params)}
    return {"n": args.n}, result, True


def _cmd_partition(args):
    if args.check_beyond is not None and args.check_beyond < 0:
        raise ValueError(f"--check-beyond must be >= 0, got {args.check_beyond}")
    params = PTMParams.from_degree(args.p, args.m, args.budget)
    through = args.m if args.check_beyond is None else max(args.m, args.check_beyond)
    report = verify_esp(params, through)
    result = {
        "p": args.p,
        "m": args.m,
        "classes": prouhet_partition(params),
        "power_sums": [[str(s) for s in row] for row in report.power_sums[: args.m + 1]],
        "esp_verified_through": report.equal_up_to,
    }
    if args.check_beyond is not None:
        result["checked_through"] = through
        result["first_violation"] = report.first_violation and list(report.first_violation)
    echo = {"m": args.m, "check_beyond": args.check_beyond}
    return echo, result, report.equal_up_to >= args.m


def _cmd_factor(args):
    params = PTMParams(args.p, args.n, args.budget)
    symbolic = args.mode == "symbolic"
    if symbolic:
        params.check_cells()
        columns = symbol_columns(args.p)
    else:
        values = _parse_int_list(args.coeffs, "--coeffs")
        columns = vector_columns(params, ZeroSumVector(values))
    labels = ptm_block(params)
    full_block = block_columns(labels, columns)
    cofactor = strip_zero_rows(division_columns(params, full_block))
    block = strip_zero_rows(full_block)
    recursive = strip_zero_rows([recursive_column(params.n, c) for c in columns])
    product_check = times_binomial_columns(params, cofactor) == block
    agree = cofactor == recursive
    vector_payload = _columns_payload(columns, symbolic)
    (divisor,) = times_binomial_columns(params, [[1]])
    result = {
        "p": args.p,
        "n": args.n,
        "mode": args.mode,
        "vector": vector_payload,
        "ptm_poly": list(map(vector_payload.__getitem__, labels[: len(block[0])])),
        "divisor": list(map(_UNIT_TEXT.__getitem__, divisor)),
        "cofactor": _columns_payload(cofactor, symbolic),
        "product_check": product_check,
        "constructions_agree": agree,
    }
    echo = {"n": args.n, "mode": args.mode, "coeffs": args.coeffs}
    return echo, result, product_check and agree


def _cmd_lehmer(args):
    spec = LehmerSpec(args.p, _parse_int_list(args.mu, "--mu"), args.budget)
    # The check's listing is freed before the payload's, which is written from its int pairs.
    report = lehmer_verify(spec)
    result = {
        "p": args.p,
        "mu": list(spec.mu),
        "classes": _Pairs(lehmer_expand(spec)),
        "power_sums": [[str(s) for s in row] for row in report.power_sums],
        "equal_up_to": report.equal_up_to,
        "first_violation": report.first_violation and list(report.first_violation),
    }
    return {"mu": args.mu}, result, report.first_violation is None


def _cmd_identities(args):
    params = PTMParams.from_degree(args.p, args.m, args.budget)
    params.check_cells()
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


# Items of a long array per piece of output, in every format: array items
# per json.dumps call, cells per join of a csv or plain class or `factor`
# line or of a `lehmer` JSON class, and `ptm` terms per piece (a thousand
# per csv piece).  Text made from a whole array at once would hold every
# item's text at once and raise a run's peak memory, and a real stdout would
# encode it into bytes in one more copy.  A chunk this size holds about
# 100 KB in a csv format, and about 0.2 MB of `lehmer` JSON cells.
_CHUNK = 2048


def _joined(head, items, sep, text, tail, size=None):
    """head, then text(chunk) per `size` items (_CHUNK if None), joined by
    sep, then tail, as pieces; text gives a chunk's items joined by sep."""
    size = size or _CHUNK
    yield head
    for start in range(0, len(items), size):
        yield (sep if start else "") + text(items[start:start + size])
    yield tail


class _HalfBlocks:
    """The `ptm` block, never listed: ptm_halves's low block (b digits, the
    most that fit a chunk, or 1) shifted by each high term in turn; a copy's
    text is made once per shift if tabled, else once per high term."""

    def __init__(self, params):
        b = max([b for b in range(2, params.n + 1) if params.p**b <= _CHUNK], default=1)
        self.shifted, self.high = ptm_halves(params, b)
        self.width, self.values = params.p**b, range(params.p) if params.n > 1 else None
        self.tabled = self.width <= _CHUNK and len(self.high) > params.p

    def _copies(self, text):
        """text(copy) for each shift up to the largest high term, if a shift
        recurs in the high block (n - b >= 2) and a copy fits a chunk."""
        if self.tabled:
            return [*map(text, map(self.shifted, range(max(self.high) + 1)))]

    def pieces(self, head, sep, tail):
        """head, the terms joined by sep (from a table if values recur), then tail."""
        cell = [*map(str, self.values)].__getitem__ if self.values else None
        text = ((lambda terms: sep.join(map(cell, terms))) if cell
                else (lambda terms: json.dumps(terms, separators=(sep, ":"))[1:-1]))
        texts = self._copies(text)
        if texts:
            return _joined(head, self.high, sep, lambda q: sep.join(map(texts.__getitem__, q)),
                           tail, _CHUNK // self.width)
        rows = enumerate(map(self.shifted, self.high))
        return chain((head,), chain.from_iterable(
            _joined(sep if i else "", row, sep, text, "") for i, row in rows), (tail,))

    def csv_rows(self):
        """The csv header and rows, a thousand a piece: row 1000*q + r is
        str(q), r in three digits (unpadded if q = 0), then its term."""
        cell = [f"{v}\n" for v in self.values].__getitem__ if self.values else "%d\n".__mod__
        copies = self._copies(lambda row: [*map(cell, row)])
        labels = (chain.from_iterable(map(copies.__getitem__, self.high)) if copies
                  else map(cell, chain.from_iterable(map(self.shifted, self.high))))
        first, padded = _index_cells()
        yield "n,value\n" + "".join(map(add, first, islice(labels, 1000)))
        for q in range(1, -(-len(self.high) * self.width // 1000)):
            prefix = str(q)
            yield prefix + prefix.join(map(add, padded, islice(labels, 1000)))


class _Pairs(tuple):
    """`lehmer_expand`'s classes of (value, multiplicity) int pairs, each
    class written a chunk at a time."""
    __slots__ = ()


# The csv index cells "r," and "rrr," (three digits) for r < 1000, on first use.
_index_cells = functools.cache(lambda: [[f"{r:{w}}," for r in range(1000)] for w in ("", "03")])


# Each renderer yields a command's csv lines (csv=True) or plain lines, each
# ending in a newline, in pieces.


def _check_line(csv, key, label, flag):
    if csv:
        return f"{key},{'true' if flag else 'false'}\n"
    return f"{label}: {'pass' if flag else 'FAIL'}\n"


def _class_and_sum_lines(csv, classes, sep, text, sums, equal_up_to, csv_key):
    """Class rows, power-sum rows and the agreement degree; a class row is
    its cells joined by sep, text(chunk) giving a chunk's."""
    for k, cls in enumerate(classes):
        yield from _joined(f"class,{k}," if csv else f"class {k}: ", cls, sep, text, "\n")
    for m, row in enumerate(sums):
        yield f"sum,{m},{','.join(row)}\n" if csv else f"m={m}: {' '.join(row)}\n"
    yield (f"{csv_key},{equal_up_to}\n" if csv
           else f"equal power sums through degree {equal_up_to}\n")


def _violation_line(csv, violation, checked_through=None):
    if csv:
        return "first_violation," + (
            "none" if violation is None else ",".join(str(v) for v in violation)
        ) + "\n"
    if violation is None:
        return f"no violation found through degree {checked_through}\n"
    m, j, k = violation
    return f"first violation at m={m} between classes {j} and {k}\n"


def _render_ptm(result, csv):  # the sequence is a _HalfBlocks, as in _json_pieces
    return result["sequence"].csv_rows() if csv else result["sequence"].pieces("", ",", "\n")


def _render_partition(result, csv):
    sep = "," if csv else " "
    yield from _class_and_sum_lines(
        csv, result["classes"], sep, lambda part: sep.join([str(n) for n in part]),
        result["power_sums"], result["esp_verified_through"], "esp_verified_through",
    )
    if "first_violation" in result:
        yield _violation_line(csv, result["first_violation"], result["checked_through"])


def _render_factor(result, csv):
    row_sep, cell_sep = (",", ";") if csv else (" | ", ",")
    text = lambda rows: row_sep.join([c if isinstance(c, str) else cell_sep.join(c) for c in rows])
    for key, label in (("ptm_poly", "block polynomial"), ("divisor", "divisor"),
                       ("cofactor", "cofactor")):
        yield from _joined(f"{key}," if csv else f"{label}: ", result[key], row_sep, text, "\n")
    yield _check_line(csv, "product_check", "product check", result["product_check"])
    yield _check_line(csv, "constructions_agree", "constructions agree",
                      result["constructions_agree"])


def _render_lehmer(result, csv):
    if csv:
        sep, text = ",", lambda part: ",".join([f"{value}:{mult}" for value, mult in part])
    else:
        sep, text = ", ", lambda part: ", ".join(
            [f"{value}" if mult == 1 else f"{value} (x{mult})" for value, mult in part])
    yield from _class_and_sum_lines(
        csv, result["classes"], sep, text, result["power_sums"], result["equal_up_to"],
        "equal_up_to",
    )
    if csv:
        yield _violation_line(csv, result["first_violation"])


def _render_identities(result, csv):
    yield _check_line(csv, "product_identity", "product identity",
                      result["product_identity_holds"])
    yield _check_line(csv, "weighted_sums_vanish",
                      f"weighted sums vanish through degree {result['m']}",
                      result["weighted_sums_vanish"])
    if csv:
        yield _check_line(csv, "all_pass", None, result["all_pass"])


def _holds_long_array(value):
    """Whether value is, or holds, a list or tuple longer than one chunk,
    or a _HalfBlocks or _Pairs, which are written in pieces at any length.

    A dict is looked at through all its values, a shorter list or tuple
    through its first item only: the class lists of a payload are all of
    one length, or close to it, and looking at every item of a short list
    of rows, such as a `factor` payload's coefficients, would cost a short
    job tens of microseconds.
    """
    if isinstance(value, dict):
        return any(map(_holds_long_array, value.values()))
    if not isinstance(value, (list, tuple)) or type(value) is _Pairs:
        return isinstance(value, (_HalfBlocks, _Pairs))
    return len(value) > _CHUNK or (bool(value) and _holds_long_array(value[0]))


def _json_pieces(value):
    """The text of json.dumps(value, check_circular=False), in pieces.

    A value that holds no long array is one json.dumps call.  A dict that
    holds one is written key by key, a list or tuple whose first item holds
    one item by item, and any other list or tuple (a long flat array) a
    chunk of items per json.dumps call (_joined).  So no call holds the text
    of every item of a long array at once, and the pieces are json.dumps's
    own text joined by its own ", " and ": ".  Dict keys must be str, as in
    every envelope.
    """
    if isinstance(value, _HalfBlocks):
        yield from value.pieces("[", ", ", "]")
    elif type(value) is _Pairs:  # a decimal string needs no escaping: json.dumps's text
        text = lambda chunk: ", ".join([f'["{v}", {m}]' for v, m in chunk])
        yield "["
        for k, cls in enumerate(value):
            yield from _joined(", [" if k else "[", cls, ", ", text, "]")
        yield "]"
    elif not _holds_long_array(value):
        yield json.dumps(value, check_circular=False)
    elif isinstance(value, dict):
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{json.dumps(key)}: "
            yield from _json_pieces(item)
            sep = ", "
        yield "}"
    elif _holds_long_array(value[0]):
        sep = "["
        for item in value:
            yield sep
            yield from _json_pieces(item)
            sep = ", "
        yield "]"
    else:
        yield from _joined(
            "[", value, ", ", lambda chunk: json.dumps(chunk, check_circular=False)[1:-1], "]")


def _emit(args, echo, result, elapsed_ms):
    """Write a command's result in one writelines call; the json params are
    the common options around the command's own `echo`."""
    if args.format == "json":
        params = {"p": args.p, **echo, "format": args.format, "budget": args.budget}
        envelope = {
            "command": args.command,
            "params": params,
            "result": result,
            "elapsed_ms": elapsed_ms,
        }
        # Every envelope is a fresh tree, so no cycle can occur.
        pieces = chain(_json_pieces(envelope), ["\n"])
    else:
        pieces = args.render(result, args.format == "csv")
    sys.stdout.writelines(pieces)


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
        "--check-beyond", type=int, help="also report power-sum status up to this degree"
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
    group.add_argument("--symbolic", dest="mode", action="store_const", const="symbolic",
                       default="integer", help="use the generic symbolic vector")

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
    # The collector is paused and the digit limit lifted for the job (see
    # the module docstring); a caller finds both as it left them on every exit.
    collecting = gc.isenabled()
    digits = sys.get_int_max_str_digits()
    gc.disable()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(digits)
        if collecting:
            gc.enable()


def _to_devnull(stream):
    """Point stream at devnull, so the flush at exit retries no refused write."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(message, code):
    """Print an `error:` line and give back code, even if stderr refuses it."""
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)
    return code


def _run(args):
    """Run the parsed command and write its output; the exit code."""
    start = time.perf_counter()
    try:
        echo, result, ok = args.handler(args)
    except BudgetExceededError as exc:
        return _error(exc, EXIT_BUDGET)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)
    except ArithmeticError as exc:  # a division remainder or a listing off its rows: a bug
        return _error(exc, EXIT_VERIFICATION)
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    if sys.stdout is None:  # the process started with no stdout, as `>&-` leaves it
        return _error("cannot write output: stdout is closed", EXIT_OUTPUT)
    try:
        _emit(args, echo, result, elapsed_ms)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except OSError as exc:
        # The reader left (as `head` does) or a device is full: "Note on SIGPIPE", signal docs.
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        return _error(f"cannot write output: {exc}", EXIT_OUTPUT)
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
