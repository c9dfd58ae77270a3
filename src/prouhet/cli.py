"""Command-line front end: every construction and check as a subcommand.

Output formats: json (default, an envelope with the payload under
"result"; every field except the wall-clock "elapsed_ms" is deterministic),
csv, and plain text.  Big integers always serialize as decimal strings.
Exit codes: 0 success / all checks pass, 1 verification failure, including
a division that leaves a remainder (NotDivisibleError, which means a bug),
2 usage or validation error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .factorization import (
    NotDivisibleError,
    binomial_product,
    cofactor_by_division,
    cofactor_recursive,
    first_coefficient_mismatch,
    ptm_polynomial,
)
from .lehmer import (
    LehmerSpec,
    lehmer_expand,
    lehmer_verify,
    lehmer_weighted_sum,
    product_identity_sides,
)
from .partition import power_sum_table, prouhet_partition, verify_esp
from .sequence import DEFAULT_BUDGET, BudgetExceededError, PTMParams, ZeroSumVector, ptm_block

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _coeff_payload(c):
    if isinstance(c, int):
        return str(c)
    return [str(v) for v in c.coeffs]


def _poly_payload(poly):
    return [_coeff_payload(c) for c in poly.coeffs]


def _coeff_cell(c):
    payload = _coeff_payload(c)
    return payload if isinstance(payload, str) else ";".join(payload)


def _bool_cell(flag):
    return "true" if flag else "false"


def _parse_int_list(text, what):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _cmd_ptm(args):
    params = PTMParams(args.p, args.n, args.budget)
    result = {"p": args.p, "n": args.n, "sequence": ptm_block(params)}
    echo = {"p": args.p, "n": args.n, "format": args.format, "budget": args.budget}
    return "ptm", echo, result, True


def _cmd_partition(args):
    params = PTMParams.from_degree(args.p, args.m, args.budget)
    part = prouhet_partition(params)
    table = power_sum_table(part)
    through = args.m if args.check_beyond is None else max(args.m, args.check_beyond)
    report = verify_esp(part, through)
    result = {
        "p": args.p,
        "m": args.m,
        "classes": [list(cls) for cls in part.classes],
        "power_sums": [[str(s) for s in row] for row in table.sums],
        "esp_verified_through": report.equal_up_to,
    }
    if args.check_beyond is not None:
        result["checked_through"] = through
        result["first_violation"] = (
            list(report.first_violation) if report.first_violation else None
        )
    echo = {
        "p": args.p,
        "m": args.m,
        "check_beyond": args.check_beyond,
        "format": args.format,
        "budget": args.budget,
    }
    ok = report.equal_up_to >= args.m
    return "partition", echo, result, ok


def _cmd_factor(args):
    params = PTMParams(args.p, args.n, args.budget)
    if args.symbolic:
        vector = ZeroSumVector.symbolic(args.p)
        mode = "symbolic"
    else:
        values = _parse_int_list(args.coeffs, "--coeffs")
        if len(values) != args.p:
            raise ValueError(f"expected {args.p} coefficients, got {len(values)}")
        vector = ZeroSumVector.from_integers(values)
        mode = "integer"
    block_poly = ptm_polynomial(params, vector)
    divisor = binomial_product(params)
    cofactor = cofactor_by_division(params, vector)
    recursive = cofactor_recursive(params, vector)
    product_check = cofactor * divisor == block_poly
    agree = cofactor == recursive
    result = {
        "p": args.p,
        "n": args.n,
        "mode": mode,
        "vector": [_coeff_payload(v) for v in vector],
        "ptm_poly": _poly_payload(block_poly),
        "divisor": _poly_payload(divisor),
        "cofactor": _poly_payload(cofactor),
        "product_check": product_check,
        "constructions_agree": agree,
    }
    echo = {
        "p": args.p,
        "n": args.n,
        "mode": mode,
        "coeffs": None if args.symbolic else args.coeffs,
        "format": args.format,
        "budget": args.budget,
    }
    return "factor", echo, result, product_check and agree


def _cmd_lehmer(args):
    weights = _parse_int_list(args.mu, "--mu")
    spec = LehmerSpec(args.p, tuple(weights), args.budget)
    multiset = lehmer_expand(spec)
    report = lehmer_verify(spec)
    result = {
        "p": args.p,
        "mu": list(spec.mu),
        "classes": [
            [[str(value), mult] for value, mult in cls] for cls in multiset.classes
        ],
        "power_sums": [[str(s) for s in row] for row in report.power_sums],
        "equal_up_to": report.equal_up_to,
        "first_violation": (
            list(report.first_violation) if report.first_violation else None
        ),
    }
    echo = {"p": args.p, "mu": args.mu, "format": args.format, "budget": args.budget}
    ok = report.first_violation is None
    return "lehmer", echo, result, ok


def _cmd_identities(args):
    lhs, rhs = product_identity_sides(args.p, args.m, args.budget)
    mismatch = first_coefficient_mismatch(lhs, rhs)
    spec = LehmerSpec.base_powers(args.p, args.m, args.budget)
    first_nonvanishing = None
    for m in range(args.m + 1):
        value = lehmer_weighted_sum(spec, m)
        if value:
            first_nonvanishing = {"m": m, "value": _coeff_payload(value)}
            break
    identity_ok = mismatch is None
    vanish_ok = first_nonvanishing is None
    result = {
        "p": args.p,
        "m": args.m,
        "product_identity_holds": identity_ok,
        "first_mismatch": None
        if mismatch is None
        else {
            "exponent": mismatch[0],
            "lhs": _coeff_payload(lhs.coefficient(mismatch[0])),
            "rhs": _coeff_payload(rhs.coefficient(mismatch[0])),
        },
        "weighted_sums_vanish": vanish_ok,
        "first_nonvanishing": first_nonvanishing,
        "all_pass": identity_ok and vanish_ok,
    }
    echo = {"p": args.p, "m": args.m, "format": args.format, "budget": args.budget}
    return "identities", echo, result, identity_ok and vanish_ok


def _plain_lines(command, result):
    if command == "ptm":
        return [",".join(str(v) for v in result["sequence"])]
    if command == "partition":
        lines = [
            f"class {k}: " + " ".join(str(n) for n in cls)
            for k, cls in enumerate(result["classes"])
        ]
        lines += [
            f"m={m}: " + " ".join(row) for m, row in enumerate(result["power_sums"])
        ]
        lines.append(f"equal power sums through degree {result['esp_verified_through']}")
        if "first_violation" in result:
            violation = result["first_violation"]
            if violation is None:
                lines.append(f"no violation found through degree {result['checked_through']}")
            else:
                m, j, k = violation
                lines.append(f"first violation at m={m} between classes {j} and {k}")
        return lines
    if command == "factor":
        def _poly_text(cells):
            return " | ".join(c if isinstance(c, str) else ",".join(c) for c in cells)

        return [
            f"block polynomial: {_poly_text(result['ptm_poly'])}",
            f"divisor: {_poly_text(result['divisor'])}",
            f"cofactor: {_poly_text(result['cofactor'])}",
            f"product check: {'pass' if result['product_check'] else 'FAIL'}",
            f"constructions agree: {'pass' if result['constructions_agree'] else 'FAIL'}",
        ]
    if command == "lehmer":
        lines = []
        for k, cls in enumerate(result["classes"]):
            entries = ", ".join(
                value if mult == 1 else f"{value} (x{mult})" for value, mult in cls
            )
            lines.append(f"class {k}: {entries}")
        lines += [
            f"m={m}: " + " ".join(row) for m, row in enumerate(result["power_sums"])
        ]
        lines.append(f"equal power sums through degree {result['equal_up_to']}")
        return lines
    if command == "identities":
        return [
            f"product identity: {'pass' if result['product_identity_holds'] else 'FAIL'}",
            f"weighted sums vanish through degree {result['m']}: "
            + ("pass" if result["weighted_sums_vanish"] else "FAIL"),
        ]
    raise ValueError(f"unknown command {command!r}")


def _csv_lines(command, result):
    if command == "ptm":
        return ["n,value"] + [f"{i},{v}" for i, v in enumerate(result["sequence"])]
    if command == "partition":
        lines = [
            f"class,{k}," + ",".join(str(n) for n in cls)
            for k, cls in enumerate(result["classes"])
        ]
        lines += [f"sum,{m}," + ",".join(row) for m, row in enumerate(result["power_sums"])]
        lines.append(f"esp_verified_through,{result['esp_verified_through']}")
        if "first_violation" in result:
            violation = result["first_violation"]
            lines.append(
                "first_violation,none"
                if violation is None
                else "first_violation," + ",".join(str(v) for v in violation)
            )
        return lines
    if command == "factor":
        def _poly_row(name, cells):
            return f"{name}," + ",".join(
                c if isinstance(c, str) else ";".join(c) for c in cells
            )

        return [
            _poly_row("ptm_poly", result["ptm_poly"]),
            _poly_row("divisor", result["divisor"]),
            _poly_row("cofactor", result["cofactor"]),
            f"product_check,{_bool_cell(result['product_check'])}",
            f"constructions_agree,{_bool_cell(result['constructions_agree'])}",
        ]
    if command == "lehmer":
        lines = [
            f"class,{k}," + ",".join(f"{value}:{mult}" for value, mult in cls)
            for k, cls in enumerate(result["classes"])
        ]
        lines += [f"sum,{m}," + ",".join(row) for m, row in enumerate(result["power_sums"])]
        lines.append(f"equal_up_to,{result['equal_up_to']}")
        violation = result["first_violation"]
        lines.append(
            "first_violation,none"
            if violation is None
            else "first_violation," + ",".join(str(v) for v in violation)
        )
        return lines
    if command == "identities":
        return [
            f"product_identity,{_bool_cell(result['product_identity_holds'])}",
            f"weighted_sums_vanish,{_bool_cell(result['weighted_sums_vanish'])}",
            f"all_pass,{_bool_cell(result['all_pass'])}",
        ]
    raise ValueError(f"unknown command {command!r}")


def _emit(fmt, command, echo, result, elapsed_ms):
    if fmt == "json":
        envelope = {
            "command": command,
            "params": echo,
            "result": result,
            "elapsed_ms": elapsed_ms,
        }
        print(json.dumps(envelope))
    elif fmt == "csv":
        print("\n".join(_csv_lines(command, result)))
    else:
        print("\n".join(_plain_lines(command, result)))


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

    ptm = sub.add_parser(
        "ptm", parents=[common], help="digit-sum residue sequence block"
    )
    ptm.add_argument("--p", type=int, required=True, help="base, >= 2")
    ptm.add_argument("--n", type=int, required=True, help="block exponent, >= 1")
    ptm.set_defaults(handler=_cmd_ptm)

    part = sub.add_parser(
        "partition",
        parents=[common],
        help="digit-sum partition with power-sum table and verification",
    )
    part.add_argument("--p", type=int, required=True, help="base, >= 2")
    part.add_argument("--m", type=int, required=True, help="guaranteed agreement degree, >= 0")
    part.add_argument(
        "--check-beyond",
        type=int,
        default=None,
        dest="check_beyond",
        help="also report power-sum status up to this degree",
    )
    part.set_defaults(handler=_cmd_partition)

    factor = sub.add_parser(
        "factor",
        parents=[common],
        help="factor the block polynomial into cofactor times binomial product",
    )
    factor.add_argument("--p", type=int, required=True, help="base, >= 2")
    factor.add_argument("--n", type=int, required=True, help="block exponent, >= 1")
    group = factor.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--coeffs", help="comma-separated integers of length p summing to zero"
    )
    group.add_argument(
        "--symbolic", action="store_true", help="use the generic symbolic vector"
    )
    factor.set_defaults(handler=_cmd_factor)

    lehmer = sub.add_parser(
        "lehmer",
        parents=[common],
        help="weighted multiset classes with power-sum verification",
    )
    lehmer.add_argument("--p", type=int, required=True, help="base, >= 2")
    lehmer.add_argument(
        "--mu", required=True, help="comma-separated positive integer weights"
    )
    lehmer.set_defaults(handler=_cmd_lehmer)

    identities = sub.add_parser(
        "identities",
        parents=[common],
        help="root-of-unity product identity and weighted-sum vanishing checks",
    )
    identities.add_argument("--p", type=int, required=True, help="base, >= 2")
    identities.add_argument("--m", type=int, required=True, help="top degree, >= 0")
    identities.set_defaults(handler=_cmd_identities)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        command, echo, result, ok = args.handler(args)
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
    _emit(args.format, command, echo, result, elapsed_ms)
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
