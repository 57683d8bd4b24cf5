"""Command line front end.

Every subcommand computes with exact rationals and renders to JSON, CSV
or plain text.  Output is deterministic: running the same command twice
produces byte-identical results.  Exit codes: 0 on success (and on
all-checks-pass for ``verify``), 1 when a verification fails, 2 on usage
errors, 3 when an internal exact division leaves a remainder.

Each command is declared once, as a row of ``_COMMANDS``; the parser and
the degree checks are read off that table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .series import BiSeries, InexactDivision, _csv_text, parse_rational
from .assoc import bch_log_oracle
from .freelie import LieSeries, lyndon_coords_of_assoc
from .bch import bch_dynkin, bch_recursive
from .metabelian import (
    goldberg_c,
    hausdorff_closed,
    kv_solve,
    kv_verify,
    zassenhaus_closed,
)
from .tilde import hausdorff_tilde
from .verify import SUITES, run_suite

__all__ = ["main", "entry"]

CAP_ENV = "MBCH_DEGREE_CAP"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbch",
        description=(
            "Exact Baker-Campbell-Hausdorff computations in the free "
            "Lie algebra on X, Y and in its metabelian quotient."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _, cap, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            if flag == "--method":  # a cap by method names the choices
                options = {"choices": tuple(cap), **options}
            p.add_argument(flag, **options)
        p.add_argument(
            "--degree",
            type=int,
            default=8,
            help="truncation degree (default 8)",
        )
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="text",
            dest="fmt",
            help="output format (default text)",
        )
        p.add_argument(
            "--output",
            default=None,
            help="write to this file instead of stdout",
        )
    return parser


def _usage_error(message: str) -> int:
    print(f"mbch: error: {message}", file=sys.stderr)
    return 2


def _render(e, fmt: str) -> str:
    """A container through its term codec as JSON or CSV, or as text."""
    if fmt == "json":
        return json.dumps(e.to_json_dict(), indent=2)
    return e.to_csv() if fmt == "csv" else str(e)


def _cmd_bch(ns: argparse.Namespace) -> tuple[str, int]:
    n = ns.degree
    if ns.method == "recursive":
        series = bch_recursive(n)
    elif ns.method == "dynkin":
        series = bch_dynkin(n)
    else:
        series = LieSeries(n, lyndon_coords_of_assoc(bch_log_oracle(n)))
    return _render(series, ns.fmt), 0


def _cmd_metabelian(ns: argparse.Namespace) -> tuple[str, int]:
    element = hausdorff_closed(ns.degree)
    h = element.table
    if ns.fmt == "json":
        payload = {"element": element.to_json_dict(), "h": h.to_json_dict()}
        return json.dumps(payload, indent=2), 0
    if ns.fmt == "csv":
        return element.to_csv(), 0
    return f"{element}\nh(x,y) = {h}", 0


def _cmd_goldberg(ns: argparse.Namespace) -> tuple[str, int]:
    return _render(goldberg_c(ns.degree), ns.fmt), 0


def _cmd_zassenhaus(ns: argparse.Namespace) -> tuple[str, int]:
    element = zassenhaus_closed(ns.degree)
    if not ns.per_degree:
        return _render(element, ns.fmt), 0
    if ns.fmt == "csv":
        return element.to_csv(("degree", "k", "l", "c")), 0
    factors = [(d, element.degree_part(d)) for d in range(2, ns.degree + 1)]
    if ns.fmt == "json":
        payload = {
            "truncation": ns.degree,
            "factors": [
                {"degree": d, "terms": part.to_json_dict()["terms"]}
                for d, part in factors
            ],
        }
        return json.dumps(payload, indent=2), 0
    lines = [f"C_{d} = {part}" for d, part in factors]
    return "\n".join(lines), 0


def _cmd_kv_solve(ns: argparse.Namespace) -> tuple[str, int]:
    solution = kv_solve(ns.degree, ns.a, ns.g)
    verified = kv_verify(solution, ns.degree)
    rc = 0 if verified else 1
    if ns.fmt == "json":
        payload = {"element": solution.to_json_dict(), "verified": verified}
        return json.dumps(payload, indent=2), rc
    if ns.fmt == "csv":
        return solution.to_csv(), rc
    status = "yes" if verified else "NO"
    return f"{solution}\nverified: {status}", rc


def _cmd_deeper(ns: argparse.Namespace) -> tuple[str, int]:
    return _render(hausdorff_tilde(ns.degree), ns.fmt), 0


def _cmd_verify(ns: argparse.Namespace) -> tuple[str, int]:
    checks = run_suite(ns.suite, ns.degree)
    passed = all(p for _, p, _ in checks)
    rc = 0 if passed else 1
    if ns.fmt == "json":
        payload = {
            "suite": ns.suite,
            "degree": ns.degree,
            "passed": passed,
            "checks": [
                {"name": n, "passed": p, "detail": d} for n, p, d in checks
            ],
        }
        return json.dumps(payload, indent=2), rc
    if ns.fmt == "csv":
        rows = [
            {"name": n, "result": "pass" if p else "fail", "detail": d}
            for n, p, d in checks
        ]
        return _csv_text(("name", "result", "detail"), rows), rc
    lines = []
    for name, ok, detail in checks:
        suffix = f": {detail}" if (detail and not ok) else ""
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    n_pass = sum(1 for _, p, _ in checks if p)
    lines.append(f"{n_pass} of {len(checks)} checks passed")
    return "\n".join(lines), rc


# One row per command: handler, help line, least degree, cap (for bch a
# map by --method) and own arguments.  Practical caps keep CLI latency in
# the seconds range; the library itself accepts any truncation, and
# MBCH_DEGREE_CAP replaces the cap for whichever command runs.
_COMMANDS = {
    "bch": (
        _cmd_bch,
        "log(e^X e^Y) in the free Lie algebra, Lyndon basis",
        1,
        {"recursive": 16, "dynkin": 12, "oracle": 14},
        [("--method", {
            "default": "recursive",
            "help": "derivation recursion, Dynkin bracketing, or word-level log",
        })],
    ),
    "metabelian": (
        _cmd_metabelian,
        "closed form of log(e^X e^Y) modulo [[L,L],[L,L]], with h(x,y)",
        2, 64, [],
    ),
    "goldberg": (
        _cmd_goldberg,
        "coefficients of the words X^r Y^s in log(e^X e^Y)",
        2, 64, [],
    ),
    "zassenhaus": (
        _cmd_zassenhaus,
        "metabelian part of the correction factors in e^(X+Y) = e^X e^Y ...",
        2, 64,
        [("--per-degree", {
            "action": "store_true",
            "help": "list each homogeneous factor separately",
        })],
    ),
    "kv-solve": (
        _cmd_kv_solve,
        "solve [X,F] + [Y,F(-Y,-X)] = log(e^X e^Y) - X - Y in the quotient",
        2, 64,
        [("--a", {
            "default": "0",
            "help": "free rational coefficient of X in the solution, such as 1/3 "
            "or 0.25 (default 0); write a negative value as --a=-113/3",
        }), ("--g", {
            "default": "zero",
            "help": "antisymmetric homogeneous freedom: inline JSON series or 'zero'",
        })],
    ),
    "deeper": (
        _cmd_deeper,
        "Hausdorff series in the quotient by [[L,L],[[L,L],[L,L]]]",
        2, 20, [],
    ),
    "verify": (
        _cmd_verify,
        "run cross-check suites and report pass/fail",
        4, 12,
        [("--suite", {
            "choices": ("all", *SUITES),
            "default": "all",
            "help": "which suite to run (default all)",
        })],
    ),
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _, low, cap, _ = _COMMANDS[ns.command]

    if ns.command == "kv-solve":
        try:
            ns.a = parse_rational(ns.a)
        except (ValueError, ZeroDivisionError):
            return _usage_error(f"invalid rational for --a: {ns.a!r}")
        if ns.g == "zero":
            ns.g = None
        else:
            try:
                ns.g = BiSeries.from_json_dict(json.loads(ns.g))
            except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError):
                # json.JSONDecodeError is a ValueError; deep nesting
                # exhausts the decoder's recursion
                return _usage_error("malformed --g: expected 'zero' or series JSON")

    if isinstance(cap, dict):
        cap = cap[ns.method]
    env_cap = os.environ.get(CAP_ENV)
    if env_cap is not None:
        try:
            cap = int(env_cap)
        except ValueError:
            cap = 0
        if cap < 1:
            return _usage_error(f"invalid {CAP_ENV}: {env_cap!r}")
    if ns.degree < low:
        return _usage_error(f"degree must be at least {low} for {ns.command}")
    if ns.degree > cap:
        return _usage_error(
            f"degree {ns.degree} exceeds the cap {cap} for this command "
            f"(override with {CAP_ENV})"
        )

    try:
        text, rc = handler(ns)
    except InexactDivision as exc:
        print(f"mbch: internal divisibility violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # Only kv-solve takes free-form mathematical input whose
        # validation happens inside the library call.
        if ns.command == "kv-solve":
            return _usage_error(str(exc))
        raise

    if not text.endswith("\n"):
        text += "\n"
    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _usage_error(f"cannot write {ns.output!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return rc


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
