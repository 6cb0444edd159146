"""Command-line interface.

Exit codes: 0 on success, 2 on a domain error (the error class name is
printed verbatim; running out of memory is reported as ResourceLimit), 1
on a usage error.  Pass --json for a structured payload; form syntax
inside the payload parses back with parse_form / parse_gw to values
semantically equal to the human output.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import a1deg, charclass, enumgeo, gwcore, traceform
from .errors import DomainError, FormSyntaxError, InvalidEntry, ResourceLimit
from .fields import Q
from .gwcore import (
    GWClass,
    format_form,
    format_gw,
    format_gw_grouped,
    format_witt,
    hyperbolic_normal_form,
    parse_form,
    parse_gw,
    witt_class,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wittcalc", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit a JSON payload")
    sub = parser.add_subparsers(dest="command", required=True)

    gw = sub.add_parser("gw", help="quadratic-form and GW-class operations")
    gwsub = gw.add_subparsers(dest="gw_command", required=True)
    p = gwsub.add_parser("classify", help="rank, signature, disc, Hasse data")
    p.add_argument("form")
    p = gwsub.add_parser("isometric", help="Hasse-Minkowski isometry test")
    p.add_argument("form1")
    p.add_argument("form2")
    p = gwsub.add_parser("residue", help="second residue at a prime")
    p.add_argument("form")
    p.add_argument("-p", dest="prime", type=int, required=True)
    p = gwsub.add_parser("invert", help="invert a rank-1 signature-1 class")
    p.add_argument("gwclass")

    p = sub.add_parser("degree", help="Brouwer degree of a pointed self-map")
    p.add_argument("--map", dest="map_name", help="a member of the G family, e.g. G3+")
    p.add_argument("--num", help="numerator coefficients, lowest degree first")
    p.add_argument("--den", help="denominator coefficients, lowest degree first")

    p = sub.add_parser("traceform", help="trace forms of real cyclotomic fields")
    p.add_argument("--p", dest="prime", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--verify-tp", action="store_true")
    g.add_argument("--bayer-suarez", action="store_true")
    g.add_argument("--serre-w2", action="store_true")

    p = sub.add_parser("charclass", help="Euler and Pontryagin classes")
    p.add_argument("kind", choices=["euler", "pontryagin"])
    p.add_argument("bundle")

    p = sub.add_parser("lines", help="line counts on hypersurfaces")
    p.add_argument("--d", dest="d", type=int, required=True)
    p.add_argument("--quadratic", action="store_true")

    p = sub.add_parser("euler-cellular", help="cellular Euler characteristics")
    p.add_argument("--space", required=True, help="P<n>, Gr2,<n> or Fl<m>")

    return parser


def _coeff_list(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise FormSyntaxError(f"bad coefficient list {text!r}") from exc


_MAP_RE = re.compile(r"^G(\d+)([+-])$")
_SPACE_RE = re.compile(r"^(?:P(\d+)|Gr2,(\d+)|Fl(\d+))$")


def _emit(args: argparse.Namespace, human: str, payload: dict) -> int:
    if args.json:
        payload.setdefault("status", "ok")
        payload.setdefault("provenance", "computed")
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)
    return 0


def _gw_with_stats(cls: GWClass) -> str:
    return (
        f"{format_gw_grouped(cls)}  "
        f"(rank {cls.rank}, signature {cls.signature})"
    )


def _run_gw(args: argparse.Namespace) -> int:
    if args.gw_command == "classify":
        q = parse_form(args.form, Q)
        inv = gwcore.invariants(q)
        hasse = {str(k): v for k, v in sorted(inv.hasse.items(), key=str)}
        if hasse:
            at = ",".join(sorted(hasse, key=lambda s: (s != "inf", s)))
            hasse_text = f"hasse -1 at {at}"
        else:
            hasse_text = "hasse all +1"
        human = (
            f"rank {inv.rank}, signature {inv.signature}, "
            f"disc {inv.disc}, {hasse_text}"
        )
        return _emit(
            args,
            human,
            {
                "operation": "gw.classify",
                "inputs": {"form": format_form(q)},
                "result": {
                    "rank": inv.rank,
                    "signature": inv.signature,
                    "disc": inv.disc,
                    "hasse": hasse,
                },
            },
        )
    if args.gw_command == "isometric":
        q1 = parse_form(args.form1, Q)
        q2 = parse_form(args.form2, Q)
        ans = gwcore.is_isometric(q1, q2)
        return _emit(
            args,
            "true" if ans else "false",
            {
                "operation": "gw.isometric",
                "inputs": {"form1": format_form(q1), "form2": format_form(q2)},
                "result": ans,
            },
        )
    if args.gw_command == "residue":
        q = parse_form(args.form, Q)
        res = gwcore.second_residue(q, args.prime)
        if isinstance(res, int):
            human = f"{res} (mod 2)"
            result: object = res
        else:
            human = format_witt(res)
            result = format_witt(res)
        return _emit(
            args,
            human,
            {
                "operation": "gw.residue",
                "inputs": {"form": format_form(q), "p": args.prime},
                "result": result,
            },
        )
    x = parse_gw(args.gwclass, Q)
    inv = gwcore.invert_unit(x)
    return _emit(
        args,
        format_gw(inv),
        {
            "operation": "gw.invert",
            "inputs": {"class": format_gw(x)},
            "result": format_gw(inv),
        },
    )


def _run_degree(args: argparse.Namespace) -> int:
    if args.map_name and (args.num or args.den):
        raise _UsageError("give either --map or --num/--den, not both")
    if args.map_name:
        m = _MAP_RE.match(args.map_name)
        if not m:
            raise FormSyntaxError(f"bad map name {args.map_name!r} (expected G<m>+/-)")
        f = a1deg.build_G(int(m.group(1)), 1 if m.group(2) == "+" else -1)
        source = args.map_name
    else:
        if not args.num or not args.den:
            raise _UsageError("degree needs --map or both --num and --den")
        f = a1deg.RationalMapP1.make(_coeff_list(args.num), _coeff_list(args.den))
        source = "num/den"
    cls = a1deg.a1_degree(f)
    shown = hyperbolic_normal_form(cls) or cls
    w = witt_class(cls)
    human = f"{format_gw(shown)} (Witt class {format_witt(w)})"
    return _emit(
        args,
        human,
        {
            "operation": "degree",
            "inputs": {"map": source},
            "result": {
                "class": format_gw(shown),
                "diagonalization": format_gw(cls),
                "rank": cls.rank,
                "witt": format_witt(w),
            },
        },
    )


def _run_traceform(args: argparse.Namespace) -> int:
    p = args.prime
    if args.verify_tp:
        ans = traceform.verify_Tp(p)
        op, result = "traceform.verify_tp", ans
        human = "true" if ans else "false"
    elif args.bayer_suarez:
        ans = traceform.verify_bayer_suarez(p)
        op, result = "traceform.bayer_suarez", ans
        human = "true" if ans else "false"
    elif args.serre_w2:
        ans = traceform.serre_w2_check(p)
        op, result = "traceform.serre_w2", ans
        human = "true" if ans else "false"
    else:
        q = traceform.trace_form_Q4p(p)
        op, result = "traceform.q4p", format_form(q)
        human = format_form(q)
    return _emit(
        args,
        human,
        {"operation": op, "inputs": {"p": p}, "result": result},
    )


def _run_charclass(args: argparse.Namespace) -> int:
    expr = charclass.parse_bundle(args.bundle)
    if args.kind == "euler":
        value = charclass.euler(expr)
    else:
        value = charclass.pontryagin_total(expr)
    return _emit(
        args,
        str(value),
        {
            "operation": f"charclass.{args.kind}",
            "inputs": {"bundle": args.bundle.strip()},
            "result": str(value),
        },
    )


# N_686 has 4300 digits, the most Python prints from an int by default
# (sys.get_int_max_str_digits); N_687 has 4307.
_LINES_MAX_D = 686


def _run_lines(args: argparse.Namespace) -> int:
    if args.d > _LINES_MAX_D:
        raise InvalidEntry(
            f"lines supports d <= {_LINES_MAX_D}: N_d for larger d has more "
            "than 4300 digits, Python's default limit on int-to-string conversion"
        )
    n = enumgeo.lines_count(args.d)
    if args.quadratic:
        cls = enumgeo.quadratic_lines_class(args.d)
        return _emit(
            args,
            _gw_with_stats(cls),
            {
                "operation": "lines.quadratic",
                "inputs": {"d": args.d},
                "result": {
                    "class": format_gw(cls),
                    "grouped": format_gw_grouped(cls),
                    "rank": cls.rank,
                    "signature": cls.signature,
                    "count": n,
                },
            },
        )
    return _emit(
        args,
        str(n),
        {"operation": "lines.count", "inputs": {"d": args.d}, "result": n},
    )


def _run_cellular(args: argparse.Namespace) -> int:
    m = _SPACE_RE.match(args.space)
    if not m:
        raise FormSyntaxError(f"bad space {args.space!r} (expected P<n>, Gr2,<n>, Fl<m>)")
    if m.group(1) is not None:
        space: enumgeo.CellularSpace = enumgeo.ProjectiveSpace(int(m.group(1)))
    elif m.group(2) is not None:
        space = enumgeo.Grassmannian(2, int(m.group(2)))
    else:
        flm = int(m.group(3))
        chi = enumgeo.flag_chi_top(flm)
        return _emit(
            args,
            f"chi_top = {chi}",
            {
                "operation": "euler-cellular",
                "inputs": {"space": args.space},
                "result": {"chi_top": chi},
            },
        )
    cls = enumgeo.cellular_euler(space)
    return _emit(
        args,
        _gw_with_stats(cls),
        {
            "operation": "euler-cellular",
            "inputs": {"space": args.space},
            "result": {
                "class": format_gw(cls),
                "grouped": format_gw_grouped(cls),
                "rank": cls.rank,
                "signature": cls.signature,
                "chi_top": cls.signature,
            },
        },
    )


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    if args.command == "gw":
        return _run_gw(args)
    if args.command == "degree":
        return _run_degree(args)
    if args.command == "traceform":
        return _run_traceform(args)
    if args.command == "charclass":
        return _run_charclass(args)
    if args.command == "lines":
        return _run_lines(args)
    return _run_cellular(args)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            return run(argv)
        except MemoryError:
            pass  # raise outside this block, so the failed call's frames are freed
        raise ResourceLimit("the computation ran out of memory")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        if "--json" in argv:
            print(
                json.dumps(
                    {
                        "status": "error",
                        "error": type(exc).__name__,
                        "message": str(exc),
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
