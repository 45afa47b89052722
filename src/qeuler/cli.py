"""Command-line front end.

Subcommands: numbers, poly, zeta, continue, curve, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 numerical
non-convergence or overflow.

Each subcommand builds its text lines and a list of rows (dicts), and one
emitter writes them as text, JSON or CSV.  The curve grid, the one large
output, builds its dict rows only for JSON; its CSV lines come formatted,
each s once per row and each w once per column, and the emitter writes them
as they are.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .continuation import curve_grid, euler_poly_continuation
from .errors import NonConvergenceError, PoleError, QEulerError
from .exact import _euler_numerators, _reduced_euler_number, exact_euler_poly
from .kernel import DEFAULT_CONFIG, EngineConfig, SeriesValue, as_index, as_qparameter, check_order_terms
from .numeric import euler_numbers, euler_poly
from .verification import run_checks
from .zeta import euler_continuation, euler_continuation_deriv, qzeta, qzeta_deriv, qzeta_hurwitz

__all__ = ["parse_complex", "main", "run"]

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(f"^({_FLOAT})$")
_RE_IMAG = re.compile(f"^({_FLOAT})i$")
_RE_BOTH = re.compile(rf"^({_FLOAT})([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")
# CSV field templates by value type (an int or a bool prints as str() does).
_CSV_FIELD = {float: "{%d:.17g}", str: '"{%d}"'}


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', 'a+bi', or 'a-bi' with decimal literals."""
    t = text.strip().replace(" ", "")
    m = _RE_REAL.match(t)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_IMAG.match(t)
    if m:
        return complex(0.0, float(m.group(1)))
    m = _RE_BOTH.match(t)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}")


def _parse_range(text: str) -> tuple[float, float, float]:
    # Only splits the fields; inclusive_range checks their values.
    try:
        lo, hi, step = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must be min:max:step, got {text!r}") from None
    return lo, hi, step


def _join_negative_values(argv: list[str]) -> list[str]:
    # "--w -0.3" becomes "--w=-0.3", so that argparse reads a value that
    # begins with a minus sign as the value of the option before it.  No
    # option name starts with a digit, so nothing else is joined.
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _fmt_complex(z: complex, sig: int = 10) -> str:
    if z.imag == 0.0:
        return f"{z.real:.{sig}g}"
    op = "+" if z.imag >= 0 else "-"
    return f"{z.real:.{sig}g}{op}{abs(z.imag):.{sig}g}i"


def _emit(fmt: str, meta: dict, text: list[str], rows: list[dict], key=None, body=None, csv=None) -> int:
    """Write one result and return exit code 0.

    text is written as it is.  JSON is {**meta, **rows[0]} when key is None,
    else {**meta, key: rows}, with body in place of rows where given; a
    complex field x is written [re, im].  CSV is a header and one line per
    row: a complex field x fills the columns x_re,x_im, floats are written
    .17g and strings quoted.  The fields of the first row fix the columns.
    csv, where given, is those lines, header first, formatted by the caller.
    """
    if fmt == "json":
        obj = {**meta, **rows[0]} if key is None else {**meta, key: rows if body is None else body}
        text = [json.dumps(obj, default=lambda z: [z.real, z.imag])]
    elif csv is not None:
        text = csv
    elif fmt == "csv":
        names, fields = [], []
        for i, (name, value) in enumerate(rows[0].items()):
            if isinstance(value, complex):
                names += [f"{name}_re", f"{name}_im"]
                fields.append("{%d.real:.17g},{%d.imag:.17g}" % (i, i))
            else:
                names.append(name)
                fields.append(_CSV_FIELD.get(type(value), "{%d}") % i)
        line = ",".join(fields)
        text = [",".join(names)] + [line.format(*row.values()) for row in rows]
    print("\n".join(text))
    return 0


def _series(sv: SeriesValue) -> tuple[list[str], list[dict]]:
    # Text lines and the one row of a zeta or continuation value.
    text = [
        f"value       = {_fmt_complex(sv.value, 15)}",
        f"error_bound = {sv.error_bound:.3e}",
        f"terms_used  = {sv.terms_used}",
        f"converged   = {sv.converged}",
    ]
    row = {"re": sv.value.real, "im": sv.value.imag, "error_bound": sv.error_bound,
           "terms_used": sv.terms_used, "converged": sv.converged}
    return text, [row]


def _cmd_numbers(args, cfg, qp, meta) -> int:
    n = as_index(args.n, "--n")
    ns = range(n + 1)
    if args.exact:
        check_order_terms(n, cfg)
        table = _euler_numerators(n + 1)  # one for every E_n
        rendered = [str(_reduced_euler_number(table, n)) for n in ns]
        text = [f"E_{n} = {r}" for n, r in zip(ns, rendered)]
        rows = [{"n": n, "exact": r} for n, r in zip(ns, rendered)]
        # The JSON maps each n, as a string, to its rendered value.
        return _emit(args.format, meta, text, rows, "exact", dict(zip(map(str, ns), rendered)))
    values = euler_numbers(n, qp, cfg)
    text = [f"q-Euler numbers at q = {_fmt_complex(qp.q)}"]
    text += [f"  E_{n} = {_fmt_complex(v)}" for n, v in zip(ns, values)]
    rows = [{"n": n, "re": v.real, "im": v.imag} for n, v in zip(ns, values)]
    return _emit(args.format, meta, text, rows, "values")


def _cmd_poly(args, cfg, qp, meta) -> int:
    if args.exact:
        check_order_terms(args.n, cfg)
        x = as_index(args.x, "--x")
        value = str(exact_euler_poly(args.n, x, args.h))
        text = [f"E_{args.n}({x}, {args.h} | q) = {value}"]
        return _emit(args.format, meta, text, [{"n": args.n, "x": x, "h": args.h, "exact": value}])
    v = euler_poly(args.n, args.x, args.h, qp, cfg)
    text = [f"E_{args.n}({_fmt_complex(args.x)}, {args.h} | q) = {_fmt_complex(v)}"]
    return _emit(args.format, meta, text, [{"n": args.n, "x": args.x, "h": args.h, "re": v.real, "im": v.imag}])


def _cmd_zeta(args, cfg, qp, meta) -> int:
    if args.deriv:
        sv, kind = qzeta_deriv(args.s, args.h, qp, x=args.x, config=cfg), "zeta-derivative"
    elif args.x is not None:
        sv, kind = qzeta_hurwitz(args.s, args.x, args.h, qp, cfg), "zeta-hurwitz"
    else:
        sv, kind = qzeta(args.s, args.h, qp, cfg), "zeta"
    meta = {**meta, "kind": kind, "s": args.s, "h": args.h}
    if args.x is not None:
        meta["x"] = args.x
    return _emit(args.format, meta, *_series(sv))


def _cmd_continue(args, cfg, qp, meta) -> int:
    if not 0 <= args.s < math.inf:
        raise ValueError(f"continue needs a finite --s >= 0, got {args.s!r}")
    if args.w is not None:
        if args.deriv:
            raise ValueError("--deriv cannot be combined with --w")
        v = euler_poly_continuation(args.s, args.w, qp, cfg)
        text = [f"E_q({args.s:g}, {_fmt_complex(args.w)}) = {_fmt_complex(v)}"]
        return _emit(args.format, meta, text, [{"s": args.s, "w": args.w, "re": v.real, "im": v.imag}])
    if args.deriv:
        sv, kind = euler_continuation_deriv(args.s, qp, cfg), "continuation-derivative"
    else:
        sv, kind = euler_continuation(args.s, qp, cfg), "continuation"
    return _emit(args.format, {**meta, "kind": kind, "s": args.s}, *_series(sv))


def _cmd_curve(args, cfg, qp, meta) -> int:
    grid = curve_grid(*args.s_range, *args.w_range, qp, cfg)
    meta = {**meta, "config": grid.metadata}
    if args.format == "json":
        rows = [
            {"s": s, "w": w, "re": z.real, "im": z.imag}
            for s, row in zip(grid.s_values, grid.values)
            for w, z in zip(grid.w_values, row)
        ]
        return _emit("json", meta, [], rows, "samples")
    # The CSV of those rows, with each s formatted once per row and each w
    # once per column.
    ws = [f"{w:.17g}," for w in grid.w_values]
    lines = ["s,w,re,im"]
    for s, row in zip(grid.s_values, grid.values):
        head = f"{s:.17g},"
        lines += [f"{head}{w}{z.real:.17g},{z.imag:.17g}" for w, z in zip(ws, row)]
    return _emit("csv", meta, [], [], csv=lines)


def _cmd_verify(args, cfg, qp, meta) -> int:
    results = run_checks(
        qp,
        max_n=args.max_n,
        max_k=args.max_k,
        config=cfg,
        exact_only=args.exact_only,
        numeric_only=args.numeric_only,
    )
    width = max(len(r.name) for r in results) + 2
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"[{status}] {r.name:<{width}} {r.detail}")
        if r.note:
            print(f"       note: {r.note}")
    print(f"{len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared by every later one in the process:
    # parse_args leaves the parser as it found it, and building it costs
    # more than most requests.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=parse_complex, required=True, help="deformation parameter, |q| < 1")
    common.add_argument("--tol", type=float, default=DEFAULT_CONFIG.rel_tol, help="relative series tolerance")
    common.add_argument("--max-terms", type=int, default=DEFAULT_CONFIG.max_terms, help="series term budget")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")

    parser = argparse.ArgumentParser(prog="qeuler", description="q-Euler numbers, polynomials, zeta values, and deformation curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("numbers", parents=[common, fmt], help="q-Euler numbers E_0..E_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="emit exact rational functions of q")
    p.set_defaults(func=_cmd_numbers)

    p = sub.add_parser("poly", parents=[common, fmt], help="q-Euler polynomial E_n(x, h | q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_complex, required=True)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="exact output; needs integer x, h")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("zeta", parents=[common, fmt], help="q-deformed alternating zeta")
    p.add_argument("--s", type=parse_complex, required=True)
    p.add_argument("--x", type=parse_complex, default=None, help="shift for the Hurwitz-type variant")
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--deriv", action="store_true", help="order-derivative instead of the value")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("continue", parents=[common, fmt], help="continued numbers E_q(s) and deformation E_q(s, w)")
    p.add_argument("--s", type=float, required=True, help="real order, s >= 0")
    p.add_argument("--w", type=parse_complex, default=None)
    p.add_argument("--deriv", action="store_true")
    p.set_defaults(func=_cmd_continue)

    p = sub.add_parser("curve", parents=[common], help="sample the deformation on an (s, w) grid")
    p.add_argument("--s-range", type=_parse_range, required=True, metavar="MIN:MAX:STEP")
    p.add_argument("--w-range", type=_parse_range, required=True, metavar="MIN:MAX:STEP")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="grid output format")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("verify", parents=[common], help="run the identity and invariant suite")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-k", type=int, default=6)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact-only", action="store_true")
    group.add_argument("--numeric-only", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        # One prologue for every subcommand: the engine policy, the validated
        # q, and the fields every JSON document starts with.
        cfg = EngineConfig(rel_tol=args.tol, max_terms=args.max_terms)
        qp = as_qparameter(args.q)
        meta = {
            "q": {"re": qp.q.real, "im": qp.q.imag},
            "config": {"rel_tol": cfg.rel_tol, "max_terms": cfg.max_terms},
        }
        return args.func(args, cfg, qp, meta)
    except NonConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except (PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 3
    except QEulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
