"""Command-line front end.

Subcommands: numbers, poly, zeta, continue, curve, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .continuation import curve_grid, euler_continuation, euler_continuation_deriv, euler_poly_continuation
from .errors import NonConvergenceError, PoleError, QEulerError
from .exact import exact_euler_number, exact_euler_poly
from .kernel import DEFAULT_CONFIG, EngineConfig, SeriesValue, as_int, as_qparameter
from .numeric import euler_number, euler_poly
from .verification import run_checks
from .zeta import qzeta, qzeta_deriv, qzeta_hurwitz

__all__ = ["parse_complex", "main", "run"]

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(f"^({_FLOAT})$")
_RE_IMAG = re.compile(f"^({_FLOAT})i$")
_RE_BOTH = re.compile(rf"^({_FLOAT})([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$")


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
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from None
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"range must run upward with positive step: {text!r}")
    return lo, hi, step


def _fmt_complex(z: complex, sig: int = 10) -> str:
    if z.imag == 0.0:
        return f"{z.real:.{sig}g}"
    op = "+" if z.imag >= 0 else "-"
    return f"{z.real:.{sig}g}{op}{abs(z.imag):.{sig}g}i"


def _series_payload(sv: SeriesValue) -> dict:
    return {
        "re": sv.value.real,
        "im": sv.value.imag,
        "error_bound": sv.error_bound,
        "terms_used": sv.terms_used,
        "converged": sv.converged,
    }


def _emit_series(sv: SeriesValue, fmt: str, meta: dict) -> None:
    if fmt == "json":
        print(json.dumps({**meta, **_series_payload(sv)}))
    elif fmt == "csv":
        print("re,im,error_bound,terms_used,converged")
        print(
            f"{sv.value.real:.17g},{sv.value.imag:.17g},{sv.error_bound:.17g},"
            f"{sv.terms_used},{sv.converged}"
        )
    else:
        print(f"value       = {_fmt_complex(sv.value, 15)}")
        print(f"error_bound = {sv.error_bound:.3e}")
        print(f"terms_used  = {sv.terms_used}")
        print(f"converged   = {sv.converged}")


def _config_from_args(args) -> EngineConfig:
    return EngineConfig(rel_tol=args.tol, max_terms=args.max_terms)


def _meta(args, cfg: EngineConfig) -> dict:
    return {
        "q": {"re": args.q.real, "im": args.q.imag},
        "config": {"rel_tol": cfg.rel_tol, "max_terms": cfg.max_terms},
    }


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_numbers(args) -> int:
    cfg = _config_from_args(args)
    qp = as_qparameter(args.q)
    rows = list(range(args.n + 1))
    if args.exact:
        rendered = [str(exact_euler_number(n)) for n in rows]
        if args.format == "json":
            print(json.dumps({**_meta(args, cfg), "exact": dict(zip(map(str, rows), rendered))}))
        elif args.format == "csv":
            print("n,exact")
            for n, s in zip(rows, rendered):
                print(f'{n},"{s}"')
        else:
            for n, s in zip(rows, rendered):
                print(f"E_{n} = {s}")
        return 0
    values = [euler_number(n, qp) for n in rows]
    if args.format == "json":
        print(
            json.dumps(
                {
                    **_meta(args, cfg),
                    "values": [{"n": n, "re": v.real, "im": v.imag} for n, v in zip(rows, values)],
                }
            )
        )
    elif args.format == "csv":
        print("n,re,im")
        for n, v in zip(rows, values):
            print(f"{n},{v.real:.17g},{v.imag:.17g}")
    else:
        print(f"q-Euler numbers at q = {_fmt_complex(qp.q)}")
        for n, v in zip(rows, values):
            print(f"  E_{n} = {_fmt_complex(v)}")
    return 0


def _cmd_poly(args) -> int:
    cfg = _config_from_args(args)
    qp = as_qparameter(args.q)
    if args.exact:
        x = as_int(args.x)
        if x is None or x < 0:
            return _usage_error("--x must be a nonnegative integer for --exact")
        value = exact_euler_poly(args.n, x, args.h)
        if args.format == "json":
            print(json.dumps({**_meta(args, cfg), "n": args.n, "x": x, "h": args.h, "exact": str(value)}))
        elif args.format == "csv":
            print("n,x,h,exact")
            print(f'{args.n},{x},{args.h},"{value}"')
        else:
            print(f"E_{args.n}({x}, {args.h} | q) = {value}")
        return 0
    v = euler_poly(args.n, args.x, args.h, qp)
    if args.format == "json":
        print(json.dumps({**_meta(args, cfg), "n": args.n, "x": [args.x.real, args.x.imag], "h": args.h, "re": v.real, "im": v.imag}))
    elif args.format == "csv":
        print("n,x_re,x_im,h,re,im")
        print(f"{args.n},{args.x.real:.17g},{args.x.imag:.17g},{args.h},{v.real:.17g},{v.imag:.17g}")
    else:
        print(f"E_{args.n}({_fmt_complex(args.x)}, {args.h} | q) = {_fmt_complex(v)}")
    return 0


def _cmd_zeta(args) -> int:
    cfg = _config_from_args(args)
    qp = as_qparameter(args.q)
    if args.deriv:
        sv = qzeta_deriv(args.s, args.h, qp, x=args.x, config=cfg)
        kind = "zeta-derivative"
    elif args.x is not None:
        sv = qzeta_hurwitz(args.s, args.x, args.h, qp, cfg)
        kind = "zeta-hurwitz"
    else:
        sv = qzeta(args.s, args.h, qp, cfg)
        kind = "zeta"
    meta = {**_meta(args, cfg), "kind": kind, "s": [args.s.real, args.s.imag], "h": args.h}
    if args.x is not None:
        meta["x"] = [args.x.real, args.x.imag]
    _emit_series(sv, args.format, meta)
    return 0


def _cmd_continue(args) -> int:
    cfg = _config_from_args(args)
    qp = as_qparameter(args.q)
    if args.w is not None:
        if args.deriv:
            return _usage_error("--deriv cannot be combined with --w")
        v = euler_poly_continuation(args.s, args.w, qp, cfg)
        meta = {**_meta(args, cfg), "s": args.s, "w": [args.w.real, args.w.imag]}
        if args.format == "json":
            print(json.dumps({**meta, "re": v.real, "im": v.imag}))
        elif args.format == "csv":
            print("s,w_re,w_im,re,im")
            print(f"{args.s:.17g},{args.w.real:.17g},{args.w.imag:.17g},{v.real:.17g},{v.imag:.17g}")
        else:
            print(f"E_q({args.s:g}, {_fmt_complex(args.w)}) = {_fmt_complex(v)}")
        return 0
    if args.deriv:
        sv = qzeta_deriv(-args.s, 0, qp, config=cfg)
        sv = SeriesValue(-sv.value, sv.error_bound, sv.terms_used, sv.converged)
        kind = "continuation-derivative"
    else:
        sv = qzeta(-args.s, 0, qp, cfg)
        kind = "continuation"
    _emit_series(sv, args.format, {**_meta(args, cfg), "kind": kind, "s": args.s})
    return 0


def _cmd_curve(args) -> int:
    cfg = _config_from_args(args)
    qp = as_qparameter(args.q)
    fmt = args.format
    s_lo, s_hi, s_step = args.s_range
    w_lo, w_hi, w_step = args.w_range
    grid = curve_grid(s_lo, s_hi, s_step, w_lo, w_hi, w_step, qp, cfg)
    if fmt == "csv":
        print("s,w,re,im")
        for i, sv in enumerate(grid.s_values):
            for j, wv in enumerate(grid.w_values):
                z = grid.values[i][j]
                print(f"{sv:.17g},{wv:.17g},{z.real:.17g},{z.imag:.17g}")
    else:
        samples = [
            {"s": sv, "w": wv, "re": grid.values[i][j].real, "im": grid.values[i][j].imag}
            for i, sv in enumerate(grid.s_values)
            for j, wv in enumerate(grid.w_values)
        ]
        payload = {
            "q": {"re": qp.q.real, "im": qp.q.imag},
            "config": grid.metadata,
            "samples": samples,
        }
        print(json.dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    results = run_checks(
        args.q,
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


class _Parser(argparse.ArgumentParser):
    # Accept option values that begin with a minus sign, such as negative
    # complex literals and range specs like -0.5:0.5:0.05.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=parse_complex, required=True, help="deformation parameter, |q| < 1")
    common.add_argument("--tol", type=float, default=DEFAULT_CONFIG.rel_tol, help="relative series tolerance")
    common.add_argument("--max-terms", type=int, default=DEFAULT_CONFIG.max_terms, help="series term budget")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")

    parser = _Parser(prog="qeuler", description="q-Euler numbers, polynomials, zeta values, and deformation curves")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        if args.command == "continue" and args.s < 0:
            return _usage_error("continue needs --s >= 0")
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        return _usage_error(str(exc))
    except QEulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
