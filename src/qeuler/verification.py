"""Self-check suite behind the CLI ``verify`` subcommand.

Each check returns a CheckResult; the CLI renders them as a pass/fail table
and exits nonzero when anything failed.  The large-order limit check carries
an informational note: the limit of the plain zeta for growing real order is
-(1 + q) when |[n]_q| > 1 for every n >= 2 (not so at q = 0, where [n]_0 = 1,
nor at q = -0.9 or 0.6 + 0.7i, where a later term dominates; the check fails
there), and the classically quoted constant -2 is only its q -> 1 edge, so
not reproducing -2 inside the unit disk is expected and is not a failure."""

from __future__ import annotations

import math

from .continuation import curve_grid
from .exact import _euler_numerators, _unpack, _verify_identity, exact_euler_number, exact_euler_poly
from .kernel import DEFAULT_CONFIG, FD_STEP, EngineConfig, Record, _set, as_index, as_qparameter, cpow, q_bracket
from .numeric import euler_number, euler_poly, scaled_classical_euler
from .zeta import classical_zeta_E, qzeta, qzeta_deriv, qzeta_hurwitz

__all__ = ["CheckResult", "run_checks", "LARGE_ORDER_NOTE"]

LARGE_ORDER_NOTE = (
    "expected deviation: the large-order limit is -(1+q) when |[n]_q| > 1 "
    "for every n >= 2 (not so at q = 0, -0.9 or 0.6+0.7i); the classically "
    "quoted constant -2 is its q -> 1 edge and is not attained inside the "
    "unit disk."
)


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail", "note")

    def __init__(self, name: str, passed: bool, detail: str, note: str | None = None):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)
        _set(self, "note", note)


def _rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _run(name: str, fn, note: str | None = None) -> CheckResult:
    # fn returns (passed, detail); a crashed check is a failed check
    try:
        ok, detail = fn()
    except Exception as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, ok, detail, note)


def _exact_checks(max_n: int, max_k: int) -> list[CheckResult]:
    # N_m and D_m for m <= max(max_n, 2), the wrong-sign control's n = 2 too,
    # packed wide enough for every identity below (shifts to max_k, x to 4)
    table = _euler_numerators(max(max_n, 2) + 1, max(max_k, 4))

    def holds(name, n, k=0):
        return _verify_identity(name, n, k, table)

    def poly_vs_recurrence():
        bad = [n for n in range(max_n + 1) if not holds("poly-vs-recurrence", n)]
        return not bad, f"n <= {max_n}" + (f", failed at {bad}" if bad else "")

    def binomial_expansion():
        bad = [
            (n, x)
            for n in range(max_n + 1)
            for x in range(0, 5)
            if not holds("binomial-expansion", n, x)
        ]
        return not bad, f"n <= {max_n}, x <= 4" + (f", failed at {bad}" if bad else "")

    def shifts(name, parity):
        ks = [k for k in range(1, max_k + 1) if k % 2 == parity]
        bad = [(n, k) for n in range(max_n + 1) for k in ks if not holds(name, n, k)]
        return not bad, f"n <= {max_n}, k in {ks}" + (f", failed at {bad}" if bad else "")

    def wrong_sign_rejected():
        ok = not holds("even-shift-wrong-sign", 2, 2)
        return ok, "the flipped-sign variant must fail at (n=2, k=2)"

    def classical_limit():
        # E_n = N_n / D_n with D_n(1) = 2^(n+1) != 0, so the unreduced pair
        # gives the value at q = 1 with no reduction: N_n(1), the sum of
        # N_n's coefficients, over 2^(n+1) is the classical E_n = a_n / 2^n
        # exactly when N_n(1) = 2 a_n
        w, nums, _ = table
        a = scaled_classical_euler(max_n)
        bad = [n for n in range(max_n + 1) if sum(_unpack(nums[n], w)) != 2 * a[n]]
        return not bad, "q = 1 specialization matches the classical recurrence" + (f", failed at {bad}" if bad else "")

    return [
        _run("exact/poly-vs-recurrence", poly_vs_recurrence),
        _run("exact/binomial-expansion", binomial_expansion),
        _run("exact/even-shift", lambda: shifts("even-shift", 0)),
        _run("exact/odd-shift", lambda: shifts("odd-shift", 1)),
        _run("exact/even-shift-recombined", lambda: shifts("even-shift-recombined", 0)),
        _run("exact/odd-shift-recombined", lambda: shifts("odd-shift-recombined", 1)),
        _run("exact/even-shift-wrong-sign-rejected", wrong_sign_rejected),
        _run("exact/classical-limit-at-q1", classical_limit),
    ]


def _numeric_checks(q, max_n: int, config: EngineConfig) -> list[CheckResult]:
    qp = as_qparameter(q)

    def interpolation():
        # zeta_q(-n) = E_n(q): with a zero bound from at most n + 1 terms, the
        # Q(q) engine's E_n taken at q bit for bit (repr tells every float
        # apart), and the float recurrence within 1e-10 of it
        worst, bad = 0.0, []
        for n in range(1, 13):
            sv, want = qzeta(-n, 0, qp, config), exact_euler_number(n).eval(qp.q)
            err = _rel_err(want, euler_number(n, qp))
            worst = max(worst, err)
            if repr(sv.value) != repr(want) or sv.terms_used > n + 1 or sv.error_bound != 0.0 or not err <= 1e-10:
                bad.append(n)
        return not bad, f"n = 1..12, worst rel err {worst:.2e}" + (f", failed at {bad}" if bad else "")

    def hurwitz_interpolation():
        # bit for bit (repr) as the Q(q) engine's E_n(x, h | q) taken at q and rounded
        # once; the sums behind qzeta_hurwitz reach that evaluation only as a fallback
        worst, same = 0.0, True
        for n in range(min(max_n, 8) + 1):
            for x in range(4):
                for h in range(3):
                    got, want = qzeta_hurwitz(-n, x, h, qp, config).value, exact_euler_poly(n, x, h).eval(qp.q)
                    worst, same = max(worst, _rel_err(got, want)), same and repr(got) == repr(want)
        return same, f"n <= {min(max_n, 8)}, x <= 3, h <= 2, worst rel err {worst:.2e}"

    def derivative_fd():
        # 50 complex orders, then the 50 real orders -s, s = U(-4, 4): there
        # E_q'(s) = -zeta_q'(-s) and its central difference negate these two
        # sides exactly, so the same errors check the continued numbers
        import random
        rng, real = random.Random(90125), random.Random(5150)
        orders = [complex(rng.uniform(-5, 5), rng.uniform(-2, 2)) for _ in range(50)]
        orders += [-real.uniform(-4.0, 4.0) for _ in range(50)]
        h = FD_STEP
        worst = 0.0
        for s in orders:
            d = qzeta_deriv(s, 0, qp, config=config).value
            fd = (qzeta(s + h, 0, qp, config).value - qzeta(s - h, 0, qp, config).value) / (2 * h)
            worst = max(worst, _rel_err(d, fd))
        return worst <= 1e-6, f"{len(orders)} orders, 50 of them real, worst rel err {worst:.2e}"

    def shift_expansion():
        # E_n(x, h | q) = sum_l C(n,l) q^(x l) E_l(0, h | q) [x]_q^(n-l) at
        # shifts where euler_poly carries q^x in fixed point.  Each E_l is
        # the Q(q) engine's, taken at q, and q^x and [x]_q are floats, so the
        # float sum of the terms t_l is off by a few units u = 2^-53 of
        # sum |t_l|, times 1 + n |q^x| / |1 - q^x| for the cancellation in
        # [x]_q near q = 1 (Higham, chs. 3-4); 64 u leaves room for the rest.
        top = min(max_n, 8)
        e0 = [[exact_euler_poly(l, 0, h).eval(qp.q) for l in range(top + 1)] for h in range(3)]
        worst = 0.0
        for x in (0.5, 1 / 3, 2.5, 0.25 + 0.5j):
            qx, bx = cpow(qp.q, x), q_bracket(x, qp)
            for h in range(3):
                for n in range(top + 1):
                    terms = [math.comb(n, l) * qx**l * e0[h][l] * bx ** (n - l) for l in range(n + 1)]
                    bound = 64 * 2.0**-53 * (1 + n * abs(qx) / abs(1 - qx)) * sum(map(abs, terms))
                    worst = max(worst, abs(euler_poly(n, x, h, qp) - sum(terms)) / bound)
        return worst <= 1.0, f"n <= {top}, 4 shifts, h <= 2, worst {worst:.2f} of the rounding bound"

    # the classical E_n = a_n / 2^n, rounded once, as float(Fraction) rounds
    classical = [a / 2**n for n, a in enumerate(scaled_classical_euler(10))]

    def classical_euler_zeta():
        worst = 0.0
        for n in range(1, 11):
            z = classical_zeta_E(-n, config=config).value
            worst = max(worst, abs(z - classical[n]))
        z1 = classical_zeta_E(1.0, config=config).value
        ln2_err = abs(z1 + 2.0 * math.log(2.0))
        ok = worst <= 1e-12 and ln2_err <= 1e-10
        return ok, f"order -1..-10 worst abs err {worst:.2e}; value at 1 err {ln2_err:.2e}"

    def classical_bridge():
        worst = 0.0
        for n in range(7):
            worst = max(worst, abs(euler_number(n, 0.9999) - classical[n]))
        return worst <= 1e-2, f"q = 0.9999 vs classical numbers, worst {worst:.2e}"

    def on_w_grid(s):
        # E_q(s, w) at w = -0.5, -0.45, ..., 0.5; at q = 0 at w = 0 alone,
        # since E_0(s, w) has a pole at every w != 0 off the integer orders
        half = 0.5 if qp.q else 0.0
        grid = curve_grid(s, s, 1.0, -half, half, 0.05, qp, config)
        return grid.w_values, grid.values[0]

    def continuation_consistency():
        worst = 0.0
        for n in range(4):
            ws, values = on_w_grid(n)
            for w, a in zip(ws, values):
                worst = max(worst, abs(a - euler_poly(n, w, 0, qp)))
        return worst <= 1e-9, f"orders 0..3 on {len(ws)} w-points, worst abs err {worst:.2e}"

    def continuation_continuity():
        below, at = on_w_grid(3.0 - 1e-6)[1], on_w_grid(3.0)[1]
        worst = max(abs(a - b) for a, b in zip(below, at))
        return worst <= 1e-4, f"gap across order 3, worst {worst:.2e}"

    def large_order_limit():
        val = qzeta(60.0, 0, qp, config).value
        target = -(1.0 + qp.q)
        shown = f"{target.real:.6g}" if target.imag == 0 else f"{target:.6g}"
        err = abs(val - target)
        return err <= 1e-6, f"value at order 60 within {err:.2e} of -(1+q) = {shown}"

    return [
        _run("numeric/interpolation", interpolation),
        _run("numeric/hurwitz-interpolation", hurwitz_interpolation),
        _run("numeric/derivative-fd", derivative_fd),
        _run("numeric/shift-expansion", shift_expansion),
        _run("numeric/classical-euler-zeta", classical_euler_zeta),
        _run("numeric/classical-bridge", classical_bridge),
        _run("numeric/continuation-integer-consistency", continuation_consistency),
        _run("numeric/continuation-continuity", continuation_continuity),
        _run("numeric/large-order-limit", large_order_limit, LARGE_ORDER_NOTE),
    ]


def run_checks(
    q,
    max_n: int = 8,
    max_k: int = 6,
    config: EngineConfig | None = None,
    exact_only: bool = False,
    numeric_only: bool = False,
) -> list[CheckResult]:
    """Run the verification suite and return one CheckResult per check."""
    if exact_only and numeric_only:
        raise ValueError("exact_only and numeric_only are mutually exclusive")
    # Smaller counts would leave checks that cover nothing and still pass.
    max_n, max_k = as_index(max_n, "max_n"), as_index(max_k, "max_k")
    if max_k < 2:
        raise ValueError(f"max_k must be at least 2 so that both shift parities are checked, got {max_k}")
    cfg = config or DEFAULT_CONFIG
    results: list[CheckResult] = []
    if not numeric_only:
        results.extend(_exact_checks(max_n, max_k))
    if not exact_only:
        results.extend(_numeric_checks(q, max_n, cfg))
    return results
