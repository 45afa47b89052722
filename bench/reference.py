"""Independent references and the output check.

Nothing here imports qeuler.  Numeric values are recomputed with mpmath
along a different route than the library takes:

* the q-zeta family is summed as the alternating series over n (the
  definition), Abel-regularised, with its tail after |q|^N <= 0.05 folded
  into a fast binomial series; the library sums a k-series instead;
* classical zeta values come from mpmath's eta and Hurwitz zeta;
* q-Euler numbers come from the defining recurrence, and polynomials from
  the closed alternating sum, both at a working precision raised until the
  cancellation they suffer is covered (Ziv's strategy).

Exact results are evaluated at rational points and compared in Fractions
with the defining recurrence, the closed form, or both sides of an identity.

An op fails when it raises, reports converged=False, exits non-zero from
cli.main, or misses its reference by more than REL_TOL relative (ABS_FLOOR
absolute near zero).  A failure is *hard* when the library had no numeric
excuse for it: a crash (an exception that is not a QEulerError), or a wrong
value on an input whose float evaluation is well conditioned (cancellation
factor below KAPPA_EXCUSE), or any failure of an exact-arithmetic or CLI
op.  Hard failures make the run incorrect; the others are the known
defects of the roadmap and only count towards fail_frac.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import mpmath as mp

from inputs import RATIONAL_POINTS

REL_TOL = 1e-10
ABS_FLOOR = 1e-13
KAPPA_EXCUSE = 1e4
_TARGET_DIGITS = 22  # the references carry about this many correct digits


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _ziv(fn):
    """Evaluate fn() -> (value, sum of |terms|) at rising precision until the
    cancellation factor leaves _TARGET_DIGITS correct digits."""
    dps = 30
    while True:
        with mp.workdps(dps):
            value, absum = fn()
            lost = math.log10(float(absum / abs(value))) if value != 0 else dps
        if dps - lost >= _TARGET_DIGITS or dps > 2000:
            return complex(value)
        dps = int(_TARGET_DIGITS + lost + 10)


# -- q-zeta family -------------------------------------------------------------


def _alt_sum(s, c, h: int, q, deriv: bool):
    """sum_{m>=0} (-1)^m q^(hm) (1 - c q^m)^(-s), Abel-regularised, or its
    derivative in s; returns (value, sum of |terms|)."""
    aq = abs(q)
    n_direct = 1 if aq < 0.05 else int(math.ceil(math.log(0.05) / math.log(float(aq))))
    total = mp.mpc(0)
    absum = mp.mpf(0)
    qm, qhm, sign = mp.mpc(1), mp.mpc(1), 1
    qh = q**h
    for _ in range(n_direct):
        base = 1 - c * qm  # 0 only for x = 0 at m = 0, where Re(-s) > 0
        t = sign * qhm * mp.power(base, -s) if base else mp.mpc(0)
        if deriv and base:
            t *= -mp.log(base)
        total += t
        absum += abs(t)
        qm *= q
        qhm *= qh
        sign = -sign
    # m >= N: expand (1 - c q^m)^(-s) binomially and sum over m first.
    qn = q**n_direct
    gb, harm, cj = mp.mpc(1), mp.mpc(0), mp.mpc(1)
    qnj = qn**h
    qhj = qh
    tail = mp.mpc(0)
    eps = mp.mpf(10) ** (-mp.mp.dps)
    j = 0
    while True:
        t = gb * cj * qnj / (1 + qhj)
        if deriv:
            t *= harm
        tail += t
        absum += abs(t)
        if j > abs(s) + 2 and abs(t) <= eps * (abs(tail) + abs(total)):
            break
        if j > 100000:
            raise ArithmeticError("reference tail did not converge")
        if deriv:
            harm += 1 / (s + j)
        gb *= (s + j) / (j + 1)
        cj *= c
        qnj *= qn
        qhj *= q
        j += 1
    return total + (sign * tail), absum


def _zeta_core(s, h, q, x, deriv):
    s, q = _mpc(s), _mpc(q)
    two_q = 1 + q
    log1mq = mp.log(1 - q)
    pref = two_q * mp.exp(s * log1mq)
    if x is None:  # plain: sum over n >= 1 is -q^h times the m-sum with c = q
        c, k = q, -(q**h)
    else:
        c, k = mp.exp(_mpc(x) * mp.log(q)), mp.mpc(1)
    val, absum = _alt_sum(s, c, h, q, deriv=False)
    if not deriv:
        return pref * k * val, abs(pref * k) * absum
    dval, dabsum = _alt_sum(s, c, h, q, deriv=True)
    out = pref * k * (log1mq * val + dval)
    return out, abs(pref * k) * (abs(log1mq) * absum + dabsum)


def ref_qzeta(s, h, q, x=None, deriv=False) -> complex:
    """Plain (x None) or Hurwitz-type q-zeta, or its order derivative."""
    return _ziv(lambda: _zeta_core(s, h, q, x, deriv))


def kseries_kappa(s, h, q, x=None, deriv=False, value=None) -> float:
    """Cancellation factor sum|t_k| / |sum t_k| of the library's k-series.

    The k-series is what qeuler sums in binary64; a factor k loses about
    log10(k) of its 16 digits to rounding.  Orders at nonpositive integers
    terminate and are summed exactly by the library (factor 1)."""
    s, q = complex(s), complex(q)
    integer_x = x is None or float(x).is_integer()
    if s.imag == 0 and s.real <= 0 and s.real.is_integer() and integer_x and not deriv:
        return 1.0
    if value is None:
        value = ref_qzeta(s, h, q, x, deriv)
    if value == 0:
        return math.inf
    log1mq = cmath.log(1 - q)
    log_pref = math.log(abs(1 + q)) + (s * log1mq).real
    qx = cmath.exp(x * cmath.log(q)) if x is not None else None
    gb, harm, qhk, qxk, total = 1.0, 0.0, q**h, 1 + 0j, 0.0
    for k in range(10000):
        t = gb * abs(qxk if qx is not None else qhk) / abs(1 + qhk)
        if deriv:
            t *= abs(log1mq) + harm
        total += t
        if k > abs(s) + 2 and t <= 1e-18 * total:
            break
        if s + k != 0:
            harm += 1.0 / abs(s + k)
        gb *= abs(s + k) / (k + 1)
        qhk *= q
        if qx is not None:
            qxk *= qx
    if total == 0:
        return 1.0
    return math.exp(min(math.log(total) + log_pref - math.log(abs(value)), 700.0))


def ref_classical_zeta_E(s, x=None) -> complex:
    with mp.workdps(40):
        s = _mpc(s)
        if x is None:
            return complex(-2 * mp.altzeta(s))
        x = mp.mpf(x)
        return complex(2 * mp.power(2, -s) * (mp.zeta(s, x / 2) - mp.zeta(s, (x + 1) / 2)))


# -- order -n values ---------------------------------------------------------------


def _recurrence(n: int, q):
    """E_0..E_n from the defining recurrence; also the |.|-recurrence that
    bounds how far rounding in it can grow."""
    table, bound = [(1 + q) / 2], [abs((1 + q) / 2)]
    for m in range(1, n + 1):
        acc, acc_abs, qpow = 0, 0, 1
        for l in range(m):
            c = math.comb(m, l)
            acc += c * qpow * table[l]
            acc_abs += c * abs(qpow) * bound[l]
            qpow *= q
        den = 1 + q**m
        table.append(-acc / den)
        bound.append(acc_abs / abs(den))
    return table, bound


def ref_euler_number(n: int, q) -> complex:
    def fn():
        table, bound = _recurrence(n, _mpc(q))
        return table[n], bound[n]

    return _ziv(fn)


def recurrence_kappa(n: int, q, value: complex) -> float:
    """Rounding amplification of the float recurrence E_0..E_n at q."""
    _, bound = _recurrence(n, complex(q))
    return bound[n] / abs(value) if value else math.inf


def _closed_poly(n: int, w, h: int, q):
    # [2]_q (1-q)^(-n) sum_l C(n,l) (-1)^l w^l / (1 + q^(l+h)),  w = q^x
    total, absum = 0, 0
    for l in range(n + 1):
        t = (-1) ** l * math.comb(n, l) * w**l / (1 + q ** (l + h))
        total += t
        absum += abs(t)
    scale = (1 + q) / (1 - q) ** n
    return scale * total, abs(scale) * absum


def _q_power(q, x):
    if isinstance(x, int):
        return q**x
    return mp.exp(mp.mpf(x) * mp.log(q))


def ref_euler_poly(n: int, x, h: int, q) -> complex:
    return _ziv(lambda: _closed_poly(n, _q_power(_mpc(q), x), h, _mpc(q)))


def shift_kappa(n: int, x, h: int, q, value: complex) -> float:
    """Cancellation factor of the binomial-shift sum the library uses at
    non-integer x: sum_l C(n,l) q^(xl) E_l(0,h) [x]^(n-l)."""
    qc = complex(q)
    qx = complex(mp.exp(mp.mpf(x) * mp.log(_mpc(qc))))
    bx = (1 - qx) / (1 - qc)
    absum = sum(
        math.comb(n, l) * abs(qx) ** l * abs(ref_euler_poly(l, 0, h, qc)) * abs(bx) ** (n - l)
        for l in range(n + 1)
    )
    return absum / abs(value) if value else math.inf


# -- continuation cells ---------------------------------------------------------------


def ref_curve_cell(s: float, w: float, q, coeffs: dict):
    """E_q(s, w) from the Gamma-weighted sum with reference coefficients
    C(a) = zeta_q(-a) + [2]_q max(0, 1 - |a|), and a function giving its
    conditioning: the error the library's coefficient k-series can carry
    into the cell, relative to the cell.  ``coeffs`` caches zeta_q(-a)."""
    fs = math.floor(s)
    frac = s - fs
    qc = complex(q)
    terms = []  # (|weight * q^(a w) * [w]^(fs-k)|, a)
    with mp.workdps(40):
        qm = _mpc(qc)
        logq = mp.log(qm)
        bw = (1 - mp.exp(mp.mpf(w) * logq)) / (1 - qm)
        total = mp.mpc(0)
        for k in range(-1, fs + 1):
            if k == -1 and frac == 0.0:
                continue
            a = k + frac
            if a not in coeffs:
                coeffs[a] = ref_qzeta(-a, 0, qc)
            c = coeffs[a] + (1 + qc) * max(0.0, 1 - abs(a))
            weight = mp.gamma(1 + s) * mp.rgamma(1 + a) * mp.rgamma(1 + fs - k)
            rest = weight * mp.exp(a * mp.mpf(w) * logq) * bw ** (fs - k)
            total += rest * _mpc(c)
            terms.append((float(abs(rest)), a))
        value = complex(total)

    def kappa() -> float:
        if not value:
            return math.inf
        err = sum(
            size * abs(coeffs[a]) * kseries_kappa(-a, 0, qc, value=coeffs[a]) for size, a in terms
        )
        return err / abs(value)

    return value, kappa


# -- exact results ------------------------------------------------------------------


def exact_numbers_at(n: int, r: Fraction) -> list[Fraction]:
    table, _ = _recurrence(n, r)
    return table


def exact_poly_at(n: int, x: int, h: int, r: Fraction) -> Fraction:
    return _closed_poly(n, r**x, h, r)[0]


def _bracket(m: int, r: Fraction) -> Fraction:
    return sum((r**i for i in range(m)), Fraction(0))


def _signed_power_sum(n: int, k: int, r: Fraction, flip: bool) -> Fraction:
    total = Fraction(0)
    for l in range(k):
        sign = -1 if (l % 2 == 1) != flip else 1
        total += sign * _bracket(l, r) ** n
    return total


def _shift_sum(n: int, k: int, upper: int, r: Fraction, numbers: list[Fraction]) -> Fraction:
    bk = _bracket(k, r)
    return sum(
        (math.comb(n, l) * r ** (k * l) * numbers[l] * bk ** (n - l) for l in range(upper)),
        Fraction(0),
    )


def identity_holds_at(name: str, n: int, k: int, r: Fraction) -> bool:
    """Both sides of one documented q-Euler identity, evaluated at q = r."""
    numbers = exact_numbers_at(n, r)
    e_n = numbers[n]
    two = 1 + r
    if name == "poly-vs-recurrence":
        return exact_poly_at(n, 0, 0, r) == e_n
    if name == "binomial-expansion":
        return exact_poly_at(n, k, 0, r) == _shift_sum(n, k, n + 1, r, numbers)
    if name in ("even-shift", "even-shift-wrong-sign"):
        flip = name == "even-shift"
        return exact_poly_at(n, k, 0, r) - e_n == two * _signed_power_sum(n, k, r, flip)
    if name == "odd-shift":
        return exact_poly_at(n, k, 0, r) + e_n == two * _signed_power_sum(n, k, r, False)
    shift = r ** (k * n)
    tail = _shift_sum(n, k, n, r, numbers)
    if name == "even-shift-recombined":
        return two * _signed_power_sum(n, k, r, True) == (shift - 1) * e_n + tail
    if name == "odd-shift-recombined":
        return two * _signed_power_sum(n, k, r, False) == (shift + 1) * e_n + tail
    raise ValueError(name)


_TERM = re.compile(r"^(?:(\d+)\*)?q(?:\^(\d+))?$|^(\d+)$")


def parse_poly_at(text: str, r: Fraction) -> Fraction:
    """Evaluate a rendered integer polynomial in q, e.g. '-1 + 3*q - q^2'."""
    total = Fraction(0)
    for sign, body in re.findall(r"(^-|[+-] |^)([^ +-][^ ]*)", text.strip()):
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"unreadable polynomial term {body!r}")
        if m.group(3) is not None:
            term = Fraction(int(m.group(3)))
        else:
            coef = int(m.group(1)) if m.group(1) else 1
            term = coef * r ** (int(m.group(2)) if m.group(2) else 1)
        total += -term if sign.strip() == "-" else term
    return total


def parse_ratq_at(text: str, r: Fraction) -> Fraction:
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", text.strip())
    if not m:
        raise ValueError(f"unreadable rational function {text!r}")
    return parse_poly_at(m.group(1), r) / parse_poly_at(m.group(2), r)


# -- the check -------------------------------------------------------------------------


def close(got: complex, ref: complex) -> bool:
    return abs(got - ref) <= max(REL_TOL * abs(ref), ABS_FLOOR)


class Verdict:
    """Outcome of checking one op."""

    __slots__ = ("status", "hard", "detail")

    def __init__(self, status: str, hard: bool = False, detail: str = ""):
        self.status = status  # pass, refused, wrong or crash
        self.hard = hard
        self.detail = detail

    @property
    def failed(self) -> bool:
        return self.status != "pass"


def _numeric_verdict(got, ref: complex, kappa_fn, what: str) -> Verdict:
    """kappa_fn() gives the cancellation factor; it is only paid for on a miss."""
    value = complex(*got)
    if close(value, ref):
        return Verdict("pass")
    rel = abs(value - ref) / max(abs(ref), ABS_FLOOR)
    kappa = kappa_fn()
    excused = kappa >= KAPPA_EXCUSE
    return Verdict(
        "wrong",
        hard=not excused,
        detail=f"{what}: got {value:.12g}, reference {ref:.12g} (rel {rel:.1e}, kappa {kappa:.1e})",
    )


def _zeta_args(kind: str, args: tuple):
    """(s, h, q, x, deriv, sign) of the q-zeta value behind one op."""
    if kind == "qzeta":
        s, h, q = args
        return s, h, q, None, False, 1
    if kind == "qzeta_deriv":
        s, h, q, x = args
        return s, h, q, x, True, 1
    if kind == "qzeta_hurwitz":
        s, x, h, q = args
        return s, h, q, x, False, 1
    if kind == "euler_continuation":
        s, q = args
        return -complex(s), 0, q, None, False, 1
    if kind == "euler_continuation_deriv":
        s, q = args
        return -complex(s), 0, q, None, True, -1
    raise ValueError(kind)


EXACT_KINDS = ("exact_euler_number", "exact_euler_poly", "verify_identity")


def check_op(op, out: dict) -> Verdict:
    """Check one op's summarised output (see worker.summarise)."""
    kind, args, note = op
    # Exact arithmetic has no numeric excuse: even a refusal there is hard.
    exact = kind in EXACT_KINDS or (kind == "cli" and note[0] != "curve")
    if out.get("error"):
        refused = out.get("refused", False)
        return Verdict("refused" if refused else "crash", hard=exact or not refused,
                       detail=f"{kind}{args}: {out['error']}")
    if out.get("converged") is False:
        return Verdict("refused", hard=exact, detail=f"{kind}{args}: converged=False")
    if kind == "cli":
        return _check_cli(op, out)
    if kind in ("qzeta", "qzeta_deriv", "qzeta_hurwitz", "euler_continuation", "euler_continuation_deriv"):
        s, h, q, x, deriv, sign = _zeta_args(kind, args)
        ref = sign * ref_qzeta(s, h, q, x, deriv)
        return _numeric_verdict(
            out["value"], ref, lambda: kseries_kappa(s, h, q, x, deriv, ref), kind
        )
    if kind == "classical_zeta_E":
        # No cancellation estimate is known for the accelerated sum: a miss is hard.
        return _numeric_verdict(out["value"], ref_classical_zeta_E(*args), lambda: 1.0, kind)
    if kind == "euler_number":
        n, q = args
        ref = ref_euler_number(n, q)
        return _numeric_verdict(out["value"], ref, lambda: recurrence_kappa(n, q, ref), kind)
    if kind == "euler_poly":
        n, x, h, q = args
        ref = ref_euler_poly(n, x, h, q)
        if isinstance(x, int):  # integer shifts take the library's exact path
            return _numeric_verdict(out["value"], ref, lambda: 1.0, kind)
        return _numeric_verdict(out["value"], ref, lambda: shift_kappa(n, x, h, q, ref), kind)
    if kind == "exact_euler_number":
        (n,) = args
        want = [exact_numbers_at(n, r)[n] for r in RATIONAL_POINTS]
        return _exact_verdict(kind, args, out, want)
    if kind == "exact_euler_poly":
        want = [exact_poly_at(*args, r) for r in RATIONAL_POINTS]
        return _exact_verdict(kind, args, out, want)
    if kind == "verify_identity":
        want = all(identity_holds_at(*args, r) for r in RATIONAL_POINTS)
        if out.get("bool") is want:
            return Verdict("pass")
        return Verdict("wrong", hard=True, detail=f"{kind}{args}: got {out.get('bool')}, expected {want}")
    raise ValueError(f"no check for {kind}")


def _exact_verdict(kind, args, out, want) -> Verdict:
    got = [Fraction(v) for v in out.get("at", ())]
    if got == want:
        return Verdict("pass")
    return Verdict("wrong", hard=True, detail=f"{kind}{args}: values at {RATIONAL_POINTS} differ")


def _check_cli(op, out: dict) -> Verdict:
    argv, note = op.args, op.note
    rc = out.get("rc")
    if rc != 0:
        return Verdict("refused" if rc == 3 else "crash", hard=rc != 3 or note[0] != "curve",
                       detail=f"cli {' '.join(argv)}: exit {rc}")
    if note[0] == "curve":
        return _check_curve(op, out)
    if argv[0] == "numbers":
        n = int(argv[argv.index("--n") + 1])
        lines = out["stdout"].splitlines()
        if len(lines) != n + 1:
            return Verdict("wrong", hard=True, detail=f"cli numbers: {len(lines)} lines for n = {n}")
        for r in RATIONAL_POINTS:
            want = exact_numbers_at(n, r)
            for m, line in enumerate(lines):
                label, _, body = line.partition(" = ")
                if label != f"E_{m}" or parse_ratq_at(body, r) != want[m]:
                    return Verdict("wrong", hard=True, detail=f"cli numbers: line {line!r} is wrong")
        return Verdict("pass")
    if argv[0] == "verify":
        last = out["stdout"].strip().splitlines()[-1]
        if re.fullmatch(r"\d+ passed, 0 failed", last):
            return Verdict("pass")
        return Verdict("wrong", hard=True, detail=f"cli verify: {last!r}")
    raise ValueError(f"no check for cli {argv[0]}")


def _check_curve(op, out: dict) -> Verdict:
    _, q, rows, cols, row, cells = op.note
    if out.get("rows") != rows * cols:
        return Verdict("wrong", hard=True,
                       detail=f"cli curve: {out.get('rows')} samples, expected {rows} x {cols}")
    coeffs: dict = {}
    for s, w, re_, im in out["cells"]:
        ref, kappa = ref_curve_cell(s, w, q, coeffs)
        verdict = _numeric_verdict((re_, im), ref, kappa, f"curve cell s={s!r} w={w!r} q={q!r}")
        if verdict.failed:
            return verdict
    return Verdict("pass")
