"""Numeric q-Euler numbers and polynomials, classical reference objects, and
an independent regularized-series oracle.

The defining alternating series for the polynomial family diverges for
|q| < 1 (its terms approach a nonzero geometric profile), so the oracle
assigns it the iterated-averaging value of its partial sums, which is the
standard regularized reading and is what the direct evaluators reproduce.

Evaluation strategy: values at integer shifts up to EXACT_SHIFT_MAX are
the terminating alternating sum in big-integer fixed point, rounded once,
correctly (see _exactcomplex), because the floating-point sum cancels down
by a factor of order (1-q)^n and would lose 6-12 digits for the larger n and
q of interest.  Other shifts go through the binomial-shift expansion, whose
terms are well scaled, using correctly rounded order coefficients, and
euler_poly_bounded sums the same terms and bounds their rounding error to
first order.  Those coefficients are the one table this module keeps (per h
and q, at most _TABLES_MAX keys); a table is filled or grown by one
fixed-point pass over all its orders (_exactcomplex.terminating_alt_sums),
with the bits of one correctly rounded sum per order.  The q-Euler numbers
come from one float pass of their recurrence, and the classical Euler
numbers from one integer pass of theirs, each uncached.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from collections import OrderedDict
from fractions import Fraction

from ._exactcomplex import terminating_alt_sum, terminating_alt_sums
from .errors import FloatRangeError, NonConvergenceError
from .kernel import (
    DEFAULT_CONFIG,
    EXACT_SHIFT_MAX,
    EngineConfig,
    QParameter,
    SeriesValue,
    as_int,
    as_qparameter,
    cpow,
    q_bracket,
)

__all__ = [
    "euler_number",
    "euler_numbers",
    "euler_poly",
    "classical_euler_number",
    "classical_euler_poly",
    "euler_poly_series_oracle",
]

_EPS = sys.float_info.epsilon

_LOCK = threading.Lock()
# E_l(0, h | q) per (h, q), holding at most _TABLES_MAX keys; the least
# recently used key is dropped first, so a long-running process keeps
# bounded memory.
_TABLES_MAX = 256
_SHIFT_COEFF_TABLES: OrderedDict[tuple[int, complex], list[complex]] = OrderedDict()


def euler_numbers(n: int, q) -> list[complex]:
    """The q-Euler numbers E_0..E_n: E_0 = (1+q)/2 and
    E_m = -(1/(1+q^m)) sum_{l<m} C(m,l) q^l E_l."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    qq = as_qparameter(q).q
    table = [(1.0 + qq) / 2.0]
    for m in range(1, n + 1):
        acc = 0j
        qpow = 1 + 0j
        for l in range(m):
            acc += math.comb(m, l) * qpow * table[l]
            qpow *= qq
        table.append(-acc / (1.0 + qq**m))
    return table


def euler_number(n: int, q) -> complex:
    """The n-th q-Euler number; see euler_numbers."""
    return euler_numbers(n, q)[n]


def _shift_coefficients(n: int, h: int, qp: QParameter) -> list[complex]:
    # E_l(0, h | q) for l = 0..n, correctly rounded terminating sums, kept
    # per (h, q); a table that is too short is refilled from one pass.
    key = (h, qp.q)
    with _LOCK:
        table = _SHIFT_COEFF_TABLES.setdefault(key, [])
        _SHIFT_COEFF_TABLES.move_to_end(key)
        if len(_SHIFT_COEFF_TABLES) > _TABLES_MAX:
            _SHIFT_COEFF_TABLES.popitem(last=False)
        if len(table) <= n:
            table += terminating_alt_sums(n, h, qp.q)[len(table) :]
        return table[: n + 1]


def euler_poly(n: int, x, h: int, q) -> complex:
    """The q-Euler polynomial E_n(x, h | q).

    Integer 0 <= x <= EXACT_SHIFT_MAX uses the terminating alternating sum,
    correctly rounded; other x use the binomial-shift expansion
        sum_l C(n,l) q^(x l) E_l(0,h|q) [x]_q^(n-l),
    which the generating series forces and which stays well conditioned;
    a sum beyond the float range raises FloatRangeError.  At x = 0 this
    reduces to the q-Euler numbers (h = 0) by definition.
    """
    qp = _poly_q(n, h, q)
    xi = as_int(x)
    if xi is not None and 0 <= xi <= EXACT_SHIFT_MAX:
        return terminating_alt_sum(n, h, qp.q, xi)
    return _shift_sum(n, x, h, qp)[0]


def _poly_q(n: int, h: int, q) -> QParameter:
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not isinstance(h, int) or h < 0:
        raise ValueError("h must be a nonnegative integer")
    return as_qparameter(q)


def _shift_sum(n: int, x, h: int, qp: QParameter) -> tuple[complex, list[complex], complex]:
    # The binomial-shift value, its terms C(n,l) q^(x l) E_l(0,h|q) [x]_q^(n-l),
    # l = 0..n, and q^x.  The terms are summed in order, from 0j: the bits of
    # every binomial-shift value.
    coeffs = _shift_coefficients(n, h, qp)
    bx = q_bracket(x, qp)
    qx = cpow(qp.q, x)
    bx_pows = [1 + 0j]
    for _ in range(n):
        bx_pows.append(bx_pows[-1] * bx)
    terms = []
    total = 0j
    qxl = 1 + 0j
    for l in range(n + 1):
        terms.append(math.comb(n, l) * qxl * coeffs[l] * bx_pows[n - l])
        total += terms[-1]
        qxl *= qx
    if not cmath.isfinite(total):
        raise FloatRangeError(f"E_{n}({x!r}, {h} | q) lies beyond the float range")
    return total, terms, qx


def euler_poly_bounded(n: int, x, h: int, q) -> tuple[complex, float]:
    """euler_poly(n, x, h, q) and a bound on its error.

    The terminating sum is correctly rounded and reports 0.  The binomial
    shift expansion reports sum_l gamma_l |t_l| over its terms t_l, a
    first-order bound on its rounding error with u = 2^-53:
    * q^x = exp(x log q) is within rho_x = u (4 + 5 |x| (|log q| + 1_int))
      of itself, relatively (log q good to 2u relatively, the product and
      exp to about 3u; an integer x takes float powering, whose error grows
      with |x| rather than with |x log q|);
    * [x]_q = (1 - q^x) / (1 - q) loses the digits that 1 - q^x cancels:
      rho_b = kappa rho_x + 7u, kappa = |q^x| / |1 - q^x|;
    * t_l = C(n,l) q^(x l) E_l [x]_q^(n-l) carries l rho_x and (n-l) rho_b
      from the two powers, 3u per product and about 9u from the correctly
      rounded E_l, the binomial and the three factors' products;
    * summing n + 1 terms adds at most n u sum_l |t_l|.
    So gamma_l = u (9 + 4n) + l rho_x + (n - l) rho_b, and the bound is
    u (9 + 4n) A + rho_x (n A - B) + rho_b B with A = sum_l |t_l| and
    B = sum_l (n - l) |t_l|.  The value is the sum of the same terms, in
    the same order, so it has euler_poly's bits.
    """
    qp = _poly_q(n, h, q)
    xi = as_int(x)
    if xi is not None and 0 <= xi <= EXACT_SHIFT_MAX:
        return terminating_alt_sum(n, h, qp.q, xi), 0.0
    value, terms, qx = _shift_sum(n, x, h, qp)
    A = B = 0.0
    for l, term in enumerate(terms):
        a = abs(term)
        A += a
        B += (n - l) * a
    if A == 0.0:
        return value, 0.0
    u = _EPS / 2
    rho_x = 0.0 if qx == 0 else u * (4 + 5 * abs(x) * (abs(cmath.log(qp.q)) + (xi is not None)))
    if B and qx == 1:
        return value, math.inf  # 1 - q^x cancels completely
    rho_b = abs(qx) / abs(1.0 - qx) * rho_x + 7 * u if B else 0.0
    return value, u * (9 + 4 * n) * A + rho_x * max(n * A - B, 0.0) + rho_b * B


def scaled_classical_euler(n: int) -> list[int]:
    """The integers 2^m E_m, m = 0..n, of the classical Euler numbers below.

    E_0 = 1 and E_m = -(1/2) sum_{l<m} C(m,l) E_l make every E_m dyadic, so
    a_m = 2^m E_m = -sum_{l<m} C(m,l) a_l 2^(m-1-l) stays in the integers.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    a = [1]
    for m in range(1, n + 1):
        a.append(-sum(math.comb(m, l) * a[l] << (m - 1 - l) for l in range(m)))
    return a


def classical_euler_number(n: int) -> Fraction:
    """Euler number of the classical generating function 2/(e^t + 1):
    E_0 = 1 and E_n = -(1/2) sum_{l<n} C(n,l) E_l, exact."""
    return Fraction(scaled_classical_euler(n)[n], 2**n)


def classical_euler_poly(n: int, x) -> complex:
    """Classical Euler polynomial E_n(x) = sum_k C(n,k) E_k x^(n-k)."""
    a = scaled_classical_euler(n)
    z = complex(x)
    total = 0j
    try:
        for k in range(n + 1):
            total += math.comb(n, k) * (a[k] / 2**k) * z ** (n - k)
    except OverflowError as exc:
        raise FloatRangeError(
            f"the classical Euler polynomial of order {n} at x = {x!r} lies beyond the float range"
        ) from exc
    return total


def _averaged(rows: list[float], depth: int) -> list[list[float]]:
    out = [rows]
    for _ in range(depth):
        prev = out[-1]
        if len(prev) < 2:
            break
        out.append([(prev[i] + prev[i + 1]) * 0.5 for i in range(len(prev) - 1)])
    return out


def euler_poly_series_oracle(
    n: int,
    x,
    h: int,
    q,
    depth: int = 2,
    config: EngineConfig | None = None,
) -> SeriesValue:
    """Regularized value of the alternating series [2]_q sum_k (-1)^k q^(hk) [k+x]^n.

    Partial sums are averaged pairwise ``depth`` times; for real q in (0, 1)
    the averaged sequence converges geometrically (the terms differ from a
    fixed limit profile by O(q^k)).  The reported error bound is the last
    inter-round delta plus a rounding floor proportional to the largest
    partial sum, since the raw partial sums oscillate with amplitude of order
    (1-q)^(-n) before averaging tames them.

    This is an independent check instrument: it never calls the direct
    evaluators above.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not isinstance(h, int) or h < 0:
        raise ValueError("h must be a nonnegative integer")
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    qp = as_qparameter(q)
    if qp.q.imag != 0.0 or not 0.0 < qp.q.real < 1.0:
        raise ValueError("the series oracle needs real q in (0, 1)")
    xr = complex(x)
    if xr.imag != 0.0 or xr.real < 0.0:
        raise ValueError("the series oracle needs real x >= 0")
    cfg = config or DEFAULT_CONFIG
    qr = qp.q.real
    xv = xr.real
    two_q = 1.0 + qr
    one_minus_q = 1.0 - qr

    partials: list[float] = []
    running = 0.0
    scale = 1.0
    sign = 1.0
    checkpoint = max(16, depth + 2)
    k = 0
    while k < cfg.max_terms:
        bracket = (1.0 - qr ** (k + xv)) / one_minus_q
        running += two_q * sign * (qr ** (h * k)) * bracket**n
        partials.append(running)
        scale = max(scale, abs(running))
        sign = -sign
        k += 1
        if k >= checkpoint:
            rows = _averaged(partials, depth)
            deepest = rows[-1]
            if len(deepest) >= 2 and len(rows) >= 2:
                delta_seq = abs(deepest[-1] - deepest[-2])
                delta_round = abs(deepest[-1] - rows[-2][-1])
                delta = max(delta_seq, delta_round)
                floor = 8.0 * _EPS * scale
                if delta <= max(cfg.rel_tol * abs(deepest[-1]), floor):
                    return SeriesValue(complex(deepest[-1]), delta + floor, k, True)
            checkpoint *= 2
    rows = _averaged(partials, depth)
    best = rows[-1][-1] if rows[-1] else running
    raise NonConvergenceError(
        f"oscillation persisted past max_terms={cfg.max_terms}",
        partial=SeriesValue(complex(best), math.inf, k, False),
    )
