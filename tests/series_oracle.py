"""The regularized-series oracle of the test suite: the defining alternating
series [2]_q sum_k (-1)^k q^(hk) [k+x]_q^n of E_n(x, h | q), which diverges
for |q| < 1, given the iterated-averaging value of its partial sums.

It is a float check instrument for real q in (0, 1) and real x >= 0 and
shares no code with the library's evaluators.  Import it from a test module
as ``from series_oracle import euler_poly_series_oracle``.
"""

from __future__ import annotations

import math
import sys

from qeuler.errors import FloatRangeError, NonConvergenceError
from qeuler.kernel import DEFAULT_CONFIG, EngineConfig, SeriesValue, as_complex, as_index, as_qparameter

_EPS = sys.float_info.epsilon


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

    This is an independent check instrument: it never calls the library's
    evaluators.
    """
    n, h = as_index(n, "n"), as_index(h, "h")
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    qp = as_qparameter(q)
    if qp.q.imag != 0.0 or not 0.0 < qp.q.real < 1.0:
        raise ValueError("the series oracle needs real q in (0, 1)")
    xr = as_complex(x, "x")
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
        try:
            running += two_q * sign * (qr ** (h * k)) * bracket**n
        except OverflowError as exc:
            raise FloatRangeError(f"term {k} of the series oracle at order {n} lies beyond the float range") from exc
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
