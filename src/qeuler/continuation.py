"""Continuation of the q-Euler numbers and polynomials to real order.

The number continuation is the zeta reflection E_q(s) = zeta_q(-s): it runs
through every q-Euler number of positive order and through the positive-order
zeta values at negative arguments.  Its derivative is -zeta_q'(-s) by the
chain rule (the reflection flips the sign of the derivative, whatever the
evaluation point).

The polynomial family deforms through a binomial-weighted sum over the
integer part of the order,

    E_q(s, w) = sum_{k=-1}^{[s]} binom(s, [s]-k) C(k+s-[s]) q^((k+s-[s])w)
                [w]_q^([s]-k),

with [s] the floor, binom(s, m) = s(s-1)...(s-m+1)/m! the generalized
binomial Gamma(1+s) / (Gamma(1+s-m) Gamma(1+m)) and C the continued
order-coefficient function.  At integer s the k = -1 term is 0
(binom(s, s+1) = 0) and the sum collapses to the binomial expansion of
E_{s,q}(w).  The weights are one running product, binom(s, m) =
binom(s, m-1) (s-m+1) / m, whose rounding is at most gamma_2m relatively
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 3) and which
is exact at integer s while the products stay below 2^53.  A weight, a
weighted coefficient or a sum beyond the float range raises FloatRangeError.

One wrinkle: the plain zeta continuation misses the n = 0 term of the
defining series, so its value at order 0 sits exactly [2]_q below the
order-0 number E_{0,q} = [2]_q / 2.  Fed naively into the sum above, that
defect would make the deformation jump by [2]_q [w]^([s]+1) at every integer
order instead of joining the polynomial curves.  The coefficient function C
therefore blends the defect back in linearly over arguments in (-1, 1):
C(a) = zeta_q(-a) + [2]_q max(0, 1 - |a|).  This restores C(0) = E_{0,q},
leaves every other integer argument untouched, and makes the deformation
continuous; elsewhere the blend only affects the interior of the first unit
interval of arguments.
"""

from __future__ import annotations

import cmath
import math

from .errors import CurveSampleError, FloatRangeError, NonConvergenceError, PoleError
from .kernel import DEFAULT_CONFIG, FD_STEP, EngineConfig, QParameter, Record, _set, as_qparameter, cpow, q_bracket
from .zeta import _kseries, _PlainFactors, qzeta, qzeta_deriv

__all__ = [
    "CurveGrid",
    "euler_continuation",
    "euler_continuation_deriv",
    "euler_poly_continuation",
    "curve_grid",
]


def _reflected(s) -> complex:
    # -s, with a non-finite order refused as the caller gave it
    sc = complex(s)
    if not cmath.isfinite(sc):
        raise ValueError(f"the order must be finite, got {s!r}")
    return -sc


def euler_continuation(s, q, config: EngineConfig | None = None) -> complex:
    """E_q(s) = zeta_q(-s): the q-Euler numbers continued in the order.

    Matches euler_number(n, q) at integer s = n >= 1 and equals the
    positive-order zeta values at negative integers.
    """
    return qzeta(_reflected(s), 0, q, config).value


def euler_continuation_deriv(s, q, config: EngineConfig | None = None) -> complex:
    """d/ds E_q(s) = -zeta_q'(-s) (chain rule through the reflection)."""
    return -qzeta_deriv(_reflected(s), 0, q, config=config).value


def _binomials(s: float, top: int) -> list[float]:
    # binom(s, m) for m = 0..top, as one running product.
    out = [1.0]
    for m in range(1, top + 1):
        out.append(out[-1] * (s - m + 1) / m)
    return out


def _order_terms(
    s, qp: QParameter, cfg: EngineConfig, factors: _PlainFactors
) -> list[tuple[float, complex, int]]:
    # The s-dependent part of E_q(s, w): (k + frac, weight * C(k + frac), [s] - k) per k.
    # factors is the plain zeta's table at (0, q), which every C(k + frac) reads.
    sc = complex(s)
    if sc.imag != 0.0:
        raise ValueError("the polynomial continuation takes a real order")
    sv = sc.real
    if not 0.0 <= sv < math.inf:
        raise ValueError(f"the polynomial continuation needs a finite s >= 0, got {sv!r}")
    fs = math.floor(sv)
    if fs + 2 > cfg.max_terms:
        raise NonConvergenceError(f"order {sv!r} has more terms than max_terms={cfg.max_terms}")
    frac = sv - fs
    binom = _binomials(sv, fs + 1)  # the weight of k is binom(s, [s] - k)
    terms = []
    for k in range(-1 if frac else 0, fs + 1):  # at integer s, k = -1 has binom(s, s+1) = 0
        arg = k + frac
        # C(arg), with the order-0 defect blended back in
        coeff = _kseries(complex(-arg), None, 0, qp, cfg, False, factors).value
        if abs(arg) < 1.0:
            coeff += (1.0 + qp.q) * (1.0 - abs(arg))
        weighted = binom[fs - k] * coeff
        if not cmath.isfinite(weighted):
            raise FloatRangeError(f"the weighted coefficients of order {sv!r} lie beyond the float range")
        terms.append((arg, weighted, fs - k))
    return terms


def _log_q(qp: QParameter) -> complex | None:
    # log q for cpow, taken once per grid or point; cpow handles q = 0 itself.
    return cmath.log(qp.q) if qp.q else None


def _sum_over_w(terms: list[tuple[float, complex, int]], w, qp: QParameter, logq) -> complex:
    # The part of E_q(s, w) that depends on w, summed in the order of the terms.
    ww = complex(w)
    bw = q_bracket(ww, qp)
    bw_pows = [1 + 0j]
    for _ in range(terms[0][2]):  # the first term has the highest power
        bw_pows.append(bw_pows[-1] * bw)
    total = 0j
    for arg, weighted, power in terms:
        total += weighted * cpow(qp.q, arg * ww, logq) * bw_pows[power]
    if not cmath.isfinite(total):
        raise FloatRangeError(f"E_q(s, w) at w = {w!r} lies beyond the float range")
    return total


def euler_poly_continuation(s, w, q, config: EngineConfig | None = None) -> complex:
    """The deformed polynomial value E_q(s, w) for real order s >= 0.

    At integer s this telescopes to the binomial expansion
    sum_k C(s,k) E_{k,q} q^(k w) [w]_q^(s-k); between integers it deforms one
    polynomial curve into the next.  A non-finite w raises ValueError; a
    value whose weights or sum lie beyond the float range raises
    FloatRangeError.
    """
    if not cmath.isfinite(complex(w)):
        raise ValueError(f"w must be finite, got {w!r}")
    qp = as_qparameter(q)
    terms = _order_terms(s, qp, config or DEFAULT_CONFIG, _PlainFactors(0, qp.q))
    return _sum_over_w(terms, w, qp, _log_q(qp))


class CurveGrid(Record):
    """Rectangular sampling of the deformation E_q(s, w), s outer, w inner."""

    __slots__ = ("q", "s_values", "w_values", "values", "metadata")

    def __init__(self, q: QParameter, s_values: tuple[float, ...], w_values: tuple[float, ...],
                 values: tuple[tuple[complex, ...], ...], metadata: dict):
        if len(values) != len(s_values):
            raise ValueError("grid row count does not match s sampling")
        for row in values:
            if len(row) != len(w_values):
                raise ValueError("grid column count does not match w sampling")
        _set(self, "q", q)
        _set(self, "s_values", s_values)
        _set(self, "w_values", w_values)
        _set(self, "values", values)
        _set(self, "metadata", metadata)


# A curve grid holds at most this many samples; both axes are counted, and a
# larger grid refused, before any point is built.
MAX_GRID_CELLS = 10**6


def _point_count(lo: float, hi: float, step: float) -> int:
    # The number of points of inclusive_range(lo, hi, step).
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"range bounds and step must be finite, got {lo!r}:{hi!r}:{step!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if hi < lo:
        raise ValueError("range must run upward")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_CELLS:
        raise ValueError(f"range {lo!r}:{hi!r}:{step!r} has more than {MAX_GRID_CELLS} points")
    return math.floor(span) + 1


def inclusive_range(lo: float, hi: float, step: float) -> list[float]:
    """Points lo, lo+step, ...; endpoints inclusive, final point clamped to hi."""
    pts = [lo + i * step for i in range(_point_count(lo, hi, step))]
    if pts[-1] > hi:
        pts[-1] = hi
    return pts


def curve_grid(
    s_min: float,
    s_max: float,
    s_step: float,
    w_min: float,
    w_max: float,
    w_step: float,
    q,
    config: EngineConfig | None = None,
) -> CurveGrid:
    """Sample euler_poly_continuation over an inclusive (s, w) grid.

    Rows (s outer, w inner) run in order, each computing its order terms once
    from one table of plain zeta factors shared by the whole grid; a failing
    sample aborts with its grid indices.
    """
    if s_min < 0:
        raise ValueError("s_min must be nonnegative")
    cells = _point_count(s_min, s_max, s_step) * _point_count(w_min, w_max, w_step)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"the grid has {cells} samples, above {MAX_GRID_CELLS}")
    qp = as_qparameter(q)
    cfg = config or DEFAULT_CONFIG
    svals = inclusive_range(s_min, s_max, s_step)
    wvals = inclusive_range(w_min, w_max, w_step)
    factors, logq = _PlainFactors(0, qp.q), _log_q(qp)
    rows = []
    for i, sv in enumerate(svals):
        row = []
        try:
            terms = _order_terms(sv, qp, cfg, factors)  # a failure here is reported at w[0]
            for wv in wvals:
                row.append(_sum_over_w(terms, wv, qp, logq))
        except (NonConvergenceError, PoleError, ValueError, OverflowError) as exc:
            j = len(row)
            raise CurveSampleError(
                f"sample failed at s[{i}]={sv!r}, w[{j}]={wvals[j]!r}: {exc}", i, j
            ) from exc
        rows.append(tuple(row))
    metadata = {
        "rel_tol": cfg.rel_tol,
        "max_terms": cfg.max_terms,
        "fd_step": FD_STEP,
        "s_range": {"min": s_min, "max": s_max, "step": s_step},
        "w_range": {"min": w_min, "max": w_max, "step": w_step},
    }
    return CurveGrid(qp, tuple(svals), tuple(wvals), tuple(rows), metadata)
