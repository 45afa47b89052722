"""Continuation of the q-Euler numbers and polynomials to real order.

The number continuation is the zeta reflection E_q(s) = zeta_q(-s): it runs
through every q-Euler number of positive order and through the positive-order
zeta values at negative arguments.  Its derivative is -zeta_q'(-s) by the
chain rule (the reflection flips the sign of the derivative, whatever the
evaluation point).

The polynomial family deforms through a Gamma-weighted sum over the integer
part of the order,

    E_q(s, w) = sum_{k=-1}^{[s]} Gamma(1+s) C(k+s-[s]) q^((k+s-[s])w)
                [w]_q^([s]-k) / (Gamma(1+k+s-[s]) Gamma(1+[s]-k)),

with [s] the floor and C the continued order-coefficient function.  At
integer s the k = -1 term is 0 (a 1/Gamma(0) factor) and the sum collapses
to the binomial expansion of E_{s,q}(w).

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
from dataclasses import dataclass

from .errors import CurveSampleError, NonConvergenceError, PoleError
from .kernel import (
    DEFAULT_CONFIG,
    FD_STEP,
    EngineConfig,
    QParameter,
    as_qparameter,
    cpow,
    log_gamma,
    q_bracket,
)
from .zeta import _kseries, _PlainFactors, qzeta, qzeta_deriv

__all__ = [
    "CurveGrid",
    "euler_continuation",
    "euler_continuation_deriv",
    "euler_poly_continuation",
    "curve_grid",
]


def euler_continuation(s, q, config: EngineConfig | None = None) -> complex:
    """E_q(s) = zeta_q(-s): the q-Euler numbers continued in the order.

    Matches euler_number(n, q) at integer s = n >= 1 and equals the
    positive-order zeta values at negative integers.
    """
    return qzeta(-complex(s), 0, q, config).value


def euler_continuation_deriv(s, q, config: EngineConfig | None = None) -> complex:
    """d/ds E_q(s) = -zeta_q'(-s) (chain rule through the reflection)."""
    return -qzeta_deriv(-complex(s), 0, q, config=config).value


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
        raise NonConvergenceError(f"order {sv!r} has {fs + 2} terms, above max_terms={cfg.max_terms}")
    frac = sv - fs
    lg_top = log_gamma(1.0 + sv)
    terms = []
    for k in range(-1 if frac else 0, fs + 1):  # at integer s, k = -1 has 1/Gamma(0) = 0
        arg = k + frac
        weight = cmath.exp(lg_top - log_gamma(1.0 + k + frac) - log_gamma(1.0 + fs - k))
        # C(arg), with the order-0 defect blended back in
        coeff = _kseries(complex(-arg), None, 0, qp, cfg, False, factors).value
        if abs(arg) < 1.0:
            coeff += (1.0 + qp.q) * (1.0 - abs(arg))
        terms.append((arg, weight * coeff, fs - k))
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
    return total


def euler_poly_continuation(s, w, q, config: EngineConfig | None = None) -> complex:
    """The deformed polynomial value E_q(s, w) for real order s >= 0.

    At integer s this telescopes to the binomial expansion
    sum_k C(s,k) E_{k,q} q^(k w) [w]_q^(s-k); between integers it deforms one
    polynomial curve into the next.  Gamma ratios are taken in log space so
    orders up to ~50 stay in range.
    """
    qp = as_qparameter(q)
    terms = _order_terms(s, qp, config or DEFAULT_CONFIG, _PlainFactors(0, qp.q))
    return _sum_over_w(terms, w, qp, _log_q(qp))


@dataclass(frozen=True)
class CurveGrid:
    """Rectangular sampling of the deformation E_q(s, w), s outer, w inner."""

    q: QParameter
    s_values: tuple[float, ...]
    w_values: tuple[float, ...]
    values: tuple[tuple[complex, ...], ...]
    metadata: dict

    def __post_init__(self):
        if len(self.values) != len(self.s_values):
            raise ValueError("grid row count does not match s sampling")
        for row in self.values:
            if len(row) != len(self.w_values):
                raise ValueError("grid column count does not match w sampling")


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
            for j, wv in enumerate(wvals):
                z = _sum_over_w(terms, wv, qp, logq)
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    raise CurveSampleError(
                        f"non-finite sample at s[{i}]={sv!r}, w[{j}]={wv!r}", i, j
                    )
                row.append(z)
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
