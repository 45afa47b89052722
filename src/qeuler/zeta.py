"""Alternating Euler-type zeta functions.

The q-deformed pair comes in a plain variant (sum over n >= 1) and a
Hurwitz-type variant (sum over n >= 0 with shift x).  Neither alternating
sum converges classically for |q| < 1, so both are evaluated through the
binomially re-expanded k-series

    plain:   [2]_q (1-q)^s sum_k gb(s,k) * (-q^(h+k) / (1 + q^(h+k)))
    Hurwitz: [2]_q (1-q)^s sum_k gb(s,k) *  q^(x k) / (1 + q^(h+k))

with gb(s,k) = Gamma(s+k) / (Gamma(s) k!) the rising-factorial binomial.
One generator, _kseries_terms, yields the terms of both values and of both
order-derivatives, carrying gb, q^(h+k) and q^(xk); all of them are summed
by kernel.sum_series_geometric.  The k-series converges geometrically for
every complex order s on the plain side, terminates at k = n when s = -n,
and agrees with the iterated-averaging value of the defining sum; it is
adopted here as the definition of the continuation.
Terminating orders are finite sums, plain or E_n(x, h | q) at every
shift, which one call to _exactcomplex.terminating_alt_sum evaluates in
big-integer fixed point and rounds once, correctly, with bound 0; that
keeps the interpolation property at machine precision.  The classical
zeta at order -n is likewise numeric.classical_euler_poly, the exact
classical Euler polynomial rounded once.

The q-Euler numbers continue in the order by the reflection E_q(s) =
zeta_q(-s): it runs through every q-Euler number of positive order and
through the positive-order zeta values at negative arguments.  Its
derivative is -zeta_q'(-s) by the chain rule (the reflection flips the sign
of the derivative, whatever the evaluation point).

As the real order grows, the plain variant tends to -(1 + q) when
|[n]_q| > 1 for every n >= 2: only the first alternating term survives.
Where that fails, as at q = -0.9 ([2]_q = 0.1) and q = 0.6 + 0.7i, a later
term dominates instead.  The classically quoted limit -2 is the q -> 1 edge
of -(1 + q) and is not attained inside the unit disk; the verification
report annotates this as an expected deviation.
"""

from __future__ import annotations

import cmath
import math

from ._exactcomplex import terminating_alt_sum
from .errors import NonConvergenceError
from .kernel import (
    DEFAULT_CONFIG,
    EngineConfig,
    SeriesValue,
    as_complex,
    as_index,
    as_int,
    as_qparameter,
    check_order_terms,
    cpow,
    sum_series_geometric,
)
from .numeric import classical_euler_poly

__all__ = ["qzeta", "qzeta_hurwitz", "qzeta_deriv", "euler_continuation", "euler_continuation_deriv", "classical_zeta_E"]


def _kseries_terms(s: complex, h: int, q: complex, qx, pref: complex, log1mq, n):
    """Yield the k-series terms t_0, t_1, ... of a value or of a derivative.

    qx is q^x for the Hurwitz variant and None for the plain one; log1mq is
    log(1-q) for the order-derivative and None for the value; n >= 0 when
    s = -n.  Each variant keeps the floating-point operation order of its own
    formula, so equal inputs give equal bits whichever variant is asked.

    The derivative multiplies each term by log(1-q) + sum_{j<k} 1/(s+j)
    wherever gb(s,k) != 0.  At s = -n the terms beyond k = n have gb = 0 but
    a nonzero derivative: exactly one product factor vanishes, so the
    product rule leaves the product of the remaining factors over k!,
    carried in dprod.  The derivative series does not terminate there, but
    it converges geometrically like the others.
    """
    gb, harm, dprod = 1 + 0j, 0j, 0j
    qhk, qxk = q**h, 1 + 0j
    k = 0
    while True:
        denom = 1.0 + qhk
        if denom == 0:
            raise ArithmeticError("1 + q^(h+k) vanished")
        if log1mq is None:
            yield pref * gb * (-qhk / denom) if qx is None else pref * gb * qxk / denom
        else:
            c = -qhk / denom if qx is None else qxk / denom
            if n is None or k <= n:
                yield pref * c * gb * (log1mq + harm)
                if n is None or k < n:
                    harm = harm + 1.0 / (s + k)
                else:
                    # gb is about to become 0; seed the product-rule remainder
                    # prod_{j<k+1, j != n} (s+j) / (k+1)! = (-1)^n / (n+1).
                    dprod = complex((-1.0) ** n / (n + 1))
            else:
                yield pref * c * dprod
                dprod = dprod * (k - n) / (k + 1)
        gb = gb * (s + k) / (k + 1)
        qhk = qhk * q
        if qx is not None:
            qxk = qxk * qx
        k += 1


def _kseries(s, x, h: int, q, config: EngineConfig | None, deriv: bool) -> SeriesValue:
    # Shared driver: validation, the finite sums at terminating orders, and
    # the summed k-series with its tail ratio.
    h = as_index(h, "h")
    qq = as_qparameter(q).q
    cfg = config or DEFAULT_CONFIG
    s = as_complex(s, "the order")
    n = as_int(s)
    n = -n if n is not None and n <= 0 else None
    if n is not None and not deriv:
        # The finite sum, plain or E_n(x, h | q) at every shift, correctly
        # rounded.
        check_order_terms(n, cfg)
        return SeriesValue(terminating_alt_sum(n, h, qq, x), 0.0, n + 1, True)
    if x is not None:
        x = as_complex(x, "x")
        if x.real < 0:
            raise ValueError("the Hurwitz variant needs a finite x with Re(x) >= 0")
    pref = (1.0 + qq) * cpow(1.0 - qq, s)
    log1mq = cmath.log(1.0 - qq) if deriv else None
    ratio = abs(qq)
    qx = None
    if x is not None:
        # For large k the Hurwitz terms shrink by |q^x| per step, which is
        # the slower rate when Re(x) < 1.
        qx = cpow(qq, x)
        ratio = max(ratio, abs(qx))
    if ratio >= 1.0:
        # The terms never shrink, so no budget can meet the stopping test.
        raise NonConvergenceError(f"the k-series terms do not shrink: |q^x| = {ratio:.6g} >= 1")
    terms = _kseries_terms(s, h, qq, qx, pref, log1mq, n)
    return sum_series_geometric(terms, ratio, abs(s), cfg)


def qzeta(s, h: int, q, config: EngineConfig | None = None) -> SeriesValue:
    """The plain q-deformed alternating zeta at order s (weight exponent h).

    Interpolation: at s = -n (n >= 1) the terminating k-series reproduces the
    n-th q-Euler number exactly; at s = 0 it gives -[2]_q/2, which differs
    from the order-0 number by [2]_q (the dropped n = 0 series term).
    """
    return _kseries(s, None, h, q, config, deriv=False)


def qzeta_hurwitz(s, x, h: int, q, config: EngineConfig | None = None) -> SeriesValue:
    """The Hurwitz-type variant at (s, x, h).

    At s = -n the series terminates at k = n and equals the q-Euler
    polynomial E_n(x, h | q) at every finite shift, euler_poly's correctly
    rounded value, with error_bound 0 and terms_used = n + 1.  At every
    other order the shift needs Re(x) >= 0.
    For x = 0 and Re(s) > 0 the k-series genuinely diverges (the underlying
    n = 0 term is singular), and NonConvergenceError is raised before any
    summing.
    """
    return _kseries(s, x, h, q, config, deriv=False)


def qzeta_deriv(s, h: int, q, x=None, config: EngineConfig | None = None) -> SeriesValue:
    """Order-derivative of the q-deformed zeta (plain, or Hurwitz when x given).

    Each term of the value's k-series picks up the factor log(1-q) +
    sum_{j<k} 1/(s+j), with the product rule taking over at nonpositive
    integer s (see _kseries_terms).  The derivative series is summed there
    too: unlike the value's, it does not terminate.
    """
    return _kseries(s, x, h, q, config, deriv=True)


def euler_continuation(s, q, config: EngineConfig | None = None) -> SeriesValue:
    """E_q(s) = zeta_q(-s): the q-Euler numbers continued in the order.

    Matches euler_number(n, q) at integer s = n >= 1 and equals the
    positive-order zeta values at negative integers.  The SeriesValue is
    qzeta's at -s, negated in the caller's own type (a real s keeps +0.0 as
    its imaginary part); a non-finite s is refused as the caller gave it.
    """
    as_complex(s, "the order")
    return qzeta(-s, 0, q, config)


def euler_continuation_deriv(s, q, config: EngineConfig | None = None) -> SeriesValue:
    """d/ds E_q(s) = -zeta_q'(-s) (chain rule through the reflection): the
    SeriesValue of qzeta_deriv at -s with its value negated."""
    as_complex(s, "the order")
    sv = qzeta_deriv(-s, 0, q, config=config)
    return SeriesValue(-sv.value, sv.error_bound, sv.terms_used, sv.converged)


# -- classical alternating zeta -------------------------------------------------


def _cvz_alternating(a: list, s: complex, shift: float) -> tuple[complex, float]:
    # Chebyshev-weighted acceleration of sum_{k>=0} (-1)^k a[k] from the
    # n = len(a) terms a[k] = (k + shift)^(-s) given; also sums the divergent
    # polynomially-growing cases to their continued values.  Returns the sum
    # and sum_k |c_k| |a_k| (n + 2 + |s log(k + shift)|) / d, which times
    # 2^-51 bounds the sum's rounding: per |c_k a_k|, n + 2 for the running
    # weight c_k, the sum and the division, and |s log(k + shift)| for the
    # power a_k = exp(-s log(k + shift)).
    n_terms = len(a)
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n_terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0j
    mass = 0.0
    for k in range(n_terms):
        c = b - c
        term = c * a[k]
        acc += term
        if term:  # a[0] = 0 at shift 0
            mass += abs(term) * (n_terms + 2 + abs(s * math.log(k + shift)))
        b *= (k + n_terms) * (k - n_terms) / ((k + 0.5) * (k + 1.0))
    return acc / d, mass / d


def classical_zeta_E(s, x=None, config: EngineConfig | None = None) -> SeriesValue:
    """Classical alternating Euler zeta, plain or shifted.

    plain:   2 sum_{n>=1} (-1)^n n^(-s)
    shifted: 2 sum_{n>=0} (-1)^n (n+x)^(-s),  0 <= x < 1

    Evaluated with the Cohen-Villegas-Zagier alternating-series acceleration,
    whose error_bound is twice the change from its last 8 terms plus its own
    rounding (see _cvz_alternating).
    At nonpositive integer orders the terms are polynomial in the index and
    the acceleration no longer converges; there the regularized value is the
    classical Euler polynomial, -E_n(1) plain and E_n(x) shifted, as
    classical_euler_poly rounds it once from its exact value; an order -n
    whose n + 1 terms exceed max_terms raises NonConvergenceError.  x = 0
    with Re(s) > 0 is rejected (the n = 0 term is singular), and so is a
    non-finite order, with ValueError.
    """
    cfg = config or DEFAULT_CONFIG
    s = as_complex(s, "the order")
    xv = None
    if x is not None:
        xv = as_complex(x, "x")
        if xv.imag != 0.0 or not 0.0 <= xv.real < 1.0:
            raise ValueError("the shifted variant needs real x in [0, 1)")
        if xv.real == 0.0 and s.real > 0:
            raise ValueError("x = 0 with Re(s) > 0 makes the n = 0 term singular")

    n = as_int(s)
    if n is not None and n <= 0:
        n = -n
        check_order_terms(n, cfg)
        # 2 sum_k (-1)^k (k+x)^n is E_n(x), and the plain sum is -E_n(1),
        # taken as 0 - E_n(1) so that a zero keeps the sign +0.0.
        value = 0.0 - classical_euler_poly(n, 1) if xv is None else classical_euler_poly(n, xv)
        return SeriesValue(value, 0.0, n + 1, True)

    digits = -math.log10(cfg.rel_tol)
    imag_pad = int(0.5 * abs(s.imag))
    if s.real < 0:
        # Mild divergence: the acceleration has an accuracy sweet spot near
        # 30 terms and degrades if pushed further.
        n_terms = 30 + imag_pad
    else:
        n_terms = int(1.31 * digits) + 14 + imag_pad
    if n_terms > cfg.max_terms:
        raise NonConvergenceError(
            f"acceleration needs {n_terms} terms, above max_terms={cfg.max_terms}"
        )
    # plain: a[k] = (k+1)^(-s), shifted: a[k] = (k+x)^(-s)
    shift, factor = (1.0, -2.0) if xv is None else (xv.real, 2.0)
    a = [cpow(k + shift, -s) for k in range(n_terms)]
    v1, mass = _cvz_alternating(a, s, shift)
    v2 = _cvz_alternating(a[: n_terms - 8], s, shift)[0]
    value = factor * v1
    err = 2.0 * abs(factor) * (abs(v1 - v2) + 2.220446049250313e-16 * mass)
    converged = err <= max(cfg.rel_tol * abs(value), 1e-13)
    return SeriesValue(value, err, n_terms, converged)
