"""Numeric q-Euler numbers and polynomials, and classical reference objects.

The defining alternating series for the polynomial family diverges for
|q| < 1 (its terms approach a nonzero geometric profile); the values here are
its regularized ones, the binomially re-expanded finite sums below.  The
test suite holds them to the iterated-averaging value of the series' partial
sums, and `qeuler verify` to the binomial formula at non-integer shifts.

Evaluation strategy: E_n(x, h | q) is the terminating alternating sum at
every finite shift, in big-integer fixed point and rounded once, correctly
(see _exactcomplex), because the floating-point sum cancels down by a factor
of order (1-q)^n and would lose 6-12 digits for the larger n and q of
interest.  A shift other than an integer 0..EXACT_SHIFT_MAX enters the sum
as q^x at the working precision.  The q-Euler numbers come from one float
pass of their recurrence, and the classical Euler numbers from one integer
pass of theirs.  The classical Euler polynomial E_n(x) is one Gaussian-
integer sum over those at every finite x, real or complex, divided once per
component, so it too is correctly rounded; classical_zeta_E returns it at
order -n.  Nothing here keeps state between calls.
"""

from __future__ import annotations

import cmath
import math

from ._exactcomplex import terminating_alt_sum
from .errors import FloatRangeError
from .exact import _value_at
from .kernel import DEFAULT_CONFIG, EngineConfig, as_complex, as_index, as_qparameter, check_order_terms

__all__ = [
    "euler_number",
    "euler_numbers",
    "euler_poly",
    "classical_euler_number",
    "classical_euler_poly",
]


def euler_numbers(n: int, q, config: EngineConfig | None = None) -> list[complex]:
    """The q-Euler numbers E_0..E_n: E_0 = (1+q)/2 and
    E_m = -(1/(1+q^m)) sum_{l<m} C(m,l) q^l E_l.

    n + 1 above config.max_terms is refused before any work, with
    NonConvergenceError, as for the zeta sums at order -n, and n >= 1030,
    whose binomials lie beyond the float range, with FloatRangeError, as is
    the first E_m whose float recurrence leaves the float range."""
    n = as_index(n, "n")
    check_order_terms(n, config or DEFAULT_CONFIG)
    if math.comb(n, n // 2).bit_length() > 1024:  # the largest C(m, l) read does not convert to float
        raise FloatRangeError(f"the binomials of E_0..E_{n} lie beyond the float range")
    qq = as_qparameter(q).q
    table = [(1.0 + qq) / 2.0]
    for m in range(1, n + 1):
        acc = 0j
        qpow = 1 + 0j
        for l in range(m):
            acc += math.comb(m, l) * qpow * table[l]
            qpow *= qq
        table.append(-acc / (1.0 + qq**m))
        if not cmath.isfinite(table[-1]):
            raise FloatRangeError(f"E_{m} of E_0..E_{n} lies beyond the float range")
    return table


def euler_number(n: int, q, config: EngineConfig | None = None) -> complex:
    """The n-th q-Euler number; see euler_numbers."""
    return euler_numbers(n, q, config)[-1]


def euler_poly(n: int, x, h: int, q, config: EngineConfig | None = None) -> complex:
    """The q-Euler polynomial E_n(x, h | q), correctly rounded.

    It is the terminating alternating sum
        [2]_q (1-q)^(-n) sum_k (-1)^k C(n,k) q^(x k) / (1 + q^(h+k))
    at every finite shift x, integer or not, negative or complex, with q^x
    on the branch of cmath.log(q), as cpow takes it (see _exactcomplex).  A
    value beyond the float range raises FloatRangeError, and a non-finite
    shift ValueError.  n + 1 terms above config.max_terms are refused before
    any work, with NonConvergenceError.  At x = 0 this reduces to the
    q-Euler numbers (h = 0) by definition.
    """
    n = as_index(n, "n")
    check_order_terms(n, config or DEFAULT_CONFIG)
    return terminating_alt_sum(n, as_index(h, "h"), as_qparameter(q).q, x)


def scaled_classical_euler(n: int) -> list[int]:
    """The integers 2^m E_m, m = 0..n, of the classical Euler numbers below.

    E_0 = 1 and E_m = -(1/2) sum_{l<m} C(m,l) E_l make every E_m dyadic, so
    a_m = 2^m E_m = -sum_{l<m} C(m,l) a_l 2^(m-1-l) stays in the integers.
    """
    n = as_index(n, "n")
    a = [1]
    for m in range(1, n + 1):
        a.append(-sum(math.comb(m, l) * a[l] << (m - 1 - l) for l in range(m)))
    return a


def classical_euler_number(n: int):
    """Euler number of the classical generating function 2/(e^t + 1):
    E_0 = 1 and E_n = -(1/2) sum_{l<n} C(n,l) E_l, exact, as a Fraction."""
    from fractions import Fraction
    n = as_index(n, "n")
    return Fraction(scaled_classical_euler(n)[n], 2**n)


def classical_euler_poly(n: int, x) -> complex:
    """Classical Euler polynomial E_n(x) = sum_k C(n,k) E_k x^(n-k), correctly rounded.

    With a_k = 2^k E_k (scaled_classical_euler) the value is the integer
    polynomial sum_j C(n,j) a_(n-j) 2^j x^j over 2^n, taken exactly at the
    binary64 x and rounded once per component by exact._finish, which
    raises FloatRangeError, naming this polynomial, where the value lies
    beyond the float range; a non-finite x raises ValueError.
    """
    n = as_index(n, "n")
    z = as_complex(x, "x")
    a = scaled_classical_euler(n)
    name = f"the classical Euler polynomial of order {n} at x = {x!r}"
    return _value_at([math.comb(n, j) * a[n - j] << j for j in range(n + 1)], (1 << n,), z, name)
