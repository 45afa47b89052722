"""Order -n values of the re-expanded alternating series, rounded once.

At s = -n the k-series terminates in the finite sum S = sum_{k<=n} (-1)^k
C(n,k) f_k, f_k = q^(x k)/(1 + q^(h+k)); the plain form is the x = 0 sum
less sum_k (-1)^k C(n,k).  S is smaller than its largest term by a factor
on the order of (1-q)^n, so a float sum loses most of its digits.  A
binary64 q is an exact dyadic Q / 2^e with Q a Gaussian integer, so the sum
is taken in big-integer fixed point, 2^W units to 1, W = p + guard bits.

Every sum here reads one term list, v_k = 2^W f_k for k = 0..n
(_quotients).  The powers q^(h+k) and q^(x k) are carried exactly while
they fit in W fractional bits, and truncated to W bits after that; q, q^h
and, at an integer shift 0..EXACT_SHIFT_MAX, q^x are truncated once when
they are wider.  Any other finite shift reads q^x = exp(x Log q) at W bits
under a stated error (_Shift), on the branch of cmath.log(q).  q comes
through kernel.QParameter, whose 1 - |q| > 2^-65 keeps q~ and every
truncated integer power of q inside the unit disk at the 72 or more bits
of every sum and table; the one refusal left is a _Shift's x~, after
which the sum retries at more bits.  Each term is one integer division,
and the list stops where the truncated q^(x k) reaches 0.  A single sum is
the binomially weighted sum of that list (_truncated_sum).  It comes back
with a rigorous radius in closed form (see _radius) that counts the floors,
the truncation of q, the error of q^x, the growth of the errors in the
carried powers and the lower bound |1 + q^m| >= 1 - |q|; it is carried
exactly through the prefactor (1+q)/(1-q)^n.  When both ends of that interval round to the same float,
and the interval excludes 0 where that float is a zero, so does every value
inside it (Ziv's rounding test; CPython's int / int is correctly rounded);
otherwise p grows, at least doubling, by as many bits as the smaller
component of that attempt lacks against its radius, and far enough to
carry a truncated q whole: a q whose imaginary part is tiny, as 0.5 +
2^-600 i, goes straight to the bits that part needs.  With exact powers,
after three attempts the Q(q) engine's E_n(x, h | q) is taken at q
exactly, its coefficients by one Horner pass in Gaussian integers, and
rounded once per component (exact._value_at, which RationalQ.eval runs at
a float or complex q too); exact zeros and binary64 ties, as
(1+q)/2 is at q = 0.9, end there.  A _Shift has no exact fallback, and
after _SHIFT_ATTEMPTS attempts raises NonConvergenceError.  Attempts and
fallback round by exact._finish, which raises FloatRangeError beyond the
float range.

The term list at shift 2, v_j = 2^W q^(2j) / (1 + q^j), gives the
continuation its difference table (DifferenceTable): every difference
R_m[j] = sum_i (-1)^i C(m,i) c'_(j+i) of c'_j = q^(2j) / (1 + q^j), taken
exactly by integer subtraction, one pass per order over one list, and each
entry rounded once to a float when it is first read.  The list and the
integer rows grow as the reads ask for more (_term_lists carries its powers
from one extension to the next), so an entry does not depend on how far the
table was grown; where the list stops, the rows read zeros.  The
differences of order m are of the order of |1-q^2|^m |q|^(2j), so near q = 1
floats would lose their digits; the table's error bound (difference_error)
counts the floors and the carried powers, and the continuation chooses W
from it (continuation._nested_sums).
"""

from __future__ import annotations

import cmath
import math
from itertools import islice, repeat
from operator import mul, sub

from .errors import FloatRangeError, NonConvergenceError, PoleError
from .exact import _dyadic, _finish, _value_at, euler_poly_coefficients
from .kernel import EXACT_SHIFT_MAX, as_complex, as_int

__all__ = ["DifferenceTable", "difference_error", "terminating_alt_sum"]

_LN2 = math.log(2.0)


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pow(a, k: int):
    out = (1, 0)
    while k:
        if k & 1:
            out = _mul(out, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return out


def _fixed(Z, bits: int, W: int):
    # The dyadic Z / 2^bits as (N, s) with value N / 2^s: exact while bits <=
    # W, else floored per component to W fractional bits (error < sqrt2 2^-W).
    if bits <= W:
        return Z, bits
    r = bits - W
    return (Z[0] >> r, Z[1] >> r), W


def _exp(z, P: int):
    """exp(z / 2^P) for a Gaussian integer z, as (w, err): w is a Gaussian
    integer and |w / 2^P - exp(z / 2^P)| <= err / 2^P.

    The argument is halved s times, to t = z / 2^(P+s) with |t| < 0.18, and
    exp(z) = exp(t)^(2^s) (Brent and Zimmermann, Modern Computer Arithmetic,
    ch. 4).  The Taylor series of exp(t) is summed at G = P + s + 8 bits,
    where t is exact, each term T_j = T_(j-1) t / j floored once per
    component, until both components of a term are within 1 unit of 0.  A
    term is within e_j <= e_(j-1) |t| + sqrt2 <= 2 units of t^j / j!, so the
    last is within 2 + sqrt2 of 0 and the tail beyond it within 1: J terms
    give 2 J + 1 units.  A squaring takes an error e on w~ to
    e (2 |w~| + e) / 2^G, plus its floors and a ceiling, 3 units, with
    |w~| 2^G <= isqrt(|w~ 2^G|^2) + 1; the last floor to P bits adds 3 more.
    """
    z0, z1 = z
    k = max(3, math.isqrt(P) >> 1)
    s = max(0, max(abs(z0), abs(z1)).bit_length() - P + k)
    G = P + s + 8
    t0, t1 = z0 << 8, z1 << 8
    w0 = a0 = 1 << G
    w1 = a1 = j = 0
    while abs(a0) > 1 or abs(a1) > 1:
        j += 1
        a0, a1 = (a0 * t0 - a1 * t1 >> G) // j, (a0 * t1 + a1 * t0 >> G) // j
        w0 += a0
        w1 += a1
    err = 2 * j + 1
    for _ in range(s):
        a, b = w0 * w0, w1 * w1
        err = (err * (2 * math.isqrt(a + b) + 2 + err) >> G) + 3
        w0, w1 = a - b >> G, w0 * w1 >> G - 1
    return (w0 >> G - P, w1 >> G - P), (err >> G - P) + 3


def _log(lq: complex, Q, e: int, P: int):
    """Log q at P fractional bits, as (Y, err) with |Y / 2^P - Log q| <= err / 2^P.

    y is the float logarithm lq = cmath.log(q) floored to P bits, and
    c = q exp(-y) - 1 is then of the order of its rounding error, so
    Log q = y + log1p(c), with log1p summed as c - c^2/2 + c^3/3 - ...: the
    logarithm within 2|c| of lq, on the branch that lq, and cpow, take.
    Each power of c~ is floored once per component, within 2 units of c~^j
    when |c~| < 0.18, and each term adds a floor more; the powers stop where
    both components of one are within 1 unit of 0, which bounds the tail by
    1 unit, so J terms are within 3 J units, and an error d on c~ moves
    log1p by at most 2 d.
    """
    (a, b), f = _dyadic(lq)
    y = (a << P - f, b << P - f) if f <= P else (a >> f - P, b >> f - P)
    (E0, E1), err_E = _exp((-y[0], -y[1]), P)
    c0 = (Q[0] * E0 - Q[1] * E1 >> e) - (1 << P)
    c1 = Q[0] * E1 + Q[1] * E0 >> e
    err_c = ((abs(Q[0]) + abs(Q[1])) * err_E >> e) + 3
    if max(abs(c0), abs(c1)) > 1 << P - 3:
        raise ArithmeticError(f"the float logarithm {lq!r} is too far off to refine")
    L0, L1, p0, p1, j = c0, c1, c0, c1, 1
    while abs(p0) > 1 or abs(p1) > 1:
        p0, p1 = p0 * c0 - p1 * c1 >> P, p0 * c1 + p1 * c0 >> P
        j += 1
        if j & 1:
            L0, L1 = L0 + p0 // j, L1 + p1 // j
        else:
            L0, L1 = L0 - p0 // j, L1 - p1 // j
    return (y[0] + L0, y[1] + L1), 3 * j + 2 * err_c


_CARRY_BITS = 1 << 16  # the widest n log2 |q^x| a sum carries
_SHIFT_ATTEMPTS = 6  # the attempts at a shift with no exact fallback


class _Shift:
    """q^x = exp(x Log q) for a shift x with no exact power, at any precision.

    Log q is the branch of cmath.log(q), the one cpow takes.  hi bounds
    log2 |q^x| from above by a float estimate with a wide margin, and R =
    R64 / 2^64 >= max(1, |q^x|, |x~|) for every x~ that power returns, so R
    and the error bound 4 - sqrt2 of x~ (c = 4 in _radius) hold at every W.
    Construction refuses a q^x too wide to carry: where the top term of the
    sum outweighs all the others and puts the value beyond the float range,
    it raises FloatRangeError, and elsewhere NonConvergenceError.
    """

    __slots__ = ("Q", "e", "lq", "x", "hi", "R64", "real")

    def __init__(self, q: complex, Q, e: int, x: complex, n: int):
        self.Q, self.e, self.x = Q, e, _dyadic(x)
        self.lq = cmath.log(q)
        lx = x * self.lq
        slack = 1e-14 * (abs(x.real * self.lq.real) + abs(x.imag * self.lq.imag))
        self.hi = (lx.real + slack) / _LN2
        # q^x is real at real q > 0 and real x, and at real q and integer x
        self.real = Q[1] == 0 and x.imag == 0 and (Q[0] > 0 or x.real.is_integer())
        if math.isnan(self.hi) or n * self.hi > 1024:
            # Where the top term (-1)^n q^(x n) / (1 + q^(h+n)) outweighs the
            # others, whose moduli sum to at most |q^x|^n expm1(n / |q^x|) /
            # lam, lam <= |1 + q^m|, the value is >= |1+q| |q^x|^n / (4 |1-q|^n).
            lo = (lx.real - slack) / _LN2
            lam = 1.0 if Q[1] == 0 and Q[0] > 0 else 0.99 * (1.0 - abs(q))
            if lo > 1 and math.expm1(n * 2.0**-lo) <= lam / 4 and math.log2(abs(1 + q)) + n * (lo - 1) - 3 > 1024:
                raise FloatRangeError(f"the sum at order {-n} lies beyond the float range")
            if not n * self.hi <= _CARRY_BITS:
                raise NonConvergenceError(f"q^x at x = {x!r} is too wide to carry through the sum at order {-n}")
        t = max(self.hi + 2.0**-20, 0.0)
        self.R64 = 1 << 64 if t == 0 else math.ceil(2.0 ** (t % 1) * 2**52) + 1 << 12 + int(t)

    def power(self, W: int):
        """x~ = q^x floored to W bits as a Gaussian integer M, and d8 with
        |M / 2^W - q^x| <= d8 / 2^(W+8), as (M, d8); or None where d8 / 2^8
        exceeds 4 - sqrt2 or R fails the bound (neither is expected).

        q^x is exp(z) with z = x Log q, at PZ = W + rho + 8 bits, where
        2^rho >= |q^x|: Log q at P1 = PZ + bx + 4 bits, 2^bx >= |x|, is
        within beta units (_log), so z, floored to PZ bits, is within
        dz = |x| beta / 2^(P1 - PZ) + 2 units; exp(z~) is within err units
        (_exp), and |exp(z) - exp(z~)| <= |exp(z~)| 2 dz.
        """
        if self.hi < -(W + 2):
            return (0, 0), 64  # |q^x| < 2^-(W+2)
        (xa, xb), fx = self.x
        PZ = W + max(0, math.ceil(self.hi)) + 8
        P1 = PZ + max(0, max(abs(xa), abs(xb)).bit_length() + 1 - fx) + 4
        (Y0, Y1), beta = _log(self.lq, self.Q, self.e, P1)
        sh = fx + P1 - PZ
        (w0, w1), err = _exp((xa * Y0 - xb * Y1 >> sh, xa * Y1 + xb * Y0 >> sh), PZ)
        dz = ((abs(xa) + abs(xb)) * beta >> sh) + 3
        err += ((abs(w0) + abs(w1) + err) * 2 * dz >> PZ) + 1
        r = PZ - W
        M0, M1 = w0 >> r, 0 if self.real else w1 >> r
        # delta <= d8 / 256 units: err / 2^r and sqrt2 for the floors
        d8 = ((err << 8) >> r) + 364
        reach = (self.R64 << W >> 64) - (d8 >> 8) - 1  # (R - delta) 2^W
        if d8 > 661 or M0 * M0 + M1 * M1 > reach * reach:
            return None
        return (M0, M1), d8


def _radius(n: int, h: int, Q, e: int, x, p: int) -> int | None:
    """The radius of _truncated_sum at any W >= p, in units of 2^-W, or None.

    Each component of _truncated_sum's result lies within this many units of
    2^W S; None when L64 below is not positive, where 3 (n + 1) 2^-p eats
    the lower bound.  q lies in the unit disk (kernel.QParameter), so for
    every m, |1 + P_m| >= lower: 1 for q in [0, 1), else
    (1 - |q|^2)/2 <= 1 - |q| <= 1 - |q|^m (and |1 + P_0| = 2).

    With u = 2^-W and R >= max(1, |q^x|, |x~|) (R = 1 at integer x >= 0):
    * each f_k is rounded per component, < 1 unit each, 2^n units in all;
    * q~ = q when e <= W, else q floored to W bits, so |q~ - q| < sqrt2 u;
      q~^h is P_h exact or floored once, and P~_(m+1) is P~_m q~ floored,
      so e_(m+1) <= |q~| e_m + |q|^m |q~ - q| + sqrt2 u and with
      |q|, |q~| <= 1 (1 - |q| > 2^-65 and u <= 2^-72),
      e_(h+k) <= (sqrt2 + k 2 sqrt2) u <= 3 (1 + k) u;
    * x~ is within delta u of q^x (floored once at integer x, delta <=
      sqrt2; delta <= 4 - sqrt2 from a _Shift), and X~_k is X~_(k-1) x~
      truncated toward zero, so |X~_k - X_k| <= R e_(k-1) + (delta +
      sqrt2) R^(k-1) u <= c k R^(k-1) u, c = 3 at integer x, 4 elsewhere;
    * with L = lower - 3 (n + 1) u <= |1 + P~_m|, |1 + P_m|,
      |f~_k - f_k| <= |X~_k - X_k| / L + |X_k| e_(h+k) / L^2, |X_k| <= R^k.
    Summed with the weights C(n,k), sum C(n,k) (1 + k) R^k =
    (1+R)^(n-1) (1 + R + n R) and sum C(n,k) k R^(k-1) = n (1+R)^(n-1), so
    in units
        radius = 2^n + 3 (1+R)^(n-1) (1 + R + n R) / L^2 + c n (1+R)^(n-1) / L,
    which at R = 1 is 2^n + 3 2^(n-1) (n + 2) / L^2 + 3 2^(n-1) n / L.
    The second term drops when no P~_m is truncated (e (h + n) <= W) and
    the third when no X~_k is (e x n <= W at integer x, which holds at
    W >= p when it holds at p; never elsewhere).  L is taken as L64 / 2^64
    with L64 = floor(lower 2^64) less 3 (n + 1) 2^(64 - p) rounded up, as
    u <= 2^-p, and R as R64 / 2^64.  So the radius does not depend on W,
    and no term needs its own bound.
    """
    shifted = isinstance(x, _Shift)
    inexact_p = e * (h + n) > p
    inexact_x = n > 0 if shifted else x and e * x * n > p
    radius = 1 << n
    if inexact_p or inexact_x:
        gap = (1 << 2 * e) - Q[0] * Q[0] - Q[1] * Q[1]  # 2^(2e) (1 - |q|^2)
        L64 = 1 << 64 if Q[1] == 0 and Q[0] >= 0 else (gap << 64) >> 2 * e + 1
        L64 -= (3 * (n + 1) >> p - 64) + 1  # p >= 72
        if L64 <= 0:
            return None
        R64, c = (x.R64, 4) if shifted else (1 << 64, 3)
        A = (1 << 64) + R64  # (1 + R) 2^64
        num = (3 * (A + n * R64) << 128 if inexact_p else 0) + (c * n * L64 << 128 if inexact_x else 0)
        radius += num * A**n // (L64 * L64 * A << 64 * n) + 1
    return radius


def _toward_zero(v: int, r: int) -> int:
    return v >> r if v >= 0 else -(-v >> r)


def _quotients(n: int, h: int, Q, e: int, x, W: int):
    """The terms v_k = 2^W X~_k / (1 + P~_(h+k)) of every order -n sum, k = 0..n.

    P~_m stands for q^m and X~_k for q^(x k), X~_k = 1 when x is 0 or None.
    q and q^h are computed exactly and floored once to W fractional bits
    when wider, as q~ and P~_h; so is q^x, as x~, at an integer x, and a
    _Shift gives x~ at W bits.  P~_m is carried exactly while it fits in W
    fractional bits and floored to W bits after, and X~_k is carried alike
    but truncated toward zero, as _radius assumes.  So the lists stop at the
    last k before X~_k reaches 0: every later term is 0.  Each component of
    a term is one integer division, within 1 unit of its exact value.
    Returns (re, im), two lists, with im None when q~, P~_h and x~ are
    real; or None when the _Shift refuses x~.  q~, P~_h and x~ at an integer
    x lie inside the unit disk, as _radius assumes: W >= 72, and
    kernel.QParameter keeps 1 - |q| > 2^-65.
    """
    return next(_term_lists(h, Q, e, x, W, n))


def _term_lists(h: int, Q, e: int, x, W: int, n: int):
    # _quotients' lists, grown on demand.  The first next() yields them
    # holding the terms k <= n (n >= 0), or None where _quotients refuses;
    # each send(n) then yields the same lists holding the terms k <= n, or
    # every term once the lists have stopped.  The powers are carried from
    # one send to the next, so a term does not depend on how the lists grew.
    (Q0, Q1), et = _fixed(Q, e, W)
    (N0, N1), s = _fixed(_pow(Q, h), e * h, W)
    if isinstance(x, _Shift):
        shifted = x.power(W)
        if shifted is None:
            yield None
            return
        (M0, M1), xs = shifted[0], W
    else:
        x = x or 0
        (M0, M1), xs = _fixed(_pow(Q, x), e * x, W)
    X0, X1, t = 1, 0, 0  # X~_k = X / 2^t
    re, k = [], 0
    if not (Q1 or N1 or M1):  # real q~: v_k = X~_k 2^(W + s) / w, w = 2^s + N
        while True:
            re.append((X0 << W + s - t) // ((1 << s) + N0))
            while k >= n:
                n = yield re, None
            k += 1  # X~ and P~ carried from k - 1 to k
            if x:
                X0 *= M0
                t += xs
                if t > W:
                    X0, t = _toward_zero(X0, t - W), W
                    if not X0:
                        break
            N0 *= Q0
            s += et
            if s > W:
                N0 >>= s - W
                s = W
        while True:
            yield re, None
    im = []
    while True:  # v_k = X~_k 2^(W + s) conj(w) / |w|^2
        w0 = (1 << s) + N0
        d = w0 * w0 + N1 * N1
        if x:  # X~_k conj(w) = (X0 w0 + X1 N1) + i (X1 w0 - X0 N1)
            sh = W + s - t
            re.append((X0 * w0 + X1 * N1 << sh) // d)
            im.append((X1 * w0 - X0 * N1 << sh) // d)
        else:
            re.append((w0 << W + s) // d)
            im.append(-((N1 << W + s) // d))
        while k >= n:
            n = yield re, im
        k += 1
        if x:
            X0, X1 = X0 * M0 - X1 * M1, X0 * M1 + X1 * M0
            t += xs
            if t > W:
                X0, X1, t = _toward_zero(X0, t - W), _toward_zero(X1, t - W), W
                if not (X0 or X1):
                    break
        N0, N1 = N0 * Q0 - N1 * Q1, N0 * Q1 + N1 * Q0
        s += et
        if s > W:
            N0 >>= s - W
            N1 >>= s - W
            s = W
    while True:
        yield re, im


def _truncated_sum(n: int, h: int, Q, e: int, x: int | None, W: int):
    """The sum times 2^W as (re, im), or None where the _Shift refuses x~.

    The sum is S = sum_k (-1)^k C(n,k) f_k with P_m = q^m, m = h + k, and
    f_k = X_k/(1 + P_m), X_k = q^(x k) (x >= 0), or f_k = 1/(1 + P_m) - 1
    (plain, x is None).  The terms are _quotients' list, whose missing tail
    is 0; the plain form is the x = 0 sum less sum_k (-1)^k C(n,k), which is
    1 at n = 0 and 0 after.  _radius bounds the error of each component.
    """
    v = _quotients(n, h, Q, e, x, W)
    if v is None:
        return None
    c = 1
    re = im = 0
    if v[1] is None:
        for k, a in enumerate(v[0]):
            re += c * a
            c = -c * (n - k) // (k + 1)
    else:
        for k, (a, b) in enumerate(zip(*v)):
            re += c * a
            im += c * b
            c = -c * (n - k) // (k + 1)
    if x is None and n == 0:
        re -= 1 << W
    return re, im


def difference_error(q: complex, count: int) -> float:
    """err such that 2^W R_m[j] in fixed point, from a _quotients list at
    shift 2 whose indices j + m stay below count, lies within err 2^m units.

    As in _radius with R = 1 and c = 3, quotient k is within 1 + 3 k / L +
    3 (1 + k) / L^2 units (its floor, the carried q~^(2k) and q~^k): below
    1 + 6 count / L^2 at L = lower <= 1 and k < count, and so is a 0 read
    past the end of a stopped list.  R_m[j] weighs them by C(m, i)."""
    lower = 1.0 if q.imag == 0 and q.real >= 0 else 0.99 * (1.0 - abs(q))
    return 1.0 + 6.0 * count / (lower * lower)


class DifferenceTable:
    """The differences R_m[j] = sum_i (-1)^i C(m,i) c'_(j+i) of c'_j =
    q^(2j) / (1 + q^j) at W >= 72 fractional bits, built as they are read;
    there the truncated powers of a kernel.QParameter's q stay inside the
    unit disk, so the table builds at every such W.  c'_j = c_j + q^j for
    the plain factors c_j = -q^j / (1 + q^j), so R_m[j] = D_m[j] +
    (1-q)^m q^j: their differences less their slowest geometric mode.

    The differences are exact: the _quotients list at shift 2 gives 2^W c'_j
    = v_j, read as 0 past the end of a list that stopped, and R_(m+1)[j] =
    R_m[j] - R_m[j+1] is one integer subtraction per entry (difference_error
    bounds the result).  The table keeps these integer rows, from N
    quotients R_m[j] for j < N - m, and grows the list and every row with it
    when a read passes the end of one; row rounds each entry once, when it
    is first read.  An entry depends on q, W, m and j alone, whatever the
    extent of the table or the order of the reads.
    """

    __slots__ = ("_W", "_lists", "_v", "_ints", "_floats")

    def __init__(self, q: complex, W: int):
        Q, e = _dyadic(q)
        self._W, self._lists = W, _term_lists(0, Q, e, 2, W, 0)
        self._v = v = next(self._lists)
        self._ints = [list(v)]  # 2^W R_m as [re, im] integer lists, im None at real q; R_0 is v
        self._floats = []  # the rounded entries read so far, alike

    def grow(self, top: int, length: int) -> None:
        """Hold the integer rows R_0..R_top with at least their entries j <
        length: length + top quotients, and every row held grown with them."""
        ints, vre = self._ints, self._v[0]
        if length + top > len(vre):
            self._lists.send(length + top - 1)
            short = length + top - len(vre)
            if short > 0:  # the list stopped where X~_k reached 0: every later quotient is 0
                for part in filter(None, self._v):
                    part += repeat(0, short)
            for prev, row in zip(ints, ints[1:]):  # R_m[j] = R_(m-1)[j] - R_(m-1)[j+1]
                old = len(row[0])
                for part, above in zip(row, prev):
                    if part is not None:
                        part += map(sub, above[old:], above[old + 1 :])
        while len(ints) <= top:
            ints.append([None if part is None else list(map(sub, part, islice(part, 1, None))) for part in ints[-1]])

    def row(self, m: int, count: int):
        """R_m[j] for j < count at least, each entry rounded once from its
        fixed-point value, as one float list per component, [re, im], im
        None at real q."""
        floats = self._floats
        while len(floats) <= m:
            floats.append([[], None if self._v[1] is None else []])
        out = floats[m]
        have = len(out[0])
        if have < count:
            ints = self._ints
            if len(ints) <= m or len(ints[m][0]) < count:
                self.grow(m, count)
            W = self._W
            for part, exact in zip(out, ints[m]):
                if part is None:
                    pass
                elif W + m + 64 <= 1022:  # |2^W R_m[j]| < 2^1022 and 2^-W is normal: float() rounds it, 2^-W is exact
                    part += map(mul, map(float, exact[have:count]), repeat(2.0**-W))
                else:
                    den = 1 << W
                    part += [a / den for a in exact[have:count]]
        return out


def _start(n: int, h: int, q: complex, Q, e: int, x: int | None):
    # The starting precision p, the guard bits and _radius at p (valid at any
    # W >= p).  p is 72 bits beyond the n + n log2(1/|1-q|) that the sum
    # cancels, and h log2(1/|q|) more for the plain form, whose value is of
    # order q^h, and for the x = 0 form at n >= 1, which is the same sum;
    # the guard bits keep the radius in units of 2^-W near 2^n.
    p = 72 + n + math.ceil(n * -math.log2(abs(1.0 - q)))
    if (x is None or x == 0 and n) and 0 < abs(q) < 1:
        p += math.ceil(h * -math.log2(abs(q)))
    radius = _radius(n, h, Q, e, x, p)
    guard = ((radius >> n) - 1).bit_length() if radius else 0
    return p, guard, radius


def _shortfall(v, err: int, real: bool) -> int:
    # The bits by which err, as in _finish, exceeds the smaller nonzero
    # component of v: the precision that component, the one that lacks the
    # most, lacks.  A component that reads 0 tells nothing.
    sizes = [abs(c).bit_length() for c in (v[:1] if real else v) if c]
    return err.bit_length() - min(sizes) if sizes else 0


def _as_shift(n: int, q: complex, Q, e: int, x):
    # x as an int 0..EXACT_SHIFT_MAX, whose powers are exact, or a _Shift.
    xi = as_int(x)
    if xi is not None and 0 <= xi <= EXACT_SHIFT_MAX:
        return xi
    x = as_complex(x, "the shift")
    if not (Q[0] or Q[1]):  # q^x is 0, as q^1 is, or a pole
        if x.real > 0:
            return 1
        raise PoleError(f"0 raised to power {x!r}")
    return 0 if n == 0 else _Shift(q, Q, e, x, n)  # f_0 does not depend on x


def terminating_alt_sum(n: int, h: int, q: complex, x) -> complex:
    """The order -n value of the re-expanded alternating series.

    Returns [2]_q * (1-q)^(-n) * sum_{k=0}^{n} (-1)^k C(n,k) f_k, rounded
    once from its exact value, where

        f_k = q^(x*k) / (1 + q^(h+k))   for a finite shift x (Hurwitz form),
        f_k = -q^(h+k) / (1 + q^(h+k))  for x is None (plain form),

    with q^(x k) = exp(x k Log q) on the branch of cmath.log(q), as cpow
    takes it.  An integer 0 <= x <= EXACT_SHIFT_MAX has exact powers and an
    exact fallback, the Q(q) engine's E_n(x, h | q) taken at q; any other x
    is carried as q^x at the working precision (_Shift), and a sum the
    rounding test leaves undecided after _SHIFT_ATTEMPTS attempts raises
    NonConvergenceError.  A value beyond the float range raises
    FloatRangeError.
    """
    q = complex(q)
    Q, e = _dyadic(q)
    if x is not None:
        x = _as_shift(n, q, Q, e, x)
    D = 1 << e
    # (1+q)/(1-q)^n = 2^(e n) z / scale with z = (D+Q) conj(D-Q)^n and
    # scale = D |D-Q|^(2n).
    z = _mul((D + Q[0], Q[1]), _pow((D - Q[0], Q[1]), n))
    scale = ((D - Q[0]) ** 2 + Q[1] ** 2) ** n << e
    exact = not isinstance(x, _Shift)
    real = Q[1] == 0 and (exact or x.real)
    p, guard, radius = _start(n, h, q, Q, e, x)
    name = f"the sum at order {-n}"
    for _ in range((3 if exact else _SHIFT_ATTEMPTS) if radius else 0):
        W = p + guard
        fixed = _truncated_sum(n, h, Q, e, x, W)
        step = p
        if fixed is not None:
            # the sum times z, within radius (|Re z| + |Im z|)
            v, err = _mul(fixed, z), radius * (abs(z[0]) + abs(z[1]))
            value = _finish(v, err, e * n - W, scale, real, name)
            if value is not None:
                return value
            # At least double p; give the smaller component the bits it
            # lacks, 53 for the float and 11 to spare; and once q was
            # truncated, carry it whole, since a component may hang on
            # the bits cut off (Im q = -2^-600 reads as -2^-W).
            step = max(p, _shortfall(v, err, real) + 64, e + 64 - W)
        p += step
    if exact:
        return _value_at(*euler_poly_coefficients(n, x, h), q, name)
    raise NonConvergenceError(f"the sum at order {-n} was left undecided at {p} bits")
