"""Order -n values of the re-expanded alternating series, rounded once.

At s = -n the k-series terminates in a finite sum whose value is smaller
than its largest term by a factor on the order of (1-q)^n, so a float sum
loses most of its digits.  A binary64 q is an exact dyadic Q / 2^e with Q a
Gaussian integer, so the sum is taken in big-integer fixed point, 2^W units
to 1, W = p + guard bits.  The powers q^(h+k) and q^(x k) are carried
exactly while they fit in W fractional bits, and truncated to W bits after
that; q and q^x themselves are truncated once when they are wider.  Each
term is then one integer division, floored.  The sum comes back with a
rigorous radius in closed form (see _radius) that counts the floors,
the truncation of q, the growth of the errors in the carried powers and the
lower bound |1 + q^m| >= 1 - |q|; it is carried exactly through the
prefactor (1+q)/(1-q)^n.  When both ends of that interval round to the same
nonzero float, so does every value inside it (Ziv's rounding test;
CPython's int / int is correctly rounded); otherwise p doubles.  After two
doublings the sum is taken exactly from the exact powers (_terms), as a
Gaussian-integer numerator over an integer denominator with no gcd, and
divided once.  Exact zeros and binary64 ties, as (1+q)/2 is at q = 0.9, end
there.
"""

from __future__ import annotations

import math

from .errors import FloatRangeError

__all__ = ["terminating_alt_sum"]


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


def _terms(n: int, h: int, Q, e: int, x: int | None):
    # (c_k, a_k, d_k) with (-1)^k C(n,k) f_k = c_k a_k / d_k for a Gaussian
    # integer a_k and a positive integer d_k: f_k = num / w with
    # w = 2^(e m) (1 + q^m), m = h + k, is num conj(w) / |w|^2.
    qm, qx, qxk = _pow(Q, h), _pow(Q, x or 0), (1, 0)
    c = 1
    for k in range(n + 1):
        m = h + k
        w = ((1 << e * m) + qm[0], qm[1])
        if x is None:  # num = -Q^m
            yield c, _mul((-qm[0], -qm[1]), (w[0], -w[1])), w[0] * w[0] + w[1] * w[1]
        else:  # num = Q^(x k) 2^(e m - e x k)
            a = _mul(qxk, (w[0], -w[1]))
            yield c, (a[0] << e * m, a[1] << e * m), (w[0] * w[0] + w[1] * w[1]) << e * x * k
            qxk = _mul(qxk, qx)
        qm = _mul(qm, Q)
        c = -c * (n - k) // (k + 1)


def _fixed(Z, bits: int, W: int):
    # The dyadic Z / 2^bits as (N, s) with value N / 2^s: exact while bits <=
    # W, else floored per component to W fractional bits (error < sqrt2 2^-W).
    if bits <= W:
        return Z, bits
    r = bits - W
    return (Z[0] >> r, Z[1] >> r), W


def _radius(n: int, h: int, Q, e: int, x: int | None, p: int) -> int | None:
    """The radius of _truncated_sum at any W >= p, in units of 2^-W, or None.

    Each component of _truncated_sum's result lies within this many units of
    2^W S; None when |q| >= 1 or is too close to 1 for the bound.  For every m,
    |1 + P_m| >= lower: 1 for q in [0, 1), else
    (1 - |q|^2)/2 <= 1 - |q| <= 1 - |q|^m (and |1 + P_0| = 2).

    With u = 2^-W:
    * each f_k is floored per component, < 1 unit each, 2^n units in all;
    * q~ = q when e <= W, else q floored to W bits, so |q~ - q| < sqrt2 u;
      q~^h is P_h exact or floored once, and P~_(m+1) is P~_m q~ floored,
      so e_(m+1) <= |q~| e_m + |q|^m |q~ - q| + sqrt2 u and with
      |q|, |q~| <= 1, e_(h+k) <= (sqrt2 + k 2 sqrt2) u <= 3 (1 + k) u;
    * likewise x~ = q^x floored once, and X~_k is X~_(k-1) x~ truncated
      toward zero, so with |x~| <= 1, |X~_k - X_k| <= k 2 sqrt2 u <= 3 k u;
    * with L = lower - 3 (n + 1) u <= |1 + P~_m|, |1 + P_m|,
      |f~_k - f_k| <= |X~_k - X_k| / L + |X_k| e_(h+k) / L^2, and |X_k| <= 1.
    Summed with the weights C(n,k), sum C(n,k) (1 + k) = 2^(n-1) (n + 2)
    and sum C(n,k) k = 2^(n-1) n, so in units
        radius = 2^n + 3 2^(n-1) (n + 2) / L^2 + 3 2^(n-1) n / L.
    The second term drops when no P~_m is truncated (e (h + n) <= W) and
    the third when no X~_k is (e x n <= W); at W >= p, that holds when it
    holds at p.  L is taken as L64 / 2^64 with L64 = floor(lower 2^64) less
    3 (n + 1) 2^(64 - p) rounded up, as u <= 2^-p.  So the radius does not
    depend on W, and no term needs its own bound.
    """
    inexact_p = e * (h + n) > p
    inexact_x = x and e * x * n > p
    radius = 1 << n
    if inexact_p or inexact_x:
        gap = (1 << 2 * e) - Q[0] * Q[0] - Q[1] * Q[1]  # 2^(2e) (1 - |q|^2)
        if gap <= 0:
            return None
        L64 = 1 << 64 if Q[1] == 0 and Q[0] >= 0 else (gap << 64) >> 2 * e + 1
        L64 -= (3 * (n + 1) >> p - 64) + 1  # p >= 72
        if L64 <= 0:
            return None
        num = ((n + 2) << 128 if inexact_p else 0) + (n * L64 << 64 if inexact_x else 0)
        radius += (3 * num << n) // (2 * L64 * L64) + 1
    return radius


def _truncated_sum(n: int, h: int, Q, e: int, x: int | None, W: int):
    """The sum times 2^W as (re, im), or None when q~ or q^x~ lies outside the unit disk.

    The sum is S = sum_k (-1)^k C(n,k) f_k with P_m = q^m, m = h + k, and
    f_k = 1/(1 + P_m) - 1 (plain, x is None) or X_k/(1 + P_m), X_k = q^(x k).
    The plain form is taken as the x = 0 sum less sum_k (-1)^k C(n,k), which
    is 1 at n = 0 and 0 after.  P~_m and X~_k are carried exactly while they
    fit in W fractional bits and truncated to W bits after; _radius bounds
    the error of each component.
    """
    Qt, et = _fixed(Q, e, W)
    N, s = _fixed(_pow(Q, h), e * h, W) if h else ((1, 0), 0)
    M, xs = _fixed(_pow(Q, x), e * x, W) if x and n else (None, 0)  # X_0 = 1
    # |q~| or |x~| above 1, possible only once truncated: _radius's bound fails.
    if et < e and Qt[0] ** 2 + Qt[1] ** 2 > 1 << 2 * et:
        return None
    if M and xs < e * x and M[0] ** 2 + M[1] ** 2 > 1 << 2 * xs:
        return None
    Q0, Q1 = Qt
    N0, N1 = N
    re = im = 0
    c = 1
    if not (Q1 or N1 or M and M[1]):  # real q~: f_k = X_k 2^s / w, w = 2^s + N
        Xr, t = 1, 0
        for k in range(n + 1):
            re += c * ((Xr << W + s - t) // ((1 << s) + N0))
            if k == n:
                break
            if M:
                Xr *= M[0]
                t += xs
                if t > W:
                    Xr = Xr >> t - W if Xr >= 0 else -(-Xr >> t - W)
                    t = W
                    if not Xr:
                        break  # every later X~_k, and so every later term, is 0
            N0 *= Q0
            s += et
            if s > W:
                N0 >>= s - W
                s = W
            c = -c * (n - k) // (k + 1)
        if x is None and n == 0:
            re -= 1 << W
        return re, 0
    if M is None:  # f_k = 1/(1 + P_m) = 2^s conj(w) / |w|^2, w = 2^s + N
        for k in range(n + 1):
            w0 = (1 << s) + N0
            d = w0 * w0 + N1 * N1
            re += c * ((w0 << W + s) // d)
            im -= c * ((N1 << W + s) // d)
            if k == n:
                break
            N0, N1 = N0 * Q0 - N1 * Q1, N0 * Q1 + N1 * Q0
            s += et
            if s > W:
                N0 >>= s - W
                N1 >>= s - W
                s = W
            c = -c * (n - k) // (k + 1)
        if x is None and n == 0:
            re -= 1 << W
        return re, im
    M0, M1 = M
    X0, X1, t = 1, 0, 0  # X~_k = X / 2^t
    for k in range(n + 1):
        w0 = (1 << s) + N0
        d = w0 * w0 + N1 * N1
        sh = W + s - t
        re += c * ((X0 * w0 + X1 * N1 << sh) // d)
        im += c * ((X1 * w0 - X0 * N1 << sh) // d)
        if k == n:
            break
        X0, X1 = X0 * M0 - X1 * M1, X0 * M1 + X1 * M0
        t += xs
        if t > W:
            r = t - W
            X0 = X0 >> r if X0 >= 0 else -(-X0 >> r)
            X1 = X1 >> r if X1 >= 0 else -(-X1 >> r)
            t = W
            if not (X0 or X1):
                break  # every later X~_k, and so every later term, is 0
        N0, N1 = N0 * Q0 - N1 * Q1, N0 * Q1 + N1 * Q0
        s += et
        if s > W:
            N0 >>= s - W
            N1 >>= s - W
            s = W
        c = -c * (n - k) // (k + 1)
    return re, im


def _exact_sum(terms):
    # The sum as (re + i im) / den, on one running denominator.
    re = im = 0
    den = 1
    for c, a, d in terms:
        re = re * d + c * a[0] * den
        im = im * d + c * a[1] * den
        den *= d
    return re, im, den


def _rounded(v: int, den: int) -> float:
    try:
        return v / den
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _decided(v: int, err: int, den: int) -> float | None:
    # v / den correctly rounded, when every value within err of v rounds
    # alike.  An end beyond the float range counts as infinite, so a value
    # that overflows is decided too, and v / den raises.
    if not err:
        return v / den
    end = _rounded(v - err, den)
    if not end == _rounded(v + err, den) != 0.0:
        return None
    if math.isinf(end):
        raise OverflowError("the value lies beyond the float range")
    return end  # v lies between the ends, so it rounds to the same float


def terminating_alt_sum(n: int, h: int, q: complex, x: int | None) -> complex:
    """The order -n value of the re-expanded alternating series.

    Returns [2]_q * (1-q)^(-n) * sum_{k=0}^{n} (-1)^k C(n,k) f_k, rounded
    once from its exact value, where

        f_k = q^(x*k) / (1 + q^(h+k))   for integer x >= 0 (Hurwitz form),
        f_k = -q^(h+k) / (1 + q^(h+k))  for x is None (plain form).

    A value beyond the float range raises FloatRangeError.
    """
    if n < 0 or h < 0:
        raise ValueError("n and h must be nonnegative integers")
    if x is not None and x < 0:
        raise ValueError("x must be a nonnegative integer")
    q = complex(q)
    (ar, br), (ai, bi) = q.real.as_integer_ratio(), q.imag.as_integer_ratio()
    e = max(br, bi).bit_length() - 1  # br and bi are powers of two
    Q = (ar * ((1 << e) // br), ai * ((1 << e) // bi))
    D = 1 << e
    # (1+q)/(1-q)^n = z / scale with z = (D+Q) conj(D-Q)^n D^n and
    # scale = D |D-Q|^(2n).
    z = _mul((D + Q[0], Q[1]), _pow((D - Q[0], Q[1]), n))
    z = (z[0] << e * n, z[1] << e * n)
    scale = ((D - Q[0]) ** 2 + Q[1] ** 2) ** n << e

    def finish(re: int, im: int, den: int, radius: int) -> complex | None:
        # The sum (re + i im) / den, within radius / den per component,
        # times the prefactor; the radius becomes radius (|Re z| + |Im z|).
        vr, vi = _mul((re, im), z)
        err, den = radius * (abs(z[0]) + abs(z[1])), den * scale
        out_re = _decided(vr, err, den)
        if out_re is None:
            return None
        out_im = 0.0 if Q[1] == 0 else _decided(vi, err, den)  # real q, real sum
        return None if out_im is None else complex(out_re, out_im)

    # 72 bits beyond the n + n log2(1/|1-q|) that the sum cancels, and h
    # log2(1/|q|) more for the plain form, whose value is of order q^h.
    p = 72 + n + math.ceil(n * -math.log2(abs(1.0 - q)))
    p += math.ceil(h * -math.log2(abs(q))) if x is None and 0 < abs(q) < 1 else 0
    # Guard bits, so that the radius in units of 2^-W stays near 2^n.
    radius = _radius(n, h, Q, e, x, p)
    guard = ((radius >> n) - 1).bit_length() if radius else 0
    try:
        for _ in range(3 if radius else 0):
            W = p + guard
            fixed = _truncated_sum(n, h, Q, e, x, W)
            if fixed is not None:
                value = finish(fixed[0], fixed[1], 1 << W, radius)
                if value is not None:
                    return value
            p *= 2
        return finish(*_exact_sum(_terms(n, h, Q, e, x)), 0)
    except OverflowError as exc:
        raise FloatRangeError(f"the sum at order {-n} lies beyond the float range") from exc
