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
and q^x themselves are truncated once when they are wider.  Each term is
one integer division, and the list stops where the truncated q^(x k)
reaches 0.  A single sum is the binomially weighted sum of that list
(_truncated_sum).  It comes back with a rigorous radius in closed form (see
_radius) that counts the floors, the truncation of q, the growth of the
errors in the carried powers and the lower bound |1 + q^m| >= 1 - |q|; it
is carried exactly through the prefactor (1+q)/(1-q)^n.  When both ends of
that interval round to the same float, and the interval excludes 0 where
that float is a zero, so does every value inside it (Ziv's rounding test;
CPython's int / int is correctly rounded); otherwise p grows, at least
doubling, by as many bits as the smaller component of that attempt lacks
against its radius, and far enough to carry a truncated q whole: a q whose
imaginary part is tiny, as 0.5 + 2^-600 i, goes straight to the bits that
part needs.  After three attempts the sum is taken exactly from the exact
powers (_terms), as a Gaussian-integer numerator over an integer
denominator times one power of two, with no gcd, and divided once.  Exact
zeros and binary64 ties, as (1+q)/2 is at q = 0.9, end there.

The coefficients E_0..E_n(0, h | q) of the binomial-shift expansion are
all x = 0 sums of the same list under other binomial weights.
terminating_alt_sums builds the list once, at the largest W any order
starts at, gets every order's sum from one difference table in exact
integers, and rounds each order with its own radius and prefactor; an
order left undecided goes to terminating_alt_sum.  The bits are those of
n + 1 terminating_alt_sum calls, since a correctly rounded value has only
one set of bits.
"""

from __future__ import annotations

import math

from .errors import FloatRangeError

__all__ = ["terminating_alt_sum", "terminating_alt_sums"]


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
    # (c_k, a_k, d_k, t_k) with (-1)^k C(n,k) f_k = c_k a_k / (d_k 2^t_k) for a
    # Gaussian integer a_k, a positive integer d_k and t_k nondecreasing in k:
    # f_k = num / w with w = 2^(e m) (1 + q^m), m = h + k, is
    # num conj(w) / |w|^2.
    qm, qx, qxk = _pow(Q, h), _pow(Q, x or 0), (1, 0)
    c = 1
    for k in range(n + 1):
        m = h + k
        w = ((1 << e * m) + qm[0], qm[1])
        if x is None:  # num = -Q^m
            yield c, _mul((-qm[0], -qm[1]), (w[0], -w[1])), w[0] * w[0] + w[1] * w[1], 0
        else:  # num = Q^(x k) 2^(e m - e x k)
            a = _mul(qxk, (w[0], -w[1]))
            yield c, (a[0] << e * m, a[1] << e * m), w[0] * w[0] + w[1] * w[1], e * x * k
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
    * each f_k is rounded per component, < 1 unit each, 2^n units in all;
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


def _toward_zero(v: int, r: int) -> int:
    return v >> r if v >= 0 else -(-v >> r)


def _quotients(n: int, h: int, Q, e: int, x: int | None, W: int):
    """The terms v_k = 2^W X~_k / (1 + P~_(h+k)) of every order -n sum, k = 0..n.

    P~_m stands for q^m and X~_k for q^(x k), X~_k = 1 when x is 0 or None.
    q, q^h and q^x are computed exactly and floored once to W fractional
    bits when wider, as q~, P~_h and x~; P~_m is carried exactly while it
    fits in W fractional bits and floored to W bits after, and X~_k is
    carried alike but truncated toward zero, as _radius assumes.  So the lists stop at the
    last k before X~_k reaches 0: every later term is 0.  Each component of
    a term is one integer division, within 1 unit of its exact value.
    Returns (re, im), two lists, with im None when q~, P~_h and x~
    are real; or None when |q~| > 1 or |x~| > 1, possible only once they are
    truncated: _radius's bound fails there.
    """
    x = x or 0
    (Q0, Q1), et = _fixed(Q, e, W)
    (N0, N1), s = _fixed(_pow(Q, h), e * h, W)
    (M0, M1), xs = _fixed(_pow(Q, x), e * x, W)
    if (et < e and Q0 * Q0 + Q1 * Q1 > 1 << 2 * et
            or xs < e * x and M0 * M0 + M1 * M1 > 1 << 2 * xs):
        return None
    X0, X1, t = 1, 0, 0  # X~_k = X / 2^t
    re = []
    if not (Q1 or N1 or M1):  # real q~: v_k = X~_k 2^(W + s) / w, w = 2^s + N
        for k in range(n + 1):
            re.append((X0 << W + s - t) // ((1 << s) + N0))
            if k == n:
                break
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
        return re, None
    im = []
    for k in range(n + 1):  # v_k = X~_k 2^(W + s) conj(w) / |w|^2
        w0 = (1 << s) + N0
        d = w0 * w0 + N1 * N1
        if x:  # X~_k conj(w) = (X0 w0 + X1 N1) + i (X1 w0 - X0 N1)
            sh = W + s - t
            re.append((X0 * w0 + X1 * N1 << sh) // d)
            im.append((X1 * w0 - X0 * N1 << sh) // d)
        else:
            re.append((w0 << W + s) // d)
            im.append(-((N1 << W + s) // d))
        if k == n:
            break
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
    return re, im


def _truncated_sum(n: int, h: int, Q, e: int, x: int | None, W: int):
    """The sum times 2^W as (re, im), or None when q~ or x~ lies outside the unit disk.

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


def _differences(u: list[int]) -> list[int]:
    # S_l = sum_k (-1)^k C(l,k) u_k for l = 0..n, exactly: D^l u_0 in the
    # backward difference table D^j u_k = D^(j-1) u_k - D^(j-1) u_(k+1), one
    # subtraction per entry and no binomials.  diag holds D^j u_(l-j),
    # j = 0..l, the newest diagonal.
    diag, out = [], []
    for v in u:
        for j, t in enumerate(diag):
            diag[j], v = v, t - v
        diag.append(v)
        out.append(v)
    return out


def _exact_sum(terms):
    # The sum as (re + i im) / den: the terms go on one running denominator
    # times one power of two, the largest t_k, so the powers of two of the
    # Hurwitz terms add no bits to den.
    re = im = 0
    den = 1
    t = 0
    for c, a, d, tk in terms:
        re = (re * d << tk - t) + c * a[0] * den
        im = (im * d << tk - t) + c * a[1] * den
        den *= d
        t = tk
    return re, im, den << t


def _rounded(v: int, den: int) -> float:
    try:
        return v / den
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _decided(v: int, err: int, den: int) -> float | None:
    # v / den correctly rounded, when every value within err of v rounds
    # alike.  An end beyond the float range counts as infinite, so a value
    # that overflows is decided too, and v / den raises.  Ends that round to
    # zero decide only when the interval excludes 0: both then carry its
    # sign, so a value below the float range is decided as a signed zero.
    if not err:
        return v / den
    end = _rounded(v - err, den)
    if end != _rounded(v + err, den) or end == 0.0 and -err <= v <= err:
        return None
    if math.isinf(end):
        raise OverflowError("the value lies beyond the float range")
    return end  # v lies between the ends, so it rounds to the same float


def _dyadic(q: complex):
    # q = Q / 2^e with Q a Gaussian integer, exactly.
    (ar, br), (ai, bi) = q.real.as_integer_ratio(), q.imag.as_integer_ratio()
    e = max(br, bi).bit_length() - 1  # br and bi are powers of two
    return (ar * ((1 << e) // br), ai * ((1 << e) // bi)), e


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


def _finish(re: int, im: int, den: int, t: int, radius: int, z, scale: int, real: bool) -> complex | None:
    # The sum (re + i im) / den, within radius / den per component, times
    # 2^t z / scale, correctly rounded, or None when the rounding test leaves
    # it undecided; the radius becomes radius (|Re z| + |Im z|).  The power
    # of two is a shift, not a product.  At real q the sum is real.
    vr, vi = _mul((re, im), z)
    err, den = radius * (abs(z[0]) + abs(z[1])), den * scale
    if t >= 0:
        vr, vi, err = vr << t, vi << t, err << t
    else:
        den <<= -t
    out_re = _decided(vr, err, den)
    if out_re is None:
        return None
    out_im = 0.0 if real else _decided(vi, err, den)
    return None if out_im is None else complex(out_re, out_im)


def _shortfall(fixed, radius: int, z, real: bool) -> int:
    # The bits by which the radius of an undecided attempt, carried through
    # z as in _finish, exceeds the smaller nonzero component of the sum times
    # z: the precision that component, the one that lacks the most, lacks.
    # A component that reads 0 tells nothing.
    v = _mul(fixed, z)
    err = radius * (abs(z[0]) + abs(z[1]))
    sizes = [abs(c).bit_length() for c in (v[:1] if real else v) if c]
    return err.bit_length() - min(sizes) if sizes else 0


def _range_error(n: int) -> FloatRangeError:
    return FloatRangeError(f"the sum at order {-n} lies beyond the float range")


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
    Q, e = _dyadic(q)
    D = 1 << e
    # (1+q)/(1-q)^n = 2^(e n) z / scale with z = (D+Q) conj(D-Q)^n and
    # scale = D |D-Q|^(2n).
    z = _mul((D + Q[0], Q[1]), _pow((D - Q[0], Q[1]), n))
    scale = ((D - Q[0]) ** 2 + Q[1] ** 2) ** n << e
    real = Q[1] == 0
    p, guard, radius = _start(n, h, q, Q, e, x)
    try:
        for _ in range(3 if radius else 0):
            W = p + guard
            fixed = _truncated_sum(n, h, Q, e, x, W)
            step = p
            if fixed is not None:
                value = _finish(fixed[0], fixed[1], 1, e * n - W, radius, z, scale, real)
                if value is not None:
                    return value
                # At least double p; give the smaller component the bits it
                # lacks, 53 for the float and 11 to spare; and once q was
                # truncated, carry it whole, since a component may hang on
                # the bits cut off (Im q = -2^-600 reads as -2^-W).
                step = max(p, _shortfall(fixed, radius, z, real) + 64, e + 64 - W)
            p += step
        return _finish(*_exact_sum(_terms(n, h, Q, e, x)), e * n, 0, z, scale, real)
    except OverflowError as exc:
        raise _range_error(n) from exc


def terminating_alt_sums(n: int, h: int, q: complex) -> list[complex]:
    """[terminating_alt_sum(l, h, q, 0) for l in range(n + 1)], the same bits, from one pass.

    Every order sums the same f_k = 1/(1 + q^(h+k)) under its own binomial
    weights.  So the x = 0 term list v_k = 2^W f_k (_quotients) is built
    once, k = 0..n, at the largest W = p_l + guard_l that any order starts
    at, and each S_l = sum_k (-1)^k C(l,k) v_k comes from one difference
    table in exact integers (_differences).  S_l is the integer
    _truncated_sum(l, h, Q, e, 0, W) would return, so _radius(l, ..., p_l),
    valid at any W >= p_l, bounds it, and each order is finished with its own prefactor and
    rounding test.  An order the test leaves undecided (an exact zero or a
    tie, as E_1 = -1/2 + 0i or E_0 = (1+q)/2 at q = 0.9) or that has no
    radius goes to terminating_alt_sum alone.  The first order whose value
    lies beyond the float range raises FloatRangeError.
    """
    if n < 0 or h < 0:
        raise ValueError("n and h must be nonnegative integers")
    q = complex(q)
    Q, e = _dyadic(q)
    starts = [_start(l, h, q, Q, e, 0) for l in range(n + 1)]
    W = max((p + guard for p, guard, radius in starts if radius), default=None)
    v = None if W is None else _quotients(n, h, Q, e, 0, W)
    sums = None if v is None else (_differences(v[0]), _differences(v[1]) if v[1] else [0] * (n + 1))
    D = 1 << e
    # The prefactor 2^(e l) z / scale of order l, as in terminating_alt_sum:
    # z picks up conj(D-Q) and scale |D-Q|^2 per order.
    z, scale = (D + Q[0], Q[1]), D
    step, step_scale = (D - Q[0], Q[1]), (D - Q[0]) ** 2 + Q[1] ** 2
    real = Q[1] == 0
    out = []
    for l, (_, _, radius) in enumerate(starts):
        value = None
        if sums and radius:
            try:
                value = _finish(sums[0][l], sums[1][l], 1, e * l - W, radius, z, scale, real)
            except OverflowError as exc:
                raise _range_error(l) from exc
        out.append(terminating_alt_sum(l, h, q, 0) if value is None else value)
        z = _mul(z, step)
        scale *= step_scale
    return out
