"""Order -n values of the re-expanded alternating series, rounded once.

At s = -n the k-series terminates in a finite sum whose value is smaller
than its largest term by a factor on the order of (1-q)^n, so a float sum
loses most of its digits.  A binary64 q is an exact dyadic Q / 2^e with Q a
Gaussian integer, so the sum is taken in big-integer fixed point, 2^P units
to 1.  Each term is floored per component, which puts the sum within 2^n
units of the exact one, a radius carried exactly through the prefactor
(1+q)/(1-q)^n.  When both ends of that interval round to the same nonzero
float, so does every value inside it (Ziv's rounding test; CPython's
int / int is correctly rounded); otherwise P doubles.  After two doublings
the sum is taken exactly, as a Gaussian-integer numerator over an integer
denominator with no gcd, and divided once.  Exact zeros and binary64 ties,
as (1+q)/2 is at q = 0.9, end there.
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
        a = _mul(a, a)
        k >>= 1
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


def _fixed_sum(terms, p: int):
    # The sum times 2^p, each term floored per component.
    re = im = 0
    for c, a, d in terms:
        re += c * ((a[0] << p) // d)
        im += c * ((a[1] << p) // d)
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
    if err and not _rounded(v - err, den) == _rounded(v + err, den) != 0.0:
        return None
    return v / den


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
    try:
        for _ in range(3):
            value = finish(*_fixed_sum(_terms(n, h, Q, e, x), p), 1 << p, 1 << n)
            if value is not None:
                return value
            p *= 2
        return finish(*_exact_sum(_terms(n, h, Q, e, x)), 0)
    except OverflowError as exc:
        raise FloatRangeError(f"the sum at order {-n} lies beyond the float range") from exc
