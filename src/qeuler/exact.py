"""Exact arithmetic in Q(q) and symbolic verification of the q-Euler identities.

The engine returns each value as a RationalQ, a coprime pair (denominator
with positive leading coefficient, no common integer content) of PolyZ, the
coefficient record of an integer polynomial in q, with no arithmetic and no
evaluation.  RationalQ.eval evaluates every exact value, by one Gaussian-integer
Horner pass per part (_horner) at an int, Fraction, float or complex point.
On top of those sit the q-Euler numbers and polynomials, each summed as a
numerator over its known denominator and reduced once, by _reduced, which
divides both parts by the cyclotomic factors Phi_d of that denominator that
the numerator shares, and an identity checker that decides the
shift/expansion identities by exact equality, cross-multiplying unreduced
pairs.  No path takes a polynomial gcd, and no Phi_d is built.  The
numerator's image r(t) at t = 2^16, taken once per reduction, bounds each
multiplicity from above: evaluation at t is a ring homomorphism and
Phi_d(t) > 0, so Phi_d^k | r gives Phi_d(t)^k | r(t).  The product of the
Phi_d^k so counted is one netted set of binomials q^e - 1 (Phi_d is their
Moebius product over e | d), and one pass per binomial divides it out of the
numerator, then out of the known denominator.  A division of the numerator
that leaves a remainder shows an image false positive: the count at fault is
lowered by one and the division runs again.

The sums and the identity checks run on packed integers (Kronecker
substitution): a polynomial P is carried as the one integer P(2^w), so a
Horner step by 1 + q^m is v + (v << m w) and a product of polynomials is one
product of integers.  Evaluation at 2^w is a ring homomorphism, so this
arithmetic is exact at any w.  The width matters only where a value is read
back: by the width lemma (see "packed polynomials" below), when every
coefficient lies below 2^(w-1) in magnitude, the digits of P(2^w) are those
coefficients and P(2^w) = 0 only for P = 0.  w is taken from closed-form l1
bounds (the numerators' norms grow as m! (2 / ln 3)^m), so each numerator is
decoded once, with its known denominator, into the coefficient lists that
the cyclotomic reduction divides, and each identity is decided by one
integer comparison.

_finish rounds every exact value the package returns as a float, once per
component: within a radius by Ziv's test (the order -n sums) or at radius 0
(_value_at); one beyond the float range raises FloatRangeError, naming it.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

from .errors import FloatRangeError, PoleError
from .kernel import Record, _set, as_complex, as_index

__all__ = [
    "PolyZ",
    "RationalQ",
    "exact_euler_number",
    "exact_euler_poly",
    "verify_identity",
    "IDENTITY_NAMES",
]


class PolyZ(Record):
    """The coefficient record of an integer polynomial in q, indexed by power.

    This is what the engine returns as the numerator and denominator of a
    RationalQ: the engine sums on packed integers and reduces on plain
    coefficient lists, so PolyZ carries no arithmetic and no evaluation of
    its own, only rendering.  A lone polynomial p is evaluated as
    RationalQ(p, PolyZ.one()).eval(x).

    Invariant: the trailing (highest-power) coefficient is nonzero; the zero
    polynomial has an empty coefficient tuple.  Coefficients must be integers:
    a float or Fraction raises TypeError instead of being truncated.  Like
    every Record it is immutable: assigning or deleting coeffs raises
    AttributeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(map(operator.index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        _set(self, "coeffs", tuple(c))

    @classmethod
    def one(cls) -> "PolyZ":
        return cls((1,))

    @property
    def degree(self) -> int:
        # -1 for zero; bench/tracing.py reads it for its exact.max_degree count
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        # Record has no __bool__, so without this the zero polynomial is truthy
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"PolyZ({self.coeffs!r})"


def _dyadic(q: complex):
    # q = Q / 2^e with Q a Gaussian integer, exactly.
    (ar, br), (ai, bi) = q.real.as_integer_ratio(), q.imag.as_integer_ratio()
    e = max(br, bi).bit_length() - 1  # br and bi are powers of two
    return (ar * ((1 << e) // br), ai * ((1 << e) // bi)), e


def _horner(coeffs, Q, e: int, k: int = 1):
    # P(Q / (k 2^e)) (k 2^e)^d, d = len(coeffs) - 1, for the integer
    # polynomial P with these coefficients, lowest power first, and an
    # integer k > 0: one Horner pass in Gaussian integers, exact.
    (a, b), re, im, kj = Q, 0, 0, 1
    for j, c in enumerate(reversed(coeffs)):
        re, im, kj = re * a - im * b + (c * kj << e * j), re * b + im * a, kj * k
    return re, im


def _rounded(v: int, den: int) -> float:
    try:
        return v / den
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _decided(v: int, err: int, den: int) -> float | None:
    # v / den correctly rounded, when every value within err of v rounds
    # alike; at err = 0 it is always decided.  An end beyond the float range
    # counts as infinite, so a value that overflows is decided too, and its
    # division raises OverflowError.  For err > 0, ends that round to zero
    # decide only when the interval excludes 0: both then carry its sign, so
    # a value below the float range is decided as a signed zero.
    end = _rounded(v - err, den)
    if end != _rounded(v + err, den) or end == 0.0 and err and -err <= v <= err:
        return None
    # v lies between the ends, so it rounds to the same float
    return v / den if math.isinf(end) else end


def _finish(v, err: int, t: int, scale: int, real: bool, name: str) -> complex | None:
    # v = (vr, vi), within err per component, times 2^t / scale, correctly
    # rounded, or None when the rounding test leaves it undecided.  The power
    # of two is a shift, not a product.  With real set the value is real; one
    # beyond the float range raises FloatRangeError from the division's error.
    vr, vi = v
    if t >= 0:
        vr, vi, err = vr << t, vi << t, err << t
    else:
        scale <<= -t
    try:
        out_re = _decided(vr, err, scale)
        if out_re is None:
            return None
        out_im = 0.0 if real else _decided(vi, err, scale)
    except OverflowError as exc:
        raise FloatRangeError(f"{name} lies beyond the float range") from exc
    return None if out_im is None else complex(out_re, out_im)


def _value_at(num, den, q: complex, name: str) -> complex:
    # num(q) / den(q) for integer coefficient lists, lowest power first, at a
    # binary64 q = Q / 2^e: with a and b from _horner at k = 1, a conj(b)
    # 2^(e (dd - dn)) / |b|^2, exact, and rounded once by _finish (PoleError
    # where den(q) = 0, FloatRangeError naming the value beyond the float range).
    Q, e = _dyadic(q)
    (a0, a1), (b0, b1) = _horner(num, Q, e), _horner(den, Q, e)
    d = b0 * b0 + b1 * b1
    if not d:
        raise PoleError(f"denominator vanishes at q = {q!r}")
    return _finish((a0 * b0 + a1 * b1, a1 * b0 - a0 * b1), 0, e * (len(den) - len(num)), d, False, name)


class RationalQ(Record):
    """A rational function in q, as the engine returns it: num / den.

    The pair is stored as given, with no reduction, so a caller builds one
    only from a canonical pair: numerator and denominator coprime in Q[q],
    denominator leading coefficient positive, and no integer content shared
    between the two (zero is 0 / 1).  Every value the engine returns is in
    that form, so equality and hashing are structural, and like every Record
    it is immutable: num and den refuse assignment and deletion.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyZ, den: PolyZ):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        _set(self, "num", num)
        _set(self, "den", den)

    def eval(self, q0):
        """The value at q0, by _horner's one Gaussian-integer pass per part:
        exact, as a Fraction, at an int or Fraction q0 = a / k, the pass at a
        over k, both parts padded to one degree so that the powers of k cancel;
        at a finite float or complex q0, the value at that binary64 point rounded
        once per component by _value_at (FloatRangeError beyond the float range)."""
        from fractions import Fraction
        if not isinstance(q0, (int, Fraction)):
            value = _value_at(self.num.coeffs, self.den.coeffs, as_complex(q0, "q"), f"the value at q = {q0!r}")
            return value if isinstance(q0, complex) else value.real
        x, d = Fraction(q0), max(len(self.num.coeffs), len(self.den.coeffs))
        num, den = (_horner(c + (0,) * (d - len(c)), (x.numerator, 0), 0, x.denominator)[0] for c in (self.num.coeffs, self.den.coeffs))
        if den == 0:
            raise PoleError(f"denominator vanishes at q = {q0!r}")
        return Fraction(num, den)

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalQ({self.num.coeffs!r}, {self.den.coeffs!r})"


# -- packed polynomials -------------------------------------------------------
#
# The q-Euler engine carries each P in Z[q] as the one integer P(2^w), w a
# multiple of 8.  Evaluation at 2^w is a ring homomorphism Z[q] -> Z, so sums
# and products of packed values are exact at any w: 1 + q^m multiplies by
# v + (v << m w), c q^l by (c v) << l w, and [k]_q^j is one integer power.
#
# Width lemma.  If every coefficient of P lies below 2^(w-1) in magnitude,
# then (a) P(2^w) = 0 only when P = 0, since a top term c_d 2^(w d) outweighs
# the sum of all lower ones, which is below 2^(w d) / 2; and (b) adding
# 2^(w-1) to each of the digits 0..K-1, K > deg P, turns P(2^w) into the
# integer whose base-2^w digits are c_i + 2^(w-1), all in [1, 2^w - 1], with
# no carry, so one to_bytes call reads them off.  Every coefficient is at most
# the l1 norm, so a bound on ||P||_1 below 2^(w-1) suffices, for the value
# decoded or, to decide a0 b1 == b0 a1, for the difference a0 b1 - b0 a1.
# The bounds use ||f g||_1 <= ||f||_1 ||g||_1, ||1 + q^m||_1 = 2 (m = 0
# included), ||[k]_q^j||_1 = k^j and, for the numerators, a closed form: N_m's
# recurrence gives ||N_m||_1 <= nu_m, nu_0 = 2, nu_m = sum_{l<m} C(m,l) nu_l
# 2^(m-1-l) = m! [x^m] 4 / (3 - e^(2x)), and nu_m <= 2 m! c^m for c >= 2 / ln 3,
# so for c = 3641/2000: by induction, with j = m - l, nu_m <= m! c^m
# sum_{j=1..m} (2/c)^j / j! < m! c^m (e^(2/c) - 1) <= 2 m! c^m, as e^(2/c) <= 3.


def _width(bound: int) -> int:
    # the least multiple of 8, w, with bound < 2^(w-1)
    return (bound.bit_length() + 8) // 8 * 8


def _ones(k: int, w: int) -> int:
    # sum_{i<k} 2^(w i): [k]_q packed, and the digit pattern of the bias
    return int.from_bytes((b"\x01" + bytes(w // 8 - 1)) * k, "little")


def _unpack(v: int, w: int) -> PolyZ:
    # The P with P(2^w) = v, every coefficient below 2^(w-1) in magnitude.
    # By the width lemma |v| > 2^(w deg P - 1) when P != 0, so the K digits
    # read cover deg P + 1; any beyond it read as 0 and PolyZ trims them.
    size, bias = w // 8, 1 << w - 1
    k = abs(v).bit_length() // w + 1
    raw = (v + (_ones(k, w) << w - 1)).to_bytes(k * size, "little")
    return PolyZ([int.from_bytes(raw[i:i + size], "little") - bias for i in range(0, k * size, size)])


# -- q-Euler closed forms -----------------------------------------------------
#
# Every denominator below is a constant times a product of the cyclotomic
# polynomials Phi_d: 1 + q^m = prod Phi_d over d | 2m with d not dividing m,
# and 1 - q = -Phi_1.  The Phi_d are irreducible over Q and pairwise coprime,
# so dividing each one out of the numerator as often as it divides it leaves
# a coprime pair, with no remainder sequence.  No Phi_d is built: by Moebius
# inversion of q^d - 1 = prod_{e | d} Phi_e,
#     Phi_d = prod_{e | d} (q^e - 1)^mu(d/e),
# so prod_d Phi_d^k_d is prod_e (q^e - 1)^n_e, n_e = sum_d k_d mu(d/e): one
# netted set of binomials, in which the factors share their passes (Phi_2^k
# Phi_4^j is (q^2 - 1)^(k-j) (q^4 - 1)^j / (q - 1)^k, k + |k - j| + j
# binomials, not 2k + 2j).  On a coefficient list read from the top power
# down, q^e - 1 acts as 1 - q^e does from the bottom up: a product by it is
# r_k - r_(k-e), and an exact quotient by it is the running sums of r along
# each residue class k mod e, each one pass over the list.  Dividing by the
# set, every product (n_e < 0) comes first: then, if the set divides r, each
# quotient is exact, and if not, one of them leaves a remainder.
#
# The multiplicities come from an image.  Evaluation at t = 2^_IMAGE_BITS is
# a ring homomorphism Z[q] -> Z, and Phi_d(t) >= (t - 1)^phi(d) > 0, so
# Phi_d^k | r in Z[q] gives Phi_d(t)^k | r(t): a nonzero remainder of r(t) by
# Phi_d(t)^k proves that Phi_d^k does not divide r.  The converse can fail
# (with odds about 1 / Phi_d(t)), so the image gives each multiplicity an
# upper bound, and the division decides.  t is small, not the packing width
# 2^w, so r(t) stays short and each test is one small integer remainder.

_IMAGE_BITS = 16


def _binomials(d: int) -> tuple[list[int], list[int]]:
    # (the e | d with mu(d/e) = +1, those with mu(d/e) = -1), so that Phi_d
    # is the product of q^e - 1 over the first divided by that over the
    # second; past the root of what is left of d, that is d's last prime
    plus, minus, m, p = [d], [], d, 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            plus, minus = plus + [e // p for e in minus], minus + [e // p for e in plus]
            while m % p == 0:
                m //= p
        p += 1
    return plus, minus


def _times_binomial(r: list, e: int) -> list:
    # r * (q^e - 1), both lists highest power first
    return list(map(operator.sub, r + [0] * e, [0] * e + r))


def _over_binomial(r: list, e: int) -> list | None:
    # r / (q^e - 1), highest power first, or None when that is not exact in
    # Z[q]: the last e running sums are the remainder, and must all be 0
    out = r[:]
    for j in range(e):
        out[j::e] = accumulate(r[j::e])
    return None if any(out[-e:]) else out[:-e]


def _divided(r: list, counts: dict, forms: dict) -> list | None:
    # r / prod_d Phi_d^counts[d], forms[d] = _binomials(d), highest power
    # first, or None when that is not exact in Z[q]: the netted binomials'
    # products first, the shortest first, then their quotients, the longest
    # first, so the list grows and shrinks the least
    net: dict = {}
    for d, k in counts.items():
        if k:
            plus, minus = forms[d]
            for e in plus:
                net[e] = net.get(e, 0) + k
            for e in minus:
                net[e] = net.get(e, 0) - k
    for e, k in sorted(net.items()):
        for _ in range(-k):
            r = _times_binomial(r, e)
    for e, k in sorted(net.items(), reverse=True):
        for _ in range(k):
            r = _over_binomial(r, e)
            if r is None:
                return None
    return r


def _binomial_image(es: list) -> int:
    # prod of (t^e - 1) over es at the image point t = 2^_IMAGE_BITS
    return math.prod((1 << _IMAGE_BITS * e) - 1 for e in es)


def _add_one_plus_q_power(exps: dict, m: int) -> None:
    # count the Phi_d of 1 + q^m, m >= 1, into exps (d -> multiplicity): the
    # d = 2^(v+1) c with 2^v the largest power of 2 in m and c | m / 2^v
    low = m & -m
    odd = m // low
    for c in range(1, math.isqrt(odd) + 1, 2):
        if odd % c == 0:
            for d in {2 * low * c, 2 * low * (odd // c)}:
                exps[d] = exps.get(d, 0) + 1


def _reduced(num, den, exps: dict) -> tuple[RationalQ, dict]:
    """num / den in canonical form, and the count of each Phi_d cancelled.

    num and den are coefficient sequences, lowest power first, top one
    nonzero; den is a constant times prod_d Phi_d^exps[d].  Over d in
    increasing order, k_d is the largest k <= exps[d] with Phi_d(t)^k
    dividing what is left of the numerator's image r(t), t = 2^_IMAGE_BITS,
    which is then divided by Phi_d(t)^k_d.  While every earlier count is the
    true multiplicity m_d (capped at exps[d]), what is left is the image of
    the numerator with those factors divided out, so k_d >= m_d.  The netted
    division by prod_d Phi_d^k_d (see "q-Euler closed forms") fails only if
    some k_d > m_d, an image false positive; the least d whose Phi_d^k_d
    alone fails is then the first such, so its cap is lowered to k_d - 1 >=
    m_d and the counts are redone, until every k_d = m_d.  The same division
    of den is exact, as k_d <= exps[d].  What is left of den is a constant c
    times monic Phi_d, so its leading coefficient is c and its content |c|:
    the content the parts share is cleared with the sign that makes c
    positive.  The counts are returned for every d with exps[d] > 0.
    """
    if not num:
        return RationalQ(PolyZ(), PolyZ.one()), dict(exps)
    r, image = list(reversed(num)), 0
    for v in r:
        image = (image << _IMAGE_BITS) + v
    forms = {d: _binomials(d) for d in sorted(exps) if exps[d]}
    phis = {d: _binomial_image(plus) // _binomial_image(minus) for d, (plus, minus) in forms.items()}
    caps = dict(exps)
    while True:
        counts, rest = {}, image
        for d, phi in phis.items():
            k = 0
            while k < caps[d]:
                over, rem = divmod(rest, phi)
                if rem:
                    break
                rest, k = over, k + 1
            counts[d] = k
        quotient = _divided(r, counts, forms)
        if quotient is not None:
            break
        d = next(d for d, k in counts.items() if k and _divided(r, {d: k}, forms) is None)
        caps[d] = counts[d] - 1
    r = quotient
    den = _divided(list(reversed(den)), counts, forms)
    c = math.gcd(den[0], *r) * (1 if den[0] > 0 else -1)
    if c != 1:
        r, den = [v // c for v in r], [v // c for v in den]
    return RationalQ(PolyZ(reversed(r)), PolyZ(reversed(den))), counts


def _numerator_bound(m: int) -> int:
    # ceil(2 m! c^m) >= nu_m >= ||N_m||_1, c = 3641/2000; nondecreasing in m
    return -(-2 * math.factorial(m) * 3641**m // 2000**m)


def _identity_bound(n: int, k: int) -> int:
    """A bound on ||a0 b1 - b0 a1||_1 for every identity at order n, shift k.

    With P = 2^(2n+1) bounding both parts of _euler_poly_pair, ||D_n||_1 =
    2^(n+1), beta = 2 sum_{l<k} max(l, 1)^n >= ||bracket sum||_1 and sigma =
    3^k _numerator_bound(n) >= ||t_num|| of the binomial sum to n + 1 (and
    >= nu_n + 2 ||t_num|| of the sum to n), each identity's difference is at
    most P (2^(n+1) (1 + beta) + sigma).  Both held for sigma' = sum_{l<=n}
    C(n,l) nu_l (2k)^(n-l) <= 2 n! c^n sum_j (2k/c)^j / j! <= 2 n! c^n 3^k
    <= sigma, as e^(2/c) <= 3 ("packed polynomials").  Every term is
    nondecreasing in n and in k, so the bound holds at every n' <= n, k' <= k.
    """
    beta = 2 * sum(max(l, 1) ** n for l in range(k))
    return ((1 + beta << n + 1) + 3**k * _numerator_bound(n)) << 2 * n + 1


def _euler_numerators(count: int, k: int | None = None) -> tuple[int, list[int], list[int]]:
    """(w, [N_m(2^w)], [D_m(2^w)]) for m < count, with E_m = N_m / D_m.

    D_m = prod_{j<=m} f_j with f_j = 1+q^j (f_0 = 2), N_0 = 1+q and
    N_m = -sum_{l<m} C(m,l) q^l N_l prod_{l<j<m} f_j, summed by Horner over
    l with no gcd.  The width covers every N_m, as _numerator_bound(count - 1)
    >= nu_m >= ||N_m||_1 by induction (see "packed polynomials"); every D_m,
    as ||D_m||_1 = 2^(m+1) <= _numerator_bound(m) (equal at m = 0 and 1, and
    m! c^m >= 2^m from m = 2 on, as 2 c^2 > 4 and j c > 2 for j >= 2), so
    _reduced can take D_m unpacked; and, when k is given, the
    cross-multiplied difference of every identity at n < count and shift
    <= k, by _identity_bound (itself >= _numerator_bound(count - 1)), so
    _verify_identity can run on it.
    """
    w = _width(_numerator_bound(count - 1) if k is None else _identity_bound(count - 1, k))
    nums, dens, den = [], [], 1
    for m in range(count):
        acc = 0
        for l in range(m):
            acc += acc + math.comb(m, l) * nums[l] << l * w
        nums.append(-acc if m else 1 + (1 << w))
        den += den << m * w
        dens.append(den)
    return w, nums, dens


def _euler_poly_pair(n: int, x: int, h: int, w: int) -> tuple[int, int]:
    # E_n(x, h | q) as [2]_q sum_l C(n,l) (-1)^l q^(l x) over its known
    # denominator prod_l (1 + q^(l+h)) (1-q)^n, unreduced and packed at w.
    # Both parts have l1 norm at most 2^(2n+1).
    num, den = 0, 1
    for l in range(n + 1):
        shift = (l + h) * w
        num += (num << shift) + ((-1) ** l * math.comb(n, l) * den << l * x * w)
        den += den << shift
    return num + (num << w), den * (1 - (1 << w)) ** n


def euler_poly_coefficients(n: int, x: int | None, h: int) -> tuple[tuple, tuple]:
    # The coefficients, lowest power first, of _euler_poly_pair's numerator
    # and denominator.  x None is the plain form, the x = 0 value less [2]_q
    # at n = 0 (numerator -[2]_q q^h, l1 norm 2) and the x = 0 value after.
    w = _width(1 << 2 * n + 1)
    num, den = _euler_poly_pair(n, x or 0, h, w)
    if x is None and n == 0:
        num -= den + (den << w)
    return _unpack(num, w).coeffs, _unpack(den, w).coeffs


def exact_euler_number(n: int) -> RationalQ:
    """The n-th q-Euler number as an exact rational function of q.

    E_0 = (1+q)/2 and, for n >= 1,
    E_n = -(1/(1+q^n)) * sum_{l<n} C(n,l) q^l E_l.
    The numerator is summed over the known denominator 2 prod_{1<=m<=n} (1+q^m)
    and reduced once, by dividing out the cyclotomic factors of that
    denominator; nothing is cached.
    """
    n = as_index(n, "n")
    return _reduced_euler_number(_euler_numerators(n + 1), n)


def _reduced_euler_number(table: tuple, n: int) -> RationalQ:
    # E_n in canonical form from an _euler_numerators(c) table, c > n; a
    # caller that wants E_0..E_n builds one table for all.
    exps: dict = {}
    for m in range(1, n + 1):
        _add_one_plus_q_power(exps, m)
    w, nums, dens = table
    return _reduced(_unpack(nums[n], w).coeffs, _unpack(dens[n], w).coeffs, exps)[0]


def exact_euler_poly(n: int, x: int, h: int) -> RationalQ:
    """The two-parameter q-Euler polynomial value E_n(x, h | q), exact.

    Built from the explicit alternating sum
        ([2]_q / (1-q)^n) * sum_{l<=n} C(n,l) (-1)^l q^(l x) / (1 + q^(l+h)),
    with integer x, h >= 0 so every ingredient stays inside Q(q), summed over
    the known denominator prod_l (1 + q^(l+h)) (1-q)^n and reduced once, by
    dividing out its cyclotomic factors.  The apparent (1-q)^n pole must
    cancel: PoleError if a factor 1-q is left in the denominator.
    """
    n, x, h = as_index(n, "n"), as_index(x, "x"), as_index(h, "h")
    exps = {1: n}
    for l in range(n + 1):
        if l + h:
            _add_one_plus_q_power(exps, l + h)
    out, cancelled = _reduced(*euler_poly_coefficients(n, x, h), exps)
    if cancelled.get(1, 0) < n:
        raise PoleError("the (1-q)^n pole failed to cancel")
    return out


# -- identity checking ---------------------------------------------------------
#
# Both sides of an identity are unreduced (numerator, denominator) pairs,
# packed at the table's width, added and multiplied with no reduction and
# compared by cross-multiplication, which decides equality in Q(q) without a
# gcd: the width lemma with _identity_bound makes integer equality exact.

IDENTITY_NAMES = (
    "poly-vs-recurrence",
    "binomial-expansion",
    "even-shift",
    "odd-shift",
    "even-shift-recombined",
    "odd-shift-recombined",
    "even-shift-wrong-sign",
)


def _equal(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] == b[0] * a[1]


def _signed_bracket_power_sum(n: int, k: int, flip: bool, w: int) -> int:
    # [2]_q sum_{l<k} (-1)^l [l]_q^n, negated when flip is True ((-1)^(l-1)
    # variant).  [0]_q^0 contributes 1 via the 0^0 = 1 convention.
    acc = 0
    for l in range(k):
        sign = -1 if (l % 2 == 1) != flip else 1
        acc += sign * _ones(l, w) ** n
    return acc + (acc << w)


def _binomial_expansion_sum(n: int, k: int, upper: int, table: tuple) -> tuple[int, int]:
    # sum_{l<upper} C(n,l) q^(k l) E_l [k]_q^(n-l), over D_(upper-1), upper
    # <= n + 1: by Horner over l, acc <- [k]_q f_l acc + C(n,l) q^(k l) N_l,
    # which leaves term l times [k]_q^(upper-1-l) prod_{l<j<upper} f_j, and
    # one factor [k]_q^(n+1-upper) after.
    w, nums, dens = table
    bk = _ones(k, w)
    acc = 0
    for l in range(upper):
        acc = (acc + (acc << l * w)) * bk + (math.comb(n, l) * nums[l] << k * l * w)
    return acc * bk ** (n + 1 - upper), dens[upper - 1] if upper else 1


def _verify_identity(identity: str, n: int, k: int, table: tuple) -> bool:
    # verify_identity on checked arguments, with table = _euler_numerators(c,
    # K) for some c > n and K >= k.  The polynomials N_m and D_m do not
    # depend on c or K; every value here is packed at the table's width.
    w, nums, dens = table
    e_n = nums[n], dens[n]
    if identity == "poly-vs-recurrence":
        return _equal(_euler_poly_pair(n, 0, 0, w), e_n)
    if identity == "binomial-expansion":
        return _equal(_euler_poly_pair(n, k, 0, w), _binomial_expansion_sum(n, k, n + 1, table))

    sign = -1 if identity.startswith("even") else 1
    flip = identity in ("even-shift", "even-shift-recombined")
    bracket_sum = (_signed_bracket_power_sum(n, k, flip, w), 1)
    if identity in ("even-shift", "odd-shift", "even-shift-wrong-sign"):
        # E_n(k) + sign * E_n
        p_num, p_den = _euler_poly_pair(n, k, 0, w)
        lhs = p_num * e_n[1] + sign * e_n[0] * p_den, p_den * e_n[1]
        return _equal(lhs, bracket_sum)
    # recombined forms: (q^(k n) + sign) E_n + tail
    t_num, t_den = _binomial_expansion_sum(n, k, n, table)
    shift = (1 << k * n * w) + sign
    rhs = shift * e_n[0] * t_den + t_num * e_n[1], e_n[1] * t_den
    return _equal(bracket_sum, rhs)


def verify_identity(identity: str, n: int, k: int = 0) -> bool:
    """Exact equality test of one q-Euler identity at (n, k).

    Identities and their offset-parity requirements:

    * ``poly-vs-recurrence``   -- E_n(0,0|q) equals the recurrence value
      (k ignored).
    * ``binomial-expansion``   -- E_n(x) = sum_l C(n,l) q^(xl) E_l [x]^(n-l)
      at the integer shift x = k >= 0.
    * ``even-shift``           -- E_n(k) - E_n = [2]_q sum_{l<k} (-1)^(l-1)
      [l]^n, k even.  Flipping that sign breaks the identity; the flipped
      variant is exposed as ``even-shift-wrong-sign`` and kept as a negative
      control that is expected to FAIL.
    * ``odd-shift``            -- E_n(k) + E_n = [2]_q sum_{l<k} (-1)^l [l]^n,
      k odd.
    * ``even-shift-recombined`` / ``odd-shift-recombined`` -- the same shifts
      re-expressed through the binomial expansion, with the second sum
      running to n-1 (the limit forced by the expansion itself).

    Returns True when both sides agree as elements of Q(q).  Both sides are
    kept over their known denominators and compared by cross-multiplication,
    with no gcd.
    """
    if identity not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITY_NAMES}")
    n = as_index(n, "n")
    k = 0 if identity == "poly-vs-recurrence" else as_index(k, "k")  # k is ignored there
    parity = identity.split("-")[0]
    if parity in ("even", "odd") and (k == 0 or k % 2 != (parity == "odd")):
        raise ValueError(f"{identity} requires a positive {parity} k, got {k}")
    return _verify_identity(identity, n, k, _euler_numerators(n + 1, k))
