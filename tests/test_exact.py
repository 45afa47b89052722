import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest

import qeuler
from qeuler import (
    RationalQ,
    classical_euler_number,
    euler_number,
    exact_euler_number,
    exact_euler_poly,
    verify_identity,
)
from qeuler import exact, verification
from qeuler.errors import FloatRangeError, PoleError, QEulerError
from qeuler.verification import run_checks


# -- polynomial arithmetic for the oracles --------------------------------------
#
# The library holds each part of a RationalQ as a plain tuple of int
# coefficients, lowest power first, with no arithmetic and no evaluation: the
# engine sums on packed integers and reduces plain coefficient lists, and
# RationalQ.eval evaluates.  The oracles below compute with Poly, a tuple
# subclass with the library's trimming, schoolbook arithmetic and a reference
# Horner pass.  A Poly equals the tuple with the same coefficients, so it
# compares equal to a part of a RationalQ.


class Poly(tuple):
    __slots__ = ()

    def __new__(cls, coeffs=()):
        c = list(map(operator.index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        return super().__new__(cls, c)

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def monomial(cls, c: int, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((0,) * k + (c,))

    @classmethod
    def bracket(cls, m: int) -> "Poly":
        """[m]_q as the explicit geometric sum 1 + q + ... + q^(m-1)."""
        if m < 0:
            raise ValueError("bracket index must be nonnegative")
        return cls((1,) * m)

    @property
    def degree(self) -> int:
        return len(self) - 1

    @property
    def leading(self) -> int:
        return self[-1] if self else 0

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self, other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-v for v in self))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(tuple(other * v for v in self))
        if not isinstance(other, tuple):
            return NotImplemented
        if not self or not other:
            return Poly()
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a == 0:
                continue
            for j, b in enumerate(other):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("polynomial power must be nonnegative")
        out = Poly.one()  # zero**0 == one, matching the 0^0 = 1 convention
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, x):
        """The reference Horner pass, exact at an int or Fraction x: what the
        tests read packed values P(2^w) and images P(2^16) with."""
        acc = 0
        for v in reversed(self):
            acc = acc * x + v
        return acc

    def content(self) -> int:
        return math.gcd(*self)

    def div_scalar(self, c: int) -> "Poly":
        out = []
        for v in self:
            q, r = divmod(v, c)
            if r:
                raise ValueError("scalar division is not exact")
            out.append(q)
        return Poly(out)

    def divexact(self, d: "Poly") -> "Poly":
        """Quotient self / d, valid only when the division is exact in Z[q]."""
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return Poly()
        if self.degree < d.degree:
            raise ValueError("division is not exact")
        r = list(self)
        dd, dl = d.degree, d.leading
        terms = [(j, c) for j, c in enumerate(d[:dd]) if c]  # below the leading term
        out = [0] * (self.degree - dd + 1)
        for i in range(self.degree - dd, -1, -1):
            qc, rem = divmod(r[dd + i], dl)
            if rem:
                raise ValueError("division is not exact")
            out[i] = qc
            if qc:
                for j, c in terms:
                    r[i + j] -= qc * c
        if any(r[:dd]):
            raise ValueError("division is not exact")
        return Poly(out)


# -- the canonical-form oracle ---------------------------------------------------
#
# The library reaches canonical form only by cyclotomic division over a
# known denominator.  The oracle reaches it by the primitive pseudo-remainder
# sequence, which needs no knowledge of the denominator's factors.


def primitive(p: Poly) -> Poly:
    c = p.content()
    return p if c in (0, 1) else p.div_scalar(c)


def pseudo_rem(a: Poly, b: Poly) -> Poly:
    # lc(b)^(deg a - deg b + 1) * a  mod  b, by pre-scaled exact long division
    da, db, lb = a.degree, b.degree, b.leading
    r = [c * lb ** (da - db + 1) for c in a]
    for i in range(da - db, -1, -1):
        qc, rem = divmod(r[db + i], lb)
        assert not rem, "pseudo-division lost exactness"
        for j, c in enumerate(b):
            r[i + j] -= qc * c
    return Poly(r[:db])


def prs_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient, by the primitive PRS:
    each pseudo-remainder is divided by its integer content before the next
    step."""
    if not a and not b:
        return Poly()
    if not a or not b:
        g = primitive(b if not a else a)
        return -g if g.leading < 0 else g
    A, B = primitive(a), primitive(b)
    if A.degree < B.degree:
        A, B = B, A
    while B.degree > 0:
        R = pseudo_rem(A, B)
        if not R:
            return -B if B.leading < 0 else B
        A, B = B, primitive(R)
    return Poly.one()


def canonical_form(num: Poly, den: Poly) -> RationalQ:
    """num / den in canonical form by one PRS gcd: the oracle."""
    if not num:
        return RationalQ(Poly(), Poly.one())
    g = prs_gcd(num, den)
    num, den = num.divexact(g), den.divexact(g)
    c = math.gcd(num.content(), den.content()) * (1 if den.leading > 0 else -1)
    return RationalQ(num.div_scalar(c), den.div_scalar(c))


def RQ(num, den=(1,)):
    return canonical_form(Poly(num), Poly(den))


def parts(r: RationalQ) -> tuple[Poly, Poly]:
    return Poly(r.num), Poly(r.den)


def fraction_value(r: RationalQ, x):
    """The reference value of r at an int or Fraction x: num(x) / den(x),
    each the Fraction sum of c_j x^j, or None at a root of den."""
    num, den = (sum(c * Fraction(x) ** j for j, c in enumerate(p)) for p in (r.num, r.den))
    return None if den == 0 else num / den


class TestImmutable:
    # RationalQ hashes by value, so a field that could be rebound would
    # change a key already in a set or dict
    def test_fields_refuse_assignment_and_deletion(self):
        r = exact_euler_number(2)
        h = hash(r)
        for name, value in (("num", (5,)), ("den", (1,))):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(r, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(r, name)
        assert hash(r) == h
        assert str(r) == str(exact_euler_number(2)) and r == exact_euler_number(2)

    def test_pickle_and_copies_keep_the_value(self):
        import copy
        import pickle

        r = exact_euler_number(3)
        for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
            assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)


class TestPolyZ:
    # the checks each part of a RationalQ passes, and the test-side Poly
    def test_trailing_zeros_trimmed(self):
        r = RationalQ((1, 2, 0, 0), [3, 0])
        assert (r.num, r.den) == ((1, 2), (3,))
        assert RationalQ((0, 0), (1,)).num == ()

    def test_non_integral_coefficients_rejected(self):
        # truncating 1.5 to 1 would build a different polynomial
        for bad in ((1.5, 2.7), (2.0,), (Fraction(1, 2),), ("1",)):
            with pytest.raises(TypeError):
                RationalQ(bad, (1,))
            with pytest.raises(TypeError):
                RationalQ((1,), bad)
        r = RationalQ((True, 2), (1,))
        assert r.num == (1, 2) and type(r.num[0]) is int

    def test_zero_power_convention(self):
        assert Poly.zero() ** 0 == Poly.one()
        assert Poly.zero() ** 3 == Poly.zero()

    def test_bracket(self):
        assert Poly.bracket(0) == ()
        assert Poly.bracket(3) == (1, 1, 1)

    def test_gcd_subresultant(self):
        # the oracle's gcd: (1+q)(1-q+q^2) = 1+q^3 shares (1+q) with (1+q)^2
        a = Poly((1, 0, 0, 1))
        b = Poly((1, 2, 1))
        assert prs_gcd(a, b) == Poly((1, 1))
        assert prs_gcd(a, Poly((7,))) == Poly.one()

    def test_divexact_rejects_inexact(self):
        with pytest.raises(ValueError):
            Poly((1, 1, 1)).divexact(Poly((1, 1)))

    def test_gcd_of_random_pairs_with_a_planted_factor(self):
        # the oracle's gcd of a = f*u and b = f*v is divisible by f's
        # primitive part, divides both, is primitive with a positive leading
        # coefficient, and leaves coprime cofactors
        rng = random.Random(20080803)

        def poly(degree):
            coeffs = [rng.randint(-9, 9) for _ in range(degree)]
            return Poly(coeffs + [rng.choice((-1, 1)) * rng.randint(1, 9)])

        for _ in range(200):
            f = poly(rng.randint(0, 4))
            a, b = f * poly(rng.randint(0, 5)), f * poly(rng.randint(0, 5))
            g = prs_gcd(a, b)
            assert g.leading > 0 and g.content() == 1
            g.divexact(primitive(f))
            assert prs_gcd(a.divexact(g), b.divexact(g)) == Poly.one()


class TestCanonicalForm:
    """The oracle's canonical form, and RationalQ's construction contract:
    the pair is stored as given."""

    def test_shared_content_removed(self):
        r = RQ((2, 2), (4,))
        assert (r.num, r.den) == ((1, 1), (2,)) and str(r) == "(1 + q)/(2)"

    def test_polynomial_factor_cancelled(self):
        # (1-q^2)/(1-q) -> (1+q)/1
        r = RQ((1, 0, -1), (1, -1))
        assert str(r) == "(1 + q)/(1)"

    def test_denominator_leading_positive(self):
        r = RQ((1,), (1, -2))  # 1/(1-2q) -> (-1)/(-1+2q)
        assert r.den[-1] > 0
        assert str(r) == "(-1)/(-1 + 2*q)"

    def test_idempotent(self):
        r = RQ((-1, 2, 2, -1), (2, 0, 2, 2, 0, 2))
        again = RationalQ(r.num, r.den)
        assert (again.num, again.den) == (r.num, r.den)

    def test_zero_denominator_rejected(self):
        # trimmed first, so zeros of any length are the zero polynomial
        for den in ((), (0,), (0, 0)):
            with pytest.raises(ZeroDivisionError, match="zero denominator"):
                RationalQ((1,), den)

    def test_equality_is_structural(self):
        assert RQ((1, 1), (2,)) == RQ((2, 2), (4,))
        assert RQ((1,)) != RQ((0, 1))
        # a pair built unreduced is stored as given, so == and hash tell it apart
        r = RationalQ((2, 2), (4,))
        assert (r.num, r.den) == ((2, 2), (4,))
        assert r != RQ((1, 1), (2,))
        assert r == RationalQ([2, 2], (4,))
        assert hash(r) == hash(RationalQ((2, 2), (4,)))


    def test_repr_round_trips(self):
        # repr names the two coefficient tuples, so it evaluates back to the value
        values = [exact_euler_number(n) for n in range(21)]
        values += [exact_euler_poly(n, x, h) for n in range(9) for x in range(4) for h in range(3)]
        for r in values:
            assert eval(repr(r), {"RationalQ": RationalQ}) == r, repr(r)

    def test_parts_are_tuples_of_int(self):
        # no polynomial type of its own: each part is a plain tuple, even one
        # built from the test-side Poly
        assert not hasattr(qeuler, "PolyZ") and not hasattr(exact, "PolyZ")
        for r in (exact_euler_number(12), exact_euler_poly(6, 2, 1), RQ(()), RQ((2, 2), (4,))):
            for part in (r.num, r.den):
                assert type(part) is tuple and all(type(c) is int for c in part), r


class TestEval:
    def test_simple(self):
        assert RQ((1, 1), (2,)).eval(complex(0.5)) == pytest.approx(0.75)

    def test_hand_value(self):
        # -(1-q)/(2(1+q^2)) at q = 1/2 is -0.2
        r = RQ((-1, 1), (2, 0, 2))
        assert r.eval(complex(0.5)) == pytest.approx(-0.2)

    def test_pole(self):
        with pytest.raises(PoleError):
            RQ((1,), (1, -1)).eval(complex(1.0))

    def test_exact_at_a_rational_point(self):
        # beyond 2^53 a rounded float would no longer equal the value
        assert RationalQ((2**60 + 1,), (2,)).eval(1) == Fraction(2**60 + 1, 2)
        assert RQ((1, 1), (3,)).eval(Fraction(1, 2)) == Fraction(1, 2)

    def test_rounded_once_at_a_float_point(self):
        # a float Horner pass is 4.5e-5 and 3.3e-7 off (relative) at these
        # two, and at E_40's numerator alone, evaluated as num / 1, 302x off
        # at -0.9 and 2.3e-10 off at 0.99
        assert repr(exact_euler_number(40).eval(0.99)) == "7.364153943614048e+27"
        assert repr(exact_euler_number(30).eval(-0.9)) == "-0.10645150355849835"
        num = RationalQ(exact_euler_number(40).num, (1,))
        assert (repr(num.eval(-0.9)), repr(num.eval(0.99))) == ("-3682717.2847119006", "2.2047644006878537e+28")

    def test_exact_at_seeded_rational_points(self):
        # the value at an int or Fraction point equals num(x) / den(x), each
        # the Fraction sum of c_j x^j
        rng = random.Random(4040)
        checked = 0
        for _ in range(200):
            if rng.random() < 0.5:
                r = exact_euler_number(rng.randrange(31))
            else:
                r = exact_euler_poly(rng.randrange(13), rng.randrange(4), rng.randrange(3))
            if rng.random() < 0.3:
                x = rng.randint(-40, 40)
            else:
                x = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
            want = fraction_value(r, x)
            if want is None:
                with pytest.raises(PoleError):
                    r.eval(x)
                continue
            got = r.eval(x)
            assert type(got) is Fraction and got == want, (r, x)
            checked += 1
        assert checked >= 190

    @pytest.mark.parametrize("n", [40, 60])
    def test_exact_at_high_orders(self, n):
        # the benchmark's rational points 1/3, -2/5 and 5/7, an even
        # denominator and an int point, where the pass scales by 3^j, 5^j,
        # 7^j, 8^j and 1
        r = exact_euler_number(n)
        for x in (Fraction(1, 3), Fraction(-2, 5), Fraction(5, 7), Fraction(3, 8), 2):
            got = r.eval(x)
            assert type(got) is Fraction and got == fraction_value(r, x), (n, x)

    def test_no_fraction_arithmetic_per_coefficient(self, monkeypatch):
        # one integer Horner pass per part and one Fraction at the end; a
        # Fraction Horner pass adds and multiplies a Fraction per coefficient,
        # with a gcd each time
        e, x = exact_euler_number(30), Fraction(1, 3)
        want = fraction_value(e, x)

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in RationalQ.eval")

        for op in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(Fraction, op, refuse)
        got = e.eval(x)
        monkeypatch.undo()
        assert got == want and not hasattr(exact, "reduce")

    def test_pole_at_a_rational_root(self):
        # -1 is a root of 1 + q: the pass at a = -1 over k = 1 reads 0
        with pytest.raises(PoleError) as info:
            RQ((1,), (1, 1)).eval(Fraction(-1))
        assert str(info.value) == "denominator vanishes at q = Fraction(-1, 1)"

    @pytest.mark.parametrize("n,q", [(20, 0.95j), (8, 0.6 + 0.7j)])
    def test_rounded_once_per_component_at_a_complex_point(self, n, q):
        # num(q) / den(q) over Q(i) at the dyadic q, each component rounded
        # once by float(Fraction)
        e, qr, qi = exact_euler_number(n), Fraction(q.real), Fraction(q.imag)

        def at(coeffs):
            re = im = Fraction(0)
            for c in reversed(coeffs):
                re, im = re * qr - im * qi + c, re * qi + im * qr
            return re, im

        (a, b), (c, d) = at(e.num), at(e.den)
        m = c * c + d * d
        want = complex(float((a * c + b * d) / m), float((b * c - a * d) / m))
        assert repr(e.eval(q)) == repr(want)

    def test_return_types(self):
        e = exact_euler_number(3)
        assert type(e.eval(0.5)) is float
        assert type(e.eval(0.5 + 0j)) is complex and type(e.eval(0.3 + 0.4j)) is complex
        assert type(e.eval(1)) is Fraction and type(e.eval(Fraction(1, 3))) is Fraction

    def test_non_finite_point_is_named(self):
        for q0 in (math.nan, math.inf, complex(0.5, math.inf)):
            with pytest.raises(ValueError, match=r"^q must be finite, got "):
                exact_euler_number(3).eval(q0)

    def test_beyond_the_float_range_is_named(self):
        # both raised a bare OverflowError from the division
        big = RationalQ((10**400,), (1,))
        for q0 in (0.5, 0.5 + 0.1j):
            with pytest.raises(FloatRangeError) as info:
                big.eval(q0)
            assert str(info.value) == f"the value at q = {q0!r} lies beyond the float range"
            cause = info.value.__cause__
            assert isinstance(cause, OverflowError) and not isinstance(cause, QEulerError)

    def test_zero_function(self):
        # an exact zero is decided at radius 0: 0.0 at a float point, 0j at a complex one
        zero = RationalQ((), (1,))
        assert repr(zero.eval(0.5)) == "0.0" and repr(zero.eval(0.3 + 0.4j)) == "0j"

    def test_pole_at_a_root_of_the_denominator(self):
        # E_3's reduced denominator 2 (1 + q^2) (1 - q + q^2) vanishes at i
        for r, q0 in ((exact_euler_number(3), 1j), (RQ((1,), (1, -1)), 1.0), (RQ((1,), (1, -1)), 1)):
            with pytest.raises(PoleError):
                r.eval(q0)


class TestExactEulerNumbers:
    def test_order_zero(self):
        assert exact_euler_number(0) == RQ((1, 1), (2,))

    def test_order_one_constant(self):
        assert exact_euler_number(1) == RQ((-1,), (2,))

    def test_order_three_matches_hand_recurrence(self):
        # (-1+2q+2q^2-q^3) / (2(1+q^2)(1+q^3)), compared after canonicalization
        expected = RQ((-1, 2, 2, -1), (2, 0, 2, 2, 0, 2))
        assert exact_euler_number(3) == expected
        assert exact_euler_number(3).eval(complex(0.5)).real == pytest.approx(2 / 15, rel=1e-14)

    def test_rendering(self):
        assert str(exact_euler_number(1)) == "(-1)/(2)"
        assert str(exact_euler_number(2)) == "(-1 + q)/(2 + 2*q^2)"

    def test_classical_limit_at_q_one(self):
        for n in range(9):
            assert exact_euler_number(n).eval(Fraction(1)) == classical_euler_number(n)

    def test_matches_numeric_engine(self):
        for q0 in (0.2, 0.5, 0.9):
            for n in range(11):
                ev = exact_euler_number(n).eval(complex(q0))
                nv = euler_number(n, q0)
                assert abs(ev - nv) <= 1e-11 * max(abs(ev), 1e-300)


class TestExactEulerPoly:
    def test_order_zero(self):
        assert exact_euler_poly(0, 0, 0) == RQ((1, 1), (2,))

    def test_reduces_to_numbers(self):
        for n in range(11):
            assert exact_euler_poly(n, 0, 0) == exact_euler_number(n)
            assert hash(exact_euler_poly(n, 0, 0)) == hash(exact_euler_number(n))

    def test_hand_value_at_shift_two(self):
        assert exact_euler_poly(2, 2, 0).eval(complex(0.5)).real == pytest.approx(1.3, rel=1e-14)

    def test_pole_cancellation(self):
        for n in range(1, 9):
            for x in (0, 1, 3):
                assert sum(exact_euler_poly(n, x, 1).den) != 0  # den(1)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            exact_euler_poly(2, -1, 0)

    def test_uncancelled_pole_raises(self, monkeypatch):
        # a numerator that leaves (1-q)^n standing is a PoleError, also under -O
        build = exact._euler_poly_pair
        monkeypatch.setattr(exact, "_euler_poly_pair", lambda n, x, h, w: (1, build(n, x, h, w)[1]))
        with pytest.raises(PoleError):
            exact_euler_poly(3, 1, 0)


def add_term(acc: RationalQ, num: Poly, den: Poly) -> RationalQ:
    # acc + num / den, put in canonical form by the oracle
    a_num, a_den = parts(acc)
    return canonical_form(a_num * den + num * a_den, a_den * den)


def per_term_numbers(n: int) -> list:
    """E_0..E_n by the recurrence with a canonical pair after every
    addition, one gcd per term: the oracle."""
    table = [RQ((1, 1), (2,))]
    for m in range(1, n + 1):
        acc = RQ(())
        for l, e in enumerate(table):
            acc = add_term(acc, Poly.monomial(math.comb(m, l), l) * e.num, Poly(e.den))
        num, den = parts(acc)
        table.append(canonical_form(-num, den * (Poly.one() + Poly.monomial(1, m))))
    return table


def per_term_poly(n: int, x: int, h: int) -> RationalQ:
    """E_n(x, h | q) summed term by term in canonical pairs: the oracle."""
    acc = RQ(())
    for l in range(n + 1):
        num = Poly.monomial((-1) ** l * math.comb(n, l), l * x) * Poly.bracket(2)
        acc = add_term(acc, num, Poly.one() + Poly.monomial(1, l + h))
    num, den = parts(acc)
    return canonical_form(num, den * Poly((1, -1)) ** n)


def canonical(r: RationalQ) -> tuple:
    return r.num, r.den


class TestKnownDenominators:
    """Values summed over their known denominators and reduced once carry
    the same canonical coefficients as the per-term canonical sums."""

    def test_numbers_match_the_per_term_recurrence(self):
        for n, want in enumerate(per_term_numbers(16)):
            assert canonical(exact_euler_number(n)) == canonical(want), n

    def test_polys_match_the_per_term_sum(self):
        for n in range(13):
            for x in range(4):
                for h in range(3):
                    want = canonical(per_term_poly(n, x, h))
                    assert canonical(exact_euler_poly(n, x, h)) == want, (n, x, h)

    def test_identities_at_order_twenty(self):
        assert verify_identity("poly-vs-recurrence", 20)
        assert verify_identity("binomial-expansion", 20, 2)
        assert verify_identity("odd-shift", 20, 3)
        assert verify_identity("even-shift-recombined", 20, 2)


def binomial_cyclotomic(d: int) -> Poly:
    # Phi_d from the library's binomial form: the product of q^e - 1 over
    # mu(d/e) = +1, divided by each q^e - 1 over mu(d/e) = -1
    plus, minus = exact._binomials(d)
    r = [1]
    for e in plus:
        r = exact._times_binomial(r, e)
    for e in minus:
        r = exact._over_binomial(r, e)
    return Poly(reversed(r))


def oracle_cyclotomic(d: int, table: dict) -> Poly:
    # Phi_d = (q^d - 1) / prod_{e | d, e < d} Phi_e, by long division
    if d not in table:
        phi = Poly.monomial(1, d) - Poly.one()
        for e in range(1, d):
            if d % e == 0:
                phi = phi.divexact(oracle_cyclotomic(e, table))
        table[d] = phi
    return table[d]


def multiplicity(p: Poly, phi: Poly) -> int:
    k = 0
    while True:
        try:
            p = p.divexact(phi)
        except ValueError:
            return k
        k += 1


def mobius(n: int) -> int:
    # mu(n) by trial division over every p <= n
    sign = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
    return sign


def record_failed_divisions(monkeypatch) -> list:
    # one entry per netted division _reduced runs: True where it failed
    failed = []
    divided = exact._divided

    def recorded(r, counts, forms):
        out = divided(r, counts, forms)
        failed.append(out is None)
        return out

    monkeypatch.setattr(exact, "_divided", recorded)
    return failed


class TestCyclotomicReduction:
    """Canonical forms by division by the cyclotomic factors of the known
    denominators, with no remainder sequence."""

    def test_cyclotomic_polynomials(self):
        # Phi_m = prod_{e | m} (q^e - 1)^mu(m/e) has degree phi(m), and the
        # Phi_d over d | m multiply to q^m - 1
        for m in range(1, 61):
            phi = binomial_cyclotomic(m)
            assert phi.degree == sum(math.gcd(m, j) == 1 for j in range(1, m + 1)), m
            product = Poly.one()
            for d in range(1, m + 1):
                if m % d == 0:
                    product = product * binomial_cyclotomic(d)
            assert product == Poly.monomial(1, m) - Poly.one(), m

    def test_moebius_split_and_the_factors_of_one_plus_q_power(self):
        # _binomials(d) splits the divisors e of d by mu(d/e), and
        # _add_one_plus_q_power(exps, m) counts each d | 2m, d not dividing m,
        # once more, both as their definitions have them
        for d in range(1, 301):
            plus, minus = exact._binomials(d)
            divisors = [e for e in range(1, d + 1) if d % e == 0]
            assert sorted(plus) == [e for e in divisors if mobius(d // e) == 1], d
            assert sorted(minus) == [e for e in divisors if mobius(d // e) == -1], d
        for m in range(1, 301):
            exps, want = {2: 5}, {2: 5}
            exact._add_one_plus_q_power(exps, m)
            for d in range(1, 2 * m + 1):
                if 2 * m % d == 0 and m % d:
                    want[d] = want.get(d, 0) + 1
            assert exps == want, m

    def test_reduction_against_the_prs_oracle(self):
        # N = P prod Phi_d^a over const prod Phi_d^exps[d], with a below, at
        # and above exps[d]: the canonical form is the oracle's, and each
        # Phi_d is cancelled min(a', exps[d]) times, a' its multiplicity in N
        rng = random.Random(1907)
        phis: dict = {}
        seen = set()
        for _ in range(60):
            num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [rng.choice((-3, -1, 1, 2))])
            exps, den = {}, Poly.one()
            for d in rng.sample(range(1, 31), rng.randint(1, 4)):
                exps[d] = rng.randint(1, 3)
                a = rng.choice((0, exps[d] - 1, exps[d], exps[d] + 1))
                seen.add((a > exps[d]) - (a < exps[d]))
                num = num * oracle_cyclotomic(d, phis) ** a
                den = den * oracle_cyclotomic(d, phis) ** exps[d]
            const = rng.choice((-12, -5, -2, -1, 1, 2, 6, 9))
            cancelled = {d: min(e, multiplicity(num, oracle_cyclotomic(d, phis))) for d, e in exps.items()}
            got, counts = exact._reduced(num, den * const, exps)
            assert canonical(got) == canonical(canonical_form(num, den * const))
            assert counts == cancelled
        assert seen == {-1, 0, 1}

    def test_failed_trial_stops_at_the_first_division(self, monkeypatch):
        # a division by Phi_d alone makes its products first, which supply
        # every Phi_e, e a proper divisor of d, but not Phi_d, and then its
        # quotients longest first, so the one by q^d - 1 decides: a numerator
        # that Phi_6 does not divide fails there, and _reduced keeps it as it
        # was, dividing the known denominator by the Phi_4 cancelled alone
        phi4, phi6 = oracle_cyclotomic(4, {}), oracle_cyclotomic(6, {})
        results = []
        over = exact._over_binomial

        def recorded(r, e):
            results.append(over(r, e))
            return results[-1]

        monkeypatch.setattr(exact, "_over_binomial", recorded)
        by_phi6 = {6: 1}, {6: exact._binomials(6)}
        quotient = exact._divided(list(reversed(phi4 * phi6)), *by_phi6)
        assert Poly(reversed(quotient)) == phi4 and len(results) == 2 and None not in results
        results.clear()
        assert exact._divided(quotient, *by_phi6) is None and results == [None]
        got, cancelled = exact._reduced(phi4 * 3, phi4 * phi6 * phi6 * 6, {4: 1, 6: 2})
        assert canonical(got) == ((1,), phi6 * phi6 * 2) and cancelled == {4: 1, 6: 0}

    def test_no_trial_fails(self, monkeypatch):
        # the image test at t = 2^16 makes no count too large, so each value
        # takes one netted division of its numerator and one of its known
        # denominator, and no combined division fails; every canonical form
        # is pinned by its str forms' hash
        failed = record_failed_divisions(monkeypatch)
        table = exact._euler_numerators(41)
        numbers = "\n".join(str(exact._reduced_euler_number(table, n)) for n in range(41))
        assert failed == [False] * 2 * 41
        failed.clear()
        polys = "\n".join(
            str(exact_euler_poly(n, x, h)) for n in range(15) for x in range(5) for h in range(4)
        )
        assert failed == [False] * 2 * 300
        digests = [hashlib.sha256(s.encode()).hexdigest() for s in (numbers, polys)]
        assert digests == [
            "775ae925c1f2442ccd8e40317f4f1b48e9af6aa3a179fc397928431a23e58ff1",
            "e029e8321fc872c55d07eafa11976674ac72e884caa1777a26ca434ee0375e95",
        ]

    def test_trial_decides_an_image_false_positive(self, monkeypatch):
        # c = Phi_d(2^16) times P, P coprime to Phi_d, times Phi_d^a: the
        # image counts Phi_d once more than the numerator holds it, so the
        # combined division fails, then Phi_d^(a+1)'s own division, and with
        # the count lowered to a the division of the numerator and that of
        # the denominator are exact; the form is the PRS oracle's
        rng = random.Random(2416)
        failed = record_failed_divisions(monkeypatch)
        phis: dict = {}
        for d in (1, 2, 3, 4, 6, 10, 12, 15, 30):
            phi = oracle_cyclotomic(d, phis)
            c = phi.eval(1 << 16)
            while True:
                p = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.choice((-2, -1, 1, 3))])
                if multiplicity(p, phi) == 0:
                    break
            for base in (Poly((c,)), p * c):
                for a in (0, 1):
                    num = base * phi ** a
                    failed.clear()
                    got, cancelled = exact._reduced(num, phi ** 2 * 6, {d: 2})
                    assert canonical(got) == canonical(canonical_form(num, phi ** 2 * 6)), (d, a)
                    assert cancelled == {d: a} and failed == [True, True, False, False], (d, a)

    def test_numbers_match_the_prs_reduction(self):
        nums, dens = oracle_numerators(21)
        for n in range(21):
            want = canonical(canonical_form(nums[n], dens[n]))
            assert canonical(exact_euler_number(n)) == want, n

    def test_polys_match_the_prs_reduction(self):
        for n in range(13):
            for x in range(4):
                for h in range(3):
                    want = canonical(canonical_form(*oracle_poly_pair(n, x, h)))
                    assert canonical(exact_euler_poly(n, x, h)) == want, (n, x, h)

    def test_no_library_path_takes_a_gcd(self):
        assert not hasattr(RationalQ, "gcd") and not hasattr(exact, "_pseudo_rem")
        want = canonical(per_term_numbers(6)[6]), canonical(per_term_poly(7, 2, 1))
        assert (canonical(exact_euler_number(6)), canonical(exact_euler_poly(7, 2, 1))) == want
        for name, ks in PINNED_VERDICTS.items():
            for k, row in ks.items():
                assert verify_identity(name, 4, k) == (row[4] == "T"), (name, k)
        assert all(r.passed for r in run_checks(0.5, max_n=4, max_k=4, exact_only=True))


class TestExactChecks:
    @pytest.mark.parametrize("max_n", [0, 8])
    def test_one_numerator_table_per_suite(self, monkeypatch, max_n):
        # every check reads the suite's one table, the wrong-sign control at
        # n = 2 included when max_n < 2; none builds its own through
        # verify_identity
        build, built = verification._euler_numerators, []

        def counted(count, k=None):
            built.append(count)
            return build(count, k)

        def refused(*args):
            raise AssertionError("a second numerator table")

        monkeypatch.setattr(verification, "_euler_numerators", counted)
        monkeypatch.setattr(exact, "_euler_numerators", refused)
        results = verification._exact_checks(max_n, 2)
        assert built == [max(max_n, 2) + 1] and all(r.passed for r in results)
        wrong_sign = next(r for r in results if r.name == "exact/even-shift-wrong-sign-rejected")
        assert wrong_sign.detail == "the flipped-sign variant must fail at (n=2, k=2)"

    def test_classical_limit_fails_on_a_corrupted_numerator(self, monkeypatch):
        # N_5 + 1 moves N_5(1) by one, so E_5 at q = 1 no longer matches
        build = verification._euler_numerators

        def corrupted(count, k=None):
            w, nums, dens = build(count, k)
            nums[5] += 1
            return w, nums, dens

        monkeypatch.setattr(verification, "_euler_numerators", corrupted)
        results = {r.name: r for r in run_checks(0.5, max_n=8, exact_only=True)}
        check = results["exact/classical-limit-at-q1"]
        assert not check.passed
        assert check.detail == "q = 1 specialization matches the classical recurrence, failed at [5]"
        monkeypatch.undo()
        assert all(r.passed for r in run_checks(0.5, max_n=8, exact_only=True))

    def test_exact_only_and_numeric_only_are_refused_together(self):
        # the CLI's mutually exclusive group never lets both through
        with pytest.raises(ValueError, match=r"^exact_only and numeric_only are mutually exclusive$"):
            run_checks(0.5, exact_only=True, numeric_only=True)


# The verdicts of verify_identity, computed with canonical-form
# comparisons: name -> {k: verdict at n = 0..8}.  The wrong-sign control holds only at
# n = 0, where both of its sides vanish.
PINNED_VERDICTS = {
    "poly-vs-recurrence": {0: "TTTTTTTTT"},
    "binomial-expansion": {k: "TTTTTTTTT" for k in range(5)},
    "even-shift": {2: "TTTTTTTTT", 4: "TTTTTTTTT"},
    "odd-shift": {1: "TTTTTTTTT", 3: "TTTTTTTTT"},
    "even-shift-recombined": {2: "TTTTTTTTT", 4: "TTTTTTTTT"},
    "odd-shift-recombined": {1: "TTTTTTTTT", 3: "TTTTTTTTT"},
    "even-shift-wrong-sign": {2: "TFFFFFFFF", 4: "TFFFFFFFF"},
}


class TestIdentities:
    def test_pinned_verdicts(self):
        assert set(PINNED_VERDICTS) == set(exact.IDENTITY_NAMES)
        for name, ks in PINNED_VERDICTS.items():
            for k, row in ks.items():
                got = "".join("T" if verify_identity(name, n, k) else "F" for n in range(9))
                assert got == row, (name, k)

    def test_poly_vs_recurrence(self):
        assert all(verify_identity("poly-vs-recurrence", n) for n in range(9))

    def test_binomial_expansion(self):
        assert all(
            verify_identity("binomial-expansion", n, x) for n in range(9) for x in range(5)
        )

    def test_even_shift(self):
        assert all(
            verify_identity("even-shift", n, k) for n in range(9) for k in (2, 4, 6)
        )

    def test_odd_shift(self):
        assert all(
            verify_identity("odd-shift", n, k) for n in range(9) for k in (1, 3, 5)
        )

    def test_recombined_forms(self):
        assert all(
            verify_identity("even-shift-recombined", n, k)
            for n in range(9)
            for k in (2, 4, 6)
        )
        assert all(
            verify_identity("odd-shift-recombined", n, k)
            for n in range(9)
            for k in (1, 3, 5)
        )

    def test_wrong_sign_variant_fails(self):
        # flipping the sign negates the right side; hand check at q = 1/2
        # gives LHS = 1.5 against a flipped RHS of -1.5
        assert not verify_identity("even-shift-wrong-sign", 2, 2)

    def test_odd_shift_at_k_one_reduces_to_recurrence(self):
        assert verify_identity("odd-shift-recombined", 3, 1)

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            verify_identity("even-shift", 2, 3)
        with pytest.raises(ValueError):
            verify_identity("odd-shift", 2, 2)
        with pytest.raises(ValueError):
            verify_identity("even-shift-recombined", 2, 1)

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity("nope", 2, 2)


# -- the packed engine against Poly -----------------------------------------------
#
# The oracle is the engine on Poly coefficient tuples: the same Horner
# recurrences with schoolbook products, and identities decided by Poly
# cross-multiplication.


def oracle_numerators(count: int) -> tuple[list, list]:
    fs = [Poly.one() + Poly.monomial(1, j) for j in range(count)]
    nums, dens, den = [], [], Poly.one()
    for m in range(count):
        acc = Poly()
        for l in range(m):
            acc = fs[l] * acc + Poly.monomial(math.comb(m, l), l) * nums[l]
        nums.append(-acc if m else Poly.bracket(2))
        den = fs[m] * den
        dens.append(den)
    return nums, dens


def oracle_poly_pair(n: int, x: int, h: int) -> tuple[Poly, Poly]:
    num, den = Poly(), Poly.one()
    for l in range(n + 1):
        f = Poly.one() + Poly.monomial(1, l + h)
        num = f * num + Poly.monomial((-1) ** l * math.comb(n, l), l * x) * den
        den = f * den
    return num * Poly.bracket(2), den * Poly((1, -1)) ** n


def oracle_verdict(identity: str, n: int, k: int, nums: list, dens: list) -> bool:
    def equal(a, b):
        return a[0] * b[1] == b[0] * a[1]

    def shift_sum(upper):
        acc, bk = Poly(), Poly.bracket(k)
        for l in range(upper):
            weight = Poly.monomial(math.comb(n, l), k * l) * bk ** (n - l)
            acc = (Poly.one() + Poly.monomial(1, l)) * acc + weight * nums[l]
        return acc, dens[upper - 1] if upper else Poly.one()

    e_n = nums[n], dens[n]
    if identity == "poly-vs-recurrence":
        return equal(oracle_poly_pair(n, 0, 0), e_n)
    if identity == "binomial-expansion":
        return equal(oracle_poly_pair(n, k, 0), shift_sum(n + 1))
    sign = -1 if identity.startswith("even") else 1
    flip = identity in ("even-shift", "even-shift-recombined")
    acc = Poly()
    for l in range(k):
        acc = acc + Poly.bracket(l) ** n * (-1 if (l % 2 == 1) != flip else 1)
    bracket_sum = Poly.bracket(2) * acc, Poly.one()
    if identity in ("even-shift", "odd-shift", "even-shift-wrong-sign"):
        p_num, p_den = oracle_poly_pair(n, k, 0)
        return equal((p_num * e_n[1] + e_n[0] * p_den * sign, p_den * e_n[1]), bracket_sum)
    t_num, t_den = shift_sum(n)
    shift = Poly.monomial(1, k * n) + Poly((sign,))
    return equal(bracket_sum, (shift * e_n[0] * t_den + t_num * e_n[1], e_n[1] * t_den))


def shifts_of(identity: str, top: int) -> list[int]:
    if identity == "poly-vs-recurrence":
        return [0]
    if identity == "binomial-expansion":
        return list(range(top + 1))
    return [k for k in range(1, top + 1) if k % 2 == (0 if identity.startswith("even") else 1)]


class TestPacked:
    """Each polynomial of the q-Euler engine is carried as its value at 2^w."""

    def test_width_is_the_least_that_holds_the_bound(self):
        for bits in range(0, 300):
            for bound in {max(0, (1 << bits) - 1), 1 << bits}:
                w = exact._width(bound)
                assert w % 8 == 0 and bound < 1 << w - 1, bound
                assert w == 8 or bound >= 1 << w - 9, bound

    @pytest.mark.parametrize("w", [8, 16, 64, 136])
    def test_signed_digit_round_trips(self, w):
        top = (1 << w - 1) - 1  # the largest digit the width lemma allows
        rng = random.Random(w)
        cases = [
            (), (top,), (-top,), (0, 0, -top), (top, -top, top, -top),
            (-top, 0, 0, top), (1, 2, -top), (-1,), (top, 0, -1),
            tuple(rng.randint(-top, top) for _ in range(40)) + (-top,),
        ]
        for coeffs in cases:
            p = Poly(coeffs)
            assert exact._unpack(p.eval(1 << w), w) == p, coeffs

    def test_round_trips_at_the_width_of_the_bound(self):
        # a coefficient equal to the bound itself must still decode
        for bits in range(1, 200, 3):
            for c in ((1 << bits) - 1, 1 << bits):
                w = exact._width(c)
                p = Poly((c, -c, 0, -c))
                assert exact._unpack(p.eval(1 << w), w) == p, c

    def test_numerator_table_matches_the_oracle(self):
        nums, dens = oracle_numerators(31)
        for k in (None, 0, 5):
            w, packed_nums, packed_dens = exact._euler_numerators(31, k)
            for m in range(31):
                assert packed_nums[m] == nums[m].eval(1 << w), (k, m)
                assert packed_dens[m] == dens[m].eval(1 << w), (k, m)
                assert exact._unpack(packed_nums[m], w) == nums[m], (k, m)
                assert exact._unpack(packed_dens[m], w) == dens[m], (k, m)

    def test_poly_pairs_match_the_oracle(self):
        for n in range(31):
            w = exact._width(1 << 2 * n + 1)
            for x, h in ((0, 0), (1, 0), (3, 1), (2, 2)):
                num, den = exact._euler_poly_pair(n, x, h, w)
                want = oracle_poly_pair(n, x, h)
                assert (exact._unpack(num, w), exact._unpack(den, w)) == want, (n, x, h)

    def test_identity_verdicts_match_polyz_cross_multiplication(self):
        nums, dens = oracle_numerators(25)
        table = exact._euler_numerators(25, 5)
        for identity in exact.IDENTITY_NAMES:
            for k in shifts_of(identity, 5):
                for n in range(25):
                    want = oracle_verdict(identity, n, k, nums, dens)
                    assert exact._verify_identity(identity, n, k, table) == want, (identity, n, k)
                    assert want == (identity != "even-shift-wrong-sign" or n == 0)


# -- the packing widths' closed forms against the l1-norm recurrences ---------
#
# The engine takes its widths from closed forms, which must cover the l1-norm
# bounds that follow the recurrences of the values; these are those bounds.


def recurrence_norms(count: int) -> list[int]:
    # nu_0 = ||1 + q||_1 = 2, nu_m = sum_{l<m} C(m,l) nu_l 2^(m-1-l) >= ||N_m||_1
    nu: list[int] = []
    for m in range(count):
        nu.append(sum(math.comb(m, l) * v << m - 1 - l for l, v in enumerate(nu)) if m else 2)
    return nu


def recurrence_identity_bound(n: int, k: int, nu: list[int]) -> int:
    # the bound with sigma = sum_{l<=n} C(n,l) nu_l k^(n-l) 2^(n-l)
    beta = 2 * sum(max(l, 1) ** n for l in range(k))
    sigma = sum(math.comb(n, l) * nu[l] * k ** (n - l) << n - l for l in range(n + 1))
    return ((1 + beta << n + 1) + sigma) << 2 * n + 1


class TestClosedFormBounds:
    def test_constant_exceeds_two_over_ln3_with_margin(self):
        assert 3641 / 2000 * math.log(3) > 2 + 2e-5
        # the step itself, e^(2/c) <= 3, in rationals: the Taylor sum to J
        # terms plus a geometric bound on the tail, x^J / J! / (1 - x/(J+1))
        x, term, total = Fraction(4000, 3641), Fraction(1), Fraction(0)
        for j in range(40):
            total, term = total + term, term * x / (j + 1)
        assert total + term / (1 - x / 41) < 3

    def test_numerator_bound_covers_the_recurrence(self):
        nu = recurrence_norms(300)
        for m in range(300):
            # and ||D_m||_1 = 2^(m+1), so the table's width decodes D_m too
            assert exact._numerator_bound(m) >= max(nu[m], 2 << m), m

    def test_identity_bound_covers_the_recurrence(self):
        nu = recurrence_norms(60)
        for n in range(60):
            for k in range(9):
                assert exact._identity_bound(n, k) >= recurrence_identity_bound(n, k, nu), (n, k)

    def test_bounds_are_nondecreasing_in_n_and_k(self):
        # so that one table serves every n' <= n and k' <= k
        for m in range(1, 300):
            assert exact._numerator_bound(m) >= exact._numerator_bound(m - 1), m
        for n in range(60):
            for k in range(9):
                here = exact._identity_bound(n, k)
                assert n == 0 or here >= exact._identity_bound(n - 1, k), (n, k)
                assert k == 0 or here >= exact._identity_bound(n, k - 1), (n, k)

    def test_tables_are_never_narrower_than_the_recurrences_made_them(self):
        nu = recurrence_norms(41)
        for count in range(1, 41):
            for k in (None, 0, 1, 2, 4, 8):
                old = nu[count - 1] if k is None else recurrence_identity_bound(count - 1, k, nu)
                assert exact._euler_numerators(count, k)[0] >= exact._width(old), (count, k)
