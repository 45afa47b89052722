import cmath
import math
import random
from fractions import Fraction

import pytest

from qeuler import (
    EngineConfig,
    QEulerError,
    QParameter,
    classical_euler_number,
    classical_euler_poly,
    classical_zeta_E,
    euler_number,
    euler_numbers,
    euler_poly,
    q_bracket,
    qzeta,
    qzeta_hurwitz,
)
from qeuler import _exactcomplex
from qeuler._exactcomplex import terminating_alt_sum
from qeuler.cli import main
from qeuler.exact import _dyadic, _horner, euler_poly_coefficients
from qeuler.errors import FloatRangeError, NonConvergenceError

from series_oracle import euler_poly_series_oracle

Q_SET = (0.2, 0.5, 0.9, 0.3 + 0.4j)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestEulerNumbers:
    def test_first_values_at_half(self):
        q = QParameter(0.5)
        assert euler_number(0, q) == pytest.approx(0.75)
        assert euler_number(1, q) == pytest.approx(-0.5)
        assert euler_number(2, q) == pytest.approx(-0.2)
        assert euler_number(3, q).real == pytest.approx(2 / 15, rel=1e-13)

    def test_order_one_is_constant_in_q(self):
        rng = random.Random(2101)
        for _ in range(100):
            r = rng.uniform(0, 0.95)
            phi = rng.uniform(0, 2 * math.pi)
            q = QParameter(r * cmath.exp(1j * phi))
            assert abs(euler_number(1, q) + 0.5) <= 1e-14

    def test_table_invariants(self):
        for qv in Q_SET:
            values = [euler_number(n, qv) for n in range(11)]
            q = complex(qv)
            assert values[0] == (1 + q) / 2
            # re-substitute each value into the recurrence
            for n in range(1, 11):
                acc = sum(math.comb(n, l) * q**l * values[l] for l in range(n))
                resid = values[n] + acc / (1 + q**n)
                assert abs(resid) <= 1e-13 * max(1.0, abs(values[n]))

    @pytest.mark.parametrize("n", [1030, 1999])
    def test_binomials_beyond_the_float_range_are_refused_at_once(self, n):
        # C(1030, 515) does not convert to float: the recurrence raised a bare
        # OverflowError("int too large to convert to float") after about 7 s
        with pytest.raises(FloatRangeError, match=rf"^the binomials of E_0..E_{n} lie beyond the float range$"):
            euler_numbers(n, 0.5)

    def test_recurrence_beyond_the_float_range_raises(self):
        # the float recurrence overflows to inf and then takes inf - inf:
        # E_222 on came back nan+nanj with no error
        assert all(map(cmath.isfinite, euler_numbers(221, 0.99)))
        with pytest.raises(FloatRangeError, match=r"^E_222 of E_0..E_230 lies beyond the float range$"):
            euler_numbers(230, 0.99)

    def test_classical_limit(self):
        for n in range(7):
            gap = abs(euler_number(n, 0.9999) - float(classical_euler_number(n)))
            assert gap <= 1e-2


class TestConcurrency:
    def test_memo_tables_are_consistent_across_threads(self):
        import threading

        results = []

        def worker():
            results.append(
                tuple(euler_number(n, QParameter(0.77)) for n in range(30, 0, -1))
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestClassical:
    def test_numbers(self):
        assert classical_euler_number(0) == 1
        assert classical_euler_number(2) == 0
        assert classical_euler_number(3) == Fraction(1, 4)
        assert classical_euler_number(9) == Fraction(-31, 2)

    def test_poly(self):
        assert classical_euler_poly(0, 123.4) == 1
        assert abs(classical_euler_poly(1, 0.5)) == 0  # x - 1/2
        assert abs(classical_euler_poly(2, 1)) == 0  # x^2 - x

    def test_poly_correctly_rounded(self):
        # E_n(x) = sum_k C(n,k) E_k x^(n-k) over one common denominator,
        # each component rounded once by int / int; the float sum this
        # replaced gave 5.8e35 at (58, 2)
        numbers = [Fraction(1)]
        for m in range(1, 70):
            numbers.append(-sum(math.comb(m, l) * numbers[l] for l in range(m)) / 2)
        scaled = [int(e * 2**k) for k, e in enumerate(numbers)]  # 2^k E_k

        def references(x):
            z = complex(x)
            xr, xi = Fraction(z.real), Fraction(z.imag)
            d = max(xr.denominator, xi.denominator)
            p = (xr.numerator * (d // xr.denominator), xi.numerator * (d // xi.denominator))
            powers, dk = [(1, 0)], [1]  # p^j and d^k
            for _ in range(69):
                a, b = powers[-1]
                powers.append((a * p[0] - b * p[1], a * p[1] + b * p[0]))
                dk.append(dk[-1] * d)
            for n in range(70):
                den = dk[n] << n  # E_k = (2^k E_k) / 2^k and x = p / d
                re = im = 0
                for k in range(n + 1):
                    c = math.comb(n, k) * scaled[k] * dk[k] << n - k
                    re, im = re + c * powers[n - k][0], im + c * powers[n - k][1]
                try:
                    yield n, complex(re / den, im / den)
                except OverflowError:
                    yield n, None

        rng = random.Random(2510)
        xs = [0.3, 0.5, 2.0, -1.5, 0.25 + 0.5j, 1 - 1j, 123.4, 1e-300, 5e-324]
        xs += [rng.uniform(-4.0, 4.0) for _ in range(6)]
        xs += [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(6)]
        xs += [rng.choice((-1, 1)) * 10 ** rng.uniform(-30.0, 4.0) for _ in range(4)]
        for x in xs:
            for n, want in references(x):
                if want is None:
                    with pytest.raises(FloatRangeError):
                        classical_euler_poly(n, x)
                    continue
                got = classical_euler_poly(n, x)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (n, x)
        assert classical_euler_poly(58, 2.0) == 2  # E_n(1 + x) = 2 x^n - E_n(x)

    def test_poly_beyond_the_float_range_raises(self):
        with pytest.raises(FloatRangeError):
            classical_euler_poly(3, 1e200)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_poly_non_finite_shift_rejected(self, x):
        with pytest.raises(ValueError, match="x must be finite"):
            classical_euler_poly(3, x)


class TestTermBudget:
    # E_0..E_n and E_n(x, h | q) take n + 1 terms; above config.max_terms
    # (10,000 by default) they are refused before q is read or a sum starts

    ENTRIES = [
        lambda n, cfg: euler_poly(n, 0, 0, 0.5, cfg),
        lambda n, cfg: euler_poly(n, 0.5, 1, 0.3 + 0.4j, cfg),
        lambda n, cfg: euler_numbers(n, 0.5, cfg),
        lambda n, cfg: euler_number(n, 0.5, cfg),
    ]

    @pytest.mark.parametrize("call", ENTRIES)
    def test_large_order_refused_at_once(self, monkeypatch, call):
        from qeuler import numeric

        def refused(*args):
            raise AssertionError("computed past the term budget")

        monkeypatch.setattr(numeric, "as_qparameter", refused)
        monkeypatch.setattr(numeric, "terminating_alt_sum", refused)
        for cfg in (None, EngineConfig()):
            with pytest.raises(NonConvergenceError, match=r"^the sum at order -20000 has 20001 terms, above max_terms=10000$"):
                call(20000, cfg)

    @pytest.mark.parametrize("call", ENTRIES)
    def test_budget_is_the_config_max_terms(self, call):
        cfg = EngineConfig(max_terms=16)
        assert call(15, cfg) == call(15, None)
        with pytest.raises(NonConvergenceError, match=r"^the sum at order -16 has 17 terms, above max_terms=16$"):
            call(16, cfg)


class TestEulerPoly:
    def test_hand_value(self):
        assert euler_poly(2, 2, 0, QParameter(0.5)).real == pytest.approx(1.3, rel=1e-13)

    def test_reduces_to_numbers_at_zero_shift(self):
        for qv in Q_SET:
            qp = QParameter(qv)
            for n in range(9):
                assert rel_err(euler_poly(n, 0, 0, qp), euler_number(n, qp)) <= 1e-13

    def test_sum_beyond_the_float_range_raises(self):
        # the top term q^(x n) proves the value beyond the float range at
        # once: 2^2100 at (3, -700)
        for n, x in ((3, -700), (2, -4000), (1, -1e300)):
            with pytest.raises(FloatRangeError, match=f"order {-n} lies beyond the float range"):
                euler_poly(n, x, 0, 0.5)

    def test_shift_one_order_one(self):
        # binomial-shift expansion: E_1(x) = E_0 [x]_q + q^x E_1,
        # so at x = 1 the value is (1+q)/2 - q/2 = 1/2 for every q
        for qv in Q_SET:
            assert euler_poly(1, 1, 0, QParameter(qv)) == pytest.approx(0.5, abs=1e-13)

    def test_integer_and_expansion_paths_agree(self):
        # the exact powers at an integer x and q^x carried at the working
        # precision meet as x approaches that integer
        for qv in (0.3, 0.8):
            qp = QParameter(qv)
            for n in range(7):
                a = euler_poly(n, 2, 0, qp)
                b = euler_poly(n, 2.0000000001, 0, qp)
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a))

    def test_weight_exponent(self):
        # E_0(x, h | q) = [2]_q / (1 + q^h)
        for qv in Q_SET:
            for h in range(3):
                expect = (1 + complex(qv)) / (1 + complex(qv) ** h)
                assert rel_err(euler_poly(0, 0, h, QParameter(qv)), expect) <= 1e-14

    def test_complex_shift(self):
        # expansion evaluated directly for complex x
        qp = QParameter(0.5)
        x = 0.7 + 0.3j
        q = 0.5
        total = sum(
            math.comb(3, l)
            * q ** (x * l)
            * euler_poly(l, 0, 0, qp)
            * q_bracket(x, qp) ** (3 - l)
            for l in range(4)
        )
        assert rel_err(euler_poly(3, x, 0, qp), total) <= 1e-12

    @pytest.mark.parametrize("n,x", [(4, 20000), (12, 257)])
    @pytest.mark.parametrize("q", [0.3, 0.9, -0.9, 0.95j])
    def test_large_integer_shift_against_mpmath(self, n, x, q):
        # shifts beyond EXACT_SHIFT_MAX carry q^x at the working precision
        mp = pytest.importorskip("mpmath")
        h = 1
        with mp.workdps(60):
            mq = mp.mpc(q)
            total = sum(
                mp.binomial(n, l) * (-1) ** l * mq ** (l * x) / (1 + mq ** (l + h))
                for l in range(n + 1)
            )
            ref = complex((1 + mq) / (1 - mq) ** n * total)
        assert rel_err(euler_poly(n, x, h, q), ref) <= 1e-13
        assert rel_err(qzeta_hurwitz(-n, x, h, q).value, ref) <= 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_poly(-1, 0, 0, QParameter(0.5))
        with pytest.raises(ValueError):
            euler_poly(2, 0, -1, QParameter(0.5))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(0.5, math.inf), complex(math.nan, 0)])
    def test_non_finite_shift_rejected(self, x):
        # as qzeta_hurwitz does; nan used to read as beyond the float range
        # and inf as 6 at (3, 0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            euler_poly(3, x, 0, 0.5)


def fraction_alt_sum(n: int, h: int, q: complex, x) -> complex:
    """The same finite sum as terminating_alt_sum, in Fractions over Q(i),
    each component rounded once by float(Fraction): the oracle."""

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        d = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)

    def power(a, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = mul(out, a)
        return out

    qe = (Fraction(q.real), Fraction(q.imag))
    qm, qx = power(qe, h), power(qe, x or 0)
    qxk = (Fraction(1), Fraction(0))
    total = (Fraction(0), Fraction(0))
    for k in range(n + 1):
        f = div(qxk if x is not None else (-qm[0], -qm[1]), (1 + qm[0], qm[1]))
        c = (-1) ** k * math.comb(n, k)
        total = (total[0] + c * f[0], total[1] + c * f[1])
        qm, qxk = mul(qm, qe), mul(qxk, qx)
    value = div(mul(total, (1 + qe[0], qe[1])), power((1 - qe[0], -qe[1]), n))
    return complex(float(value[0]), float(value[1]))


def pair_sum(n: int, h: int, q: complex, x) -> tuple[int, int, int]:
    """The sum sum_k (-1)^k C(n,k) f_k of terminating_alt_sum, with no
    prefactor, exactly, as (re, im, den) for (re + i im) / den: the Q(q)
    engine's unreduced E_n(x, h | q) at q = Q / 2^e, times (1-q)^n / (1+q)."""
    num, den = euler_poly_coefficients(n, x, h)
    Q, e = _dyadic(q)
    D, mul = 1 << e, _exactcomplex._mul
    # num(q) = A / D^(len(num) - 1) and den(q) = B / D^(len(den) - 1)
    a = mul(_horner(num, Q, e), _exactcomplex._pow((D - Q[0], -Q[1]), n))
    b = mul(_horner(den, Q, e), (D + Q[0], Q[1]))
    re, im = mul(a, (b[0], -b[1]))
    t, d = e * (len(den) - len(num) - n + 1), b[0] * b[0] + b[1] * b[1]
    return (re << t, im << t, d) if t >= 0 else (re, im, d << -t)


def _no_fallback(*args):
    raise AssertionError("the exact fallback ran")


def _draw_q(rng: random.Random) -> complex:
    # q on both axes, imaginary, complex, rounded-decimal, near 1 and tiny
    r = rng.uniform(0.0, 0.97)
    return (
        complex(r, 0.0),
        complex(-r, 0.0),
        complex(0.0, rng.choice((r, -r))),
        cmath.rect(r, rng.uniform(-math.pi, math.pi)),
        complex(round(rng.uniform(-0.7, 0.7), 2), round(rng.uniform(-0.7, 0.7), 2)),
        cmath.rect(1.0 - 10.0 ** rng.uniform(-2.5, -1.0), rng.uniform(-0.05, 0.05)),
        complex(rng.choice((5e-324, 2.0**-600, 0.0)), 0.0),
    )[rng.randrange(7)]


def _draw_case(rng: random.Random) -> tuple:
    # (n, h, q, x), with the orders held lower where the Fraction oracle's
    # gcds grow fastest: large shifts and q below 1e-100.
    q = _draw_q(rng)
    x = rng.choice((None, *range(13)))
    n = rng.randrange(7 if abs(q) < 1e-100 else 35 if x is None or x < 4 else 17)
    return n, rng.randrange(3), q, x


def _hex(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


class TestTerminatingSum:
    def test_bits_match_the_fraction_sum(self, monkeypatch):
        # Seeded draws, plus every small order at dyadic q, where the value
        # may be exact, zero in one component (E_1 = -1/2 + 0i at every q)
        # or a binary64 tie (E_0 = (1 + q)/2 at q = 0.9).
        rng = random.Random(20080807)
        cases = [_draw_case(rng) for _ in range(300)]
        cases += [
            (n, h, q, x)
            for n in range(4)
            for h in range(3)
            for q in (0.0, 0.5, -0.5, 0.25j, 0.5 + 0.5j, 0.9, 0.3 + 0.4j)
            for x in (None, 0, 1, 2)
        ]
        wants = [_hex(fraction_alt_sum(n, h, complex(q), x)) for n, h, q, x in cases]
        for (n, h, q, x), want in zip(cases, wants):
            assert _hex(terminating_alt_sum(n, h, complex(q), x)) == want, (n, h, q, x)
        # and again with every fixed-point attempt refused, so that each
        # value comes from the exact fallback, E_n(x, h | q) from the Q(q)
        # engine's pair evaluated at q
        monkeypatch.setattr(_exactcomplex, "_truncated_sum", lambda *args: None)
        for (n, h, q, x), want in zip(cases, wants):
            assert _hex(terminating_alt_sum(n, h, complex(q), x)) == want, (n, h, q, x)

    def test_tiny_q_plain_sums_decided_in_fixed_point(self, monkeypatch):
        # The plain value is of order q^h, far below the starting 2^-72 at
        # these q; the bits were pinned from the exact sum, which must not run.
        monkeypatch.setattr(_exactcomplex, "euler_poly_coefficients", _no_fallback)
        cases = {
            5e-324: ("-0x0.0000000000001p-1022", "0x0.0p+0"),
            2.0**-600: ("-0x1.0000000000000p-600", "0x0.0p+0"),
        }
        for q, want in cases.items():
            assert _hex(terminating_alt_sum(40, 1, complex(q), None)) == want, q

    def test_tiny_imaginary_part_decided_in_fixed_point(self, monkeypatch):
        # An imaginary part of q as small as 2^-600 or 5e-324 makes the
        # imaginary component that small too, hundreds of bits below the
        # first attempt's precision.  The later attempts are sized from the
        # first (and carry the truncated q whole) and decide it.  The bits
        # were pinned from the exact sum, which agrees with the Fraction sum
        # and must not run.
        monkeypatch.setattr(_exactcomplex, "euler_poly_coefficients", _no_fallback)
        cases = {
            (0.5157 + 2.0**-600 * 1j, 24, 2, 0): ("-0x1.223f70118bb40p+10", "0x1.6af86aa72ce6bp-584"),
            (0.5157 + 2.0**-600 * 1j, 12, 0, 1): ("0x1.de7e8df5d5857p+4", "-0x1.4a87f0e716c4bp-593"),
            (0.5157 + 2.0**-600 * 1j, 16, 1, None): ("-0x1.e95b83d8dd414p+6", "-0x1.78f9821e4bc28p-594"),
            (-0.25 - 2.0**-600 * 1j, 24, 2, 0): ("-0x1.7ffc5ea1808a6p-5", "-0x1.400fd7ab6520ap-602"),
            (-0.25 - 2.0**-600 * 1j, 12, 0, 1): ("0x1.880d0c8e6fe0ap-1", "-0x1.a7f249bf7eb40p-601"),
            (0.3 + 5e-324j, 24, 2, 0): ("0x1.aed16b0fd65dbp+1", "0x0.0000000000050p-1022"),
            (0.3 + 5e-324j, 12, 0, 1): ("-0x1.a95782009b2e9p+0", "0x0.0000000000029p-1022"),
        }
        for (q, n, h, x), want in cases.items():
            assert _hex(terminating_alt_sum(n, h, q, x)) == want, (q, n, h, x)
        # Where the first attempt already sees the tiny component (q~ real,
        # the prefactor exact), the second attempt is sized to decide it.
        attempts = []
        truncated_sum = _exactcomplex._truncated_sum
        monkeypatch.setattr(_exactcomplex, "_truncated_sum", lambda *a: attempts.append(a) or truncated_sum(*a))
        terminating_alt_sum(24, 2, 0.5157 + 2.0**-600 * 1j, 0)
        assert len(attempts) == 2

    def test_fixed_point_radius_holds(self, monkeypatch):
        # At the first precision tried, the exact sum lies within the radius
        # that the truncated fixed-point sum reports, and the final bits are
        # those of the exact value rounded once (the exact fallback).  q is
        # dyadic, over the disk, near the circle, imaginary, negative, tiny,
        # or real but for a 2^-600 imaginary part (wider than the working
        # precision, so truncated).  The orders stay where that exact sum is
        # cheap.
        rng = random.Random(20261018)
        seen = {}
        truncated_sum, radius_of = _exactcomplex._truncated_sum, _exactcomplex._radius

        def record(*args):
            out = truncated_sum(*args)
            seen.setdefault("first", (args, out))
            return out

        def record_radius(*args):
            seen["radius"] = radius_of(*args)
            return seen["radius"]

        def draw_q():
            r = rng.uniform(0.3, 0.97)
            return complex(rng.choice((
                lambda: rng.choice((0.5, -0.25, 0.75)),
                lambda: cmath.rect(math.sqrt(rng.random()) * 0.99, rng.uniform(-math.pi, math.pi)),
                lambda: cmath.rect(rng.uniform(0.99, 0.999), rng.uniform(-math.pi, math.pi)),
                lambda: complex(0.0, rng.choice((r, -r))),
                lambda: -r,
                lambda: rng.choice((5e-324, 2.0**-600)),
                lambda: complex(rng.choice((r, -r)), rng.choice((1, -1)) * 2.0**-600),
            ))())

        for _ in range(500):
            q, h, x = draw_q(), rng.randrange(4), rng.choice((None, 0, 1, 2, 3, 17, 256))
            # bits of the exact sum's denominator over Q(i), about
            # e ((n+1) 2h + n^2 (1 + x/2)), which also bounds those of
            # pair_sum's, about e (n^2/2 + n (h + x))
            e = max(q.real.as_integer_ratio()[1], q.imag.as_integer_ratio()[1]).bit_length()
            n = rng.randrange(61)
            while n and e * ((n + 1) * 2 * h + n * n * (1 + (x or 0) / 2)) > 40_000:
                n //= 2
            seen.clear()
            monkeypatch.setattr(_exactcomplex, "_truncated_sum", record)
            monkeypatch.setattr(_exactcomplex, "_radius", record_radius)
            got = terminating_alt_sum(n, h, q, x)
            radius, ((_, _, Q, e, _, W), fixed) = seen["radius"], seen["first"]
            *exact, den = pair_sum(n, h, q, x)
            assert radius is not None and fixed is not None, (n, h, q, x)
            for a, b in zip(fixed, exact):
                assert abs(a * den - (b << W)) <= radius * den, (n, h, q, x)
            monkeypatch.setattr(_exactcomplex, "_truncated_sum", lambda *args: None)
            want = terminating_alt_sum(n, h, q, x)
            monkeypatch.undo()
            assert _hex(got) == _hex(want), (n, h, q, x)

    def test_large_shift_decided_in_fixed_point(self, monkeypatch):
        # q^(256 k) truncates to 0 at k = 1; the bits were pinned from the
        # exact sum, which must not run.
        monkeypatch.setattr(_exactcomplex, "euler_poly_coefficients", _no_fallback)
        got = euler_poly(12, 256, 0, 0.3 + 0.4j)
        assert _hex(got) == ("0x1.17ee7175ff5d3p+3", "0x1.180958c4244c0p+1")

    def test_value_beyond_the_float_range_raises(self, capsys):
        # one rounding, exact._finish, names each value; the cause is the
        # division's raw OverflowError
        cases = (
            (lambda: classical_zeta_E(-301), "the classical Euler polynomial of order 301 at x = 1"),
            (lambda: classical_euler_poly(56, 1e10), "the classical Euler polynomial of order 56 at x = 10000000000.0"),
            (lambda: qzeta(-400, 0, 0.97), "the sum at order -400"),
        )
        for case, name in cases:
            with pytest.raises(FloatRangeError) as info:
                case()
            assert str(info.value) == f"{name} lies beyond the float range"
            cause = info.value.__cause__
            assert isinstance(cause, OverflowError) and not isinstance(cause, QEulerError)
        assert main(["zeta", "--q", "0.97", "--s", "-400"]) == 3
        assert capsys.readouterr().err == "error: overflow: the sum at order -400 lies beyond the float range\n"


class TestTermList:
    @staticmethod
    def term_lists(n, h, q, x, W):
        # _quotients' lists (re, im), checked for shape, with Q, e and the L
        # of _radius's bound: L = lower - 3 (n + 1) 2^-W, lower = 1 on
        # [0, 1) and (1 - |q|^2) / 2 elsewhere
        Q, e = _exactcomplex._dyadic(q)
        v = _exactcomplex._quotients(n, h, Q, e, x, W)
        assert v is not None, (n, h, q, x, W)
        re, im = v
        assert im is None or len(im) == len(re), (n, h, q, x, W)
        assert 1 <= len(re) <= n + 1, (n, h, q, x, W)
        if Q[1] == 0 and Q[0] >= 0:
            lower = Fraction(1)
        else:
            lower = Fraction((1 << 2 * e) - Q[0] ** 2 - Q[1] ** 2, 1 << 2 * e + 1)
        L = lower - Fraction(3 * (n + 1), 1 << W)
        assert L > 0
        return re, im, Q, e, L

    @staticmethod
    def check_terms(n, h, q, x, W):
        # Each v_k of _quotients lies within its own bound of
        # 2^W q^(x k) / (1 + q^(h+k)), the exact term, per component; a
        # term past the end of a list that stopped early is 0.  The bound
        # is the one _radius sums: 1 unit for the rounding, plus 3 k / L
        # once q^(x k) is truncated (e x k > W) and 3 (1 + k) / L^2 once
        # q^(h+k) is (e (h + k) > W).
        re, im, Q, e, L = TestTermList.term_lists(n, h, q, x, W)
        x = x or 0
        qx = _exactcomplex._pow(Q, x)
        qm, qxk = _exactcomplex._pow(Q, h), (1, 0)
        for k in range(n + 1):
            m = h + k
            bound = 1 + (Fraction(3 * k) / L if e * x * k > W else 0)
            bound += Fraction(3 * (1 + k)) / L**2 if e * m > W else 0
            # 2^W X_k / (1 + P_m) = a 2^(W + e m) / (|w|^2 2^(e x k)) with
            # w = 2^(e m) + Q^m and a = Q^(x k) conj(w), exactly
            w = ((1 << e * m) + qm[0], qm[1])
            a = _exactcomplex._mul(qxk, (w[0], -w[1]))
            den = w[0] ** 2 + w[1] ** 2 << e * x * k
            got = (re[k] if k < len(re) else 0, im[k] if im is not None and k < len(im) else 0)
            for g, c in zip(got, a):
                err = abs(g * den - (c << W + e * m))
                assert err * bound.denominator <= bound.numerator * den, (n, h, q, x, W, k)
            qm, qxk = _exactcomplex._mul(qm, Q), _exactcomplex._mul(qxk, qx)

    @staticmethod
    def check_shifted_terms(n, h, q, x, shift, W):
        # check_terms at a shift x with no exact power, whose x~ comes from
        # _Shift.power.  The bound is the one _radius sums with c = 4 and
        # R = R64 / 2^64 >= max(1, |q^x|, |x~|): 1 unit, plus 4 k R^(k-1) / L
        # for X~_k, plus 3 (1 + k) R^k / L^2 once q^(h+k) is truncated.  The
        # exact term takes q^(x k) = exp(k x log q) from mpmath, on the branch
        # of cmath.log(q), at W + 64 bits beyond the term's integer part, so
        # mpmath's own error stays below 2^-32 units.
        mp = pytest.importorskip("mpmath")
        re, im, Q, e, L = TestTermList.term_lists(n, h, q, shift, W)
        R = Fraction(shift.R64, 1 << 64)
        with mp.workprec(W + 64 + n * max(0, shift.R64.bit_length() - 64) + 64):
            mq = mp.mpc(q)
            lq = mp.log(mq)
            if q.imag == 0 and math.copysign(1.0, q.imag) < 0 and q.real < 0:
                lq = mp.conj(lq)  # cmath.log's branch at -0.0
            for k in range(n + 1):
                bound = 1 + 4 * k * R ** (k - 1) / L
                bound += 3 * (1 + k) * R**k / L**2 if e * (h + k) > W else 0
                want = mp.exp(k * mp.mpc(x) * lq) / (1 + mq ** (h + k)) * mp.mpf(2) ** W
                got = (re[k] if k < len(re) else 0, im[k] if im is not None and k < len(im) else 0)
                tol = mp.mpf(bound.numerator) / bound.denominator + mp.mpf(2) ** -32
                for g, c in zip(got, (want.real, want.imag)):
                    assert abs(g - c) <= tol, (n, h, q, x, W, k)

    def test_terms_within_their_bounds(self):
        # q real, negative, imaginary or complex, out to |q| = 0.999, or
        # real but for a 2^-600 imaginary part (so q itself is truncated);
        # W is where the sum starts, and twice that.
        rng = random.Random(20261020)

        def draw_q():
            r = rng.uniform(0.0, 0.999)
            return complex(rng.choice((
                lambda: r,
                lambda: -r,
                lambda: complex(0.0, rng.choice((r, -r))),
                lambda: cmath.rect(r, rng.uniform(-math.pi, math.pi)),
                lambda: cmath.rect(rng.uniform(0.99, 0.999), rng.uniform(-math.pi, math.pi)),
                lambda: complex(rng.uniform(-0.9, 0.9), rng.choice((2.0**-600, -(2.0**-600)))),
            ))())

        for _ in range(150):
            q, h, x = draw_q(), rng.randrange(4), rng.choice((None, 0, 1, 3, 17, 256))
            Q, e = _exactcomplex._dyadic(q)
            # the exact q^(x n) stays below about 10^5 bits
            n = rng.randrange(min(31, 3 + 100_000 // (e * (x or 1))))
            p, guard, _ = _exactcomplex._start(n, h, q, Q, e, x)
            for W in (p + guard, 2 * (p + guard)):
                self.check_terms(n, h, q, x, W)

        # the fractional, negative, complex, tiny and wide integer shifts,
        # whose x~ comes from _Shift.power
        shifted = 0
        for _ in range(100):
            q, h, x = draw_q(), rng.randrange(4), _draw_shift(rng)
            n = rng.randrange(1, 31)
            Q, e = _exactcomplex._dyadic(q)
            try:
                shift = _exactcomplex._as_shift(n, q, Q, e, x)
            except QEulerError:
                continue  # q^x too wide to carry at this n, or 0^x a pole
            if not isinstance(shift, _exactcomplex._Shift):
                continue  # q = 0, where q^x is q^1
            p, guard, _ = _exactcomplex._start(n, h, q, Q, e, shift)
            for W in (p + guard, 2 * (p + guard)):
                self.check_shifted_terms(n, h, q, complex(x), shift, W)
            shifted += 1
        assert shifted >= 80

    def test_list_stops_where_the_shifted_power_vanishes(self):
        # q^(256 k) truncated to the working precision is 0 from k = 2 on,
        # so the list holds two terms: what keeps the order -120 sum at
        # shift 256 cheap.
        n, h, q, x = 120, 0, 0.3 + 0.4j, 256
        Q, e = _exactcomplex._dyadic(q)
        p, guard, _ = _exactcomplex._start(n, h, q, Q, e, x)
        re, im = _exactcomplex._quotients(n, h, Q, e, x, p + guard)
        assert len(re) == len(im) == 2
        self.check_terms(8, h, q, x, p + guard)


def _mp_value(n: int, x, h: int, q, dps: int):
    """E_n(x, h | q) in mpmath at dps digits, with q^x = exp(x log q) on the
    branch of cmath.log(q), and a bound on its error: the sum of the moduli
    of its terms, times 10^(5 - dps)."""
    mp = pytest.importorskip("mpmath")
    q, x = complex(q), complex(x)
    with mp.workdps(dps):
        mq = mp.mpc(q)
        lq = mp.log(mq)
        if q.imag == 0 and math.copysign(1.0, q.imag) < 0 and q.real < 0:
            lq = mp.conj(lq)  # cmath.log's branch at -0.0
        qx = mq ** int(x.real) if x.imag == 0 and x.real.is_integer() else mp.exp(mp.mpc(x) * lq)
        terms = [(-1) ** k * math.comb(n, k) * qx**k / (1 + mq ** (h + k)) for k in range(n + 1)]
        pref = (1 + mq) * (1 - mq) ** -n
        return pref * mp.fsum(terms), abs(pref) * mp.fsum(abs(t) for t in terms) * mp.mpf(10) ** (5 - dps)


def _to_float(c) -> float:
    # an mpf rounded once to binary64, subnormals included (float(mpf) rounds
    # to 53 bits before it scales, twice for a subnormal)
    sign, man, exp, _ = c._mpf_
    man = -int(man) if sign else int(man)
    try:
        return float(Fraction(man) * Fraction(2) ** int(exp))
    except OverflowError:
        return math.copysign(math.inf, man)


def mp_euler_poly(n: int, x, h: int, q) -> complex:
    """E_n(x, h | q), each component rounded to binary64 once the working
    precision decides it, sign of a zero included (a Ziv loop on _mp_value's
    bound); an exact 0 component stays 0, and n = 0 is the exact
    (1+q)/(1+q^h)."""
    if n == 0:
        return fraction_alt_sum(0, h, complex(q), 0)
    for dps in (50, 100, 200, 400, 800, 1600):
        value, err = _mp_value(n, x, h, q, dps)
        if all(not c or _to_float(c - err).hex() == _to_float(c + err).hex() for c in (value.real, value.imag)):
            return complex(_to_float(value.real), _to_float(value.imag))
    raise AssertionError(f"mpmath left E_{n}({x}, {h} | {q}) undecided")


def _draw_shift(rng: random.Random):
    # fractional, negative, complex, near 0, and integer beyond the exact range
    return rng.choice((
        lambda: rng.uniform(0.01, 4.0),
        lambda: -rng.uniform(0.01, 3.0),
        lambda: complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0)),
        lambda: 10 ** rng.uniform(-7.0, -2.0) * rng.choice((1, -1, 1j)),
        lambda: rng.randrange(257, 600),
    ))()


class TestShiftPower:
    """q^x at the working precision: every routine within its stated error of mpmath."""

    @staticmethod
    def draw_q(rng):
        r = rng.uniform(0.0, 0.999)
        return complex(rng.choice((
            lambda: r,
            lambda: -r,
            lambda: complex(-r, -0.0),
            lambda: complex(0.0, rng.choice((r, -r))),
            lambda: cmath.rect(r, rng.uniform(-math.pi, math.pi)),
            lambda: cmath.rect(rng.uniform(0.99, 0.999), rng.uniform(-math.pi, math.pi)),
            lambda: rng.choice((5e-324, 2.0**-600, 0.999)),
            lambda: complex(rng.uniform(-0.9, 0.9), 2.0**-600),
        ))())

    def test_exp_within_its_error(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261101)
        for _ in range(150):
            P = rng.randrange(40, 700)
            z = complex(rng.uniform(-60.0, 40.0), rng.choice((0.0, rng.uniform(-4.0, 4.0), rng.uniform(-1e4, 1e4))))
            Z = (int(z.real * 2**60) << P >> 60, int(z.imag * 2**60) << P >> 60)
            (w0, w1), err = _exactcomplex._exp(Z, P)
            with mp.workdps(P // 3 + 120):
                want = mp.exp(mp.mpc(Z[0], Z[1]) / mp.mpf(2) ** P) * mp.mpf(2) ** P
                assert abs(mp.mpc(w0, w1) - want) <= err, (Z, P)

    def test_log_within_its_error(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261102)
        for _ in range(150):
            q, P = self.draw_q(rng), rng.randrange(60, 700)
            if q == 0:
                continue
            Q, e = _exactcomplex._dyadic(q)
            (Y0, Y1), err = _exactcomplex._log(cmath.log(q), Q, e, P)
            with mp.workdps(P // 3 + 60):
                want = mp.log(mp.mpc(q)) * mp.mpf(2) ** P
                if q.imag == 0 and math.copysign(1.0, q.imag) < 0 and q.real < 0:
                    want = mp.conj(want)  # cmath.log's branch at -0.0
                assert abs(mp.mpc(Y0, Y1) - want) <= err, (q, P)

    def test_power_within_its_error(self):
        # x~ = q^x at W bits lies within its stated error d8 / 2^8 units of
        # exp(x log q), d8 / 2^8 <= 4 - sqrt2, and within the R that
        # _radius reads
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261103)
        for _ in range(400):
            q, W, n = self.draw_q(rng), rng.randrange(72, 600), rng.randrange(1, 41)
            x = complex(_draw_shift(rng))
            if q == 0:
                continue
            Q, e = _exactcomplex._dyadic(q)
            try:
                shift = _exactcomplex._Shift(q, Q, e, x, n)
            except QEulerError:
                continue  # q^x too wide to carry at this n
            got = shift.power(W)
            assert got is not None, (q, x, W)
            with mp.workdps((W + max(0, int(shift.hi))) // 3 + 60):
                lq = mp.log(mp.mpc(q))
                if q.imag == 0 and math.copysign(1.0, q.imag) < 0 and q.real < 0:
                    lq = mp.conj(lq)
                want = mp.exp(mp.mpc(x) * lq) * mp.mpf(2) ** W
                (M0, M1), d8 = got
                assert abs(mp.mpc(M0, M1) - want) <= mp.mpf(d8) / 256 <= 4 - math.sqrt(2), (q, x, W)
                assert abs(want) <= mp.mpf(shift.R64) * mp.mpf(2) ** (W - 64), (q, x, W)


class TestEulerPolyEveryShift:
    """euler_poly at shifts without exact powers: correctly rounded, as at integer ones."""

    def test_correctly_rounded_on_seeded_draws(self):
        rng = random.Random(20261104)
        for _ in range(400):
            n, h = rng.randrange(41), rng.randrange(4)
            q = _draw_q(rng)
            x = _draw_shift(rng)
            if q == 0:
                continue  # test_zero_q
            try:
                got = euler_poly(n, x, h, q)
            except FloatRangeError:  # only where the value is beyond the float range
                assert not cmath.isfinite(mp_euler_poly(n, x, h, q)), (n, x, h, q)
                continue
            assert _hex(got) == _hex(mp_euler_poly(n, x, h, q)), (n, x, h, q)

    @pytest.mark.parametrize(
        "n,x,h,q,want",
        [
            # 5.2e-3 off relatively on the binomial-shift path
            (40, 1.5, 0, -0.9, ("-0x1.6cf7ec7fba61cp-25", "0x1.7bdd6de531c52p-28")),
            # 2.2e-8 off relatively there, the worst fractional golden pin
            (23, 0.5, 1, -0.9, ("-0x1.1f67fcb03195cp-17", "0x1.9fc5397e4524dp-15")),
        ],
    )
    def test_pins(self, n, x, h, q, want):
        assert _hex(euler_poly(n, x, h, q)) == want
        assert _hex(mp_euler_poly(n, x, h, q)) == want

    def test_hurwitz_order_sum_is_euler_poly_with_bound_zero(self):
        rng = random.Random(20261105)
        for _ in range(60):
            n, h, q = rng.randrange(30), rng.randrange(3), _draw_q(rng)
            x = complex(rng.uniform(0.0, 3.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
            if q == 0 or x.real == 0:
                continue
            sv = qzeta_hurwitz(-n, x, h, q)
            assert sv.value == euler_poly(n, x, h, q)
            assert (sv.error_bound, sv.terms_used, sv.converged) == (0.0, n + 1, True)

    def test_zero_q(self):
        # q^x = 0 = q^1 for Re x > 0, and a pole otherwise, as in cpow
        assert euler_poly(3, 0.5, 1, 0.0) == euler_poly(3, 1, 1, 0.0)
        with pytest.raises(QEulerError):
            euler_poly(3, -0.5, 0, 0.0)


class TestNumericShiftIdentities:
    def test_odd_shift(self):
        for qv in Q_SET:
            qp = QParameter(qv)
            q = complex(qv)
            for n in range(9):
                for k in (1, 3, 5):
                    lhs = euler_poly(n, k, 0, qp) + euler_number(n, qp)
                    rhs = (1 + q) * sum(
                        (-1) ** l * q_bracket(l, qp) ** n for l in range(k)
                    )
                    assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_even_shift_sign(self):
        for qv in Q_SET:
            qp = QParameter(qv)
            q = complex(qv)
            for n in range(9):
                for k in (2, 4, 6):
                    lhs = euler_poly(n, k, 0, qp) - euler_number(n, qp)
                    rhs = (1 + q) * sum(
                        (-1) ** (l - 1) * q_bracket(l, qp) ** n for l in range(k)
                    )
                    assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


class TestShiftExpansionCheck:
    # verify's numeric/shift-expansion holds euler_poly at non-integer shifts
    # to the binomial formula over the Q(q) engine's E_l(0, h | q), at every
    # q: complex, negative and near 1, where the float averaging oracle
    # cannot serve (it needs real q in (0, 1), and at 0.97 is 9.5e-2 off).
    @pytest.mark.parametrize("q", [0.3 + 0.4j, -0.5, 0.97, 0.999])
    def test_runs_and_passes_at_every_q(self, q):
        from qeuler.verification import run_checks

        (check,) = [r for r in run_checks(q, numeric_only=True) if r.name == "numeric/shift-expansion"]
        assert check.passed and check.detail.startswith("n <= 8, 4 shifts, h <= 2, worst ")


class TestSeriesOracle:
    def test_matches_number(self):
        sv = euler_poly_series_oracle(2, 0, 0, QParameter(0.5), depth=2)
        assert sv.converged
        assert abs(sv.value - (-0.2)) <= 1e-8

    def test_convergent_geometric_case(self):
        # order 0 with weight exponent 1: [2]_q * sum (-q)^k = [2]_q/(1+q) = 1
        sv = euler_poly_series_oracle(0, 0, 1, QParameter(0.5))
        assert abs(sv.value - 1.0) <= 1e-10

    def test_matches_poly_at_shift_two(self):
        sv = euler_poly_series_oracle(2, 2, 0, QParameter(0.5), depth=2)
        assert abs(sv.value - 1.3) <= 1e-8

    def test_agreement_grid(self):
        for qv in (0.3, 0.5, 0.8):
            qp = QParameter(qv)
            for n in range(9):
                for x in (0.0, 0.5, 1.0, 2.0):
                    sv = euler_poly_series_oracle(n, x, 0, qp, depth=2)
                    assert abs(sv.value - euler_poly(n, x, 0, qp)) <= 1e-8

    def test_error_bound_reported(self):
        sv = euler_poly_series_oracle(3, 0.5, 0, QParameter(0.5))
        assert sv.error_bound >= 0
        assert sv.terms_used >= 16

    def test_non_convergence(self):
        cfg = EngineConfig(max_terms=24)
        with pytest.raises(NonConvergenceError):
            euler_poly_series_oracle(8, 0, 0, QParameter(0.9), depth=1, config=cfg)

    def test_rejects_complex_q(self):
        with pytest.raises(ValueError):
            euler_poly_series_oracle(2, 0, 0, QParameter(0.3 + 0.4j))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            euler_poly_series_oracle(2, 0, -1, QParameter(0.5))

    def test_rejects_a_depth_below_one(self):
        with pytest.raises(ValueError, match="^depth must be a positive integer$"):
            euler_poly_series_oracle(2, 0, 0, 0.5, depth=0)


class TestHurwitzInterpolationCheck:
    # verify's numeric/hurwitz-interpolation compares qzeta_hurwitz at order
    # -n bit for bit with the Q(q) engine's E_n(x, h | q), taken at q and
    # rounded once, so a fault in the fixed-point sums that both
    # qzeta_hurwitz and euler_poly read fails it, however small

    @staticmethod
    def _check(q):
        from qeuler.verification import run_checks

        (check,) = [r for r in run_checks(q, numeric_only=True) if r.name == "numeric/hurwitz-interpolation"]
        return check

    def test_passes_with_the_sums_as_they_are(self):
        check = self._check(0.5)
        assert check.passed and check.detail == "n <= 8, x <= 3, h <= 2, worst rel err 0.00e+00"

    @pytest.mark.parametrize("q", [0.9, -0.9, 0.6 + 0.7j, 0.95j, 0.001])
    def test_bits_match_over_the_disk(self, q):
        check = self._check(q)
        assert check.passed and check.detail == "n <= 8, x <= 3, h <= 2, worst rel err 0.00e+00"

    @staticmethod
    def _check_with_the_sums_off_by(monkeypatch, defect):
        from qeuler import numeric, zeta

        def scaled(*args):
            return terminating_alt_sum(*args) * (1.0 + defect)

        monkeypatch.setattr(zeta, "terminating_alt_sum", scaled)
        monkeypatch.setattr(numeric, "terminating_alt_sum", scaled)
        return TestHurwitzInterpolationCheck._check(0.5)

    def test_fails_when_the_finite_sums_are_off(self, monkeypatch):
        check = self._check_with_the_sums_off_by(monkeypatch, 1e-8)
        assert not check.passed
        assert check.detail == "n <= 8, x <= 3, h <= 2, worst rel err 1.00e-08"

    def test_fails_when_the_finite_sums_are_off_by_1e_11(self, monkeypatch):
        # below any float tolerance the check could take: only bit equality catches it
        check = self._check_with_the_sums_off_by(monkeypatch, 1e-11)
        assert not check.passed
        assert check.detail == "n <= 8, x <= 3, h <= 2, worst rel err 1.00e-11"
