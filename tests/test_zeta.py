import cmath
import math
import random

import pytest

from qeuler import zeta
from qeuler import (
    EngineConfig,
    QParameter,
    classical_euler_number,
    classical_euler_poly,
    classical_zeta_E,
    euler_continuation,
    euler_continuation_deriv,
    euler_number,
    euler_poly,
    qzeta,
    qzeta_deriv,
    qzeta_hurwitz,
)
from qeuler.errors import NonConvergenceError, PoleError
from qeuler.kernel import DEFAULT_CONFIG, cpow, sum_series_geometric

Q_SET = (0.2, 0.5, 0.9, 0.3 + 0.4j)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _finite_sum_error(value: complex, n: int, x, h: int, q: complex):
    """|value - E_n(x, h | q)| and E_n rounded to binary64, the finite sum
    [2]_q (1-q)^(-n) sum_{k<=n} (-1)^k C(n,k) q^(xk) / (1 + q^(h+k)) at the
    float inputs, in 60 digits beyond those the sum cancels."""
    mp = pytest.importorskip("mpmath")
    growth = 1 + abs(cmath.exp(complex(x) * cmath.log(q)))  # |1 + q^x| bounds the terms' growth
    with mp.workdps(60 + math.ceil(n * math.log10(2 * growth / abs(1 - q)))):
        mq = mp.mpc(q)
        qx = mp.power(mq, mp.mpc(x))
        total = mp.fsum(
            (-1) ** k * math.comb(n, k) * qx**k / (1 + mq ** (h + k)) for k in range(n + 1)
        )
        ref = (1 + mq) * (1 - mq) ** -n * total
        return float(abs(mp.mpc(value) - ref)), complex(ref)


def averaged_defining_series(q: float, s: float, terms: int = 400, rounds: int = 6) -> float:
    """Independent oracle: iterated pair-averaging of the partial sums of
    [2]_q sum_{n>=1} (-1)^n / [n]_q^s for real q in (0,1)."""
    bracket = lambda n: (1.0 - q**n) / (1.0 - q)
    run = 0.0
    partials = []
    for n in range(1, terms + 1):
        run += (1.0 + q) * (-1) ** n / bracket(n) ** s
        partials.append(run)
    u = partials
    for _ in range(rounds):
        u = [(u[i] + u[i + 1]) / 2 for i in range(len(u) - 1)]
    return u[-1]


class TestPlainZeta:
    def test_interpolates_numbers(self):
        for qv in Q_SET:
            qp = QParameter(qv)
            for n in range(1, 13):
                sv = qzeta(-n, 0, qp)
                assert sv.converged and sv.error_bound == 0.0
                assert rel_err(sv.value, euler_number(n, qp)) <= 1e-10

    def test_termination_at_nonpositive_integers(self):
        qp = QParameter(0.5)
        for n in range(13):
            assert qzeta(-n, 0, qp).terms_used <= n + 1

    def test_value_at_zero(self):
        # only the k = 0 term survives: -[2]_q / 2
        assert qzeta(0, 0, QParameter(0.5)).value == pytest.approx(-0.75)

    def test_order_one_against_averaging_oracle(self):
        oracle = averaged_defining_series(0.5, 1.0)
        got = qzeta(1, 0, QParameter(0.5)).value
        assert abs(got - oracle) <= 1e-6
        assert abs(got - (-0.948375)) <= 1e-5

    def test_weight_exponent_interpolates_polynomials(self):
        # order -n with weight h equals E_n(0, h | q) for n >= 1
        for qv in Q_SET:
            qp = QParameter(qv)
            for n in range(1, 9):
                for h in range(3):
                    assert rel_err(qzeta(-n, h, qp).value, euler_poly(n, 0, h, qp)) <= 1e-10

    def test_large_order_limit(self):
        # the limit for |q| < 1 is -(1+q), approached like (1+q)^(1-s) (the
        # next alternating term); the classically quoted -2 is only the
        # q -> 1 edge and must NOT be reproduced here
        for qv in (0.2, 0.5, 0.9):
            qp = QParameter(qv)
            val = qzeta(60, 0, qp).value
            bound = max(2.2 * (1 + qv) ** (-59), 1e-9)
            assert abs(val + (1 + qv)) <= bound
        assert abs(qzeta(60, 0, QParameter(0.5)).value + 1.5) <= 1e-6
        assert abs(qzeta(60, 0, QParameter(0.5)).value + 2.0) > 0.4

    def test_monotone_approach(self):
        qp = QParameter(0.5)
        gaps = [abs(qzeta(s, 0, qp).value + 1.5) for s in (10, 20, 30, 40, 50, 60)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            qzeta(1, -1, QParameter(0.5))
        for s in (math.nan, math.inf, complex(1, math.inf)):
            with pytest.raises(ValueError):
                qzeta(s, 0, QParameter(0.5))


class TestHurwitzZeta:
    def test_terminating_examples(self):
        qp = QParameter(0.5)
        sv = qzeta_hurwitz(-2, 0, 0, qp)
        assert sv.value == pytest.approx(-0.2)
        sv = qzeta_hurwitz(0, 0, 0, qp)
        assert sv.value == pytest.approx(0.75)
        assert sv.terms_used == 1

    def test_interpolates_polynomials(self):
        for qv in Q_SET:
            qp = QParameter(qv)
            for n in range(9):
                for x in range(4):
                    for h in range(3):
                        sv = qzeta_hurwitz(-n, x, h, qp)
                        assert sv.terms_used <= n + 1
                        assert rel_err(sv.value, euler_poly(n, x, h, qp)) <= 1e-10

    def test_matches_exact_engine(self):
        # the terminating values agree with the symbolic engine evaluated at q
        from qeuler import exact_euler_poly

        for qv in (0.5, 0.9, 0.3 + 0.4j):
            qp = QParameter(qv)
            for n in range(7):
                for x in range(4):
                    for h in range(3):
                        sv = qzeta_hurwitz(-n, x, h, qp)
                        ref = exact_euler_poly(n, x, h).eval(complex(qv))
                        assert rel_err(sv.value, ref) <= 1e-10

    def test_plain_equals_hurwitz_at_zero_shift_for_negative_orders(self):
        qp = QParameter(0.5)
        for n in range(1, 11):
            a = qzeta(-n, 0, qp).value
            b = qzeta_hurwitz(-n, 0, 0, qp).value
            assert a == b

    def test_plain_and_hurwitz_differ_by_two_q_at_zero(self):
        qp = QParameter(0.5)
        a = qzeta(0, 0, qp).value
        b = qzeta_hurwitz(0, 0, 0, qp).value
        assert b - a == pytest.approx(1.5)

    def test_convergent_positive_shift(self):
        qp = QParameter(0.5)
        sv = qzeta_hurwitz(2.5, 2.0, 0, qp)
        assert sv.converged

    def test_zero_shift_positive_order_diverges(self):
        qp = QParameter(0.5)
        with pytest.raises(NonConvergenceError):
            qzeta_hurwitz(2.5, 0, 0, qp, EngineConfig(max_terms=64))

    @pytest.mark.parametrize(
        "s,x,q,deriv",
        [(2.5, 0, 0.5, False), (2.5, 0, 0.5, True), (1.5, 0.1 - 1j, 0.5j, False)],
    )
    def test_shift_whose_terms_never_shrink_fails_before_summing(self, s, x, q, deriv):
        # |q^x| >= 1: the stopping test can never pass, so no terms are spent
        with pytest.raises(NonConvergenceError) as info:
            if deriv:
                qzeta_deriv(s, 0, QParameter(q), x=x)
            else:
                qzeta_hurwitz(s, x, 0, QParameter(q))
        assert info.value.partial is None

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            qzeta_hurwitz(1, -0.5, 0, QParameter(0.5))
        with pytest.raises(ValueError):
            qzeta_deriv(2.5, 0, QParameter(0.5), x=-0.5)

    def test_every_shift_at_negative_integer_order(self):
        # at s = -n the value is euler_poly's at every finite shift, Re(x) < 0
        # and complex included, with the same bits
        rng = random.Random(2512)
        for _ in range(40):
            n, h = rng.randrange(25), rng.randrange(3)
            q = rng.choice((0.5, -0.7, 0.9, 0.3 + 0.4j, 0.6j))
            x = complex(rng.uniform(-3.0, 1.0), rng.choice((0.0, rng.uniform(-2.0, 2.0))))
            sv = qzeta_hurwitz(-n, x, h, q)
            assert sv.value == euler_poly(n, x, h, q), (n, x, h, q)
            assert (sv.error_bound, sv.terms_used, sv.converged) == (0.0, n + 1, True)
        assert qzeta_hurwitz(-3, -0.5, 0, 0.5).value == euler_poly(3, -0.5, 0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            qzeta_hurwitz(-3, complex(-math.inf, 0.0), 0, 0.5)

    def test_non_integer_shift_at_negative_integer_order(self):
        # at s = -n the rising-factorial binomials are (-1)^k C(n, k) and
        # vanish beyond k = n, so the finite sum has n + 1 terms
        qp = QParameter(0.5)
        q, x, n = 0.5, 0.75, 4
        ref = (1 + q) * (1 - q) ** -n * sum(
            (-1) ** k * math.comb(n, k) * q ** (x * k) / (1 + q**k) for k in range(n + 1)
        )
        sv = qzeta_hurwitz(-n, x, 0, qp)
        assert sv.terms_used == n + 1 and sv.error_bound == 0.0
        assert rel_err(sv.value, ref) <= 1e-12
        assert sv.value == _finite_sum_error(sv.value, n, x, 0, q)[1]

    @pytest.mark.parametrize(
        "n,x,h,q",
        [
            (20, 0.5, 0, 0.9),
            (10, 0.5, 0, 0.97),
            (12, 3.5, 0, 0.999),
            (12, 0.7 - 0.1j, 1, 0.3 + 0.4j),
            (20, 1.5, 0, 0.9 * cmath.exp(2j)),
            (16, 2.25, 2, -0.9),
            (6, 0.0016095045986006665 + 0.000254920485049134j, 2, 0.4152953041809441),
        ],
    )
    def test_negative_integer_order_against_finite_sum(self, n, x, h, q):
        # at s = -n every shift gives the finite sum E_n(x, h | q), correctly
        # rounded: the sum in 60 digits, rounded to binary64, with bound 0.
        # These shifts took a float binomial-shift expansion before, which
        # was 6.2e-12 off relatively at (20, 1.5, 0, 0.9 e^2i).
        sv = qzeta_hurwitz(-n, x, h, QParameter(q))
        err, ref = _finite_sum_error(sv.value, n, x, h, q)
        assert sv.value == ref
        assert sv.error_bound == 0.0
        assert sv.terms_used == n + 1 and sv.converged

    def test_binomial_shift_bound_on_seeded_draws(self):
        # non-integer, complex, near-zero and above-256 integer shifts at
        # order -n, where a float binomial-shift expansion used to report a
        # rounding bound: the value is euler_poly's, the 60-digit sum
        # correctly rounded, with bound 0 and n + 1 terms
        rng = random.Random(20261019)
        for _ in range(200):
            r = rng.choice((rng.uniform(0.05, 0.9), rng.uniform(0.9, 0.995)))
            arg = rng.choice((0.0, math.pi, math.pi / 2, rng.uniform(-math.pi, math.pi)))
            q = cmath.rect(r, arg)
            x = rng.choice((
                rng.uniform(0.01, 6.0),
                complex(rng.uniform(0.0, 3.0), rng.uniform(-2.0, 2.0)),
                10 ** rng.uniform(-6.0, -2.0) * cmath.exp(1j * rng.uniform(-1.5, 1.5)),
                rng.randrange(257, 400),
            ))
            n, h = rng.randrange(25), rng.randrange(3)
            sv = qzeta_hurwitz(-n, x, h, q)
            assert sv.value == euler_poly(n, x, h, q)
            _, ref = _finite_sum_error(sv.value, n, x, h, q)
            assert sv.value == ref, (n, x, h, q)
            assert sv.error_bound == 0.0 and sv.terms_used == n + 1, (n, x, h, q)

    @pytest.mark.parametrize(
        "s,x,h,q",
        [
            (2.5, 0.2, 0, 0.9),
            (0.5, 0.05, 0, 0.9),
            (1.5, 0.1, 0, 0.5),
            (-1.5, 0.2, 1, 0.9),
            (1.5 + 2j, 0.3, 0, 0.5 + 0.5j),
        ],
    )
    def test_slow_shift_tail_within_bound(self, s, x, h, q):
        # with 0 < Re x < 1 the terms shrink by |q^x| > |q| per step; the
        # error against the same k-series summed in 40 digits must stay
        # within the reported bound
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ms, mx, mq = mp.mpc(s), mp.mpc(x), mp.mpc(q)
            qx = mp.power(mq, mx)
            gb, qhk, qxk, total = mp.mpc(1), mp.power(mq, h), mp.mpc(1), mp.mpc(0)
            k = 0
            while True:
                t = gb * qxk / (1 + qhk)
                total += t
                if k > abs(s) + 10 and abs(t) < mp.mpf(10) ** -22 * abs(total):
                    break
                gb, qhk, qxk, k = gb * (ms + k) / (k + 1), qhk * mq, qxk * qx, k + 1
            ref = complex((1 + mq) * mp.power(1 - mq, ms) * total)
        sv = qzeta_hurwitz(s, x, h, QParameter(q))
        assert sv.converged
        assert abs(sv.value - ref) <= sv.error_bound


class TestZetaDerivative:
    def test_matches_finite_difference_samples(self):
        qp = QParameter(0.5)
        h = 1e-5
        for s in (1.25, -3.0):
            d = qzeta_deriv(s, 0, qp).value
            fd = (qzeta(s + h, 0, qp).value - qzeta(s - h, 0, qp).value) / (2 * h)
            assert rel_err(d, fd) <= 1e-6

    def test_small_q_limit(self):
        # the derivative shrinks with q (the value flattens toward -[2]_q/2),
        # making the relative check ill-conditioned; compare with a mixed
        # absolute/relative tolerance
        qp = QParameter(1e-6)
        h = 1e-5
        d = qzeta_deriv(1.25, 0, qp).value
        fd = (qzeta(1.25 + h, 0, qp).value - qzeta(1.25 - h, 0, qp).value) / (2 * h)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_random_strip(self):
        rng = random.Random(90125)
        qp = QParameter(0.5)
        h = 1e-5
        for _ in range(50):
            s = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
            d = qzeta_deriv(s, 0, qp).value
            fd = (qzeta(s + h, 0, qp).value - qzeta(s - h, 0, qp).value) / (2 * h)
            assert rel_err(d, fd) <= 1e-6

    def test_hurwitz_variant(self):
        qp = QParameter(0.5)
        h = 1e-5
        s = 1.5
        d = qzeta_deriv(s, 0, qp, x=2.0).value
        fd = (
            qzeta_hurwitz(s + h, 2.0, 0, qp).value
            - qzeta_hurwitz(s - h, 2.0, 0, qp).value
        ) / (2 * h)
        assert rel_err(d, fd) <= 1e-6

    def test_product_rule_branch_at_terminating_orders(self):
        # beyond the vanishing factor the terms keep contributing: the
        # derivative series must still converge and match finite differences
        qp = QParameter(0.5)
        sv = qzeta_deriv(-3, 0, qp)
        assert sv.converged
        assert sv.terms_used > 4


def _reflection_draws(count: int, seed: int):
    # (s, q): real orders of both signs, integer orders (0 included) as int
    # and as float, complex orders; q over the disk |q| <= 0.9, positive,
    # negative and complex
    rng = random.Random(seed)
    for i in range(count):
        s = (
            rng.uniform(-8.0, 8.0),
            rng.randint(-6, 10),
            float(rng.randint(-6, 10)),
            complex(rng.uniform(-6.0, 6.0), rng.uniform(-3.0, 3.0)),
        )[i % 4]
        r = 0.9 * math.sqrt(rng.random())
        q = (r, -r, cmath.rect(r, rng.uniform(-math.pi, math.pi)))[i % 3]
        yield s, q


def _fields(call, negate=False):
    # What a caller sees of one SeriesValue, its value as the hex of both
    # parts, or the error raised in its place
    try:
        sv = call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    z = -sv.value if negate else sv.value
    return z.real.hex(), z.imag.hex(), sv.error_bound, sv.terms_used, sv.converged


class TestReflection:
    # E_q(s) = zeta_q(-s) and E_q'(s) = -zeta_q'(-s), field for field

    def test_seeded_draws_match_the_reflected_zeta(self):
        returned = 0
        for s, q in _reflection_draws(520, 1729):
            value = _fields(lambda: euler_continuation(s, q))
            assert value == _fields(lambda: qzeta(-s, 0, q)), (s, q)
            deriv = _fields(lambda: euler_continuation_deriv(s, q))
            assert deriv == _fields(lambda: qzeta_deriv(-s, 0, q), negate=True), (s, q)
            returned += len(value) == 5 and len(deriv) == 5
        assert returned >= 500

    @pytest.mark.parametrize("s,q", [(2.5, 0.5), (-1.5, 0.9), (0.75, 0.3 + 0.4j), (complex(1.5, 2.0), -0.6), (20, 0.5)])
    def test_same_refusal_out_of_terms(self, s, q):
        cfg = EngineConfig(max_terms=16)
        for continued, reflected in ((euler_continuation, qzeta), (euler_continuation_deriv, qzeta_deriv)):
            with pytest.raises(NonConvergenceError) as want:
                reflected(-s, 0, q, config=cfg)
            with pytest.raises(NonConvergenceError) as got:
                continued(s, q, cfg)
            assert str(got.value) == str(want.value)


def _reference_kseries_terms(s, h, q, qx, pref, log1mq, n):
    # A frozen copy of the k-series generator: every term computes
    # 1 + q^(h+k) and its quotient inline.
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
                    dprod = complex((-1.0) ** n / (n + 1))
            else:
                yield pref * c * dprod
                dprod = dprod * (k - n) / (k + 1)
        gb = gb * (s + k) / (k + 1)
        qhk = qhk * q
        if qx is not None:
            qxk = qxk * qx
        k += 1


def _reference_plain(s, h, q, deriv, cfg):
    # The plain value or derivative at a non-integer order, summed as before.
    s = complex(s)
    pref = (1.0 + q) * cpow(1.0 - q, s)
    log1mq = cmath.log(1.0 - q) if deriv else None
    terms = _reference_kseries_terms(s, h, q, None, pref, log1mq, None)
    return sum_series_geometric(terms, abs(q), abs(s), cfg)


def _outcome(call):
    # Everything a caller can observe of one series, NonConvergenceError's
    # partial included, with the floats as hex.
    try:
        sv, how = call(), "returned"
    except NonConvergenceError as exc:
        sv, how = exc.partial, "raised"
    return how, sv.value.real.hex(), sv.value.imag.hex(), sv.error_bound.hex(), sv.terms_used, sv.converged


class TestPlainFactorTable:
    """The plain value and derivative, cases of the one k-series generator,
    give the same bits, term counts and failures as the frozen inline copy
    (the name is kept from the factor table those cases once read)."""

    @staticmethod
    def _draw_q(rng):
        r = rng.uniform(0.9, 0.97) if rng.random() < 0.4 else rng.uniform(0.05, 0.9)  # |q| near 1 too
        kind = rng.choice(("negative", "imaginary", "complex"))
        if kind == "negative":
            return complex(-r)
        if kind == "imaginary":
            return complex(0.0, rng.choice((-r, r)))
        return cmath.rect(r, rng.uniform(-math.pi, math.pi))

    @staticmethod
    def _draw_orders(rng, count):
        out = []
        for _ in range(count):
            if rng.random() < 0.3:  # just off an integer order
                out.append(complex(rng.randint(-8, 8) + rng.choice((-1e-7, 1e-7))))
            else:
                out.append(complex(rng.uniform(-12, 12), rng.choice((0.0, rng.uniform(-5, 5)))))
        return out

    def test_matches_inline_factors(self):
        rng = random.Random(20240611)
        starved = EngineConfig(max_terms=16)
        raised = 0
        for _ in range(40):
            h, q = rng.randint(0, 2), self._draw_q(rng)
            for s in self._draw_orders(rng, 4):
                for cfg in (DEFAULT_CONFIG, starved):
                    want = _outcome(lambda: _reference_plain(s, h, q, False, cfg))
                    assert _outcome(lambda: qzeta(s, h, q, cfg)) == want, (s, h, q)
                    want = _outcome(lambda: _reference_plain(s, h, q, True, cfg))
                    assert _outcome(lambda: qzeta_deriv(s, h, q, config=cfg)) == want, (s, h, q)
                    raised += want[0] == "raised"
        assert raised > 100  # the starved budget exercises the partials

    def test_vanishing_factor_raises_only_where_reached(self):
        # 1 + q^(h+k) cannot vanish inside the unit disk; q = -1 makes the
        # factor at k = 1 vanish, so the plain value and the plain derivative
        # each yield their k = 0 term and raise only on reaching k = 1
        for log1mq, first in ((None, -0.5), (math.log(2), -0.5 * math.log(2))):
            terms = zeta._kseries_terms(0.5 + 0j, 0, -1 + 0j, None, 1 + 0j, log1mq, None)
            assert next(terms) == first
            with pytest.raises(ArithmeticError, match="vanished"):
                next(terms)


class TestClassicalZeta:
    def test_alternating_harmonic_value(self):
        sv = classical_zeta_E(1)
        assert abs(sv.value + 2 * math.log(2)) <= 1e-10

    def test_negative_integers_reproduce_numbers(self):
        for n in range(1, 11):
            sv = classical_zeta_E(-n)
            assert abs(sv.value - float(classical_euler_number(n))) <= 1e-12
            assert sv.error_bound == 0.0

    def test_shifted_negative_integers_reproduce_polynomials(self):
        sv = classical_zeta_E(-2, x=0.5)
        assert abs(sv.value - (-0.25)) <= 1e-12
        for n in range(1, 7):
            for x in (0.25, 0.5, 0.75):
                sv = classical_zeta_E(-n, x=x)
                assert abs(sv.value - classical_euler_poly(n, x)) <= 1e-11

    def test_zero_shift_domain(self):
        with pytest.raises(ValueError):
            classical_zeta_E(2, x=0.0)
        # at nonpositive order the n = 0 term vanishes and x = 0 is fine
        assert abs(classical_zeta_E(-2, x=0.0).value - classical_euler_poly(2, 0)) <= 1e-12

    def test_shift_range(self):
        with pytest.raises(ValueError):
            classical_zeta_E(2, x=1.5)

    @pytest.mark.parametrize("s", [math.inf, math.nan, complex(2.5, math.inf)])
    def test_non_finite_order_rejected(self, s):
        with pytest.raises(ValueError, match="the order must be finite"):
            classical_zeta_E(s)

    def test_zero_shift_at_imaginary_order_is_a_pole(self):
        # the n = 0 term is 0^(-s) with Re(-s) = 0
        with pytest.raises(PoleError):
            classical_zeta_E(2j, x=0.0)

    def test_nonpositive_orders_are_classical_euler_poly(self):
        # E_n(x) shifted and -E_n(1) plain, whose zeros at even n are +0.0
        for n in range(41):
            for x in (0.0, 0.25, 0.7, 0.999):
                assert classical_zeta_E(-n, x).value == classical_euler_poly(n, x)
            plain = classical_zeta_E(-n).value
            assert plain == -classical_euler_poly(n, 1)
            zeros = [c for c in (plain.real, plain.imag) if c == 0.0]
            assert all(math.copysign(1.0, c) == 1.0 for c in zeros)
            assert len(zeros) == (2 if n % 2 == 0 and n else 1)

    def test_term_budget_at_nonpositive_integers(self):
        cfg = EngineConfig(max_terms=16)
        assert classical_zeta_E(-15, config=cfg).terms_used == 16
        for x in (None, 0.5):
            with pytest.raises(NonConvergenceError):
                classical_zeta_E(-16, x, config=cfg)

    def test_term_budget_of_the_acceleration(self):
        # off the nonpositive integers the alternating-series acceleration
        # needs 1.31 digits + 14 terms, 29 at the default rel_tol
        with pytest.raises(NonConvergenceError, match=r"^acceleration needs 29 terms, above max_terms=16$"):
            classical_zeta_E(2.5, config=EngineConfig(max_terms=16))

    @pytest.mark.parametrize("s,x", [(1.5 + 2j, 0.25), (0.5, 0.5), (3, 0.1)])
    def test_shifted_off_the_integers_against_mpmath(self, s, x):
        # 2 sum_n (-1)^n (n+x)^(-s) = 2^(1-s) (zeta(s, x/2) - zeta(s, (x+1)/2))
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ms = mp.mpc(s)
            ref = complex(2 * mp.power(2, -ms) * (mp.zeta(ms, mp.mpf(x) / 2) - mp.zeta(ms, (mp.mpf(x) + 1) / 2)))
        sv = classical_zeta_E(s, x)
        assert sv.converged
        assert abs(sv.value - ref) <= sv.error_bound

    @pytest.mark.parametrize("s", [-2.5, -25.3])
    def test_negative_real_part_is_within_its_bound_or_flagged(self, s):
        # the acceleration's sweet-spot branch; at -25.3 the error is about
        # 7 times the bound, so only the flag holds there
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(-2 * mp.altzeta(s))
        sv = classical_zeta_E(s)
        assert not sv.converged or abs(sv.value - ref) <= sv.error_bound

    def test_converged_values_lie_within_their_bound(self):
        # The bound counts the acceleration's rounding, 2^-50 sum_k |c_k a_k|
        # (n + 2 + |s log(k + x)|) / d, where it once counted 2^-48 |value|:
        # these inputs reported converged=True outside their bound,
        # -0.5 by 9.0e-15 against 6.9e-15 and the second by 1605 against
        # 1252.  Then 300 draws from Re s in [-6, 20], |Im s| <= 10.
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261044)
        cases = [
            (-0.5, None),
            (14.384999219387247 - 7.19196579893711j, 0.06348725774566004),
            (16.95012019024624 + 5.92463755283968j, 0.08610717592122882),
            (-0.8154869595286547 + 1.3514969736195415j, 0.43003809373734037),
            (17.59899414473434 - 6.17194533391765j, 0.10288300675879014),
        ]
        cases += [
            (complex(rng.uniform(-6, 20), rng.uniform(-10, 10)), rng.choice((None, rng.uniform(0.05, 0.95))))
            for _ in range(300)
        ]
        for s, x in cases:
            with mp.workdps(40):
                ms = mp.mpc(s)
                if x is None:
                    ref = complex(-2 * mp.altzeta(ms))
                else:
                    mx = mp.mpf(x)
                    ref = complex(2 * mp.power(2, -ms) * (mp.zeta(ms, mx / 2) - mp.zeta(ms, (mx + 1) / 2)))
            sv = classical_zeta_E(s, x)
            assert not sv.converged or abs(sv.value - ref) <= sv.error_bound, (s, x)

    def test_bridge_to_q_side(self):
        # at q = 0.9999 the geometric tail ratio is 0.9999, so honest
        # convergence takes ~1e5 terms; widen the budget accordingly
        cfg = EngineConfig(rel_tol=1e-6, max_terms=500_000)
        qp = QParameter(0.9999)
        for s in (2.0, 3.0, 4.0):
            a = qzeta(s, 0, qp, cfg).value
            b = classical_zeta_E(s).value
            assert abs(a - b) <= 5e-3
