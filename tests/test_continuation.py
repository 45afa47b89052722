import ast
import cmath
import math
import random
from pathlib import Path

import pytest

from qeuler import (
    EngineConfig,
    QParameter,
    curve_grid,
    euler_continuation,
    euler_continuation_deriv,
    euler_number,
    euler_poly,
    euler_poly_continuation,
    qzeta,
    qzeta_deriv,
)
from qeuler import _exactcomplex, continuation
from qeuler.continuation import MAX_GRID_CELLS, inclusive_range
from qeuler.errors import CurveSampleError, FloatRangeError, QEulerError

W_GRID = [-0.5 + i * 0.05 for i in range(21)]


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestNumberContinuation:
    def test_hits_numbers_at_positive_integers(self):
        for qv in (0.3, 0.5, 0.8, 0.3 + 0.4j):
            qp = QParameter(qv)
            for n in range(1, 11):
                assert rel_err(euler_continuation(n, qp).value, euler_number(n, qp)) <= 1e-12

    def test_order_one_is_constant(self):
        for qv in (0.2, 0.5, 0.9):
            assert euler_continuation(1, QParameter(qv)).value == pytest.approx(-0.5)

    def test_hand_value(self):
        assert euler_continuation(2, QParameter(0.5)).value.real == pytest.approx(-0.2, rel=1e-12)

    def test_negative_orders_are_zeta_values(self):
        qp = QParameter(0.5)
        assert abs(euler_continuation(-1, qp).value - (-0.948375)) <= 1e-5
        for n in range(1, 11):
            assert euler_continuation(-n, qp).value == qzeta(n, 0, qp).value

    def test_derivative_sign_convention(self):
        # definitional: the reflection flips the derivative sign
        qp = QParameter(0.5)
        for s in (0.75, 2.5, -1.5, 3.0):
            assert euler_continuation_deriv(s, qp).value + qzeta_deriv(-s, 0, qp).value == 0

    def test_derivative_matches_finite_differences(self):
        rng = random.Random(5150)
        qp = QParameter(0.5)
        h = 1e-5
        for _ in range(50):
            s = rng.uniform(-4, 4)
            d = euler_continuation_deriv(s, qp).value
            fd = (euler_continuation(s + h, qp).value - euler_continuation(s - h, qp).value) / (2 * h)
            assert rel_err(d, fd) <= 1e-6

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
    def test_non_finite_order_is_named_as_given(self, s):
        for evaluate in (euler_continuation, euler_continuation_deriv):
            with pytest.raises(ValueError) as info:
                evaluate(s, QParameter(0.5))
            assert str(info.value) == f"the order must be finite, got {s!r}"

    def test_derivative_at_odd_integer(self):
        qp = QParameter(0.5)
        h = 1e-5
        d = euler_continuation_deriv(3, qp).value
        fd = (euler_continuation(3 + h, qp).value - euler_continuation(3 - h, qp).value) / (2 * h)
        assert rel_err(d, fd) <= 1e-6


class TestWeights:
    # The weight of the order term k is the generalized binomial binom(s, [s] - k).
    @pytest.mark.parametrize("s", [2.5, 7.3, 19.99, 35.25, 49.5, 80.5, 150.75])
    def test_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        top = math.floor(s) + 1
        weights = continuation._binomials(s, top)
        assert len(weights) == top + 1
        with mp.workdps(40):
            for m, c in enumerate(weights):
                ref = mp.binomial(s, m)
                assert abs(c - ref) <= 2e-15 * abs(ref), (s, m)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 33, 50])
    def test_exact_at_integer_orders(self, n):
        assert continuation._binomials(float(n), n) == [math.comb(n, m) for m in range(n + 1)]

    @pytest.mark.parametrize("s,w,q", [(3.01, -299, 0.5), (1030.5, 0.5, 0.1)])
    def test_beyond_the_float_range_raises(self, s, w, q):
        # a power of [w]_q, or the weights themselves, overflow: no inf or nan
        with pytest.raises(FloatRangeError):
            euler_poly_continuation(s, w, q)


def _mp_zeta_at_minus(a0, count_, q, dps=40):
    """zeta_q(-a) at a = a0, a0 + 1, ..., count_ orders, in mpmath:
    [2]_q (1-q)^(-a) (-1/2 + sum_{N>=1} (-1)^N ((1 - q^N)^a - 1)), the
    defining alternating sum with its Abel value -1/2 split off, so the rest
    converges like |q|^N; summed directly, with no k-series and no
    differences."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        qm = mp.mpc(q.real, q.imag) if isinstance(q, complex) else mp.mpf(q)
        sums = [mp.mpf(-0.5)] * count_
        qn, sign, cut = qm, -1, mp.mpf(10) ** (4 - dps)
        while abs(qn) > cut:
            base = 1 - qn
            power = mp.power(base, a0)
            for i in range(count_):
                sums[i] += sign * (power - 1)
                power *= base
            qn, sign = qn * qm, -sign
        return [complex((1 + qm) * mp.power(1 - qm, -(a0 + i)) * acc) for i, acc in enumerate(sums)]


def _row_coefficients(s, q, cfg=None):
    # (a, C(a)) for every order term of E_q(s, w), the blend taken back out
    sv = float(s)
    fs = math.floor(sv)
    binom = continuation._binomials(sv, fs + 1)
    out = []
    grid = continuation._Grid(QParameter(q), cfg or EngineConfig(), [])
    for arg, weighted, power in continuation._order_terms(sv, grid, continuation._Fraction()):
        coeff = weighted / binom[power]
        if abs(arg) < 1.0:
            coeff -= (1.0 + q) * (1.0 - abs(arg))
        out.append((arg, coeff))
    return out


def _mp_cell(s, w, q):
    # E_q(s, w) in mpmath from _mp_zeta_at_minus's coefficients
    mp = pytest.importorskip("mpmath")
    fs = math.floor(s)
    frac = s - fs
    ks = [k for k in range(-1, fs + 1) if k >= 0 or frac]
    coeffs = _mp_zeta_at_minus(ks[0] + frac, len(ks), q)
    with mp.workdps(40):
        qm = mp.mpc(q.real, q.imag) if isinstance(q, complex) else mp.mpf(q)
        logq = mp.log(qm)
        bw = (1 - mp.exp(w * logq)) / (1 - qm)
        total = 0
        for k, c in zip(ks, coeffs):
            a = k + frac
            c = mp.mpc(c.real, c.imag) + (1 + qm) * max(0.0, 1 - abs(a))
            total += mp.binomial(s, fs - k) * c * mp.exp(a * w * logq) * bw ** (fs - k)
        return complex(total)


class TestNestedSeries:
    # Every coefficient C(k + frac) of a non-integer row is the paper's nested
    # series over one difference table: (1+q) (1-q)^(-(k+frac)) sum_j
    # gb(1 - frac, j) D_(k+1)[j].  The reference sums the defining series.
    @pytest.mark.parametrize("s,w,q", [(20.5, 0.25, 0.9), (12.5, 0.25, 0.9), (8.3, -0.4, 0.95)])
    def test_cells_once_wrong(self, s, w, q):
        # the float k-series left these 16x, 6.7e-4 and 4.8e-5 off
        got, want = euler_poly_continuation(s, w, q), _mp_cell(s, w, q)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("s,q", [(20.5, 0.9), (12.5, 0.9), (8.3, 0.95), (6.25, -0.9)])
    def test_pinned_coefficients(self, s, q):
        rows = _row_coefficients(s, q)
        for (a, got), want in zip(rows, _mp_zeta_at_minus(rows[0][0], len(rows), q)):
            assert abs(got - want) <= 1e-12 * abs(want), (s, q, a)

    def test_coefficients_on_seeded_draws(self):
        rng = random.Random(2121)
        kinds = (
            lambda r: complex(-r, 0.0),
            lambda r: complex(0.0, rng.choice((-r, r))),
            lambda r: cmath.rect(r, rng.uniform(-math.pi, math.pi)),
        )
        for i in range(12):
            n = rng.randint(0, 20)
            s = rng.choice((rng.uniform(0.0, 20.0), n + 1e-9, max(n - 1e-9, 0.5)))
            q = kinds[i % 3](rng.uniform(0.3, 0.95))
            rows = _row_coefficients(s, q)
            for (a, got), want in zip(rows, _mp_zeta_at_minus(rows[0][0], len(rows), q)):
                assert abs(got - want) <= 1e-12 * abs(want), (s, q, a)

    @pytest.mark.parametrize("s,q", [(2.6058016353917162, 0.5), (0.4547026439786303, -0.5)])
    def test_retries_near_a_zero_of_a_coefficient(self, s, q, monkeypatch):
        # S_3 changes sign at this s for q = 0.5, and S_0 for q = -0.5: the
        # first tables miss rel_tol of |S_m| there, so the nested sums double
        # their length, widen W and take four tables.  Nothing else in the
        # suite runs those branches.
        tables, table = [], continuation._Grid.table
        monkeypatch.setattr(continuation._Grid, "table", lambda self, W: tables.append(W) or table(self, W))
        for w in (0.3, -0.7, 1.5):
            tables.clear()
            got, want = euler_poly_continuation(s, w, q), _mp_cell(s, w, q)
            assert len(tables) == 4, tables
            assert abs(got - want) <= 1e-12 * abs(want), (s, q, w)  # 3.0e-15 at most
        grid = curve_grid(s, s, 1, -0.7, 1.5, 1.1, q)
        for w, z in zip(grid.w_values, grid.values[0]):
            point = euler_poly_continuation(s, w, q)
            assert _bits([z.real, z.imag]) == _bits([point.real, point.imag]), w

    def test_table_beyond_max_terms_is_located(self):
        # at |q| = 0.95 a fractional row needs 864 entries of each difference:
        # the integer row s = 1 passes, the row s = 1.5 raises at its indices
        cfg = EngineConfig(max_terms=500)
        with pytest.raises(CurveSampleError, match="max_terms=500") as info:
            curve_grid(1, 2, 0.5, -0.5, 0.5, 0.5, 0.95, cfg)
        assert (info.value.s_index, info.value.w_index) == (1, 0)


def _bits(values):
    # each float's hex, so that -0.0 and 0.0 differ
    return [v.hex() for v in values]


class TestWeightsAndTable:
    # The row weights and the on-demand difference table carry the bits of
    # the plain forms they replace.

    def test_weights_equal_the_plain_running_product(self):
        rng = random.Random(2626)
        for _ in range(40):
            sigma = 1.0 - rng.random()  # in (0, 1]
            n = rng.randint(1, 2000)
            want, w = [1.0], 1.0
            for j in range(n - 1):
                w *= (sigma + j) / (j + 1)
                want.append(w)
            assert _bits(continuation._weights(sigma, n)) == _bits(want), (sigma, n)
            head = rng.randint(1, n)  # carried on from its first entries
            assert _bits(continuation._weights(sigma, n, want[:head])) == _bits(want), (sigma, n, head)

    @pytest.mark.parametrize("q", [0.95 + 0.1j, -0.9, 0.6j])
    def test_table_built_on_demand_equals_the_table_built_whole(self, q):
        top = 6
        length = continuation._first_length(abs(q), EngineConfig())
        W = continuation._first_bits(q, 8, length)
        whole = _exactcomplex.difference_table(q, W)
        whole.grow(top, length)
        # the plain build: one quotient list, exact differences, each entry
        # divided once
        Q, e = _exactcomplex._dyadic(q)
        re, im = _exactcomplex._quotients(length + top - 1, 0, Q, e, 0, W)
        exact = [[a - (1 << W) for a in re], im]
        rng = random.Random(abs(hash(q)) % 1000)
        reads = [(m, rng.randint(1, length)) for m in range(top + 1) for _ in range(3)]
        rng.shuffle(reads)
        grown = _exactcomplex.difference_table(q, W)
        for step, (m, count) in enumerate(reads):
            if step % 4 == 3:
                grown.grow(rng.randint(0, top), rng.randint(1, length))
            got = grown.row(m, count)
            assert len(got[0]) >= count
        for m in range(top + 1):
            want = [None if part is None else [a / (1 << W) for a in part[:length]] for part in exact]
            for got in (whole.row(m, length), grown.row(m, length)):
                assert got[1] is None if im is None else got[1] is not None
                for part, ref in zip(got, want):
                    if ref is not None:
                        assert _bits(part[:length]) == _bits(ref), (q, m)
            exact = [None if part is None else [a - b for a, b in zip(part, part[1:])] for part in exact]

    def test_tall_grid_reading_past_its_first_rows_equals_point_calls(self):
        # near q = 1 a later row's J_m passes the entries the first row read,
        # and the shared table grows to it
        q, (s_min, s_max, s_step) = 0.888154 + 0.341946j, (2.55, 3.55, 0.08)
        grid = continuation._Grid(QParameter(q), EngineConfig(), [])
        svals = inclusive_range(s_min, s_max, s_step)
        continuation._order_terms(svals[0], grid, continuation._Fraction())
        table, _ = grid.held
        first = [len(table.row(m, 1)[0]) for m in range(4)]
        for sv in svals[1:]:
            continuation._order_terms(sv, grid, continuation._Fraction())
        assert any(len(table.row(m, 1)[0]) > n for m, n in enumerate(first))
        g = curve_grid(s_min, s_max, s_step, -0.5, 0.5, 0.5, q)
        for sv, row in zip(g.s_values, g.values):
            for wv, z in zip(g.w_values, row):
                point = euler_poly_continuation(sv, wv, q)
                assert _bits([z.real, z.imag]) == _bits([point.real, point.imag]), (sv, wv)


def _assert_rows_equal_point_calls(grid, q):
    for sv, row in zip(grid.s_values, grid.values):
        for wv, z in zip(grid.w_values, row):
            point = euler_poly_continuation(sv, wv, q)
            assert _bits([z.real, z.imag]) == _bits([point.real, point.imag]), (sv, wv, q)


class TestSharedFractions:
    # Rows whose orders differ by an integer share their nested sums, the
    # factors of their coefficients and their q-power columns; each row
    # keeps the bits of a point call, and a failing row fails at its own
    # indices.

    def test_seeded_grids_across_integers_equal_point_calls(self, monkeypatch):
        rng = random.Random(2929)
        kinds = (
            lambda r: r,
            lambda r: -r,
            lambda r: cmath.rect(r, rng.uniform(-math.pi, math.pi)),
        )
        tries, init = [], continuation._Try.__init__
        monkeypatch.setattr(continuation._Try, "__init__", lambda self, *args: tries.append(1) or init(self, *args))
        rows = fractional = repeats = grid_tries = 0
        for i in range(100):
            step = rng.choice((1.0, 0.5, 0.25, 0.125))
            lo = round(rng.uniform(0.0, 3.0), rng.choice((1, 2, 17)))
            span = rng.choice((2, 3)) if step >= 0.5 else 2
            q = kinds[i % 3](rng.uniform(0.2, 0.95))
            tries.clear()
            grid = curve_grid(lo, lo + span, step, -0.5, 0.7, 1.2, q)
            grid_tries += len(tries)
            rows += len(grid.s_values)
            fracs = [sv - math.floor(sv) for sv in grid.s_values if sv % 1.0]
            fractional += len(fracs)
            repeats += len(fracs) - len(set(fracs))
            _assert_rows_equal_point_calls(grid, q)
        # 846 rows, 828 fractional: each of the 320 whose fraction an earlier
        # row of its grid had read built no try of its own
        assert rows >= 800 and repeats >= 300 and grid_tries == fractional - repeats, (rows, repeats, grid_tries)

    def test_shared_rows_build_fewer_tries_and_columns(self, monkeypatch):
        tries, init = [], continuation._Try.__init__
        monkeypatch.setattr(continuation._Try, "__init__", lambda self, *args: tries.append(1) or init(self, *args))
        powers, q_powers = [], continuation._q_powers
        monkeypatch.setattr(continuation, "_q_powers", lambda cols, a: powers.append(a) or q_powers(cols, a))
        # fractions 0.25 and 0.75, each on three of the rows s = 2.25 to 4.75
        curve_grid(2.25, 4.75, 0.5, -1, 1, 0.5, 0.6j)
        assert len(tries) == 2
        assert sorted(powers) == sorted(k + f for f in (0.25, 0.75) for k in range(-1, 5))

    @pytest.mark.parametrize("q", [0.9, -0.8 + 0.3j])
    def test_grid_crossing_a_precision_band_equals_point_calls(self, q):
        # tops 7 to 11: the rows of each fraction change band at order 8
        grid = curve_grid(6.25, 10.25, 0.5, -0.5, 0.5, 1.0, q)
        assert [math.floor(sv) + 1 for sv in grid.s_values] == [7, 7, 8, 8, 9, 9, 10, 10, 11]
        _assert_rows_equal_point_calls(grid, q)

    def test_rows_whose_first_try_fails_retry_as_point_calls(self, monkeypatch):
        # S_3 is near zero at this fraction, so rows of order 2.6 and 3.6
        # both take four tables, the second reusing the first try of the first
        s, q = 2.605801635391716, 0.5
        assert (s + 1.0) - 3.0 == s - 2.0
        tables, table = [], continuation._Grid.table
        monkeypatch.setattr(continuation._Grid, "table", lambda self, W: tables.append(W) or table(self, W))
        grid = curve_grid(s, s + 1.0, 1.0, -0.7, 1.5, 1.1, q)
        assert len(tables) == 7, tables
        for sv in grid.s_values:
            tables.clear()
            euler_poly_continuation(sv, 0.3, q)
            assert len(tables) == 4, (sv, tables)
        _assert_rows_equal_point_calls(grid, q)

    def test_row_whose_own_acceptance_fails_retries_as_a_point_call(self, monkeypatch):
        # the first try at the first W is made to fail its acceptance test
        # from order 3 on: the row s = 1.25 accepts the try it shares with
        # s = 2.25, which must then retry at W + 64 as its point call does
        q, cfg = 0.5, EngineConfig()
        W0 = continuation._first_bits(q, 8, continuation._first_length(q, cfg))
        short = continuation._Try.short

        def failing(self, top):
            return short(self, top) or (top >= 3 and self.W == W0)

        monkeypatch.setattr(continuation._Try, "short", failing)
        tables, table = [], continuation._Grid.table
        monkeypatch.setattr(continuation._Grid, "table", lambda self, W: tables.append(W) or table(self, W))
        grid = curve_grid(1.25, 2.25, 1.0, -0.5, 0.5, 1.0, q)
        assert tables == [W0, W0 + 64]
        for sv, want in ((1.25, [W0]), (2.25, [W0, W0 + 64])):
            tables.clear()
            euler_poly_continuation(sv, 0.5, q)
            assert tables == want, sv
        _assert_rows_equal_point_calls(grid, q)

    def test_failing_order_is_reported_at_its_own_row(self):
        # each row extends the shared sums to its own order, so the first
        # order above the budget fails at its own row, not at row 0
        cfg = EngineConfig(max_terms=424)
        with pytest.raises(CurveSampleError) as info:
            curve_grid(0.5, 4.5, 0.5, -0.5, 0.5, 0.5, 0.9, cfg)
        assert str(info.value) == (
            "sample failed at s[6]=3.5, w[0]=-0.5: the difference table of order 4 needs 425 terms, above max_terms=424"
        )


class TestPolyContinuation:
    def test_hand_value(self):
        got = euler_poly_continuation(2, 0.5, QParameter(0.5))
        assert abs(got - (-0.2568543)) <= 1e-6

    def test_integer_consistency(self):
        for qv in (0.3, 0.5, 0.8):
            qp = QParameter(qv)
            for n in range(4):
                for w in W_GRID:
                    a = euler_poly_continuation(n, w, qp)
                    b = euler_poly(n, w, 0, qp)
                    assert abs(a - b) <= 1e-9

    def test_reduces_to_number_continuation_at_zero_w(self):
        qp = QParameter(0.5)
        got = euler_poly_continuation(2.5, 0, qp)
        assert rel_err(got, euler_continuation(2.5, qp).value) <= 1e-12

    def test_integer_order_at_zero_w(self):
        for qv in (0.3, 0.5, 0.8):
            qp = QParameter(qv)
            for n in range(4):
                assert rel_err(euler_poly_continuation(n, 0, qp), euler_number(n, qp)) <= 1e-12

    def test_continuity_across_integer_order(self):
        for qv in (0.3, 0.5, 0.8):
            qp = QParameter(qv)
            for w in W_GRID:
                gap = abs(
                    euler_poly_continuation(3 - 1e-6, w, qp)
                    - euler_poly_continuation(3.0, w, qp)
                )
                assert gap <= 1e-4

    def test_continuity_entering_from_above(self):
        qp = QParameter(0.5)
        for w in (-0.5, 0.25, 0.5):
            gap = abs(
                euler_poly_continuation(2 + 1e-6, w, qp)
                - euler_poly_continuation(2.0, w, qp)
            )
            assert gap <= 1e-4

    def test_complex_w(self):
        qp = QParameter(0.5)
        v = euler_poly_continuation(2, 0.3 + 0.2j, qp)
        assert v == pytest.approx(euler_poly(2, 0.3 + 0.2j, 0, qp), rel=1e-9)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, complex(0.5, math.inf), complex(math.nan, 0)])
    @pytest.mark.parametrize("s", [2.5, 2])
    def test_non_finite_w_is_named(self, s, w):
        # used to read as a value beyond the float range
        with pytest.raises(ValueError, match=r"^w must be finite, got "):
            euler_poly_continuation(s, w, QParameter(0.5))

    @pytest.mark.parametrize(
        "evaluate,args",
        [
            (euler_poly_continuation, (2.5, -1.3, 1e-300)),
            (euler_poly_continuation, (3, -1.3, 1e-300)),
            (euler_poly_continuation, (2.5, -1.3, 5e-324j)),
            (curve_grid, (2.5, 2.5, 1, -1.3, -1.3, 1, 1e-300)),
        ],
        ids=["s=2.5", "s=3", "q=5e-324i", "grid"],
    )
    def test_bracket_beyond_the_float_range(self, evaluate, args):
        # [-1.3]_q overflows at these q; each call raised a bare
        # OverflowError("math range error").  The cause is cpow's
        # FloatRangeError, whose chain reaches the raw OverflowError.
        with pytest.raises(QEulerError) as info:
            evaluate(*args)
        err = info.value
        if isinstance(err, CurveSampleError):
            assert (err.s_index, err.w_index) == (0, 0)
            err = err.__cause__
        assert isinstance(err, FloatRangeError)
        assert str(err) == "[w]_q at w = -1.3 lies beyond the float range"
        while type(err) is not OverflowError:
            assert err.__cause__ is not None, "the chain ends before the raw OverflowError"
            err = err.__cause__

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_poly_continuation(-0.5, 0.1, QParameter(0.5))
        with pytest.raises(ValueError):
            euler_poly_continuation(1 + 1j, 0.1, QParameter(0.5))


class TestCurveGrid:
    def test_grid_shape_counting(self):
        g = curve_grid(2, 3, 0.5, -0.5, 0.5, 0.5, QParameter(0.5))
        assert len(g.s_values) == 3
        assert len(g.w_values) == 3
        assert len(g.values) == 3
        assert all(len(row) == 3 for row in g.values)

    def test_inclusive_range_clamps_endpoint(self):
        pts = inclusive_range(2.0, 3.0, 0.01)
        assert len(pts) == 101
        assert pts[0] == 2.0 and pts[-1] == 3.0
        pts = inclusive_range(-0.5, 0.5, 0.05)
        assert len(pts) == 21
        assert pts[-1] == 0.5
        # 3 * 0.1 is 0.30000000000000004, above hi
        pts = inclusive_range(0.0, 0.3, 0.1)
        assert len(pts) == 4
        assert pts[-1] == 0.3

    def test_integer_rows_match_direct_polynomials(self):
        qp = QParameter(0.5)
        g = curve_grid(2, 3, 0.25, -0.5, 0.5, 0.1, qp)
        for j, w in enumerate(g.w_values):
            assert abs(g.values[0][j] - euler_poly(2, w, 0, qp)) <= 1e-9
            assert abs(g.values[-1][j] - euler_poly(3, w, 0, qp)) <= 1e-9

    def test_metadata_echo(self):
        g = curve_grid(2, 3, 0.5, 0, 0.5, 0.5, QParameter(0.5))
        assert g.metadata["rel_tol"] == 1e-12
        assert g.metadata["s_range"] == {"min": 2, "max": 3, "step": 0.5}

    def test_located_sample_error(self):
        # starve the series budget so a non-integer order cannot converge;
        # the failure must carry the grid location
        cfg = EngineConfig(max_terms=16)
        with pytest.raises(CurveSampleError) as info:
            curve_grid(0.5, 0.6, 0.1, 0.0, 0.1, 0.1, QParameter(0.5), cfg)
        assert info.value.s_index == 0
        assert info.value.w_index == 0

    def test_cell_failure_keeps_its_column(self):
        # the row's order terms are fine; q^(s w) overflows only at w = 4000
        with pytest.raises(CurveSampleError) as info:
            curve_grid(0.5, 0.5, 1, 0, 4000, 2000, 0.5)
        assert info.value.s_index == 0
        assert info.value.w_index == 2

    def test_cell_beyond_the_float_range_keeps_its_location(self):
        # row s = 0.01 is finite; at s = 3.01, [-299]_q^4 overflows
        with pytest.raises(CurveSampleError, match="float range") as info:
            curve_grid(0.01, 3.01, 3, -299, 0, 299, 0.5)
        assert (info.value.s_index, info.value.w_index) == (1, 0)
        assert isinstance(info.value.__cause__, FloatRangeError)

    def test_cells_equal_point_values(self):
        # one row's order terms serve every w with the bits of a point call;
        # the tall grid at |q| near 1 reads long runs of the shared factor table
        tall = 0.92 * cmath.exp(0.3j)
        for qv, s_range in ((0.5, (0, 3, 0.25)), (-0.3 - 0.2j, (0, 3, 0.25)), (tall, (1.5, 2.5, 0.04))):
            g = curve_grid(*s_range, -1, 1, 0.25, qv)
            for sv, row in zip(g.s_values, g.values):
                assert list(row) == [euler_poly_continuation(sv, wv, qv) for wv in g.w_values]

    def test_grid_size_checked_before_building(self):
        # 2001 x 500 cells; every row would fail its term budget at once, so
        # only a size check made first raises ValueError.  The unbounded
        # ranges run in a memory-limited process in test_cli.TestBudget.
        with pytest.raises(ValueError, match="samples"):
            curve_grid(20, 2020, 1, 0, 499, 1, 0.5, EngineConfig(max_terms=16))
        assert len(inclusive_range(0, 999_999, 1)) == MAX_GRID_CELLS
        for hi, step in ((1e6, 1), (1, 1e-320)):  # 10^6 + 1 points; a count beyond floats
            with pytest.raises(ValueError, match="points"):
                inclusive_range(0, hi, step)

    def test_validation(self):
        with pytest.raises(ValueError):
            curve_grid(-1, 1, 0.5, 0, 1, 0.5, QParameter(0.5))
        with pytest.raises(ValueError):
            inclusive_range(0, 1, 0)
        with pytest.raises(ValueError):
            inclusive_range(1, 0, 0.5)
        with pytest.raises(ValueError):
            inclusive_range(0, math.inf, 1)
        for s in (math.inf, math.nan):
            with pytest.raises(ValueError):
                euler_poly_continuation(s, 0, QParameter(0.5))


def test_continuation_imports_nothing_from_zeta():
    # zeta can then import the nested series from continuation with no cycle
    names = set()
    for node in ast.walk(ast.parse(Path(continuation.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert not [name for name in names if "zeta" in name.split(".")]


def test_continuation_keeps_no_module_state():
    # everything a call shares lives in its own _Grid and _Fraction objects
    def state():
        return {name: id(value) for name, value in vars(continuation).items()}

    before = state()
    curve_grid(1.5, 3.5, 0.5, -0.5, 0.5, 0.25, 0.6 + 0.2j)
    euler_poly_continuation(2.25, 0.3, 0.5)
    assert state() == before
