import ast
import cmath
import math
import random
import re
from fractions import Fraction
from itertools import repeat
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
from qeuler.errors import CurveSampleError, FloatRangeError, NonConvergenceError, QEulerError

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

    @pytest.mark.parametrize(
        "s,q,steps",
        [(2.6058016353917162, 0.5, ["wider"]), (0.4547026439786303, -0.5, ["wider"])],
        ids=["2.605801635391716-0.5", "0.4547026439786303--0.5"],
    )
    def test_retries_near_a_zero_of_a_coefficient(self, s, q, steps, monkeypatch):
        # S_3 changes sign at this s for q = 0.5, and S_0 for q = -0.5: the
        # first tables miss rel_tol of |S_m| there, so the nested sums widen
        # W by 64 bits; at q = -0.5 J_0 also reads past L, in the same table.
        tables, table = [], continuation._Grid.table
        monkeypatch.setattr(continuation._Grid, "table", lambda self, W: tables.append(W) or table(self, W))
        for w in (0.3, -0.7, 1.5):
            tables.clear()
            got, want = euler_poly_continuation(s, w, q), _mp_cell(s, w, q)
            assert ["wider" if b - a == 64 else "longer" for a, b in zip(tables, tables[1:])] == steps, tables
            assert abs(got - want) <= 1e-12 * abs(want), (s, q, w)  # 9.6e-14 at most
        grid = curve_grid(s, s, 1, -0.7, 1.5, 1.1, q)
        for w, z in zip(grid.w_values, grid.values[0]):
            point = euler_poly_continuation(s, w, q)
            assert _bits([z.real, z.imag]) == _bits([point.real, point.imag]), w

    def test_table_beyond_max_terms_is_located(self):
        # at |q| = 0.95 the row s = 1.5 reads up to 363 entries of each
        # difference: within 200 terms a tail line asks for 285,
        # so the integer row s = 1 passes and s = 1.5 raises at its indices
        cfg = EngineConfig(max_terms=200)
        with pytest.raises(CurveSampleError, match="needs 287 terms, above max_terms=200") as info:
            curve_grid(1, 2, 0.5, -0.5, 0.5, 0.5, 0.95, cfg)
        assert (info.value.s_index, info.value.w_index) == (1, 0)

    def test_max_terms_counts_the_entries_read(self):
        # the sums of this grid read at most 363 entries, far below the
        # a-priori L = 864: a budget of 500 gives the default budget's bits
        grid = curve_grid(1, 2, 0.5, -0.5, 0.5, 0.5, 0.95, EngineConfig(max_terms=500))
        want = curve_grid(1, 2, 0.5, -0.5, 0.5, 0.5, 0.95)
        assert [_bits([z.real, z.imag]) for row in grid.values for z in row] == [
            _bits([z.real, z.imag]) for row in want.values for z in row
        ]

    def test_near_q_one_reads_what_its_tail_line_asks(self):
        # at q = 0.999 L is 44,244 but the sums read about 21,600 entries:
        # within 25,000 terms the value is found, and at 10,000 the count
        # refused is the one the tail line asked for, past the capped guess
        got = euler_poly_continuation(2.5, 0.3, 0.999, EngineConfig(max_terms=25000))
        want = _mp_cell(2.5, 0.3, 0.999)
        assert abs(got - want) <= 1e-12 * abs(want)
        with pytest.raises(NonConvergenceError, match="above max_terms=10000") as info:
            euler_poly_continuation(2.5, 0.3, 0.999, EngineConfig(max_terms=10000))
        assert int(re.search(r"order 3 needs (\d+) terms", str(info.value))[1]) > 10004

    @pytest.mark.parametrize("s,w,q", [(2.5, 0.3, 0.9), (3.7, -0.5, 0.95 + 0.1j), (1.3, 0.2, -0.8)])
    def test_sums_past_their_length_read_on_in_one_table(self, s, w, q, monkeypatch):
        # with L = 40 every J_m passes L: the sums read on in the first
        # table, which grows to them (two to four tables before, one of them
        # refused after four tries)
        monkeypatch.setattr(continuation, "_first_length", lambda r, cfg: 40)
        tables, table = [], continuation._Grid.table
        monkeypatch.setattr(continuation._Grid, "table", lambda self, W: tables.append(W) or table(self, W))
        got, want = euler_poly_continuation(s, w, q), _mp_cell(s, w, q)
        assert len(tables) == 1, tables
        assert abs(got - want) <= 1e-12 * abs(want)  # 2.0e-13 at most


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
        whole = _exactcomplex.DifferenceTable(q, W)
        whole.grow(top, length)
        # the plain build: one quotient list at shift 2, 2^W q^(2j) / (1 +
        # q^j), read as 0 past the end where it stops, exact differences,
        # each entry divided once
        Q, e = _exactcomplex._dyadic(q)
        exact = [
            None if part is None else part + [0] * (length + top - len(part))
            for part in _exactcomplex._quotients(length + top - 1, 0, Q, e, 2, W)
        ]
        im = exact[1]
        rng = random.Random(abs(hash(q)) % 1000)
        reads = [(m, rng.randint(1, length)) for m in range(top + 1) for _ in range(3)]
        rng.shuffle(reads)
        grown = _exactcomplex.DifferenceTable(q, W)
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
        table = grid.held
        first = [len(table.row(m, 1)[0]) for m in range(4)]
        for sv in svals[1:]:
            continuation._order_terms(sv, grid, continuation._Fraction())
        assert any(len(table.row(m, 1)[0]) > n for m, n in enumerate(first))
        g = curve_grid(s_min, s_max, s_step, -0.5, 0.5, 0.5, q)
        for sv, row in zip(g.s_values, g.values):
            for wv, z in zip(g.w_values, row):
                point = euler_poly_continuation(sv, wv, q)
                assert _bits([z.real, z.imag]) == _bits([point.real, point.imag]), (sv, wv)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _floored_rows(q, count, top, P):
    # 2^P R_m[j] for m <= top and j < count - m: the exact c'_j = q^(2j) /
    # (1 + q^j) at the binary64 q = Q / 2^e, a Gaussian integer over an
    # integer, floored once per component to P bits, then differenced
    # exactly, so within 2^m units of 2^P R_m[j]
    Q, e = _exactcomplex._dyadic(q)
    row, p = [], (1, 0)  # p = Q^j
    for j in range(count):
        b = ((1 << e * j) + p[0], p[1])  # 2^(e j) (1 + q^j)
        den = (b[0] ** 2 + b[1] ** 2) << e * j
        row.append([(x << P) // den for x in _cmul(_cmul(p, p), (b[0], -b[1]))])
        p = _cmul(p, Q)
    rows = [row]
    for _ in range(top):
        rows.append([[x - y for x, y in zip(a, b)] for a, b in zip(rows[-1], rows[-1][1:])])
    return rows


def _assert_table_within_its_bound(q, W, count, top):
    # every entry R_m[j], j + m < count, read from the table as it grows,
    # lies within difference_error(q, count) 2^m units of 2^-W of the exact
    # one: checked on integers against the exact values floored at P bits
    P = W + 64
    table = _exactcomplex.DifferenceTable(complex(q), W)
    for m in range(top + 1):
        table.row(m, count - m)
    err = Fraction(_exactcomplex.difference_error(complex(q), count))
    for m, exact in enumerate(_floored_rows(complex(q), count, top, P)):
        got = [part or [0] * count for part in table._ints[m]]
        for j, want in enumerate(exact):
            for part, value in zip(got, want):
                assert abs((part[j] << P - W) - value) <= err * 2 ** (m + P - W) - 2**m, (q, m, j)


class TestKummerTable:
    # The table holds R_m[j] = D_m[j] + (1-q)^m q^j, the differences of
    # q^(2j) / (1 + q^j); the nested sums take the N = 1 mode (1-q)^m q^j
    # in closed form and sum the rest, which falls like |q|^(2j).

    @pytest.mark.parametrize("q", [5e-324j, 1e-200, 2.0**-30])
    def test_stopped_quotient_lists_read_as_zeros(self, q):
        # q~^(2k) truncates to 0 within a few terms and the list stops; every
        # later quotient reads as an exact 0.  Reading past that end raised
        # IndexError.
        W = continuation._first_bits(q, 8, continuation._first_length(abs(q), EngineConfig()))
        Q, e = _exactcomplex._dyadic(q)
        assert len(_exactcomplex._quotients(40, 0, Q, e, 2, W)[0]) < 10
        _assert_table_within_its_bound(q, W, 40, 4)

    @pytest.mark.parametrize("q", [0.5, 0.95 + 0.1j, -0.9, 0.6j, 0.97, 0.3 + 0.4j])
    def test_difference_error_bounds_every_entry(self, q):
        # the carried q~^(2k) and q~^k and the floors: j < 200, m <= 8
        W = continuation._first_bits(q, 8, continuation._first_length(abs(q), EngineConfig()))
        _assert_table_within_its_bound(q, W, 208, 8)

    @pytest.mark.parametrize("q", [0.5, 0.95 + 0.1j, -0.9, 0.6j, 0.97, 0.3 + 0.4j])
    def test_tail_line_bounds_the_transformed_tail(self, q):
        # _log_tail from N = 2 bounds sum_{j >= L} |R_m[j]|, read far past L,
        # and falls below the N = 1 mode's own tail, so J_m halves
        r = abs(q)
        start = max(1, continuation._first_length(r, EngineConfig()) // 4)
        far = 2 * start + math.ceil(80.0 / -math.log(r * r))
        W = continuation._first_bits(q, 8, far) + 64
        table = _exactcomplex.DifferenceTable(q, W)
        slack = far * _exactcomplex.difference_error(q, far + 8) * 2.0 ** (8 - W)
        for m in range(9):
            re, im = table.row(m, far)
            for L in (start, 2 * start):
                read = math.fsum(abs(complex(a, b)) for a, b in zip(re[L:far], im[L:far] if im else repeat(0.0)))
                line = continuation._log_tail(q, m, L)
                assert read - slack <= math.exp(line), (q, m, L)
                mode = m * math.log(abs(1.0 - q)) + L * math.log(r) - math.log1p(-r)
                assert line < mode, (q, m, L)

    def test_sums_equal_the_untransformed_series_and_the_reference(self):
        # at seeded (q, m, sigma) over the disk, S_m from R_m less its closed
        # form, and sum_j gb(sigma, j) D_m[j] over the plain factors' exact
        # differences read to where |q|^j is below 2^-120, agree to rel_tol,
        # and both give zeta_q(-(m - sigma)) within 1e-12 of mpmath
        rng = random.Random(3434)
        cfg = EngineConfig()
        for _ in range(10):
            q = cmath.rect(rng.uniform(0.2, 0.9), rng.uniform(-math.pi, math.pi))
            m, frac = rng.randint(0, 10), rng.uniform(0.01, 0.99)
            sigma = 1.0 - frac
            grid = continuation._Grid(QParameter(q), cfg, [])
            new = continuation._nested_sums(grid, m, frac, continuation._Fraction())[m]
            count = math.ceil(120 / -math.log2(abs(q)))
            W = continuation._first_bits(q, m, count) + 64
            Q, e = _exactcomplex._dyadic(q)
            re, im = _exactcomplex._quotients(count + m - 1, 0, Q, e, 0, W)
            rows = [[a - (1 << W) for a in re], im]
            for _ in range(m):
                rows = [[a - b for a, b in zip(part, part[1:])] for part in rows]
            w = continuation._weights(sigma, count)
            old = complex(*(math.fsum(g * x / 2.0**W for g, x in zip(w, part)) for part in rows))
            assert abs(new - old) <= cfg.rel_tol * abs(old), (q, m, frac)
            (want,) = _mp_zeta_at_minus(m - sigma, 1, q)
            factor = (1.0 + q) * continuation.cpow(1.0 - q, -(m - sigma))
            for got in (new, old):
                assert abs(factor * got - want) <= 1e-12 * abs(want), (q, m, frac)


def _assert_rows_equal_point_calls(grid, q, cfg=None):
    for sv, row in zip(grid.s_values, grid.values):
        for wv, z in zip(grid.w_values, row):
            point = euler_poly_continuation(sv, wv, q, cfg)
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

    def _retry_shared_rows(self, s, q, grid_tables, point_tables, monkeypatch):
        assert (s + 1.0) - math.floor(s + 1.0) == s - math.floor(s)
        tables, table = [], continuation._Grid.table
        monkeypatch.setattr(continuation._Grid, "table", lambda self, W: tables.append(W) or table(self, W))
        grid = curve_grid(s, s + 1.0, 1.0, -0.7, 1.5, 1.1, q)
        assert len(tables) == grid_tables, tables
        for sv in grid.s_values:
            tables.clear()
            euler_poly_continuation(sv, 0.3, q)
            assert len(tables) == point_tables, (sv, tables)
        _assert_rows_equal_point_calls(grid, q)

    def test_rows_whose_first_try_fails_retry_as_point_calls(self, monkeypatch):
        # S_3 is near zero at this fraction, so rows of order 2.6 and 3.6
        # both retry at a wider W, two tables each, the second reusing the
        # first try of the first
        self._retry_shared_rows(2.605801635391716, 0.5, 3, 2, monkeypatch)

    def test_rows_whose_first_try_reads_past_its_length_retry_as_point_calls(self, monkeypatch):
        # S_0 is near zero at this fraction for q = -0.5, so rows of order
        # 0.45 and 1.45 read J_0 past L and retry at a wider W, two tables
        # each, the second reusing the first try of the first
        self._retry_shared_rows(0.45470264397863036, -0.5, 3, 2, monkeypatch)

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

    @pytest.mark.parametrize("q,budget", [(0.9, 165), (0.95, 340), (-0.9, 140), (0.85 + 0.2j, 128)])
    def test_rows_under_a_budget_equal_point_calls(self, q, budget):
        # below the default budget's reads a guess at J_m is capped at
        # max_terms - top, so a later row with a higher top caps it lower:
        # it takes the shared first try only where the orders read so far
        # stay within its own cap, and otherwise reads them as its point
        # call does (sharing regardless left these grids off their point
        # calls' bits)
        cfg = EngineConfig(max_terms=budget)
        _assert_rows_equal_point_calls(curve_grid(0.5, 4.5, 1.0, -0.5, 0.5, 0.5, q, cfg), q, cfg)

    def test_failing_order_is_reported_at_its_own_row(self):
        # each row extends the shared sums to its own order, so the first
        # order above the budget fails at its own row, not at row 0: J_4
        # reads 171 entries at the default budget, and within 154 terms its
        # tail line asks for 158, where J_0..J_3 pass within their caps
        cfg = EngineConfig(max_terms=154)
        with pytest.raises(CurveSampleError) as info:
            curve_grid(0.5, 4.5, 0.5, -0.5, 0.5, 0.5, 0.9, cfg)
        assert str(info.value) == (
            "sample failed at s[6]=3.5, w[0]=-0.5: the difference table of order 4 needs 162 terms, above max_terms=154"
        )
        with pytest.raises(NonConvergenceError, match=str(info.value.__cause__)):
            euler_poly_continuation(3.5, -0.5, 0.9, cfg)


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
