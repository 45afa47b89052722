import itertools
import math
import random

import pytest

from qeuler import (
    EngineConfig,
    QParameter,
    q_bracket,
)
from qeuler.errors import NonConvergenceError, PoleError
from qeuler.kernel import DEFAULT_CONFIG, as_int, cpow, sum_series_geometric

Q_SET = (0.2, 0.5, 0.9, 0.3 + 0.4j)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestQParameter:
    def test_accepts_unit_disk(self):
        for qv in (0.0, 0.5, -0.7, 0.3 + 0.4j, 0.99):
            assert QParameter(qv).q == complex(qv)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1 + 0j, 2.0, 0.8 + 0.8j, 1j])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError):
            QParameter(bad)


class TestEngineConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.rel_tol == 1e-12
        assert DEFAULT_CONFIG.max_terms == 10000

    @pytest.mark.parametrize(
        "kwargs",
        [{"rel_tol": 0.0}, {"rel_tol": 1.5}, {"max_terms": 8}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


class TestQBracket:
    def test_zero_is_empty_sum(self):
        assert q_bracket(0, QParameter(0.5)) == 0

    def test_one_is_single_term(self):
        for qv in Q_SET:
            assert q_bracket(1, QParameter(qv)) == 1

    def test_hand_value(self):
        # 1 + q + q^2 at q = 1/2
        assert q_bracket(3, QParameter(0.5)) == pytest.approx(1.75, abs=1e-15)

    def test_integer_matches_geometric_sum(self):
        for qv in Q_SET:
            for x in range(12):
                total = sum(complex(qv) ** i for i in range(x))
                assert rel_err(q_bracket(x, QParameter(qv)), total) <= 1e-14 or abs(total) == 0

    def test_shift_recurrence(self):
        # [x+1]_q = 1 + q [x]_q over 200 random complex x per q
        rng = random.Random(1201)
        for qv in Q_SET:
            qp = QParameter(qv)
            for _ in range(200):
                x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                lhs = q_bracket(x + 1, qp)
                rhs = 1 + complex(qv) * q_bracket(x, qp)
                assert rel_err(lhs, rhs) <= 1e-13


class TestAsInt:
    @pytest.mark.parametrize("z,expect", [(3, 3), (-2, -2), (4.0, 4), (-0.0, 0), (5 + 0j, 5), (2**60, 2**60)])
    def test_integers(self, z, expect):
        assert as_int(z) == expect

    @pytest.mark.parametrize("z", [0.5, 1 + 1e-12j, 3j, math.inf, -math.inf, math.nan, complex(math.inf, 0)])
    def test_non_integers(self, z):
        assert as_int(z) is None


class TestCpowZeroBase:
    def test_integer_exponents(self):
        assert cpow(0, 0) == 1
        assert cpow(0, 3) == 0
        with pytest.raises(PoleError):
            cpow(0, -2)

    def test_non_integer_exponents(self):
        assert cpow(0, 2.5) == 0 and cpow(0, 0.5 + 3j) == 0
        for exponent in (-0.5, 1j, -2.5 + 1j):
            with pytest.raises(PoleError):
                cpow(0, exponent)


class TestSeriesEngine:
    def test_geometric_sum(self):
        sv = sum_series_geometric((0.5**k for k in itertools.count()), 0.5, 0.0, DEFAULT_CONFIG)
        assert sv.converged
        assert sv.value == pytest.approx(2.0, rel=1e-12)
        assert sv.error_bound <= DEFAULT_CONFIG.rel_tol * abs(sv.value)

    def test_non_convergence_raises_with_partial(self):
        cfg = EngineConfig(max_terms=32)
        with pytest.raises(NonConvergenceError) as info:
            sum_series_geometric(itertools.repeat(1.0), 0.999999, 0.0, cfg)
        partial = info.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.terms_used == 32

    def test_non_finite_total_raises(self):
        # an infinite total meets bound <= rel_tol * |total| for any finite
        # bound; it must not be reported as converged
        terms = itertools.chain([math.inf], itertools.repeat(1.0))
        with pytest.raises(NonConvergenceError) as info:
            sum_series_geometric(terms, 0.5, 0.0, DEFAULT_CONFIG)
        assert not info.value.partial.converged
