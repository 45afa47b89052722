import copy
import itertools
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import qeuler
from qeuler import (
    CheckResult,
    CurveGrid,
    EngineConfig,
    QParameter,
    SeriesValue,
    q_bracket,
    qzeta,
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

    def test_max_terms_is_read_as_an_index(self):
        # 20.5 used to be accepted, and qzeta then failed inside islice
        with pytest.raises(ValueError, match=r"^max_terms must be a nonnegative integer, got 20.5$"):
            EngineConfig(max_terms=20.5)
        cfg = EngineConfig(max_terms=1e9)
        assert cfg.max_terms == 10**9 and type(cfg.max_terms) is int
        assert qzeta(2.5, 0, 0.5, cfg) == qzeta(2.5, 0, 0.5, EngineConfig(max_terms=10**9))
        with pytest.raises(ValueError, match=r"^max_terms must be at least 16$"):
            EngineConfig(max_terms=15.0)


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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(0.5, math.inf), complex(math.nan, 0)])
    def test_non_finite_x_is_refused(self, x):
        # used to return nan+nanj
        with pytest.raises(ValueError, match=r"^x must be finite, got "):
            q_bracket(x, QParameter(0.5))

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


# An int beyond the float range, as each public entry meets it: (name, args).
BIG = 10**400
BEYOND_THE_FLOAT_RANGE = [
    ("classical_euler_poly", (3, BIG)),
    ("classical_zeta_E", (-3, BIG)),
    ("classical_zeta_E", (BIG,)),
    ("euler_poly_continuation", (2.5, BIG, 0.5)),
    ("euler_continuation", (BIG, 0.5)),
    ("qzeta", (BIG, 0, 0.5)),
    ("qzeta", (2.5, 0, BIG)),
    ("qzeta_hurwitz", (2.5, BIG, 0, 0.5)),
    ("curve_grid", (0, 1, 0.5, 0, BIG, BIG, 0.5)),
    ("euler_number", (3, BIG)),
    ("euler_poly", (3, BIG, 0, 0.5)),
    ("euler_poly_series_oracle", (3, BIG, 0, 0.5)),
    ("q_bracket", (BIG, 0.5)),
]


class TestAsComplex:
    @pytest.mark.parametrize(
        "name,args", BEYOND_THE_FLOAT_RANGE, ids=[f"{name}-{i}" for i, (name, _) in enumerate(BEYOND_THE_FLOAT_RANGE)]
    )
    def test_int_beyond_the_float_range_is_a_value_error(self, name, args):
        # each raised a bare OverflowError from complex() or math.isfinite
        with pytest.raises(ValueError, match="lies beyond the float range") as info:
            getattr(qeuler, name)(*args)
        assert isinstance(info.value.__cause__, OverflowError)


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


# (record, positional fields, its repr): each repr is the text the frozen
# dataclasses these records replaced printed.
GRID_Q = QParameter(0.5)
RECORDS = [
    (QParameter, (0.5 + 0j,), "QParameter(q=(0.5+0j))"),
    (EngineConfig, (1e-09, 64), "EngineConfig(rel_tol=1e-09, max_terms=64)"),
    (
        SeriesValue,
        (complex(-0.0, 2.5), 1e-15, 17, False),
        "SeriesValue(value=(-0+2.5j), error_bound=1e-15, terms_used=17, converged=False)",
    ),
    (
        CurveGrid,
        (GRID_Q, (0.0, 0.5), (-1.0,), ((1j,), (2 + 0j,)), {"rel_tol": 1e-12}),
        "CurveGrid(q=QParameter(q=(0.5+0j)), s_values=(0.0, 0.5), w_values=(-1.0,), "
        "values=((1j,), ((2+0j),)), metadata={'rel_tol': 1e-12})",
    ),
    (
        CheckResult,
        ("numeric/x", False, "worst 1e-3", "a note"),
        "CheckResult(name='numeric/x', passed=False, detail='worst 1e-3', note='a note')",
    ),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]
# a valid value of each record's last field other than the one above
OTHER_LAST = {QParameter: 0.25, EngineConfig: 65, SeriesValue: True, CurveGrid: {}, CheckResult: None}


@pytest.mark.parametrize("cls,args,text", RECORDS, ids=RECORD_IDS)
class TestRecords:
    def test_positional_and_keyword_construction(self, cls, args, text):
        rec = cls(*args)
        assert tuple(getattr(rec, name) for name in cls.__match_args__) == args
        assert cls(**dict(zip(cls.__match_args__, args))) == rec

    def test_repr(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_equality_and_hash(self, cls, args, text):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert a != args and a != text
        if cls is CurveGrid:
            with pytest.raises(TypeError):  # its metadata is a dict
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert cls(*args[:-1], OTHER_LAST[cls]) != a

    def test_fields_cannot_change(self, cls, args, text):
        rec = cls(*args)
        for name in cls.__match_args__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.other = 0
        assert cls(*args) == rec

    def test_pickle_and_deepcopy(self, cls, args, text):
        rec = cls(*args)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
            assert type(twin) is cls and twin == rec and repr(twin) == text

    def test_positional_match(self, cls, args, text):
        assert len(cls.__match_args__) == len(args)
        match cls(*args):
            case QParameter(q):
                assert q == args[0]
            case EngineConfig(tol, terms):
                assert (tol, terms) == args
            case SeriesValue(v, bound, used, ok):
                assert (v, bound, used, ok) == args
            case CurveGrid(q, s, w, values, meta):
                assert (q, s, w, values, meta) == args
            case CheckResult(name, passed, detail, note):
                assert (name, passed, detail, note) == args
            case _:
                pytest.fail("no positional pattern matched")


class TestRecordDefaults:
    def test_defaults(self):
        assert EngineConfig() == EngineConfig(1e-12, 10000)
        assert CheckResult("a", True, "d").note is None
        assert repr(CheckResult("a", True, "d")) == "CheckResult(name='a', passed=True, detail='d', note=None)"

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: QParameter(1.0), "deformation parameter needs |q| < 1, got (1+0j)"),
            (lambda: QParameter(0.8 + 0.8j), "deformation parameter needs |q| < 1, got (0.8+0.8j)"),
            (lambda: EngineConfig(rel_tol=0.0), "rel_tol must lie in (0, 1)"),
            (lambda: EngineConfig(max_terms=8), "max_terms must be at least 16"),
            (lambda: CurveGrid(GRID_Q, (0.0,), (0.0,), (), {}), "grid row count does not match s sampling"),
            (lambda: CurveGrid(GRID_Q, (0.0,), (0.0,), ((),), {}), "grid column count does not match w sampling"),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


SUBMODULES = ("_exactcomplex", "continuation", "errors", "exact", "kernel", "numeric", "verification", "zeta")
# stdlib modules that importing qeuler must not load: dataclasses brings
# inspect, ast and dis; fractions brings decimal
HEAVY = ("dataclasses", "fractions", "decimal", "inspect", "typing")


def test_import_loads_no_heavy_stdlib_module():
    # -S: without site, nothing but qeuler's own imports loads these
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, qeuler; "
        f"print(all('qeuler.' + m in sys.modules for m in {SUBMODULES!r})); "
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["True", "[]"]
