import cmath
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
from qeuler.errors import CurveSampleError, FloatRangeError, NonConvergenceError, PoleError, QEulerError
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
    ("qzeta_deriv", (2.5, 0, 0.5, BIG)),
    ("q_bracket", (BIG, 0.5)),
]


# A non-finite argument, as each public entry meets it: (name, args, the
# argument's name, the value as given).
INF, NAN = math.inf, math.nan
NON_FINITE = [
    ("QParameter", (NAN,), "q", NAN),
    ("euler_numbers", (3, INF), "q", INF),
    ("q_bracket", (INF, 0.5), "x", INF),
    ("q_bracket", (complex(0.5, INF), 0.5), "x", complex(0.5, INF)),
    ("qzeta", (INF, 0, 0.5), "the order", INF),
    ("qzeta_deriv", (complex(1, NAN), 0, 0.5), "the order", complex(1, NAN)),
    ("qzeta_hurwitz", (2.5, -INF, 0, 0.5), "x", -INF),
    ("qzeta_hurwitz", (-3, NAN, 0, 0.5), "the shift", NAN),
    ("euler_poly", (3, INF, 0, 0.5), "the shift", INF),
    ("euler_continuation", (-INF, 0.5), "the order", -INF),
    ("euler_continuation_deriv", (NAN, 0.5), "the order", NAN),
    ("euler_poly_continuation", (INF, 0.5, 0.5), "the order", INF),
    ("euler_poly_continuation", (2.5, INF, 0.5), "w", INF),
    ("curve_grid", (0, INF, 1, 0, 1, 1, 0.5), "a range bound or step", INF),
    ("classical_euler_poly", (3, -INF), "x", -INF),
    ("classical_zeta_E", (INF,), "the order", INF),
]


class TestAsComplex:
    @pytest.mark.parametrize(
        "name,args,what,value", NON_FINITE, ids=[f"{name}-{i}" for i, (name, *_) in enumerate(NON_FINITE)]
    )
    def test_non_finite_argument_is_named_as_given(self, name, args, what, value):
        with pytest.raises(ValueError) as info:
            getattr(qeuler, name)(*args)
        assert str(info.value) == f"{what} must be finite, got {value!r}"

    @pytest.mark.parametrize(
        "name,args", BEYOND_THE_FLOAT_RANGE, ids=[f"{name}-{i}" for i, (name, _) in enumerate(BEYOND_THE_FLOAT_RANGE)]
    )
    def test_int_beyond_the_float_range_is_a_value_error(self, name, args):
        # each raised a bare OverflowError from complex() or math.isfinite
        with pytest.raises(ValueError, match="lies beyond the float range") as info:
            getattr(qeuler, name)(*args)
        assert isinstance(info.value.__cause__, OverflowError)


# A power beyond the float range, each of which raised a bare OverflowError
# or ZeroDivisionError: (name, args).
POWER_BEYOND_THE_FLOAT_RANGE = [
    ("q_bracket", (-3, 1e-200)),  # ZeroDivisionError: 1e-200**3 is 0
    ("qzeta", (1200, 0, -0.9)),
    ("classical_zeta_E", (-300.5,)),
    ("euler_continuation", (1200.5, 0.5)),
]


class TestFloatRange:
    @pytest.mark.parametrize("name,args", POWER_BEYOND_THE_FLOAT_RANGE, ids=[n for n, _ in POWER_BEYOND_THE_FLOAT_RANGE])
    def test_power_beyond_the_float_range(self, name, args):
        with pytest.raises(FloatRangeError) as info:
            getattr(qeuler, name)(*args)
        assert isinstance(info.value.__cause__, (OverflowError, ZeroDivisionError))
        assert not isinstance(info.value.__cause__, QEulerError)

    def test_cpow_keeps_the_raw_error_as_its_cause(self):
        for base, exponent, raw in ((1e-200, -3, ZeroDivisionError), (1.9, 1200, OverflowError), (0.5, -1200.5, OverflowError)):
            with pytest.raises(FloatRangeError, match="lies beyond the float range") as info:
                cpow(base, exponent)
            assert type(info.value.__cause__) is raw
            assert isinstance(info.value, OverflowError)  # still caught as one

    def test_grid_cell_with_a_bracket_beyond_the_float_range(self):
        # [-3]_q at q = 1e-200 divides by 1e-200**3 = 0
        with pytest.raises(CurveSampleError) as info:
            qeuler.curve_grid(2.5, 2.5, 1, -3, -3, 1, 1e-200)
        assert type(info.value.__cause__) is FloatRangeError

    def test_bracket_quotient_beyond_the_float_range(self):
        # q^x = 2^1023.5 is finite and (1 - q^x) / (1 - q) is not: q_bracket
        # returned -inf, and a point call named a power of q
        with pytest.raises(FloatRangeError, match=r"^\[x\]_q at x = -1023.5 lies beyond the float range$"):
            qeuler.q_bracket(-1023.5, 0.5)
        with pytest.raises(FloatRangeError, match=r"^\[w\]_q at w = -1023.5 lies beyond the float range$"):
            qeuler.euler_poly_continuation(2.5, -1023.5, 0.5)
        assert math.isfinite(abs(qeuler.q_bracket(-1022.5, 0.5)))

    def test_point_with_a_power_of_q_beyond_the_float_range(self):
        # q^(a w) = exp(a w log q) overflows, with [w]_q finite
        with pytest.raises(FloatRangeError, match=r"^a power of q at w = 3 lies beyond the float range$") as info:
            qeuler.euler_poly_continuation(2.5, 3, 1e-300j)
        assert type(info.value.__cause__) is OverflowError


CFG = EngineConfig(max_terms=2000)
NON_FINITE_VALUES = (INF, -INF, NAN, complex(1.0, INF), complex(NAN, 0.0))


def _draw_q(rng):
    # 0, |q| down to 1e-320, or |q| up to 0.99; positive, negative or complex
    r = rng.random()
    if r < 0.05:
        return 0.0
    mag = 10 ** rng.uniform(-320, -1) if r < 0.35 else rng.uniform(0.0, 0.99)
    kind = rng.random()
    return mag if kind < 0.4 else -mag if kind < 0.6 else cmath.rect(mag, rng.uniform(-math.pi, math.pi))


def _draw_order(rng):
    # small integers, small and larger reals, and orders up to 1e4 in size
    r = rng.random()
    if r < 0.3:
        return rng.randint(-12, 12)
    if r < 0.65:
        s = rng.uniform(-12, 12)
    elif r < 0.85:
        s = rng.choice((-1, 1)) * rng.uniform(12, 80)
    else:
        s = rng.choice((-1, 1)) * 10 ** rng.uniform(2.5, 4)
    return complex(s, rng.uniform(-5, 5)) if rng.random() < 0.2 else s


def _draw_index(rng):
    # a sum's order n: mostly small, some beyond max_terms
    r = rng.random()
    return rng.randint(0, 12) if r < 0.8 else rng.randint(13, 60) if r < 0.95 else rng.randint(2000, 10000)


def _draw_shift(rng):
    # a shift or w: non-finite, a small integer, negative, or large
    r = rng.random()
    if r < 0.1:
        return rng.choice(NON_FINITE_VALUES)
    if r < 0.3:
        return rng.randint(-5, 8)
    x = rng.uniform(-5, 5) if r < 0.7 else rng.choice((-1, 1)) * 10 ** rng.uniform(1, 4)
    return complex(x, rng.uniform(-3, 3)) if rng.random() < 0.2 else x


def _draw_real_order(rng):
    return abs(complex(_draw_order(rng)).real)


def _draw_grid(r):
    s, w = _draw_real_order(r), complex(_draw_shift(r)).real
    return qeuler.curve_grid(s, s + 1.0, 0.5, w, w, 1.0, _draw_q(r), CFG)


DRAWS = {
    "qzeta": lambda r: qeuler.qzeta(_draw_order(r), r.randint(0, 3), _draw_q(r), CFG),
    "qzeta_hurwitz": lambda r: qeuler.qzeta_hurwitz(_draw_order(r), _draw_shift(r), r.randint(0, 3), _draw_q(r), CFG),
    "qzeta_deriv": lambda r: qeuler.qzeta_deriv(
        _draw_order(r), r.randint(0, 3), _draw_q(r), _draw_shift(r) if r.random() < 0.5 else None, CFG
    ),
    "euler_continuation": lambda r: qeuler.euler_continuation(_draw_order(r), _draw_q(r), CFG),
    "euler_continuation_deriv": lambda r: qeuler.euler_continuation_deriv(_draw_order(r), _draw_q(r), CFG),
    "euler_poly": lambda r: qeuler.euler_poly(_draw_index(r), _draw_shift(r), r.randint(0, 3), _draw_q(r), CFG),
    "euler_numbers": lambda r: qeuler.euler_numbers(_draw_index(r), _draw_q(r), CFG),
    "euler_poly_continuation": lambda r: qeuler.euler_poly_continuation(_draw_real_order(r), _draw_shift(r), _draw_q(r), CFG),
    "curve_grid": _draw_grid,
    "q_bracket": lambda r: q_bracket(_draw_shift(r), _draw_q(r)),
    # no term budget: n above 300 only costs time
    "classical_euler_poly": lambda r: qeuler.classical_euler_poly(min(_draw_index(r), 300), _draw_shift(r)),
    "classical_zeta_E": lambda r: qeuler.classical_zeta_E(_draw_order(r), r.choice((None, r.uniform(0, 1))), CFG),
}


def test_every_entry_returns_or_raises_a_library_error():
    # 2,000 seeded draws over the public evaluators: each call returns, or
    # raises ValueError (a bad or non-finite argument) or a QEulerError.  A
    # bare OverflowError or ZeroDivisionError escaped from about 3% of them.
    rng = random.Random(2828)
    names = sorted(DRAWS)
    escaped = []
    for i in range(2000):
        name = rng.choice(names)
        try:
            DRAWS[name](rng)
        except (QEulerError, ValueError):
            pass
        except Exception as exc:  # what the contract rules out
            escaped.append((i, name, repr(exc)))
    assert not escaped, escaped[:10]


def test_exact_values_at_a_float_q_return_or_raise_a_library_error():
    # 400 seeded draws of E_n(q).eval, n <= 40, at q over the disk: 0, tiny,
    # |q| up to 0.99 or within 1e-6 of 1; positive, negative or complex,
    # as a float or a complex.  Each returns a finite value or raises
    # ValueError or a QEulerError.  A value beyond the float range raised a
    # bare OverflowError.
    rng = random.Random(3939)
    numbers = [qeuler.exact_euler_number(n) for n in range(41)]
    escaped = []
    for i in range(400):
        n = rng.randint(0, 40)
        r, kind = rng.random(), rng.random()
        if r < 0.05:
            mag = 0.0 if r < 0.02 else 10 ** rng.uniform(-320, -1)
        else:
            mag = rng.uniform(0, 0.99) if r < 0.6 else 1 - 10 ** rng.uniform(-6, -1)
        if kind < 0.6:
            q = mag if kind < 0.3 else -mag if kind < 0.5 else complex(mag)
        else:
            q = cmath.rect(mag, rng.uniform(-math.pi, math.pi))
        try:
            value = numbers[n].eval(q)
        except (QEulerError, ValueError):
            continue
        except Exception as exc:  # what the contract rules out
            escaped.append((i, n, q, repr(exc)))
            continue
        if not cmath.isfinite(value):
            escaped.append((i, n, q, value))
    assert not escaped, escaped[:10]


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


def test_no_module_keeps_state(capsys):
    # No module of the package keeps state between calls: across one call of
    # each public entry, every global keeps its identity, and every global
    # dict, list or set its contents.  cli.build_parser builds its parser
    # once per process by design, so a CLI call warms it up first.
    import qeuler.cli

    modules = [qeuler, qeuler.cli] + [sys.modules["qeuler." + name] for name in SUBMODULES]

    def state():
        return {
            (module.__name__, name): (id(value), value.copy() if isinstance(value, (dict, list, set)) else None)
            for module in modules
            for name, value in vars(module).items()
            if name not in ("__builtins__", "__warningregistry__")
        }

    assert qeuler.cli.main(["numbers", "--q", "0.5", "--n", "1"]) == 0
    before = state()
    qeuler.euler_numbers(8, 0.5)
    qeuler.euler_poly(6, 0.5, 1, 0.6 + 0.2j)
    qeuler.qzeta(2.5, 0, 0.5)
    qeuler.qzeta(-4, 0, 0.3 + 0.4j)
    qeuler.exact_euler_number(6)
    qeuler.verify_identity("odd-shift", 4, 3)
    qeuler.curve_grid(1.5, 3.5, 0.5, -0.5, 0.5, 0.25, 0.6 + 0.2j)
    qeuler.euler_poly_continuation(2.25, 0.3, 0.5)
    assert qeuler.cli.main(["numbers", "--q", "0.5", "--n", "4", "--exact"]) == 0
    assert qeuler.cli.main(["verify", "--q", "0.5", "--exact-only", "--max-n", "3", "--max-k", "3"]) == 0
    capsys.readouterr()
    assert state() == before
