"""Scalar kernels shared by every evaluator in the package.

Hosts the immutable-record base, the validated deformation parameter, the
one integer test every module uses, the one check (as_index) of every order,
offset and integer shift, the one conversion (as_complex) of every other
numeric argument, the one complex power (cpow), the q-bracket, and the
truncation contract used by all geometric-tail series.  as_complex refuses a
non-finite argument, and cpow a power beyond the float range, for every
caller.  Nothing here keeps state.
"""

from __future__ import annotations

import cmath
from itertools import islice

from .errors import FloatRangeError, NonConvergenceError, PoleError

__all__ = [
    "QParameter",
    "EngineConfig",
    "SeriesValue",
    "DEFAULT_CONFIG",
    "as_complex",
    "as_index",
    "as_int",
    "as_qparameter",
    "check_order_terms",
    "cpow",
    "q_bracket",
    "sum_series_geometric",
]


def as_int(z) -> int | None:
    """Return z as an int when it is a finite real integer, else None.

    as_index adds the sign limit of an index; callers apply their own size limits.
    """
    if isinstance(z, int):
        return z
    z = complex(z)
    if z.imag == 0.0 and z.real.is_integer():
        return int(z.real)
    return None


def as_index(value, name: str) -> int:
    """value as a nonnegative int, 2.0 as 2, else ValueError naming the argument."""
    i = as_int(value)
    if i is None or i < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return i


def as_complex(value, name: str) -> complex:
    """complex(value); a non-finite value, or one beyond the float range (an
    int too large to convert), raises ValueError naming the argument."""
    try:
        z = complex(value)
    except OverflowError as exc:
        raise ValueError(f"{name} lies beyond the float range") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


_set = object.__setattr__


class Record:
    """Immutable record: a subclass names its fields in ``__slots__`` and sets each once, with
    ``_set``, in its own ``__init__``; ==, hash, repr, matching and pickling follow the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class QParameter(Record):
    """Deformation parameter restricted to the open unit disk.

    |q| < 1 keeps every 1 + q^(h+k) denominator away from zero and makes the
    geometric tails of the series evaluators honest.
    """

    __slots__ = ("q",)

    def __init__(self, q: complex):
        q = as_complex(q, "q")
        if not abs(q) < 1.0:
            raise ValueError(f"deformation parameter needs |q| < 1, got {q!r}")
        _set(self, "q", q)


def as_qparameter(q) -> QParameter:
    """Coerce a bare number into a validated QParameter."""
    return q if isinstance(q, QParameter) else QParameter(q)


class EngineConfig(Record):
    """Numeric policy shared by the series evaluators."""

    __slots__ = ("rel_tol", "max_terms")

    def __init__(self, rel_tol: float = 1e-12, max_terms: int = 10000):
        if not 0.0 < rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        max_terms = as_index(max_terms, "max_terms")
        if max_terms < 16:
            raise ValueError("max_terms must be at least 16")
        _set(self, "rel_tol", rel_tol)
        _set(self, "max_terms", max_terms)


def check_order_terms(n: int, config: EngineConfig) -> None:
    """Refuse a sum at order -n, which has n + 1 terms, above config.max_terms."""
    if n + 1 > config.max_terms:
        raise NonConvergenceError(f"the sum at order {-n} has {n + 1} terms, above max_terms={config.max_terms}")


DEFAULT_CONFIG = EngineConfig()

# Central-difference step of the derivative checks in `qeuler verify`; the
# curve JSON echoes it.
FD_STEP = 1e-5

# Integer shifts 0..EXACT_SHIFT_MAX have exact powers: q_bracket sums its
# finite geometric series by Horner there, and the order -n sums keep their
# exact fallback, the Q(q) engine's E_n(x, h | q) taken at q, whose cost
# follows its degree, about n(n+1)/2 + n(h + x).  Other shifts take cpow in
# q_bracket and q^x at the working precision in the sums, with no fallback.
EXACT_SHIFT_MAX = 256


class SeriesValue(Record):
    """A series result bundled with its truncation diagnostics.

    ``error_bound`` is an absolute bound on the discarded tail (0.0 for sums
    that terminate exactly).  ``converged`` is True when the bound met the
    configured relative tolerance before ``max_terms`` ran out.
    """

    __slots__ = ("value", "error_bound", "terms_used", "converged")

    def __init__(self, value: complex, error_bound: float, terms_used: int, converged: bool):
        _set(self, "value", value)
        _set(self, "error_bound", error_bound)
        _set(self, "terms_used", terms_used)
        _set(self, "converged", converged)


def cpow(base: complex, exponent: complex, log_base: complex | None = None) -> complex:
    """base**exponent on the principal branch of the logarithm.

    Integer exponents up to 4096 in magnitude go to Python's complex ** int,
    with no cmath.log or exp.  That is not exact: CPython 3.11 takes it by
    binary powering, one rounding per product, only up to |k| = 100, and
    beyond that by its polar formula, |base|**k at angle k arg(base), so
    (0.9+0.1j)**101 differs from binary powering in the last places.  A
    zero base demands Re(exponent) > 0 (0**0 = 1 by convention).  log_base,
    when given, must be cmath.log(base) of a nonzero base: a caller raising
    one base to many powers takes the logarithm once, with the same bits.
    A power beyond the float range raises FloatRangeError, caused by the raw
    OverflowError, or by complex ** -k's ZeroDivisionError where base**k is 0.
    """
    base = complex(base)
    exponent = complex(exponent)
    k = as_int(exponent)
    try:
        if k is not None and abs(k) <= 4096:
            if base == 0 and k < 0:
                raise PoleError("0 raised to a negative power")
            return base**k
        if base == 0:
            if exponent.real > 0:
                return 0j
            raise PoleError(f"0 raised to power {exponent!r}")
        return cmath.exp(exponent * (cmath.log(base) if log_base is None else log_base))
    except (OverflowError, ZeroDivisionError) as exc:
        raise FloatRangeError(f"{base!r} ** {exponent!r} lies beyond the float range") from exc


def q_bracket(x, q) -> complex:
    """The q-analog of x: (1 - q**x) / (1 - q).

    For integer x >= 0 this is the geometric sum 1 + q + ... + q^(x-1) and is
    evaluated that way, so the agreement is exact.  Non-integer powers use the
    principal branch.  A non-finite x, or one beyond the float range, raises
    ValueError, and a power q**x or a quotient beyond the float range
    FloatRangeError.
    """
    qq = as_qparameter(q).q
    xi = as_int(x)
    if xi is not None and 0 <= xi <= EXACT_SHIFT_MAX:
        # Horner form of the finite geometric sum.
        acc = 0j
        for _ in range(xi):
            acc = 1.0 + qq * acc
        return acc
    value = (1.0 - cpow(qq, as_complex(x, "x"))) / (1.0 - qq)
    if not cmath.isfinite(value):
        raise FloatRangeError(f"[x]_q at x = {x!r} lies beyond the float range")
    return value


def sum_series_geometric(terms, ratio_mag: float, growth_mag: float, config: EngineConfig) -> SeriesValue:
    """Accumulate the terms t_0, t_1, ... under the shared truncation rule.

    ``terms``, an iterable of complex, is consumed in order, at most max_terms
    of it.  After adding term K the tail is modelled as geometric with ratio
    rho = ratio_mag * (1 + growth_mag / (K+1)); once rho < 1 and |t_K| * rho
    / (1-rho) <= rel_tol * |partial sum|, the sum stops and that bound is
    reported.  A sum that stops on a non-finite total, or that exhausts
    max_terms, raises NonConvergenceError carrying the partial.
    """
    total = 0j
    last = 0j
    used = 0
    for used, last in enumerate(islice(terms, config.max_terms), start=1):
        total += last
        rho = ratio_mag * (1.0 + growth_mag / used)
        if rho < 1.0:
            bound = abs(last) * rho / (1.0 - rho)
            if bound <= config.rel_tol * abs(total):
                if not cmath.isfinite(total):
                    raise NonConvergenceError(
                        f"series total is not finite: {total!r}",
                        partial=SeriesValue(total, bound, used, False),
                    )
                return SeriesValue(total, bound, used, True)
    raise NonConvergenceError(
        f"series did not meet rel_tol={config.rel_tol} within {config.max_terms} terms",
        partial=SeriesValue(total, abs(last), used, False),
    )
