"""q-deformed Euler numbers and polynomials, their alternating zeta
functions, real-order continuation, and an exact rational-function engine.

Quick start::

    from qeuler import QParameter, euler_number, qzeta, exact_euler_number

    q = QParameter(0.5)
    euler_number(3, q)            # 0.13333... (= 2/15 at q = 1/2)
    qzeta(-3, 0, q).value         # the same number, through the zeta side
    print(exact_euler_number(2))  # (-1 + q)/(2 + 2*q^2)
"""

from .continuation import CurveGrid, curve_grid, euler_poly_continuation
from .errors import CurveSampleError, FloatRangeError, NonConvergenceError, PoleError, QEulerError
from .exact import (
    IDENTITY_NAMES,
    PolyZ,
    RationalQ,
    exact_euler_number,
    exact_euler_poly,
    verify_identity,
)
from .kernel import (
    DEFAULT_CONFIG,
    EngineConfig,
    QParameter,
    SeriesValue,
    as_qparameter,
    q_bracket,
)
from .numeric import (
    classical_euler_number,
    classical_euler_poly,
    euler_number,
    euler_numbers,
    euler_poly,
)
from .verification import CheckResult, run_checks
from .zeta import classical_zeta_E, euler_continuation, euler_continuation_deriv, qzeta, qzeta_deriv, qzeta_hurwitz

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CurveGrid",
    "CurveSampleError",
    "DEFAULT_CONFIG",
    "EngineConfig",
    "FloatRangeError",
    "IDENTITY_NAMES",
    "NonConvergenceError",
    "PoleError",
    "PolyZ",
    "QEulerError",
    "QParameter",
    "RationalQ",
    "SeriesValue",
    "as_qparameter",
    "classical_euler_number",
    "classical_euler_poly",
    "classical_zeta_E",
    "curve_grid",
    "euler_continuation",
    "euler_continuation_deriv",
    "euler_number",
    "euler_numbers",
    "euler_poly",
    "euler_poly_continuation",
    "exact_euler_number",
    "exact_euler_poly",
    "q_bracket",
    "qzeta",
    "qzeta_deriv",
    "qzeta_hurwitz",
    "run_checks",
    "verify_identity",
]
