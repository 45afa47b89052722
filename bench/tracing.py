"""Per-layer tracing by rebinding qeuler's names from outside.

A boundary is a function of one qeuler module.  Installing it replaces every
reference to that function object in the loaded qeuler modules (the module
that defines it, every module that imported it, the package namespace) with
a wrapper, so calls are caught whichever module makes them.  A boundary whose
name no longer exists is reported as absent; nothing else changes.

Each wrapper keeps calls, inclusive seconds and self seconds (inclusive minus
the time of directly nested boundaries).  Boundaries called at most a few
thousand times per run also record spans (name, start, end, parent span,
op), kept in memory and written out at the end.  The kernel boundaries and
PolyZ.gcd are called far more often and keep the counters only.  A call that
re-enters its own boundary (log_gamma's reflection) is not counted again.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

__all__ = ["Tracer"]

MAX_SPANS = 200_000

# (metric prefix, module, attribute, keeps spans)
BOUNDARIES = (
    ("cli.main", "qeuler.cli", "main", True),
    ("verification.run_checks", "qeuler.verification", "run_checks", True),
    ("continuation.curve_grid", "qeuler.continuation", "curve_grid", True),
    ("continuation.euler_poly_continuation", "qeuler.continuation", "euler_poly_continuation", False),
    ("kernel.log_gamma", "qeuler.kernel", "log_gamma", False),
    ("kernel.cpow", "qeuler.kernel", "cpow", False),
    ("kernel.q_bracket", "qeuler.kernel", "q_bracket", False),
    ("kernel.sum_series_geometric", "qeuler.kernel", "sum_series_geometric", True),
    ("zeta.qzeta", "qeuler.zeta", "qzeta", True),
    ("zeta.qzeta_deriv", "qeuler.zeta", "qzeta_deriv", True),
    ("zeta.qzeta_hurwitz", "qeuler.zeta", "qzeta_hurwitz", True),
    ("zeta.classical_zeta_E", "qeuler.zeta", "classical_zeta_E", True),
    ("exactcomplex.terminating_alt_sum", "qeuler._exactcomplex", "terminating_alt_sum", True),
    ("numeric.euler_number", "qeuler.numeric", "euler_number", True),
    ("numeric.euler_poly", "qeuler.numeric", "euler_poly", True),
    ("exact.exact_euler_number", "qeuler.exact", "exact_euler_number", False),
    ("exact.exact_euler_poly", "qeuler.exact", "exact_euler_poly", True),
    ("exact.verify_identity", "qeuler.exact", "verify_identity", True),
    ("exact.PolyZ.gcd", "qeuler.exact", "PolyZ.gcd", False),
)
_ZETA = ("zeta.qzeta", "zeta.qzeta_deriv", "zeta.qzeta_hurwitz")
_EXACT_TOP = ("exact.exact_euler_number", "exact.exact_euler_poly", "exact.verify_identity")


class _Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "terms", "nonconverged")

    def __init__(self):
        self.calls = 0
        self.s = self.self_s = 0.0
        self.depth = 0
        self.terms = self.nonconverged = 0


def _is_integer(x) -> bool:
    z = complex(x)
    return z.imag == 0 and z.real.is_integer()


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name, *_ in BOUNDARIES}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = -1
        self._ids = 0
        self._stack: list[list] = []  # [child seconds, span id] per active call
        # Counters measured at the boundaries, for the ratios.
        self.cells = 0
        self.coeff_lookups = 0
        self.coeff_misses = 0
        self.shift_lookups = 0
        self.shift_misses = 0
        self._shift_active = 0  # fractional-x euler_poly calls in progress
        self.exact_top_s = 0.0
        self.max_degree = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "qeuler" or name.startswith("qeuler.")]
        for name, modname, attr, spans in BOUNDARIES:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, spans)
            if path:  # a static method on a class
                setattr(owner, leaf, staticmethod(wrapper))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, original, spans: bool):
        stat = self.stats[name]
        stack = self._stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if stat.depth:
                return original(*args, **kwargs)
            token = before(args, kwargs) if before else None
            parent = stack[-1][1] if stack else None
            if spans:
                self._ids += 1
                frame = [0.0, self._ids]
            else:  # nested spans hang from the nearest recorded ancestor
                frame = [0.0, parent]
            stat.depth += 1
            stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if spans:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((frame[1], parent, self.op, name, t0, t1))
                    else:
                        self.dropped_spans += 1
                if after:
                    after(token, args, kwargs, result, error)

        return wrapper

    # -- hooks: counts measured where the work happens -------------------

    def _after_zeta(self, name, result, error):
        stat = self.stats[name]
        if error is not None:  # NonConvergenceError carries its partial sum
            partial = getattr(error, "partial", None)
            if partial is not None:
                stat.nonconverged += 1
                stat.terms += getattr(partial, "terms_used", 0) or 0
            return
        stat.terms += getattr(result, "terms_used", 0) or 0
        if getattr(result, "converged", True) is False:
            stat.nonconverged += 1

    def _after_zeta_qzeta(self, token, args, kwargs, result, error):
        self._after_zeta("zeta.qzeta", result, error)
        if self.stats["continuation.curve_grid"].depth:
            self.coeff_misses += 1

    def _after_zeta_qzeta_deriv(self, token, args, kwargs, result, error):
        self._after_zeta("zeta.qzeta_deriv", result, error)

    def _after_zeta_qzeta_hurwitz(self, token, args, kwargs, result, error):
        self._after_zeta("zeta.qzeta_hurwitz", result, error)

    def _after_zeta_classical_zeta_E(self, token, args, kwargs, result, error):
        self._after_zeta("zeta.classical_zeta_E", result, error)

    def _after_exactcomplex_terminating_alt_sum(self, token, args, kwargs, result, error):
        n = args[0] if args else kwargs.get("n", 0)
        self.stats["exactcomplex.terminating_alt_sum"].terms += n + 1
        if self._shift_active:
            self.shift_misses += 1

    def _before_numeric_euler_poly(self, args, kwargs):
        n = args[0] if args else kwargs["n"]
        x = args[1] if len(args) > 1 else kwargs["x"]
        frac = not _is_integer(x)
        if frac:  # non-integer shifts read n + 1 cached order coefficients
            self.shift_lookups += n + 1
            self._shift_active += 1
        return frac

    def _after_numeric_euler_poly(self, frac, args, kwargs, result, error):
        if frac:
            self._shift_active -= 1

    def _after_continuation_curve_grid(self, token, args, kwargs, result, error):
        svals = getattr(result, "s_values", ())
        wvals = getattr(result, "w_values", ())
        self.cells += len(svals) * len(wvals)
        # Each sample sums coefficients C(k + frac) for k = -1 .. floor(s),
        # without k = -1 at integer s.
        for s in svals:
            fs = int(s // 1)
            self.coeff_lookups += len(wvals) * (fs + 2 - (s == fs))

    def _exact_result(self, result):
        for part in ("num", "den"):
            degree = getattr(getattr(result, part, None), "degree", None)
            if isinstance(degree, int):
                self.max_degree = max(self.max_degree, degree)

    def _before_exact(self):
        return not any(self.stats[n].depth for n in _EXACT_TOP), perf_counter()

    def _top_done(self, token):
        outermost, t0 = token
        if outermost:
            self.exact_top_s += perf_counter() - t0

    def _before_exact_exact_euler_number(self, args, kwargs):
        return self._before_exact()

    def _before_exact_exact_euler_poly(self, args, kwargs):
        return self._before_exact()

    def _before_exact_verify_identity(self, args, kwargs):
        return self._before_exact()

    def _after_exact_exact_euler_number(self, token, args, kwargs, result, error):
        self._top_done(token)
        self._exact_result(result)

    def _after_exact_exact_euler_poly(self, token, args, kwargs, result, error):
        self._top_done(token)
        self._exact_result(result)

    def _after_exact_verify_identity(self, token, args, kwargs, result, error):
        self._top_done(token)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; boundaries that are absent read 0."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.terms"] = stat.terms
            out[f"{name}.nonconverged"] = stat.nonconverged
        out["continuation.curve_grid.cells"] = self.cells
        out["continuation.coeff_hit_ratio"] = (
            1.0 - self.coeff_misses / self.coeff_lookups if self.coeff_lookups else 0.0
        )
        terms = sum(self.stats[n].terms for n in _ZETA)
        seconds = sum(self.stats[n].s for n in _ZETA)
        out["zeta.ns_per_term"] = 1e9 * seconds / terms if terms else 0.0
        alt = self.stats["exactcomplex.terminating_alt_sum"]
        out["exactcomplex.us_per_term"] = 1e6 * alt.s / alt.terms if alt.terms else 0.0
        out["numeric.shift_hit_ratio"] = (
            1.0 - self.shift_misses / self.shift_lookups if self.shift_lookups else 0.0
        )
        out["exact.gcd_share"] = self.stats["exact.PolyZ.gcd"].s / self.exact_top_s if self.exact_top_s else 0.0
        out["exact.max_degree"] = self.max_degree
        return out
