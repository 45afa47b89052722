"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source for BENCHMARK.json (``run.py
--write-manifest`` regenerates it) and for the names ``run.py`` prints.
"""

from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

# name -> one-line reason, as it appears in BENCHMARK.json.  The zeta
# workload (inputs.py) is left out: on a shared host the runs must be long
# to be steady, and the contract's time limit allows that for three.  Its
# layers are measured by curve (zeta, kernel) and interpolate.
WORKLOADS = {
    "curve": "qeuler curve requests through cli.main over wide and tall (s, w) grids: "
    "continuation per-cell work, kernel log_gamma/cpow and CSV formatting",
    "interpolate": "integer-order values (n <= 40) on pooled and fresh q: exact Fraction sums "
    "in _exactcomplex and the per-q numeric caches, read and written",
    "exact": "cold exact_euler_number, exact_euler_poly, verify_identity and --exact CLI requests: "
    "PolyZ/RationalQ arithmetic with no float layer (bypass for numeric work)",
}

# (name, unit, better, bound).  A bound is the share of the parent's median
# by which a metric may worsen before a change counts as a regression.  The
# timing bounds are the largest allowed because the host's own speed varies
# (bench/record.json); the others are at least three times the largest
# quartile spread measured over ten seeds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.15),
]


def _boundary(name: str, *stats: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s", "terms": "count",
             "nonconverged": "count", "cells": "count"}
    return [(f"{name}.{stat}", units[stat]) for stat in stats]


PER_LAYER = (
    _boundary("cli.main", "calls", "s", "self_s")
    + _boundary("verification.run_checks", "calls", "s")
    + _boundary("continuation.curve_grid", "calls", "s", "cells")
    + _boundary("continuation.euler_poly_continuation", "calls", "self_s")
    + [("continuation.coeff_hit_ratio", "ratio")]
    + _boundary("kernel.log_gamma", "calls", "s")
    + _boundary("kernel.cpow", "calls", "s")
    + _boundary("kernel.q_bracket", "calls", "s")
    + _boundary("kernel.sum_series_geometric", "calls", "s")
    + _boundary("zeta.qzeta", "calls", "s", "terms", "nonconverged")
    + _boundary("zeta.qzeta_deriv", "calls", "s", "terms", "nonconverged")
    + _boundary("zeta.qzeta_hurwitz", "calls", "s", "terms", "nonconverged")
    + _boundary("zeta.classical_zeta_E", "calls", "s", "terms", "nonconverged")
    + [("zeta.ns_per_term", "ns")]
    # Metric names may not start with "_", so _exactcomplex reports as exactcomplex.
    + _boundary("exactcomplex.terminating_alt_sum", "calls", "s", "terms")
    + [("exactcomplex.us_per_term", "us")]
    + _boundary("numeric.euler_number", "calls", "s")
    + _boundary("numeric.euler_poly", "calls", "s", "self_s")
    + [("numeric.shift_hit_ratio", "ratio")]
    + [("numeric.retained_kb", "kB"), ("continuation.retained_kb", "kB"), ("exact.retained_kb", "kB")]
    + _boundary("exact.exact_euler_number", "calls", "s")
    + _boundary("exact.exact_euler_poly", "calls", "s")
    + _boundary("exact.verify_identity", "calls", "s")
    + _boundary("exact.PolyZ.gcd", "calls", "s")
    + [("exact.gcd_share", "ratio"), ("exact.max_degree", "count")]
    + [("trace.overhead_frac", "ratio")]
)

HIGHER_IS_BETTER = {
    "continuation.coeff_hit_ratio",
    "numeric.shift_hit_ratio",
    "trace.overhead_frac",
}


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, u in PER_LAYER
        ],
    }
