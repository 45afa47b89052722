"""One benchmark child: a fresh, single-threaded interpreter.

    python3 bench/worker.py '<json config>'

Imports qeuler from ./src first thing and notes the clock, so that the
parent can time set-up from spawn to import.  Then, depending on the mode:

* ``setup``  -- exit at once;
* ``fixed``  -- run the first ``count`` ops of the workload's stream,
  untraced, traced (``trace``) or under tracemalloc (``tracemalloc``).

With ``ops_out`` the child writes the ops it draws to that file; with
``ops_in`` it reads them from such a file instead of drawing them again.

The last line on stdout is a JSON object with the timings and a summary of
the outputs of the first ops, for the parent's check.  The worker never
imports mpmath, so the memory it reports is the program's.
"""

from __future__ import annotations

import json
import os
import sys
import time

CONFIG = json.loads(sys.argv[1]) if __name__ == "__main__" else {}
if CONFIG.get("tracemalloc"):
    import tracemalloc

    tracemalloc.start()

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)
import qeuler  # noqa: E402

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import qeuler.cli  # noqa: E402

import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
from inputs import RATIONAL_POINTS  # noqa: E402

# -- tolerant adapters onto the public API -----------------------------------
# Names are looked up on each call, so that a tracer's rebinding applies.


# qzeta_hurwitz takes a ZetaRequest today and is planned to take qzeta-style
# arguments; decided once, before any tracer rebinds the name.
_REQUEST = getattr(qeuler, "ZetaRequest", None)
if len(inspect.signature(qeuler.qzeta_hurwitz).parameters) != 1:
    _REQUEST = None


def _hurwitz(s, x, h, q):
    if _REQUEST is not None:
        return qeuler.qzeta_hurwitz(_REQUEST(s, x, h, q))
    return qeuler.qzeta_hurwitz(s=s, x=x, h=h, q=q)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qeuler.cli.main(list(argv))
    return rc, out.getvalue()


RUN = {
    "qzeta": lambda s, h, q: qeuler.qzeta(s, h, q),
    "qzeta_deriv": lambda s, h, q, x: qeuler.qzeta_deriv(s, h, q, x=x),
    "qzeta_hurwitz": _hurwitz,
    "euler_continuation": lambda s, q: qeuler.euler_continuation(s, q),
    "euler_continuation_deriv": lambda s, q: qeuler.euler_continuation_deriv(s, q),
    "classical_zeta_E": lambda s, x: qeuler.classical_zeta_E(s, x),
    "euler_number": lambda n, q: qeuler.euler_number(n, q),
    "euler_poly": lambda n, x, h, q: qeuler.euler_poly(n, x, h, q),
    "exact_euler_number": lambda n: qeuler.exact_euler_number(n),
    "exact_euler_poly": lambda n, x, h: qeuler.exact_euler_poly(n, x, h),
    "verify_identity": lambda name, n, k: qeuler.verify_identity(name, n, k),
    "cli": _cli,
}

# Module caches a cold op starts without; a name that has gone is skipped.
CACHES = (
    ("qeuler.exact", "_EULER_TABLE"),
    ("qeuler.numeric", "_NUMBER_TABLES"),
    ("qeuler.numeric", "_SHIFT_COEFF_TABLES"),
    ("qeuler.continuation", "_order_coefficient"),
)


def empty_caches() -> None:
    for modname, attr in CACHES:
        cache = getattr(sys.modules.get(modname), attr, None)
        clear = getattr(cache, "cache_clear", None) or getattr(cache, "clear", None)
        if clear is not None:
            clear()


def _refused(exc: Exception) -> bool:
    return isinstance(exc, getattr(qeuler, "QEulerError", ()))


def quick_failure(op, result, error) -> bool:
    """The checks that need no reference: raised, not converged, exit code."""
    if error is not None:
        return True
    if op.kind == "cli":
        return result[0] != 0
    return getattr(result, "converged", True) is False


def summarise(op, result, error) -> dict:
    """What the parent's checker needs of one output, as JSON."""
    if error is not None:
        return {"error": f"{type(error).__name__}: {error}", "refused": _refused(error)}
    if op.kind == "cli":
        rc, text = result
        out = {"rc": rc}
        if op.note[0] == "curve" and rc == 0:
            rows = list(csv.reader(io.StringIO(text)))
            body = rows[1:] if rows and rows[0] == ["s", "w", "re", "im"] else None
            out["rows"] = len(body) if body is not None else -1
            _, _, _, cols, row, cells = op.note
            if body is not None and len(body) == op.note[2] * cols:
                out["cells"] = [[float(v) for v in body[row * cols + j]] for j in cells]
        else:
            out["stdout"] = text
        return out
    if isinstance(result, bool):
        return {"bool": result}
    if hasattr(result, "eval") and hasattr(result, "num"):  # an element of Q(q)
        return {"at": [str(Fraction(result.eval(r))) for r in RATIONAL_POINTS]}
    value = complex(getattr(result, "value", result))
    return {"value": [value.real, value.imag], "converged": getattr(result, "converged", None)}


# -- the loop -----------------------------------------------------------------


def drawn_batches(stream, save=None):
    """Batches of 64 ops from the stream, each also pickled to ``save``."""
    while True:
        batch = [next(stream) for _ in range(64)]
        if save is not None:
            pickle.dump(batch, save)
        yield batch


def saved_batches(fh):
    while True:
        yield pickle.load(fh)


def run_ops(batches, keep: int, stop, tracer=None):
    """Run ops until stop(count, busy seconds) is true.  Returns latencies,
    summaries of the first ``keep`` ops and the count of quick failures
    among the rest."""
    latencies: list[float] = []
    kept: list[dict] = []
    quick_failed = 0
    busy = 0.0
    batch: list = []
    while not stop(len(latencies), busy):
        if not batch:  # inputs are drawn between timed intervals
            batch = next(batches)[::-1]
        op = batch.pop()
        fn = RUN[op.kind]
        if "cold" in op.note:
            empty_caches()
        if tracer is not None:
            tracer.op = len(latencies)
        result = error = None
        t0 = perf_counter()
        try:
            result = fn(*op.args)
        except Exception as exc:  # a failing op is recorded, not fatal
            error = exc
        dt = perf_counter() - t0
        busy += dt
        latencies.append(dt)
        if len(kept) < keep:
            kept.append(summarise(op, result, error))
        elif quick_failure(op, result, error):
            quick_failed += 1
        del result, error
    return latencies, kept, quick_failed, busy


def retained_kb() -> dict[str, float]:
    """Memory still held after the run, by qeuler source file."""
    gc.collect()
    stats = tracemalloc.take_snapshot().statistics("filename")
    out = {"numeric": 0.0, "continuation": 0.0, "exact": 0.0}
    pkg = os.path.dirname(os.path.abspath(qeuler.__file__))
    for stat in stats:
        path = stat.traceback[0].filename
        name = os.path.splitext(os.path.basename(path))[0]
        if os.path.dirname(os.path.abspath(path)) == pkg and name in out:
            out[name] += stat.size / 1024.0
    return out


def main() -> int:
    here = os.path.abspath(qeuler.__file__)
    if not here.startswith(SRC + os.sep):
        print(f"qeuler was imported from {here}, not from {SRC}", file=sys.stderr)
        return 2
    report = {"t_imported": T_IMPORTED}
    mode = CONFIG["mode"]
    if mode == "setup":
        print(json.dumps(report))
        return 0
    workload, seed = CONFIG["workload"], CONFIG["seed"]
    if CONFIG.get("ops_in"):
        ops_file = open(CONFIG["ops_in"], "rb")
        batches = saved_batches(ops_file)
    else:
        ops_file = open(CONFIG["ops_out"], "wb") if CONFIG.get("ops_out") else None
        batches = drawn_batches(inputs.ops(workload, seed), ops_file)
    tracer = None
    if CONFIG.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    count = CONFIG["count"]
    stop = lambda done, busy: done >= count  # noqa: E731
    keep = 0 if CONFIG.get("tracemalloc") else CONFIG["keep"]
    latencies, kept, quick_failed, busy = run_ops(batches, keep, stop, tracer)
    if ops_file is not None:
        ops_file.close()
    report.update(
        latencies=latencies,
        kept=kept,
        quick_failed=quick_failed,
        busy_s=busy,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["absent"] = tracer.absent
        spans_path = CONFIG.get("spans_path")
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump({"dropped": tracer.dropped_spans, "spans": tracer.spans}, fh)
    if CONFIG.get("tracemalloc"):
        report["retained_kb"] = retained_kb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
