"""Self-test of the benchmark's inputs and output check.

    python3 bench/selftest.py            # from the root of a checkout
    python3 -m pytest -q bench/selftest.py

The checker must flag inputs that the roadmap documents as wrong at this
commit, pass known-good ones, and flag a value that is only slightly off on a
well-conditioned input.  The workloads' conditioning filters must reject the
known-bad inputs.  Inputs must repeat at one seed and differ between
seeds.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qeuler  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from inputs import Op  # noqa: E402


def _outcome(op: Op) -> dict:
    """Run one op in this process the way the worker does."""
    try:
        result, error = worker.RUN[op.kind](*op.args), None
    except Exception as exc:  # the checker judges raised ops too
        result, error = None, exc
    return worker.summarise(op, result, error)


def _verdict(op: Op):
    return reference.check_op(op, _outcome(op))


def test_known_bad_inputs_are_flagged():
    # Roadmap item 1: wrong values reported as converged.  Item 2: the float
    # recurrence for the numbers loses accuracy off the positive axis.
    for op in (
        Op("qzeta", (complex(-20.5), 0, 0.9)),
        Op("qzeta", (complex(60), 0, -0.9)),
        Op("euler_number", (40, -0.9)),
    ):
        verdict = _verdict(op)
        assert verdict.failed, op
        assert not verdict.hard, (op, verdict.detail)  # ill-conditioned: a known defect


def test_workloads_leave_out_the_known_bad_inputs():
    # The conditioning filters that draw the workloads' inputs reject them.
    assert inputs.kseries_kappa(complex(-20.5), 0, 0.9) >= inputs.KAPPA_MAX
    assert inputs.kseries_kappa(complex(60), 0, -0.9) >= inputs.KAPPA_MAX
    assert inputs.recurrence_kappa(40, -0.9) >= inputs.KAPPA_MAX
    assert inputs.kseries_kappa(complex(2.5), 0, 0.5) < inputs.KAPPA_MAX
    assert inputs.recurrence_kappa(3, 0.5) < inputs.KAPPA_MAX


def test_known_good_inputs_pass():
    assert abs(reference.ref_euler_number(3, 0.5) - 2 / 15) < 1e-15
    for op in (
        Op("euler_number", (3, 0.5)),
        Op("qzeta", (complex(2.5), 0, 0.5)),
        Op("qzeta_hurwitz", (complex(-3), 2, 1, 0.5)),
        Op("euler_poly", (6, 0.37, 1, 0.3 + 0.4j)),
        Op("classical_zeta_E", (complex(1.5, 2.0), 0.25)),
        Op("exact_euler_number", (6,)),
        Op("exact_euler_poly", (5, 2, 1)),
        Op("verify_identity", ("odd-shift", 5, 3)),
        Op("verify_identity", ("even-shift-wrong-sign", 2, 2)),
    ):
        verdict = _verdict(op)
        assert not verdict.failed, (op, verdict.detail)


def test_slightly_wrong_value_on_a_well_conditioned_input_is_hard():
    op = Op("qzeta", (complex(1.25, 0.5), 1, 0.5))
    out = _outcome(op)
    out["value"][0] *= 1 + 1e-8
    verdict = reference.check_op(op, out)
    assert verdict.failed and verdict.hard


def test_wrong_identity_verdict_is_hard():
    op = Op("verify_identity", ("even-shift-wrong-sign", 4, 2))
    verdict = reference.check_op(op, {"bool": True})
    assert verdict.failed and verdict.hard


def test_unreadable_cli_output_fails_the_run():
    import run

    numbers = next(op for op in inputs.ops("exact", 1) if op.kind == "cli" and op.args[0] == "numbers")
    position = inputs.first_ops("exact", 1, 22).index(numbers)
    n = int(numbers.args[numbers.args.index("--n") + 1])
    garbled = "\n".join(f"E_{m} = (x)/(1)" for m in range(n + 1))
    kept = [{"bool": True}] * position + [{"rc": 0, "stdout": garbled}]
    verdict = run.check("exact", 1, kept)[-1]
    assert verdict.failed and verdict.hard


def test_reference_routes_agree():
    # The regularised alternating sum and the closed form meet at order -n.
    for n, x, h, q in ((5, 2, 1, 0.5), (12, 0, 0, -0.7), (9, 3, 2, 0.3 + 0.6j)):
        direct = reference.ref_qzeta(complex(-n), h, q, x)
        closed = reference.ref_euler_poly(n, x, h, q)
        assert abs(direct - closed) <= 1e-14 * abs(closed)
    r = Fraction(1, 3)
    assert reference.exact_numbers_at(3, r)[3] == reference.exact_poly_at(3, 0, 0, r)


def test_rendered_rational_function_parses():
    value = qeuler.exact_euler_number(4)
    for r in inputs.RATIONAL_POINTS:
        assert reference.parse_ratq_at(str(value), r) == value.eval(r)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in inputs.WORKLOADS:
        first = inputs.first_ops(workload, 7, 60)
        assert first == inputs.first_ops(workload, 7, 60), workload
        assert first != inputs.first_ops(workload, 8, 60), workload


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
