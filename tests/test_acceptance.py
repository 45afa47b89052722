"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers so the suite
doubles as a report (run with `pytest tests/test_acceptance.py -v -s`).
"""

import json
import math
import random
import time

import pytest

from qeuler import (
    QParameter,
    classical_euler_number,
    euler_continuation,
    euler_continuation_deriv,
    euler_number,
    euler_poly,
    euler_poly_continuation,
    qzeta,
    qzeta_deriv,
    verify_identity,
)
from qeuler.cli import main
from qeuler.zeta import classical_zeta_E

from series_oracle import euler_poly_series_oracle

Q_SET = (0.2, 0.5, 0.9, 0.3 + 0.4j)
W_GRID = [-0.5 + i * 0.05 for i in range(21)]


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_interpolation_suite():
    start = time.perf_counter()
    worst = 0.0
    for qv in Q_SET:
        qp = QParameter(qv)
        for n in range(1, 13):
            worst = max(worst, rel_err(qzeta(-n, 0, qp).value, euler_number(n, qp)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"PASS criterion 1: interpolation n=1..12 over 4 q, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_exact_identity_suite():
    start = time.perf_counter()
    for n in range(9):
        assert verify_identity("poly-vs-recurrence", n)
        for x in range(5):
            assert verify_identity("binomial-expansion", n, x)
        for k in (2, 4, 6):
            assert verify_identity("even-shift", n, k)
            assert verify_identity("even-shift-recombined", n, k)
        for k in (1, 3, 5):
            assert verify_identity("odd-shift", n, k)
            assert verify_identity("odd-shift-recombined", n, k)
    assert not verify_identity("even-shift-wrong-sign", 2, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 2: exact identities n<=8, wrong-sign variant rejected, {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    for qv in (0.3, 0.5, 0.8):
        qp = QParameter(qv)
        for n in range(9):
            for x in (0.0, 0.5, 1.0, 2.0):
                sv = euler_poly_series_oracle(n, x, 0, qp, depth=2)
                worst = max(worst, abs(sv.value - euler_poly(n, x, 0, qp)))
    assert worst <= 1e-8

    # averaged partial sums of the defining alternating sum at order 1
    q = 0.5
    run = 0.0
    partials = []
    for m in range(1, 401):
        run += (1 + q) * (-1) ** m / ((1 - q**m) / (1 - q))
        partials.append(run)
    u = partials
    for _ in range(6):
        u = [(u[i] + u[i + 1]) / 2 for i in range(len(u) - 1)]
    oracle = u[-1]
    got = qzeta(1, 0, QParameter(q)).value
    assert abs(got - oracle) <= 1e-5
    assert abs(got - (-0.948375)) <= 1e-5
    print(f"PASS criterion 3: oracle agreement worst abs {worst:.2e}; order-1 value {got.real:.6f}")


def test_criterion_4_classical_bridge():
    worst_interp = 0.0
    for n in range(1, 11):
        err = abs(classical_zeta_E(-n).value - float(classical_euler_number(n)))
        worst_interp = max(worst_interp, err)
    assert worst_interp <= 1e-12
    ln_err = abs(classical_zeta_E(1).value + 2 * math.log(2))
    assert ln_err <= 1e-10
    worst_bridge = 0.0
    for n in range(7):
        worst_bridge = max(
            worst_bridge, abs(euler_number(n, 0.9999) - float(classical_euler_number(n)))
        )
    assert worst_bridge <= 1e-2
    print(
        "PASS criterion 4: classical values exact to "
        f"{worst_interp:.1e}, log-2 value err {ln_err:.1e}, bridge {worst_bridge:.1e}"
    )


def test_criterion_5_continuation():
    worst = 0.0
    for qv in (0.3, 0.5, 0.8):
        qp = QParameter(qv)
        for n in (2, 3):
            for w in W_GRID:
                worst = max(
                    worst,
                    abs(euler_poly_continuation(n, w, qp) - euler_poly(n, w, 0, qp)),
                )
    assert worst <= 1e-9

    gap = 0.0
    for qv in (0.3, 0.5, 0.8):
        qp = QParameter(qv)
        for w in W_GRID:
            gap = max(
                gap,
                abs(
                    euler_poly_continuation(3 - 1e-6, w, qp)
                    - euler_poly_continuation(3.0, w, qp)
                ),
            )
    assert gap <= 1e-4

    rng = random.Random(8128)
    qp = QParameter(0.5)
    h = 1e-5
    worst_fd = 0.0
    for _ in range(25):
        s = rng.uniform(-4.0, 4.0)
        d = euler_continuation_deriv(s, qp).value
        fd = (euler_continuation(s + h, qp).value - euler_continuation(s - h, qp).value) / (2 * h)
        worst_fd = max(worst_fd, rel_err(d, fd))
    for _ in range(25):
        s = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        d = qzeta_deriv(s, 0, qp).value
        fd = (qzeta(s + h, 0, qp).value - qzeta(s - h, 0, qp).value) / (2 * h)
        worst_fd = max(worst_fd, rel_err(d, fd))
    assert worst_fd <= 1e-6
    print(
        f"PASS criterion 5: integer rows {worst:.2e}, continuity gap {gap:.2e}, "
        f"derivative-vs-FD {worst_fd:.2e}"
    )


def test_criterion_6_deformation_figure_data(capsys):
    start = time.perf_counter()
    code = main(
        [
            "curve",
            "--q", "0.5",
            "--s-range", "2:3:0.01",
            "--w-range", "-0.5:0.5:0.05",
            "--format", "csv",
        ]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 5.0
    lines = out.strip().splitlines()
    assert lines[0] == "s,w,re,im"
    samples = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert len(samples) == 101 * 21

    qp = QParameter(0.5)
    worst = 0.0
    for s, w, re, im in samples:
        if s == 2.0:
            ref = euler_poly(2, w, 0, qp)
        elif s == 3.0:
            ref = euler_poly(3, w, 0, qp)
        else:
            continue
        worst = max(worst, abs(complex(re, im) - ref))
    assert worst <= 1e-9
    with capsys.disabled():
        print(
            f"\nPASS criterion 6: 101x21 grid in {elapsed:.2f}s, "
            f"boundary rows within {worst:.2e}"
        )


def test_criterion_7_documented_discrepancy(capsys):
    val = qzeta(60, 0, QParameter(0.5)).value
    assert abs(val + 1.5) <= 1e-6  # the -(1+q) limit
    assert abs(val + 2.0) > 0.4  # the classically quoted -2 is not attained

    code = main(["verify", "--q", "0.5", "--max-n", "4", "--max-k", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] numeric/large-order-limit" in out
    assert "expected deviation" in out
    with capsys.disabled():
        print(
            f"\nPASS criterion 7: value at order 60 is {val.real:.9f} (-(1+q) limit), "
            "report annotates the deviation"
        )
