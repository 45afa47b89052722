"""Pinned outputs: the README command-line examples, every subcommand variant
in each of its output formats, the float bits of the k-series evaluators
at seeded non-integer orders, the float bits of the polynomial
continuation at seeded (s, w, q), and the finite and exact sums (exact
Q(q) values by the SHA-256 of their canonical string, classical values
at order -n, Hurwitz values at order -n and integer shifts, plain values
at order -n, q-Euler polynomials at integer, fractional and large shifts,
small orders at dyadic q where a zero's sign or a tie decides the bits,
q-Euler numbers).

Refactors of the k-series driver, the integer test, the continuation, the
exact engine, the finite sums or the CLI must leave every byte of these
unchanged.  A correctness fix that changes one on
purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says which outputs moved, and why, in CHANGES.md.
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import pathlib
import random
import re
import shlex

import pytest

import qeuler
from qeuler.cli import main

HERE = pathlib.Path(__file__).parent
GOLDEN_CLI = HERE / "golden" / "cli.json"
GOLDEN_ZETA = HERE / "golden" / "zeta_hex.json"
GOLDEN_CONTINUATION = HERE / "golden" / "continuation_hex.json"
GOLDEN_FINITE = HERE / "golden" / "finite_hex.json"
README = HERE.parent / "README.md"

# Extra requests beyond the README: every subcommand variant in each of its
# output formats, with negative-valued flags among them, and curve grids
# small enough to keep in full.
_VARIANTS = (
    "numbers --q -0.3-0.2i --n 4",
    "numbers --q 0.5 --n 3 --exact",
    "poly --q 0.5 --n 3 --x 0.7-0.1i --h 1",
    "poly --q -0.3-0.2i --n 3 --x 2 --h 1 --exact",
    "zeta --q -0.3-0.2i --s 2.5",
    "zeta --q 0.5 --s 1.5 --x 1.5",
    "zeta --q -0.3-0.2i --s 0.75 --deriv",
    "zeta --q 0.5 --s 1.25 --x 2 --deriv",
    "zeta --q 0.5 --s -1.5-2i",
    "continue --q -0.3-0.2i --s 2.5",
    "continue --q 0.5 --s 1.75 --deriv",
    "continue --q 0.5 --s 2.5 --w -0.3+0.2i",
)
EXTRA_COMMANDS = tuple(
    f"qeuler {v}{fmt}" for v in _VARIANTS for fmt in ("", " --format json", " --format csv")
) + (
    "qeuler curve --q 0.5 --s-range 2:3:0.25 --w-range -0.5:0.5:0.25 --format json",
    "qeuler curve --q 0.3+0.4i --s-range 0.5:2.5:0.5 --w-range -1:1:0.5",
    "qeuler curve --q -0.3-0.2i --s-range 0.5:1.5:0.5 --w-range -0.5:0.5:0.5 --format csv",
    "qeuler curve --q -0.3-0.2i --s-range 0.5:1.5:0.5 --w-range -0.5:0.5:0.5 --format json",
    "qeuler verify --q -0.3-0.2i --max-n 3 --max-k 2 --exact-only",
)
# Outputs longer than this are pinned by their SHA-256 digest.
MAX_INLINE = 4096


def readme_commands() -> list[str]:
    """The `qeuler ...` lines of README.md, without comments or redirection."""
    out = []
    for line in README.read_text().splitlines():
        if line.startswith("qeuler "):
            out.append(re.sub(r"\s*(#.*|>\s*\S+)$", "", line).strip())
    return out


def run_command(command: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(shlex.split(command)[1:])
    return rc, buf.getvalue()


def pin(rc: int, stdout: str) -> dict:
    if len(stdout) > MAX_INLINE:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return {"rc": rc, "sha256": digest, "lines": stdout.count("\n")}
    return {"rc": rc, "stdout": stdout}


def zeta_inputs() -> list[tuple]:
    """Thirty seeded (s, x, h, q): non-integer complex orders, real x >= 1
    (so |q^x| <= |q|), h <= 2 and q over the disk |q| <= 0.9."""
    rng = random.Random(20080801)
    cases = []
    while len(cases) < 30:
        s = complex(rng.uniform(-8.0, 8.0), rng.choice((0.0, rng.uniform(-3.0, 3.0))))
        if s.imag == 0.0 and s.real == round(s.real):
            continue
        r = rng.uniform(0.05, 0.9)
        q = complex(r, 0.0) if rng.random() < 0.4 else r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        cases.append((s, rng.uniform(1.0, 3.0), rng.randrange(3), q))
    return cases


def _bits(fn) -> list:
    try:
        sv = fn()
    except qeuler.QEulerError as exc:
        return [type(exc).__name__]
    return [sv.value.real.hex(), sv.value.imag.hex(), sv.error_bound.hex(), sv.terms_used, sv.converged]


def zeta_record(s, x, h, q) -> dict:
    return {
        "qzeta": _bits(lambda: qeuler.qzeta(s, h, q)),
        "qzeta_deriv": _bits(lambda: qeuler.qzeta_deriv(s, h, q)),
        "qzeta_deriv_x": _bits(lambda: qeuler.qzeta_deriv(s, h, q, x=x)),
        "qzeta_hurwitz": _bits(lambda: qeuler.qzeta_hurwitz(s, x, h, q)),
    }


def continuation_inputs() -> list[tuple]:
    """Thirty seeded (s, w, q): orders in [0, 6] (integers and integers
    +- 1e-6 among them), real and complex w in [-1, 1] and real and complex
    q over the disk |q| <= 0.9."""
    rng = random.Random(20080802)
    cases = []
    for i in range(30):
        n = rng.randint(1, 5)
        s = (rng.uniform(0.0, 6.0), float(rng.randint(0, 6)), n + 1e-6, n - 1e-6)[i % 4]
        w = complex(rng.uniform(-1.0, 1.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        r = rng.uniform(0.05, 0.9)
        q = r * rng.choice((-1.0, 1.0)) + 0j if rng.random() < 0.4 else r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        cases.append((s, w, q))
    return cases


def _continuation_args(s, w, q) -> list:
    return [s.hex(), w.real.hex(), w.imag.hex(), q.real.hex(), q.imag.hex()]


def continuation_record(s, w, q) -> list:
    try:
        z = qeuler.euler_poly_continuation(s, w, q)
    except qeuler.QEulerError as exc:
        return [type(exc).__name__]
    return [z.real.hex(), z.imag.hex()]


def _sha(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()


def _hex(z: complex) -> list:
    return [z.real.hex(), z.imag.hex()]


FINITE_Q = (0.5, 0.9, -0.7, 0.3 + 0.4j)
EXACT_POLY_ARGS = [(n, x, h) for n in range(9) for x in range(4) for h in range(3)] + [(12, 1, 2), (12, 3, 0)]
CLASSICAL_POLY_ARGS = ((0, 0.3), (1, 0.5), (5, 0.25), (12, 1.5), (17, -2.0), (9, 0.5 + 0.25j), (20, 1 - 1j))
# The terminating sums at order -n: q on both axes, near 1, complex and
# rounded-decimal.  Fractional x carries q^x at the working precision.
TERMINATING_Q = (0.5, 0.9, 0.97, cmath.rect(0.95, 0.02), -0.9, 0.3 + 0.4j, cmath.rect(0.6, 2.2))
TERMINATING_POLY_ARGS = (
    [(n, x) for x in range(4) for n in range(41)]
    + [(n, x) for x in (0.5, 1.37, 2.2) for n in range(25)]
    + [(n, 256) for n in range(13)]
)
# Small orders at dyadic q, where the value can be exact, zero in one
# component (the sign of that zero is pinned) or a binary64 tie, as
# (1 + q)/2 is at q = 0.9.
SMALL_Q = (0.0, 5e-324, 0.5, -0.5, 0.25j, 0.5 + 0.5j, -0.75 - 0.25j, 0.9, 0.3 + 0.4j)


def finite_record() -> dict:
    """Each section maps the arguments, as a string, to the pinned output."""
    return {
        "exact_euler_number": {str(n): _sha(qeuler.exact_euler_number(n)) for n in range(15)},
        "exact_euler_poly": {str(a): _sha(qeuler.exact_euler_poly(*a)) for a in EXACT_POLY_ARGS},
        "classical_zeta_E": {
            str((-n, x)): _bits(lambda: qeuler.classical_zeta_E(-n, x))
            for n in range(41)
            for x in (None, 0.0, 0.25, 0.7, 0.999)
        },
        "classical_euler_poly": {str(a): _hex(qeuler.classical_euler_poly(*a)) for a in CLASSICAL_POLY_ARGS},
        "qzeta_hurwitz": {
            str((-n, x, h, q)): _bits(lambda: qeuler.qzeta_hurwitz(-n, x, h, q))
            for q in FINITE_Q
            for h in range(3)
            for x in (0, 1, 2, 3, 300)
            for n in range(13)
        },
        "euler_number": {str((n, q)): _hex(qeuler.euler_number(n, q)) for q in FINITE_Q for n in range(31)},
        "qzeta_order": {
            str((-n, h, q)): _bits(lambda: qeuler.qzeta(-n, h, q))
            for q in TERMINATING_Q
            for h in range(3)
            for n in range(41)
        },
        "euler_poly": {
            str((n, x, h, q)): _hex(qeuler.euler_poly(n, x, h, q))
            for q in TERMINATING_Q
            for h in range(3)
            for n, x in TERMINATING_POLY_ARGS
        },
        "small_order": {
            str((n, x, h, q)): _hex(qeuler.qzeta(-n, h, q).value if x is None else qeuler.euler_poly(n, x, h, q))
            for q in SMALL_Q
            for h in range(3)
            for x in (None, 0, 1, 2, 3)
            for n in range(4)
        },
    }


def _load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


@pytest.mark.parametrize("command", readme_commands() + list(EXTRA_COMMANDS))
def test_cli_output_unchanged(command):
    golden = _load(GOLDEN_CLI)
    assert command in golden, f"no pinned output for {command!r}"
    assert pin(*run_command(command)) == golden[command]


def test_readme_examples_all_pinned():
    assert len(readme_commands()) == 10
    assert set(readme_commands()) <= set(_load(GOLDEN_CLI))


def test_zeta_bits_unchanged():
    golden = _load(GOLDEN_ZETA)
    cases = zeta_inputs()
    assert len(golden) == len(cases)
    for (s, x, h, q), want in zip(cases, golden):
        assert want["args"] == [s.real.hex(), s.imag.hex(), x.hex(), h, q.real.hex(), q.imag.hex()]
        assert zeta_record(s, x, h, q) == want["out"], (s, x, h, q)


def test_continuation_bits_unchanged():
    golden = _load(GOLDEN_CONTINUATION)
    cases = continuation_inputs()
    assert len(golden) == len(cases)
    for (s, w, q), want in zip(cases, golden):
        assert want["args"] == _continuation_args(s, w, q)
        assert continuation_record(s, w, q) == want["out"], (s, w, q)


def test_finite_and_exact_bits_unchanged():
    golden = _load(GOLDEN_FINITE)
    record = finite_record()
    assert record.keys() == golden.keys()
    for section, values in record.items():
        assert values.keys() == golden[section].keys(), section
        for args, out in values.items():
            assert out == golden[section][args], (section, args)


def write_golden() -> None:
    GOLDEN_CLI.parent.mkdir(exist_ok=True)
    cli = {c: pin(*run_command(c)) for c in readme_commands() + list(EXTRA_COMMANDS)}
    GOLDEN_CLI.write_text(json.dumps(cli, indent=1) + "\n")
    zeta = [
        {
            "args": [s.real.hex(), s.imag.hex(), x.hex(), h, q.real.hex(), q.imag.hex()],
            "out": zeta_record(s, x, h, q),
        }
        for s, x, h, q in zeta_inputs()
    ]
    GOLDEN_ZETA.write_text(json.dumps(zeta, indent=1) + "\n")
    continuation = [
        {"args": _continuation_args(s, w, q), "out": continuation_record(s, w, q)}
        for s, w, q in continuation_inputs()
    ]
    GOLDEN_CONTINUATION.write_text(json.dumps(continuation, indent=1) + "\n")
    GOLDEN_FINITE.write_text(json.dumps(finite_record(), indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
