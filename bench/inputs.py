"""Seeded inputs for the four workloads.

Each workload is an endless stream of rounds.  A round has a fixed
composition (which operation, which band of order, which kind of q) and the
seed draws the values inside each band, so every seed loads the layers in
the same proportions while the inputs themselves differ.  The same
(workload, seed) always yields the same stream.

Every op of a workload is one the library answers correctly at the seed
commit: float sums are drawn again until their cancellation factor is below
KAPPA_MAX (see ``kseries_kappa`` and ``recurrence_kappa``), and the bands
of order and q stay where the classical acceleration converges and the
continuation's coefficients are well conditioned.  The ill-conditioned
inputs the roadmap documents as wrong are checked in bench/selftest.py.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

WORKLOADS = ("curve", "zeta", "interpolate", "exact")

# Ops at the head of each run whose outputs get the full reference check.
CHECK_OPS = {"curve": 10**9, "zeta": 720, "interpolate": 10**9, "exact": 10**9}
# Fixed op count of a traced run, so that counts repeat exactly at one seed.
TRACE_OPS = {"curve": 14, "zeta": 2400, "interpolate": 80, "exact": 44}
# The percentile reported as op_tail_ms: a high one that leaves at least
# ten ops of BLOCK_OPS beyond it, and that falls inside a round's most
# expensive group of ops rather than at its edge.
TAIL_PERCENTILE = {"curve": 80.0, "zeta": 99.0, "interpolate": 95.0, "exact": 85.0}
# Ops per round.
ROUND_OPS = {"curve": 7, "zeta": 12, "interpolate": 10, "exact": 22}
# Ops in the block a timed run repeats: whole rounds, one and a half to two
# seconds of op time at the seed commit, so that a 30-second run repeats it
# fifteen times or more and each op's fastest repetition is a steady figure.
BLOCK_OPS = {w: ROUND_OPS[w] * rounds
             for w, rounds in (("curve", 10), ("zeta", 900), ("interpolate", 20), ("exact", 4))}

Q_MAX = 0.97  # the documented disk, |q| <= 0.97
# Largest cancellation factor of a float sum in a workload.  binary64 sums
# lose about log10(kappa) of their 16 digits; the output check allows 1e-10.
KAPPA_MAX = 1e3
# Exact results are compared by their values at these rational q.
RATIONAL_POINTS = (Fraction(1, 3), Fraction(-2, 5), Fraction(5, 7))


class Op(NamedTuple):
    """One request: a kind (the public function or "cli"), its arguments and
    what the checker needs to know beyond them."""

    kind: str
    args: tuple
    note: tuple = ()


# Kinds of q: (least |q|, greatest |q|, least |arg q|, greatest |arg q|).
# Together they cover the disk; each is narrow enough that the cost of an op
# on it varies little from one draw to the next.
Q_KINDS = {
    "small": (0.05, 0.4, 0.0, math.pi),
    "disk": (0.05, Q_MAX, 0.0, math.pi),
    "positive": (0.3, 0.9, 0.0, 0.0),
    "negative": (0.3, 0.9, math.pi, math.pi),
    "imag": (0.3, 0.9, math.pi / 2, math.pi / 2),
    "complex": (0.3, 0.9, 0.3, math.pi - 0.3),
    "near1": (0.9, Q_MAX, 0.0, 0.05),
    "tilted": (0.9, Q_MAX, 0.2, 0.4),
}


def _q(rng: random.Random, kind: str, ring: tuple[float, float] | None = None) -> complex:
    """A q of the given kind; ``ring`` narrows its |q| band."""
    lo, hi, arg_lo, arg_hi = Q_KINDS[kind]
    lo, hi = ring or (lo, hi)
    r = math.sqrt(rng.uniform(lo * lo, hi * hi))  # area-uniform in the ring
    sign = rng.choice((-1, 1))
    if arg_lo == arg_hi:  # on an axis: exactly there, not off by a rounding
        return {0.0: complex(r, 0.0), math.pi: complex(-r, 0.0), math.pi / 2: complex(0.0, sign * r)}[arg_lo]
    return cmath.rect(r, sign * rng.uniform(arg_lo, arg_hi))


def _order(rng: random.Random, re_lo: float, re_hi: float, im: float) -> complex:
    """A complex order with |Im| <= im whose real part is never an integer."""
    while True:
        s = complex(rng.uniform(re_lo, re_hi), rng.uniform(-im, im))
        if abs(s.real - round(s.real)) > 1e-3:
            return s


def _shift(rng: random.Random, hi: float, lo: float = 0.05) -> float:
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) > 1e-3:
            return x


def kseries_kappa(s: complex, h: int, q: complex, x: float | None = None, deriv: bool = False) -> float:
    """Cancellation factor sum|t_k| / |sum t_k| of the k-series qeuler sums in
    binary64 for qzeta (x None), qzeta_hurwitz (x given) and their order
    derivatives, at a non-integer order s."""
    log1mq = cmath.log(1 - q)
    qx = cmath.exp(x * cmath.log(q)) if x is not None else None
    gb, harm, qhk, qxk = 1 + 0j, 0j, q**h, 1 + 0j
    total, absum = 0j, 0.0
    for k in range(100000):
        t = gb * (qxk if qx is not None else -qhk) / (1 + qhk)
        if deriv:
            t *= log1mq + harm
        total += t
        absum += abs(t)
        if k > abs(s) + 2 and abs(t) <= 1e-9 * absum:  # tail below 1e-7 of absum
            break
        harm += 1 / (s + k)
        gb *= (s + k) / (k + 1)
        qhk *= q
        if qx is not None:
            qxk *= qx
    return absum / abs(total) if total else math.inf


def recurrence_kappa(n: int, q: complex) -> float:
    """Rounding amplification of the binary64 recurrence for E_0..E_n at q."""
    table, bound = [(1 + q) / 2], [abs((1 + q) / 2)]
    for m in range(1, n + 1):
        acc, acc_abs, qpow = 0j, 0.0, 1 + 0j
        for l in range(m):
            c = math.comb(m, l)
            acc += c * qpow * table[l]
            acc_abs += c * abs(qpow) * bound[l]
            qpow *= q
        den = 1 + q**m
        table.append(-acc / den)
        bound.append(acc_abs / abs(den))
    return bound[n] / abs(table[n]) if table[n] else math.inf


def _conditioned(draw, kappa):
    """Draw args until kappa(*args) < KAPPA_MAX."""
    for _ in range(10000):
        args = draw()
        if kappa(*args) < KAPPA_MAX:
            return args
    raise RuntimeError("no well-conditioned input in 10000 draws")


def _q_literal(q: complex) -> str:
    re, im = round(q.real, 6), round(q.imag, 6)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i" if im else f"{re}"


def _curve_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # Wide: 5 s-rows x 51 w-columns on a moderate q.  Tall: 26 s-rows with
    # |q| near 1 and the README's w window.  Each slot has its own s band and
    # a narrow |q| ring: the zeta series behind every row grows as
    # 1/(1 - |q|).  The CLI's coefficients carry the series' rel_tol of 1e-12,
    # so a cell where E_q(s, w) nearly vanishes loses relative accuracy; on
    # q off the real axis (imaginary for the wide grids, |arg q| in [0.2, 0.4]
    # for the tall ones) the curves keep clear of zero.
    #
    # A cell costs one term per integer below its order, so the seed only
    # moves each s window by less than the distance to the next integer, and
    # the |q| rings are narrow: an op costs about the same at every seed,
    # while its q, window and checked cells differ.
    wide = (0.5, 1.5, 2.5, 3.0, 3.5)
    tall = ((1.5, (0.918, 0.922)), (2.5, (0.948, 0.952)))
    while True:
        batch = []
        for base in wide:
            s_lo = round(base + rng.uniform(0.02, 0.1), 2)
            q = _q(rng, "imag", (0.59, 0.61))
            batch.append(_curve_op(rng, q, (s_lo, s_lo + 2.0, 0.5), (-1.0, 1.0, 0.04)))
        for base, ring in tall:
            s_lo = round(base + rng.uniform(0.0, 0.05), 2)
            q = _q(rng, "tilted", ring)
            batch.append(_curve_op(rng, q, (s_lo, s_lo + 1.0, 0.04), (-0.5, 0.5, 0.05)))
        yield batch


def _grid_size(lo: float, hi: float, step: float) -> int:
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _curve_op(rng: random.Random, q: complex, s_rng: tuple, w_rng: tuple) -> Op:
    # The CLI sees q rounded to six decimals; the note carries that value.
    q = complex(round(q.real, 6), round(q.imag, 6))
    rows, cols = _grid_size(*s_rng), _grid_size(*w_rng)
    argv = (
        "curve", "--q", _q_literal(q),
        "--s-range", ":".join(f"{v:g}" for v in s_rng),
        "--w-range", ":".join(f"{v:g}" for v in w_rng),
    )
    row = rng.randrange(rows)
    cells = tuple(sorted(rng.sample(range(cols), 3)))
    return Op("cli", argv, ("curve", q, rows, cols, row, cells))


def _zeta_rounds(rng: random.Random) -> Iterator[list[Op]]:
    def h() -> int:
        return rng.randrange(3)

    def s() -> complex:
        return _order(rng, -20.0, 20.0, 10.0)

    def kseries(kind: str, draw) -> Op:
        # draw() gives the op's arguments; redrawn until well conditioned.
        to_kappa = {
            "qzeta": lambda s, h, q: kseries_kappa(s, h, q),
            "qzeta_deriv": lambda s, h, q, x: kseries_kappa(s, h, q, x, deriv=True),
            "qzeta_hurwitz": lambda s, x, h, q: kseries_kappa(s, h, q, x),
            "euler_continuation": lambda s, q: kseries_kappa(-s, 0, q),
            "euler_continuation_deriv": lambda s, q: kseries_kappa(-s, 0, q, deriv=True),
        }[kind]
        return Op(kind, _conditioned(draw, to_kappa))

    def real_order() -> float:
        return _order(rng, -20.0, 20.0, 0.0).real

    while True:
        yield [
            kseries("qzeta", lambda: (s(), h(), _q(rng, "disk"))),
            kseries("qzeta", lambda: (s(), h(), _q(rng, "disk"))),
            # q near 1 at a large order: the longest k-series.
            kseries("qzeta", lambda: (_order(rng, 10.0, 20.0, 10.0), h(), _q(rng, "near1"))),
            kseries("qzeta", lambda: (s(), h(), _q(rng, rng.choice(("negative", "complex"))))),
            kseries("qzeta_deriv", lambda: (s(), h(), _q(rng, "disk"), None)),
            # The k-series with a shift x decays as |q|^(xk): x >= 0.5 keeps it
            # within the library's 10000 terms near q = 1.
            kseries("qzeta_deriv", lambda: (s(), h(), _q(rng, "disk"), _shift(rng, 3.0, 0.5))),
            kseries("qzeta_hurwitz", lambda: (s(), _shift(rng, 3.0, 0.5), h(), _q(rng, "disk"))),
            kseries("qzeta_hurwitz", lambda: (s(), _shift(rng, 3.0, 0.5), h(), _q(rng, "near1"))),
            kseries("euler_continuation", lambda: (real_order(), _q(rng, "disk"))),
            kseries("euler_continuation_deriv", lambda: (real_order(), _q(rng, "disk"))),
            # The classical acceleration converges for Re s > 0 only.
            Op("classical_zeta_E", (_order(rng, 0.0, 20.0, 10.0), None)),
            Op("classical_zeta_E", (_order(rng, 0.0, 20.0, 10.0), _shift(rng, 1.0))),
        ]


FRESH_KINDS = ("positive", "negative", "complex", "imag", "near1")
FRESH_Q = 96  # distinct fresh q per run; they cycle once exhausted


def _interpolate_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # Every slot has a fixed order (most give or take one).  Pooled slots each keep
    # one q of their own kind for the whole run, so their tables are read
    # again; fresh slots take the next q of a list, so the tables grow.
    pool = {kind: _q(rng, kind) for kind in ("positive", "near1", "imag", "complex", "small")}
    fresh = [_q(rng, FRESH_KINDS[i % len(FRESH_KINDS)]) for i in range(FRESH_Q)]
    count = {"fresh": 0}

    def new_q() -> complex:
        q = fresh[count["fresh"] % FRESH_Q]
        count["fresh"] += 1
        return q

    def n(centre: int) -> int:
        return centre + rng.randint(-1, 1)

    def h() -> int:
        return rng.randrange(3)

    # The float recurrence behind euler_number loses digits fast with n off
    # the positive axis; its q are drawn until it is well conditioned.
    number_pool = _conditioned(lambda: (_q(rng, "small"),),
                               lambda q: max(recurrence_kappa(m, q) for m in (15, 16, 17)))[0]

    # The three zeta slots hold the median op and the last slot is the tail,
    # so their orders are fixed.  The tail's cost also triples from one
    # (x, h) to another, so it runs at x = 1 and h = 1; the seed draws its q.
    while True:
        yield [
            Op("euler_number", (n(16), number_pool)),
            Op("euler_number", _conditioned(lambda: (n(12), _q(rng, "disk")), recurrence_kappa)),
            Op("euler_poly", (n(20), _shift(rng, 3.0), h(), pool["near1"])),
            Op("euler_poly", (n(12), _shift(rng, 3.0), h(), new_q())),
            Op("qzeta", (complex(-10), h(), new_q())),
            Op("qzeta", (complex(-12), h(), pool["imag"])),
            Op("qzeta_hurwitz", (complex(-10), rng.randrange(4), h(), new_q())),
            Op("euler_poly", (n(12), rng.randrange(4), h(), pool["small"])),
            Op("euler_poly", (n(24), rng.randrange(4), h(), pool["positive"])),
            Op("qzeta_hurwitz", (complex(-32), 1, 1, pool["complex"])),
        ]


def _identity_args(rng: random.Random, name: str, n: int) -> tuple:
    if name == "poly-vs-recurrence":
        return (name, n, 0)
    if name == "binomial-expansion":
        return (name, n, rng.randint(2, 3))
    return (name, n, rng.choice((1, 3) if name.startswith("odd") else (2, 4)))


IDENTITY_NAMES = (
    "poly-vs-recurrence",
    "binomial-expansion",
    "even-shift",
    "odd-shift",
    "even-shift-recombined",
    "odd-shift-recombined",
    "even-shift-wrong-sign",
)


# Ops marked cold start with the package caches emptied, as a fresh
# `qeuler` process would.
COLD = ("cold",)


def _exact_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # exact_euler_number depends on n alone, so its orders are fixed and the
    # seed orders the round and draws the identity and polynomial arguments.
    # Cheap identity checks are the majority, so the median op is one of them.
    while True:
        q = _q_literal(_q(rng, "disk"))  # ignored by the exact paths
        cli = [
            ("numbers", "--q", q, "--n", str(rng.randint(9, 10)), "--exact"),
            ("verify", "--q", q, "--exact-only", "--max-n", "5", "--max-k", "4"),
        ]
        batch = (
            [Op("exact_euler_number", (n,), COLD) for n in (11, 12, 13)]
            + [Op("verify_identity", _identity_args(rng, name, n)) for name in IDENTITY_NAMES for n in (6, 8)]
            + [Op("exact_euler_poly", (n, rng.randint(1, 3), rng.randrange(3))) for n in (6, 8, 12)]
            + [Op("cli", argv, COLD) for argv in cli]
        )
        rng.shuffle(batch)
        yield batch


_ROUNDS = {
    "curve": _curve_rounds,
    "zeta": _zeta_rounds,
    "interpolate": _interpolate_rounds,
    "exact": _exact_rounds,
}


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The endless op stream of one workload at one seed."""
    rng = random.Random(f"qeuler-bench:{workload}:{seed}")
    for batch in _ROUNDS[workload](rng):
        yield from batch


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    stream = ops(workload, seed)
    return [next(stream) for _ in range(count)]
