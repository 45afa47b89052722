"""Continuation of the q-Euler polynomials to real order.

The number continuation E_q(s) = zeta_q(-s) lives beside zeta_q, in zeta.py.

The polynomial family deforms through a binomial-weighted sum over the
integer part of the order,

    E_q(s, w) = sum_{k=-1}^{[s]} binom(s, [s]-k) C(k+s-[s]) q^((k+s-[s])w)
                [w]_q^([s]-k),

with [s] the floor, binom(s, m) = s(s-1)...(s-m+1)/m! the generalized
binomial Gamma(1+s) / (Gamma(1+s-m) Gamma(1+m)) and C the continued
order-coefficient function.  At integer s the k = -1 term is 0
(binom(s, s+1) = 0) and the sum collapses to the binomial expansion of
E_{s,q}(w).  The weights are one running product, binom(s, m) =
binom(s, m-1) (s-m+1) / m, whose rounding is at most gamma_2m relatively
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 3) and which
is exact at integer s while the products stay below 2^53.  A weight, a
weighted coefficient or a sum beyond the float range raises FloatRangeError.

One wrinkle: the plain zeta continuation misses the n = 0 term of the
defining series, so its value at order 0 sits exactly [2]_q below the
order-0 number E_{0,q} = [2]_q / 2.  Fed naively into the sum above, that
defect would make the deformation jump by [2]_q [w]^([s]+1) at every integer
order instead of joining the polynomial curves.  The coefficient function C
therefore blends the defect back in linearly over arguments in (-1, 1):
C(a) = zeta_q(-a) + [2]_q max(0, 1 - |a|).  This restores C(0) = E_{0,q},
leaves every other integer argument untouched, and makes the deformation
continuous; elsewhere the blend only affects the interior of the first unit
interval of arguments.

The coefficients of an integer order are the finite sums zeta_q(-k),
correctly rounded (_exactcomplex.terminating_alt_sum).  Between integers
they come from the paper's nested series.  Writing [N]_q^a = (1-q)^(-a)
(1-q^N)^n (1-q^N)^(a-n) and expanding the last factor binomially gives, for
every integer n >= 0,

    zeta_q(-a) = [2]_q (1-q)^(-a) sum_{j>=0} gb(n - a, j) D_n[j],

with gb(s, j) = Gamma(s+j) / (Gamma(s) j!), D_n[j] = sum_i (-1)^i C(n,i)
c_(j+i) the n-th difference of the plain factors c_j = -q^j / (1 + q^j),
and n = 0 the plain k-series.  D_n[j] = sum_{N>=1} (-1)^N (1-q^N)^n q^(N j)
falls only like |q|^j, by its N = 1 mode, whose weighted sum is
sum_j gb(n - a, j) (1-q)^n q^j = (1-q)^a (Kummer's transformation of
series).  So the sum reads R_n[j] = D_n[j] + (1-q)^n q^j, the differences
of c'_j = q^(2j) / (1 + q^j), which fall like |q|^(2j), with -(1-q)^a the
last term of the same fsum.  Taking n = k + 1 for a = k + frac makes the
weights gb(1 - frac, j) the same for every coefficient of a row, and
positive and falling, so a row is one weight vector against the rows R_0,
..., R_([s]+1) of one difference table: two dot products per coefficient
(math.fsum, whose bits do not depend on the Python version).  The weights
are one running product of the ratios (sigma + k) / (k + 1), taken to the
longest J_m the row reads.  The table (_exactcomplex.DifferenceTable)
takes the differences exactly, on integers in fixed point, where floats
would lose the (1-q^2)^n by which R_n falls below the factors, and rounds
each entry once.  Its precision follows from q, the row's orders, rel_tol
and an a-priori length L (see _nested_sums), but it is built only where
read: its integer rows start from R_m[0], the top + 1 quotients each
order's first guess at J_m needs, are then sized from those guesses, at
most L, and grow where a later J_m passes their end, and a row rounds only
its entries j < J_m.  An entry depends on q, the precision, m and j alone,
so the rows of a call share one table with the bits of a point call.

Rows whose orders differ by an integer, so share the float frac = s - [s],
share their order work (_Fraction).  An order's S_m, J_m and acceptance
bound do not depend on the row's top, so within a band the first such
row's try at the nested sums (_Try) serves the later ones: each reads only
its new orders and runs the acceptance test again at its own top, whose
short-W slack grows with top, and a row that fails it retries as its point
call would.  They also share the factors (1+q) (1-q)^(-(k+frac)), or at
integer orders the finite sums, and the columns q^((k+frac) w).  A
fraction's state lives from its first row to its last.

What every row of a call shares is one _Grid: q and log q, the
EngineConfig, the nested sums' policy, the w side and the difference table
at its latest W.  The w side is one kernel per row (_row): [w]_q and its
powers once per column, q^(a w) as one exp per column or, where a w is an
integer, cpow's complex ** int (see kernel.cpow for its rounding), the
terms added in order; a failing or non-finite cell runs again alone, so it
raises at its own column.  euler_poly_continuation is the one-row, one-column case.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, repeat
from operator import mul

from ._exactcomplex import DifferenceTable, difference_error, terminating_alt_sum
from .errors import CurveSampleError, FloatRangeError, NonConvergenceError, PoleError
from .kernel import DEFAULT_CONFIG, FD_STEP, EngineConfig, QParameter, Record, _set, as_complex, as_qparameter, cpow, q_bracket

__all__ = [
    "CurveGrid",
    "euler_poly_continuation",
    "curve_grid",
]

_LN2 = math.log(2.0)


def _binomials(s: float, top: int) -> list[float]:
    # binom(s, m) for m = 0..top, as one running product.
    out = [1.0]
    for m in range(1, top + 1):
        out.append(out[-1] * (s - m + 1) / m)
    return out


_TABLE_ATTEMPTS = 4  # the precisions a row's nested sums try
_TOP_STEP = 8  # orders 1..8 share one table precision, as do 9..16, ...


def _first_length(r: float, cfg: EngineConfig) -> int:
    # The a-priori number L of entries j < L of each difference a row reads,
    # |q|^L below rel_tol / 2^24: it sizes W, anchors the tail lines and caps
    # the guesses at J_m, and a J_m beyond it reads on.
    if not r:
        return 1
    return max(1, math.ceil((24.0 - math.log2(cfg.rel_tol)) / -math.log2(r)))


def _first_bits(q: complex, top: int, length: int) -> int:
    # The first try at the fixed-point bits W of a difference table that
    # serves orders up to top: 72 beyond the 2^m units and the (1-q)^m by
    # which D_m[j] falls below the factors, as _exactcomplex._start, and the
    # bits of the error factor and of the sum over j < length.
    drop = max(0, math.ceil(top * -math.log2(abs(1.0 - q))))
    return 72 + top + drop + math.ceil(math.log2(length * difference_error(q, length + top)))


def _log_tail(q: complex, m: int, length: int) -> float:
    # log of a bound on sum_{j >= length} |R_m[j]|.  R_m[j] = sum_{N >= 2}
    # (-1)^N q^(N j) (1 - q^N)^m, D_m[j] with its N = 1 mode taken out, and
    # |1 - q^N| <= b_N = min(|1-q| (1 - r^N) / (1 - r), 1 + r^N), r = |q|, so
    # the tail is at most sum_N b_N^m r^(N L) / (1 - r^N); the terms beyond
    # N, below 2^m r^((N+1) L) / ((1-r) (1-r^L)), are added whole once they
    # fall 2^-50 below the largest.
    r = abs(q)
    lr, slope = math.log(r), abs(1.0 - q) / (1.0 - r)
    logs, n = [], 1
    while True:
        n += 1
        rn = r**n
        logs.append(m * math.log(min(slope * (1.0 - rn), 1.0 + rn)) + n * length * lr - math.log1p(-rn))
        rest = m * _LN2 + (n + 1) * length * lr - math.log1p(-r) - math.log1p(-(r**length))
        big = max(logs)
        if rest < big - 35.0:
            return big + math.log(math.fsum([math.exp(t - big) for t in logs]) + math.exp(rest - big))


def _weights(sigma: float, n: int, out: list[float] | None = None) -> list[float]:
    # gb(sigma, j) for j < n, one running product of the ratios (sigma + k) /
    # (k + 1), k carried as the float it converts to; out, where given, holds
    # the first entries and is carried on.
    out = out or [1.0]
    w, k = out[-1], float(len(out) - 1)
    for _ in range(n - len(out)):
        j = k + 1.0
        w *= (sigma + k) / j
        out.append(w)
        k = j
    return out


class _Try:
    """One try of the nested sums of one fraction at W bits, on the grid's
    table at W: the weight vector, and S_m with its J_m and acceptance bound
    for each order m read so far.  An order's S_m, J_m and bound do not
    depend on the row's top, so the rows of a grid that share a fraction and
    a band share one first try, each reading only its new orders."""

    __slots__ = ("grid", "sigma", "W", "table", "log_gb", "weights", "sums", "needs", "bounds")

    def __init__(self, grid: _Grid, sigma: float, W: int, table):
        self.grid, self.sigma, self.W, self.table, start = grid, sigma, W, table, grid.start
        self.log_gb = math.lgamma(sigma + start) - math.lgamma(sigma) - math.lgamma(start + 1)
        self.weights, self.sums, self.needs, self.bounds = [1.0], [], [], []

    def entries(self, m: int, target: float) -> float:
        # the J >= start at which the tail line of order m meets target; not
        # finite where target is not (a sum of exactly 0)
        grid = self.grid
        if not grid.q:  # every entry but R_m[0] is 0
            return grid.start
        j = (self.log_gb + grid.line(m) - target) / -grid.lr
        return max(grid.start, math.ceil(j)) if j < math.inf else j

    def extend(self, top: int) -> None:
        # Reads S_m for the orders m <= top not read yet.  Each J_m starts
        # at its guess and moves on, strictly further each time, until its
        # tail test passes; one whose J_m + top passes max_terms refuses.
        grid, sums, table, weights = self.grid, self.sums, self.table, self.weights
        q, first, budget = grid.q, len(sums), grid.cfg.max_terms
        if first > top:
            return
        cap = min(grid.length, budget - top)
        table.grow(top, 1)  # R_m[0] for the guesses: top + 1 quotients
        # |D_m[0]| = |R_m[0] - (1-q)^m| stands in for |S_m|
        heads = [complex(re[0], im[0] if im else 0.0) - (1.0 - q) ** m
                 for m, (re, im) in enumerate(map(table.row, range(first, top + 1), repeat(1)), first)]
        guesses = [min(cap, self.entries(m, grid.allowed - 3 * _LN2 + math.log(abs(d)))) if d else cap
                   for m, d in enumerate(heads, first)]
        reads = max(guesses)
        table.grow(top, reads)  # sized from the guesses; a longer J_m grows it
        _weights(self.sigma, reads + 1, weights)
        for m, need in enumerate(guesses, first):
            # sum_j gb(sigma, j) (1-q)^m q^j = (1-q)^(m-sigma), the last term of both fsums
            mode = cpow(1.0 - q, complex(m - self.sigma))
            while True:
                if not need + top <= budget:
                    count = need + top if need < math.inf else "more"
                    raise NonConvergenceError(f"the difference table of order {top} needs {count} terms, above max_terms={budget}")
                if need >= len(weights):
                    _weights(self.sigma, need + 1, weights)
                re, im = table.row(m, need)
                w = weights[:need]
                sm = complex(math.fsum(chain(map(mul, w, re), (-mode.real,))),
                             0.0 if im is None else math.fsum(chain(map(mul, w, im), (-mode.imag,))))
                bound = grid.allowed + _log_abs(sm.real, sm.imag)
                if not q or math.log(weights[need]) + grid.line(m) + need * grid.lr <= bound:
                    break
                need = self.entries(m, bound - 2 * _LN2)
            sums.append(sm)
            self.needs.append(need)
            self.bounds.append(bound)

    def short(self, top: int) -> bool:
        # Whether the table's rounding, over the max(L, J_m) + top quotients
        # S_m reads, exceeds rel_tol / 8 of some |S_m| read, m <= top: its
        # slack grows with top, so each row tests its own.
        q, length, bits = self.grid.q, self.grid.length, self.W * _LN2
        return any(
            math.log(difference_error(q, max(length, need) + top)) - bits + math.log(need) + m * _LN2 > bound
            for m, need, bound in zip(range(top + 1), self.needs, self.bounds)
        )


def _nested_sums(grid: _Grid, top: int, frac: float, shared: _Fraction) -> list[complex]:
    # S_m = sum_{j<J_m} gb(1 - frac, j) R_m[j] - (1-q)^(m-1+frac), m = 0..top,
    # the nested series of zeta_q(-(m - 1 + frac)) = [2]_q (1-q)^(-(m-1+frac))
    # S_m with its N = 1 mode summed in closed form: one weight vector for
    # every m, and each S_m two dot products.
    #
    # With r = |q| and start = L / 4, the tail of S_m beyond J >= start is
    # below gb(1 - frac, start) exp(c_m + 2 J log r), c_m = grid.line(m), as
    # _log_tail(q, m, J) - 2 J log r does not grow with J and gb(1 - frac, J)
    # falls.  J_m starts where that line meets rel_tol / 64 of |D_m[0]| =
    # |R_m[0] - (1-q)^m|, which stands in for |S_m|, capped at L and at
    # max_terms - top; while the tail misses rel_tol / 8 of |S_m|, J_m moves
    # on to where the line meets rel_tol / 32 of it, and the table grows to
    # it.  A J_m + top above max_terms refuses the row.  Where the table's
    # rounding exceeds rel_tol / 8 of some |S_m|, W grows by 64 bits, the one
    # retry.  So W and J_m follow from q, the multiple of _TOP_STEP at or
    # above top, frac, rel_tol and max_terms - top alone: a grid, whose rows
    # share the grid's table, has the bits of a point call.  The table holds
    # what its reads asked for: R_m[0] for the guesses, then the J_m entries
    # each S_m sums, rounded as read.
    #
    # shared is the _Fraction of the rows with this frac: its first try
    # serves every such row of the band whose J_m + top stay within
    # max_terms, as this row's first try extended to top and tested at top,
    # so a row whose own test fails retries as a point call would, at its
    # own row.
    q, cfg = grid.q, grid.cfg
    wide = -(-top // _TOP_STEP) * _TOP_STEP
    extra = 0
    for attempt in range(_TABLE_ATTEMPTS):
        tried = shared.first if not attempt and shared.wide == wide else None
        if tried is None or max(tried.needs, default=0) + top > cfg.max_terms:
            W = _first_bits(q, wide, grid.length) + extra
            tried = _Try(grid, 1.0 - frac, W, grid.table(W))
            if not attempt:
                shared.wide, shared.first = wide, tried
        tried.extend(top)
        if not tried.short(top):
            return tried.sums[: top + 1]
        extra += 64
    raise NonConvergenceError(f"the nested series of order {top} missed rel_tol={cfg.rel_tol} after {_TABLE_ATTEMPTS} tries")


def _log_abs(re: float, im: float | None) -> float:
    # log |re + i im|, -inf at 0
    z = abs(complex(re, im or 0.0))
    return math.log(z) if z else -math.inf


class _Fraction:
    """What the rows of one call whose orders share a fractional part frac
    share: the first try of their nested sums in the latest band (wide, its
    multiple of _TOP_STEP); per order k + frac the factor of C(k + frac)
    that no row changes, (1+q) (1-q)^(-(k+frac)) or, at frac = 0, the
    finite sum zeta_q(-k) itself; and the columns q^((k+frac) w) by
    order."""

    __slots__ = ("wide", "first", "factors", "columns")

    def __init__(self):
        self.wide, self.first, self.factors, self.columns = 0, None, [], {}


def _order_terms(s, grid: _Grid, shared: _Fraction) -> list[tuple[float, complex, int]]:
    # The s-dependent part of E_q(s, w): (k + frac, weight * C(k + frac), [s] - k) per k.
    # shared holds what the call's rows with this frac share.
    cfg = grid.cfg
    sc = as_complex(s, "the order")
    if sc.imag != 0.0:
        raise ValueError("the polynomial continuation takes a real order")
    sv = sc.real
    if sv < 0.0:
        raise ValueError(f"the polynomial continuation needs s >= 0, got {sv!r}")
    fs = math.floor(sv)
    if fs + 2 > cfg.max_terms:
        raise NonConvergenceError(f"order {sv!r} has more terms than max_terms={cfg.max_terms}")
    frac = sv - fs
    binom = _binomials(sv, fs + 1)  # the weight of k is binom(s, [s] - k)
    if not all(map(math.isfinite, binom)):
        raise FloatRangeError(f"the weighted coefficients of order {sv!r} lie beyond the float range")
    q, factors = grid.q, shared.factors
    if frac:  # C(k + frac) = [2]_q (1-q)^(-(k+frac)) S_(k+1), k = -1..[s]
        sums = _nested_sums(grid, fs + 1, frac, shared)
        if len(factors) < fs + 2:
            factors += [
                (1.0 + q) * cpow(1.0 - q, complex(-(k + frac))) for k in range(len(factors) - 1, fs + 1)
            ]
        coeffs = list(map(mul, factors, sums))
    else:  # C(k) = zeta_q(-k), the finite sums, k = 0..[s]
        factors += [terminating_alt_sum(k, 0, q, None) for k in range(len(factors), fs + 1)]
        coeffs = factors[: fs + 1]
    terms = []
    for k, coeff in enumerate(coeffs, start=-1 if frac else 0):
        arg = k + frac
        if abs(arg) < 1.0:  # the order-0 defect blended back in
            coeff += (1.0 + q) * (1.0 - abs(arg))
        weighted = binom[fs - k] * coeff
        if not cmath.isfinite(weighted):
            raise FloatRangeError(f"the weighted coefficients of order {sv!r} lie beyond the float range")
        terms.append((arg, weighted, fs - k))
    return terms


class _Grid:
    """What every row of one call shares: q, its log for the powers q^(a w)
    (None at q = 0, which cpow handles itself) and the EngineConfig; the
    nested sums' policy, from q and rel_tol alone: the a-priori length L, the
    start L / 4 of the tail lines, log |q|^2, log(rel_tol / 8) and one tail
    line per order; the w side, each column's w, [w]_q and powers of [w]_q,
    computed once for every row; and the difference table at its latest W.
    bw is None when some [w]_q fails; each cell then runs alone and raises
    at its own column."""

    __slots__ = ("qp", "q", "cfg", "logq", "length", "start", "lr", "allowed", "lines",
                 "given", "w", "bw", "pows", "W", "held")

    def __init__(self, qp: QParameter, cfg: EngineConfig, given):
        self.qp, self.q, self.cfg, self.given = qp, qp.q, cfg, given
        self.logq = cmath.log(qp.q) if qp.q else None
        self.length = _first_length(abs(qp.q), cfg)
        self.start = max(1, self.length // 4)
        self.lr = 2.0 * math.log(abs(qp.q)) if qp.q else -math.inf  # log |q|^2, the rate of R_m[j] in j
        self.allowed, self.lines = math.log(cfg.rel_tol / 8.0), {}
        self.W, self.held = None, None
        self.w = [complex(w) for w in given]
        try:
            self.bw = [q_bracket(w, qp) for w in self.w]
        except (PoleError, OverflowError):
            self.bw = None
        self.pows = [[1 + 0j] * len(given)]

    def power(self, p: int) -> list[complex]:
        # [w]_q^p at every column, as the repeated product from 1
        pows = self.pows
        while len(pows) <= p:
            pows.append(list(map(mul, pows[-1], self.bw)))
        return pows[p]

    def line(self, m: int) -> float:
        # c_m = _log_tail(q, m, start) - start log |q|^2, the tail line of
        # order m (see _nested_sums), the same at every W
        line = self.lines.get(m)
        if line is None:
            line = self.lines[m] = _log_tail(self.q, m, self.start) - self.start * self.lr
        return line

    def table(self, W: int):
        # The difference table at W: the grid's, when it holds that W, else a
        # new one, which replaces it; W >= 72 keeps the truncated q~ inside
        # the unit disk (kernel.QParameter), so the table builds.  Its
        # entries are the same whatever its extent, so the table of one row
        # serves the next alike, and grows where the next reads further.
        if W != self.W:
            self.W, self.held = W, DifferenceTable(self.q, W)
        return self.held

    def column(self, j: int) -> _Grid:
        one = _Grid(self.qp, self.cfg, self.given[j : j + 1])
        if one.bw is None:
            try:
                q_bracket(one.w[0], self.qp)  # raises that column's own error
            except OverflowError as exc:
                raise FloatRangeError(f"[w]_q at w = {one.given[0]!r} lies beyond the float range") from exc
        return one


def _q_powers(grid: _Grid, a: float) -> list[complex]:
    # q^(a w) at every column: one exp of a w log q each, and cpow's
    # complex ** int where a w is an integer.
    q, logq, exp = grid.q, grid.logq, cmath.exp
    exps = [a * w for w in grid.w]
    if logq is None:
        return list(map(cpow, repeat(q), exps))
    return [cpow(q, x) if x.real.is_integer() else exp(x * logq) for x in exps]


def _cells(terms: list[tuple[float, complex, int]], grid: _Grid, columns: dict) -> list[complex]:
    # The part of E_q(s, w) that depends on w, at every column, with the
    # terms added in their order; columns keeps q^(a w) by a, for the
    # grid's later rows with this row's fraction.
    total = [0j] * len(grid.w)
    for arg, weighted, power in terms:
        powers = columns.get(arg)
        if powers is None:
            powers = columns[arg] = _q_powers(grid, arg)
        total = [t + weighted * x * p for t, x, p in zip(total, powers, grid.power(power))]
    return total


def _row(terms: list[tuple[float, complex, int]], grid: _Grid, out: list, columns: dict) -> None:
    # Appends E_q(s, w) at every column to out.  A row that fails, or holds
    # a cell beyond the float range, runs again cell by cell, so a failing
    # cell raises at its own column, len(out).
    if grid.bw is not None:
        try:
            total = _cells(terms, grid, columns)
        except (PoleError, OverflowError):
            total = None
        if total is not None and all(map(cmath.isfinite, total)):
            out.extend(total)
            return
    for j, w in enumerate(grid.given):
        one = grid.column(j)
        try:
            (value,) = _cells(terms, one, {})
        except OverflowError as exc:  # q^(a w), one exp or cpow
            raise FloatRangeError(f"a power of q at w = {w!r} lies beyond the float range") from exc
        if not cmath.isfinite(value):
            raise FloatRangeError(f"E_q(s, w) at w = {w!r} lies beyond the float range")
        out.append(value)


def euler_poly_continuation(s, w, q, config: EngineConfig | None = None) -> complex:
    """The deformed polynomial value E_q(s, w) for real order s >= 0.

    At integer s this telescopes to the binomial expansion
    sum_k C(s,k) E_{k,q} q^(k w) [w]_q^(s-k); between integers it deforms one
    polynomial curve into the next.  It is the one-row, one-column case of
    curve_grid.  A non-finite w raises ValueError; a value whose weights or
    sum lie beyond the float range raises FloatRangeError.
    """
    as_complex(w, "w")
    grid, shared, out = _Grid(as_qparameter(q), config or DEFAULT_CONFIG, [w]), _Fraction(), []
    _row(_order_terms(s, grid, shared), grid, out, shared.columns)
    return out[0]


class CurveGrid(Record):
    """Rectangular sampling of the deformation E_q(s, w), s outer, w inner."""

    __slots__ = ("q", "s_values", "w_values", "values", "metadata")

    def __init__(self, q: QParameter, s_values: tuple[float, ...], w_values: tuple[float, ...],
                 values: tuple[tuple[complex, ...], ...], metadata: dict):
        if len(values) != len(s_values):
            raise ValueError("grid row count does not match s sampling")
        for row in values:
            if len(row) != len(w_values):
                raise ValueError("grid column count does not match w sampling")
        _set(self, "q", q)
        _set(self, "s_values", s_values)
        _set(self, "w_values", w_values)
        _set(self, "values", values)
        _set(self, "metadata", metadata)


# A curve grid holds at most this many samples; both axes are counted, and a
# larger grid refused, before any point is built.
MAX_GRID_CELLS = 10**6


def _point_count(lo: float, hi: float, step: float) -> int:
    # The number of points of inclusive_range(lo, hi, step).
    for v in (lo, hi, step):
        as_complex(v, "a range bound or step")
    if step <= 0:
        raise ValueError("step must be positive")
    if hi < lo:
        raise ValueError("range must run upward")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_CELLS:
        raise ValueError(f"range {lo!r}:{hi!r}:{step!r} has more than {MAX_GRID_CELLS} points")
    return math.floor(span) + 1


def inclusive_range(lo: float, hi: float, step: float) -> list[float]:
    """Points lo, lo+step, ...; endpoints inclusive, final point clamped to hi."""
    pts = [lo + i * step for i in range(_point_count(lo, hi, step))]
    if pts[-1] > hi:
        pts[-1] = hi
    return pts


def curve_grid(
    s_min: float,
    s_max: float,
    s_step: float,
    w_min: float,
    w_max: float,
    w_step: float,
    q,
    config: EngineConfig | None = None,
) -> CurveGrid:
    """Sample euler_poly_continuation over an inclusive (s, w) grid.

    Rows (s outer, w inner) run in order over one _Grid.  Each computes its
    order terms once, reading the grid's difference table, which the rows
    of one precision band share: the first row sizes it from its guesses at
    each J_m, a later row whose J_m or orders pass its end grows it, and
    each row rounds only the entries j < J_m its dot products read.  Rows
    whose orders differ by an integer share their order work: a later row
    sums only the nested series of its new orders, and reuses the
    coefficient factors and the columns q^((k+frac) w) of the earlier ones.
    Then every cell of the row runs in one kernel over the columns, whose
    [w]_q and powers the grid computes once; the bits are those of point
    calls.  A failing sample aborts with its grid indices, the same as
    where its row fails alone.
    """
    if s_min < 0:
        raise ValueError("s_min must be nonnegative")
    cells = _point_count(s_min, s_max, s_step) * _point_count(w_min, w_max, w_step)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"the grid has {cells} samples, above {MAX_GRID_CELLS}")
    qp = as_qparameter(q)
    cfg = config or DEFAULT_CONFIG
    svals = inclusive_range(s_min, s_max, s_step)
    wvals = inclusive_range(w_min, w_max, w_step)
    grid = _Grid(qp, cfg, wvals)
    # the rows whose orders share a fractional part share their order work,
    # kept from the first such row to the last
    fracs = [sv - math.floor(sv) for sv in map(float, svals)]
    last = {frac: i for i, frac in enumerate(fracs)}
    shared = {}
    rows = []
    for i, (sv, frac) in enumerate(zip(svals, fracs)):
        row = []
        state = (shared.pop(frac, None) or _Fraction()) if last[frac] == i else shared.setdefault(frac, _Fraction())
        try:
            terms = _order_terms(sv, grid, state)  # a failure here is reported at w[0]
            _row(terms, grid, row, state.columns)
        except (NonConvergenceError, PoleError, ValueError, OverflowError) as exc:
            j = len(row)
            raise CurveSampleError(
                f"sample failed at s[{i}]={sv!r}, w[{j}]={wvals[j]!r}: {exc}", i, j
            ) from exc
        rows.append(tuple(row))
    metadata = {
        "rel_tol": cfg.rel_tol,
        "max_terms": cfg.max_terms,
        "fd_step": FD_STEP,
        "s_range": {"min": s_min, "max": s_max, "step": s_step},
        "w_range": {"min": w_min, "max": w_max, "step": w_step},
    }
    return CurveGrid(qp, tuple(svals), tuple(wvals), tuple(rows), metadata)
