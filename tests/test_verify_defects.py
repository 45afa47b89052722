"""Every check of ``qeuler verify`` fails when what it evaluates carries a
small defect: one unit or one ulp off, a small relative defect, a flipped
sign, or a dropped term.

Each relative defect is sized to its check's tolerance, not 1e-8 throughout.
A relative 1e-8 defect passes derivative-fd and large-order-limit (1.17e-8
and 1.50e-8 against their 1e-6), so they take 1e-5; one of 1e-2 passes
classical-bridge (9.95e-3 against 1e-2), so it takes a flipped sign; and
shift-expansion, whose bound is a few units of 2^-53, takes 1e-12 at one of
its four shifts."""

import math

import pytest

from qeuler import continuation, exact, numeric, verification, zeta
from qeuler.exact import RationalQ
from qeuler.kernel import DEFAULT_CONFIG, SeriesValue

MAX_N, MAX_K = 6, 4


def _results(checks) -> dict:
    return {r.name: r for r in checks}


def _n3_one_unit_off(build):
    def table(count, k=None):
        w, nums, dens = build(count, k)
        nums[3] += 1  # N_3's constant coefficient
        return w, nums, dens

    return table


def _binomial_sum_one_term_short(build):
    return lambda n, k, upper, table: build(n, k, upper - 1 if upper else 0, table)


def _bracket_sum_without_its_last_term(build):
    return lambda n, k, flip, w: build(n, k - 1, flip, w)


def _bracket_sum_sign_flipped(build):
    return lambda n, k, flip, w: build(n, k, not flip, w)


def _classical_sign_flipped(build):
    def scaled(n):
        a = build(n)
        a[3] = -a[3]  # 2^3 E_3 = 2
        return a

    return scaled


DEFECTS = {
    "exact/poly-vs-recurrence": (verification, "_euler_numerators", _n3_one_unit_off),
    "exact/binomial-expansion": (exact, "_binomial_expansion_sum", _binomial_sum_one_term_short),
    "exact/even-shift": (exact, "_signed_bracket_power_sum", _bracket_sum_without_its_last_term),
    "exact/odd-shift": (exact, "_signed_bracket_power_sum", _bracket_sum_without_its_last_term),
    "exact/even-shift-recombined": (exact, "_binomial_expansion_sum", _binomial_sum_one_term_short),
    "exact/odd-shift-recombined": (exact, "_binomial_expansion_sum", _binomial_sum_one_term_short),
    "exact/even-shift-wrong-sign-rejected": (exact, "_signed_bracket_power_sum", _bracket_sum_sign_flipped),
    "exact/classical-limit-at-q1": (verification, "scaled_classical_euler", _classical_sign_flipped),
}


def test_every_exact_check_has_a_defect():
    names = {r.name for r in verification._exact_checks(MAX_N, MAX_K)}
    assert names == set(DEFECTS)
    assert all(r.passed for r in verification._exact_checks(MAX_N, MAX_K))


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_exact_check_fails_on_a_defect(monkeypatch, name):
    module, attr, defect = DEFECTS[name]
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    assert not _results(verification._exact_checks(MAX_N, MAX_K))[name].passed


def test_classical_limit_names_the_order_it_fails_at(monkeypatch):
    monkeypatch.setattr(verification, "scaled_classical_euler", _classical_sign_flipped(verification.scaled_classical_euler))
    check = _results(verification._exact_checks(MAX_N, MAX_K))["exact/classical-limit-at-q1"]
    assert check.detail == "q = 1 specialization matches the classical recurrence, failed at [3]"


def _interpolation(q):
    return _results(verification._numeric_checks(q, 2, DEFAULT_CONFIG))["numeric/interpolation"]


def test_interpolation_passes_and_keeps_its_detail():
    check = _interpolation(0.5)
    assert check.passed
    assert check.detail == "n = 1..12, worst rel err 8.93e-15"


def test_interpolation_fails_one_ulp_off(monkeypatch):
    # the value at order -5 one ulp above the exact E_5(q) rounded once: the
    # terms, the zero bound and the float recurrence's distance (1e-10) are
    # as before, so only the bits can tell
    build = zeta.terminating_alt_sum

    def one_ulp_off(n, h, q, x):
        v = build(n, h, q, x)
        return complex(math.nextafter(v.real, math.inf), v.imag) if n == 5 else v

    monkeypatch.setattr(zeta, "terminating_alt_sum", one_ulp_off)
    check = _interpolation(0.5)
    assert not check.passed
    assert check.detail == "n = 1..12, worst rel err 8.93e-15, failed at [5]"


READ_REDUCED = ("numeric/interpolation", "numeric/hurwitz-interpolation")


def _reduced_one_unit_off(build):
    # the constant coefficient of every reduced numerator one unit off
    def reduced(num, den, exps):
        value, cancelled = build(num, den, exps)
        coeffs = list(value.num) or [0]
        coeffs[0] += 1
        return RationalQ(coeffs, value.den), cancelled

    return reduced


@pytest.mark.parametrize("name", READ_REDUCED)
def test_reduced_value_checks_pass_undamaged(name):
    assert _results(verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG))[name].passed


@pytest.mark.parametrize("name", READ_REDUCED)
def test_reduced_value_checks_fail_one_unit_off(monkeypatch, name):
    # both compare bit for bit against exact_euler_number and exact_euler_poly,
    # whose values come from exact._reduced
    monkeypatch.setattr(exact, "_reduced", _reduced_one_unit_off(exact._reduced))
    assert not _results(verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG))[name].passed


def _continuity(q):
    return _results(verification._numeric_checks(q, MAX_N, DEFAULT_CONFIG))["numeric/continuation-continuity"]


def test_continuation_continuity_passes_undamaged():
    assert _continuity(0.5).passed


def test_continuation_continuity_fails_without_the_closed_form_mode(monkeypatch):
    # The one check that reads the nested series, on either side of order 3.
    # Each S_m sums the differences R_m with their N = 1 mode taken out and
    # adds that mode back in closed form, -(1-q)^(m-sigma), as the last term
    # of its dot products; dropped, every coefficient C(k + frac) moves by
    # [2]_q.  A defect of 1e-8 relative still passes the check's 1e-4 gap:
    # a check of the nested series' identity across its orders n, on one
    # order from two tables, would be the stronger side.
    extend = continuation._Try.extend

    def without_the_mode(self, top):
        cpow = continuation.cpow  # the mode is extend's one cpow
        continuation.cpow = lambda *args: 0j
        try:
            return extend(self, top)
        finally:
            continuation.cpow = cpow

    monkeypatch.setattr(continuation._Try, "extend", without_the_mode)
    assert not _continuity(0.5).passed


def _relatively_off(eps, at=None):
    # every value times 1 + eps, or only those of the calls whose last
    # argument is at
    def defect(build):
        def off(*args):
            value = build(*args)
            return value * (1.0 + eps) if at is None or args[-1] == at else value

        return off

    return defect


def _value_relatively_off(eps):
    def defect(build):
        def off(*args, **kwargs):
            sv = build(*args, **kwargs)
            return SeriesValue(sv.value * (1.0 + eps), sv.error_bound, sv.terms_used, sv.converged)

        return off

    return defect


# Each defect moves its check past its tolerance: a relative 1e-8 moves the
# integer rows' finite sums to 7.9e-9 against 1e-9, the numbers beside the
# order -n sums to 1.0e-8 against 1e-10, and the classical values at order
# -n to 1.6e-7 against 1e-12; a relative 1e-5 moves the derivatives to
# 1.00e-5 against 1e-6 and the value at order 60 to 1.50e-5 against 1e-6; a
# flipped sign (a relative -2) moves the numbers at q = 0.9999 to 2.00
# against 1e-2; and a relative 1e-12 in the sums at x = 1/2 moves the
# binomial formula to 141 times its rounding bound.
NUMERIC_DEFECTS = {
    "numeric/continuation-integer-consistency": (continuation, "terminating_alt_sum", _relatively_off(1e-8)),
    "numeric/interpolation": (verification, "euler_number", _relatively_off(1e-8)),
    "numeric/classical-euler-zeta": (verification, "classical_zeta_E", _value_relatively_off(1e-8)),
    "numeric/derivative-fd": (verification, "qzeta_deriv", _value_relatively_off(1e-5)),
    "numeric/large-order-limit": (verification, "qzeta", _value_relatively_off(1e-5)),
    "numeric/classical-bridge": (verification, "euler_number", _relatively_off(-2.0, at=0.9999)),
    "numeric/shift-expansion": (numeric, "terminating_alt_sum", _relatively_off(1e-12, at=0.5)),
}


def test_every_numeric_check_has_a_defect():
    # the defects above, the one-unit defects of the reduced values and the
    # closed-form mode dropped from the nested series
    covered = set(NUMERIC_DEFECTS) | set(READ_REDUCED) | {"numeric/continuation-continuity"}
    assert {r.name for r in verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG)} == covered


@pytest.mark.parametrize("name", sorted(NUMERIC_DEFECTS))
def test_numeric_check_passes_undamaged(name):
    assert _results(verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG))[name].passed


@pytest.mark.parametrize("name", sorted(NUMERIC_DEFECTS))
def test_numeric_check_fails_relatively_off(monkeypatch, name):
    module, attr, defect = NUMERIC_DEFECTS[name]
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    assert not _results(verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG))[name].passed


def test_only_the_large_order_limit_fails_at_q_zero():
    # [n]_0 = 1, so the value at order 60 is -1/2, not -(1+q) = -1; the
    # continuation checks sample w = 0 alone, off which E_0(s, w) has poles
    failed = [r.name for r in verification.run_checks(0, numeric_only=True) if not r.passed]
    assert failed == ["numeric/large-order-limit"]
