"""Each exact check of ``qeuler verify``, its series-termination check, the
numeric checks that read the Q(q) engine's reduced values and the numeric
checks below fail when what they evaluate carries a small defect: one unit
or one ulp off, 1e-8 relatively off, a flipped sign, or a dropped term."""

import math

import pytest

from qeuler import continuation, exact, verification, zeta
from qeuler.exact import PolyZ, RationalQ
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


def _series_termination(q):
    return _results(verification._numeric_checks(q, 2, DEFAULT_CONFIG))["numeric/series-termination"]


def test_series_termination_passes_and_keeps_its_detail():
    check = _series_termination(0.5)
    assert check.passed
    assert check.detail == "order -n sums stop at n+1 terms with zero bound"


def test_series_termination_fails_one_ulp_off(monkeypatch):
    # the value at order -5 one ulp above the exact E_5(q) rounded once: the
    # terms and the zero bound are as before, so only the bits can tell
    build = zeta.terminating_alt_sum

    def one_ulp_off(n, h, q, x):
        v = build(n, h, q, x)
        return complex(math.nextafter(v.real, math.inf), v.imag) if n == 5 else v

    monkeypatch.setattr(zeta, "terminating_alt_sum", one_ulp_off)
    assert not _series_termination(0.5).passed


READ_REDUCED = ("numeric/series-termination", "numeric/hurwitz-interpolation")


def _reduced_one_unit_off(build):
    # the constant coefficient of every reduced numerator one unit off
    def reduced(num, den, exps):
        value, cancelled = build(num, den, exps)
        coeffs = list(value.num.coeffs) or [0]
        coeffs[0] += 1
        return RationalQ(PolyZ(coeffs), value.den), cancelled

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


def _relatively_off(build):
    return lambda *args: build(*args) * (1.0 + 1e-8)


def _value_relatively_off(build):
    def off(*args, **kwargs):
        sv = build(*args, **kwargs)
        return SeriesValue(sv.value * (1.0 + 1e-8), sv.error_bound, sv.terms_used, sv.converged)

    return off


# A relative defect of 1e-8 in what each check evaluates moves it past its
# tolerance: the integer rows' finite sums to 7.9e-9 against 1e-9, the
# numbers beside the order -n sums to 1.0e-8 against 1e-10, and the
# classical values at order -n to 1.6e-7 against 1e-12.
NUMERIC_DEFECTS = {
    "numeric/continuation-integer-consistency": (continuation, "terminating_alt_sum", _relatively_off),
    "numeric/interpolation": (verification, "euler_number", _relatively_off),
    "numeric/classical-euler-zeta": (verification, "classical_zeta_E", _value_relatively_off),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_DEFECTS))
def test_numeric_check_passes_undamaged(name):
    assert _results(verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG))[name].passed


@pytest.mark.parametrize("name", sorted(NUMERIC_DEFECTS))
def test_numeric_check_fails_relatively_off(monkeypatch, name):
    module, attr, defect = NUMERIC_DEFECTS[name]
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    assert not _results(verification._numeric_checks(0.5, MAX_N, DEFAULT_CONFIG))[name].passed
