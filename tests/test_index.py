"""One index check for every order, offset and integer shift.

Every public entry reads them through kernel.as_index: -1 and 2.5 raise
ValueError naming the argument, and 2.0 is taken as 2, with the same bits.
"""

import pytest

from qeuler import (
    classical_euler_number,
    classical_euler_poly,
    euler_number,
    euler_numbers,
    euler_poly,
    exact_euler_number,
    exact_euler_poly,
    qzeta,
    qzeta_deriv,
    qzeta_hurwitz,
    verify_identity,
)
from qeuler.kernel import as_index
from qeuler.numeric import scaled_classical_euler
from qeuler.verification import run_checks

# (argument name, the entry called with that argument set to v and valid
# values elsewhere); 2 is a valid value of every argument.
ENTRIES = [
    ("n", lambda v: euler_numbers(v, 0.5)),
    ("n", lambda v: euler_number(v, 0.3 + 0.4j)),
    ("n", lambda v: euler_poly(v, 1, 0, 0.5)),
    ("h", lambda v: euler_poly(2, 0.5, v, 0.9)),
    ("n", scaled_classical_euler),
    ("n", classical_euler_number),
    ("n", lambda v: classical_euler_poly(v, 0.25)),
    ("n", lambda v: euler_poly(v, 0.25 + 0.5j, 0, 0.5)),
    ("h", lambda v: qzeta_hurwitz(2.5, 0.5, v, 0.5)),
    ("h", lambda v: qzeta(2.5, v, 0.5)),
    ("h", lambda v: qzeta_hurwitz(-3, 2, v, 0.5)),
    ("h", lambda v: qzeta_deriv(1.25, v, 0.5, x=0.5)),
    ("n", exact_euler_number),
    ("n", lambda v: exact_euler_poly(v, 2, 0)),
    ("x", lambda v: exact_euler_poly(3, v, 0)),
    ("h", lambda v: exact_euler_poly(3, 2, v)),
    ("n", lambda v: verify_identity("odd-shift", v, 3)),
    ("k", lambda v: verify_identity("binomial-expansion", 3, v)),
    ("max_n", lambda v: run_checks(0.5, max_n=v, exact_only=True)),
    ("max_k", lambda v: run_checks(0.5, max_n=2, max_k=v, exact_only=True)),
]
IDS = [f"{i}-{name}" for i, (name, _) in enumerate(ENTRIES)]


class TestAsIndex:
    @pytest.mark.parametrize("value,expect", [(0, 0), (3, 3), (2.0, 2), (5 + 0j, 5), (-0.0, 0), (2**70, 2**70)])
    def test_takes_nonnegative_integers(self, value, expect):
        got = as_index(value, "n")
        assert got == expect and type(got) is int

    @pytest.mark.parametrize("value", [-1, -2.0, 2.5, 1j, 2 + 1e-12j, float("inf"), float("nan")])
    def test_names_the_argument(self, value):
        with pytest.raises(ValueError, match=r"^order must be a nonnegative integer, got "):
            as_index(value, "order")


class TestEveryEntry:
    @pytest.mark.parametrize("name,call", ENTRIES, ids=IDS)
    @pytest.mark.parametrize("bad", [-1, 2.5])
    def test_refuses_and_names_the_argument(self, name, call, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be a nonnegative integer, got {bad}$"):
            call(bad)

    @pytest.mark.parametrize("name,call", ENTRIES, ids=IDS)
    def test_takes_two_point_zero_as_two(self, name, call):
        # repr tells -0.0 from 0.0, so equal reprs are equal bits
        assert repr(call(2.0)) == repr(call(2))

    def test_max_k_is_read_before_its_least_value(self):
        # 2.5 >= 2 used to pass and fail the four shift checks with TypeError
        with pytest.raises(ValueError, match=r"^max_k must be a nonnegative integer, got 2.5$"):
            run_checks(0.5, max_n=2, max_k=2.5, exact_only=True)
        with pytest.raises(ValueError, match=r"^max_k must be at least 2 "):
            run_checks(0.5, max_n=2, max_k=1.0, exact_only=True)
        got = run_checks(0.5, max_n=2, max_k=4.0, exact_only=True)
        assert got == run_checks(0.5, max_n=2, max_k=4, exact_only=True)
        assert all(r.passed for r in got)

    def test_poly_vs_recurrence_ignores_k(self):
        assert verify_identity("poly-vs-recurrence", 3, -1)
        assert verify_identity("poly-vs-recurrence", 3, 2.5)

    @pytest.mark.parametrize(
        "identity,k,message",
        [
            ("odd-shift", 3.5, "k must be a nonnegative integer, got 3.5"),
            ("even-shift", -2, "k must be a nonnegative integer, got -2"),
            ("odd-shift", 0, "odd-shift requires a positive odd k, got 0"),
            ("odd-shift-recombined", 2.0, "odd-shift-recombined requires a positive odd k, got 2"),
            ("even-shift", 0, "even-shift requires a positive even k, got 0"),
            ("even-shift-wrong-sign", 3, "even-shift-wrong-sign requires a positive even k, got 3"),
        ],
    )
    def test_shift_identities_read_k_then_its_parity(self, identity, k, message):
        with pytest.raises(ValueError) as info:
            verify_identity(identity, 5, k)
        assert str(info.value) == message
