import json
import os
import pathlib
import subprocess
import sys

import pytest

from qeuler import QParameter, euler_number, euler_poly
from qeuler.cli import main, parse_complex


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _limit_memory():
    # A request that builds an unbounded list fails here instead of
    # exhausting the machine before the timeout.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def spawn(code, *args, timeout=10) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter under the memory limit."""
    return spawn_python("-c", code, *args, timeout=timeout)


def spawn_python(*argv, timeout=10) -> subprocess.CompletedProcess:
    """Run the interpreter with argv, src first on its path, under the memory limit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=_limit_memory if os.name == "posix" else None,
    )


def run_process(code, *args, timeout=10):
    """Run code in a fresh interpreter under the memory limit; returns the exit code."""
    return spawn(code, *args, timeout=timeout).returncode


def run_cli_process(args, timeout=10):
    """Run the CLI in a fresh interpreter; returns the exit code."""
    return run_process("from qeuler.cli import run; run()", *args, timeout=timeout)


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("0.5", 0.5 + 0j),
            ("-2", -2 + 0j),
            ("0.3+0.4i", 0.3 + 0.4j),
            ("0.3-0.4i", 0.3 - 0.4j),
            ("0.4i", 0.4j),
            ("-0.4i", -0.4j),
            ("1e-3", 1e-3 + 0j),
            ("1.5e2+2e-1i", 150 + 0.2j),
        ],
    )
    def test_accepts(self, text, expect):
        assert parse_complex(text) == expect

    @pytest.mark.parametrize("text", ["1.2+", "i", "0.5j", "abc", "1+2", "", "--"])
    def test_rejects(self, text):
        with pytest.raises(Exception):
            parse_complex(text)


class TestNumbers:
    def test_text_table(self, capsys):
        code, out = run_cli(capsys, ["numbers", "--q", "0.5", "--n", "3"])
        assert code == 0
        for token in ("0.75", "-0.5", "-0.2", "0.1333333333"):
            assert token in out

    def test_exact_rendering(self, capsys):
        code, out = run_cli(capsys, ["numbers", "--q", "0.5", "--n", "2", "--exact"])
        assert code == 0
        assert "(-1)/(2)" in out
        assert "(-1 + q)/(2 + 2*q^2)" in out

    def test_json_round_trip(self, capsys):
        code, out = run_cli(capsys, ["numbers", "--q", "0.5", "--n", "6", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == {"re": 0.5, "im": 0.0}
        for entry in payload["values"]:
            v = euler_number(entry["n"], QParameter(0.5))
            assert entry["re"] == v.real and entry["im"] == v.imag


class TestPoly:
    def test_value(self, capsys):
        code, out = run_cli(capsys, ["poly", "--q", "0.5", "--n", "2", "--x", "2"])
        assert code == 0
        assert "1.3" in out

    def test_exact_requires_integer_shift(self, capsys):
        code, _ = run_cli(capsys, ["poly", "--q", "0.5", "--n", "2", "--x", "0.5", "--exact"])
        assert code == 2

    def test_exact_shift_is_an_index(self, capsys):
        code = main(["poly", "--q", "0.5", "--n", "3", "--x", "2.5", "--exact"])
        assert code == 2
        assert capsys.readouterr().err == "error: --x must be a nonnegative integer, got (2.5+0j)\n"
        for fmt in ("text", "json"):
            _, want = run_cli(capsys, ["poly", "--q", "0.5", "--n", "3", "--x", "2", "--exact", "--format", fmt])
            assert run_cli(capsys, ["poly", "--q", "0.5", "--n", "3", "--x", "2.0", "--exact", "--format", fmt]) == (0, want)

    def test_exact_rejects_infinite_shift(self, capsys):
        code = main(["poly", "--q", "0.5", "--n", "2", "--x", "1e999", "--exact"])
        assert code == 2
        assert "nonnegative integer" in capsys.readouterr().err

    def test_csv_round_trip(self, capsys):
        code, out = run_cli(
            capsys,
            ["poly", "--q", "0.5", "--n", "3", "--x", "0.7", "--format", "csv"],
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,x_re,x_im,h,re,im"
        fields = row.split(",")
        v = euler_poly(3, 0.7, 0, QParameter(0.5))
        assert float(fields[4]) == v.real


class TestZeta:
    def test_series_fields_reported(self, capsys):
        code, out = run_cli(capsys, ["zeta", "--q", "0.5", "--s", "-2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["re"] == pytest.approx(-0.2)
        assert payload["terms_used"] == 3
        assert payload["converged"] is True
        assert "error_bound" in payload

    def test_hurwitz_and_deriv_switches(self, capsys):
        code, out = run_cli(
            capsys, ["zeta", "--q", "0.5", "--s", "-3", "--x", "2", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["kind"] == "zeta-hurwitz"
        code, out = run_cli(
            capsys, ["zeta", "--q", "0.5", "--s", "1.25", "--deriv", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["kind"] == "zeta-derivative"

    def test_deriv_rejects_negative_shift(self, capsys):
        code, out = run_cli(capsys, ["zeta", "--q", "0.5", "--s", "2.5", "--x", "-0.5", "--deriv"])
        assert code == 2
        assert "inf" not in out

    def test_non_convergence_exit(self, capsys):
        code, _ = run_cli(
            capsys,
            ["zeta", "--q", "0.5", "--s", "2.5", "--x", "0", "--max-terms", "50"],
        )
        assert code == 3


class TestContinue:
    def test_value(self, capsys):
        code, out = run_cli(
            capsys, ["continue", "--q", "0.5", "--s", "2", "--w", "0.5", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["re"] == pytest.approx(-0.2568542494923805)

    def test_deriv_conflicts_with_w(self, capsys):
        code, _ = run_cli(
            capsys, ["continue", "--q", "0.5", "--s", "2", "--w", "0.5", "--deriv"]
        )
        assert code == 2

    def test_negative_order_rejected(self, capsys):
        code, _ = run_cli(capsys, ["continue", "--q", "0.5", "--s", "-1"])
        assert code == 2

    @pytest.mark.parametrize("s", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("w", [[], ["--w", "0.5"], ["--deriv"]])
    def test_order_named_as_given(self, capsys, s, w):
        assert main(["continue", "--q", "0.5", "--s", s, *w]) == 2
        assert capsys.readouterr().err == f"error: continue needs a finite --s >= 0, got {float(s)!r}\n"

    def test_non_finite_w_is_a_usage_error(self, capsys):
        # it used to exit 3 with "overflow", as a finite w beyond the float
        # range still does
        assert main(["continue", "--q", "0.5", "--s", "2.5", "--w", "1e999"]) == 2
        assert capsys.readouterr().err == "error: w must be finite, got (inf+0j)\n"

    def test_zero_q_at_a_fractional_order(self, capsys):
        # q^((k + 0.5) w) at q = 0 is 0, but its k = -1 term raises 0 to a
        # negative power
        assert main(["continue", "--q", "0", "--s", "2.5", "--w", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: 0 raised to power")

    def test_leading_dot_negative_literal(self, capsys):
        code, out = run_cli(capsys, ["continue", "--q", "0.5", "--s", "2", "--w", "-.25"])
        assert code == 0
        assert out == "E_q(2, -0.25) = " + f"{euler_poly(2, -0.25, 0, QParameter(0.5)).real:.10g}\n"

    def test_negative_w_literal(self, capsys):
        code, out = run_cli(
            capsys, ["continue", "--q", "0.5", "--s", "2", "--w", "-0.25", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["re"] == pytest.approx(
            euler_poly(2, -0.25, 0, QParameter(0.5)).real
        )


class TestCurve:
    def test_csv_and_json_carry_identical_samples(self, capsys):
        args = ["curve", "--q", "0.5", "--s-range", "2:3:0.25", "--w-range", "-0.5:0.5:0.25"]
        code, csv_out = run_cli(capsys, args)
        assert code == 0
        code, json_out = run_cli(capsys, args + ["--format", "json"])
        assert code == 0
        rows = csv_out.strip().splitlines()
        assert rows[0] == "s,w,re,im"
        csv_vals = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
        payload = json.loads(json_out)
        json_vals = [(d["s"], d["w"], d["re"], d["im"]) for d in payload["samples"]]
        assert csv_vals == json_vals

    def test_json_round_trips_bitwise(self, capsys):
        args = [
            "curve", "--q", "0.5",
            "--s-range", "2:2.5:0.25",
            "--w-range", "0:0.5:0.25",
            "--format", "json",
        ]
        _, out1 = run_cli(capsys, args)
        payload = json.loads(out1)
        assert json.loads(json.dumps(payload)) == payload

    def test_grid_dimensions(self, capsys):
        code, out = run_cli(
            capsys,
            ["curve", "--q", "0.5", "--s-range", "2:3:0.5", "--w-range", "-0.5:0.5:0.5",
             "--format", "json"],
        )
        assert code == 0
        assert len(json.loads(out)["samples"]) == 9

    def test_text_format_rejected(self, capsys):
        code = main(
            ["curve", "--q", "0.5", "--s-range", "2:3:0.5", "--w-range", "0:0.5:0.5",
             "--format", "text"]
        )
        assert code == 2

    def test_bad_range_grammar(self, capsys):
        code = main(["curve", "--q", "0.5", "--s-range", "2:3", "--w-range", "0:0.5:0.5"])
        assert code == 2


class TestVerify:
    def test_passes_and_annotates(self, capsys):
        code, out = run_cli(capsys, ["verify", "--q", "0.5", "--max-n", "4", "--max-k", "4"])
        assert code == 0
        assert "FAIL" not in out
        assert "expected deviation" in out
        assert "-(1+q)" in out

    def test_any_failing_check_exits_one(self, capsys, monkeypatch):
        from qeuler import cli as cli_mod
        from qeuler.verification import CheckResult

        def fake_checks(*args, **kwargs):
            return [
                CheckResult("stub/ok", True, "fine"),
                CheckResult("stub/broken", False, "not fine"),
            ]

        monkeypatch.setattr(cli_mod, "run_checks", fake_checks)
        code, out = run_cli(capsys, ["verify", "--q", "0.5"])
        assert code == 1
        assert "[FAIL] stub/broken" in out

    def test_exact_only(self, capsys):
        code, out = run_cli(capsys, ["verify", "--q", "0.5", "--max-n", "3", "--exact-only"])
        assert code == 0
        assert "numeric/" not in out

    def test_numeric_only(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--q", "0.5", "--max-n", "3", "--max-k", "2", "--numeric-only"]
        )
        assert code == 0
        assert "exact/" not in out


class TestUsageErrors:
    def test_invalid_q(self, capsys):
        assert main(["numbers", "--q", "1.5", "--n", "2"]) == 2

    def test_bad_complex_literal(self, capsys):
        assert main(["zeta", "--q", "1.2+", "--s", "1"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            "continue --q 0.5 --s inf --w 0",
            "curve --q 0.5 --s-range 0:inf:1 --w-range 0:0:1",
            "continue --q 0.5 --s nan",
            "numbers --q 0.5 --n -1",
            "verify --q 0.5 --max-n -1",
            "verify --q 0.5 --max-k 1",
            "verify --q 2 --exact-only",
        ],
    )
    def test_bad_number_is_a_usage_error(self, capsys, command):
        assert main(command.split()) == 2
        assert capsys.readouterr().out == ""


class TestBudget:
    @pytest.mark.parametrize(
        "command,code",
        [
            # more terms than max_terms: stop at once with exit 3
            ("zeta --q 0.5 --s -1e20", 3),
            ("continue --q 0.5 --s 1e300", 3),
            ("continue --q 0.5 --s 1e300 --w 0", 3),
            ("curve --q 0.5 --s-range 1e300:1e300:1 --w-range 0:0:1", 3),
            # grids above MAX_GRID_CELLS are refused before any point is built
            ("curve --q 0.5 --s-range 0:1e12:1 --w-range 0:0:1", 2),
            # large integer shifts take the float path
            ("poly --q 0.3 --n 4 --x 20000", 0),
            ("zeta --q 0.3 --s -4 --x 20000", 0),
        ],
    )
    def test_finishes_in_time(self, command, code):
        assert run_cli_process(command.split()) == code

    @pytest.mark.parametrize(
        "command",
        [
            "numbers --q 0.5 --n 16 --max-terms 16",
            "numbers --q 0.5 --n 16 --max-terms 16 --exact",
            "poly --q 0.5 --n 20 --x 0.5 --max-terms 16",
            "poly --q 0.5 --n 20 --x 2 --max-terms 16 --exact",
            "poly --q 0.5 --n 4000 --x 0.5 --max-terms 16",
        ],
    )
    def test_numbers_and_poly_keep_the_term_budget(self, capsys, monkeypatch, command):
        # E_0..E_n and E_n(x, h | q) are order -n sums of n + 1 terms: above
        # max_terms they exit 3, as zeta does, before any value is computed.
        # The float entries check the budget themselves, before they read q.
        from qeuler import cli, numeric

        def refused(*args):
            raise AssertionError("computed past the term budget")

        for module, name in ((cli, "_euler_numerators"), (cli, "exact_euler_poly"),
                             (numeric, "as_qparameter"), (numeric, "terminating_alt_sum")):
            monkeypatch.setattr(module, name, refused)
        assert main(command.split()) == 3
        assert capsys.readouterr().out == ""

    def test_over_budget_order_is_named_not_its_term_count(self, capsys):
        assert main(["continue", "--q", "0.5", "--s", "1e300", "--w", "0.5"]) == 3
        err = capsys.readouterr().err
        assert err == "error: non-convergence: order 1e+300 has more terms than max_terms=10000\n"

    def test_classical_zeta_at_huge_nonpositive_order(self):
        # n + 1 terms above max_terms: refused before the exact sum starts
        code = (
            "from qeuler import NonConvergenceError, classical_zeta_E\n"
            "try:\n    classical_zeta_E(-1e20)\n"
            "except NonConvergenceError:\n    raise SystemExit(3)"
        )
        assert run_process(code) == 3


class TestOverflow:
    @pytest.mark.parametrize(
        "command",
        [
            "continue --q 0.5 --s 0.5 --w 4000",
            "poly --q 0.5 --n 2 --x -4000",
            "continue --q 0.5 --s 3.01 --w -299",
            "continue --q 0.1 --s 1030.5 --w 0.5",
            "poly --q 0.5 --n 3 --x -700",
            "continue --q 0.5 --s 2.5 --w -1023.5",
            "numbers --q 0.99 --n 230",
        ],
    )
    def test_overflow_exits_three_with_one_error_line(self, command):
        # q^w, [w]_q, a power of [w]_q, a binomial weight or a q-Euler number
        # overflows a float: a numerical failure, not a crash and not a
        # printed inf or nan
        proc = spawn("from qeuler.cli import run; run()", *command.split())
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestIndexArguments:
    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_negative_count_exits_two_with_one_error_line(self, exact):
        # the exact path indexes a table by n, so it must refuse n < 0 first
        proc = spawn("from qeuler.cli import run; run()", "numbers", "--q", "0.5", "--n", "-1", *exact)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --n must be a nonnegative integer, got -1\n"

    def test_verify_names_max_n(self, capsys):
        assert main(["verify", "--q", "0.5", "--max-n", "-1"]) == 2
        assert capsys.readouterr().err == "error: max_n must be a nonnegative integer, got -1\n"


class TestModuleEntry:
    def test_python_m_qeuler_prints_what_main_prints(self, capsys):
        args = ["numbers", "--q", "0.5", "--n", "3"]
        assert main(args) == 0
        proc = spawn_python("-m", "qeuler", *args)
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out and proc.stderr == ""

    def test_python_m_qeuler_usage_error_exits_two(self):
        proc = spawn_python("-m", "qeuler", "numbers", "--q", "0.5")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
