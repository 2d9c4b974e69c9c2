import io
import json
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from centersolve.cli import (
    EXIT_NO_METHOD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    run_command,
)
from conftest import near_one_plain, near_one_planted_roots

GOLDEN = Path(__file__).parent / "golden" / "quintic_solve.json"

QUATERNARY_CUBIC = (
    "7*x1^3 - 15*x1^2*x2 - 12*x1^2*x3 - 12*x1^2*x4 + 15*x1*x2^2 + 24*x1*x3^2"
    " + 48*x1*x3*x4 - 6*x1*x4^2 - 5*x2^3 - 19*x3^3 - 57*x3^2*x4 + 3*x3*x4^2 + x4^3"
)


def run(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def assert_json_equal(got, want, tol=1e-9):
    """Exact structural equality; float leaves compared within tol."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, dict):
        assert got.keys() == want.keys()
        for k in got:
            assert_json_equal(got[k], want[k], tol)
    elif isinstance(got, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_json_equal(g, w, tol)
    elif isinstance(got, float):
        assert abs(got - want) <= tol * max(1.0, abs(want))
    else:
        assert got == want


class TestSolve:
    def test_quintic_json_golden(self):
        code, out, _ = run(
            ["solve", "--input", "coeffs", "31 235 710 1070 805 242", "--format", "json"]
        )
        assert code == EXIT_OK
        got = json.loads(out)
        want = json.loads(GOLDEN.read_text())
        assert_json_equal(got, want)

    def test_quintic_fields(self):
        code, out, _ = run(
            ["solve", "--input", "coeffs", "31 235 710 1070 805 242", "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["class"] == "SumOfTwoPowers"
        assert doc["invariants"]["D1"] == "-8"
        assert doc["invariants"]["discriminant"] == "16"
        assert any(
            r["re"] == -2.0 and r["im"] == 0.0 and r["multiplicity"] == 1
            for r in doc["roots"]
        )
        assert doc["verification"]["passed"] is True

    def test_one_completion_per_solve(self, monkeypatch):
        # the roots and the printed decomposition share one completion of
        # the README quintic (two before the completion was handed back)
        import centersolve.solver as solver

        forms = []
        original = solver._complete_powers

        def counting(form, inv):
            forms.append(form)
            return original(form, inv)

        monkeypatch.setattr(solver, "_complete_powers", counting)
        code, out, _ = run(
            ["solve", "--input", "coeffs", "31 235 710 1070 805 242", "--format", "json"]
        )
        assert code == EXIT_OK
        assert len(forms) == 1
        want = json.loads(GOLDEN.read_text())["decomposition"]
        assert json.loads(out)["decomposition"] == want

    def test_decomposition_of_the_input_when_x_is_split_off(self):
        # (x+1)^3 - (2x+1)^3 = x * (quadratic): the roots come from the
        # quadratic, the printed completion is that of the cubic itself
        code, out, _ = run(["solve", "(x+1)^3 - (2*x+1)^3", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["class"] == "SumOfTwoPowers"
        summands = doc["decomposition"]["summands"]
        for x in range(-3, 4):
            total = sum(
                F(s["coefficient"]) * (F(s["linear_form"][0]) * x + F(s["linear_form"][1])) ** 3
                for s in summands
            )
            assert total == (x + 1) ** 3 - (2 * x + 1) ** 3

    def test_schema_keys_stable(self):
        code, out, _ = run(
            ["solve", "--input", "expr", "x^3 - 2*x + 1", "--format", "json"]
        )
        doc = json.loads(out)
        assert set(doc.keys()) == {
            "input",
            "degree",
            "class",
            "invariants",
            "roots",
            "decomposition",
            "verification",
            "center",
        }
        assert set(doc["invariants"].keys()) == {
            "D1",
            "D2",
            "D3",
            "discriminant",
            "hankel_rank",
        }

    def test_exact_values_are_strings(self):
        _, out, _ = run(
            ["solve", "--input", "coeffs", "1 -8/3 11/4 -5/4 5/48 1/8 -3/64 1/192",
             "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["invariants"]["D1"] == "-25/1764"
        assert doc["class"] == "LinearTimesPowerD1"
        mults = sorted(r["multiplicity"] for r in doc["roots"])
        assert mults == [1, 6]

    def test_quartic_fallback(self):
        code, out, _ = run(
            ["solve", "--input", "expr", "x^4 + x + 1", "--format", "json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["class"] == "NoNontrivialCenter"
        assert len(doc["roots"]) == 4
        # x times a trivial-center quartic: the x-free part takes that route
        for text in ("x^5 + x^2 + x", "x^6 + x^3 + x^2"):
            code, out, err = run(["solve", text, "--format", "json"])
            assert code == EXIT_OK, err
            doc = json.loads(out)
            assert doc["verification"]["passed"]
            assert sum(r["multiplicity"] for r in doc["roots"]) == doc["degree"]
        # a trivial center of degree 5: no method
        code, _, err = run(["solve", "x^5 + x + 1"])
        assert code == EXIT_NO_METHOD
        assert "not applicable" in err

    def test_binary_input_is_dehomogenized(self):
        code, out, err = run(["solve", "x^3 + 3*x^2*y + 3*x*y^2 + 9*y^3"])
        assert code == EXIT_OK, err
        assert "class: PowerPlusConstant" in out
        assert "verification: passed" in out

    def test_text_format(self):
        code, out, _ = run(["solve", "--input", "coeffs", "31 235 710 1070 805 242"])
        assert code == EXIT_OK
        assert "class: SumOfTwoPowers" in out
        assert "D1=-8" in out

    def test_no_verify_skips_oracle(self):
        _, out, _ = run(
            ["solve", "--input", "expr", "x^3 - 1", "--format", "json", "--no-verify"]
        )
        doc = json.loads(out)
        assert doc["verification"]["oracle_max_distance"] is None

    def test_oracle_distance_is_not_rounded_to_53_bits(self):
        # the radical and oracle roots of this sum agree far below 2^-53 of
        # their moduli; their distance is measured, not rounded to 0
        code, out, err = run(["solve", "(x+2)^40 + 3*(x-1)^40", "--format", "json"])
        assert code == EXIT_OK, err
        verification = json.loads(out)["verification"]
        assert 0 < verification["oracle_max_distance"] < 1e-9

    @pytest.mark.parametrize("eq", ["x^3 - 10^40", "x^3 - 2*10^60", "x^2 - 10^30"])
    def test_roots_beyond_1e10_verify_at_the_default_precision(self, eq):
        # the 64-bit radical roots (moduli 2e13, 1.3e20, 1e15) are about an
        # ulp off the oracle's, far beyond an absolute 1e-9 but within what
        # their doubles can show
        code, out, err = run(["solve", eq, "--format", "json"])
        assert code == EXIT_OK, err
        assert json.loads(out)["verification"]["passed"]

    def test_stdin(self, monkeypatch):
        code, out, _ = run(
            ["solve", "-", "--format", "json"],
            stdin_text="x^3 - 1",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert json.loads(out)["degree"] == 3

    def test_exit_verify_on_forced_mismatch(self, monkeypatch):
        import centersolve.cli as cli
        from centersolve.oracle import MatchReport

        def fake_compare(a, b, tol):
            return MatchReport(
                passed=False,
                structural_ok=True,
                max_distance=1.0,
                worst_index=0,
                pairs=[],
            )

        monkeypatch.setattr(cli, "compare_root_sets", fake_compare)
        code, out, err = run(
            ["solve", "--input", "expr", "x^3 - 1", "--format", "json"]
        )
        assert code == EXIT_VERIFY
        assert "verification failed" in err


class TestOtherCommands:
    def test_classify_perfect_power(self):
        code, out, _ = run(
            ["classify", "--input", "expr", "x^4+4*x^3+6*x^2+4*x+1", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["class"] == "PerfectPower"

    def test_decompose_ternary_cubic(self):
        text = (
            "x1^3 + 3*x2*x1^2 + 3*x3*x1^2 + 3*x2^2*x1 + 3*x3^2*x1 "
            "+ 6*x2*x3*x1 - x2^3 + 20*x3^3 - 21*x2*x3^2 + 15*x2^2*x3"
        )
        code, out, _ = run(["decompose", text, "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        dec = doc["decomposition"]
        assert dec["exact"] is True
        assert len(dec["summands"]) == 3
        assert doc["verification"]["passed"] is True
        summands = {
            (s["coefficient"], tuple(s["linear_form"])) for s in dec["summands"]
        }
        assert ("-2", ("0", "1", "-2")) in summands

    def test_decompose_univariate(self):
        code, out, _ = run(
            ["decompose", "--input", "coeffs", "31 235 710 1070 805 242",
             "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["decomposition"]["exact"] is True
        assert len(doc["decomposition"]["summands"]) == 2

    def test_center_command(self):
        code, out, _ = run(
            ["center", "--input", "coeffs", "31 235 710 1070 805 242", "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["center"]["dim"] == 2
        assert doc["center"]["commutative"] is True
        assert doc["center"]["lambda1"] == "-8"
        assert doc["center"]["lambda2"] == "-12"
        assert doc["invariants"]["hankel_rank"] == 2

    def test_center_text_format(self):
        code, out, _ = run(["center", "--input", "coeffs", "31 235 710 1070 805 242"])
        assert code == EXIT_OK
        assert "center: dim=2 commutative=True" in out
        assert "    [-5/2, -3/2]" in out
        assert "  lambda1 = -8, lambda2 = -12" in out

    def test_center_binary_input(self):
        # D1 = 0 for x^3 + y^3, so no eigenvalues are printed
        code, out, _ = run(["center", "x^3 + y^3", "--format", "json"])
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["center"]["dim"] == 2
        assert doc["center"]["lambda1"] is None

    @pytest.mark.parametrize("text", ["x^3 + y^3", "x1^3 + x2^3"])
    def test_center_binary_invariants(self, text):
        # every two-variable form gets its invariants, not only an equation
        code, out, _ = run(["center", text, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["invariants"] == {
            "D1": "0",
            "D2": "1",
            "D3": "0",
            "discriminant": "1",
            "hankel_rank": 2,
        }

    def test_center_nary(self):
        code, out, _ = run(
            ["center", "x1^3 + x2^3 + x3^3", "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["center"]["dim"] == 3

    def test_decompose_seed_and_precision_flags(self):
        code, out, _ = run(
            ["decompose", "x1^3 - 2*x2^3 + 3*x3^3", "--precision", "96",
             "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["verification"]["passed"] is True
        code, _, err = run(["decompose", "x1^3 - 2*x2^3 + 3*x3^3", "--seed", "7"])
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_decompose_repeated_spectrum(self):
        code, _, err = run(["decompose", "x1^2*x2"])
        assert code == EXIT_NO_METHOD
        assert "generic center element has a repeated spectrum" in err

    def test_oracle_command(self):
        code, out, _ = run(
            ["oracle", "--input", "expr", "x^3 - 6*x^2 + 11*x - 6", "--format", "json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        res = sorted(r["re"] for r in doc["roots"])
        assert all(abs(v - k) < 1e-9 for v, k in zip(res, (1, 2, 3)))


class TestSchemaStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--input", "expr", "x^3 - 2"],
            ["classify", "--input", "expr", "x^3 - 2"],
            ["decompose", "--input", "expr", "x^3 - 2*x + 1"],
            ["center", "--input", "expr", "x^3 - 2"],
            ["oracle", "--input", "expr", "x^3 - 2"],
            ["decompose", "x1^3 + x2^3"],
        ],
    )
    def test_all_commands_share_the_top_level_keys(self, argv):
        code, out, err = run(argv + ["--format", "json"])
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert set(doc.keys()) == {
            "input",
            "degree",
            "class",
            "invariants",
            "roots",
            "decomposition",
            "verification",
            "center",
        }


class TestExitCodes:
    def test_usage_error_no_args(self):
        code, _, err = run([])
        assert code == EXIT_USAGE

    def test_usage_error_missing_input(self):
        code, _, err = run(["solve"])
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_parse_error(self):
        code, _, err = run(["solve", "--input", "expr", "x^^2"])
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_parse_error_bad_coeffs(self):
        code, _, err = run(["solve", "--input", "coeffs", "1 two 3"])
        assert code == EXIT_PARSE

    def test_no_method(self):
        code, _, err = run(["solve", "--input", "expr", "x^5 + x + 1"])
        assert code == EXIT_NO_METHOD
        assert "not applicable" in err

    def test_help_exits_zero(self):
        # argparse prints help and exits; run_command converts that to a code
        code, out, _ = run(["--help"])
        assert code == 0

    def test_parser_is_built_once_per_process(self, monkeypatch):
        import centersolve.cli as cli

        assert run(["classify", "x^3 - 2"])[0] == EXIT_OK

        def rebuilt():
            raise AssertionError("run_command rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run(["classify", "x^3 - 2"])[0] == EXIT_OK
        assert run(["classify", "--precision", "x"])[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--no-verify", "x^3 - 8"],
            ["center", "--precision", "96", "x^3 - 8"],
            ["center", "--no-verify", "x^3 - 8"],
            ["decompose", "--no-verify", "x^3 - 8"],
            ["oracle", "--no-verify", "x^3 - 8"],
            ["classify", "--precision", "96", "x^3 - 8"],
        ],
        ids=lambda argv: argv[0] + argv[1],
    )
    def test_option_a_command_does_not_read_is_a_usage_error(self, argv):
        # --precision is read by solve, decompose and oracle only, and
        # --no-verify by solve only; elsewhere they used to be ignored
        code, _, err = run(argv)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err


class TestBatch:
    def test_batch_order_and_worst_code(self, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("x^3 - 1\nx^5 + x + 1\nx^3 - 8\n")
        code, out, err = run(["solve", "--batch", str(batch), "--format", "json"])
        assert code == EXIT_NO_METHOD
        docs = [json.loads(chunk) for chunk in _split_json_stream(out)]
        assert [d["input"] for d in docs] == ["x^3 - 1", "x^3 - 8"]

    def test_batch_missing_file(self):
        code, _, err = run(["solve", "--batch", "/nonexistent/file.txt"])
        assert code == EXIT_USAGE

    def test_internal_error_does_not_end_the_batch(self, tmp_path, monkeypatch):
        # a defect raised inside the solver on the first line (injected: no
        # known input raises one); the second line must still be solved
        import centersolve.cli as cli

        original = cli.solve_by_radicals

        def failing(eq, prec):
            if eq.degree == 4:
                raise ZeroDivisionError
            return original(eq, prec)

        monkeypatch.setattr(cli, "solve_by_radicals", failing)
        batch = tmp_path / "inputs.txt"
        batch.write_text(NEAR_ONE_RADICAND + "\n1 0 0 -8\n")
        code, out, err = run(
            ["solve", "--input", "coeffs", "--no-verify", "--format", "json",
             "--batch", str(batch)]
        )
        assert code == EXIT_NO_METHOD
        assert err.startswith("internal error: ZeroDivisionError")
        assert "Traceback" not in err
        (doc,) = [json.loads(chunk) for chunk in _split_json_stream(out)]
        assert doc["input"] == "1 0 0 -8"
        assert sorted(round(r["re"], 9) for r in doc["roots"]) == [-1, -1, 2]


NEAR_ONE_RADICAND = (
    "1/500000000000000000000000000000 "
    "250000000000000000000000000003/187500000000000000000000000000 "
    "1437500000000000000000000000009/187500000000000000000000000000 "
    "6203125000000000000000000000027/421875000000000000000000000000 "
    "23808593750000000000000000000081/2531250000000000000000000000000"
)


def _split_json_stream(text):
    chunks = []
    depth = 0
    start = None
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                chunks.append(text[start : i + 1])
    return chunks


class TestExitCodeTable:
    """Exit codes of failures raised inside a command."""

    @pytest.mark.parametrize(
        "text", ["31*x^5 + 235*x^4 + 710*x^3 + 1070*x^2 + 805*x + 242", "x^3 + 2*y^3"]
    )
    def test_decompose_check_failure_exits_verify(self, monkeypatch, text):
        import centersolve.cli as cli

        monkeypatch.setattr(cli, "check_decomposition", lambda f, dec, tol=1e-9: False)
        code, out, err = run(["decompose", text, "--format", "json"])
        assert code == EXIT_VERIFY
        assert "verification failed" in err
        assert json.loads(out)["verification"]["passed"] is False

    def test_oracle_nonconvergence_exits_verify(self, monkeypatch):
        import centersolve.cli as cli
        from centersolve.errors import NonConvergenceError

        def fail(*args, **kwargs):
            raise NonConvergenceError("no convergence after 500 iterations")

        monkeypatch.setattr(cli, "numeric_roots", fail)
        code, out, err = run(["solve", "x^3 - 2", "--format", "json"])
        assert code == EXIT_VERIFY
        assert "verification failed" in err
        assert json.loads(out)["verification"]["passed"] is False

    def test_every_library_error_is_not_applicable(self, monkeypatch):
        import centersolve.cli as cli
        from centersolve import errors

        kinds = [
            k for k in vars(errors).values()
            if isinstance(k, type) and issubclass(k, errors.CenterSolveError)
        ]
        for kind in kinds:
            def fail(eq, kind=kind):
                raise kind(2) if kind is errors.CenterRankError else kind("boom")

            monkeypatch.setattr(cli, "classify", fail)
            code, _, err = run(["classify", "x^3 - 2"])
            assert code == EXIT_NO_METHOD, kind
            assert err.startswith("not applicable:")

    def test_nary_decompose_is_checked_once(self, monkeypatch):
        import centersolve.cli as cli
        import centersolve.diagonalize as diagonalize

        calls = []
        original = diagonalize.check_decomposition

        def counting(f, dec, tol=1e-9):
            calls.append(f)
            return original(f, dec, tol=tol)

        monkeypatch.setattr(diagonalize, "check_decomposition", counting)
        monkeypatch.setattr(cli, "check_decomposition", counting)
        code, out, _ = run(["decompose", "x1^3 - 2*x2^3 + 3*x3^3", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["verification"]["passed"] is True
        assert len(calls) == 1

    def test_nary_decompose_computes_the_center_once(self, monkeypatch):
        # an irrational spectrum used to be found by a failed exact attempt,
        # then the center was computed again for the numeric one
        import centersolve.cli as cli
        import centersolve.diagonalize as diagonalize

        calls = []
        original = diagonalize.compute_center

        def counting(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(diagonalize, "compute_center", counting)
        monkeypatch.setattr(cli, "compute_center", counting)
        code, out, _ = run(["decompose", "4*x1^3 + 12*x1*x2^2 + 12*x1*x3^2 + 12*x2^2*x3"])
        assert code == EXIT_OK
        assert "3 summands of degree 3 (numeric)" in out
        assert len(calls) == 1


class TestRegressions:
    def test_decompose_close_conjugate_eigenvalues(self):
        # (x1 + a*x2)^3 + (x1 - a*x2)^3 with a^2 = 2e-24: the eigenvalues of
        # the generic element are 8.5e-12 apart, which a distance test took
        # for a repeated eigenvalue; at a^2 = 2e-40 they are 2.8e-20 apart,
        # certified within 2^-96, and split as well
        for zeros in (24, 40):
            code, out, err = run(["decompose", f"2*x1^3 + 12/1{'0' * zeros}*x1*x2^2"])
            assert code == EXIT_OK, err
            assert "decomposition: 2 summands of degree 3 (numeric)" in out
            assert "verification: passed" in out

    def test_summand_order_is_the_same_at_every_precision(self):
        # the two eigenvalues are real and 1.4e-12 apart, so their real
        # parts tie at 9 digits; rounding noise in their imaginary parts
        # once ordered them, differently at 64 and at 1200 bits
        orders = []
        for prec in ("64", "1200"):
            text = "2*x1^3 + 12/1000000000000000000000000*x1*x2^2"
            code, out, err = run(["decompose", text, "--precision", prec, "--format", "json"])
            assert code == EXIT_OK, err
            summands = json.loads(out)["decomposition"]["summands"]
            orders.append([s["linear_form"][1][0] > 0 for s in summands])
        assert orders[0] == orders[1] and sorted(orders[0]) == [False, True]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_json_is_strict_beyond_the_double_range(self, command):
        # the root 10^400, and the 2.8e380 between its 64-bit radical value
        # and the oracle's, are beyond the doubles: each is printed as a
        # string of its value, never as Infinity, which is not JSON
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        code, out, err = run([command, "(x - 10^400)*(x-1)*(x-2)", "--format", "json"])
        assert code == EXIT_OK, err
        doc = json.loads(out, parse_constant=refuse)
        big = [r for r in doc["roots"] if isinstance(r["re"], str)]
        assert len(big) == 1 and abs(Decimal(big[0]["re"]) - Decimal("1e400")) < Decimal("1e385")
        verification = doc["verification"]
        assert verification["passed"]
        if command == "solve":
            assert Decimal("1e379") < Decimal(verification["oracle_max_distance"]) < Decimal("1e383")
            _, text, _ = run([command, "(x - 10^400)*(x-1)*(x-2)"])
            assert "oracle max distance 2.8188068394758653e+380" in text

    def test_decompose_closer_conjugate_pair_fails_the_expand_back_check(self):
        # a^2 = 2e-60: the numeric split at 96 bits does not expand back to
        # f, and the one check of the power sum reports it as not applicable
        code, out, err = run(["decompose", f"2*x1^3 + 12/1{'0' * 60}*x1*x2^2"])
        assert code == EXIT_NO_METHOD
        assert out == ""
        assert "not applicable: the power sum does not expand back to the form" in err

    def test_quartic_real_root_prints_real(self):
        # 10^-30 x^4 + x^3 + x + 1: the three resolvent candidates agree to
        # 64 bits, and that noise once chose a complex alpha, so the real
        # root -0.6823278038280193 printed with im = -9.7e-19
        text = f"1/1{'0' * 30}*x^4 + x^3 + x + 1"
        code, out, err = run(["solve", "--format", "json", text])
        assert code == EXIT_OK, err
        roots = json.loads(out)["roots"]
        real = [r for r in roots if abs(r["re"] + 0.6823278038280193) < 1e-15]
        assert len(real) == 1 and abs(real[0]["im"]) < 1e-30, roots

    def test_decompose_repeated_rational_next_to_irrational_pair(self):
        # the first generic element has char poly (x - 7)^2 (x^2 - 4x + 25/4)
        code, out, err = run(["decompose", QUATERNARY_CUBIC])
        assert code == EXIT_OK, err
        assert "4 summands of degree 3 (numeric)" in out
        assert "verification: passed" in out

    def test_solve_huge_constant_without_verify(self):
        # x^3 = 10^400: the exact-root test used to raise OverflowError
        text = "x^3 - 1" + "0" * 400
        code, out, err = run(["solve", text, "--no-verify", "--format", "json"])
        assert code == EXIT_OK, err
        doc = json.loads(out)
        got = [complex(r["re"], r["im"]) for r in doc["roots"]]
        radius = 10 ** (400 / 3)
        want = [radius * complex(-0.5, s * 3**0.5 / 2) for s in (-1, 1)] + [radius]
        assert len(got) == 3
        for w in want:
            assert min(abs(g - w) for g in got) <= 1e-12 * radius
        assert doc["verification"]["passed"] is True

    def test_near_one_radicand_is_solved_without_verify(self):
        # the radicand lies within 1e-30 of 1, so 1 - w rounded to 0 at 64 bits
        code, out, err = run(
            ["solve", "--input", "coeffs", "--no-verify", "--format", "json",
             NEAR_ONE_RADICAND]
        )
        assert NEAR_ONE_RADICAND.split() == [str(c) for c in near_one_plain()]
        assert code == EXIT_OK, err
        doc = json.loads(out)
        got = [complex(r["re"], r["im"]) for r in doc["roots"]]
        want = near_one_planted_roots()
        assert len(got) == len(want) == 4
        for w in want:
            assert min(abs(g - w) for g in got) <= 1e-12 * max(1, abs(w))
        assert doc["verification"]["passed"] is True

    def test_center_of_two_variable_indexed_form(self):
        code, out, err = run(["center", "x1^3 + 3*x1^2*x2 + x2^3", "--format", "json"])
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert doc["center"]["dim"] == 2
        assert doc["center"]["lambda1"] is not None
