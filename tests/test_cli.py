"""CLI contract: subcommands, exit codes, output formats, round-trips."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import fracquat
from fracquat import CYLINDRICAL, CRat, canon
from fracquat.cli import load_field_spec, main
from fracquat.parser import MAX_FACTORS
from fracquat.quatops import FORMAL

from strategies import exprs

DATA = Path(__file__).parent / "data"
DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
CYL_SPEC = {"alpha": 0.5, "frame": "cylindrical", "components": {"f0": "P(r,1)"}}
ABSTRACT_SPEC = {
    "alpha": 0.5,
    "frame": "cylindrical",
    "components": {"f0": "f0", "f1": "f1", "f2": "f2", "f3": "f3"},
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApply:
    def test_laplacian_scalar_power(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CYL_SPEC)
        code, out, _ = run(capsys, ["apply", spec, "-o", "laplacian"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "f0 = P(r,-1)"
        assert lines[1:] == ["f1 = 0", "f2 = 0", "f3 = 0"]

    def test_zero_field_any_operator(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"alpha": 0.5, "frame": "spherical"})
        for op in ("mt", "mt-right", "laplacian", "bitsadze", "helmholtz"):
            code, out, _ = run(capsys, ["apply", spec, "-o", op])
            assert code == 0
            assert all(line.endswith(" = 0") for line in out.strip().splitlines())

    def test_structured_output_roundtrips(self, tmp_path, capsys):
        spec = write_spec(tmp_path, ABSTRACT_SPEC)
        for op in ("mt", "mt-right", "laplacian", "bitsadze", "helmholtz"):
            code, out, _ = run(capsys, ["apply", spec, "-o", op, "--format", "structured"])
            assert code == 0
            doc = json.loads(out)
            assert doc["frame"] == "cylindrical"
            for text in doc["components"].values():
                # every rendered canonical expression re-parses to itself
                assert str(canon(text, CYLINDRICAL)) == text

    def test_mt_abstract_components(self, tmp_path, capsys):
        spec = write_spec(tmp_path, ABSTRACT_SPEC)
        code, out, _ = run(capsys, ["apply", spec, "-o", "mt", "--format", "structured"])
        doc = json.loads(out)
        scalar = canon(doc["components"]["f0"], CYLINDRICAL)
        expected = canon(
            "-(d(f1,r) + P(r,-1)*d(f2,theta) + P(r,-1)*f1 + d(f3,z))", CYLINDRICAL
        )
        assert scalar == expected

    def test_numeric_lambda_is_put_in_before_the_operator(self, tmp_path, capsys):
        # Ea(i lam, z) solves Laplacian f + lam^2 f = 0; at lam = 2 it reads as 0
        doc = {"alpha": 0.5, "frame": "cartesian", "components": {"f0": "Ea(1i*lam, z)"},
               "lambda": "2"}
        code, out, _ = run(capsys, ["apply", write_spec(tmp_path, doc), "-o", "helmholtz"])
        assert (code, out) == (0, "f0 = 0\nf1 = 0\nf2 = 0\nf3 = 0\n")
        code, out, _ = run(capsys, ["apply", write_spec(tmp_path, doc), "-o", "mt"])
        assert out.splitlines()[3] == "f3 = 2i*Ea(2i, z)"

    def test_bad_spec_missing_alpha(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"frame": "cylindrical"})
        code, _, err = run(capsys, ["apply", spec, "-o", "mt"])
        assert code == 2
        assert "alpha" in err

    def test_bad_spec_alpha_range(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"alpha": 1.5, "frame": "cylindrical"})
        code, _, err = run(capsys, ["apply", spec, "-o", "mt"])
        assert code == 2

    def test_bad_spec_unknown_frame(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"alpha": 0.5, "frame": "toroidal"})
        code, _, err = run(capsys, ["apply", spec, "-o", "mt"])
        assert code == 2

    def test_bad_spec_component_parse_error(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, {"alpha": 0.5, "frame": "cylindrical", "components": {"f0": "P(x,1)"}}
        )
        code, _, err = run(capsys, ["apply", spec, "-o", "mt"])
        assert code == 2
        assert "position" in err

    def test_bad_spec_unknown_component_key(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, {"alpha": 0.5, "frame": "cylindrical", "components": {"f9": "1"}}
        )
        code, _, err = run(capsys, ["apply", spec, "-o", "mt"])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["apply", "/nonexistent.json", "-o", "mt"])
        assert code == 2


class TestVerify:
    def test_all_passes_and_streams_fourteen_reports(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert all(line.startswith("PASS") for line in lines)

    def test_single_identity_single_frame(self, capsys):
        code, out, _ = run(capsys, ["verify", "mt_squared", "--frame", "cylindrical"])
        assert code == 0
        assert out.strip() == "PASS mt_squared cylindrical (mode=derivation)"

    def test_structured_reports(self, capsys):
        code, out, _ = run(capsys, ["verify", "mt_squared", "--format", "structured"])
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["frame"] for d in docs] == ["cartesian", "cylindrical", "spherical"]
        assert all(d["pass"] for d in docs)
        assert all(d["residuals"] == ["0", "0", "0", "0"] for d in docs)

    def test_structured_output_matches_recorded_file(self, capsys):
        # recorded while CRat held two Fractions; the coefficient layout must not show
        code, out, _ = run(capsys, ["verify", "--format", "structured"])
        assert code == 0
        assert out == (DATA / "verify_structured.jsonl").read_text(encoding="utf-8")

    def test_text_output_matches_recorded_file(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert out == (DATA / "verify.txt").read_text(encoding="utf-8")

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense", "--frame", "cylindrical"])
        assert exc.value.code == 2

    def test_failing_identity_exits_one_with_its_residuals(self, capsys, monkeypatch):
        # "spherical" resolves to a frame whose h_3 lacks sina(theta): its
        # derived forms disagree with the spherical hand forms
        sph = fracquat.SPHERICAL
        r = canon("P(r,1)", sph)
        bad = fracquat.Frame("spherical", sph.variables, (1, r, r))
        monkeypatch.setattr("fracquat.quatops.frame_by_name", lambda name: bad)
        code, out, _ = run(capsys, ["verify", "mt_squared", "--frame", "spherical"])
        assert code == 1
        prefix = "FAIL mt_squared spherical (mode=derivation) residuals: "
        [line] = out.splitlines()
        assert line.startswith(prefix)
        residuals = line[len(prefix) :].split("; ")
        assert residuals == fracquat.verify_identity("mt_squared", bad).residual_strings()
        assert len(residuals) == 4 and residuals != ["0"] * 4
        argv = ["verify", "mt_squared", "--frame", "spherical", "--format", "structured"]
        code, out, _ = run(capsys, argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False and doc["residuals"] == residuals


class TestDiff:
    def test_derivation_mode(self, capsys):
        code, out, _ = run(
            capsys, ["diff", "P(r,1)*f1", "--var", "r", "--frame", "cylindrical"]
        )
        assert code == 0
        assert out.strip() == "f1 + P(r,1)*d(f1,r)"

    def test_gamma_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["diff", "P(x,3)", "--var", "x", "--frame", "cartesian", "--mode", "gamma"],
        )
        assert code == 0
        assert out.strip() == "P(x,2)"

    def test_gamma_mode_violation(self, capsys):
        code, _, err = run(
            capsys,
            ["diff", "f1*f2", "--var", "x", "--frame", "cartesian", "--mode", "gamma"],
        )
        assert code == 2

    def test_gamma_mode_violation_renders_the_product(self, capsys):
        argv = ["diff", "lam*sina(theta)*P(r,1)", "--var", "r", "--frame", "cylindrical"]
        assert run(capsys, argv + ["--mode", "gamma"]) == (
            2,
            "",
            "error: gamma mode handles only linear combinations over the J-basis; "
            "got generator product lam*P(r,1)*sina(theta)\n",
        )

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["diff", "P(r,", "--var", "r", "--frame", "cylindrical"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["diff", "-sina(theta)", "--var", "theta", "--frame", "cylindrical"],
            ["diff", "--var", "theta", "-sina(theta)", "--frame", "cylindrical"],
            ["diff", "--var", "theta", "--frame", "cylindrical", "-sina(theta)"],
            ["diff", "--var", "theta", "--frame", "cylindrical", "--", "-sina(theta)"],
        ],
    )
    def test_expression_starting_with_minus(self, capsys, argv):
        assert run(capsys, argv) == (0, "-cosa(theta)\n", "")

    def test_short_negative_expressions(self, capsys):
        argv = ["diff", "-f1", "--var", "r", "--frame", "cylindrical"]
        assert run(capsys, argv) == (0, "-d(f1,r)\n", "")
        argv = ["diff", "-lam*P(r,2)", "--var", "r", "--frame", "cylindrical"]
        code, out, _ = run(capsys, argv + ["--format", "structured"])
        assert code == 0 and json.loads(out)["derivative"] == "-2*lam*P(r,1)"
        assert json.loads(out)["input"] == "-lam*P(r,2)"


class TestEval:
    def test_scalar_power(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CYL_SPEC)
        code, out, _ = run(capsys, ["eval", spec, "--at", "r=2"])
        assert code == 0
        f0_line = out.strip().splitlines()[0]
        value = complex(f0_line.split("=", 1)[1].strip())
        assert abs(value - 2.0**0.5) < 1e-12

    def test_alpha_override_structured(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CYL_SPEC)
        code, out, _ = run(
            capsys,
            ["eval", spec, "--at", "r=2", "--alpha", "1", "--format", "structured"],
        )
        doc = json.loads(out)
        assert abs(doc["components"]["f0"]["re"] - 2.0) < 1e-12

    def test_unbound_symbol(self, tmp_path, capsys):
        spec = write_spec(tmp_path, ABSTRACT_SPEC)
        code, _, err = run(capsys, ["eval", spec, "--at", "r=2,theta=0.3,z=1"])
        assert code == 2

    def test_lam_value(self, tmp_path, capsys):
        doc = {
            "alpha": 1.0,
            "frame": "cylindrical",
            "components": {"f0": "Ea(1i*lam, z)"},
        }
        spec = write_spec(tmp_path, doc)
        code, out, _ = run(capsys, ["eval", spec, "--at", "z=1", "--lam", "2"])
        assert code == 0
        value = complex(out.strip().splitlines()[0].split("=", 1)[1].strip())
        assert abs(value - complex(math.cos(2), math.sin(2))) < 1e-10

    def test_lam_option_reads_the_spec_grammar(self, tmp_path, capsys):
        doc = {"alpha": 1.0, "frame": "cylindrical", "components": {"f0": "lam^2*Ea(lam, z)"}}
        spec = write_spec(tmp_path, doc)
        with_lambda = write_spec(tmp_path, dict(doc, **{"lambda": "1/2+2i"}), "lambda.json")
        by_option = run(capsys, ["eval", spec, "--at", "z=1", "--lam", "1/2+2i"])
        by_spec = run(capsys, ["eval", with_lambda, "--at", "z=1"])
        assert by_option == by_spec and by_option[0] == 0
        # --lam overrides the spec, also back to formal
        code, _, err = run(capsys, ["eval", spec, "--at", "z=1", "--lam", "formal"])
        assert (code, err) == (2, "error: expression contains lam but no lam value was given"
                                  " in component f0\n")

    @pytest.mark.parametrize("value, message", [
        ("1e5", "unexpected trailing input 'e5' (at position 1)"),
        ("1+2j", "unexpected trailing input 'j' (at position 3)"),
        ("nan", "unknown identifier 'nan' (at position 0)"),
        ("lam", "lambda must be a complex constant or 'formal', got 'lam'"),
    ])
    def test_lam_option_texts_the_dsl_refuses(self, tmp_path, capsys, value, message):
        spec = write_spec(tmp_path, CYL_SPEC)
        argv = ["eval", spec, "--at", "r=2", "--lam", value]
        where = " in --lam" if "position" in message else ""  # a DSL error names --lam
        assert run(capsys, argv) == (2, "", f"error: {message}{where}\n")

    def test_bad_point_variable(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CYL_SPEC)
        code, _, err = run(capsys, ["eval", spec, "--at", "x=2"])
        assert code == 2

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        # Ea(20, r) at r = 1 sums E_(1/2)(20), which does not settle in 500 terms;
        # this used to end in a SeriesConvergenceError traceback
        doc = {"alpha": 0.5, "frame": "cylindrical", "components": {"f0": "Ea(20, r)"}}
        spec = write_spec(tmp_path, doc)
        code, out, err = run(capsys, ["eval", spec, "--at", "r=1,theta=0.5,z=1"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ml_exp did not converge") and err.count("\n") == 1

    def test_non_convergence_names_component_generator_and_argument(self, tmp_path, capsys):
        components = {"f1": "P(r,1)", "f2": "sina(r)*Ea(20, r)"}
        doc = {"alpha": 0.5, "frame": "cylindrical", "components": components}
        spec = write_spec(tmp_path, doc)
        code, out, err = run(capsys, ["eval", spec, "--at", "r=1,theta=0.5,z=1"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ml_exp did not converge") and err.count("\n") == 1
        assert err.endswith(") for Ea(20, r) at u = 20.0 in component f2\n")


class TestSeries:
    def test_exponential(self, capsys):
        code, out, _ = run(capsys, ["series", "Ea", "--alpha", "1", "--u", "1"])
        assert code == 0
        assert "2.718281828" in out
        assert "terms" in out

    def test_sina_zero(self, capsys):
        code, out, _ = run(capsys, ["series", "sina", "--alpha", "0.3", "--u", "0"])
        assert code == 0
        assert out.strip().endswith("= 0.0 (1 terms)")

    def test_half_order_value(self, capsys):
        code, out, _ = run(
            capsys,
            ["series", "Ea", "--alpha", "0.5", "--u", "1", "--tol", "1e-9",
             "--format", "structured"],
        )
        doc = json.loads(out)
        assert abs(doc["value"]["re"] - 5.008980) < 1e-6

    def test_complex_argument(self, capsys):
        code, out, _ = run(
            capsys,
            ["series", "cosa", "--alpha", "1", "--u", "1+0i", "--format", "structured"],
        )
        doc = json.loads(out)
        assert abs(doc["value"]["re"] - math.cos(1)) < 1e-12

    def test_non_convergence_exit_code(self, capsys):
        code, _, err = run(capsys, ["series", "Ea", "--alpha", "0.5", "--u", "1e8"])
        assert code == 1
        assert "converge" in err

    def test_bad_alpha(self, capsys):
        code, _, err = run(capsys, ["series", "Ea", "--alpha", "2", "--u", "1"])
        assert code == 2

    @pytest.mark.parametrize("u", ["-1+2i", "-1e-3", "-2i", "-1"])
    def test_value_starting_with_minus(self, capsys, u):
        attached = run(capsys, ["series", "Ea", "--alpha", "0.5", f"--u={u}"])
        assert run(capsys, ["series", "Ea", "--alpha", "0.5", "--u", u]) == attached
        assert attached[0] == 0 and attached[1].startswith(f"Ea(alpha=0.5, u={u}) = ")

    def test_real_argument_prints_real_value(self, capsys):
        code, out, _ = run(capsys, ["series", "Ea", "--alpha", "1", "--u", "-1"])
        assert code == 0 and out.startswith("Ea(alpha=1.0, u=-1) = ")
        value = out.split(" = ")[1].split(" (")[0]
        assert abs(float(value) - math.exp(-1)) < 1e-12

    def test_printed_values_are_pinned(self, capsys):
        # each line of the file names its call: kind(alpha=A, u=U) = value (n terms)
        lines = (DATA / "series.txt").read_text().splitlines(keepends=True)
        assert len(lines) >= 12
        for line in lines:
            kind, rest = line.split("(alpha=", 1)
            alpha, u = rest.split(") = ", 1)[0].split(", u=")
            assert run(capsys, ["series", kind, "--alpha", alpha, "--u", u]) == (0, line, "")


class TestInputValidation:
    """Non-finite numbers and boolean alphas are usage errors (exit 2)
    with a one-line message, not values passed on to the library."""

    def assert_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_point_value(self, tmp_path, capsys, value):
        spec = write_spec(tmp_path, CYL_SPEC)
        self.assert_usage_error(capsys, ["eval", spec, "--at", f"r={value}"])

    @pytest.mark.parametrize("value", ["nan", "inf", "1+nanj"])
    def test_non_finite_lam(self, tmp_path, capsys, value):
        spec = write_spec(tmp_path, CYL_SPEC)
        self.assert_usage_error(capsys, ["eval", spec, "--at", "r=2", "--lam", value])

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_tol(self, tmp_path, capsys, value):
        spec = write_spec(tmp_path, CYL_SPEC)
        self.assert_usage_error(capsys, ["eval", spec, "--at", "r=2", f"--tol={value}"])
        series = ["series", "Ea", "--alpha", "0.5", "--u", "1", f"--tol={value}"]
        self.assert_usage_error(capsys, series)

    def test_separate_negative_values(self, tmp_path, capsys):
        argv = ["series", "Ea", "--alpha", "0.5", "--u", "1", "--tol", "-inf"]
        assert run(capsys, argv) == (2, "", "error: tol must be positive and finite, got -inf\n")
        self.assert_usage_error(capsys, ["series", "Ea", "--alpha", "-0.5", "--u", "1"])
        spec = write_spec(tmp_path, CYL_SPEC)
        self.assert_usage_error(capsys, ["eval", spec, "--at", "r=2", "--lam", "-inf"])

    @pytest.mark.parametrize("option", ["--to", "--t"])
    def test_abbreviated_number_option(self, capsys, option):
        # an abbreviation takes a negative value as its full name does
        argv = ["series", "Ea", "--alpha", "0.5", "--u", "1", option, "-inf"]
        assert run(capsys, argv) == (2, "", "error: tol must be positive and finite, got -inf\n")
        argv = ["series", "Ea", "--al", "-0.5", "--u", "1"]
        assert run(capsys, argv) == (2, "", "error: alpha must lie in (0, 1], got -0.5\n")

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_alpha(self, tmp_path, capsys, value):
        spec = write_spec(tmp_path, dict(CYL_SPEC, alpha=value))
        self.assert_usage_error(capsys, ["apply", spec, "-o", "mt"])
        self.assert_usage_error(capsys, ["eval", spec, "--at", "r=2"])

    @pytest.mark.parametrize("value, expected", [
        (None, FORMAL), ("formal", FORMAL), (2, 2), ("1/2+2i", CRat(Fraction(1, 2), 2)),
        # a JSON number is read exactly, from its shortest repr
        (0.1, CRat(Fraction(1, 10))), (1e-07, CRat(Fraction(1, 10**7))), (1e300, 10**300),
    ])
    def test_lambda_values(self, tmp_path, value, expected):
        spec = write_spec(tmp_path, dict(CYL_SPEC, **{"lambda": value}))
        assert load_field_spec(spec)[2] == expected

    @pytest.mark.parametrize("value, message", [
        (True, "'lambda' must be a string or a number, not a boolean"),
        ([2], "'lambda' must be a string or a number, not an array"),
        ({"re": 2}, "'lambda' must be a string or a number, not an object"),
        (math.inf, "'lambda' must be finite, not inf"),
        ("1e5", "unexpected trailing input 'e5' (at position 1)"),
    ])
    def test_lambda_of_another_type(self, tmp_path, capsys, value, message):
        spec = write_spec(tmp_path, dict(CYL_SPEC, **{"lambda": value}))
        where = " in 'lambda'" if "position" in message else ""  # a DSL error names 'lambda'
        for argv in (["apply", spec, "-o", "mt"], ["eval", spec, "--at", "r=2"]):
            assert run(capsys, argv) == (2, "", f"error: {message}{where}\n")

    @pytest.mark.parametrize("doc, lam, message", [
        ({"f2": "P(r,1"}, None, "expected ')', found None (at position 5) in component f2"),
        ({"f0": "1", "f3": "P(x,1)"}, None,
         "variable 'x' is not in the active frame ('r', 'theta', 'z') (at position 2)"
         " in component f3"),
        ({"f1": "2^100000000*P(r,1)"}, None,
         f"a term's coefficient would pass {DIGITS} digits (at position 1) in component f1"),
        ({"f0": "P(r,1)", "lambda": "1 +"}, None,
         "unexpected token None (at position 3) in 'lambda'"),
        ({"f0": "P(r,1)", "lambda": "2"}, "1+2j",
         "unexpected trailing input 'j' (at position 3) in --lam"),
        # a value put in for lam past the bound names the component it is put in
        ({"f0": "P(r,1)", "f1": "lam^1000000000", "lambda": "2"}, None,
         f"a coefficient passes the int digit limit ({DIGITS} digits) in component f1"),
    ])
    def test_spec_errors_name_their_input(self, tmp_path, capsys, doc, lam, message):
        components = {k: v for k, v in doc.items() if k != "lambda"}
        extra = {"lambda": doc["lambda"]} if "lambda" in doc else {}
        spec = write_spec(tmp_path, dict(CYL_SPEC, components=components, **extra))
        option = [] if lam is None else ["--lam", lam]
        argvs = [["eval", spec, "--at", "r=2,theta=1,z=1", *option]]
        if lam is None:
            argvs.append(["apply", spec, "-o", "laplacian"])
        for argv in argvs:
            assert run(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["1", "-inf"])
    def test_unrecognized_argument_is_one_line(self, capsys, value):
        # "-inf" is moved behind a "--", which the message does not show
        with pytest.raises(SystemExit) as exc:
            main(["series", "Ea", "--alpha", "0.5", "--u", "1", "--bogus", value])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: unrecognized arguments: --bogus {value}\n")

    def test_variable_outside_the_frame(self, capsys):
        # the parser rejects theta in the expression; --var is held to the same frame
        argv = ["diff", "P(x,1)", "--var", "theta", "--frame", "cartesian"]
        assert run(capsys, argv) == (2, "", "error: variable 'theta' is not in frame cartesian\n")

    def test_product_past_the_term_budget(self, capsys):
        # 1000 by 1001 terms is past the 10^6 term pairs one product may form
        a = " + ".join(f"P(r,{n})" for n in range(1, 1001))
        b = " + ".join(f"P(z,{n})" for n in range(1, 1001))
        argv = ["diff", f"({a})*(({b}) + f1)", "--var", "r", "--frame", "cylindrical"]
        self.assert_usage_error(capsys, argv)

    @pytest.mark.parametrize(
        "text, position", [("2^100000000*P(r,1)", 1), ("(2*P(r,1))^100000000", 10)]
    )
    def test_power_coefficient_past_the_limit(self, capsys, text, position):
        argv = ["diff", text, "--var", "r", "--frame", "cylindrical"]
        code, out, err = run(capsys, argv)
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        message = f"a term's coefficient would pass {digits} digits"
        assert (code, out, err) == (2, "", f"error: {message} (at position {position})\n")

    def test_term_coefficient_past_the_limit(self, capsys):
        # each power is within the power bound; the product of the two is not
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        power = f"2^{int(digits * math.log2(10))}"
        argv = ["diff", f"{power}*{power}*P(r,1)", "--var", "r", "--frame", "cylindrical"]
        message = f"a term's coefficient would pass {digits} digits"
        position = len(power) + 1
        assert run(capsys, argv) == (2, "", f"error: {message} (at position {position})\n")

    def test_output_coefficient_past_the_digit_limit(self, capsys):
        # the input is within every parser bound; d_alpha's factor 2 takes
        # the coefficient past the digit limit, and render refuses it
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        text = f"2^{int(digits * math.log2(10))}*P(r,2)"
        argv = ["diff", text, "--var", "r", "--frame", "cylindrical"]
        message = f"a coefficient passes the int digit limit ({digits} digits)"
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    def test_exponent_past_the_double_range(self, capsys):
        # 10^400 is no float; a power is formed in the ring, which bounds its coefficient
        big = "1" + "0" * 400
        argv = ["diff", f"lam^{big}", "--var", "r", "--frame", "cylindrical"]
        assert run(capsys, argv) == (0, "0\n", "")
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        message = f"a term's coefficient would pass {digits} digits"
        argv = ["diff", f"2^{big}", "--var", "r", "--frame", "cylindrical"]
        assert run(capsys, argv) == (2, "", f"error: {message} (at position 1)\n")

    def test_output_exponent_past_the_digit_limit(self, capsys):
        # every coefficient is 1; the exponent of r is a product past the digit limit
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        nines = "9" * (digits - 1)
        argv = ["diff", f"P(r,{nines})^{nines}*P(z,1)", "--var", "z", "--frame", "cylindrical"]
        message = f"an exponent passes the int digit limit ({digits} digits)"
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    def test_component_power_past_max_factors(self, capsys):
        argv = ["diff", "f1^100000000", "--var", "r", "--frame", "cylindrical"]
        message = f"a power of component symbols is past {MAX_FACTORS}"
        assert run(capsys, argv) == (2, "", f"error: {message} (at position 2)\n")

    @pytest.mark.parametrize(
        "text",
        [" + ".join(["f1"] * 1001), "(" * 201 + "f1" + ")" * 201, "d(" * 1000 + "f1" + ",r)" * 1000],
        ids=["1001 terms", "201 parentheses", "1000 d(...)"],
    )
    def test_input_past_a_parser_limit(self, capsys, text):
        self.assert_usage_error(capsys, ["diff", text, "--var", "r", "--frame", "cylindrical"])


_JUNK = st.text(alphabet="()+-*/^,.i $_dfPEa0123456789\u00b2\u00a0\u03bb", min_size=1, max_size=4)


@st.composite
def mangled_texts(draw):
    """DSL text as drawn, cut short, or with junk put in at a random place."""
    text = draw(exprs())
    cut = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(("keep", "truncate", "insert")))
    if how == "truncate":
        return text[:cut]
    if how == "insert":
        return text[:cut] + draw(_JUNK) + text[cut:]
    return text


@settings(max_examples=150, deadline=None)
@given(
    mangled_texts(),
    st.sampled_from(("r", "theta", "z", "x")),
    st.sampled_from(("derivation", "gamma")),
)
def test_any_text_ends_in_an_exit_status_and_one_line(text, var, mode):
    """The CLI contract: exit 0, 1 or 2 and at most one line on stderr.  An
    exception escaping main, which the console script would print as a
    traceback, fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["diff", text, "--var", var, "--frame", "cylindrical", "--mode", mode])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= (0 if code == 0 else 1)


# one field spec per frame, each component with a generator that can leave
# the double range, divide by zero or call for a value that is not bound
_EVAL_SPECS = {
    "cartesian": {"f0": "P(x,2)*P(y,-1)", "f1": "Ea(1,z)", "f2": "sina(x)^-2", "f3": "lam*P(z,-3)"},
    "cylindrical": {
        "f0": "P(r,1)*P(theta,1)", "f1": "P(r,-3)",
        "f2": "cosa(theta)*Ea(-2,z)", "f3": "lam^2*P(z,2)",
    },
    "spherical": {
        "f0": "P(r,-1)*sina(theta)^-1", "f1": "Ea(1i,psi)",
        "f2": "cosa(theta)^3", "f3": "P(r,2)*Ea(2,r)",
    },
}
_POINT_VALUES = st.one_of(
    st.floats(min_value=0.01, max_value=10),  # ordinary
    st.one_of(
        st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
        st.floats(min_value=1e300, max_value=1.7976931348623157e308),  # huge
        st.floats(max_value=-5e-324, allow_infinity=False),  # negative
        st.floats(),  # any, nan and the infinities among them
    ),
)


@pytest.fixture(scope="module")
def eval_specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    paths = {}
    for frame, components in _EVAL_SPECS.items():
        doc = {"alpha": 0.5, "frame": frame, "components": components, "lambda": 2}
        paths[frame] = write_spec(root, doc, f"{frame}.json")
    return paths


@st.composite
def eval_points(draw):
    """A frame and a point for it: a value for each of its variables, then
    now and then a variable left out, and entries put in that repeat a
    variable, name one of another frame or are not var=value."""
    frame = draw(st.sampled_from(tuple(_EVAL_SPECS)))
    variables = fracquat.FRAMES[frame].variables
    entries = [f"{v}={draw(_POINT_VALUES)!r}" for v in variables]
    if draw(st.booleans()):
        del entries[draw(st.integers(0, 2))]
    extra = st.one_of(
        st.builds("{}={!r}".format, st.sampled_from(variables + ("x", "w")), _POINT_VALUES),
        st.sampled_from(("", "r", "=1", "r=", "theta=1e400")),
    )
    for text in draw(st.lists(extra, max_size=2)):
        entries.insert(draw(st.integers(0, len(entries))), text)
    return frame, ",".join(entries)


@settings(max_examples=150, deadline=None)
@given(eval_points(), st.sampled_from((None, "0.3", "0.5", "1")))
def test_any_point_ends_in_an_exit_status_and_one_line(eval_specs, drawn, alpha):
    """The CLI contract for eval, as for diff above: exit 0, 1 or 2 and at
    most one line on stderr, whatever the point."""
    frame, point = drawn
    argv = ["eval", eval_specs[frame], "--at", point] + (["--alpha", alpha] if alpha else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= (0 if code == 0 else 1)


def test_closed_stdout_ends_in_exit_1_and_one_line():
    # `fracquat verify | head -1`: the reader closes the pipe, so a report
    # meets a closed stdout.  That is exit 1 with one stderr line: not a
    # usage error, and no traceback from the flush at shutdown.  The pipe's
    # read end is closed before the child starts, so its first write fails
    # on every run, however fast the host.
    env = {**os.environ, "PYTHONPATH": str(Path(fracquat.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fracquat", "verify"], env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert done.stderr == "error: stdout was closed before the output ended\n"


def test_start_up_leaves_out_the_heavy_stdlib_modules():
    # -S keeps site from importing anything, so sys.modules holds only what
    # the interpreter and fracquat.cli load; this reads no clock
    heavy = ("dataclasses", "inspect", "ast", "typing", "fractions", "decimal")
    code = f"import sys, fracquat.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(fracquat.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
