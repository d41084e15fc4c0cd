"""Boundary inputs of the command line, each run in a fresh interpreter.

Every row is an argv for `python -m fracquat`, the exit code it must end
in and what it must print.  A row that fails ends in exit 1 or 2 with
exactly one line on stderr, which ends in the given text.  A row that
succeeds prints exactly the given stdout and nothing on stderr.  Each run
has 20 seconds, so an input that the limits should stop early cannot
pass by being slow.  An argv may be a function of a scratch directory,
for the inputs too long to write out and those that read a file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracquat

BIG_EXPONENT = "1" + "0" * 400  # past the double range


def diff(text):
    return ["diff", text, "--var", "r", "--frame", "cylindrical"]


def spec(text, command="eval", at="r=1,theta=0.5,z=1", operator="mt"):
    """argv that runs `eval` (at a point) or `apply` on a field spec file holding text."""
    options = {"eval": ["--at", at], "apply": ["-o", operator]}[command]

    def build(tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(text)
        return [command, str(path), *options]

    return build


def long_literal(tmp_path):
    # one digit past the interpreter's int digit limit
    return diff("1" * (sys.get_int_max_str_digits() + 1))


INF = "(term 499 has magnitude inf)"


def lam_spec(f0, lam):
    """A Cartesian field spec text with component f0 and the spec's lambda."""
    return json.dumps({"alpha": 1, "frame": "cartesian", "components": {"f0": f0}, "lambda": lam})


LAM_POWER = "lam^1000000000*P(x,1)"
NOT_A_VALUE = "'f0' must be a string or a number, not "

# (argv, exit code, stderr line end or, at exit 0, the exact stdout)
ROWS = {
    "long sum": (lambda _: diff(" + ".join(["f1"] * 1001)), 2, ""),
    "deep nest": (lambda _: diff("(" * 201 + "f1" + ")" * 201), 2, ""),
    "unknown option": (["series", "Ea", "--alpha", "0.5", "--u", "1", "--bogus", "1"], 2, ""),
    # a series argument must parse to a finite complex number
    "series u inf": (
        ["series", "Ea", "--alpha", "0.5", "--u=inf"], 2, "complex number 'inf' is not finite"
    ),
    "series u nan part": (
        ["series", "Ea", "--alpha", "0.5", "--u=1+nani"], 2, "complex number '1+nani' is not finite"
    ),
    "series u not a number": (
        ["series", "Ea", "--alpha", "0.5", "--u=abc"], 2, "cannot parse complex number 'abc'"
    ),
    # a power of a sum stops at the product budget
    "power of a sum": (diff("(P(r,1) + 1)^1000000"), 2, ""),
    # so does one whose terms hold component symbols, which each pair merges
    "power of a component sum": (diff("(f1 + 1)^1000000"), 2, ""),
    # --var is held to the frame, like the variables of the expression
    "var outside the frame": (["diff", "P(x,1)", "--var", "theta", "--frame", "cartesian"], 2, ""),
    # a sum that cannot settle within the term cap is refused before any
    # term is summed, and names the budget and the magnitude of its last term
    "series at the cap": (
        ["series", "Ea", "--alpha", "0.5", "--u", "20"],
        1,
        "within the 499-term budget (term 499 has magnitude 8.009e+157)",
    ),
    # an overflowed term is reported as inf for a complex argument too
    "overflowed term": (
        ["series", "Ea", "--alpha", "0.3", "--u", "20+1i"], 1, "budget " + INF
    ),
    # so is u^2 past the double range in sina and cosa
    "u squared overflows": (
        ["series", "sina", "--alpha", "0.5", "--u", "1e200"], 1, "budget " + INF
    ),
    # and so is a sum whose terms' parts stay finite while their modulus
    # passes the double range, which the loop would meet at term 385, and
    # a u whose modulus abs() cannot hold, which counts as inf
    "modulus overflows in the loop": (
        ["series", "cosa", "--alpha", "0.15392785036507609",
         "--u=-3.2481912923852962+3.1353549599831267i"],
        1,
        "budget " + INF,
    ),
    "modulus overflows at the first term": (
        ["series", "sina", "--alpha", "1", "--u=1.5e308+1.5e308i"],
        1,
        "sin_alpha did not converge to tol=1e-12 within the 499-term budget " + INF,
    ),
    # a series that does not converge inside eval is exit 1, not a traceback,
    # and its line names the generator, its argument and the component
    "eval does not converge": (
        spec('{"alpha": 0.5, "frame": "cylindrical", "components": {"f0": "Ea(20, r)"}}'),
        1,
        "for Ea(20, r) at u = 20.0 in component f0",
    ),
    # a trig generator is named by its factor without the power: sina(r),
    # not sina(r)^2
    "eval sina does not converge": (
        spec('{"alpha": 0.5, "frame": "cylindrical", "components": {"f2": "sina(r)^2*cosa(z)"}}',
             at="r=400,theta=0.5,z=1"),
        1,
        "sin_alpha did not converge to tol=1e-12 within the 499-term budget"
        " (term 499 has magnitude 9.821e+166) for sina(r) at u = 20.0 in component f2",
    ),
    "eval cosa does not converge": (
        spec('{"alpha": 0.5, "frame": "cylindrical", "components": {"f1": "cosa(z)*Ea(2i, r)"}}',
             at="r=1,theta=0.5,z=900"),
        1,
        "for cosa(z) at u = 30.0 in component f1",
    ),
    # a generator power or a coefficient with no finite value, and a value
    # past the double range, end eval in one line that names it, the point
    # and the component, not in a traceback or an inf
    "eval power past the double range": (
        spec('{"alpha": 0.5, "frame": "spherical", "components": {"f0": "P(r,-3)"}}',
             at="r=1e-320,theta=1,psi=1"),
        2,
        "P(r,-3) has no finite value at r = 1e-320 in component f0",
    ),
    # the component named is the one that failed, here the only one
    "eval component past the double range": (
        spec('{"alpha": 0.5, "frame": "spherical",'
             ' "components": {"f0": "P(r,1)", "f1": "P(r,-3)"}}', at="r=1e-320,theta=1,psi=1"),
        2,
        "P(r,-3) has no finite value at r = 1e-320 in component f1",
    ),
    "eval sina power past the double range": (
        spec('{"alpha": 1, "frame": "spherical", "components": {"f0": "sina(theta)^-1"}}',
             at="r=1,theta=1e-320,psi=1"),
        2,
        "sina(theta)^-1 has no finite value at theta = 1e-320 in component f0",
    ),
    "eval value past the double range": (
        spec('{"alpha": 1, "frame": "cylindrical", "components": {"f0": "P(r,1)*P(theta,1)"}}',
             at="r=1e200,theta=1e200"),
        2,
        "the value (inf+0j) is not finite at r = 1e+200, theta = 1e+200 in component f0",
    ),
    "eval coefficient past the double range": (
        spec('{"alpha": 1, "frame": "cylindrical", "components": {"f0": "2^2000*P(r,1)"}}'),
        2,
        "a coefficient has no finite value in component f0",
    ),
    # a variable given twice in the point is refused, not overwritten
    "eval repeated point variable": (
        spec('{"alpha": 1, "frame": "cylindrical", "components": {"f0": "P(r,1)"}}',
             at="r=1,theta=1,z=1,r=2"),
        2,
        "variable 'r' is given twice in the point",
    ),
    # a point value that is not a number names its entry and variable
    "eval point value not a number": (
        spec('{"alpha": 1, "frame": "cylindrical", "components": {"f0": "P(r,1)"}}',
             at="r=x,theta=1,z=1"),
        2,
        "point entry 'r=x': 'r' needs a number",
    ),
    "literal past the digit limit": (long_literal, 2, "(at position 0)"),
    # a power whose coefficient could not be rendered stops at its '^'
    "power of a number": (diff("2^100000000*P(r,1)"), 2, "digits (at position 1)"),
    "power of a term": (diff("(2*P(r,1))^100000000"), 2, "digits (at position 10)"),
    # an exponent past the double range is formed in the ring, not estimated in floats
    "exponent past the double range": (diff("2^" + BIG_EXPONENT), 2, "digits (at position 1)"),
    # so does a product of powers that are each within that bound, at the
    # factor that takes the term's coefficient past the digit limit
    "product of powers": (diff("2^14284*2^14284*P(r,1)"), 2, "4300 digits (at position 8)"),
    # and a power of a sum, at its '^', as its first square passes it
    "power of a sum past the digit limit": (
        diff("(2^14000*P(r,1) + 1)^512"),
        2,
        "4300 digits (at position 20)",
    ),
    # an output coefficient that d_alpha takes past the digit limit is
    # refused by the ring with our message, not the interpreter's
    "derivative past the digit limit": (diff("2^14284*P(r,2)"), 2, "int digit limit (4300 digits)"),
    # a power of a component symbol past MAX_FACTORS stops at its '^'
    "power of a component": (diff("f1^100000000"), 2, "past 1000 (at position 2)"),
    # a huge exponent on one generator must be quick (squared, not multiplied out)
    "power of a generator": (diff("P(r,1)^100000000"), 0, "100000000*P(r,99999999)\n"),
    # so is a power of lam past the double range, whose derivative in r is 0
    "power of lam": (diff("lam^" + BIG_EXPONENT), 0, "0\n"),
    # a numeric lambda is put in for lam exactly, before any operator or eval
    # runs; its power is formed by squaring, so at 2 it stops at the bound
    "lambda power past the digit limit": (
        spec(lam_spec(LAM_POWER, "2"), "apply"), 2, "int digit limit (4300 digits) in component f0"
    ),
    "lambda power past the digit limit in eval": (
        spec(lam_spec(LAM_POWER, "2"), at="x=1,y=1,z=1"),
        2,
        "int digit limit (4300 digits) in component f0",
    ),
    # while at 1i it cycles to 1, so f0 is P(x,1), and Laplacian f + lam^2 f is -f
    "lambda power that cycles": (
        spec(lam_spec(LAM_POWER, "1i"), "apply", operator="helmholtz"),
        0,
        "f0 = -P(x,1)\nf1 = 0\nf2 = 0\nf3 = 0\n",
    ),
    # Ea factors whose scales become equal merge, and the lam^3 terms cancel
    "lambda merges Ea factors": (
        spec(lam_spec("Ea(lam, x)*Ea(2, x)^-1 + lam^3*P(x,1) - 8*P(x,1)", "2"), at="x=1,y=1,z=1"),
        0,
        "f0 = (1+0j)\nf1 = 0j\nf2 = 0j\nf3 = 0j\n",
    ),
    # an error in a spec's text names the component, 'lambda' or --lam it is in
    "spec component parse error": (
        spec('{"alpha": 0.5, "frame": "cylindrical", "components": {"f2": "P(r,1"}}', "apply"),
        2,
        "expected ')', found None (at position 5) in component f2",
    ),
    "spec lambda parse error": (
        spec(lam_spec("P(x,1)", "1+2j"), "apply"),
        2,
        "trailing input 'j' (at position 3) in 'lambda'",
    ),
    "lam option parse error": (
        lambda tmp_path: [*spec(lam_spec("P(x,1)", "2"), at="x=1,y=1,z=1")(tmp_path), "--lam=1 +"],
        2,
        "unexpected token None (at position 3) in --lam",
    ),
    # field spec values that json.load gives but the spec does not take
    "alpha an array": (spec('{"alpha": [0.5], "frame": "cylindrical"}'), 2, "not an array"),
    "alpha null": (spec('{"alpha": null, "frame": "cylindrical"}', "apply"), 2, "not null"),
    "alpha a string": (spec('{"alpha": "0.5", "frame": "cylindrical"}'), 2, "not a string"),
    "alpha a padded string": (
        spec('{"alpha": " 5e-1 ", "frame": "cylindrical"}', "apply"), 2, "not a string"
    ),
    "frame an array": (spec('{"alpha": 0.5, "frame": ["x"]}'), 2, "not an array"),
    "frame an object": (spec('{"alpha": 0.5, "frame": {"a": 1}}', "apply"), 2, "not an object"),
    "spec nested too deeply": (spec("[" * 100000 + "]" * 100000), 2, "nests too deeply"),
    "spec an array": (spec("[1]"), 2, "field spec must be a JSON object"),
    "components an array": (
        spec('{"alpha": 1, "frame": "cartesian", "components": ["f0"]}', "apply"),
        2,
        "'components' must be an object with keys f0..f3",
    ),
    # a component is read as 'lambda' is: a JSON number exactly, a string in the DSL
    "component a number in exponent form": (
        spec(lam_spec(1e-05, None), at="x=1,y=1,z=1"),
        0,
        "f0 = (1e-05+0j)\nf1 = 0j\nf2 = 0j\nf3 = 0j\n",
    ),
    "component null": (spec(lam_spec(None, None), "apply"), 2, NOT_A_VALUE + "null"),
    "component a boolean": (spec(lam_spec(True, None)), 2, NOT_A_VALUE + "a boolean"),
    "component an array": (spec(lam_spec([1], None), "apply"), 2, NOT_A_VALUE + "an array"),
    "component Infinity": (spec(lam_spec(float("inf"), None)), 2, "'f0' must be finite, not inf"),
    # an int past the double range is finite, and is put in for lam exactly
    "lambda an int past the double range": (
        spec(lam_spec("lam", int(BIG_EXPONENT)), at="x=1,y=1,z=1"),
        2,
        "a coefficient has no finite value in component f0",
    ),
}


@pytest.mark.parametrize("argv, code, expected", ROWS.values(), ids=ROWS.keys())
def test_boundary_input(tmp_path, argv, code, expected):
    if callable(argv):
        argv = argv(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(fracquat.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "fracquat", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    if code == 0:
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    else:
        shown = done.stderr[-2000:]
        assert done.returncode == code, shown
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, shown
        assert done.stderr.endswith(expected + "\n"), shown
