"""Boundary inputs of the command line, each run in a fresh interpreter.

Every row is an argv for `python -m fracquat`, the exit code it must end
in and what it must print.  A row that fails ends in exit 1 or 2 with
exactly one line on stderr, which ends in the given text.  A row that
succeeds prints exactly the given stdout and nothing on stderr.  Each run
has 20 seconds, so an input that the limits should stop early cannot
pass by being slow.  An argv may be a function of a scratch directory,
for the inputs too long to write out and those that read a file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracquat

BIG_EXPONENT = "1" + "0" * 400  # past the double range


def diff(text):
    return ["diff", text, "--var", "r", "--frame", "cylindrical"]


def spec(text, command="eval", at="r=1,theta=0.5,z=1"):
    """argv that runs `eval` (at a point) or `apply` on a field spec file holding text."""
    options = {"eval": ["--at", at], "apply": ["-o", "mt"]}[command]

    def build(tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(text)
        return [command, str(path), *options]

    return build


def long_literal(tmp_path):
    # one digit past the interpreter's int digit limit
    return diff("1" * (sys.get_int_max_str_digits() + 1))


INF = "(last term magnitude inf)"

# (argv, exit code, stderr line end or, at exit 0, the exact stdout)
ROWS = {
    "long sum": (lambda _: diff(" + ".join(["f1"] * 1001)), 2, ""),
    "deep nest": (lambda _: diff("(" * 201 + "f1" + ")" * 201), 2, ""),
    "unknown option": (["series", "Ea", "--alpha", "0.5", "--u", "1", "--bogus", "1"], 2, ""),
    # a power of a sum stops at the product budget
    "power of a sum": (diff("(P(r,1) + 1)^1000000"), 2, ""),
    # so does one whose terms hold component symbols, which each pair merges
    "power of a component sum": (diff("(f1 + 1)^1000000"), 2, ""),
    # --var is held to the frame, like the variables of the expression
    "var outside the frame": (["diff", "P(x,1)", "--var", "theta", "--frame", "cartesian"], 2, ""),
    # a sum at the term cap names the 499 terms it summed
    "series at the cap": (
        ["series", "Ea", "--alpha", "0.5", "--u", "20"],
        1,
        "terms summed: 499 (last term magnitude 8.009e+157)",
    ),
    # an overflowed term is reported as inf for a complex argument too
    "overflowed term": (
        ["series", "Ea", "--alpha", "0.3", "--u", "20+1i"], 1, "summed: 380 " + INF
    ),
    # so is u^2 past the double range in sina and cosa, after one term
    "u squared overflows": (
        ["series", "sina", "--alpha", "0.5", "--u", "1e200"], 1, "summed: 1 " + INF
    ),
    # and so is a term whose parts are finite but whose modulus is not, in
    # the loop and at the first term, before any term is summed
    "modulus overflows in the loop": (
        ["series", "cosa", "--alpha", "0.15392785036507609",
         "--u=-3.2481912923852962+3.1353549599831267i"],
        1,
        "summed: 385 " + INF,
    ),
    "modulus overflows at the first term": (
        ["series", "sina", "--alpha", "1", "--u=1.5e308+1.5e308i"],
        1,
        "sin_alpha did not converge to tol=1e-12, terms summed: 0 " + INF,
    ),
    # a series that does not converge inside eval is exit 1, not a traceback,
    # and its line names the generator, its argument and the component
    "eval does not converge": (
        spec('{"alpha": 0.5, "frame": "cylindrical", "components": {"f0": "Ea(20, r)"}}'),
        1,
        "for Ea(20, r) at u = 20.0 in component f0",
    ),
    # a generator power or a coefficient with no finite value, and a value
    # past the double range, end eval in one line that names it and the
    # point, not in a traceback or an inf
    "eval power past the double range": (
        spec('{"alpha": 0.5, "frame": "spherical", "components": {"f0": "P(r,-3)"}}',
             at="r=1e-320,theta=1,psi=1"),
        2,
        "P(r,-3) has no finite value at r = 1e-320",
    ),
    "eval sina power past the double range": (
        spec('{"alpha": 1, "frame": "spherical", "components": {"f0": "sina(theta)^-1"}}',
             at="r=1,theta=1e-320,psi=1"),
        2,
        "sina(theta)^-1 has no finite value at theta = 1e-320",
    ),
    "eval value past the double range": (
        spec('{"alpha": 1, "frame": "cylindrical", "components": {"f0": "P(r,1)*P(theta,1)"}}',
             at="r=1e200,theta=1e200"),
        2,
        "the value (inf+0j) is not finite at r = 1e+200, theta = 1e+200",
    ),
    "eval coefficient past the double range": (
        spec('{"alpha": 1, "frame": "cylindrical", "components": {"f0": "2^2000*P(r,1)"}}'),
        2,
        "a coefficient has no finite value",
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
