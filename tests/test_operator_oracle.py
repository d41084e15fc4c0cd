"""Symbolic outputs against the benchmark's float oracle, at alpha = 1.

bench/oracle.py evaluates the DSL over truncated Taylor series and
writes grad, div and curl from each frame's Lame coefficients, with no
fracquat code.  At alpha = 1 the derivation mode is ordinary calculus, so
every `diff` and `apply` output, rendered and evaluated at a point, must
match it within the bench's SYMBOLIC_RTOL.  The fields are seeded: each
term is a coefficient times a factor in each variable, so every second
partial of every component is generically nonzero, and one factor in
six is a component symbol, which the oracle reads as the exponential of
a linear form.  test_mutants judges every mutant of the frames' tables
with the same check.  bench/ is read, not written: its files are loaded
by path with bytecode writing off.
"""

import importlib.util
import random
import runpy
import sys
from functools import cache
from pathlib import Path

import pytest

import fracquat as fq
from fracquat.frames import FRAMES

BENCH = Path(__file__).resolve().parents[1] / "bench"
OPERATORS = {
    "mt": lambda f: fq.mt_apply(f, "left"),
    "mt-right": lambda f: fq.mt_apply(f, "right"),
    "laplacian": fq.laplacian,
    "bitsadze": fq.bitsadze,
    "helmholtz": lambda f: fq.helmholtz_residual(f, "formal"),
}
FIELDS_PER_FRAME = 2


@cache
def load_bench():
    """(the bench's oracle module, its SYMBOLIC_RTOL), loaded by path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("oracle", BENCH / "oracle.py")
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        patch.setitem(sys.modules, "oracle", oracle)  # for bench/workloads.py's `import oracle`
        return oracle, runpy.run_path(str(BENCH / "workloads.py"))["SYMBOLIC_RTOL"]


@pytest.fixture(scope="module")
def bench():
    return load_bench()


def factor(rng, v):
    kind = rng.choice(("P", "P", "sina", "cosa", "Ea", "comp"))
    if kind == "P":
        return f"P({v},{rng.choice((-2, -1, 2, 3))})"
    if kind in ("sina", "cosa"):
        return f"{kind}({v})"
    if kind == "Ea":
        return f"Ea({rng.choice(('1', '2', '-1', '1/2', 'lam', '3i'))}, {v})"
    return f"f{rng.randrange(4)}"


def component_text(rng, variables, terms=3):
    coeffs = ("1", "2", "3", "1/2", "2i", "lam", "(1 + 2i)")
    return " + ".join(
        "*".join([rng.choice(coeffs)] + [factor(rng, v) for v in variables]) for _ in range(terms)
    )


def cases():
    """(frame name, four component texts, check context), seeded."""
    rng = random.Random(4242)
    for name in sorted(FRAMES):
        variables = FRAMES[name].variables
        for _ in range(FIELDS_PER_FRAME):
            point = {v: rng.uniform(0.5, 1.3) if v in ("theta", "psi") else rng.uniform(0.6, 1.6)
                     for v in variables}
            context = {
                "point": point,
                "lam": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                "comp_coeffs": {k: [rng.uniform(-0.6, 0.6) for _ in variables] for k in range(4)},
            }
            yield name, [component_text(rng, variables) for _ in range(4)], context


CASES = list(cases())
CASE_IDS = [f"{name}-{n % FIELDS_PER_FRAME}" for n, (name, _, _) in enumerate(CASES)]


def semantics(oracle, name, context, order):
    return oracle.Semantics(
        FRAMES[name].variables, context["point"], context["lam"], context["comp_coeffs"], order
    )


def mismatches(bench, outputs, expected, name, context):
    """The output components whose rendered text is off the oracle's value."""
    oracle, rtol = bench
    sem = semantics(oracle, name, context, 0)
    bad = []
    for k, (out, exp) in enumerate(zip(outputs, expected)):
        value, scale = oracle.evaluate(fq.render_canonical(out), sem)
        if not abs(value - exp) <= rtol * max(1.0, scale, abs(exp)):
            bad.append((k, value, exp))
    return bad


def operator_reference(bench, operator, name, texts, context):
    oracle, _ = bench
    order = 1 if operator.startswith("mt") else 2
    sem = semantics(oracle, name, context, order)
    comps = [oracle.evaluate(text, sem)[0] for text in texts]
    return oracle.apply_operator(operator, name, comps, sem)


def field(name, texts):
    frame = FRAMES[name]
    return fq.QuaternionField(frame, *(fq.canon(text, frame) for text in texts))


@pytest.mark.parametrize("name, texts, context", CASES, ids=CASE_IDS)
def test_diff_matches_the_oracle(bench, name, texts, context):
    oracle, _ = bench
    frame = FRAMES[name]
    sem = semantics(oracle, name, context, 1)
    for text in texts:
        value = oracle.evaluate(text, sem)[0]
        for i, var in enumerate(frame.variables):
            out = fq.differentiate(fq.canon(text, frame), var, fq.DerivativeMode("derivation"))
            assert not mismatches(bench, [out], [value.d(i).value], name, context), (text, var)


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("name, texts, context", CASES, ids=CASE_IDS)
def test_apply_matches_the_oracle(bench, operator, name, texts, context):
    outputs = OPERATORS[operator](field(name, texts)).components
    expected = operator_reference(bench, operator, name, texts, context)
    assert not mismatches(bench, outputs, expected, name, context)
