"""The render and derivative kernels against their reference forms, and
the command line's rendered output against texts recorded before the
kernels were rewritten."""

import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import reference_kernels as ref
from fracquat import FRAMES, canon, d_alpha, render_canonical
from fracquat.cli import main

from strategies import exprs

RENDER = Path(__file__).parent / "data" / "render"
OPERATORS = ("mt", "mt-right", "laplacian", "bitsadze", "helmholtz")
DIFF_VARS = {"cartesian": "y", "cylindrical": "theta", "spherical": "theta"}


def frame_exprs(name):
    return st.tuples(st.just(name), exprs(FRAMES[name].variables))


def assert_sorted_groups(ce):
    for mono in ce.terms:
        assert all(list(group) == sorted(group) for group in mono[:4]), mono


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tuple(FRAMES)).flatmap(frame_exprs))
# every branch of both kernels: a negative integer, a complex and a lam-polynomial
# coefficient, repeated and bumped component symbols, sin^-1*cos, sin^1*cos, sin^2,
# powers that reach 0, an Ea scale with a constant and a lam part
@example(("cylindrical", "-3 + f1*f1*d(f1,theta)*sina(theta)^-1*cosa(theta) - 2*lam*P(z,1)"))
@example(("spherical", "Ea(1/2 - 1i*lam, r)*P(psi,-1)*P(r,1)*d(f2,theta)*f2 + (1 + lam)^2"))
@example(("cartesian", "(2/3 - 1i)*cosa(x)*sina(x)*f0*d(f0,z)*d(f0,y) - 1i + sina(y)^2*lam^3"))
def test_kernels_match_reference(case):
    name, text = case
    frame = FRAMES[name]
    ce = canon(text, frame)
    assert_sorted_groups(ce)
    assert render_canonical(ce) == ref.render_canonical(ce)
    for var in frame.variables:
        out = d_alpha(ce, var)
        expected = ref.d_alpha(ce, var)
        # the same map, and the same text, whose term order comes from sorting
        assert out.terms == expected.terms
        assert_sorted_groups(out)
        assert render_canonical(out) == ref.render_canonical(expected)


def run(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("frame", tuple(DIFF_VARS))
@pytest.mark.parametrize("operator", OPERATORS)
def test_apply_golden(capsys, frame, operator):
    spec = RENDER / f"{frame}.json"
    out = run(capsys, ["apply", str(spec), "-o", operator])
    assert out == (RENDER / f"{frame}-{operator}.txt").read_text()


@pytest.mark.parametrize("frame", tuple(DIFF_VARS))
def test_diff_golden(capsys, frame):
    f0 = json.loads((RENDER / f"{frame}.json").read_text())["components"]["f0"]
    out = run(capsys, ["diff", f0, "--var", DIFF_VARS[frame], "--frame", frame])
    assert out == (RENDER / f"{frame}-diff.txt").read_text()
