"""The render, derivative and frame kernels against their reference
forms, and the command line's rendered output against texts recorded
before the kernels were rewritten."""

import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import reference_kernels as ref
from fracquat import FRAMES, CanonicalExpr, canon, d_alpha, render_canonical
from fracquat.cli import main
from fracquat.frames import apply_table
from fracquat.quatops import _shifted

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


# a form with an Ea, a lam, a both-trig and constant coefficients, over
# the frame's first two variables (r and theta in the curved frames)
HAND_FORM = (
    "Ea(1/2 - 1i*lam, {0})*d(f1,{0}) + lam*d(f2,{1}) + sina({1})^-1*cosa({1})*d(f0,{1})"
    " + 3*f3 - (2/3)*d(f0,{0},{1})"
)


def frame_fields(name):
    return st.tuples(st.just(name), st.tuples(*[exprs(FRAMES[name].variables, max_leaves=6)] * 4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tuple(FRAMES)).flatmap(frame_fields))
# one field per path of the kernel, each run through every form: a
# coefficient of 1 (the Cartesian first-order forms), a constant other
# than 1 (the Bitsadze text's 2 and -1), a product built inline (P(r,-1),
# P(r,-2) and the Ea coefficient on powers, Ea groups and lam), and a
# product of two trig sides whose cos^2 splits (sina^-1*cosa on cosa)
@example(("cartesian", ("P(x,2)*sina(y)", "f1*d(f2,x)", "0", "Ea(2, z)")))
@example(("cylindrical", ("(2/3 - 1i)*P(z,1)", "lam*f0", "-3", "P(theta,-1)*f3")))
@example(("cylindrical", ("P(r,2)*Ea(1 + lam, r)", "P(r,1)*d(f3,theta)", "Ea(-1, r)", "lam*f0")))
@example(("spherical", ("cosa(theta)*P(r,1)", "sina(theta)*cosa(theta)", "cosa(theta)", "f2")))
def test_apply_table_matches_reference(case):
    name, texts = case
    frame = FRAMES[name]
    comps = tuple(canon(text, frame) for text in texts)
    forms = {
        **frame.forms,
        "left + lam": _shifted(frame.forms["left"], CanonicalExpr.lam()),
        "hand": (canon(HAND_FORM.format(*frame.variables), frame),),
    }
    for op, form in forms.items():
        out, expected = apply_table(form, comps), ref.apply_table(form, comps)
        assert [c.terms for c in out] == [c.terms for c in expected], op


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
