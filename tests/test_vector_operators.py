"""The Lame-coefficient gradient/divergence/curl in each frame, including a
finite-difference oracle at alpha=1 where every generator is classical."""

import math
from operator import add, sub

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    CanonicalExpr,
    Frame,
    NonInvertibleDivisionError,
    QuaternionField,
    bitsadze,
    canon,
    curl_alpha,
    d_alpha,
    delta0,
    div_alpha,
    equal,
    eval_canonical,
    grad_alpha,
    laplacian,
    mt_apply,
    vector_field,
    verify_identity,
    zero_field,
)
from fracquat.expr import VARIABLES
from fracquat.frames import _HAND_TEXT, abstract_field, apply_table

from strategies import exprs, is_stored, nonzero_numbers, unit_atoms

FRAMES = (CARTESIAN, CYLINDRICAL, SPHERICAL)
DERIVED = ("grad", "div", "curl", "left", "right")  # the forms every frame derives from h
HAND = ("delta0", "laplacian", "bitsadze")  # the forms parsed from a named frame's hand text


class TestLameTable:
    def test_spherical_connection_coefficients(self):
        # the undifferentiated terms carry the connection coefficients:
        # D_i(H/h_i)/H = (2/r, cot(theta)/r, 0) in div, D_j h_k / (h_j h_k) in curl
        def c(*texts):
            return tuple(canon(t, SPHERICAL) for t in texts)

        assert SPHERICAL.forms["grad"] == c(
            "0", "d(f0,r)", "P(r,-1)*d(f0,theta)", "P(r,-1)*sina(theta)^-1*d(f0,psi)"
        )
        assert SPHERICAL.forms["div"] == c(
            "d(f1,r) + 2*P(r,-1)*f1 + P(r,-1)*d(f2,theta)"
            " + P(r,-1)*cosa(theta)*sina(theta)^-1*f2 + P(r,-1)*sina(theta)^-1*d(f3,psi)",
            "0", "0", "0",
        )
        assert SPHERICAL.forms["curl"] == c(
            "0",
            "P(r,-1)*d(f3,theta) + P(r,-1)*cosa(theta)*sina(theta)^-1*f3"
            " - P(r,-1)*sina(theta)^-1*d(f2,psi)",
            "P(r,-1)*sina(theta)^-1*d(f1,psi) - d(f3,r) - P(r,-1)*f3",
            "d(f2,r) + P(r,-1)*f2 - P(r,-1)*d(f1,theta)",
        )

    def test_cartesian_has_no_factors(self):
        def c(*texts):
            return tuple(canon(t, CARTESIAN) for t in texts)

        assert CARTESIAN.forms["grad"] == c("0", "d(f0,x)", "d(f0,y)", "d(f0,z)")
        assert CARTESIAN.forms["div"] == c("d(f1,x) + d(f2,y) + d(f3,z)", "0", "0", "0")
        assert CARTESIAN.forms["curl"] == c(
            "0", "d(f3,y) - d(f2,z)", "d(f1,z) - d(f3,x)", "d(f2,x) - d(f1,y)"
        )
        # every derived term is +-1 times a derivative of one component: no connection
        terms = [t for op in DERIVED for x in CARTESIAN.forms[op] for t in x.terms.items()]
        assert all(c in (1, -1) and m._replace(dsyms=()).is_one() for m, c in terms)
        assert all(len(m.dsyms) == 1 and m.dsyms[0][1] for m, _ in terms)


@pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
def test_tables_round_trip_through_the_abstract_field(frame):
    # each stored form is the one built from the README formulas (derived
    # forms) or the DSL text (hand forms), and the kernel applied to f0..f3
    # gives it back, so the kernel puts each component where its symbol is
    f, zero = abstract_field(frame), CanonicalExpr.zero()
    grad, div, curl = _reference_grad(f.f0, frame), _reference_div(f), _reference_curl(f)
    text = _HAND_TEXT[frame.name]
    d0 = canon(text["delta0"], frame)
    built = {
        "grad": (zero, *grad),
        "div": (div, zero, zero, zero),
        "curl": (zero, *curl),
        "left": (-div, *map(add, grad, curl)),
        "right": (-div, *map(sub, grad, curl)),
        "delta0": (d0, zero, zero, zero),
        "laplacian": (d0,) + tuple(
            canon(text["delta0"].replace("f0", f"f{k}"), frame) + canon(t, frame)
            for k, t in enumerate(text["laplacian"], 1)
        ),
        "bitsadze": (d0, *(canon(t, frame) for t in text["bitsadze"])),
    }
    assert frame.forms.keys() == built.keys() == {*DERIVED, *HAND}
    for name, forms in frame.forms.items():
        assert forms == built[name], name
        assert apply_table(forms, f.components) == forms, name


def test_kernel_refuses_a_form_that_is_not_linear():
    f = abstract_field(CYLINDRICAL)
    for text in ("f1*d(f2,r)", "f1 + 1", "P(r,1)"):
        with pytest.raises(ValueError, match="not linear"):
            apply_table((canon(text, CYLINDRICAL),), f.components)


# a drawn Lame coefficient: a nonzero constant times up to three P, sina
# and Ea factors, so a unit monomial that the ring can divide by
LAME_FACTORS = st.one_of(
    unit_atoms(SPHERICAL.variables),
    st.builds("Ea({}, {})".format, nonzero_numbers, st.sampled_from(SPHERICAL.variables)),
)
LAME_COEFFICIENTS = st.builds(
    lambda c, factors: "*".join((c, *factors)), nonzero_numbers, st.lists(LAME_FACTORS, max_size=3)
)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[LAME_COEFFICIENTS] * 3))
def test_drawn_lame_tables_pass_the_first_order_identities(lame):
    # grad, div and curl derived from any unit-monomial table satisfy
    # curl grad = 0 and div curl = 0 exactly: the h_i cancel in the ring
    frame = Frame("drawn", SPHERICAL.variables, tuple(canon(text, SPHERICAL) for text in lame))
    assert verify_identity("curl_grad", frame).passed, lame
    assert verify_identity("div_curl", frame).passed, lame


def test_a_lame_table_with_a_cosine_cannot_be_built():
    # a frame divides by each h_i, and the ring inverts no cosa factor
    lame = (1, canon("P(r,1)", SPHERICAL), canon("P(r,1)*cosa(theta)", SPHERICAL))
    with pytest.raises(NonInvertibleDivisionError, match="^cannot divide by cosa factors$"):
        Frame("drawn", SPHERICAL.variables, lame)


def test_user_frame_has_first_order_tables_but_no_hand_tables():
    # a frame built from a Lame table gets grad, div, curl and D from it;
    # the hand-transcribed operators exist only for the three named frames
    frame = Frame("cylinder", CYLINDRICAL.variables, CYLINDRICAL.lame)
    f, g = abstract_field(frame), abstract_field(CYLINDRICAL)
    assert dict(frame.forms) == {op: CYLINDRICAL.forms[op] for op in DERIVED}
    assert grad_alpha(f.f0, frame).components == grad_alpha(g.f0, CYLINDRICAL).components
    assert div_alpha(f) == div_alpha(g) == _reference_div(f)
    assert curl_alpha(f).components == curl_alpha(g).components
    for side in ("left", "right"):
        assert mt_apply(f, side).components == mt_apply(g, side).components
    assert verify_identity("curl_grad", frame).passed  # it reads derived forms only
    # reading a hand form it lacks raises KeyError naming that form
    calls = (
        (lambda: delta0(f.f0, frame), "delta0"),
        (lambda: laplacian(f), "laplacian"),
        (lambda: bitsadze(f), "bitsadze"),
        (lambda: verify_identity("mt_squared", frame), "laplacian"),
    )
    for call, form in calls:
        with pytest.raises(KeyError) as info:
            call()
        assert info.value.args == (form,)


class TestGradient:
    def test_constant_gives_zero(self):
        for frame in FRAMES:
            assert grad_alpha(canon("3", frame), frame).is_zero()

    def test_cylindrical_power(self):
        out = grad_alpha(canon("P(r,2)", CYLINDRICAL), CYLINDRICAL)
        assert out.f1 == canon("2*P(r,1)", CYLINDRICAL)
        assert out.f2.is_zero() and out.f3.is_zero()

    def test_spherical_abstract_components(self):
        out = grad_alpha(canon("f0", SPHERICAL), SPHERICAL)
        assert out.f1 == canon("d(f0,r)", SPHERICAL)
        assert out.f2 == canon("P(r,-1)*d(f0,theta)", SPHERICAL)
        assert out.f3 == canon("P(r,-1)*sina(theta)^-1*d(f0,psi)", SPHERICAL)


class TestDivergence:
    def test_cylindrical_radial_field(self):
        f = vector_field(CYLINDRICAL, canon("P(r,1)", CYLINDRICAL), 0, 0)
        assert div_alpha(f) == canon("2", CYLINDRICAL)

    def test_spherical_radial_field(self):
        f = vector_field(SPHERICAL, canon("P(r,1)", SPHERICAL), 0, 0)
        assert div_alpha(f) == canon("3", SPHERICAL)

    def test_zero_field(self):
        for frame in FRAMES:
            assert div_alpha(zero_field(frame)).is_zero()


class TestCurl:
    def test_constant_axial_field(self):
        f = vector_field(CYLINDRICAL, 0, 0, canon("1", CYLINDRICAL))
        assert curl_alpha(f).is_zero()

    def test_cylindrical_azimuthal_field(self):
        f = vector_field(CYLINDRICAL, 0, canon("P(r,1)", CYLINDRICAL), 0)
        out = curl_alpha(f)
        assert out.f1.is_zero() and out.f2.is_zero()
        assert out.f3 == canon("2", CYLINDRICAL)

    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
    def test_curl_grad_is_zero(self, frame):
        f0 = abstract_field(frame).f0
        assert curl_alpha(grad_alpha(f0, frame)).is_zero()

    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
    def test_div_curl_is_zero(self, frame):
        f = vector_field(frame, *abstract_field(frame).vector_components)
        assert div_alpha(curl_alpha(f)).is_zero()


# -- alpha=1 finite-difference oracle ----------------------------------------
#
# At alpha=1 the generators are r, sin, cos, exp, so every operator output
# must agree numerically with classical vector calculus applied to hand
# written classical fields.

H = 1e-5
POINT_CYL = {"r": 1.3, "theta": 0.7, "z": 0.4}
POINT_SPH = {"r": 1.3, "theta": 0.7, "psi": 0.9}


def pd(F, point, var, h=H):
    hi = dict(point)
    lo = dict(point)
    hi[var] += h
    lo[var] -= h
    return (F(hi) - F(lo)) / (2 * h)


def pd2(F, point, var, h=1e-4):
    hi = dict(point)
    lo = dict(point)
    hi[var] += h
    lo[var] -= h
    return (F(hi) - 2 * F(point) + F(lo)) / (h * h)


def ev(ce, point):
    return eval_canonical(ce, 1.0, point).real


class TestClassicalOracleCylindrical:
    F0_TEXT = "P(r,2)*cosa(theta) + P(z,2)"
    F0 = staticmethod(lambda p: p["r"] ** 2 * math.cos(p["theta"]) + p["z"] ** 2)
    F1 = staticmethod(lambda p: p["r"] ** 2 * math.sin(p["theta"]))
    F2 = staticmethod(lambda p: p["r"] * p["z"] * math.cos(p["theta"]))
    F3 = staticmethod(lambda p: p["r"] * math.sin(p["theta"]) ** 2)
    FIELD_TEXT = ("P(r,2)*sina(theta)", "P(r,1)*P(z,1)*cosa(theta)", "P(r,1)*sina(theta)^2")

    def field(self):
        return vector_field(CYLINDRICAL, *(canon(t, CYLINDRICAL) for t in self.FIELD_TEXT))

    def test_gradient(self):
        out = grad_alpha(canon(self.F0_TEXT, CYLINDRICAL), CYLINDRICAL)
        p = POINT_CYL
        expected = (
            pd(self.F0, p, "r"),
            pd(self.F0, p, "theta") / p["r"],
            pd(self.F0, p, "z"),
        )
        for component, ref in zip(out.vector_components, expected):
            assert abs(ev(component, p) - ref) < 1e-6

    def test_divergence(self):
        p = POINT_CYL
        ref = (
            pd(self.F1, p, "r")
            + self.F1(p) / p["r"]
            + pd(self.F2, p, "theta") / p["r"]
            + pd(self.F3, p, "z")
        )
        assert abs(ev(div_alpha(self.field()), p) - ref) < 1e-6

    def test_curl(self):
        p = POINT_CYL
        ref = (
            pd(self.F3, p, "theta") / p["r"] - pd(self.F2, p, "z"),
            pd(self.F1, p, "z") - pd(self.F3, p, "r"),
            pd(self.F2, p, "r") - pd(self.F1, p, "theta") / p["r"] + self.F2(p) / p["r"],
        )
        out = curl_alpha(self.field())
        for component, expected in zip(out.vector_components, ref):
            assert abs(ev(component, p) - expected) < 1e-6

    def test_scalar_laplacian(self):
        p = POINT_CYL
        ref = (
            pd2(self.F0, p, "r")
            + pd2(self.F0, p, "theta") / p["r"] ** 2
            + pd(self.F0, p, "r") / p["r"]
            + pd2(self.F0, p, "z")
        )
        out = delta0(canon(self.F0_TEXT, CYLINDRICAL), CYLINDRICAL)
        assert abs(ev(out, p) - ref) < 1e-5


class TestClassicalOracleSpherical:
    F0_TEXT = "P(r,2)*cosa(theta)*sina(psi)"
    F0 = staticmethod(
        lambda p: p["r"] ** 2 * math.cos(p["theta"]) * math.sin(p["psi"])
    )
    F1 = staticmethod(lambda p: p["r"] ** 2 * math.sin(p["theta"]))
    F2 = staticmethod(lambda p: p["r"] * math.cos(p["theta"]) * math.sin(p["psi"]))
    F3 = staticmethod(lambda p: p["r"] * math.sin(p["theta"]) * math.cos(p["psi"]))
    FIELD_TEXT = (
        "P(r,2)*sina(theta)",
        "P(r,1)*cosa(theta)*sina(psi)",
        "P(r,1)*sina(theta)*cosa(psi)",
    )

    def field(self):
        return vector_field(SPHERICAL, *(canon(t, SPHERICAL) for t in self.FIELD_TEXT))

    def test_gradient(self):
        p = POINT_SPH
        out = grad_alpha(canon(self.F0_TEXT, SPHERICAL), SPHERICAL)
        expected = (
            pd(self.F0, p, "r"),
            pd(self.F0, p, "theta") / p["r"],
            pd(self.F0, p, "psi") / (p["r"] * math.sin(p["theta"])),
        )
        for component, ref in zip(out.vector_components, expected):
            assert abs(ev(component, p) - ref) < 1e-6

    def test_divergence(self):
        p = POINT_SPH
        sin_t, cos_t = math.sin(p["theta"]), math.cos(p["theta"])
        ref = (
            pd(self.F1, p, "r")
            + 2 * self.F1(p) / p["r"]
            + pd(self.F2, p, "theta") / p["r"]
            + (pd(self.F3, p, "psi") + cos_t * self.F2(p)) / (p["r"] * sin_t)
        )
        assert abs(ev(div_alpha(self.field()), p) - ref) < 1e-6

    def test_curl(self):
        p = POINT_SPH
        r, sin_t, cos_t = p["r"], math.sin(p["theta"]), math.cos(p["theta"])
        ref = (
            pd(self.F3, p, "theta") / r
            - pd(self.F2, p, "psi") / (r * sin_t)
            + cos_t * self.F3(p) / (r * sin_t),
            pd(self.F1, p, "psi") / (r * sin_t) - pd(self.F3, p, "r") - self.F3(p) / r,
            pd(self.F2, p, "r") - pd(self.F1, p, "theta") / r + self.F2(p) / r,
        )
        out = curl_alpha(self.field())
        for component, expected in zip(out.vector_components, ref):
            assert abs(ev(component, p) - expected) < 1e-6

    def test_scalar_laplacian(self):
        p = POINT_SPH
        r, sin_t, cos_t = p["r"], math.sin(p["theta"]), math.cos(p["theta"])
        ref = (
            pd2(self.F0, p, "r")
            + 2 * pd(self.F0, p, "r") / r
            + pd2(self.F0, p, "theta") / r**2
            + cos_t * pd(self.F0, p, "theta") / (r**2 * sin_t)
            + pd2(self.F0, p, "psi") / (r**2 * sin_t**2)
        )
        out = delta0(canon(self.F0_TEXT, SPHERICAL), SPHERICAL)
        assert abs(ev(out, p) - ref) < 1e-5


def test_div_grad_matches_delta0_form():
    for frame in FRAMES:
        f0 = abstract_field(frame).f0
        assert equal(div_alpha(grad_alpha(f0, frame)), delta0(f0, frame))


# -- the operators against references built from the ring operations ----------


def _drawn_fields():
    """A frame, four expressions in its variables, and for each component
    the expression it takes as a product with 1 or a sum with 0, so that
    components share their maps with each other."""
    return st.sampled_from(FRAMES).flatmap(
        lambda frame: st.tuples(
            st.just(frame),
            st.lists(exprs(frame.variables, max_leaves=5), min_size=4, max_size=4),
            st.lists(st.integers(0, 3), min_size=4, max_size=4),
        )
    )


def _reference_grad(f0, frame):
    # grad_i = D_i f0 / h_i
    return tuple(d_alpha(f0, v) / h for v, h in zip(frame.variables, frame.lame))


def _reference_div(f):
    # div = sum_i D_i(H/h_i f_i) / H
    frame, out = f.frame, CanonicalExpr.zero()
    big_h = frame.lame[0] * frame.lame[1] * frame.lame[2]
    for v, h, fi in zip(frame.variables, frame.lame, f.vector_components):
        out = out + d_alpha(big_h / h * fi, v)
    return out / big_h


def _reference_curl(f):
    # curl_i = (D_j(h_k f_k) - D_k(h_j f_j)) / (h_j h_k), (i, j, k) cyclic
    v, h, comps = f.frame.variables, f.frame.lame, f.vector_components

    def part(j, k):
        return d_alpha(h[k] * comps[k], v[j]) / (h[j] * h[k])

    return tuple(part(j, k) - part(k, j) for j, k in ((1, 2), (2, 0), (0, 1)))


def _reference_form(form, comps):
    """The form with each d(fk, vs) replaced by comps[k] differentiated by
    d_alpha in each of vs, summed by ring operations, without the kernel."""
    out = CanonicalExpr.zero()
    for mono, c in form.terms.items():
        ((k, midx),) = mono.dsyms
        d = comps[k]
        for v in midx:
            d = d_alpha(d, VARIABLES[v])
        out = out + CanonicalExpr({mono._replace(dsyms=()): c}) * d
    return out


def _snapshot(f):
    """Every map an operator reads: the components and the frame's derived
    and hand forms."""
    forms = f.frame.forms.values()
    return [list(x.terms.items()) for x in (*f.components, *(x for form in forms for x in form))]


def _assert_clean(x):
    assert all(is_stored(c) and c for c in x.terms.values())


@settings(max_examples=40, deadline=None)
@given(_drawn_fields())
def test_operators_match_ring_references(drawn):
    frame, texts, sources = drawn
    parsed = [canon(t, frame) for t in texts]
    comps = [parsed[i] * 1 if k % 2 else parsed[i] + 0 for k, i in enumerate(sources)]
    f = QuaternionField(frame, *comps)
    before = _snapshot(f)
    grad, div, curl = _reference_grad(f.f0, frame), _reference_div(f), _reference_curl(f)
    hand = {op: tuple(_reference_form(x, f.components) for x in frame.forms[op]) for op in HAND}
    results = {
        "grad": (grad_alpha(f.f0, frame).vector_components, grad),
        "div": ((div_alpha(f),), (div,)),
        "curl": (curl_alpha(f).vector_components, curl),
        "mt": (mt_apply(f, "left").components, (-div, *map(add, grad, curl))),
        "mt-right": (mt_apply(f, "right").components, (-div, *map(sub, grad, curl))),
        "delta0": ((delta0(f.f0, frame),), hand["delta0"][:1]),
        "laplacian": (laplacian(f).components, hand["laplacian"]),
        "bitsadze": (bitsadze(f).components, hand["bitsadze"]),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        for x in got:
            _assert_clean(x)
    # no operator accumulated into a map it shares with an input
    assert _snapshot(f) == before
