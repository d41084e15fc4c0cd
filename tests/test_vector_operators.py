"""The Lame-coefficient gradient/divergence/curl in each frame, including a
finite-difference oracle at alpha=1 where every generator is classical."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    CanonicalExpr,
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
    vector_field,
    zero_field,
)
from fracquat.coefficients import CRat
from fracquat.frames import abstract_scalar_field, abstract_vector_field
from fracquat.quatops import _terms

from strategies import exprs

FRAMES = (CARTESIAN, CYLINDRICAL, SPHERICAL)


class TestLameTable:
    def test_spherical_connection_coefficients(self):
        def c(text):
            return canon(text, SPHERICAL)

        assert SPHERICAL.inv_lame == (1, c("P(r,-1)"), c("P(r,-1)*sina(theta)^-1"))
        assert SPHERICAL.div_connection == (
            c("2*P(r,-1)"), c("P(r,-1)*cosa(theta)*sina(theta)^-1"), 0
        )
        r_sin = c("P(r,-1)*cosa(theta)*sina(theta)^-1")
        assert SPHERICAL.curl_connection == (
            (0, c("P(r,-1)"), c("P(r,-1)")),
            (0, 0, r_sin),
            (0, 0, 0),
        )

    def test_cartesian_has_no_factors(self):
        assert CARTESIAN.inv_lame == (1, 1, 1)
        assert CARTESIAN.div_connection == (0, 0, 0)
        assert all(c == 0 for row in CARTESIAN.curl_connection for c in row)
        frame = CARTESIAN
        derived = frame.inv_lame + frame.div_connection + sum(frame.curl_connection, ())
        assert all(isinstance(c, CanonicalExpr) for c in derived)


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
        f0 = abstract_scalar_field(frame).f0
        assert curl_alpha(grad_alpha(f0, frame)).is_zero()

    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
    def test_div_curl_is_zero(self, frame):
        f = abstract_vector_field(frame)
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
        f0 = abstract_scalar_field(frame).f0
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


def _reference_div(f):
    frame, out = f.frame, CanonicalExpr.zero()
    for var, ih, conn, vi in zip(
        frame.variables, frame.inv_lame, frame.div_connection, f.vector_components
    ):
        out = out + ih * d_alpha(vi, var) + conn * vi
    return out


def _reference_curl(f):
    frame, comps = f.frame, f.vector_components

    def part(j, k):
        d = d_alpha(comps[k], frame.variables[j])
        return frame.inv_lame[j] * d + frame.curl_connection[j][k] * comps[k]

    return tuple(part(j, k) - part(k, j) for j, k in ((1, 2), (2, 0), (0, 1)))


def _reference_rows(rows, comps):
    out = CanonicalExpr.zero()
    for coeff, k, vs in rows:
        d = comps[k]
        for v in vs:
            d = d_alpha(d, v)
        out = out + coeff * d
    return out


def _reference_second_order(f, name):
    rows = _terms(f.frame)
    return (_reference_rows(rows["delta0"], (f.f0,)),) + tuple(
        _reference_rows(r, f.components) for r in rows[name]
    )


def _snapshot(f):
    """Every map an operator reads: the components, the frame's derived
    coefficients and the hand rows' coefficients."""
    frame = f.frame
    coeffs = (*frame.inv_lame, *frame.div_connection, *sum(frame.curl_connection, ()))
    rows = _terms(frame)
    hand = [c for r in (rows["delta0"], *rows["laplacian"], *rows["bitsadze"]) for c, _, _ in r]
    return [list(x.terms.items()) for x in (*f.components, *coeffs, *hand)]


def _assert_clean(x):
    assert all(isinstance(c, CRat) and c for c in x.terms.values())


@settings(max_examples=40, deadline=None)
@given(_drawn_fields())
def test_operators_match_ring_references(drawn):
    frame, texts, sources = drawn
    parsed = [canon(t, frame) for t in texts]
    comps = [parsed[i] * 1 if k % 2 else parsed[i] + 0 for k, i in enumerate(sources)]
    f = QuaternionField(frame, *comps)
    before = _snapshot(f)
    results = {
        "div": ((div_alpha(f),), (_reference_div(f),)),
        "curl": (curl_alpha(f).vector_components, _reference_curl(f)),
        "laplacian": (laplacian(f).components, _reference_second_order(f, "laplacian")),
        "bitsadze": (bitsadze(f).components, _reference_second_order(f, "bitsadze")),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        for x in got:
            _assert_clean(x)
    # no operator accumulated into a map it shares with an input
    assert _snapshot(f) == before
