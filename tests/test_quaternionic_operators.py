"""Termwise fixtures for the expanded operator component formulas (hand
transcriptions kept local to this file as the oracle), the factorization
suite, and the Helmholtz component systems."""

import copy
import gc
import pickle
import runpy
import sys
from operator import add
from pathlib import Path

import pytest

from fracquat import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    CanonicalExpr,
    ComplexQuaternion,
    Frame,
    IDENTITY_NAMES,
    VERIFICATION_MATRIX,
    bitsadze,
    canon,
    curl_alpha,
    d_alpha,
    delta0,
    div_alpha,
    dot,
    equal,
    grad_alpha,
    helmholtz_component_system,
    helmholtz_residual,
    laplacian,
    mt_apply,
    perturbed_mt,
    qmul,
    scalar_field,
    verify_all,
    verify_identity,
    zero_field,
)
from fracquat.cli import load_field_spec
from fracquat.coefficients import CRat
from fracquat.frames import QuaternionField, abstract_field, apply_table, frame_by_name
from fracquat.quatops import _IDENTITIES, FORMAL, IdentityReport, _residuals, _shifted

from test_canonical import MIXED_FIELD

CYL, SPH = CYLINDRICAL, SPHERICAL
FRAMES = (CARTESIAN, CYLINDRICAL, SPHERICAL)
DERIVED = ("grad", "div", "curl", "left", "right")  # the forms every frame derives from h
DATA = Path(__file__).parent / "data"
RENDER_SPECS = sorted(path.name for path in (DATA / "render").glob("*.json"))


# -- the paper's operator from the frame vectors -------------------------------
#
# The frame vectors on the quaternionic units i1, i2, i3 and the inverse Lame
# coefficients, transcribed here independently of fracquat's frame table.

FRAME_VECTORS = {
    "cartesian": (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
    "cylindrical": (
        ("cosa(theta)", "sina(theta)", "0"),
        ("-sina(theta)", "cosa(theta)", "0"),
        ("0", "0", "1"),
    ),
    "spherical": (
        ("sina(theta)*cosa(psi)", "sina(theta)*sina(psi)", "cosa(theta)"),
        ("cosa(theta)*cosa(psi)", "cosa(theta)*sina(psi)", "-sina(theta)"),
        ("-sina(psi)", "cosa(psi)", "0"),
    ),
}
INV_LAME = {
    "cartesian": ("1", "1", "1"),
    "cylindrical": ("1", "P(r,-1)", "1"),
    "spherical": ("1", "P(r,-1)", "P(r,-1)*sina(theta)^-1"),
}


def frame_vectors(frame):
    zero = CanonicalExpr.zero()
    return tuple(
        ComplexQuaternion(zero, *(canon(t, frame) for t in row))
        for row in FRAME_VECTORS[frame.name]
    )


def paper_operator(f, side):
    """Components of D f in the frame, from quaternion products on the units."""
    frame, vectors = f.frame, frame_vectors(f.frame)
    zero = CanonicalExpr.zero()
    q = ComplexQuaternion(f.f0, zero, zero, zero)
    for fk, ek in zip(f.vector_components, vectors):
        q = q + ek.scale(fk)
    out = ComplexQuaternion(zero, zero, zero, zero)
    for var, ek, inv_h in zip(frame.variables, vectors, INV_LAME[frame.name]):
        partial = ComplexQuaternion(*(d_alpha(c, var) for c in q.components))
        partial = partial.scale(canon(inv_h, frame))
        out = out + (qmul(ek, partial) if side == "left" else qmul(partial, ek))
    return (out.q0, *(dot(ek, out) for ek in vectors))


class TestFrameVectors:
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
    def test_orthonormal(self, frame):
        vectors = frame_vectors(frame)
        for i, ei in enumerate(vectors):
            for j, ej in enumerate(vectors):
                expected = CanonicalExpr.one() if i == j else CanonicalExpr.zero()
                assert dot(ei, ej) == expected

    def test_cylindrical_product_relation(self):
        e_r, e_theta, e_z = frame_vectors(CYLINDRICAL)
        assert qmul(e_r, e_theta) == e_z

    def test_spherical_product_relation(self):
        e_r, e_theta, e_psi = frame_vectors(SPHERICAL)
        assert qmul(e_r, e_theta) == e_psi


def assert_components(field, texts):
    for component, text in zip(field.components, texts):
        assert component == canon(text, field.frame), text


# -- first-order operator component fixtures ---------------------------------

MT_CYL = (
    "-(d(f1,r) + P(r,-1)*d(f2,theta) + P(r,-1)*f1 + d(f3,z))",
    "d(f0,r) + P(r,-1)*d(f3,theta) - d(f2,z)",
    "P(r,-1)*d(f0,theta) + d(f1,z) - d(f3,r)",
    "d(f0,z) + d(f2,r) - P(r,-1)*d(f1,theta) + P(r,-1)*f2",
)

MT_SPH = (
    "-(d(f1,r) + 2*P(r,-1)*f1 + P(r,-1)*d(f2,theta)"
    " + P(r,-1)*sina(theta)^-1*(d(f3,psi) + f2*cosa(theta)))",
    "d(f0,r) + P(r,-1)*d(f3,theta) - P(r,-1)*sina(theta)^-1*d(f2,psi)"
    " + f3*cosa(theta)*P(r,-1)*sina(theta)^-1",
    "P(r,-1)*d(f0,theta) + P(r,-1)*sina(theta)^-1*d(f1,psi) - d(f3,r) - P(r,-1)*f3",
    "P(r,-1)*sina(theta)^-1*d(f0,psi) + d(f2,r) - P(r,-1)*d(f1,theta) + P(r,-1)*f2",
)


class TestMoisilTeodorescu:
    def test_cylindrical_components_termwise(self):
        assert_components(mt_apply(abstract_field(CYL)), MT_CYL)

    def test_spherical_components_termwise(self):
        assert_components(mt_apply(abstract_field(SPH)), MT_SPH)

    def test_pure_scalar_gives_gradient(self):
        f = scalar_field(CYL, canon("f0", CYL))
        out = mt_apply(f)
        assert out.f0.is_zero()
        expected = ("d(f0,r)", "P(r,-1)*d(f0,theta)", "d(f0,z)")
        for component, text in zip(out.vector_components, expected):
            assert component == canon(text, CYL)

    def test_zero_field(self):
        for frame in (CARTESIAN, CYL, SPH):
            assert mt_apply(zero_field(frame)).is_zero()
            assert mt_apply(zero_field(frame), "right").is_zero()

    def test_right_action_flips_curl(self):
        f = abstract_field(CYL)
        left = mt_apply(f, "left")
        right = mt_apply(f, "right")
        g = grad_alpha(f.f0, CYL)
        c = curl_alpha(f)
        assert left.f0 == right.f0
        for lc, rc, gc, cc in zip(
            left.vector_components, right.vector_components,
            g.vector_components, c.vector_components,
        ):
            assert equal(lc, gc + cc)
            assert equal(rc, gc - cc)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            mt_apply(abstract_field(CYL), "middle")

    @pytest.mark.parametrize("side", ("left", "right"))
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
    def test_matches_quaternionic_definition(self, frame, side):
        """The operator is the paper's D f = sum_i e_i h_i^-1 d_i f (left) or
        sum_i (h_i^-1 d_i f) e_i (right), spelled out on the Cartesian units:
        the frame vectors are differentiated too, and the result is
        projected back onto them."""
        f = abstract_field(frame)
        assert paper_operator(f, side) == mt_apply(f, side).components


# -- second-order operator component fixtures --------------------------------


def delta0_text(frame, k):
    if frame is CYL:
        return (
            f"d(f{k},r,r) + P(r,-2)*d(f{k},theta,theta)"
            f" + P(r,-1)*d(f{k},r) + d(f{k},z,z)"
        )
    return (
        f"d(f{k},r,r) + 2*P(r,-1)*d(f{k},r) + P(r,-2)*d(f{k},theta,theta)"
        f" + cosa(theta)*P(r,-2)*sina(theta)^-1*d(f{k},theta)"
        f" + P(r,-2)*sina(theta)^-2*d(f{k},psi,psi)"
    )


VEC_LAPLACIAN_CYL = (
    "d(f1,r,r) + P(r,-1)*d(f1,r) - P(r,-2)*f1 + P(r,-2)*d(f1,theta,theta)"
    " - 2*P(r,-2)*d(f2,theta) + d(f1,z,z)",
    "d(f2,r,r) + P(r,-1)*d(f2,r) - P(r,-2)*f2 + P(r,-2)*d(f2,theta,theta)"
    " + 2*P(r,-2)*d(f1,theta) + d(f2,z,z)",
    # axial block carries the full second z derivative
    "d(f3,r,r) + P(r,-1)*d(f3,r) + P(r,-2)*d(f3,theta,theta) + d(f3,z,z)",
)

VEC_LAPLACIAN_SPH = (
    delta0_text(SPH, 1) + " - 2*P(r,-2)*f1 - 2*P(r,-2)*d(f2,theta)"
    " - 2*cosa(theta)*P(r,-2)*sina(theta)^-1*f2"
    " - 2*P(r,-2)*sina(theta)^-1*d(f3,psi)",
    delta0_text(SPH, 2) + " - P(r,-2)*sina(theta)^-2*f2 + 2*P(r,-2)*d(f1,theta)"
    " - 2*cosa(theta)*P(r,-2)*sina(theta)^-2*d(f3,psi)",
    delta0_text(SPH, 3) + " - P(r,-2)*sina(theta)^-2*f3"
    " + 2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
    " + 2*cosa(theta)*P(r,-2)*sina(theta)^-2*d(f2,psi)",
)

BITSADZE_CYL = (
    "d(f1,r,r) + 2*P(r,-1)*d(f2,r,theta) + P(r,-1)*d(f1,r) - P(r,-2)*f1"
    " + 2*d(f3,r,z) - P(r,-2)*d(f1,theta,theta) - d(f1,z,z)",
    "2*P(r,-1)*d(f1,r,theta) + P(r,-2)*d(f2,theta,theta) + 2*P(r,-1)*d(f3,theta,z)"
    " - d(f2,z,z) - d(f2,r,r) - P(r,-1)*d(f2,r) + P(r,-2)*f2",
    "2*d(f1,r,z) + 2*P(r,-1)*d(f2,theta,z) + 2*P(r,-1)*d(f1,z) + d(f3,z,z)"
    " - d(f3,r,r) - P(r,-2)*d(f3,theta,theta) - P(r,-1)*d(f3,r)",
)

BITSADZE_SPH = (
    "d(f1,r,r) + 2*P(r,-1)*d(f1,r) - 2*P(r,-2)*f1 - P(r,-2)*d(f1,theta,theta)"
    " - cosa(theta)*P(r,-2)*sina(theta)^-1*d(f1,theta)"
    " - P(r,-2)*sina(theta)^-2*d(f1,psi,psi)"
    " + 2*P(r,-1)*d(f2,r,theta) + 2*cosa(theta)*P(r,-1)*sina(theta)^-1*d(f2,r)"
    " + 2*P(r,-1)*sina(theta)^-1*d(f3,r,psi)",
    "-d(f2,r,r) - 2*P(r,-1)*d(f2,r) - P(r,-2)*sina(theta)^-2*f2"
    " + P(r,-2)*d(f2,theta,theta) + cosa(theta)*P(r,-2)*sina(theta)^-1*d(f2,theta)"
    " - P(r,-2)*sina(theta)^-2*d(f2,psi,psi) + 2*P(r,-2)*d(f1,theta)"
    " + 2*P(r,-1)*d(f1,r,theta) + 2*P(r,-2)*sina(theta)^-1*d(f3,theta,psi)",
    "-d(f3,r,r) - 2*P(r,-1)*d(f3,r) + P(r,-2)*sina(theta)^-2*f3"
    " - P(r,-2)*d(f3,theta,theta) - cosa(theta)*P(r,-2)*sina(theta)^-1*d(f3,theta)"
    " + P(r,-2)*sina(theta)^-2*d(f3,psi,psi)"
    " + 2*P(r,-2)*sina(theta)^-1*d(f1,psi) + 2*P(r,-1)*sina(theta)^-1*d(f1,r,psi)"
    " + 2*P(r,-2)*sina(theta)^-1*d(f2,theta,psi)",
)


class TestLaplacian:
    def test_cylindrical_scalar_power(self):
        out = laplacian(scalar_field(CYL, canon("P(r,1)", CYL)))
        assert out.f0 == canon("P(r,-1)", CYL)
        assert all(c.is_zero() for c in out.vector_components)

    def test_scalar_component_fixtures(self):
        for frame in (CYL, SPH):
            out = laplacian(abstract_field(frame))
            assert out.f0 == canon(delta0_text(frame, 0), frame)

    def test_cylindrical_vector_components_termwise(self):
        out = laplacian(abstract_field(CYL))
        for component, text in zip(out.vector_components, VEC_LAPLACIAN_CYL):
            assert component == canon(text, CYL), text

    def test_spherical_vector_components_termwise(self):
        out = laplacian(abstract_field(SPH))
        for component, text in zip(out.vector_components, VEC_LAPLACIAN_SPH):
            assert component == canon(text, SPH), text

    def test_cartesian_acts_componentwise(self):
        out = laplacian(abstract_field(CARTESIAN))
        for k, component in enumerate(out.components):
            assert equal(component, delta0(canon(f"f{k}", CARTESIAN), CARTESIAN))

    def test_curvilinear_does_not_act_componentwise(self):
        # witnessed by the cross-coupling term -2/r^(2a) df2/dtheta
        out = laplacian(abstract_field(CYL))
        coupling = out.f1 - delta0(canon("f1", CYL), CYL)
        assert not coupling.is_zero()
        assert equal(coupling, canon("-P(r,-2)*f1 - 2*P(r,-2)*d(f2,theta)", CYL))


class TestBitsadze:
    def test_pure_scalar_equals_laplacian(self):
        f = scalar_field(SPH, canon("P(r,2)*sina(theta)", SPH))
        assert bitsadze(f).components == laplacian(f).components

    def test_cylindrical_components_termwise(self):
        out = bitsadze(abstract_field(CYL))
        for component, text in zip(out.vector_components, BITSADZE_CYL):
            assert component == canon(text, CYL), text

    def test_spherical_components_termwise(self):
        out = bitsadze(abstract_field(SPH))
        for component, text in zip(out.vector_components, BITSADZE_SPH):
            assert component == canon(text, SPH), text


@pytest.mark.parametrize("frame", (CARTESIAN, CYL, SPH), ids=lambda frame: frame.name)
def test_second_order_operators_leave_no_cycles(frame):
    # what a call builds is freed by reference counting as soon as it is
    # dropped, so the intermediate derivative maps do not wait for the
    # cyclic collector
    f = abstract_field(frame)
    calls = {
        "delta0": lambda: delta0(f.f0, frame),
        "laplacian": lambda: laplacian(f),
        "bitsadze": lambda: bitsadze(f),
        "helmholtz_residual": lambda: helmholtz_residual(f),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()


class TestHelmholtz:
    def test_zero_field(self):
        assert helmholtz_residual(zero_field(CYL)).is_zero()

    def test_plane_wave_null_solution(self):
        # f0 = Ea(i*lam, z): the scalar residual vanishes identically
        f = scalar_field(CYL, canon("Ea(1i*lam, z)", CYL))
        out = helmholtz_residual(f, FORMAL)
        assert out.f0.is_zero()
        assert out.is_zero()

    def test_numeric_lambda_null_solution(self):
        f = scalar_field(CYL, canon("Ea(2i, z)", CYL))
        out = helmholtz_residual(f, CRat(2))
        assert out.is_zero()

    def test_cylindrical_system_fixtures(self):
        eqs = helmholtz_component_system(CYL)
        fixtures = (
            delta0_text(CYL, 0) + " + lam^2*f0",
            delta0_text(CYL, 1) + " - 2*P(r,-2)*d(f2,theta) + (lam^2 - P(r,-2))*f1",
            delta0_text(CYL, 2) + " + 2*P(r,-2)*d(f1,theta) + (lam^2 - P(r,-2))*f2",
            delta0_text(CYL, 3) + " + lam^2*f3",
        )
        for eq, text in zip(eqs, fixtures):
            assert eq == canon(text, CYL), text
        assert helmholtz_component_system("cylindrical") == eqs

    def test_spherical_system_fixtures(self):
        eqs = helmholtz_component_system(SPH)
        fixtures = (
            delta0_text(SPH, 0) + " + lam^2*f0",
            delta0_text(SPH, 1)
            + " - 2*P(r,-2)*d(f2,theta) - 2*cosa(theta)*P(r,-2)*sina(theta)^-1*f2"
            " - 2*P(r,-2)*sina(theta)^-1*d(f3,psi) + (lam^2 - 2*P(r,-2))*f1",
            delta0_text(SPH, 2)
            + " + 2*P(r,-2)*d(f1,theta)"
            " - 2*cosa(theta)*P(r,-2)*sina(theta)^-2*d(f3,psi)"
            " + (lam^2 - P(r,-2)*sina(theta)^-2)*f2",
            delta0_text(SPH, 3)
            + " + 2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
            " + 2*cosa(theta)*P(r,-2)*sina(theta)^-2*d(f2,psi)"
            " + (lam^2 - P(r,-2)*sina(theta)^-2)*f3",
        )
        for eq, text in zip(eqs, fixtures):
            assert eq == canon(text, SPH), text

    @pytest.mark.parametrize("frame", (CYL, SPH), ids=lambda f: f.name)
    def test_scalar_component_is_scalar_helmholtz(self, frame):
        eqs = helmholtz_component_system(frame)
        expected = delta0(canon("f0", frame), frame) + canon("lam^2*f0", frame)
        assert equal(eqs[0], expected)

    @pytest.mark.parametrize("lam", (FORMAL, CRat(2), 0), ids=str)
    @pytest.mark.parametrize("spec", (*RENDER_SPECS, "mixed"))
    def test_shifted_forms_match_the_field_formulas(self, spec, lam):
        # D + lam, D - lam and Laplacian + lam^2 are one pass of a shifted
        # form; the reference adds lam times the field to the plain operator
        if spec == "mixed":
            f = QuaternionField(CYL, *(canon(text, CYL) for text in MIXED_FIELD))
        else:
            f = load_field_spec(str(DATA / "render" / spec))[1]
        s = CanonicalExpr.lam() if lam == FORMAL else CanonicalExpr.const(lam)
        assert perturbed_mt(f, lam, +1) == mt_apply(f) + f.scale(s)
        assert perturbed_mt(f, lam, -1) == mt_apply(f) - f.scale(s)
        assert helmholtz_residual(f, lam) == laplacian(f) + f.scale(s * s)

    def test_perturbed_operator_factorization_by_hand(self):
        f = abstract_field(SPH)
        inner = perturbed_mt(f, FORMAL, +1)
        lhs = -(perturbed_mt(inner, FORMAL, -1))
        rhs = helmholtz_residual(f, FORMAL)
        assert (lhs - rhs).is_zero()

    def test_perturbed_mt_takes_only_sign_one_or_minus_one(self):
        f = abstract_field(CYL)
        for sign in (0, 2, -2, 0.5):
            with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign}$"):
                perturbed_mt(f, 2, sign)


class TestFrozenRecords:
    """Frame, QuaternionField and IdentityReport are frozen __slots__ records."""

    def records(self):
        return (CYL, abstract_field(SPH), verify_identity("mt_squared", "spherical"))

    def test_assignment_and_deletion_raise(self):
        for record, name in zip(self.records(), ("lame", "f1", "residuals")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
        with pytest.raises(TypeError):  # a frame's forms are read-only too
            CYL.forms["grad"] = ()

    def test_frame_equality_and_hash_go_by_name_variables_and_lame(self):
        rebuilt = Frame("cylindrical", list(CYL.variables), (1, canon("P(r,1)", CYL), 1))
        assert rebuilt is not CYL and rebuilt == CYL and hash(rebuilt) == hash(CYL)
        assert rebuilt.forms == CYL.forms and rebuilt.forms is not CYL.forms
        renamed = Frame("cylinder", CYL.variables, CYL.lame)
        assert renamed != CYL and CYL != SPH and CYL != "cylindrical"
        # equal derived forms, yet a different frame, with no hand forms
        assert dict(renamed.forms) == {op: CYL.forms[op] for op in DERIVED}
        # fields in equal frames add; fields in different frames do not
        f = abstract_field(CYL)
        assert (f + abstract_field(rebuilt)) == f.scale(2)
        assert (f - abstract_field(rebuilt)).is_zero()
        with pytest.raises(ValueError):
            f + abstract_field(SPH)
        with pytest.raises(ValueError):
            f - abstract_field(SPH)
        # a field and a non-field do not add: TypeError, not AttributeError
        for bad in (lambda: f + 1, lambda: f - 0, lambda: 1 + f, lambda: 0 - f):
            with pytest.raises(TypeError):
                bad()

    def test_field_equality_and_hash(self):
        f, g = abstract_field(CYL), abstract_field(CYL)
        assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
        assert f != abstract_field(SPH) and f != -f
        assert f.components == (f.f0, f.f1, f.f2, f.f3)

    def test_pickle_and_deepcopy_round_trip(self):
        for record in self.records():
            for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert type(copied) is type(record)
                assert copied == record and hash(copied) == hash(record)
                assert repr(copied) == repr(record)
        frame = pickle.loads(pickle.dumps(SPH))
        assert frame.forms == SPH.forms and frame.forms is not SPH.forms
        report = copy.deepcopy(verify_identity("curl_grad", "cylindrical"))
        assert report.passed and report.to_dict() == verify_identity("curl_grad", "cylindrical").to_dict()

    def test_rebuilt_and_unpickled_frames_share_the_hand_forms(self):
        # the hand text is parsed once per frame name and variables
        rebuilt = Frame("spherical", list(SPH.variables), SPH.lame)
        for frame in (rebuilt, pickle.loads(pickle.dumps(SPH)), copy.deepcopy(SPH)):
            for op in ("delta0", "laplacian", "bitsadze"):
                assert frame.forms[op] is SPH.forms[op], op
        # a frame with a wrong Lame coefficient shares them too, but derives its own
        bad = Frame("spherical", SPH.variables, (1, canon("P(r,1)", SPH), canon("P(r,1)", SPH)))
        assert bad.forms["laplacian"] is SPH.forms["laplacian"]
        for op in DERIVED:
            assert bad.forms[op] != SPH.forms[op], op

    def test_constructor_arity_and_repr(self):
        with pytest.raises(TypeError):
            QuaternionField(CYL, 1, 2)
        with pytest.raises(TypeError):
            IdentityReport("mt_squared", "cylindrical")
        assert repr(CYL).startswith("Frame(name='cylindrical', variables=('r', 'theta', 'z'), lame=(")
        assert str(CYL) == "cylindrical"


class TestVerifyIdentity:
    @pytest.mark.parametrize(
        "name,frame",
        [(n, f) for n in IDENTITY_NAMES for f in ("cartesian", "cylindrical", "spherical")],
    )
    def test_every_identity_every_frame(self, name, frame):
        report = verify_identity(name, frame)
        assert report.passed, report.to_dict()

    def test_wrong_lame_coefficient_fails(self):
        # negative control: a spherical frame with h_3 = r^alpha (sina(theta)
        # dropped) feeds grad/div/curl while the hand forms stay spherical, so
        # residuals that compare the two must not vanish
        bad = Frame("spherical", SPH.variables, (1, canon("P(r,1)", SPH), canon("P(r,1)", SPH)))
        # the reports read the inner operator's form from the frame itself,
        # so the bad frame's derived forms are not the spherical ones
        assert bad.forms["left"] != SPH.forms["left"]
        for name in ("div_grad_delta0", "mt_squared"):
            assert not verify_identity(name, bad).passed, name
            assert verify_identity(name, SPH).passed, name

    def test_reports_match_the_operators_composed_through_the_kernel(self):
        # a report reads its inner operator from the frame's own stored form,
        # so on every frame, one with a wrong Lame coefficient included, its
        # residuals are those of applying both operators to f0..f3
        bad = Frame("spherical", SPH.variables, (1, canon("P(r,1)", SPH), canon("P(r,1)", SPH)))
        for frame in (*FRAMES, bad):
            f = abstract_field(frame)
            fvec = QuaternionField(frame, CanonicalExpr.zero(), *f.vector_components)
            d0 = (div_alpha(grad_alpha(f.f0, frame)) - delta0(f.f0, frame), 0, 0, 0)
            composed = {
                "mt_squared": (mt_apply(mt_apply(f)) + laplacian(f)).components,
                "bitsadze_factorization": (mt_apply(mt_apply(f, "right")) + bitsadze(f)).components,
                "helmholtz_factorization": (
                    perturbed_mt(perturbed_mt(f, FORMAL, 1), FORMAL, -1) + helmholtz_residual(f)
                ).components,
                "curl_grad": curl_alpha(grad_alpha(f.f0, frame)).components,
                "div_curl": (div_alpha(curl_alpha(fvec)), 0, 0, 0),
                "div_grad_delta0": d0,
            }
            for name, residuals in composed.items():
                assert verify_identity(name, frame).residuals == residuals, (name, frame)

    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.name)
    def test_the_helmholtz_row_is_the_lam_shifted_composition(self, frame):
        # (D - lam)(D + lam) f + (Laplacian + lam^2) f reduces to D(D f) +
        # Laplacian f in the ring, so the row reads no shift: on the frame's
        # forms and on every map in which a left or laplacian component has
        # dropped, negated or doubled its first or last term, the shifted
        # composition gives the row's residuals
        lam, forms = CanonicalExpr.lam(), frame.forms
        mutants = [forms]
        for op in ("left", "laplacian"):
            for k, x in enumerate(forms[op]):
                for term in {min(x.terms), max(x.terms)} if x.terms else ():
                    for scale in (0, -1, 2):
                        edited = CanonicalExpr({**x.terms, term: x.terms[term] * scale})
                        mutants.append({**forms, op: forms[op][:k] + (edited,) + forms[op][k + 1 :]})
        assert len(mutants) == 1 + 48  # 8 components, 2 terms, 3 edits
        for mutant in mutants:
            composed = apply_table(_shifted(mutant["left"], -lam), _shifted(mutant["left"], lam))
            shifted = tuple(map(add, composed, _shifted(mutant["laplacian"], lam * lam)))
            residuals = _residuals("helmholtz_factorization", mutant)
            assert residuals == shifted
            assert (mutant is forms) == all(r.is_zero() for r in residuals)

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity("nonsense", "cylindrical")

    def test_unknown_frame(self):
        with pytest.raises(ValueError):
            verify_identity("mt_squared", "toroidal")

    @pytest.mark.parametrize(
        "name,frame", [(n, f) for n, frames in VERIFICATION_MATRIX.items() for f in frames]
    )
    def test_a_form_that_lost_a_term_fails_the_row(self, name, frame):
        # every identity is one row over the form map, read by one function,
        # so no residual may be zero by construction: a map in which one
        # component of the outer, inner or reference form has lost a term
        # must fail the row
        forms, row = frame_by_name(frame).forms, _IDENTITIES[name]
        assert all(r.is_zero() for r in _residuals(name, forms))
        checked = 0
        for op in {row.outer, row.inner, row.reference} - {None}:
            for k, x in enumerate(forms[op]):
                if x.is_zero():
                    continue
                lost = min(x.terms)
                cut = CanonicalExpr({m: c for m, c in x.terms.items() if m != lost})
                mutant = {**forms, op: forms[op][:k] + (cut,) + forms[op][k + 1 :]}
                residuals = _residuals(name, mutant)
                assert not all(r.is_zero() for r in residuals), (op, k, lost)
                checked += 1
        assert checked >= 2

    def test_matrix_has_fourteen_entries(self):
        assert sum(len(frames) for frames in VERIFICATION_MATRIX.values()) == 14

    def test_the_bench_verify_workload_runs_this_matrix(self, monkeypatch):
        # bench/workloads.py keeps its own copy of the matrix, so a report
        # count change must edit both; it is read, not written, and leaves
        # no bytecode under bench/
        bench = Path(__file__).parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))  # for its `import oracle`
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        loaded = set(sys.modules)
        try:
            workloads = runpy.run_path(str(bench / "workloads.py"))
        finally:
            for name in set(sys.modules) - loaded:
                del sys.modules[name]
        assert workloads["VERIFY_MATRIX"] == tuple(VERIFICATION_MATRIX.items())

    def test_verify_all(self):
        reports = list(verify_all())
        assert len(reports) == 14
        assert all(r.passed for r in reports)

    def test_report_serialization(self):
        doc = verify_identity("mt_squared", "cylindrical").to_dict()
        assert doc == {
            "identity": "mt_squared",
            "frame": "cylindrical",
            "mode": "derivation",
            "pass": True,
            "residuals": ["0", "0", "0", "0"],
        }

    def test_failing_report_shape(self):
        # a deliberately broken residual still serializes sensibly
        from fracquat.quatops import IdentityReport
        from fracquat.derivative import DerivativeMode

        bad = IdentityReport(
            "mt_squared",
            "cylindrical",
            DerivativeMode.DERIVATION,
            (canon("f1", CYL), CanonicalExpr.zero(), CanonicalExpr.zero(), CanonicalExpr.zero()),
        )
        assert not bad.passed
        assert bad.to_dict()["residuals"][0] == "f1"
