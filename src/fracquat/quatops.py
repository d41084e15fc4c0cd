"""Quaternionic first- and second-order operators and the identity engine.

Each operator is a table that the kernel `frames.apply_table` applies,
kept next to its form: what it does to f0..f3.  The first-order operator
D[f] = -div(fvec) + grad(f0) + curl(fvec) (left action) has its form
derived by each frame from its Lame coefficients; its right action flips
the curl sign (the unique choice that makes the Bitsadze factorization
close in the curvilinear frames; the Cartesian right action reduces to
multiplying the units from the right).  The second-order operators are not
compositions: each frame has hand-expanded DSL text, parsed once at import
into its forms, with each table read off its form.  The text is
transcribed, never derived from the Lame coefficients, so verifying

    D(D f)        = -(scalar Laplacian + vector Laplacian)
    D(D^r f)      = -(scalar Laplacian + Bitsadze vector part)
    -(D-lam)(D+lam) f = Laplacian f + lam^2 f
    div(grad f0)  = delta0 f0

checks the Lame-derived forms against the hand text, with all four
residuals required to normalize to zero.  A report runs only the outer
operator through the kernel, on the inner operator's stored form; the
tests check that every table's rows reproduce its form, so the
tables that `fracquat apply` runs are the ones verify proved.
"""

from __future__ import annotations

from operator import add, sub

from .canonical import CanonicalExpr, Monomial, _new, render_canonical
from .derivative import DerivativeMode
from .frames import (
    FRAMES,
    Frame,
    QuaternionField,
    _Record,
    abstract_field,
    apply_table,
    frame_by_name,
    rows_of,
    vector_field,
)
from .parser import parse
from .vectorops import curl_alpha, div_alpha

FORMAL = "formal"


def _lam(lam) -> CanonicalExpr:
    if lam is None or lam == FORMAL:
        return CanonicalExpr.lam()
    return CanonicalExpr.const(lam)


def mt_apply(f: QuaternionField, side: str = "left") -> QuaternionField:
    """First-order operator: -div + grad + curl (left) or -div + grad - curl
    (right action), from the frame's table for that side."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return QuaternionField(f.frame, *apply_table(f.frame.rows[side], f.components))


# Hand-expanded second-order operators, per frame, as DSL text: "delta0"
# acts on f0; component k of the vector Laplacian grad(div) - curl(curl)
# is delta0 with fk for f0 plus the "laplacian" coupling text; the
# Bitsadze texts grad(div) + curl(curl) are complete.
_HAND_TEXT = {
    "cartesian": {
        "delta0": "d(f0,x,x) + d(f0,y,y) + d(f0,z,z)",
        "laplacian": ("0", "0", "0"),
        "bitsadze": (  # 2 d_i d_j f_j - delta0 f_i
            "d(f1,x,x) + 2*d(f2,x,y) + 2*d(f3,x,z) - d(f1,y,y) - d(f1,z,z)",
            "2*d(f1,x,y) + d(f2,y,y) + 2*d(f3,y,z) - d(f2,x,x) - d(f2,z,z)",
            "2*d(f1,x,z) + 2*d(f2,y,z) + d(f3,z,z) - d(f3,x,x) - d(f3,y,y)",
        ),
    },
    "cylindrical": {
        "delta0": "d(f0,r,r) + P(r,-2)*d(f0,theta,theta) + P(r,-1)*d(f0,r) + d(f0,z,z)",
        "laplacian": (
            "-P(r,-2)*f1 - 2*P(r,-2)*d(f2,theta)",
            "-P(r,-2)*f2 + 2*P(r,-2)*d(f1,theta)",
            "0",
        ),
        "bitsadze": (
            "d(f1,r,r) + 2*P(r,-1)*d(f2,r,theta) + P(r,-1)*d(f1,r) - P(r,-2)*f1"
            " + 2*d(f3,r,z) - P(r,-2)*d(f1,theta,theta) - d(f1,z,z)",
            "2*P(r,-1)*d(f1,r,theta) + P(r,-2)*d(f2,theta,theta) + 2*P(r,-1)*d(f3,theta,z)"
            " - d(f2,z,z) - d(f2,r,r) - P(r,-1)*d(f2,r) + P(r,-2)*f2",
            "2*d(f1,r,z) + 2*P(r,-1)*d(f2,theta,z) + 2*P(r,-1)*d(f1,z) + d(f3,z,z)"
            " - d(f3,r,r) - P(r,-2)*d(f3,theta,theta) - P(r,-1)*d(f3,r)",
        ),
    },
    "spherical": {
        "delta0": "d(f0,r,r) + 2*P(r,-1)*d(f0,r) + P(r,-2)*d(f0,theta,theta)"
        " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f0,theta)"
        " + P(r,-2)*sina(theta)^-2*d(f0,psi,psi)",
        "laplacian": (
            "-2*P(r,-2)*f1 - 2*P(r,-2)*d(f2,theta) - 2*P(r,-2)*sina(theta)^-1*cosa(theta)*f2"
            " - 2*P(r,-2)*sina(theta)^-1*d(f3,psi)",
            "-P(r,-2)*sina(theta)^-2*f2 + 2*P(r,-2)*d(f1,theta)"
            " - 2*P(r,-2)*sina(theta)^-2*cosa(theta)*d(f3,psi)",
            "-P(r,-2)*sina(theta)^-2*f3 + 2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
            " + 2*P(r,-2)*sina(theta)^-2*cosa(theta)*d(f2,psi)",
        ),
        "bitsadze": (
            "d(f1,r,r) + 2*P(r,-1)*d(f1,r) - 2*P(r,-2)*f1 - P(r,-2)*d(f1,theta,theta)"
            " - P(r,-2)*sina(theta)^-1*cosa(theta)*d(f1,theta) + 2*P(r,-1)*d(f2,r,theta)"
            " - P(r,-2)*sina(theta)^-2*d(f1,psi,psi) + 2*P(r,-1)*sina(theta)^-1*cosa(theta)*d(f2,r)"
            " + 2*P(r,-1)*sina(theta)^-1*d(f3,r,psi)",
            "-d(f2,r,r) - 2*P(r,-1)*d(f2,r) - P(r,-2)*sina(theta)^-2*f2 + P(r,-2)*d(f2,theta,theta)"
            " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f2,theta)"
            " - P(r,-2)*sina(theta)^-2*d(f2,psi,psi) + 2*P(r,-2)*d(f1,theta)"
            " + 2*P(r,-1)*d(f1,r,theta) + 2*P(r,-2)*sina(theta)^-1*d(f3,theta,psi)",
            "-d(f3,r,r) - 2*P(r,-1)*d(f3,r) + P(r,-2)*sina(theta)^-2*f3 - P(r,-2)*d(f3,theta,theta)"
            " - P(r,-2)*sina(theta)^-1*cosa(theta)*d(f3,theta)"
            " + P(r,-2)*sina(theta)^-2*d(f3,psi,psi) + 2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
            " + 2*P(r,-1)*sina(theta)^-1*d(f1,r,psi) + 2*P(r,-2)*sina(theta)^-1*d(f2,theta,psi)",
        ),
    },
}


def _renamed(form: CanonicalExpr, k: int) -> CanonicalExpr:
    """A form in f0 alone, with f0 renamed fk."""
    return CanonicalExpr._of(
        {_new(Monomial, (((k, m.dsyms[0][1]),),) + m[1:]): c for m, c in form.terms.items()}
    )


def _hand_tables(frame: Frame, delta0: str, laplacian: tuple, bitsadze: tuple) -> dict:
    """One frame's hand text as "forms" by operator, each with delta0 as
    its f0 component, and the "rows" of each form.  Component k of the
    vector Laplacian is delta0 with f0 renamed fk, plus its coupling."""
    first = parse(delta0, frame)
    vector = (_renamed(first, k) + parse(t, frame) for k, t in enumerate(laplacian, 1))
    forms = {
        "delta0": (first,),
        "laplacian": (first, *vector),
        "bitsadze": (first, *(parse(t, frame) for t in bitsadze)),
    }
    return {"forms": forms, "rows": {op: tuple(map(rows_of, form)) for op, form in forms.items()}}


_HAND = {name: _hand_tables(FRAMES[name], **texts) for name, texts in _HAND_TEXT.items()}


def _hand(frame: Frame, part: str) -> dict:
    """The frame's hand "forms" or "rows", by operator."""
    try:
        return _HAND[frame.name][part]
    except KeyError:
        raise ValueError(f"unknown frame {frame.name!r}") from None


def delta0(f0, frame: Frame) -> CanonicalExpr:
    """Scalar Laplacian, from the frame's hand table."""
    return apply_table(_hand(frame, "rows")["delta0"], (f0,))[0]


def laplacian(f: QuaternionField) -> QuaternionField:
    """Quaternionic Laplacian: delta0 on f0 plus the vector Laplacian
    grad(div) - curl(curl) on the vector part."""
    return QuaternionField(f.frame, *apply_table(_hand(f.frame, "rows")["laplacian"], f.components))


def bitsadze(f: QuaternionField) -> QuaternionField:
    """Bitsadze operator: delta0 on f0 plus grad(div) + curl(curl) on the
    vector part."""
    return QuaternionField(f.frame, *apply_table(_hand(f.frame, "rows")["bitsadze"], f.components))


def perturbed_mt(f: QuaternionField, lam=FORMAL, sign: int = 1) -> QuaternionField:
    """(D + sign*lam) f with lam acting as a commuting scalar."""
    lam = _lam(lam)
    shift = f.scale(lam if sign > 0 else -lam)
    return mt_apply(f) + shift


def helmholtz_residual(f: QuaternionField, lam=FORMAL) -> QuaternionField:
    """Laplacian f + lam^2 f, componentwise."""
    lam = _lam(lam)
    return laplacian(f) + f.scale(lam * lam)


def helmholtz_component_system(frame, lam=FORMAL) -> tuple:
    """The four scalar equations obtained by equating each component of the
    Helmholtz residual of the fully abstract field to zero: the stored
    Laplacian form plus lam^2 f."""
    if isinstance(frame, str):
        frame = frame_by_name(frame)
    lam = _lam(lam)
    shift = abstract_field(frame).scale(lam * lam)
    return tuple(map(add, _hand(frame, "forms")["laplacian"], shift.components))


class IdentityReport(_Record):
    __slots__ = _fields = ("identity", "frame", "mode", "residuals")  # four residual maps

    @property
    def passed(self) -> bool:
        return all(r.is_zero() for r in self.residuals)

    def residual_strings(self) -> list:
        return [render_canonical(r) for r in self.residuals]

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "frame": self.frame,
            "mode": self.mode.value,
            "pass": self.passed,
            "residuals": self.residual_strings(),
        }


# Each residual takes the inner operator and the reference side from the
# stored forms (the frame's derived ones, the hand ones by frame name) and
# runs only the outer operator through the kernel.


def _residual_mt_squared(frame: Frame) -> tuple:
    lhs = mt_apply(QuaternionField(frame, *frame.forms["left"]), "left")
    return tuple(map(add, lhs.components, _hand(frame, "forms")["laplacian"]))


def _residual_bitsadze(frame: Frame) -> tuple:
    lhs = mt_apply(QuaternionField(frame, *frame.forms["right"]), "left")
    return tuple(map(add, lhs.components, _hand(frame, "forms")["bitsadze"]))


def _residual_helmholtz(frame: Frame) -> tuple:
    shift = abstract_field(frame).scale(CanonicalExpr.lam())
    lhs = -(perturbed_mt(QuaternionField(frame, *frame.forms["left"]) + shift, FORMAL, -1))
    return tuple(map(sub, lhs.components, helmholtz_component_system(frame)))


def _residual_curl_grad(frame: Frame) -> tuple:
    return curl_alpha(vector_field(frame, *frame.forms["grad"])).components


def _residual_div_curl(frame: Frame) -> tuple:
    return (div_alpha(vector_field(frame, *frame.forms["curl"])),) + (CanonicalExpr.zero(),) * 3


def _residual_div_grad_delta0(frame: Frame) -> tuple:
    div_grad = div_alpha(vector_field(frame, *frame.forms["grad"]))
    return (div_grad - _hand(frame, "forms")["delta0"][0],) + (CanonicalExpr.zero(),) * 3


_IDENTITIES = {
    "mt_squared": _residual_mt_squared,
    "bitsadze_factorization": _residual_bitsadze,
    "helmholtz_factorization": _residual_helmholtz,
    "curl_grad": _residual_curl_grad,
    "div_curl": _residual_div_curl,
    "div_grad_delta0": _residual_div_grad_delta0,
}

IDENTITY_NAMES = tuple(_IDENTITIES)

# frames checked by "verify all": the factorizations in every frame, the
# first-order identities where the curvilinear formulas carry content
VERIFICATION_MATRIX = {
    "mt_squared": ("cartesian", "cylindrical", "spherical"),
    "bitsadze_factorization": ("cylindrical", "spherical"),
    "helmholtz_factorization": ("cartesian", "cylindrical", "spherical"),
    "curl_grad": ("cylindrical", "spherical"),
    "div_curl": ("cylindrical", "spherical"),
    "div_grad_delta0": ("cylindrical", "spherical"),
}


def verify_identity(name: str, frame) -> IdentityReport:
    """Residuals of left-minus-right for one identity after full
    normalization; passes when every residual map is empty."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    if isinstance(frame, str):
        frame = frame_by_name(frame)
    residuals = _IDENTITIES[name](frame)
    return IdentityReport(name, frame.name, DerivativeMode.DERIVATION, tuple(residuals))


def verify_all(names=None, frames=None):
    """Reports for the verification matrix, optionally filtered, each
    yielded as soon as it is computed."""
    for name in names or IDENTITY_NAMES:
        for frame_name in frames or VERIFICATION_MATRIX[name]:
            yield verify_identity(name, frame_name)
