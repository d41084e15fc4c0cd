"""Every operator of the calculus, and the identity engine.

Each operator (grad, div, curl, D, delta0, the Laplacian, the Bitsadze
operator) is one kernel pass, `frames.apply_table`, of one form, four
expressions over f0..f3, read from the frame's form map.  A lam-shifted
operator (D + lam, the Helmholtz operator Laplacian + lam^2) is one pass
of a stored form shifted by `_shifted`, the only code that adds a
multiple of the identity to an operator.  The first-order operator
D[f] = -div(fvec) + grad(f0) + curl(fvec) (left action) has its form
derived by each frame from its Lame coefficients, and its right action
flips the curl sign.  The tests check both sides
against the quaternion product sum_i e_i h_i^-1 d_i f
(test_matches_quaternionic_definition), and the bitsadze_factorization
report checks the pair.  The second-order operators are hand-expanded
DSL text beside each frame's Lame coefficients, never derived from
them, so verifying

    D(D f)        = -(scalar Laplacian + vector Laplacian)
    D(D^r f)      = -(scalar Laplacian + Bitsadze vector part)
    div(grad f0)  = delta0 f0

checks the Lame-derived forms against the hand text: every residual
must normalize to zero.  Each identity is one row over the form map, and
`fracquat apply` runs the same forms, so it applies what verify proved.
The factorization (D-lam)(D+lam) f = -(Laplacian f + lam^2 f) has the
row of mt_squared: its lam terms cancel exactly in the ring, so its
residual is D(D f) + Laplacian f and it certifies nothing that
mt_squared does not; the acceptance tests check solutions h instead.
Each operator reads frame.forms[op]: a missing form raises KeyError.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from .canonical import CanonicalExpr, render_canonical
from .derivative import DerivativeMode
from .frames import Frame, QuaternionField, _Record, apply_table, frame_by_name

FORMAL = "formal"


def _lam(lam) -> CanonicalExpr:
    if lam is None or lam == FORMAL:
        return CanonicalExpr.lam()
    return CanonicalExpr.const(lam)


def _shifted(form: tuple, s) -> tuple:
    """The form of the operator plus s times the identity."""
    return tuple(x + s * CanonicalExpr.component(k) for k, x in enumerate(form))


def grad_alpha(f0, frame: Frame) -> QuaternionField:
    """Gradient of a scalar, as a pure vector field."""
    return QuaternionField(frame, *apply_table(frame.forms["grad"], (f0,)))


def div_alpha(v: QuaternionField) -> CanonicalExpr:
    """Divergence of the vector part."""
    return apply_table(v.frame.forms["div"], v.components)[0]


def curl_alpha(v: QuaternionField) -> QuaternionField:
    """Curl of the vector part, as a pure vector field."""
    return QuaternionField(v.frame, *apply_table(v.frame.forms["curl"], v.components))


def mt_apply(f: QuaternionField, side: str = "left") -> QuaternionField:
    """First-order operator: -div + grad + curl (left) or -div + grad - curl
    (right action), from the frame's form for that side."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return QuaternionField(f.frame, *apply_table(f.frame.forms[side], f.components))


def delta0(f0, frame: Frame) -> CanonicalExpr:
    """Scalar Laplacian, from the frame's hand form."""
    return apply_table(frame.forms["delta0"], (f0,))[0]


def laplacian(f: QuaternionField) -> QuaternionField:
    """Quaternionic Laplacian: delta0 on f0 plus the vector Laplacian
    grad(div) - curl(curl) on the vector part."""
    return QuaternionField(f.frame, *apply_table(f.frame.forms["laplacian"], f.components))


def bitsadze(f: QuaternionField) -> QuaternionField:
    """Bitsadze operator: delta0 on f0 plus grad(div) + curl(curl) on the
    vector part."""
    return QuaternionField(f.frame, *apply_table(f.frame.forms["bitsadze"], f.components))


def perturbed_mt(f: QuaternionField, lam=FORMAL, sign: int = 1) -> QuaternionField:
    """(D + sign*lam) f with lam acting as a commuting scalar: the left
    form shifted by sign*lam, for sign 1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    form = _shifted(f.frame.forms["left"], _lam(lam) if sign == 1 else -_lam(lam))
    return QuaternionField(f.frame, *apply_table(form, f.components))


def helmholtz_residual(f: QuaternionField, lam=FORMAL) -> QuaternionField:
    """Laplacian f + lam^2 f, componentwise: the form of
    helmholtz_component_system applied to f."""
    form = helmholtz_component_system(f.frame, lam)
    return QuaternionField(f.frame, *apply_table(form, f.components))


def helmholtz_component_system(frame, lam=FORMAL) -> tuple:
    """The four scalar equations obtained by equating each component of the
    Helmholtz residual of the fully abstract field to zero: the stored
    Laplacian form shifted by lam^2."""
    if isinstance(frame, str):
        frame = frame_by_name(frame)
    lam = _lam(lam)
    return _shifted(frame.forms["laplacian"], lam * lam)


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


# Each identity is one row over a form map: the frames "verify all" checks
# it in, outer and inner operator and the reference their composition must
# cancel.  Its residual on f0..f3 is outer(inner) + sign*reference, the
# kernel composing the forms.  The factorizations are checked in every
# frame, the first-order identities where the curvilinear formulas carry
# content.  The Helmholtz row is mt_squared's: the shifted composition
# (D - lam)(D + lam) f + (Laplacian + lam^2) f equals it in the ring.
_Row = namedtuple("_Row", "frames outer inner sign reference", defaults=(0, None))
_ALL, _CURVED = ("cartesian", "cylindrical", "spherical"), ("cylindrical", "spherical")

_IDENTITIES = {
    "mt_squared": _Row(_ALL, "left", "left", 1, "laplacian"),
    "bitsadze_factorization": _Row(_CURVED, "left", "right", 1, "bitsadze"),
    "helmholtz_factorization": _Row(_ALL, "left", "left", 1, "laplacian"),
    "curl_grad": _Row(_CURVED, "curl", "grad"),
    "div_curl": _Row(_CURVED, "div", "curl"),
    "div_grad_delta0": _Row(_CURVED, "div", "grad", -1, "delta0"),
}


def _residuals(name: str, forms) -> tuple:
    """The four residuals of the identity's row over a form map."""
    row = _IDENTITIES[name]
    composed = apply_table(forms[row.outer], forms[row.inner])
    if row.reference is None:
        return composed
    return tuple(map(add if row.sign > 0 else sub, composed, forms[row.reference]))


IDENTITY_NAMES = tuple(_IDENTITIES)
VERIFICATION_MATRIX = {name: row.frames for name, row in _IDENTITIES.items()}


def verify_identity(name: str, frame) -> IdentityReport:
    """The residuals of the identity's row over the frame's forms after full
    normalization; passes when every residual map is empty."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    if isinstance(frame, str):
        frame = frame_by_name(frame)
    residuals = _residuals(name, frame.forms)
    return IdentityReport(name, frame.name, DerivativeMode.DERIVATION, residuals)


def verify_all(names=None, frames=None):
    """Reports for the verification matrix, optionally filtered, each
    yielded as soon as it is computed."""
    for name in names or IDENTITY_NAMES:
        for frame_name in frames or VERIFICATION_MATRIX[name]:
            yield verify_identity(name, frame_name)
