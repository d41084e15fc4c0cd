"""Quaternionic first- and second-order operators and the identity engine.

The first-order operator (left action) is

    D[f] = -div(fvec) + grad(f0) + curl(fvec),

built from the Lame-coefficient grad, div and curl of `vectorops`; its
right action flips the curl sign (the unique choice that makes the
Bitsadze factorization close in the curvilinear frames; the Cartesian
right action reduces to multiplying the units from the right).  The
second-order operators are not compositions: each frame has a table of
hand-expanded rows (coefficient, component, derivative variables), which
one interpreter sums.  The rows are transcribed, never derived from the
Lame coefficients, so verifying

    D(D f)        = -(scalar Laplacian + vector Laplacian)
    D(D^r f)      = -(scalar Laplacian + Bitsadze vector part)
    -(D-lam)(D+lam) f = Laplacian f + lam^2 f
    div(grad f0)  = delta0 f0

checks two independent sources against each other, with all four
residuals required to normalize to zero.
"""

from __future__ import annotations

from .canonical import CanonicalExpr, _add_products, as_canonical_scalar, render_canonical
from .derivative import DerivativeMode, d_alpha
from .frames import (
    Frame,
    QuaternionField,
    _Record,
    abstract_field,
    abstract_scalar_field,
    abstract_vector_field,
    frame_by_name,
)
from .vectorops import curl_alpha, div_alpha, grad_alpha

# coefficient monomials: R<n> = P(r,-n), S<n> = sina(theta)^-n, C = cosa(theta)
_R1 = CanonicalExpr.fractal_power("r", -1)
_R2 = CanonicalExpr.fractal_power("r", -2)
_S1 = CanonicalExpr.trig("theta", "sin").inverse()
_CS1 = CanonicalExpr.trig("theta", "cos") * _S1
_R1S1, _R1CS1 = _R1 * _S1, _R1 * _CS1
_R2S1, _R2CS1 = _R2 * _S1, _R2 * _CS1
_R2S2, _R2CS2 = _R2S1 * _S1, _R2CS1 * _S1

FORMAL = "formal"


def _lam(lam) -> CanonicalExpr:
    if lam is None or lam == FORMAL:
        return CanonicalExpr.lam()
    return CanonicalExpr.const(lam)


def mt_apply(f: QuaternionField, side: str = "left") -> QuaternionField:
    """First-order operator: -div + grad + curl (left) or -div + grad - curl
    (right action)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    g = grad_alpha(f.f0, f.frame)
    c = curl_alpha(f)
    if side == "right":
        c = -c
    return QuaternionField(
        f.frame, -div_alpha(f), g.f1 + c.f1, g.f2 + c.f2, g.f3 + c.f3
    )


# Hand-expanded second-order operators, per frame.  A row is (coefficient,
# component, derivative variables).  "delta0" rows act on one scalar and
# carry no component; the vector Laplacian grad(div) - curl(curl) is delta0
# of each component plus the coupling rows listed here; the Bitsadze rows
# grad(div) + curl(curl) are complete.
_HAND_ROWS = {
    "cartesian": {
        "delta0": ((1, "x x"), (1, "y y"), (1, "z z")),
        "laplacian": ((), (), ()),
        "bitsadze": (  # 2 d_i d_j f_j - delta0 f_i
            ((1, 1, "x x"), (2, 2, "x y"), (2, 3, "x z"), (-1, 1, "y y"), (-1, 1, "z z")),
            ((2, 1, "x y"), (1, 2, "y y"), (2, 3, "y z"), (-1, 2, "x x"), (-1, 2, "z z")),
            ((2, 1, "x z"), (2, 2, "y z"), (1, 3, "z z"), (-1, 3, "x x"), (-1, 3, "y y")),
        ),
    },
    "cylindrical": {
        "delta0": ((1, "r r"), (_R2, "theta theta"), (_R1, "r"), (1, "z z")),
        "laplacian": (
            ((-_R2, 1, ""), (-2 * _R2, 2, "theta")),
            ((-_R2, 2, ""), (2 * _R2, 1, "theta")),
            (),
        ),
        "bitsadze": (
            ((1, 1, "r r"), (2 * _R1, 2, "r theta"), (_R1, 1, "r"), (-_R2, 1, ""),
             (2, 3, "r z"), (-_R2, 1, "theta theta"), (-1, 1, "z z")),
            ((2 * _R1, 1, "r theta"), (_R2, 2, "theta theta"), (2 * _R1, 3, "theta z"),
             (-1, 2, "z z"), (-1, 2, "r r"), (-_R1, 2, "r"), (_R2, 2, "")),
            ((2, 1, "r z"), (2 * _R1, 2, "theta z"), (2 * _R1, 1, "z"), (1, 3, "z z"),
             (-1, 3, "r r"), (-_R2, 3, "theta theta"), (-_R1, 3, "r")),
        ),
    },
    "spherical": {
        "delta0": ((1, "r r"), (2 * _R1, "r"), (_R2, "theta theta"), (_R2CS1, "theta"),
                   (_R2S2, "psi psi")),
        "laplacian": (
            ((-2 * _R2, 1, ""), (-2 * _R2, 2, "theta"), (-2 * _R2CS1, 2, ""),
             (-2 * _R2S1, 3, "psi")),
            ((-_R2S2, 2, ""), (2 * _R2, 1, "theta"), (-2 * _R2CS2, 3, "psi")),
            ((-_R2S2, 3, ""), (2 * _R2S1, 1, "psi"), (2 * _R2CS2, 2, "psi")),
        ),
        "bitsadze": (
            ((1, 1, "r r"), (2 * _R1, 1, "r"), (-2 * _R2, 1, ""), (-_R2, 1, "theta theta"),
             (-_R2CS1, 1, "theta"), (-_R2S2, 1, "psi psi"), (2 * _R1, 2, "r theta"),
             (2 * _R1CS1, 2, "r"), (2 * _R1S1, 3, "r psi")),
            ((-1, 2, "r r"), (-2 * _R1, 2, "r"), (-_R2S2, 2, ""), (_R2, 2, "theta theta"),
             (_R2CS1, 2, "theta"), (-_R2S2, 2, "psi psi"), (2 * _R2, 1, "theta"),
             (2 * _R1, 1, "r theta"), (2 * _R2S1, 3, "theta psi")),
            ((-1, 3, "r r"), (-2 * _R1, 3, "r"), (_R2S2, 3, ""), (-_R2, 3, "theta theta"),
             (-_R2CS1, 3, "theta"), (_R2S2, 3, "psi psi"), (2 * _R2S1, 1, "psi"),
             (2 * _R1S1, 1, "r psi"), (2 * _R2S1, 2, "theta psi")),
        ),
    },
}


def _rows(delta0, laplacian, bitsadze) -> dict:
    """The hand rows in the interpreter's form: every coefficient a
    CanonicalExpr, the derivative variables a tuple in the order the table
    writes them (mixed partials commute, so each pair is written in one
    order only), and the vector Laplacian rows with delta0 of their
    component."""

    def norm(rows):
        return tuple((as_canonical_scalar(c), k, tuple(v.split())) for c, k, v in rows)

    return {
        "delta0": norm((c, 0, v) for c, v in delta0),
        "laplacian": tuple(
            norm([(c, k, v) for c, v in delta0] + list(rows)) for k, rows in enumerate(laplacian, 1)
        ),
        "bitsadze": tuple(norm(rows) for rows in bitsadze),
    }


_TERMS = {name: _rows(**rows) for name, rows in _HAND_ROWS.items()}


def _terms(frame: Frame) -> dict:
    try:
        return _TERMS[frame.name]
    except KeyError:
        raise ValueError(f"unknown frame {frame.name!r}") from None


def _combine(rows, comps, partials: dict) -> CanonicalExpr:
    """Sum of coefficient * d(comps[k], vars) over the rows; partials holds
    each (k, vars) derivative computed so far in this call.  A missing one
    is formed from its prefixes, shortest first, in a loop: a nested
    function that called itself would be a reference cycle, which keeps
    every map in partials alive until the cyclic collector runs."""
    acc = {}
    for coeff, k, vs in rows:
        if (k, vs) not in partials:
            for j in range(len(vs) + 1):
                if (k, vs[:j]) not in partials:
                    d = d_alpha(partials[k, vs[: j - 1]], vs[j - 1]) if j else comps[k]
                    partials[k, vs[:j]] = as_canonical_scalar(d)
        _add_products(acc, coeff.terms, partials[k, vs].terms)
    return CanonicalExpr._of(acc)


def delta0(f0, frame: Frame) -> CanonicalExpr:
    """Scalar Laplacian, from the frame's hand rows."""
    return _combine(_terms(frame)["delta0"], (as_canonical_scalar(f0),), {})


def _second_order(f: QuaternionField, vector_rows: str) -> QuaternionField:
    partials = {}
    return QuaternionField(
        f.frame,
        delta0(f.f0, f.frame),
        *(_combine(rows, f.components, partials) for rows in _terms(f.frame)[vector_rows]),
    )


def laplacian(f: QuaternionField) -> QuaternionField:
    """Quaternionic Laplacian: delta0 on f0 plus the vector Laplacian
    grad(div) - curl(curl) on the vector part."""
    return _second_order(f, "laplacian")


def bitsadze(f: QuaternionField) -> QuaternionField:
    """Bitsadze operator: delta0 on f0 plus grad(div) + curl(curl) on the
    vector part."""
    return _second_order(f, "bitsadze")


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
    Helmholtz residual of the fully abstract field to zero."""
    if isinstance(frame, str):
        frame = frame_by_name(frame)
    return helmholtz_residual(abstract_field(frame), lam).components


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


def _residual_mt_squared(frame: Frame) -> tuple:
    f = abstract_field(frame)
    lhs = mt_apply(mt_apply(f, "left"), "left")
    return (lhs + laplacian(f)).components


def _residual_bitsadze(frame: Frame) -> tuple:
    f = abstract_field(frame)
    lhs = mt_apply(mt_apply(f, "right"), "left")
    return (lhs + bitsadze(f)).components


def _residual_helmholtz(frame: Frame) -> tuple:
    f = abstract_field(frame)
    inner = perturbed_mt(f, FORMAL, +1)
    lhs = -(perturbed_mt(inner, FORMAL, -1))
    return (lhs - helmholtz_residual(f, FORMAL)).components


def _residual_curl_grad(frame: Frame) -> tuple:
    f = abstract_scalar_field(frame)
    return curl_alpha(grad_alpha(f.f0, frame)).components


def _residual_div_curl(frame: Frame) -> tuple:
    f = abstract_vector_field(frame)
    zero = CanonicalExpr.zero()
    return (div_alpha(curl_alpha(f)), zero, zero, zero)


def _residual_div_grad_delta0(frame: Frame) -> tuple:
    f = abstract_scalar_field(frame)
    zero = CanonicalExpr.zero()
    return (div_alpha(grad_alpha(f.f0, frame)) - delta0(f.f0, frame), zero, zero, zero)


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
