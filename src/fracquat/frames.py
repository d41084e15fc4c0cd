"""Cantor-type coordinate frames and quaternion-valued fields.

A frame is fixed by its variables and its Lame coefficients h_i, the
scale factors of the paper's operator D f = sum_i e_i h_i^-1 d_i f:

    cartesian    (x, y, z)          h = (1, 1, 1)
    cylindrical  (r, theta, z)      h = (1, r^alpha, 1)
    spherical    (r, theta, psi)    h = (1, r^alpha, r^alpha sina(theta))

Everything frame-specific in grad, div and curl follows from h; the
connection coefficients those formulas need are derived once per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

from .canonical import CanonicalExpr, as_canonical_scalar
from .derivative import d_alpha


@dataclass(frozen=True)
class Frame:
    """Variables and Lame coefficients h_1..h_3 (unit monomials).

    Derived once, as canonical expressions: inv_lame[i] = 1/h_i,
    div_connection[i] = D_i(H/h_i)/H with H = h_1 h_2 h_3, and
    curl_connection[j][k] = D_j h_k / (h_j h_k)."""

    name: str
    variables: tuple
    lame: tuple
    inv_lame: tuple = _field(init=False, repr=False, compare=False)
    div_connection: tuple = _field(init=False, repr=False, compare=False)
    curl_connection: tuple = _field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = tuple(as_canonical_scalar(c) for c in self.lame)
        inv = tuple(c.inverse() for c in h)
        derived = {
            "variables": tuple(self.variables),
            "lame": h,
            "inv_lame": inv,
            "div_connection": tuple(
                d_alpha(h[j] * h[k], v) * inv[0] * inv[1] * inv[2]
                for v, j, k in zip(self.variables, (1, 2, 0), (2, 0, 1))
            ),
            "curl_connection": tuple(
                tuple(d_alpha(hk, v) * ij * ik for hk, ik in zip(h, inv))
                for v, ij in zip(self.variables, inv)
            ),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __str__(self):
        return self.name


_R = CanonicalExpr.fractal_power("r", 1)
_R_SIN = _R * CanonicalExpr.trig("theta", "sin")
CARTESIAN = Frame("cartesian", ("x", "y", "z"), (1, 1, 1))
CYLINDRICAL = Frame("cylindrical", ("r", "theta", "z"), (1, _R, 1))
SPHERICAL = Frame("spherical", ("r", "theta", "psi"), (1, _R, _R_SIN))

FRAMES = {f.name: f for f in (CARTESIAN, CYLINDRICAL, SPHERICAL)}


def frame_by_name(name: str) -> Frame:
    try:
        return FRAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown frame {name!r}; expected one of {sorted(FRAMES)}"
        ) from None


@dataclass(frozen=True)
class QuaternionField:
    """A frame plus four component expressions in the frame's local basis:
    f = f0 + f1 e_1 + f2 e_2 + f3 e_3."""

    frame: Frame
    f0: CanonicalExpr
    f1: CanonicalExpr
    f2: CanonicalExpr
    f3: CanonicalExpr

    @property
    def components(self) -> tuple:
        return (self.f0, self.f1, self.f2, self.f3)

    @property
    def vector_components(self) -> tuple:
        return (self.f1, self.f2, self.f3)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def map(self, fn) -> QuaternionField:
        return QuaternionField(self.frame, *(fn(c) for c in self.components))

    def __add__(self, other):
        if other.frame != self.frame:
            raise ValueError("cannot add fields in different frames")
        return QuaternionField(
            self.frame, *(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other):
        if other.frame != self.frame:
            raise ValueError("cannot subtract fields in different frames")
        return QuaternionField(
            self.frame, *(a - b for a, b in zip(self.components, other.components))
        )

    def __neg__(self):
        return self.map(lambda c: -c)

    def scale(self, s) -> QuaternionField:
        return self.map(lambda c: s * c)


def field(frame: Frame, f0=0, f1=0, f2=0, f3=0) -> QuaternionField:
    return QuaternionField(frame, *(as_canonical_scalar(c) for c in (f0, f1, f2, f3)))


def zero_field(frame: Frame) -> QuaternionField:
    return field(frame)


def scalar_field(frame: Frame, f0) -> QuaternionField:
    return field(frame, f0=f0)


def vector_field(frame: Frame, f1, f2, f3) -> QuaternionField:
    return field(frame, 0, f1, f2, f3)


def abstract_field(frame: Frame) -> QuaternionField:
    """f with all four components left as abstract symbols f0..f3."""
    return QuaternionField(frame, *(CanonicalExpr.component(k) for k in range(4)))


def abstract_scalar_field(frame: Frame) -> QuaternionField:
    return field(frame, f0=CanonicalExpr.component(0))


def abstract_vector_field(frame: Frame) -> QuaternionField:
    return field(
        frame,
        0,
        CanonicalExpr.component(1),
        CanonicalExpr.component(2),
        CanonicalExpr.component(3),
    )
