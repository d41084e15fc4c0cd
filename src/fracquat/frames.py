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

from operator import add, sub

from .canonical import CanonicalExpr, as_canonical_scalar
from .derivative import d_alpha


class _Record:
    """A frozen record: slots set once, in order; ==, hash, repr and pickle go by __reduce__."""

    __slots__ = _fields = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} arguments")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # the default slot restore would hit __setattr__
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(fields)})"


class Frame(_Record):
    """Variables and Lame coefficients h_1..h_3 (unit monomials).

    Derived once, as canonical expressions: inv_lame[i] = 1/h_i,
    div_connection[i] = D_i(H/h_i)/H with H = h_1 h_2 h_3, and
    curl_connection[j][k] = D_j h_k / (h_j h_k)."""

    __slots__ = ("name", "variables", "lame", "inv_lame", "div_connection", "curl_connection")
    _fields = __slots__[:3]

    def __init__(self, name: str, variables, lame):
        h = tuple(as_canonical_scalar(c) for c in lame)
        inv = tuple(c.inverse() for c in h)
        div = tuple(
            d_alpha(h[j] * h[k], v) * inv[0] * inv[1] * inv[2]
            for v, j, k in zip(variables, (1, 2, 0), (2, 0, 1))
        )
        curl = tuple(
            tuple(d_alpha(hk, v) * ij * ik for hk, ik in zip(h, inv))
            for v, ij in zip(variables, inv)
        )
        super().__init__(name, tuple(variables), h, inv, div, curl)

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
        raise ValueError(f"unknown frame {name!r}; expected one of {sorted(FRAMES)}") from None


class QuaternionField(_Record):
    """A frame plus four component expressions in the frame's local basis:
    f = f0 + f1 e_1 + f2 e_2 + f3 e_3."""

    __slots__ = _fields = ("frame", "f0", "f1", "f2", "f3")

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
        return QuaternionField(self.frame, *map(add, self.components, other.components))

    def __sub__(self, other):
        if other.frame != self.frame:
            raise ValueError("cannot subtract fields in different frames")
        return QuaternionField(self.frame, *map(sub, self.components, other.components))

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
