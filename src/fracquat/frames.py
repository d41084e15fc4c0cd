"""Cantor-type coordinate frames, operator forms and quaternion-valued fields.

A frame is fixed by its variables and its Lame coefficients h_i, the
scale factors of the paper's operator D f = sum_i e_i h_i^-1 d_i f:

    cartesian    (x, y, z)          h = (1, 1, 1)
    cylindrical  (r, theta, z)      h = (1, r^alpha, 1)
    spherical    (r, theta, psi)    h = (1, r^alpha, r^alpha sina(theta))

Every operator is linear in the four components, so it is one form: what
it does to the abstract field f0..f3, one expression per output component.
The kernel apply_table applies a tuple of forms to any field.  Each frame
derives its grad, div, curl and D forms once, from h; verify certifies
these stored forms against the hand text (see quatops), and every
operator applies them, so it applies what verify certified.
"""

from __future__ import annotations

from operator import add, sub
from types import MappingProxyType

from .canonical import CanonicalExpr, Monomial, _add_products, _new, as_canonical_scalar
from .derivative import d_alpha
from .expr import VARIABLES


def apply_table(table, comps) -> tuple:
    """Per form of the table, the sum over its terms c * m * d(fk, vs) of
    c * m times the vs-derivative of comps[k]; a term with no component
    symbol, or with two, raises ValueError.  Each derivative is formed once
    per call from its prefixes, shortest first, in a loop: a function that
    called itself would be a reference cycle, which keeps partials alive
    until the cyclic collector runs."""
    partials = {(k, ()): as_canonical_scalar(c) for k, c in enumerate(comps)}
    out = []
    for form in table:
        acc = {}
        for mono, c in form.terms.items():
            if len(mono.dsyms) != 1:
                raise ValueError(f"not linear in the components: {CanonicalExpr({mono: c})}")
            k, midx = key = mono.dsyms[0]
            if key not in partials:
                for j in range(1, len(midx) + 1):
                    if (k, midx[:j]) not in partials:
                        d = partials[k, midx[: j - 1]]
                        partials[k, midx[:j]] = d_alpha(d, VARIABLES[midx[j - 1]])
            _add_products(acc, {_new(Monomial, ((),) + mono[1:]): c}, partials[key].terms)
        out.append(CanonicalExpr._of(acc))
    return tuple(out)


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
    """Variables and Lame coefficients h_1..h_3 (unit monomials), and the
    read-only forms derived from them (H = h_1 h_2 h_3, (i, j, k) cyclic),
    each one expression per output component, which apply_table applies:

        forms["grad"]   grad_i = D_i f0 / h_i
        forms["div"]    div    = sum_i D_i(H/h_i f_i) / H
        forms["curl"]   curl_i = (D_j(h_k f_k) - D_k(h_j f_j)) / (h_j h_k)
        forms["left"]   D f    = (-div, grad + curl)
        forms["right"]  f D    = (-div, grad - curl)
    """

    __slots__ = ("name", "variables", "lame", "forms")
    _fields = __slots__[:3]

    def __init__(self, name: str, variables, lame):
        h = tuple(as_canonical_scalar(c) for c in lame)
        inv = tuple(c.inverse() for c in h)
        f = tuple(CanonicalExpr.component(k) for k in range(4))
        big_h = h[0] * h[1] * h[2]
        grad = tuple(d_alpha(f[0], v) * ih for v, ih in zip(variables, inv))
        div = sum(d_alpha(big_h * ih * fi, v) for v, ih, fi in zip(variables, inv, f[1:])) / big_h

        def curl(i):
            j, k = (i + 1) % 3, (i + 2) % 3
            dj, dk = d_alpha(h[k] * f[k + 1], variables[j]), d_alpha(h[j] * f[j + 1], variables[k])
            return (dj - dk) * inv[j] * inv[k]

        forms = {"grad": grad, "div": (div,), "curl": tuple(map(curl, range(3)))}
        forms["left"] = (-div, *map(add, grad, forms["curl"]))
        forms["right"] = (-div, *map(sub, grad, forms["curl"]))
        super().__init__(name, tuple(variables), h, MappingProxyType(forms))

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
