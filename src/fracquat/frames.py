"""Cantor-type coordinate frames, operator forms and quaternion-valued fields.

A frame is fixed by its variables and its Lame coefficients h_i, the
scale factors of the paper's operator D f = sum_i e_i h_i^-1 d_i f:

    cartesian    (x, y, z)          h = (1, 1, 1)
    cylindrical  (r, theta, z)      h = (1, r^alpha, 1)
    spherical    (r, theta, psi)    h = (1, r^alpha, r^alpha sina(theta))

Every operator is linear in the four components, so it is one form: what
it does to the abstract field f0..f3, four expressions, one per output
component.  The kernel apply_table applies a form to any field; applied
to another form, it gives the form of the composition.  A frame holds
every operator's form in one read-only map: grad, div, curl and D derived
once from h, and delta0, laplacian and bitsadze parsed from the
hand-expanded text that sits beside the Lame coefficients below, never
derived from h; each text is parsed once per process for each frame name
and variables.  Every operator lives in quatops and is one kernel pass
of one of these forms, or of one shifted there by a multiple of the
identity (quatops._shifted); verify checks the derived forms against the
hand ones, so every operator applies what verify certified.
"""

from __future__ import annotations

from functools import cache
from operator import add, sub
from types import MappingProxyType

from .canonical import CanonicalExpr, Monomial, _add_term_products, _new, as_canonical_scalar
from .derivative import _d_terms, d_alpha
from .parser import parse


def apply_table(table, comps, seeds=None) -> tuple:
    """Per form of the table, the sum over its terms c * m * d(fk, vs) of
    c * m times the vs-derivative of comps[k], into a new map or the clean
    map seeds[n] for the n-th form; a term with no component symbol, or
    with two, raises ValueError.  Each partial map is formed once per call
    by _d_terms from its prefixes in a loop: recursion would be a reference
    cycle, keeping partials alive until the cyclic collector runs."""
    partials = {(k, ()): as_canonical_scalar(c).terms for k, c in enumerate(comps)}
    out = []
    for form, acc in zip(table, seeds or [{} for _ in table], strict=True):
        for mono, c in form.terms.items():
            if len(mono.dsyms) != 1:
                raise ValueError(f"not linear in the components: {CanonicalExpr({mono: c})}")
            k, midx = key = mono.dsyms[0]
            if key not in partials:
                for j in range(1, len(midx) + 1):
                    if (k, midx[:j]) not in partials:
                        partials[k, midx[:j]] = _d_terms(partials[k, midx[: j - 1]], midx[j - 1])
            _add_term_products(acc, _new(Monomial, ((),) + mono[1:]), c, partials[key])
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
    read-only map of the frame's operator forms, each four expressions
    over f0..f3, one per output component, which apply_table applies.
    Five are derived from h (H = h_1 h_2 h_3, (i, j, k) cyclic):

        forms["grad"]   (0, grad_i = D_i f0 / h_i)
        forms["div"]    (div = sum_i D_i(H/h_i f_i) / H, 0, 0, 0)
        forms["curl"]   (0, curl_i = (D_j(h_k f_k) - D_k(h_j f_j)) / (h_j h_k))
        forms["left"]   D f = grad - div + curl
        forms["right"]  f D = grad - div - curl

    A frame named in _HAND_TEXT also holds its hand-expanded "delta0"
    (delta0 f0, 0, 0, 0), "laplacian" and "bitsadze", parsed from that text
    by _hand_forms, whose forms every frame of that name and variables
    shares: a rebuilt or unpickled frame parses no text.  Another frame
    holds only the derived five; reading a hand form raises KeyError.
    """

    __slots__ = ("name", "variables", "lame", "forms")
    _fields = __slots__[:3]

    def __init__(self, name: str, variables, lame):
        variables = tuple(variables)
        h = tuple(as_canonical_scalar(c) for c in lame)
        inv = tuple(c.inverse() for c in h)
        f = tuple(CanonicalExpr.component(k) for k in range(4))
        zero, big_h = CanonicalExpr.zero(), h[0] * h[1] * h[2]
        div = sum(d_alpha(big_h * ih * fi, v) for v, ih, fi in zip(variables, inv, f[1:])) / big_h

        def curl(i):
            j, k = (i + 1) % 3, (i + 2) % 3
            dj, dk = d_alpha(h[k] * f[k + 1], variables[j]), d_alpha(h[j] * f[j + 1], variables[k])
            return (dj - dk) * inv[j] * inv[k]

        forms = {
            "grad": (zero, *(d_alpha(f[0], v) * ih for v, ih in zip(variables, inv))),
            "div": (div, zero, zero, zero),
            "curl": (zero, *map(curl, range(3))),
        }
        grad_div = tuple(map(sub, forms["grad"], forms["div"]))
        forms["left"] = tuple(map(add, grad_div, forms["curl"]))
        forms["right"] = tuple(map(sub, grad_div, forms["curl"]))
        if name in _HAND_TEXT:
            forms["delta0"], forms["laplacian"], forms["bitsadze"] = _hand_forms(name, variables)
        super().__init__(name, variables, h, MappingProxyType(forms))

    def __str__(self):
        return self.name


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


@cache
def _hand_forms(name: str, variables: tuple) -> tuple:
    """The delta0, laplacian and bitsadze forms of the frame's hand text,
    parsed against its variables."""
    text, zero = _HAND_TEXT[name], CanonicalExpr.zero()
    d0 = parse(text["delta0"], variables)
    coupling = enumerate(text["laplacian"], 1)
    return (
        (d0, zero, zero, zero),
        (d0, *(apply_table((d0,), (CanonicalExpr.component(k),))[0] + parse(c, variables)
               for k, c in coupling)),
        (d0, *(parse(c, variables) for c in text["bitsadze"])),
    )


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
        if not isinstance(other, QuaternionField):
            return NotImplemented
        if other.frame != self.frame:
            raise ValueError("cannot add fields in different frames")
        return QuaternionField(self.frame, *map(add, self.components, other.components))

    def __sub__(self, other):
        if not isinstance(other, QuaternionField):
            return NotImplemented
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
