"""Exact scalar arithmetic for the symbolic layer.

Coefficients of canonical expressions are polynomials in the formal
parameter ``lam`` over the Gaussian rationals, so every identity check
reduces to exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # use the shortest decimal repr so 0.1 means 1/10, not the binary float
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {x!r} to an exact rational")


class CRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    def __reduce__(self):  # the default slot restore would hit __setattr__
        return CRat._of, (self.re, self.im)

    @staticmethod
    def _of(re: Fraction, im: Fraction) -> CRat:
        """Wrap parts that are already Fractions, skipping conversion."""
        self = object.__new__(CRat)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _crat_or_none(other)
        if other is None:
            return NotImplemented
        return CRat._of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _crat_or_none(other)
        if other is None:
            return NotImplemented
        return CRat._of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _crat_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _crat_or_none(other)
        if other is None:
            return NotImplemented
        return CRat._of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_crat(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat._of(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return as_crat(other) / self

    def __neg__(self):
        return CRat._of(-self.re, -self.im)

    # -- structure ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CRat(other)
        if not isinstance(other, CRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self

    def sort_key(self):
        return (self.re, self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"CRat({self.re}, {self.im})"

    def __str__(self):
        return render_crat(self)


CRAT_ZERO = CRat(0)
CRAT_ONE = CRat(1)
CRAT_I = CRat(0, 1)


def _crat_or_none(x):
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(x)
    return None


def as_crat(x) -> CRat:
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(x)
    if isinstance(x, complex):
        return CRat(_frac(x.real), _frac(x.imag))
    if isinstance(x, float):
        return CRat(_frac(x))
    raise TypeError(f"cannot coerce {x!r} to CRat")


def _render_frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_imag(q: Fraction) -> str:
    # "2i" is a single literal token; fractional multiples need explicit "*1i"
    # so that e.g. 1/2*1i reparses as (1/2)*i rather than 1/(2i).
    if q == 1:
        return "1i"
    if q == -1:
        return "-1i"
    if q.denominator == 1:
        return f"{q.numerator}i"
    return f"{_render_frac(q)}*1i"


def render_crat(c: CRat) -> str:
    """Render in the DSL number syntax; both-part values get parentheses."""
    if c.im == 0:
        return _render_frac(c.re)
    if c.re == 0:
        return _render_imag(c.im)
    sign = " - " if c.im < 0 else " + "
    return f"({_render_frac(c.re)}{sign}{_render_imag(abs(c.im))})"


class Poly:
    """Polynomial in the formal parameter lam with CRat coefficients.

    Stored as a tuple of (power, coefficient) pairs, ascending in power,
    with no zero coefficients; two equal polynomials are identical tuples.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        cleaned = {}
        for p, c in terms.items() if isinstance(terms, dict) else terms:
            c = as_crat(c)
            if c:
                cleaned[p] = cleaned.get(p, CRAT_ZERO) + c
        object.__setattr__(self, "terms", tuple(sorted(t for t in cleaned.items() if t[1])))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):  # the default slot restore would hit __setattr__
        return Poly._of, (self.terms,)

    @staticmethod
    def _of(terms: tuple) -> Poly:
        """Wrap terms already sorted by power with no zero coefficient."""
        self = object.__new__(Poly)
        object.__setattr__(self, "terms", terms)
        return self

    @staticmethod
    def const(c) -> Poly:
        c = as_crat(c)
        return Poly._of(((0, c),) if c else ())

    @staticmethod
    def lam(power: int = 1) -> Poly:
        return Poly._of(((power, CRAT_ONE),))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _poly_or_none(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b) and a[0][0] == b[0][0]:
            c = a[0][1] + b[0][1]
            return Poly._of(((a[0][0], c),) if c else ())
        acc = dict(a)
        for p, c in b:
            prev = acc.get(p)
            acc[p] = c if prev is None else prev + c
        return Poly._of(tuple(sorted(t for t in acc.items() if t[1])))

    __radd__ = __add__

    def __sub__(self, other):
        other = _poly_or_none(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _poly_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly._of(tuple((p, -c) for p, c in self.terms))

    def __mul__(self, other):
        other = _poly_or_none(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a product of nonzero Gaussian rationals is nonzero
            (p1, c1), = a
            return Poly._of(tuple((p1 + p2, c1 * c2) for p2, c2 in b))
        acc = {}
        for p1, c1 in a:
            for p2, c2 in b:
                p = p1 + p2
                acc[p] = acc.get(p, CRAT_ZERO) + c1 * c2
        return Poly._of(tuple(sorted(t for t in acc.items() if t[1])))

    __rmul__ = __mul__

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def constant_value(self) -> CRat:
        if not self.terms:
            return CRAT_ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant polynomial")
        return self.terms[0][1]

    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def inverse(self) -> Poly:
        c = self.constant_value()  # raises for genuine lam dependence
        if not c:
            raise ZeroDivisionError("inverse of zero polynomial")
        return Poly.const(CRAT_ONE / c)

    def eval(self, lam_value: complex) -> complex:
        return sum((c.to_complex() * lam_value**p for p, c in self.terms), 0j)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            other = as_poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def sort_key(self):
        return tuple((p, c.sort_key()) for p, c in self.terms)

    def __repr__(self):
        return f"Poly({self.terms!r})"

    def __str__(self):
        return render_poly(self)


POLY_ZERO = Poly()
POLY_ONE = Poly.const(1)


def _poly_or_none(x):
    if isinstance(x, Poly):
        return x
    c = _crat_or_none(x)
    return None if c is None else Poly.const(c)


def as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(as_crat(x))


def render_poly(poly: Poly) -> str:
    """DSL rendering, highest lam power first: e.g. ``lam^2 - 1``."""
    if not poly.terms:
        return "0"
    pieces = []
    for p, c in reversed(poly.terms):
        if p == 0:
            body = render_crat(c)
        else:
            lam = "lam" if p == 1 else f"lam^{p}"
            if c == CRAT_ONE:
                body = lam
            elif c == -CRAT_ONE:
                body = "-" + lam
            else:
                body = f"{render_crat(c)}*{lam}"
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out
