"""Exact scalar arithmetic for the symbolic layer.

Coefficients of canonical expressions are Gaussian rationals (the formal
parameter ``lam`` is a generator of the monomials), so every identity
check reduces to exact integer arithmetic.
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


def render_poly(terms) -> str:
    """DSL rendering of a lam-polynomial given as (power, CRat) pairs in
    ascending power, highest power first: e.g. ``lam^2 - 1``."""
    pieces = []
    for p, c in reversed(terms):
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
