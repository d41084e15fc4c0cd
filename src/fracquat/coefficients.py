"""Exact scalar arithmetic for the symbolic layer.

Coefficients of canonical expressions are Gaussian rationals (the formal
parameter ``lam`` is a generator of the monomials), so every identity
check reduces to exact integer arithmetic.  A CRat stores the value
(a + b i)/d as three ints with one common denominator, d > 0 and
gcd(a, b, d) == 1, so each value has exactly one stored form.  The gcd
is taken only when d != 1: the identity checks meet integer coefficients
almost only, and an integer product then costs four multiplications.

Every CRat is formed by `_of`, which bounds it: a part of LIMIT = 10^DIGITS
(DIGITS, the int-to-str digit limit at import) or more in lowest terms raises
CoefficientLimitError, so the ring never forms a coefficient str() refuses.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from numbers import Rational

from .expr import CoefficientLimitError

DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
LIMIT = 10**DIGITS  # a coefficient part must stay below it in absolute value
_FLOOR = -LIMIT


def _frac(x):
    from fractions import Fraction  # imported only where a Fraction is needed
    if isinstance(x, (Rational, str)):
        return Fraction(x)
    if isinstance(x, float):
        # use the shortest decimal repr so 0.1 means 1/10, not the binary float
        return Fraction(str(x))
    raise TypeError(f"cannot convert {x!r} to an exact rational")


class CRat:
    """Complex number (a + b i)/d with exact rational real and imaginary parts."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _of(re, im, 1)
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        return _of(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    def __reduce__(self):  # the default slot restore would hit __setattr__
        return _of, (self.a, self.b, self.d)

    # the parts as Fractions, for callers off the hot paths
    re = property(lambda self: _frac(self.a) / self.d)
    im = property(lambda self: _frac(self.b) / self.d)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if type(other) is not CRat and (other := as_crat(other, exact=True)) is None:
            return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _of(self.a + other.a, self.b + other.b, d)
        return _of(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is int:  # the Leibniz factors of d_alpha
            return _of(self.a * other, self.b * other, self.d)
        if type(other) is not CRat and (other := as_crat(other, exact=True)) is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _of(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_crat(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero CRat")
        return _of((a * c + b * e) * other.d, (b * c - a * e) * other.d, self.d * n)

    def __rtruediv__(self, other):
        return as_crat(other) / self

    def __neg__(self):
        return _of(-self.a, -self.b, self.d)

    # -- structure ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not CRat and (other := as_crat(other, exact=True)) is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __lt__(self, other):  # the (re, im) order, which sorts Ea scales
        x, y = self.a * other.d, other.a * self.d
        return x < y or (x == y and self.b * other.d < other.b * self.d)

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        if self.d == 1:  # a real value hashes like the int or Fraction it equals
            return hash(self.a)  # Fraction's is a/d modulo m, or +-inf if d has no inverse
        m, inf = sys.hash_info.modulus, sys.hash_info.inf
        return hash(self.a * pow(self.d, -1, m)) if self.d % m else inf if self.a > 0 else -inf

    def __bool__(self):
        return bool(self.a or self.b)

    def is_zero(self) -> bool:
        return not self

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"CRat({self.re}, {self.im})"

    def __str__(self):
        return render_crat(self)


_new = object.__new__
_set_a, _set_b, _set_d = (getattr(CRat, name).__set__ for name in CRat.__slots__)


def _of(a: int, b: int, d: int) -> CRat:
    """(a + b i)/d from ints with d > 0, brought to the stored form, which is below LIMIT."""
    if d != 1 and (g := gcd(a, b, d)) != 1:
        a, b, d = a // g, b // g, d // g
    if not (_FLOOR < a < LIMIT and _FLOOR < b < LIMIT and d < LIMIT):
        raise CoefficientLimitError(f"a coefficient passes the int digit limit ({DIGITS} digits)")
    self = _new(CRat)
    _set_a(self, a)
    _set_b(self, b)
    _set_d(self, d)
    return self


CRAT_ZERO = CRat(0)
CRAT_ONE = CRat(1)


def as_crat(x, exact: bool = False):
    """x as a CRat.  Floats and complex numbers convert through their
    shortest decimal repr; with exact=True they, like every other type
    but the rationals, give None (the ring operations' NotImplemented)."""
    if isinstance(x, CRat):
        return x
    if isinstance(x, Rational):
        return CRat(x)
    if exact:
        return None
    if isinstance(x, complex):
        return CRat(x.real, x.imag)
    if isinstance(x, float):
        return CRat(x)
    raise TypeError(f"cannot coerce {x!r} to CRat")


def _render_frac(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _render_imag(n: int, d: int) -> str:
    # "2i" is a single literal token; fractional multiples need explicit "*1i"
    # so that e.g. 1/2*1i reparses as (1/2)*i rather than 1/(2i).
    q = _render_frac(n, d)
    return f"{q}*1i" if "/" in q else f"{q}i"


def render_crat(c: CRat) -> str:
    """Render in the DSL number syntax; both-part values get parentheses.
    Each part is reduced on its own: (1 + 2i)/2 renders as (1/2 + 1i)."""
    a, b, d = c.a, c.b, c.d
    if b == 0:
        return _render_frac(a, d)
    if a == 0:
        return _render_imag(b, d)
    sign = " - " if b < 0 else " + "
    return f"({_render_frac(a, d)}{sign}{_render_imag(abs(b), d)})"


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
