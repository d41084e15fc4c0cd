"""Exact scalar arithmetic for the symbolic layer.

Coefficients of canonical expressions are Gaussian rationals (the formal
parameter ``lam`` is a generator of the monomials), so every identity
check reduces to exact integer arithmetic.  Each value has exactly one
stored form.  An integer value is a plain int, which the interpreter
adds, multiplies, hashes and tests in C; the identity checks meet almost
only those.  Every other value is a CRat, which stores (a + b i)/d as
three ints with one common denominator, d > 0 and gcd(a, b, d) == 1, so a
CRat is never integer-valued: b != 0 or d != 1.  complex(c) reads either.

Every part of a coefficient stays below LIMIT = 10^DIGITS (DIGITS, the
int-to-str digit limit at import) in absolute value, so the ring never
forms a coefficient str() refuses; one past it raises the error of
`limit_error`.  `_of` forms every CRat that an operation or the parser
builds and checks it.  The interpreter forms an int sum or product
unchecked; canonical._accumulate, through which every coefficient
reaches a map, bounds every int the map receives against (_FLOOR, LIMIT).
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from numbers import Rational

from .expr import CoefficientLimitError

DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
LIMIT = 10**DIGITS  # a coefficient part must stay below it in absolute value
_FLOOR = -LIMIT


def limit_error() -> CoefficientLimitError:
    """The error of a coefficient part that reaches LIMIT."""
    return CoefficientLimitError(f"a coefficient passes the int digit limit ({DIGITS} digits)")


def _frac(x):
    from fractions import Fraction  # imported only where a Fraction is needed
    if isinstance(x, (Rational, str)):
        return Fraction(x)
    if isinstance(x, float):
        # use the shortest decimal repr so 0.1 means 1/10, not the binary float
        return Fraction(str(x))
    raise TypeError(f"cannot convert {x!r} to an exact rational")


class CRat:
    """Complex number (a + b i)/d with exact rational real and imaginary
    parts that is not an integer.  The constructor, like every operation,
    gives an int where the value is one."""

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

    # -- ring operations: the other operand is an int, a CRat or a Rational --

    def __add__(self, other):
        if type(other) is int:
            return _of(self.a + other * self.d, self.b, self.d)
        if type(other) is not CRat:
            other = as_crat(other, exact=True)
            return NotImplemented if other is None else self + other
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
        if type(other) is not CRat:
            other = as_crat(other, exact=True)
            return NotImplemented if other is None else self * other
        a, b, c, e = self.a, self.b, other.a, other.b
        return _of(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_crat(other, exact=True)
        return NotImplemented if other is None else quotient(self, other)

    def __rtruediv__(self, other):
        other = as_crat(other, exact=True)
        return NotImplemented if other is None else quotient(other, self)

    def __neg__(self):
        return _of(-self.a, -self.b, self.d)

    # -- structure ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is CRat:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):  # a CRat is never integer-valued
            return False
        if isinstance(other, Rational):  # in lowest terms, like a real CRat
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    # the (re, im) order, which sorts Ea scales; `int < CRat` reaches __gt__
    def __lt__(self, other):
        return _less(self, other)

    def __gt__(self, other):
        return _less(other, self)

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        # a real value hashes like the Fraction it equals: a/d modulo m, or
        # +-inf if d has no inverse
        m, inf = sys.hash_info.modulus, sys.hash_info.inf
        return hash(self.a * pow(self.d, -1, m)) if self.d % m else inf if self.a > 0 else -inf

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"CRat({self.re}, {self.im})"

    def __str__(self):
        return render_crat(self)


_new = object.__new__
_set_a, _set_b, _set_d = (getattr(CRat, name).__set__ for name in CRat.__slots__)


def _of(a: int, b: int, d: int):
    """(a + b i)/d from ints with d > 0 in its stored form, an int or a
    CRat, which is below LIMIT."""
    if d != 1 and (g := gcd(a, b, d)) != 1:
        a, b, d = a // g, b // g, d // g
    if not (_FLOOR < a < LIMIT and _FLOOR < b < LIMIT and d < LIMIT):
        raise limit_error()
    if not b and d == 1:
        return a
    self = _new(CRat)
    _set_a(self, a)
    _set_b(self, b)
    _set_d(self, d)
    return self


def _parts(c) -> tuple:
    """(a, b, d) of a stored coefficient."""
    return (c, 0, 1) if type(c) is int else (c.a, c.b, c.d)


def _less(x, y) -> bool:
    """x < y in the (re, im) order of two stored coefficients."""
    (a, b, d), (c, e, f) = _parts(x), _parts(y)
    p, q = a * f, c * d
    return p < q or (p == q and b * f < e * d)


def quotient(x, y):
    """x / y of two stored coefficients, also of two ints."""
    (a, b, d), (c, e, f) = _parts(x), _parts(y)
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("division by zero CRat")
    return _of((a * c + b * e) * f, (b * c - a * e) * f, d * n)


def as_crat(x, exact: bool = False):
    """x in its stored form: an int for an integer value, else a CRat.
    Floats and complex numbers convert through their shortest decimal
    repr; with exact=True they, like every other type but the rationals,
    give None (the ring operations' NotImplemented)."""
    if type(x) is int:
        return _of(x, 0, 1)
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


def render_crat(c) -> str:
    """Render an int or a CRat in the DSL number syntax; both-part values
    get parentheses.  Each part is reduced on its own: (1 + 2i)/2 renders
    as (1/2 + 1i)."""
    if type(c) is int:
        return str(c)
    a, b, d = c.a, c.b, c.d
    if b == 0:
        return _render_frac(a, d)
    if a == 0:
        return _render_imag(b, d)
    sign = " - " if b < 0 else " + "
    return f"({_render_frac(a, d)}{sign}{_render_imag(abs(b), d)})"


def render_poly(terms) -> str:
    """DSL rendering of a lam-polynomial given as (power, coefficient) pairs in
    ascending power, highest power first: e.g. ``lam^2 - 1``."""
    pieces = []
    for p, c in reversed(terms):
        if p == 0:
            body = render_crat(c)
        else:
            lam = "lam" if p == 1 else f"lam^{p}"
            if c == 1:
                body = lam
            elif c == -1:
                body = "-" + lam
            else:
                body = f"{render_crat(c)}*{lam}"
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out
