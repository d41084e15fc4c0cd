"""Canonical normal form for DSL expressions.

A canonical expression is a finite map from monomials to coefficients.
Coefficients are exact complex rationals (CRat); a monomial carries, per
variable, a fractal exponent n (var^(n*alpha)), a trig signature
sin^m * cos^e with e in {0,1} (cos^2 is rewritten to 1-sin^2), integer
powers of Ea generators keyed by their scale (a lam-polynomial), a
multiset of partial-derivative symbols on the abstract components f0..f3
with sorted (commuting) multi-indices, and a power of the formal
parameter lam.  Rendering groups the monomials that differ only in their
lam power under one lam-polynomial coefficient.  Sorting puts them next to
each other, so render makes one pass over the sorted terms, and it formats
each distinct factor group once per call.

Two expressions are equal exactly when their maps coincide, which is what
every identity check in the package reduces to.  So no map stores a zero
coefficient: `_accumulate` and `_add_products` keep maps clean, and
`CanonicalExpr._of` wraps a map unchecked, only for maps already reduced
that way.

The ring bounds its own work: CRat refuses a coefficient part of
coefficients.LIMIT or more as it forms one, so render prints every
coefficient, and one product may form at most MAX_TERM_PAIRS term pairs.
"""

from __future__ import annotations

from cmath import isfinite
from collections import namedtuple
from numbers import Rational

from .coefficients import CRAT_ONE, CRAT_ZERO, DIGITS, CRat, as_crat, render_poly
from .expr import (
    EvaluationDomainError,
    ExpressionError,
    NonInvertibleDivisionError,
    SingularDivisionError,
    TermBudgetError,
    UnboundSymbolError,
    VARIABLES,
    var_index,
)
from . import series as _series


class Monomial(namedtuple("Monomial", "dsyms powers trig ea lam", defaults=((),) * 4 + (0,))):
    """A product of generators.  Every variable is stored as its index in
    expr.VARIABLES and every group is kept sorted, so the field order is the
    rendering order: plain tuple order sorts the terms of a rendered sum,
    with lam last so that monomials differing only in their lam power sort
    together.  Equality, hashing and pickling are the tuple's.  The fields:
    dsyms ((k, midx), ...), a multiset, midx a sorted tuple of indices;
    powers ((var, n), ...), n != 0; trig ((var, m, e), ...), e in {0,1},
    (m,e) != (0,0); ea ((var, scale, p), ...), p != 0, scale as _scale;
    lam, the power of lam, >= 0."""

    __slots__ = ()

    def is_lam_power(self) -> bool:
        return not (self.powers or self.trig or self.ea or self.dsyms)

    def is_one(self) -> bool:
        return self.is_lam_power() and not self.lam


MONOMIAL_ONE = Monomial()
_new = tuple.__new__  # _new(Monomial, fields) skips the named tuple's Python-level __new__
_ONE_MAP = {MONOMIAL_ONE: CRAT_ONE}
MAX_TERM_PAIRS = 10**6  # term pairs one product may form


def _scale(ce) -> tuple:
    """An Ea scale: the lam-polynomial ce as (lam power, CRat) pairs in
    ascending power; ce may hold no generator other than lam."""
    if not all(m.is_lam_power() for m in ce.terms):
        raise ExpressionError("Ea scale must normalize to a scalar coefficient")
    return tuple(sorted((m.lam, c) for m, c in ce.terms.items()))


def _add_exponents(a: tuple, b: tuple) -> tuple:
    """Sorted product of two sorted (generator..., exponent) groups; zero exponents drop out."""
    if not a or not b:
        return a or b
    acc = {t[:-1]: t[-1] for t in a}
    for t in b:
        acc[t[:-1]] = acc.get(t[:-1], 0) + t[-1]
    return tuple(sorted(g + (p,) for g, p in acc.items() if p))


def _mul_monomials(a: Monomial, b: Monomial):
    """Product of two monomials as [(monomial, +/-1 coefficient)] pairs;
    the Pythagorean rewrite of cos^2 may split the product in two.  When
    at most one side has a trig group, no cos^2 can form, so the product
    is one monomial and takes the early return."""
    dsyms = tuple(sorted(a.dsyms + b.dsyms)) if a.dsyms and b.dsyms else a.dsyms or b.dsyms
    powers, ea, lam = _add_exponents(a.powers, b.powers), _add_exponents(a.ea, b.ea), a.lam + b.lam
    if not a.trig or not b.trig:
        return ((_new(Monomial, (dsyms, powers, a.trig or b.trig, ea, lam)), 1),)

    trig = {v: [m, e] for v, m, e in a.trig}
    for v, m, e in b.trig:
        if v in trig:
            trig[v][0] += m
            trig[v][1] += e
        else:
            trig[v] = [m, e]

    # cos^2 -> 1 - sin^2, variable by variable
    expansions = [({}, 1)]
    for v, (m, e) in trig.items():
        if e <= 1:
            for tmap, _ in expansions:
                tmap[v] = (m, e)
            continue
        assert e == 2
        new = []
        for tmap, sign in expansions:
            new.append(({**tmap, v: (m, 0)}, sign))
            new.append(({**tmap, v: (m + 2, 0)}, -sign))
        expansions = new

    out = []
    for tmap, sign in expansions:
        trig = tuple(sorted((v, m, e) for v, (m, e) in tmap.items() if m or e))
        out.append((_new(Monomial, (dsyms, powers, trig, ea, lam)), sign))
    return out


def _accumulate(acc: dict, items) -> dict:
    """Add (monomial, CRat) pairs into the clean map acc in place: zero
    coefficients are skipped and cancelled entries deleted."""
    for mono, coeff in items:
        if coeff:
            prev = acc.get(mono)
            if prev is None:
                acc[mono] = coeff
            else:
                coeff = prev + coeff
                if coeff:
                    acc[mono] = coeff
                else:
                    del acc[mono]
    return acc


def _add_products(acc: dict, a: dict, b: dict) -> dict:
    """Add the product of the clean maps a and b into the map acc in place
    (acc must be clean and shared by no expression).  The budget charges
    one per term pair and, when both sides have more than one term, the
    derivative symbols each pair merges."""
    if len(a) == 1 and MONOMIAL_ONE in a:
        a, b = b, a
    if len(b) == 1 and MONOMIAL_ONE in b:  # constant factor: no pair to form
        c = b[MONOMIAL_ONE]
        return _accumulate(acc, a.items() if c == CRAT_ONE else ((m, p * c) for m, p in a.items()))
    charge = len(a) * len(b)
    if len(a) > 1 and len(b) > 1:
        na, nb = sum(1 for m in a if m.dsyms), sum(1 for m in b if m.dsyms)
        charge += nb * sum(len(m.dsyms) for m in a) + na * sum(len(m.dsyms) for m in b)
    if charge > MAX_TERM_PAIRS:
        raise TermBudgetError(
            f"a product of {len(a)} by {len(b)} terms exceeds {MAX_TERM_PAIRS} term pairs"
        )
    for m1, p1 in a.items():
        for m2, p2 in b.items():
            coeff = p1 * p2
            for mono, sign in _mul_monomials(m1, m2):
                c = coeff if sign > 0 else -coeff
                prev = acc.get(mono)
                if prev is None:
                    acc[mono] = c
                elif c := prev + c:
                    acc[mono] = c
                else:
                    del acc[mono]
    return acc


class CanonicalExpr:
    """Finite monomial-to-coefficient map with exact ring arithmetic."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = _accumulate({}, ((m, as_crat(c)) for m, c in items))

    @staticmethod
    def _of(terms: dict) -> CanonicalExpr:
        """Wrap a map that is already clean, without copying or checking it.
        No code mutates the map of an existing expression, so expressions
        may share one: a product with the constant 1 and a sum with 0
        return the other operand's map."""
        self = object.__new__(CanonicalExpr)
        self._terms = terms
        return self

    # -- constructors: variables by name -----------------------------------

    @staticmethod
    def zero() -> CanonicalExpr:
        return CanonicalExpr()

    @staticmethod
    def one() -> CanonicalExpr:
        return CanonicalExpr({MONOMIAL_ONE: CRAT_ONE})

    @staticmethod
    def const(c) -> CanonicalExpr:
        return CanonicalExpr({MONOMIAL_ONE: c})

    @staticmethod
    def lam() -> CanonicalExpr:
        return CanonicalExpr({Monomial(lam=1): CRAT_ONE})

    @staticmethod
    def fractal_power(var: str, n: int) -> CanonicalExpr:
        if n == 0:
            return CanonicalExpr.one()
        return CanonicalExpr({Monomial(powers=((var_index(var), n),)): CRAT_ONE})

    @staticmethod
    def trig(var: str, kind: str) -> CanonicalExpr:
        v = var_index(var)
        sig = (v, 1, 0) if kind == "sin" else (v, 0, 1)
        return CanonicalExpr({Monomial(trig=(sig,)): CRAT_ONE})

    @staticmethod
    def ea_power(var: str, scale: tuple, p: int = 1) -> CanonicalExpr:
        if not scale or p == 0:
            return CanonicalExpr.one()  # E_alpha(0) = 1
        return CanonicalExpr({Monomial(ea=((var_index(var), scale, p),)): CRAT_ONE})

    @staticmethod
    def component(k: int, midx=()) -> CanonicalExpr:
        midx = tuple(sorted(map(var_index, midx)))
        return CanonicalExpr({Monomial(dsyms=((k, midx),)): CRAT_ONE})

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> dict:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def constant_coefficient(self) -> CRat:
        return self._terms.get(MONOMIAL_ONE, CRAT_ZERO)

    def __eq__(self, other):
        if isinstance(other, CanonicalExpr):
            return self._terms == other._terms
        if isinstance(other, (int, CRat)):
            return self._terms == CanonicalExpr.const(other)._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset((m, p) for m, p in self._terms.items()))

    def __repr__(self):
        return f"<CanonicalExpr {render_canonical(self)}>"

    def __str__(self):
        return render_canonical(self)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._terms, as_canonical_scalar(other)._terms
        if not a or not b:  # a sum with 0 shares the other operand's map
            return CanonicalExpr._of(a or b)
        return CanonicalExpr._of(_accumulate(dict(a), b.items()))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_canonical_scalar(other))

    def __rsub__(self, other):
        return as_canonical_scalar(other) - self

    def __neg__(self):
        return CanonicalExpr._of({m: -p for m, p in self._terms.items()})

    def __mul__(self, other):
        a, b = self._terms, as_canonical_scalar(other)._terms
        if _ONE_MAP in (a, b):  # a product with 1 shares the other operand's map
            return CanonicalExpr._of(b if a == _ONE_MAP else a)
        return CanonicalExpr._of(_add_products({}, a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("powers of expressions must be integers")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out, square = CanonicalExpr.one(), self  # square and multiply
        while exponent:
            if exponent & 1:
                out = out * square
            exponent >>= 1
            if exponent:
                square = square * square
        return out

    def __truediv__(self, other):
        return self * as_canonical_scalar(other).inverse()

    def __rtruediv__(self, other):
        return as_canonical_scalar(other) * self.inverse()

    def inverse(self) -> CanonicalExpr:
        """Inverse of a unit monomial: no lam, no cos factor, no component
        symbols.  Everything the coordinate formulas divide by
        (r^alpha powers, sin_alpha powers, Ea factors, numbers) is a unit."""
        if self.is_zero():
            raise SingularDivisionError("division by an expression that normalizes to zero")
        if len(self._terms) != 1:
            raise NonInvertibleDivisionError(
                f"divisor is not a single monomial: {render_canonical(self)}"
            )
        mono, coeff = next(iter(self._terms.items()))
        if mono.dsyms:
            raise NonInvertibleDivisionError("cannot divide by abstract component symbols")
        if any(e for _, _, e in mono.trig):
            raise NonInvertibleDivisionError("cannot divide by cosa factors")
        if mono.lam:
            raise NonInvertibleDivisionError("cannot divide by lam factors")
        inv_mono = Monomial(
            powers=tuple((v, -n) for v, n in mono.powers),
            trig=tuple((v, -m, 0) for v, m, _ in mono.trig),
            ea=tuple((v, s, -p) for v, s, p in mono.ea),
        )
        return CanonicalExpr({inv_mono: CRAT_ONE / coeff})


def as_canonical_scalar(x) -> CanonicalExpr:
    if isinstance(x, CanonicalExpr):
        return x
    if isinstance(x, (CRat, Rational)):
        return CanonicalExpr.const(x)
    raise TypeError(f"cannot interpret {x!r} as a canonical expression")


def equal(a, b) -> bool:
    """Exact equality of canonical forms."""
    return (as_canonical_scalar(a) - as_canonical_scalar(b)).is_zero()


# -- rendering --------------------------------------------------------------


def dsym_name(k: int, midx) -> str:
    """The DSL name of component k differentiated by the variable indices midx."""
    if not midx:
        return f"f{k}"
    return f"d(f{k},{','.join(VARIABLES[v] for v in midx)})"


def _powers_text(group: tuple) -> str:
    return "*".join([f"P({VARIABLES[v]},{n})" for v, n in group])


def _trig_text(group: tuple) -> str:
    pieces = []
    for v, m, e in group:
        if m:
            pieces.append(f"sina({VARIABLES[v]})" + (f"^{m}" if m != 1 else ""))
        if e:
            pieces.append(f"cosa({VARIABLES[v]})")
    return "*".join(pieces)


def _ea_text(group: tuple) -> str:
    return "*".join(
        [f"Ea({render_poly(s)}, {VARIABLES[v]})" + (f"^{p}" if p != 1 else "") for v, s, p in group]
    )


def _dsyms_text(group: tuple) -> str:
    return "*".join([dsym_name(k, midx) for k, midx in group])


def render_canonical(ce: CanonicalExpr) -> str:
    """Deterministic DSL rendering; parsing the output reproduces the same
    canonical map.  A lam group is a run of sorted terms that share their
    first four fields, so each member past the first has lam > 0."""
    if ce.is_zero():
        return "0"
    items, texts, out = sorted(ce.terms.items()), {}, []
    get, memo = texts.get, texts.setdefault  # group tuple -> its text; no two kinds compare equal
    i, n = 0, len(items)
    try:
        while i < n:
            mono, c = items[i]
            i += 1
            dsyms, powers, trig, ea, lam = mono
            pieces = []  # a text is never empty, so `or` tells a hit
            if powers:
                pieces.append(get(powers) or memo(powers, _powers_text(powers)))
            if trig:
                pieces.append(get(trig) or memo(trig, _trig_text(trig)))
            if ea:
                pieces.append(get(ea) or memo(ea, _ea_text(ea)))
            if dsyms:
                pieces.append(get(dsyms) or memo(dsyms, _dsyms_text(dsyms)))
            body = "*".join(pieces)
            if i < n and items[i][0].lam and items[i][0][:4] == mono[:4]:  # a lam group
                poly = [(lam, c)]
                while i < n and items[i][0][:4] == mono[:4]:
                    poly.append((items[i][0].lam, items[i][1]))
                    i += 1
                coeff = render_poly(poly)
                out += (" + ", f"({coeff})*{body}" if body else coeff)
                continue
            a = c.a
            sign = " - " if a < 0 or (a == 0 and c.b < 0) else " + "
            if c.d == 1 and not c.b and not lam:  # an integer
                if not body:
                    body = str(abs(a))
                elif a != 1 and a != -1:
                    body = f"{abs(a)}*{body}"
            else:
                coeff = render_poly(((lam, -c if sign == " - " else c),))
                body = f"{coeff}*{body}" if body else coeff
            out += (sign, body)
    except ValueError:  # str() of an exponent past the int digit limit
        raise ExpressionError(f"an exponent passes the int digit limit ({DIGITS} digits)") from None
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


# -- numeric evaluation ------------------------------------------------------


def _coeff_value(poly: tuple, lam) -> complex:
    """Value of a lam-polynomial given as (lam power, CRat) pairs."""
    if len(poly) == 1 and not poly[0][0]:
        return poly[0][1].to_complex()
    if lam is None:
        raise UnboundSymbolError("expression contains lam but no lam value was given")
    lam = complex(lam)
    return sum((c.to_complex() * lam**p for p, c in poly), 0j)


def _not_finite(gen, point: dict, lam) -> EvaluationDomainError:
    """The error for a power of gen, or for the coefficient if gen is None, with no finite value."""
    if gen is None:
        at = "" if lam is None else f" at lam = {lam}"
        return EvaluationDomainError(f"a coefficient has no finite value{at}")
    kind = _powers_text if len(gen) == 2 else _ea_text if type(gen[1]) is tuple else _trig_text
    v = VARIABLES[gen[0]]
    return EvaluationDomainError(f"{kind((gen,))} has no finite value at {v} = {point[v]}")


def _fractal_arg(var: str, point: dict, alpha: float) -> float:
    if var not in point:
        raise UnboundSymbolError(f"no value bound for variable {var!r}")
    x = float(point[var])
    if x < 0:
        raise EvaluationDomainError(f"{var} = {x} is outside the fractal domain (needs >= 0)")
    return x**alpha


def eval_canonical(
    ce,
    alpha: float,
    point: dict,
    bindings: dict | None = None,
    lam=None,
    tol: float = 1e-12,
) -> complex:
    """Evaluate a canonical expression at a point.

    point maps variables to nonnegative reals (positive where negative
    fractal powers occur); bindings maps rendered component symbols such
    as "f1" or "d(f1,r)" to complex constants or callables of the point.
    Each distinct sina, cosa and Ea generator is summed, and each variable's
    x^alpha formed, once per call.  A factor or a total with no finite value
    raises EvaluationDomainError.
    """
    ce = as_canonical_scalar(ce)
    alpha, tol = _series.validate_alpha(alpha), _series.validate_tol(tol)
    bindings = bindings or {}
    memo = {}

    def series(name, u, v, scale=None):  # pure in (alpha, u, tol); looked up late so wrappers apply
        if (name, u) not in memo:
            try:
                memo[name, u] = getattr(_series, name)(alpha, u, tol)
            except _series.SeriesConvergenceError as exc:
                # name the generator: Ea(scale, v), or sina(v) / cosa(v) for sin_alpha / cos_alpha
                gen = f"Ea({render_poly(scale)}, {v})" if scale else f"{name[:3]}a({v})"
                where = f"{exc} for {gen} at u = {u.real if u.imag == 0 else u}"
                raise _series.SeriesConvergenceError(where, exc.last_term_magnitude) from None
        return memo[name, u]

    args = {}

    def arg(v):  # v^alpha, once per call; errors surface at the first monomial that needs v
        if v not in args:
            args[v] = _fractal_arg(v, point, alpha)
        return args[v]

    total = 0j
    for mono, coeff in ce.terms.items():
        gen = None  # the factor formed: the coefficient, then each generator power
        try:
            value = _coeff_value(((mono.lam, coeff),), lam)
            for gen in mono.powers:
                v = VARIABLES[gen[0]]
                value *= arg(v) ** gen[1]
            for gen in mono.trig:
                i, m, e = gen
                v = VARIABLES[i]
                u = arg(v)
                if m:
                    value *= series("sin_alpha", u, v) ** m
                if e:
                    value *= series("cos_alpha", u, v)
            for gen in mono.ea:
                i, s, p = gen
                v = VARIABLES[i]
                u = _coeff_value(s, lam) * arg(v)
                value *= series("ml_exp", u, v, s) ** p
        except (OverflowError, ZeroDivisionError):  # 0 to a negative power included
            raise _not_finite(gen, point, lam) from None
        for k, midx in mono.dsyms:
            name = dsym_name(k, midx)
            if name not in bindings:
                raise UnboundSymbolError(f"no binding for component symbol {name}")
            bound = bindings[name]
            value *= complex(bound(point)) if callable(bound) else complex(bound)
        total += value
    if not isfinite(total):
        at = ", ".join(f"{v} = {x}" for v, x in point.items())
        raise EvaluationDomainError(f"the value {total} is not finite at {at}")
    return total
