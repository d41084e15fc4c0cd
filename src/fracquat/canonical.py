"""Canonical normal form for DSL expressions.

A canonical expression is a finite map from monomials to coefficients.
Coefficients are exact Gaussian rationals in their stored form (see
coefficients): an int where the value is an integer, else a CRat, so two
equal values are always stored alike.  A monomial is a plain 5-tuple
(dsyms, powers, trig, ea, lam), built by Monomial; it carries, per
variable, a fractal exponent n (var^(n*alpha)), a trig signature
sin^m * cos^e with e in {0,1} (cos^2 is rewritten to 1-sin^2), integer
powers of Ea generators keyed by their scale (a lam-polynomial), a
multiset of partial-derivative symbols on the abstract components f0..f3
with sorted (commuting) multi-indices, and a power of the formal
parameter lam.  Rendering groups the monomials that differ only in their
lam power under one lam-polynomial coefficient.  Sorting puts them next to
each other, so render makes one pass over the sorted terms, and it formats
each distinct factor group once per call.

A few small tables, kept for the process, hold what the ring and render
form again and again from the same factors.  The product of two powers
or two Ea groups (in the ring's products) is an lru_cache of _add_exponents
holding at most TABLE_SIZE entries.  Render keeps the text of each P,
sina/cosa, Ea and d(fk,...) factor, and the text of each one-term (lam
power, coefficient) coefficient, and the parser its factor tables, in
dicts read inline: each holds at most TABLE_SIZE entries and is cleared
when full, by _store.  The tables are shared by threads: a lookup is one
dict.get, which a clear in another thread cannot make raise, and a store
holds a lock while it tests the size.  Each text is a pure function of
its factor, so render stores it as soon as it forms it, also in a render
that then fails.

Two expressions are equal exactly when their maps coincide, which is what
every identity check in the package reduces to.  So no map stores a zero
coefficient: `_accumulate`, the only code that adds into a map, keeps
maps clean, and `CanonicalExpr._of` wraps a map unchecked, only for maps
already reduced that way.

The ring bounds its own work: a coefficient part of coefficients.LIMIT or
more raises CoefficientLimitError before a map stores it, so render prints
every coefficient, and one product may form at most MAX_TERM_PAIRS term
pairs.  coefficients._of bounds every CRat.  Every coefficient the ring
forms, a sum, a product, a d_alpha term or a value put in for lam, reaches
its map through `_accumulate`, which bounds every int the map receives.
"""

from __future__ import annotations

from _thread import allocate_lock  # threading's own lock, without importing threading
from cmath import isfinite
from functools import lru_cache
from numbers import Rational
from operator import itemgetter

from .coefficients import _FLOOR, DIGITS, LIMIT, CRat, as_crat, limit_error, quotient, render_poly
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


def Monomial(dsyms=(), powers=(), trig=(), ea=(), lam=0) -> tuple:
    """A product of generators: the plain tuple (dsyms, powers, trig, ea,
    lam), which the cyclic collector untracks once its items are all
    untracked.  Every variable is stored as its index in expr.VARIABLES and
    every group is kept sorted, so the field order is the rendering order:
    plain tuple order sorts the terms of a rendered sum, with lam last so
    that monomials differing only in their lam power sort together.  The
    fields: dsyms ((k, midx), ...), a multiset, midx a sorted tuple of
    indices; powers ((var, n), ...), n != 0; trig ((var, m, e), ...), e in
    {0,1}, (m,e) != (0,0); ea ((var, scale, p), ...), p != 0, scale as
    _scale; lam, the power of lam, >= 0."""
    return (dsyms, powers, trig, ea, lam)


MONOMIAL_ONE = Monomial()
_ONE_MAP = {MONOMIAL_ONE: 1}
MAX_TERM_PAIRS = 10**6  # term pairs one product may form
TABLE_SIZE = 4096  # entries in one per-process table; a full table is cleared
_STORING = allocate_lock()  # a table's size test and its store are one step


def _store(table: dict, key, value):
    """Store value under key in a per-process table, cleared first if full, and return it."""
    with _STORING:
        if len(table) >= TABLE_SIZE:
            table.clear()
        table[key] = value
    return value


def _scale(ce) -> tuple:
    """An Ea scale: the lam-polynomial ce as (lam power, coefficient) pairs in
    ascending power; ce may hold no generator other than lam."""
    if any(any(m[:4]) for m in ce.terms):
        raise ExpressionError("Ea scale must normalize to a scalar coefficient")
    return tuple(sorted((lam, c) for (*_, lam), c in ce.terms.items()))


# a powers group never equals an ea group (their items differ in length),
# so both share one cache
@lru_cache(maxsize=TABLE_SIZE)
def _add_exponents(a: tuple, b: tuple) -> tuple:
    """Sorted product of two sorted (generator..., exponent) groups; zero exponents drop out."""
    acc = {t[:-1]: t[-1] for t in a}
    for t in b:
        acc[t[:-1]] = acc.get(t[:-1], 0) + t[-1]
    return tuple(sorted(g + (p,) for g, p in acc.items() if p))


def _mul_trig(s: tuple, t: tuple) -> list:
    """Product of two nonempty trig groups as [(trig group, +/-1 sign)].
    The groups are built variable by variable in sorted order, so they
    come out sorted, and cos^2 is rewritten to 1 - sin^2: each variable
    whose cos factors meet doubles the list."""
    trig = {v: (m, e) for v, m, e in s}
    for v, m, e in t:
        if v in trig:
            m0, e0 = trig[v]
            m, e = m0 + m, e0 + e
        trig[v] = (m, e)
    out = [((), 1)]
    for v, (m, e) in sorted(trig.items()):
        if e == 2:  # sin^m cos^2 -> sin^m - sin^(m+2); a zero power drops out
            out = [
                (g + ((v, k, 0),) if k else g, sign if k == m else -sign)
                for g, sign in out
                for k in (m, m + 2)
            ]
        elif m or e:
            out = [(g + ((v, m, e),), sign) for g, sign in out]
    return out


def _accumulate(acc: dict, items) -> dict:
    """Add (monomial, coefficient) pairs into the clean map acc in place:
    zero coefficients are skipped and cancelled entries deleted.  The only
    code that adds into a map, so the only place an int, given or summed,
    is bounded: one past the bound raises."""
    for mono, coeff in items:
        if coeff:
            if type(coeff) is int and not _FLOOR < coeff < LIMIT:
                raise limit_error()
            prev = acc.get(mono)
            if prev is None:
                acc[mono] = coeff
            elif coeff := prev + coeff:
                if type(coeff) is int and not _FLOOR < coeff < LIMIT:
                    raise limit_error()
                acc[mono] = coeff
            else:
                del acc[mono]
    return acc


def _refuse(na: int, nb: int):
    raise TermBudgetError(f"a product of {na} by {nb} terms exceeds {MAX_TERM_PAIRS} term pairs")


def _add_term_products(acc: dict, m1: tuple, p1, b: dict) -> dict:
    """Add p1 * m1 times the clean map b into acc in place, as one row: the
    only code that multiplies two monomials.  A constant scales b and is
    charged nothing; another monomial is charged len(b) term pairs.  Each
    pair merges the dsyms, adds the powers and Ea groups (read from the
    _add_exponents cache when both sides are nonempty) and the lam powers;
    only where both sides carry trig factors does _mul_trig form the trig
    group, and a cos^2 may split the pair in two."""
    dsyms, powers, trig, ea, lam = m1
    if not (dsyms or powers or trig or ea or lam):  # a constant: no pair to form
        return _accumulate(acc, b.items() if p1 == 1 else ((m, p * p1) for m, p in b.items()))
    if len(b) > MAX_TERM_PAIRS:
        _refuse(1, len(b))
    row = []
    for m2, p2 in b.items():
        d, q, t, e, n = m2
        d = tuple(sorted(dsyms + d)) if dsyms and d else dsyms or d
        q = _add_exponents(powers, q) if powers and q else powers or q
        e = _add_exponents(ea, e) if ea and e else ea or e
        if trig and t:
            p = p1 * p2
            row += [
                ((d, q, g, e, lam + n), p if s > 0 else -p)
                for g, s in _mul_trig(trig, t)
            ]
        else:
            row.append(((d, q, trig or t, e, lam + n), p1 * p2))
    return _accumulate(acc, row)  # one row at a time, as a list: faster than a generator


def _products(a: dict, b: dict) -> dict:
    """The product of the clean maps a and b as a new clean map, one row
    per term of a through _add_term_products.  A constant b swaps sides, so
    that it scales a.  A multi-term a is charged here, once: one per term
    pair and, when b also has more than one term, the derivative symbols
    each pair merges."""
    if len(b) == 1 and MONOMIAL_ONE in b:
        a, b = b, a
    if len(a) > 1:
        charge = len(a) * len(b)
        if len(b) > 1:
            na, nb = sum(1 for d, *_ in a if d), sum(1 for d, *_ in b if d)
            charge += nb * sum(len(d) for d, *_ in a) + na * sum(len(d) for d, *_ in b)
        if charge > MAX_TERM_PAIRS:
            _refuse(len(a), len(b))
    acc = {}
    for m1, p1 in a.items():
        _add_term_products(acc, m1, p1, b)
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
        return CanonicalExpr({MONOMIAL_ONE: 1})

    @staticmethod
    def const(c) -> CanonicalExpr:
        return CanonicalExpr({MONOMIAL_ONE: c})

    @staticmethod
    def lam() -> CanonicalExpr:
        return CanonicalExpr({Monomial(lam=1): 1})

    @staticmethod
    def fractal_power(var: str, n: int) -> CanonicalExpr:
        if n == 0:
            return CanonicalExpr.one()
        return CanonicalExpr({Monomial(powers=((var_index(var), n),)): 1})

    @staticmethod
    def trig(var: str, kind: str) -> CanonicalExpr:
        v = var_index(var)
        sig = (v, 1, 0) if kind == "sin" else (v, 0, 1)
        return CanonicalExpr({Monomial(trig=(sig,)): 1})

    @staticmethod
    def ea_power(var: str, scale: tuple, p: int = 1) -> CanonicalExpr:
        if not scale or p == 0:
            return CanonicalExpr.one()  # E_alpha(0) = 1
        return CanonicalExpr({Monomial(ea=((var_index(var), scale, p),)): 1})

    @staticmethod
    def component(k: int, midx=()) -> CanonicalExpr:
        midx = tuple(sorted(map(var_index, midx)))
        return CanonicalExpr({Monomial(dsyms=((k, midx),)): 1})

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> dict:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def constant_coefficient(self):
        """The coefficient of the monomial 1, an int or a CRat."""
        return self._terms.get(MONOMIAL_ONE, 0)

    def __eq__(self, other):
        if isinstance(other, CanonicalExpr):
            return self._terms == other._terms
        if isinstance(other, (CRat, Rational)):
            return self._terms == CanonicalExpr.const(other)._terms
        return NotImplemented

    def __hash__(self):
        terms = self._terms
        if terms.keys() <= {MONOMIAL_ONE}:  # a constant hashes like the value it equals
            return hash(terms.get(MONOMIAL_ONE, 0))
        return hash(frozenset((m, p) for m, p in terms.items()))

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
        return CanonicalExpr._of(_products(a, b))

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
        (dsyms, powers, trig, ea, lam), coeff = next(iter(self._terms.items()))
        if dsyms:
            raise NonInvertibleDivisionError("cannot divide by abstract component symbols")
        if any(e for _, _, e in trig):
            raise NonInvertibleDivisionError("cannot divide by cosa factors")
        if lam:
            raise NonInvertibleDivisionError("cannot divide by lam factors")
        inv_mono = Monomial(
            powers=tuple((v, -n) for v, n in powers),
            trig=tuple((v, -m, 0) for v, m, _ in trig),
            ea=tuple((v, s, -p) for v, s, p in ea),
        )
        return CanonicalExpr({inv_mono: quotient(1, coeff)})


def as_canonical_scalar(x) -> CanonicalExpr:
    if isinstance(x, CanonicalExpr):
        return x
    if isinstance(x, (CRat, Rational)):
        return CanonicalExpr.const(x)
    raise TypeError(f"cannot interpret {x!r} as a canonical expression")


def equal(a, b) -> bool:
    """Exact equality of canonical forms: the canonical map is unique, so
    two expressions are equal exactly when their maps are."""
    return as_canonical_scalar(a) == as_canonical_scalar(b)


def substitute_lam(ce, c) -> CanonicalExpr:
    """ce at lam = c, an exact constant: the ring homomorphism that rebuilds
    each term in the ring, its coefficient times c**lam and each Ea factor
    keyed by its evaluated scale.  So the ring bounds every coefficient (a
    power of c is formed by squaring: lam^1000000000 at 2 stops at the bound
    after a few squarings), and Ea factors whose scales become equal merge."""
    c, acc = CanonicalExpr.const(c), {}
    for (dsyms, powers, trig, ea, lam), coeff in as_canonical_scalar(ce).terms.items():
        term = CanonicalExpr._of({(dsyms, powers, trig, (), 0): coeff}) * c**lam
        for v, scale, p in ea:
            s = sum((c**k * a for k, a in scale), CanonicalExpr.zero())
            term = term * CanonicalExpr.ea_power(VARIABLES[v], _scale(s), p)
        _accumulate(acc, term.terms.items())
    return CanonicalExpr._of(acc)


# -- rendering --------------------------------------------------------------


def dsym_name(k: int, midx) -> str:
    """The DSL name of component k differentiated by the variable indices midx."""
    if not midx:
        return f"f{k}"
    return f"d(f{k},{','.join(VARIABLES[v] for v in midx)})"


_TEXTS = {}  # a factor of a powers, trig, ea or dsyms group -> its text; no two kinds compare equal
_COEFFS = {}  # (lam power, coefficient) -> (negative, text): c*lam^power prints as -text or +text


def _power_text(factor: tuple) -> str:
    v, n = factor
    return f"P({VARIABLES[v]},{n})"


def _trig_text(factor: tuple) -> str:
    v, m, e = factor
    sin = f"sina({VARIABLES[v]})" + (f"^{m}" if m != 1 else "") if m else ""
    cos = f"cosa({VARIABLES[v]})" if e else ""
    return f"{sin}*{cos}" if sin and cos else sin or cos


def _ea_text(factor: tuple) -> str:
    v, s, p = factor
    return f"Ea({render_poly(s)}, {VARIABLES[v]})" + (f"^{p}" if p != 1 else "")


def _dsym_text(factor: tuple) -> str:
    return dsym_name(*factor)


def _signed_text(lam: int, c) -> tuple:
    """(negative, text): c*lam^lam prints as -text or +text, its sign taken
    from the real part, or from the imaginary part of an imaginary c."""
    negative = c < 0 if type(c) is int else c.a < 0 or (c.a == 0 and c.b < 0)
    return negative, render_poly(((lam, -c if negative else c),))


def render_canonical(ce: CanonicalExpr) -> str:
    """Deterministic DSL rendering; parsing the output reproduces the same
    canonical map.  A lam group is a run of sorted terms that share their
    first four fields, so each member past the first has lam > 0.  Each
    factor's text and each one-term coefficient's text is read from its
    table, and stored there when this call forms it."""
    if ce.is_zero():
        return "0"
    items, groups, out = sorted(ce.terms.items(), key=itemgetter(0)), {}, []
    get, text = groups.get, _TEXTS.get  # group tuple -> its text; no two kinds compare equal

    def group_text(group, form):
        pieces = []
        for factor in group:
            piece = text(factor)
            if piece is None:
                piece = _store(_TEXTS, factor, form(factor))
            pieces.append(piece)
        groups[group] = joined = "*".join(pieces)
        return joined

    i, n = 0, len(items)
    try:
        while i < n:
            mono, c = items[i]
            i += 1
            dsyms, powers, trig, ea, lam = mono
            pieces = []  # a text is never empty, so `or` tells a hit
            if powers:
                pieces.append(get(powers) or group_text(powers, _power_text))
            if trig:
                pieces.append(get(trig) or group_text(trig, _trig_text))
            if ea:
                pieces.append(get(ea) or group_text(ea, _ea_text))
            if dsyms:
                pieces.append(get(dsyms) or group_text(dsyms, _dsym_text))
            body = "*".join(pieces)
            if i < n and items[i][0][4] and items[i][0][:4] == mono[:4]:  # a lam group
                poly = [(lam, c)]
                while i < n and items[i][0][:4] == mono[:4]:
                    poly.append((items[i][0][4], items[i][1]))
                    i += 1
                coeff = render_poly(poly)
                out += (" + ", f"({coeff})*{body}" if body else coeff)
                continue
            if type(c) is int and not lam:
                negative = c < 0
                if negative:
                    c = -c
                if not body:
                    body = str(c)
                elif c != 1:
                    body = f"{c}*{body}"
            else:
                # a CRat is keyed by its parts, whose hash runs in C; its __hash__ runs in Python
                key = (lam, c) if type(c) is int else (lam, c.a, c.b, c.d)
                entry = _COEFFS.get(key)
                if entry is None:
                    entry = _store(_COEFFS, key, _signed_text(lam, c))
                negative, coeff = entry
                body = f"{coeff}*{body}" if body else coeff
            out += (" - " if negative else " + ", body)
    except ValueError:  # str() of an exponent past the int digit limit
        raise ExpressionError(f"an exponent passes the int digit limit ({DIGITS} digits)") from None
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


# -- numeric evaluation ------------------------------------------------------


def _not_finite(gen, point: dict) -> EvaluationDomainError:
    """The error for a power of gen, or for the coefficient if gen is None, with no finite value."""
    if gen is None:
        return EvaluationDomainError("a coefficient has no finite value")
    kind = _power_text if len(gen) == 2 else _ea_text if type(gen[1]) is tuple else _trig_text
    v = VARIABLES[gen[0]]
    return EvaluationDomainError(f"{kind(gen)} has no finite value at {v} = {point[v]}")


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
    tol: float = 1e-12,
) -> complex:
    """Evaluate a canonical expression at a point.

    point maps variables to nonnegative reals (positive where negative
    fractal powers occur); bindings maps rendered component symbols such
    as "f1" or "d(f1,r)" to complex constants or callables of the point.
    A lam, in a coefficient or an Ea scale, raises UnboundSymbolError
    (substitute_lam puts in a value).  Each distinct sina, cosa and Ea
    generator is summed, and each variable's x^alpha formed, once per call.
    A factor or a total with no finite value raises EvaluationDomainError.
    """
    ce = as_canonical_scalar(ce)
    alpha, tol = _series.validate_alpha(alpha), _series.validate_tol(tol)
    bindings = bindings or {}
    memo = {}

    def series(name, u, gen):  # pure in (alpha, u, tol); looked up late so wrappers apply
        if (name, u) not in memo:
            try:
                memo[name, u] = getattr(_series, name)(alpha, u, tol)
            except _series.SeriesConvergenceError as exc:
                # name the generator, a trig factor sina(v) or cosa(v) or an ea factor Ea(s, v)
                text = _ea_text(gen) if name == "ml_exp" else _trig_text(gen)
                where = f"{exc} for {text} at u = {u.real if u.imag == 0 else u}"
                raise _series.SeriesConvergenceError(where, exc.last_term_magnitude) from None
        return memo[name, u]

    args = {}

    def arg(v):  # v^alpha, once per call; errors surface at the first monomial that needs v
        if v not in args:
            args[v] = _fractal_arg(v, point, alpha)
        return args[v]

    total = 0j
    for (dsyms, powers, trig, ea, lam), coeff in ce.terms.items():
        if lam or ea and any(s[-1][0] for _, s, _ in ea):  # s[-1]: top lam power
            raise UnboundSymbolError("expression contains lam but no lam value was given")
        gen = None  # the factor formed: the coefficient, then each generator power
        try:
            value = complex(coeff)
            for gen in powers:
                v = VARIABLES[gen[0]]
                value *= arg(v) ** gen[1]
            for gen in trig:
                i, m, e = gen
                u = arg(VARIABLES[i])
                if m:
                    value *= series("sin_alpha", u, (i, 1, 0)) ** m
                if e:
                    value *= series("cos_alpha", u, (i, 0, 1))
            for gen in ea:
                i, s, p = gen
                u = complex(s[0][1]) * arg(VARIABLES[i])
                value *= series("ml_exp", u, (i, s, 1)) ** p
        except (OverflowError, ZeroDivisionError):  # 0 to a negative power included
            raise _not_finite(gen, point) from None
        for k, midx in dsyms:
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
