"""Reference implementations of the render and derivative kernels.

These are the straightforward forms that `canonical.render_canonical` and
`derivative.d_alpha` replaced: rendering groups the sorted monomials by
their lam-free part with `groupby` and formats every factor of every
term, and the derivative yields the Leibniz terms of each monomial from
a generator, rebuilding and re-sorting each group it changes.  The tests
require the package's kernels to give the same map and the same text.
"""

from itertools import groupby

from fracquat.canonical import CanonicalExpr, Monomial, as_canonical_scalar, dsym_name
from fracquat.coefficients import render_poly
from fracquat.expr import VARIABLES, var_index


def _render_monomial(mono: Monomial) -> str:
    pieces = []
    for v, n in mono.powers:
        pieces.append(f"P({VARIABLES[v]},{n})")
    for v, m, e in mono.trig:
        if m:
            pieces.append(f"sina({VARIABLES[v]})" + (f"^{m}" if m != 1 else ""))
        if e:
            pieces.append(f"cosa({VARIABLES[v]})")
    for v, s, p in mono.ea:
        pieces.append(f"Ea({render_poly(s)}, {VARIABLES[v]})" + (f"^{p}" if p != 1 else ""))
    for k, midx in mono.dsyms:
        pieces.append(dsym_name(k, midx))
    return "*".join(pieces)


def _lam_groups(ce: CanonicalExpr):
    """(monomial, lam-polynomial) per lam-free part of the monomials, in
    rendering order; the polynomial is (lam power, int or CRat) pairs."""
    for _, group in groupby(sorted(ce.terms), key=lambda m: m[:4]):
        group = list(group)
        yield group[0], tuple((m.lam, ce.terms[m]) for m in group)


def _split_sign(poly: tuple):
    if len(poly) == 1:
        p, c = poly[0]
        if c < 0 if type(c) is int else c.a < 0 or (c.a == 0 and c.b < 0):
            return -1, ((p, -c),)
    return 1, poly


def render_canonical(ce: CanonicalExpr) -> str:
    if ce.is_zero():
        return "0"
    out = []
    for mono, poly in _lam_groups(ce):
        sign, poly = _split_sign(poly)
        body = _render_monomial(mono)
        if not body:
            body = render_poly(poly)
        elif poly != ((0, 1),):
            coeff = render_poly(poly)
            body = f"({coeff})*{body}" if len(poly) > 1 else f"{coeff}*{body}"
        out += (" - " if sign < 0 else " + ", body)
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _with_power(mono: Monomial, var: int, n: int) -> Monomial:
    powers = tuple(t for t in mono.powers if t[0] != var)
    if n:
        powers = tuple(sorted(powers + ((var, n),)))
    return Monomial(mono.dsyms, powers, mono.trig, mono.ea, mono.lam)


def _with_trig(mono: Monomial, var: int, m: int, e: int) -> Monomial:
    trig = tuple(t for t in mono.trig if t[0] != var)
    if m or e:
        trig = tuple(sorted(trig + ((var, m, e),)))
    return Monomial(mono.dsyms, mono.powers, trig, mono.ea, mono.lam)


def _diff_monomial(mono: Monomial, var: int):
    """Leibniz rule across the factor groups of one monomial, as
    (monomial, int or CRat factor) pairs; a factor may be zero."""
    for v, n in mono.powers:
        if v == var:
            yield _with_power(mono, var, n - 1), n
    for v, m, e in mono.trig:
        if v != var:
            continue
        if e == 0:
            yield _with_trig(mono, var, m - 1, 1), m
        else:
            if m:
                yield _with_trig(mono, var, m - 1, 0), m
            yield _with_trig(mono, var, m + 1, 0), -(m + 1)
    for v, scale, p in mono.ea:
        if v == var:
            for k, c in scale:
                yield Monomial(mono.dsyms, mono.powers, mono.trig, mono.ea, mono.lam + k), p * c
    for i, (k, midx) in enumerate(mono.dsyms):
        bumped = (k, tuple(sorted(midx + (var,))))
        dsyms = tuple(sorted(mono.dsyms[:i] + (bumped,) + mono.dsyms[i + 1 :]))
        yield Monomial(dsyms, mono.powers, mono.trig, mono.ea, mono.lam), 1


def d_alpha(e, var: str) -> CanonicalExpr:
    var = var_index(var)
    acc = {}
    for mono, coeff in as_canonical_scalar(e).terms.items():
        for m, f in _diff_monomial(mono, var):
            c = coeff if f == 1 else coeff * f
            prev = acc.get(m)
            if prev is None:
                if c:
                    acc[m] = c
            elif c := prev + c:
                acc[m] = c
            else:
                del acc[m]
    return CanonicalExpr._of(acc)
