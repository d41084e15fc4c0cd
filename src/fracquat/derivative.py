"""Symbolic local fractional partial differentiation.

Two semantic modes exist because the operational rules of the underlying
calculus conflict on powers: the Leibniz product rule together with the
Gamma-normalized power shift give different answers for the derivative of
(x^alpha)^2 unless alpha = 1 (the package exhibits this as a test).

* Derivation mode (default, used for every coordinate identity):
  D[P(v,n)] = n*P(v,n-1), D[sina(v)] = cosa(v), D[cosa(v)] = -sina(v),
  D[Ea(c,v)] = c*Ea(c,v), generators in other variables are constants,
  and on abstract components the derivative multi-index grows.  This is
  the unique normalization under which the per-frame gradient/divergence/
  curl formulas satisfy curl(grad) = 0 and the factorizations close.

* Gamma-normalized mode: the exact index shift J_n -> J_(n-1) on the
  basis J_n(v) = v^(n*alpha)/Gamma(1+n*alpha), linear only; products or
  quotients of generators are rejected.

A derivation-mode derivative keeps the variable of the factor it acts on,
so d_alpha edits that factor in place: the group stays sorted and only
the tuple around it is rebuilt.  A component symbol's multi-index gains
the variable at its end, and is sorted again only when an index in it
is later; only a group of two or more derivative symbols is sorted
again.
"""

from __future__ import annotations

import enum

from .canonical import CanonicalExpr, Monomial, _accumulate, _new, as_canonical_scalar
from .expr import ExpressionError, var_index


class ModeViolationError(ExpressionError):
    """Input outside the linear J-basis fragment handled by gamma mode."""


class DerivativeMode(str, enum.Enum):
    DERIVATION = "derivation"
    GAMMA = "gamma"


def d_alpha(e, var: str) -> CanonicalExpr:
    """Derivation-mode local fractional partial derivative (see _d_terms)."""
    return CanonicalExpr._of(_d_terms(as_canonical_scalar(e).terms, var_index(var)))


def _d_terms(terms: dict, var: int) -> dict:
    """d_alpha on a clean map, along the variable of index var, into a new
    clean map; _accumulate bounds each Leibniz term's coefficient and every sum."""
    out = []  # the Leibniz terms of every input term, as (monomial, coefficient)
    for mono, coeff in terms.items():
        dsyms, powers, trig, ea, lam = mono
        for j, (v, n) in enumerate(powers):
            if v == var:
                head, tail = powers[:j], powers[j + 1 :]
                group = head + ((v, n - 1),) + tail if n != 1 else head + tail
                out.append((_new(Monomial, (dsyms, group, trig, ea, lam)), coeff * n))
        for j, (v, m, cos) in enumerate(trig):
            if v != var:
                continue
            head, tail = trig[:j], trig[j + 1 :]
            if not cos:  # (sin^m)' = m sin^(m-1) cos
                group = head + ((v, m - 1, 1),) + tail
                out.append((_new(Monomial, (dsyms, powers, group, ea, lam)), coeff * m))
                continue
            # (sin^m cos)' = m sin^(m-1) cos^2 - sin^(m+1)
            #              = m sin^(m-1) - (m+1) sin^(m+1)   after cos^2 -> 1-sin^2
            if m:
                group = head + ((v, m - 1, 0),) + tail if m != 1 else head + tail
                out.append((_new(Monomial, (dsyms, powers, group, ea, lam)), coeff * m))
            if m != -1:  # at m = -1 the second term's factor is zero
                group = head + ((v, m + 1, 0),) + tail
                out.append((_new(Monomial, (dsyms, powers, group, ea, lam)), coeff * -(m + 1)))
        for v, scale, p in ea:
            if v == var:  # D[Ea(s, v)^p] = p*s*Ea(s, v)^p, one term per lam power of s
                for k, c in scale:
                    bumped = _new(Monomial, (dsyms, powers, trig, ea, lam + k)) if k else mono
                    out.append((bumped, coeff * (c * p)))
        for j, (k, midx) in enumerate(dsyms):
            midx = midx + (var,) if not midx or midx[-1] <= var else tuple(sorted(midx + (var,)))
            group = dsyms[:j] + ((k, midx),) + dsyms[j + 1 :]
            group = tuple(sorted(group)) if len(group) > 1 else group
            out.append((_new(Monomial, (group, powers, trig, ea, lam)), coeff))
    return _accumulate({}, out)


def nth_d_alpha(e, var: str, order: int) -> CanonicalExpr:
    if order < 1:
        raise ValueError("order must be a positive integer")
    ce = as_canonical_scalar(e)
    for _ in range(order):
        ce = d_alpha(ce, var)
    return ce


def jpoly_coefficients(e, var: str) -> list:
    """Coefficients [c_0, ..., c_N] of a pure J-basis polynomial in var,
    each a CanonicalExpr in lam alone.

    Raises ModeViolationError when the normalized input contains anything
    other than nonnegative powers of the single variable: products or
    quotients of generators, trig or Ea factors, component symbols, other
    variables.
    """
    v = var_index(var)
    ce = as_canonical_scalar(e)
    coeffs = {}
    for mono, coeff in ce.terms.items():
        if mono.trig or mono.ea or mono.dsyms:
            raise ModeViolationError(
                "gamma mode handles only linear combinations over the J-basis; "
                f"got generator product {CanonicalExpr({mono: 1})}"
            )
        n = 0
        if mono.powers:
            if len(mono.powers) > 1 or mono.powers[0][0] != v:
                raise ModeViolationError(
                    f"gamma mode input must be a polynomial in {var!r} alone"
                )
            n = mono.powers[0][1]
            if n < 0:
                raise ModeViolationError("gamma mode input has a negative power (a quotient)")
        coeffs.setdefault(n, {})[Monomial(lam=mono.lam)] = coeff
    out = [CanonicalExpr.zero() for _ in range(max(coeffs, default=0) + 1)]
    for n, c in coeffs.items():
        out[n] = CanonicalExpr._of(c)
    return out


def d_alpha_gamma(e, var: str) -> CanonicalExpr:
    """Gamma-normalized derivative: index shift J_n -> J_(n-1) on the
    normalized monomials of var, with J_0 -> 0."""
    coeffs, v = jpoly_coefficients(e, var), var_index(var)
    return CanonicalExpr._of(
        {m._replace(powers=((v, n),) if n else ()): c
         for n, ce in enumerate(coeffs[1:]) for m, c in ce.terms.items()}
    )


def differentiate(e, var: str, mode: DerivativeMode = DerivativeMode.DERIVATION) -> CanonicalExpr:
    mode = DerivativeMode(mode)
    if mode is DerivativeMode.DERIVATION:
        return d_alpha(e, var)
    return d_alpha_gamma(e, var)
