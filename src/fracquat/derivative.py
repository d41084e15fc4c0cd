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
"""

from __future__ import annotations

import enum

from .canonical import CanonicalExpr, Monomial, as_canonical_scalar
from .expr import ExpressionError, var_index


class ModeViolationError(ExpressionError):
    """Input outside the linear J-basis fragment handled by gamma mode."""


class DerivativeMode(str, enum.Enum):
    DERIVATION = "derivation"
    GAMMA = "gamma"


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
    """Leibniz rule across the factor groups of one monomial, in the
    variable with index var, as (monomial, int or CRat factor) pairs; a
    factor may be zero (-(m+1) at m = -1)."""
    for v, n in mono.powers:
        if v == var:
            yield _with_power(mono, var, n - 1), n

    for v, m, e in mono.trig:
        if v != var:
            continue
        if e == 0:
            # (sin^m)' = m sin^(m-1) cos
            yield _with_trig(mono, var, m - 1, 1), m
        else:
            # (sin^m cos)' = m sin^(m-1) cos^2 - sin^(m+1)
            #              = m sin^(m-1) - (m+1) sin^(m+1)   after cos^2 -> 1-sin^2
            if m:
                yield _with_trig(mono, var, m - 1, 0), m
            yield _with_trig(mono, var, m + 1, 0), -(m + 1)

    for v, scale, p in mono.ea:
        if v == var:
            # D[Ea(s, v)^p] = p*s*Ea(s, v)^p, one term per lam power of s
            for k, c in scale:
                yield Monomial(mono.dsyms, mono.powers, mono.trig, mono.ea, mono.lam + k), p * c

    for i, (k, midx) in enumerate(mono.dsyms):
        bumped = (k, tuple(sorted(midx + (var,))))
        dsyms = tuple(sorted(mono.dsyms[:i] + (bumped,) + mono.dsyms[i + 1 :]))
        yield Monomial(dsyms, mono.powers, mono.trig, mono.ea, mono.lam), 1


def d_alpha(e, var: str) -> CanonicalExpr:
    """Derivation-mode local fractional partial derivative."""
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
        {_with_power(m, v, n): c for n, ce in enumerate(coeffs[1:]) for m, c in ce.terms.items()}
    )


def differentiate(e, var: str, mode: DerivativeMode = DerivativeMode.DERIVATION) -> CanonicalExpr:
    mode = DerivativeMode(mode)
    if mode is DerivativeMode.DERIVATION:
        return d_alpha(e, var)
    return d_alpha_gamma(e, var)
