"""Generalized exponential and trigonometric functions on Cantor sets.

Everything here works with the already-fractal argument u (standing for
c*x^alpha), so the series are plain power series with Gamma(1+k*alpha)
denominators:

    ml_exp(alpha, u)    = sum_k u^k / Gamma(1+k*alpha)
    sin_alpha(alpha, u) = sum_k (-1)^k u^(2k+1) / Gamma(1+(2k+1)*alpha)
    cos_alpha(alpha, u) = sum_k (-1)^k u^(2k)   / Gamma(1+2k*alpha)

At alpha=1 these reduce to exp, sin and cos, which the tests use as the
classical oracle.  alpha=1 is admitted although the fractal setting has
0 < alpha < 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

MAX_SERIES_TERMS = 500


class GammaRangeError(OverflowError):
    """Gamma argument outside the double-precision floating range."""


class SeriesConvergenceError(ArithmeticError):
    """Series did not meet the tolerance within the term budget."""

    def __init__(self, message: str, last_term_magnitude: float):
        super().__init__(message)
        self.last_term_magnitude = last_term_magnitude


def validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def validate_tol(tol: float) -> float:
    if not 0.0 < tol < math.inf:  # also false for nan
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


def gamma_one_plus(alpha: float, k: int) -> float:
    """Gamma(1 + k*alpha) in double precision (Lanczos-backed libm gamma)."""
    alpha = validate_alpha(alpha)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    try:
        return math.gamma(1.0 + k * alpha)
    except OverflowError as exc:
        raise GammaRangeError(f"Gamma(1 + {k}*{alpha}) overflows double precision") from exc


def _power_term(log_u: float, power: int, alpha: float) -> float:
    # u^power / Gamma(1+power*alpha) for a real u > 0 from log(u), in log
    # space to avoid intermediate overflow of u^power for moderate u
    try:
        return math.exp(power * log_u - math.lgamma(1.0 + power * alpha))
    except OverflowError:
        return math.inf


# kind: (label, first power, power step, alternating signs)
_SERIES = {
    "Ea": ("ml_exp", 0, 1, False),
    "sina": ("sin_alpha", 1, 2, True),
    "cosa": ("cos_alpha", 0, 2, True),
}

# a term above e^709 counts as overflowed: |u|^k / Gamma(1+k*alpha) is
# unimodal in k and can pass e^709 only before a peak at k > 709, so such
# a sum cannot settle within MAX_SERIES_TERMS
_MAX_TERM = math.exp(709.0)

# Gamma-ratio tables by (alpha, kind): (Gamma(1 + p0*alpha), ratios) with
# ratios[i] = Gamma(1 + p_i*alpha) / Gamma(1 + p_(i+1)*alpha) and p_i = p0 +
# i*step, one for each term past the first.  64 tables of 499 floats hold
# about 1 MB; past that the least recently used is dropped
@functools.lru_cache(maxsize=64)
def _table(alpha, kind):
    """Each ratio is exp(lgamma(1 + p*alpha) - lgamma(1 + (p+step)*alpha)),
    so a term formed from it is the double the per-term lgamma recurrence
    formed."""
    _, power, step, _ = _SERIES[kind]
    lg = [math.lgamma(1.0 + (power + i * step) * alpha) for i in range(MAX_SERIES_TERMS)]
    return math.gamma(1.0 + power * alpha), tuple(math.exp(a - b) for a, b in zip(lg, lg[1:]))


def _sum_series(kind, alpha, u, tol):
    """Adaptive summation by term recurrence of at most MAX_SERIES_TERMS - 1
    terms.

    Each term comes from the one before: t_next = t * (z * ratio), with z
    = u^step, negated when the signs alternate, and ratio = Gamma(1 +
    p*alpha) / Gamma(1 + (p+step)*alpha) read from the (alpha, kind)
    table, so a term costs one multiply by a tabulated ratio.  The first
    call at an (alpha, kind) builds its whole table, at one lgamma and one
    exp per ratio.  A real u is summed in float arithmetic, so its value
    is exactly real.  Stops once the terms are decreasing and the
    geometric tail bound next/(1-rho), with rho the observed term ratio,
    falls below tol (the Gamma denominators make the ratios eventually
    decreasing, so the bound dominates the true tail).  An overflowed term
    or modulus ends the sum with last term magnitude inf.  Returns (value,
    terms summed); a non-convergence error names the terms summed, 0 when
    the first term's modulus overflows.
    """
    label, power, step, alternating = _SERIES[kind]
    if u.imag == 0:
        u = u.real
    # u * u rather than u**2: a product past the double range is inf,
    # where ** raises OverflowError
    z = u * u if step == 2 else u
    if alternating:
        z = -z
    gamma0, ratios = _table(alpha, kind)
    term = u**power / gamma0
    total = 0.0
    summed = 0
    try:
        mag, prev_mag = abs(term), math.inf
        for summed, ratio in enumerate(ratios, 1):
            total += term
            term *= z * ratio
            next_mag = abs(term)
            if next_mag < mag and next_mag < prev_mag:
                if next_mag / (1.0 - next_mag / mag) < tol:  # also true for a zero term
                    return complex(total), summed
            elif not next_mag <= _MAX_TERM:  # also true for nan, from inf * complex
                mag = math.inf
                break
            prev_mag, mag = mag, next_mag
    except OverflowError:  # abs() of a complex term whose parts are finite, its modulus not
        mag = math.inf
    raise SeriesConvergenceError(
        f"{label} did not converge to tol={tol}, terms summed: {summed} "
        f"(last term magnitude {mag:.3e})",
        mag,
    )


def evaluate_series(kind: str, alpha: float, u: complex, tol: float = 1e-12):
    """(value, terms_summed) for kind in {"Ea", "sina", "cosa"}."""
    alpha, tol = validate_alpha(alpha), validate_tol(tol)
    u = complex(u)
    if not cmath.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    spec = _SERIES.get(kind)
    if spec is None:
        raise ValueError(f"unknown series kind {kind!r}")
    if u == 0:  # only a u^0 term survives
        return (1 + 0j if spec[1] == 0 else 0j), 1
    return _sum_series(kind, alpha, u, tol)


def ml_exp(alpha: float, u: complex, tol: float = 1e-12) -> complex:
    """Mittag-Leffler style exponential sum_k u^k / Gamma(1+k*alpha)."""
    return evaluate_series("Ea", alpha, u, tol)[0]


def sin_alpha(alpha: float, u: complex, tol: float = 1e-12) -> complex:
    return evaluate_series("sina", alpha, u, tol)[0]


def cos_alpha(alpha: float, u: complex, tol: float = 1e-12) -> complex:
    return evaluate_series("cosa", alpha, u, tol)[0]


class JSeries(namedtuple("JSeries", "alpha coeffs")):
    """Truncated series over the Gamma-normalized basis J_k(x) = x^(k*alpha)/Gamma(1+k*alpha).

    coeffs[k] multiplies J_k; the truncation order is len(coeffs)-1.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, coeffs):
        validate_alpha(alpha)
        if len(coeffs) == 0:
            raise ValueError("JSeries needs at least the k=0 coefficient")
        return super().__new__(cls, alpha, tuple(complex(c) for c in coeffs))

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def shift_derivative(self) -> JSeries:
        """Index-shift derivative on the J-basis: J_k -> J_(k-1), J_0 -> 0."""
        return JSeries(self.alpha, self.coeffs[1:] or (0j,))

    def evaluate(self, x: float) -> complex:
        """sum_k coeffs[k] J_k(x).  A total with no finite double, as any sum with a term
        past the double range is, raises SeriesConvergenceError (last term magnitude inf)."""
        if not 0 <= x < math.inf:  # also true for nan
            raise ValueError(f"JSeries arguments live on the fractal half line x >= 0, got {x}")
        if x == 0:
            total = self.coeffs[0] + 0j  # J_0(0) = 1, every other J_k(0) = 0
        else:
            log_u = math.log(x**self.alpha)
            terms = (c * _power_term(log_u, k, self.alpha) for k, c in enumerate(self.coeffs) if c)
            total = sum(terms, 0j)
        if not cmath.isfinite(total):
            raise SeriesConvergenceError(f"JSeries has no finite value at x = {x}", math.inf)
        return total


def series_shift_derivative(s: JSeries) -> JSeries:
    return s.shift_derivative()


def ml_exp_jseries(alpha: float, order: int) -> JSeries:
    return JSeries(alpha, (1,) * (order + 1))


def sin_alpha_jseries(alpha: float, order: int) -> JSeries:
    return JSeries(alpha, tuple((-1) ** (k // 2) if k % 2 else 0 for k in range(order + 1)))


def cos_alpha_jseries(alpha: float, order: int) -> JSeries:
    return JSeries(alpha, tuple(0 if k % 2 else (-1) ** (k // 2) for k in range(order + 1)))


class LimitReport(namedtuple("LimitReport", "estimate quotients converged")):
    """Result of the limit-quotient fractional derivative at x0 = 0."""

    __slots__ = ()


def limit_definition_derivative_at_zero(f, alpha: float, steps) -> LimitReport:
    """Evaluate Gamma(1+alpha) * (f(h) - f(0)) / h^alpha along steps h -> 0.

    Returns the quotient sequence plus an extrapolated limit; a sequence
    that fails to settle is reported as a non-existent derivative
    (converged=False) rather than raising.
    """
    alpha = validate_alpha(alpha)
    steps = [float(h) for h in steps]
    if len(steps) < 2:
        raise ValueError("need at least two steps")
    if any(h <= 0 for h in steps) or any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be positive and strictly decreasing")
    g = gamma_one_plus(alpha, 1)
    f0 = complex(f(0.0))
    quotients = tuple(g * (complex(f(h)) - f0) / h**alpha for h in steps)

    diffs = [abs(b - a) for a, b in zip(quotients, quotients[1:])]
    scale = max(1.0, abs(quotients[-1]))
    converged = diffs[-1] <= 1e-6 * scale or (
        len(diffs) >= 2 and diffs[-1] < diffs[0] and diffs[-1] <= 1e-3 * scale
    )

    estimate = quotients[-1]
    if converged and len(quotients) >= 3:
        # one Aitken step; geometric quotient sequences land on the limit
        q0, q1, q2 = quotients[-3:]
        denom = q2 - 2 * q1 + q0
        if abs(denom) > 1e-14 * scale:
            accel = q2 - (q2 - q1) ** 2 / denom
            if abs(accel - q2) <= max(10 * diffs[-1], 1e-9 * scale):
                estimate = accel
    return LimitReport(estimate, quotients, converged)
