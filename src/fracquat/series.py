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
import math
from dataclasses import dataclass

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


def _power_term(log_u: float, phase_u: float, power: int, alpha: float) -> complex:
    # u^power / Gamma(1+power*alpha) from log|u| and phase(u), in log space
    # to avoid intermediate overflow of u^power for moderate |u|
    log_mag = power * log_u - math.lgamma(1.0 + power * alpha)
    if log_mag < -745.0:  # below double underflow
        return 0j
    if log_mag > 709.0:  # above double overflow: magnitude is all that matters
        return complex(math.inf)
    return cmath.exp(complex(log_mag, power * phase_u))


# kind: (label, first power, power step, alternating signs)
_SERIES = {
    "Ea": ("ml_exp", 0, 1, False),
    "sina": ("sin_alpha", 1, 2, True),
    "cosa": ("cos_alpha", 0, 2, True),
}


def _sum_series(alpha, u, tol, label, power, step, alternating):
    """Adaptive summation; hard cap MAX_SERIES_TERMS.

    Stops once the terms are decreasing and the geometric tail bound
    next/(1-rho), with rho the observed term ratio, falls below tol (the
    Gamma denominators make the ratios eventually decreasing, so the
    bound dominates the true tail).  The look-ahead term becomes the next
    term, so each is computed once.  A real u gets real terms: phase 0,
    and for a negative u the sign comes from the parity of the power
    (phase pi would leave sin(k*pi) rounding in the imaginary part).
    Returns (value, terms summed).
    """
    real = u.imag == 0
    negative = real and u.real < 0
    log_u, phase_u = math.log(abs(u)), 0.0 if real else cmath.phase(u)
    total = 0j
    term = _power_term(log_u, phase_u, power, alpha)
    mag, prev_mag = abs(term), math.inf
    for i in range(MAX_SERIES_TERMS - 1):
        flip = (alternating and i % 2 == 1) != (negative and power % 2 == 1)
        total = total - term if flip else total + term
        power += step
        term = _power_term(log_u, phase_u, power, alpha)
        next_mag = abs(term)
        if next_mag < min(mag, prev_mag):
            if next_mag == 0.0:
                return total, i + 1
            rho = next_mag / mag
            if next_mag / (1.0 - rho) < tol:
                return total, i + 1
        prev_mag, mag = mag, next_mag
    raise SeriesConvergenceError(
        f"{label} did not converge to tol={tol} within {MAX_SERIES_TERMS} terms "
        f"(last term magnitude {mag:.3e})",
        mag,
    )


def evaluate_series(kind: str, alpha: float, u: complex, tol: float = 1e-12):
    """(value, terms_summed) for kind in {"Ea", "sina", "cosa"}."""
    alpha, tol = validate_alpha(alpha), validate_tol(tol)
    u = complex(u)
    spec = _SERIES.get(kind)
    if spec is None:
        raise ValueError(f"unknown series kind {kind!r}")
    if u == 0:  # only a u^0 term survives
        return (1 + 0j if spec[1] == 0 else 0j), 1
    return _sum_series(alpha, u, tol, *spec)


def ml_exp(alpha: float, u: complex, tol: float = 1e-12) -> complex:
    """Mittag-Leffler style exponential sum_k u^k / Gamma(1+k*alpha)."""
    return evaluate_series("Ea", alpha, u, tol)[0]


def sin_alpha(alpha: float, u: complex, tol: float = 1e-12) -> complex:
    return evaluate_series("sina", alpha, u, tol)[0]


def cos_alpha(alpha: float, u: complex, tol: float = 1e-12) -> complex:
    return evaluate_series("cosa", alpha, u, tol)[0]


@dataclass(frozen=True)
class JSeries:
    """Truncated series over the Gamma-normalized basis J_k(x) = x^(k*alpha)/Gamma(1+k*alpha).

    coeffs[k] multiplies J_k; the truncation order is len(coeffs)-1.
    """

    alpha: float
    coeffs: tuple

    def __post_init__(self):
        validate_alpha(self.alpha)
        if len(self.coeffs) == 0:
            raise ValueError("JSeries needs at least the k=0 coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def shift_derivative(self) -> JSeries:
        """Index-shift derivative on the J-basis: J_k -> J_(k-1), J_0 -> 0."""
        return JSeries(self.alpha, self.coeffs[1:] or (0j,))

    def evaluate(self, x: float) -> complex:
        if x < 0:
            raise ValueError("JSeries arguments live on the fractal half line x >= 0")
        if x == 0:
            return self.coeffs[0] + 0j  # J_0(0) = 1, every other J_k(0) = 0
        log_u = math.log(x**self.alpha)
        terms = (c * _power_term(log_u, 0.0, k, self.alpha) for k, c in enumerate(self.coeffs) if c)
        return sum(terms, 0j)


def series_shift_derivative(s: JSeries) -> JSeries:
    return s.shift_derivative()


def ml_exp_jseries(alpha: float, order: int) -> JSeries:
    return JSeries(alpha, (1,) * (order + 1))


def sin_alpha_jseries(alpha: float, order: int) -> JSeries:
    return JSeries(alpha, tuple((-1) ** (k // 2) if k % 2 else 0 for k in range(order + 1)))


def cos_alpha_jseries(alpha: float, order: int) -> JSeries:
    return JSeries(alpha, tuple(0 if k % 2 else (-1) ** (k // 2) for k in range(order + 1)))


@dataclass(frozen=True)
class LimitReport:
    """Result of the limit-quotient fractional derivative at x0 = 0."""

    estimate: complex
    quotients: tuple
    converged: bool


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
