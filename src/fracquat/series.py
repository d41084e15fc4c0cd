"""Generalized exponential and trigonometric functions on Cantor sets.

Everything here works with the already-fractal argument u (standing for
c*x^alpha), so the series are plain power series with Gamma(1+k*alpha)
denominators:

    ml_exp(alpha, u)    = sum_k u^k / Gamma(1+k*alpha)
    sin_alpha(alpha, u) = sum_k (-1)^k u^(2k+1) / Gamma(1+(2k+1)*alpha)
    cos_alpha(alpha, u) = sum_k (-1)^k u^(2k)   / Gamma(1+2k*alpha)

At alpha=1 these reduce to exp, sin and cos, which the tests use as the
classical oracle.  alpha=1 is admitted although the fractal setting has
0 < alpha < 1.  A sum whose terms cannot fall below tol within the term
budget is refused before any term is summed: the term magnitudes are
log-concave in k, so the smallest lies at one end of the budget, and
both ends are known in closed form from the Gamma table.  The module
holds only this summation kernel; the truncated J-basis series and the
limit-quotient derivative that the tests compare the symbolic derivative
against live in tests/oracles.py.
"""

from __future__ import annotations

import cmath
import functools
import math

MAX_SERIES_TERMS = 500
_BUDGET = MAX_SERIES_TERMS - 1  # terms summed at most, and tested by the stopping rule


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

# a refusal is decided on terms above e^-700 only: those are normal
# doubles, so the summed terms track their closed form to about 1e-12
# relative, far inside the factor 2 between the refusal's floor and tol
_LOG_REFUSAL_FLOOR = -700.0

# Gamma-ratio tables by (alpha, kind): (Gamma(1 + p0*alpha), ratios,
# lgamma(1 + p_1*alpha), lgamma(1 + p_499*alpha), small_u) with
# ratios[i] = Gamma(1 + p_i*alpha) / Gamma(1 + p_(i+1)*alpha) and p_i =
# p0 + i*step, one for each term past the first; terms 1 and 499 are the
# first and last that the stopping rule tests, and at |u| <= small_u
# term 499 is below e^-700.  64 tables of 502 floats hold about 1 MB;
# past that the least recently used is dropped
@functools.lru_cache(maxsize=64)
def _table(alpha, kind):
    """Each ratio is exp(lgamma(1 + p*alpha) - lgamma(1 + (p+step)*alpha)),
    so a term formed from it is the double the per-term lgamma recurrence
    formed.  The two lgammas and small_u kept beside the ratios decide a
    refusal in _sum_series."""
    _, power, step, _ = _SERIES[kind]
    lg = [math.lgamma(1.0 + (power + i * step) * alpha) for i in range(MAX_SERIES_TERMS)]
    ratios = tuple(math.exp(a - b) for a, b in zip(lg, lg[1:]))
    # 1e-9 below the |u| at which term 499 is e^-700: room for rounding
    small_u = math.exp((lg[-1] + _LOG_REFUSAL_FLOOR) / (power + _BUDGET * step)) * (1 - 1e-9)
    return math.gamma(1.0 + power * alpha), ratios, lg[1], lg[-1], small_u


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
    terms summed); a non-convergence error of the loop names the terms
    summed, 0 when the first term's modulus overflows.

    Before summing, the sum is refused when it cannot stop: term k has
    magnitude exp(p_k*log|u| - lgamma(1 + p_k*alpha)), concave in k in the
    log since lgamma is convex, so terms 1..MAX_SERIES_TERMS - 1 are all
    at least the smaller of the two ends.  When both ends exceed 2*tol
    (and e^-700), no term can pass the tail test, and the loop would
    raise.  The refusal names the budget and the closed-form magnitude of
    its last term, inf past e^709.  It costs one compare of |u| with the
    table's small_u, and two logs above it.  Every other call runs the
    loop, so a value that is returned is the loop's.
    """
    label, power, step, alternating = _SERIES[kind]
    if u.imag == 0:
        u = u.real
    gamma0, ratios, lg_first, lg_last, small_u = _table(alpha, kind)
    try:
        modulus = abs(u)
    except OverflowError:  # a complex u whose parts are finite, its modulus not
        modulus = math.inf
    if modulus > small_u:  # else nothing is refused, and no log is taken
        log_u = math.log(modulus)
        last = (power + _BUDGET * step) * log_u - lg_last
        floor = max(math.log(2.0 * tol), _LOG_REFUSAL_FLOOR)
        if last > floor and (power + step) * log_u - lg_first > floor:
            mag = math.exp(last) if last <= 709.0 else math.inf
            raise SeriesConvergenceError(
                f"{label} did not converge to tol={tol} within the {_BUDGET}-term budget "
                f"(term {_BUDGET} has magnitude {mag:.3e})",
                mag,
            )
    # u * u rather than u**2: a product past the double range is inf,
    # where ** raises OverflowError
    z = u * u if step == 2 else u
    if alternating:
        z = -z
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
