"""Generalized exponential and trigonometric functions on Cantor sets.

Everything here works with the already-fractal argument u (standing for
c*x^alpha), so the series are plain power series with Gamma(1+k*alpha)
denominators:

    ml_exp(alpha, u)    = sum_k u^k / Gamma(1+k*alpha)
    sin_alpha(alpha, u) = sum_k (-1)^k u^(2k+1) / Gamma(1+(2k+1)*alpha)
    cos_alpha(alpha, u) = sum_k (-1)^k u^(2k)   / Gamma(1+2k*alpha)

At alpha=1 these reduce to exp, sin and cos, which the tests use as the
classical oracle.  alpha=1 is admitted although the fractal setting has
0 < alpha < 1.  tol lies in [eps, 1/2), eps the double's epsilon, so the
floor log(2*tol) lies in [-35.4, 0), and the terms above it in closed
form are terms 1..b for one b, found by one bisect of log|u| in a
threshold tuple.  A sum whose term budget ends above that floor cannot
fall below tol, and is refused before any term is summed.  Every call reads one plan per (alpha, kind,
tol): the lgamma of the last term, the floor, the Gamma ratios and the
threshold tuple.  Terms 1..b are too large to end the sum; all but the
last are summed without the stopping test, to the same doubles.  The
module holds only this summation kernel; the truncated J-basis series
and the limit-quotient derivative that the tests compare the symbolic
derivative against live in tests/oracles.py.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math

MAX_SERIES_TERMS = 500
_BUDGET = MAX_SERIES_TERMS - 1  # terms summed at most, and tested by the stopping rule
# the least tol, the double's epsilon: a sum's own rounding is of that size
_MIN_TOL = math.ulp(1.0)


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
    tol = float(tol)
    if not _MIN_TOL <= tol < 0.5:  # also false for nan
        raise ValueError(f"tol must lie in [{_MIN_TOL}, 0.5), got {tol}")
    return tol


# kind: (label, first power, power step, alternating signs)
_SERIES = {
    "Ea": ("ml_exp", 0, 1, False),
    "sina": ("sin_alpha", 1, 2, True),
    "cosa": ("cos_alpha", 0, 2, True),
}


# summing plans by (alpha, kind, tol): 64 plans of 499 ratios and 499
# thresholds hold about 2 MB; past that the least recently used is dropped
@functools.lru_cache(maxsize=64)
def _plan(alpha, kind, tol):
    """(Gamma(1 + p_0*alpha), ratios, thresholds, lg_499, floor), all
    formed from one list of lg_i = lgamma(1 + p_i*alpha), p_i = p_0 +
    i*step, i = 0..499, which is not kept.  floor = log(2*tol), in
    [-35.4, 0) since eps <= tol < 1/2.  Term 499 is the last that the
    stopping rule tests: a refusal compares its closed-form log magnitude
    p_499*log|u| - lg_499 with floor.  ratios[i] = exp(lg_i - lg_(i+1)),
    so a term formed from it is the double the per-term lgamma recurrence
    formed.
    thresholds[k-1] = (floor + lg_k) / p_k: term k's closed-form log
    magnitude exceeds floor exactly when log|u| > thresholds[k-1].  They
    strictly increase, since (floor + lgamma(1 + p*alpha)) / p has the
    derivative (p*g' - g - floor) / p^2 > 0 for the convex g(p) =
    lgamma(1 + p*alpha) with g(0) = 0 and floor < 0; so the terms above
    floor are terms 1..b with b = bisect_left(thresholds, log|u|)."""
    _, power, step, _ = _SERIES[kind]
    powers = range(power, power + MAX_SERIES_TERMS * step, step)
    lg = [math.lgamma(1.0 + p * alpha) for p in powers]
    ratios = tuple(math.exp(a - b) for a, b in zip(lg, lg[1:]))
    floor = math.log(2.0 * tol)
    thresholds = tuple((floor + g) / p for g, p in zip(lg[1:], powers[1:]))
    return math.gamma(1.0 + power * alpha), ratios, thresholds, lg[-1], floor


def _sum_series(kind, alpha, u, tol):
    """Adaptive summation by term recurrence of at most MAX_SERIES_TERMS - 1
    terms.

    Each term comes from the one before: t_next = t * (z * ratio), with z
    = u^step, negated when the signs alternate, and ratio = Gamma(1 +
    p*alpha) / Gamma(1 + (p+step)*alpha) read from the (alpha, kind, tol)
    plan, so a term costs one multiply by a tabulated ratio.  The first
    call at an (alpha, kind, tol), refused or not, builds its whole plan,
    at one lgamma, one exp and one threshold per ratio.  A real u
    is summed in float arithmetic, so its value is exactly real.  Stops
    once the terms are decreasing and the geometric tail bound
    next/(1-rho), with rho the observed term ratio, falls below tol (the
    Gamma denominators make the ratios eventually decreasing, so the
    bound dominates the true tail).  Returns (value, terms summed); a
    non-convergence error of the loop names the 499 terms summed.

    Every call takes log|u| once.  Term k has the closed-form log
    magnitude p_k*log|u| - lgamma(1 + p_k*alpha), above the plan's floor
    exactly when log|u| passes its threshold; the thresholds increase, so
    the terms above the floor are terms 1..b.  A term above the floor is
    at least twice tol in closed form, a normal double, so, formed to
    about 1e-12, it cannot pass the tail test.  When term 499 is above the
    floor, every term is, and the loop would raise: the sum is refused
    before summing, with the budget and the closed-form magnitude of term
    499, inf past e^709.  That costs one multiply, and reads term 499's
    lgamma and the floor from the plan; an |u| that abs() cannot hold
    counts as inf.  Past the refusal, term 499 is at most the floor; that
    bounds log|u| by lg_499 / p_499, and then every term 1..499 is below
    e^370 in closed form, so no term the loop forms can overflow, raise
    in abs() or turn nan.

    Terms 1..b need no test: terms 1..b-1 are formed and summed in a bare
    loop, the same float operations in the same order, and the loop with
    the test takes over at term b with no term before it on record, which
    is exact since term b cannot pass the test either.  So every call
    returns or raises bit for bit as the loop with a test at every term.
    """
    label, power, step, alternating = _SERIES[kind]
    if u.imag == 0:
        u = u.real
    try:
        modulus = abs(u)
    except OverflowError:  # a complex u whose parts are finite, its modulus not
        modulus = math.inf
    log_u = math.log(modulus)
    gamma0, ratios, thresholds, lg_last, floor = _plan(alpha, kind, tol)
    last = (power + _BUDGET * step) * log_u - lg_last
    if last > floor:
        mag = math.exp(last) if last <= 709.0 else math.inf
        raise SeriesConvergenceError(
            f"{label} did not converge to tol={tol} within the {_BUDGET}-term budget "
            f"(term {_BUDGET} has magnitude {mag:.3e})",
            mag,
        )
    # terms 1..b-1 are summed without the test
    summed = max(bisect.bisect_left(thresholds, log_u) - 1, 0)
    z = u * u if step == 2 else u
    if alternating:
        z = -z
    term = u**power / gamma0
    total = 0.0
    rest = iter(ratios)
    if summed:
        for ratio in itertools.islice(rest, summed):
            total += term
            term *= z * ratio
    mag, prev_mag = abs(term), math.inf
    for summed, ratio in enumerate(rest, summed + 1):
        total += term
        term *= z * ratio
        next_mag = abs(term)
        if next_mag < mag and next_mag < prev_mag:
            if next_mag / (1.0 - next_mag / mag) < tol:  # also true for a zero term
                return complex(total), summed
        prev_mag, mag = mag, next_mag
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
