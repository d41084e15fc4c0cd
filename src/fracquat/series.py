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
both ends are known in closed form from two lgammas.  A sum that is not
refused reads one plan per (alpha, kind, tol): its Gamma ratios and a
threshold tuple.  The terms that are too large to end the sum, terms
1..b, are found in closed form by one bisect of log|u| in that tuple,
and all but the last are summed without the stopping test, to the same
doubles.  The module holds only this summation kernel; the truncated
J-basis series and the limit-quotient derivative that the tests compare
the symbolic derivative against live in tests/oracles.py.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
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

# the ends of a refusal by (alpha, kind): (lgamma(1 + p_1*alpha),
# lgamma(1 + p_499*alpha), small_u), where terms 1 and 499 are the first
# and last that the stopping rule tests, and at |u| <= small_u term 499
# is below e^-700; two lgammas, so a refused call builds no plan
@functools.lru_cache(maxsize=64)
def _ends(alpha, kind):
    _, power, step, _ = _SERIES[kind]
    lg_first = math.lgamma(1.0 + (power + step) * alpha)
    lg_last = math.lgamma(1.0 + (power + _BUDGET * step) * alpha)
    # 1e-9 below the |u| at which term 499 is e^-700: room for rounding
    small_u = math.exp((lg_last + _LOG_REFUSAL_FLOOR) / (power + _BUDGET * step)) * (1 - 1e-9)
    return lg_first, lg_last, small_u


# a term summed without the stopping test is below e^700, so with its
# 1e-12 tracking it stays far inside _MAX_TERM and the double range
_LOG_SKIP_CEILING = 700.0

# terms are summed without the stopping test while their closed-form log
# magnitude exceeds max(log tol, -700) by this margin; the summed terms
# track their closed form to about 1e-12 in the log, far inside it
_SKIP_MARGIN = 1e-6


# summing plans by (alpha, kind, tol): 64 plans of 499 ratios and 499
# thresholds hold about 2 MB; past that the least recently used is dropped
@functools.lru_cache(maxsize=64)
def _plan(alpha, kind, tol):
    """(Gamma(1 + p_0*alpha), ratios, thresholds, log_u_max), all formed
    from one list of lg_i = lgamma(1 + p_i*alpha), p_i = p_0 + i*step, i =
    0..499, which is not kept.  ratios[i] = exp(lg_i - lg_(i+1)), so a term
    formed from it is the double the per-term lgamma recurrence formed.  At
    log|u| < log_u_max, the least (700 + lg_k) / p_k, every term k in
    1..499 is below e^700 in closed form.  thresholds[k-1] = (c + lg_k) /
    p_k, c = max(log tol, -700) + _SKIP_MARGIN: term k's closed-form log
    magnitude p_k*log|u| - lg_k exceeds c exactly when log|u| >
    thresholds[k-1].  With c < 0 they strictly increase, since (c +
    lgamma(1 + p*alpha)) / p has the derivative (p*g' - g - c) / p^2 > 0 for
    the convex g(p) = lgamma(1 + p*alpha) with g(0) = 0; so the terms above
    c are terms 1..b with b = bisect_left(thresholds, log|u|).  None when c
    >= 0: no term is skipped."""
    _, power, step, _ = _SERIES[kind]
    powers = range(power, power + MAX_SERIES_TERMS * step, step)
    lg = [math.lgamma(1.0 + p * alpha) for p in powers]
    ratios = tuple(math.exp(a - b) for a, b in zip(lg, lg[1:]))
    log_u_max = min((_LOG_SKIP_CEILING + g) / p for g, p in zip(lg[1:], powers[1:]))
    c = max(math.log(tol), _LOG_REFUSAL_FLOOR) + _SKIP_MARGIN
    thresholds = tuple((c + g) / p for g, p in zip(lg[1:], powers[1:])) if c < 0 else None
    return math.gamma(1.0 + power * alpha), ratios, thresholds, log_u_max


def _sum_series(kind, alpha, u, tol):
    """Adaptive summation by term recurrence of at most MAX_SERIES_TERMS - 1
    terms.

    Each term comes from the one before: t_next = t * (z * ratio), with z
    = u^step, negated when the signs alternate, and ratio = Gamma(1 +
    p*alpha) / Gamma(1 + (p+step)*alpha) read from the (alpha, kind, tol)
    plan, so a term costs one multiply by a tabulated ratio.  The first
    call at an (alpha, kind, tol) that is not refused builds its whole
    plan, at one lgamma, one exp and one threshold per ratio.  A real u
    is summed in float arithmetic, so its value is exactly real.  Stops
    once the terms are decreasing and the geometric tail bound
    next/(1-rho), with rho the observed term ratio, falls below tol (the
    Gamma denominators make the ratios eventually decreasing, so the
    bound dominates the true tail).  An overflowed term or modulus ends
    the sum with last term magnitude inf.  Returns (value, terms summed);
    a non-convergence error of the loop names the terms summed, 0 when
    the first term's modulus overflows.

    Every call takes log|u| once.  Before summing, the sum is refused
    when it cannot stop: term k has magnitude exp(p_k*log|u| - lgamma(1 +
    p_k*alpha)), concave in k in the log since lgamma is convex, so terms
    1..MAX_SERIES_TERMS - 1 are all at least the smaller of the two ends.
    When both ends exceed 2*tol (and e^-700), no term can pass the tail
    test, and the loop would raise.  The refusal names the budget and the
    closed-form magnitude of its last term, inf past e^709.  It costs one
    compare of |u| with small_u, and two multiplies and a log above it,
    and reads two lgammas, not a plan.

    A term above tol cannot pass the tail test, so the terms 1..b that
    exceed max(tol, e^-700) by the _SKIP_MARGIN, found by one bisect of
    log|u| in the plan's threshold tuple, need no test: terms 1..b-1 are
    formed and summed in a bare loop, the same float operations in the
    same order, and the loop with the test takes over at term b with no
    term before it on record, which is exact since term b cannot pass the
    test either.  The skip is taken only at log|u| below the plan's
    log_u_max, where every term is below e^700, so no skipped term can
    overflow, raise in abs() or turn nan.  So every call returns or
    raises bit for bit as the loop with a test at every term.
    """
    label, power, step, alternating = _SERIES[kind]
    if u.imag == 0:
        u = u.real
    try:
        modulus = abs(u)
    except OverflowError:  # a complex u whose parts are finite, its modulus not
        modulus = math.inf
    log_u = math.log(modulus)
    lg_first, lg_last, small_u = _ends(alpha, kind)
    if modulus > small_u:  # else nothing is refused
        last = (power + _BUDGET * step) * log_u - lg_last
        floor = max(math.log(2.0 * tol), _LOG_REFUSAL_FLOOR)
        if last > floor and (power + step) * log_u - lg_first > floor:
            mag = math.exp(last) if last <= 709.0 else math.inf
            raise SeriesConvergenceError(
                f"{label} did not converge to tol={tol} within the {_BUDGET}-term budget "
                f"(term {_BUDGET} has magnitude {mag:.3e})",
                mag,
            )
    gamma0, ratios, thresholds, log_u_max = _plan(alpha, kind, tol)
    summed = 0
    if thresholds is not None and log_u < log_u_max:  # terms 1..b-1 are summed without the test
        summed = max(bisect.bisect_left(thresholds, log_u) - 1, 0)
    # u * u rather than u**2: a product past the double range is inf,
    # where ** raises OverflowError
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
    try:
        mag, prev_mag = abs(term), math.inf
        for summed, ratio in enumerate(rest, summed + 1):
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
