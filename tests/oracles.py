"""Numeric oracles for the fractal derivative.

The truncated J-basis series of local fractional Taylor expansions,
sum_k c_k J_k(x) with J_k(x) = x^(k*alpha) / Gamma(1 + k*alpha), on
which the Gamma-normalized derivative is the index shift J_k -> J_(k-1),
and the limit-quotient derivative at 0.  A series is its coefficient
tuple, and its shift is coeffs[1:].  The tests compare gamma mode
(`d_alpha_gamma`), the Gamma ratios of the mode conflict and `ml_exp`
against these.
"""

import math


def ml_exp_coeffs(order: int) -> tuple:
    """E_alpha(x^alpha) = sum_k J_k(x), truncated at J_order."""
    return (1,) * (order + 1)


def sin_alpha_coeffs(order: int) -> tuple:
    """sin_alpha(x^alpha) = J_1 - J_3 + J_5 - ..., truncated at J_order."""
    return tuple((-1) ** (k // 2) if k % 2 else 0 for k in range(order + 1))


def cos_alpha_coeffs(order: int) -> tuple:
    """cos_alpha(x^alpha) = J_0 - J_2 + J_4 - ..., truncated at J_order."""
    return tuple(0 if k % 2 else (-1) ** (k // 2) for k in range(order + 1))


def jseries_sum(alpha: float, coeffs, x: float) -> float:
    """sum_k coeffs[k] J_k(x) for x > 0."""
    u = x**alpha
    return sum(c * u**k / math.gamma(1 + k * alpha) for k, c in enumerate(coeffs))


def limit_quotient_at_zero(f, alpha: float, steps) -> tuple:
    """(estimate, quotients, converged) of Gamma(1+alpha) * (f(h) - f(0)) / h^alpha
    along the decreasing steps h.

    The quotients converge when the last difference is tiny or the
    differences shrink to a small one; a converged sequence of three or
    more quotients takes one Aitken step, which lands a geometric sequence
    on its limit.
    """
    g = math.gamma(1 + alpha)
    f0 = complex(f(0.0))
    quotients = tuple(g * (complex(f(h)) - f0) / h**alpha for h in steps)

    diffs = [abs(b - a) for a, b in zip(quotients, quotients[1:])]
    scale = max(1.0, abs(quotients[-1]))
    converged = diffs[-1] <= 1e-6 * scale or (
        len(diffs) >= 2 and diffs[-1] < diffs[0] and diffs[-1] <= 1e-3 * scale
    )

    estimate = quotients[-1]
    if converged and len(quotients) >= 3:
        q0, q1, q2 = quotients[-3:]
        denom = q2 - 2 * q1 + q0
        if abs(denom) > 1e-14 * scale:
            accel = q2 - (q2 - q1) ** 2 / denom
            if abs(accel - q2) <= max(10 * diffs[-1], 1e-9 * scale):
                estimate = accel
    return estimate, quotients, converged
