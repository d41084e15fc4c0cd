"""Numeric oracle tests for the fractal special functions.

Oracles: fixed-order brute-force partial sums computed in this file, the
mpmath reference of oracles.py (closed forms at alpha=1/2, the defining
series elsewhere), the classical libm functions at alpha=1, and the
closed form E_(1/2)(1) = e*erfc(-1).  The J-basis series, the limit
quotient and the mpmath reference of oracles.py are checked here too.
"""

import bisect
import cmath
import collections
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from fracquat import (
    CYLINDRICAL,
    SeriesConvergenceError,
    canon,
    cos_alpha,
    eval_canonical,
    ml_exp,
    sin_alpha,
)
import fracquat.series as series_module
from fracquat.series import MAX_SERIES_TERMS, evaluate_series

from oracles import (
    cos_alpha_coeffs,
    jseries_sum,
    limit_quotient_at_zero,
    ml_exp_coeffs,
    series_reference,
    series_sum,
    sin_alpha_coeffs,
)


def brute_ml(alpha, u, terms=80):
    return sum(u**k / math.gamma(1 + k * alpha) for k in range(terms))


def brute_sin(alpha, u, terms=60):
    return sum(
        (-1) ** k * u ** (2 * k + 1) / math.gamma(1 + (2 * k + 1) * alpha)
        for k in range(terms)
    )


def brute_cos(alpha, u, terms=60):
    return sum((-1) ** k * u ** (2 * k) / math.gamma(1 + 2 * k * alpha) for k in range(terms))


# (value.real.hex(), value.imag.hex(), terms) of evaluate_series at the
# default tol, recorded from the per-term recurrence (each term is the one
# before times ±u^step * exp(lgamma(1 + p*alpha) - lgamma(1 + (p+step)*alpha)),
# reference_sum below) and kept by the kernel that reads those ratios from
# a table per (alpha, kind); the term counts are those of the log-space
# kernel before both.  u covers both
# bench bands, every direction, 0 and the underflow cut-off.  A real u is
# summed in float arithmetic, so its imaginary part is exactly 0, and so is
# that of cosa(u) at an imaginary u, whose u * u is real
GOLDEN = {
    ("Ea", 0.5, 0j): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("Ea", 0.5, (1.3+0j)): ("0x1.4f66f68f899e5p+3", "0x0.0p+0", 37),
    ("Ea", 0.5, (-1.3+0j)): ("0x1.6e39e13d86039p-2", "0x0.0p+0", 37),
    ("Ea", 0.5, 1.3j): ("0x1.79e55f48314ebp-3", "0x1.1745f7cb1de05p-1", 37),
    ("Ea", 0.5, (0.78+1.04j)): ("-0x1.86cce54b5b480p-2", "0x1.815968932f582p+0", 37),
    ("Ea", 0.5, (6+0j)): ("0x1.ea215a1d20d89p+52", "0x0.0p+0", 242),
    ("Ea", 0.5, (-6+0j)): ("0x1.d853e601d86e7p+0", "0x0.0p+0", 242),
    ("Ea", 0.5, 6j): ("0x1.49a90f7306937p+0", "0x1.bf9afcd18922bp+1", 242),
    ("Ea", 0.5, (3.6+4.8j)): ("-0x1.e9d54e2fa6702p+2", "0x1.c37c280b211f4p+2", 242),
    ("Ea", 0.5, (1e-300+0j)): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("Ea", 0.75, 0j): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("Ea", 0.75, (1.3+0j)): ("0x1.58f1ef31c4c02p+2", "0x0.0p+0", 23),
    ("Ea", 0.75, (-1.3+0j)): ("0x1.419bd7ab1b0f0p-2", "0x0.0p+0", 23),
    ("Ea", 0.75, 1.3j): ("0x1.f768890bd25b7p-4", "0x1.7dd99dee1fae9p-1", 23),
    ("Ea", 0.75, (0.78+1.04j)): ("0x1.7d3b07d77b5cfp-2", "0x1.1160572c69e5ap+1", 23),
    ("Ea", 0.75, (6+0j)): ("0x1.1af01e008318ep+16", "0x0.0p+0", 66),
    ("Ea", 0.75, (-6+0j)): ("0x1.c0ab1576c196fp-5", "0x0.0p+0", 66),
    ("Ea", 0.75, 6j): ("-0x1.b9d550fcb07d7p-7", "0x1.6d51a1d3a19cdp-5", 66),
    ("Ea", 0.75, (3.6+4.8j)): ("-0x1.eac77fe6c0199p+4", "-0x1.24bab4dbd9014p+5", 66),
    ("Ea", 0.75, (1e-300+0j)): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("Ea", 1.0, 0j): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("Ea", 1.0, (1.3+0j)): ("0x1.d5ab83615f665p+1", "0x0.0p+0", 17),
    ("Ea", 1.0, (-1.3+0j)): ("0x1.17129308cf281p-2", "0x0.0p+0", 17),
    ("Ea", 1.0, 1.3j): ("0x1.11eb3682a4d94p-2", "0x1.ed577f9c515c8p-1", 17),
    ("Ea", 1.0, (0.78+1.04j)): ("0x1.1ab3c3168058cp+0", "0x1.e19d97639fd6fp+0", 17),
    ("Ea", 1.0, (6+0j)): ("0x1.936dc5690c08fp+8", "0x0.0p+0", 35),
    ("Ea", 1.0, (-6+0j)): ("0x1.44e51f11b6007p-9", "0x0.0p+0", 35),
    ("Ea", 1.0, 6j): ("0x1.eb9b70978273dp-1", "-0x1.1e1f18ab09333p-2", 35),
    ("Ea", 1.0, (3.6+4.8j)): ("0x1.99e53d1a8191bp+1", "-0x1.23a9b598a5e46p+5", 35),
    ("Ea", 1.0, (1e-300+0j)): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("sina", 0.5, 0j): ("0x0.0p+0", "0x0.0p+0", 1),
    ("sina", 0.5, (1.3+0j)): ("0x1.1745f7cb1de04p-1", "0x0.0p+0", 18),
    ("sina", 0.5, (-1.3+0j)): ("-0x1.1745f7cb1de04p-1", "0x0.0p+0", 18),
    ("sina", 0.5, 1.3j): ("0x0.0p+0", "0x1.43f527859d6e5p+2", 18),
    ("sina", 0.5, (0.78+1.04j)): ("0x1.c69d327640486p+0", "-0x1.b0ef425c6bc89p-2", 18),
    ("sina", 0.5, (6+0j)): ("0x1.c0abddf2b9070p+1", "0x0.0p+0", 120),
    ("sina", 0.5, (-6+0j)): ("-0x1.c0abddf2b9070p+1", "0x0.0p+0", 120),
    ("sina", 0.5, 6j): ("0x0.0p+0", "0x1.ea215a1d20d82p+51", 120),
    ("sina", 0.5, (3.6+4.8j)): ("-0x1.0dc6007f65b33p+6", "-0x1.74dc9f2ee7224p+14", 120),
    ("sina", 0.5, (1e-300+0j)): ("0x1.82e6d98711d3ap-997", "0x0.0p+0", 1),
    ("sina", 0.75, 0j): ("0x0.0p+0", "0x0.0p+0", 1),
    ("sina", 0.75, (1.3+0j)): ("0x1.7dd99dee1faeap-1", "0x0.0p+0", 11),
    ("sina", 0.75, (-1.3+0j)): ("-0x1.7dd99dee1faeap-1", "0x0.0p+0", 11),
    ("sina", 0.75, 1.3j): ("0x0.0p+0", "0x1.44d831b7130f0p+1", 11),
    ("sina", 0.75, (0.78+1.04j)): ("0x1.9a8db6dd085c1p+0", "0x1.33d5d2b38cd2ap-1", 11),
    ("sina", 0.75, (6+0j)): ("0x1.6d51a1d3aa31bp-5", "0x0.0p+0", 33),
    ("sina", 0.75, (-6+0j)): ("-0x1.6d51a1d3aa31bp-5", "0x0.0p+0", 33),
    ("sina", 0.75, 6j): ("0x0.0p+0", "0x1.1af00ffb2a6d2p+15", 33),
    ("sina", 0.75, (3.6+4.8j)): ("0x1.804c25db38743p+9", "-0x1.3fdc209e8066dp+8", 33),
    ("sina", 0.75, (1e-300+0j)): ("0x1.75142cecec108p-997", "0x0.0p+0", 1),
    ("sina", 1.0, 0j): ("0x0.0p+0", "0x0.0p+0", 1),
    ("sina", 1.0, (1.3+0j)): ("0x1.ed577f9c515c9p-1", "0x0.0p+0", 8),
    ("sina", 1.0, (-1.3+0j)): ("-0x1.ed577f9c515c9p-1", "0x0.0p+0", 8),
    ("sina", 1.0, 1.3j): ("0x0.0p+0", "0x1.b2c9310045816p+0", 8),
    ("sina", 1.0, (0.78+1.04j)): ("0x1.1e80dc37ed918p+0", "0x1.c292d4aa20d9ap-1", 8),
    ("sina", 1.0, (6+0j)): ("-0x1.1e1f18ab092dbp-2", "0x0.0p+0", 17),
    ("sina", 1.0, (-6+0j)): ("0x1.1e1f18ab092dbp-2", "0x0.0p+0", 17),
    ("sina", 1.0, 6j): ("0x0.0p+0", "0x1.936d22f67c7ffp+7", 17),
    ("sina", 1.0, (3.6+4.8j)): ("-0x1.ae322589341aap+4", "-0x1.b3d51aa747424p+5", 17),
    ("sina", 1.0, (1e-300+0j)): ("0x1.56e1fc2f8f359p-997", "0x0.0p+0", 1),
    ("cosa", 0.5, 0j): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("cosa", 0.5, (1.3+0j)): ("0x1.79e55f48314f0p-3", "0x0.0p+0", 19),
    ("cosa", 0.5, (-1.3+0j)): ("0x1.79e55f48314f0p-3", "0x0.0p+0", 19),
    ("cosa", 0.5, 1.3j): ("0x1.5ad8c59975ce9p+2", "0x0.0p+0", 19),
    ("cosa", 0.5, (0.78+1.04j)): ("-0x1.531f3a6d7bfc6p-4", "-0x1.9a5d44f707a6fp+0", 19),
    ("cosa", 0.5, (6+0j)): ("0x1.16c37c7ccd67bp+0", "0x0.0p+0", 121),
    ("cosa", 0.5, (-6+0j)): ("0x1.16c37c7ccd67bp+0", "0x0.0p+0", 121),
    ("cosa", 0.5, 6j): ("0x1.ea215a1d20d86p+51", "0x0.0p+0", 121),
    ("cosa", 0.5, (3.6+4.8j)): ("-0x1.74e15df8ef97cp+14", "0x1.d8f711d101848p+5", 121),
    ("cosa", 0.5, (1e-300+0j)): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("cosa", 0.75, 0j): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("cosa", 0.75, (1.3+0j)): ("0x1.f768890bd25a2p-4", "0x0.0p+0", 12),
    ("cosa", 0.75, (-1.3+0j)): ("0x1.f768890bd25a2p-4", "0x0.0p+0", 12),
    ("cosa", 0.75, 1.3j): ("0x1.6d0bacac7670fp+1", "0x0.0p+0", 12),
    ("cosa", 0.75, (0.78+1.04j)): ("0x1.c82ed1699378dp-1", "-0x1.67d16120282c2p+0", 12),
    ("cosa", 0.75, (6+0j)): ("-0x1.b9d550fca9172p-7", "0x0.0p+0", 33),
    ("cosa", 0.75, (-6+0j)): ("-0x1.b9d550fca9172p-7", "0x0.0p+0", 33),
    ("cosa", 0.75, 6j): ("0x1.1af02c05dbc4cp+15", "0x0.0p+0", 33),
    ("cosa", 0.75, (3.6+4.8j)): ("-0x1.3fd233af9fc05p+8", "-0x1.804780bfac4c4p+9", 33),
    ("cosa", 0.75, (1e-300+0j)): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("cosa", 1.0, 0j): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
    ("cosa", 1.0, (1.3+0j)): ("0x1.11eb3682a4d96p-2", "0x0.0p+0", 9),
    ("cosa", 1.0, (-1.3+0j)): ("0x1.11eb3682a4d96p-2", "0x0.0p+0", 9),
    ("cosa", 1.0, 1.3j): ("0x1.f88dd5c2794b7p+0", "0x0.0p+0", 9),
    ("cosa", 1.0, (0.78+1.04j)): ("0x1.219d055635153p+0", "-0x1.bdbc2edb3dbe9p-1", 9),
    ("cosa", 1.0, (6+0j)): ("0x1.eb9b70978273dp-1", "0x0.0p+0", 18),
    ("cosa", 1.0, (-6+0j)): ("0x1.eb9b70978273dp-1", "0x0.0p+0", 18),
    ("cosa", 1.0, 6j): ("0x1.936e67db9b91ap+7", "0x0.0p+0", 18),
    ("cosa", 1.0, (3.6+4.8j)): ("-0x1.b3e437f2da358p+5", "0x1.ae233acc8df5fp+4", 18),
    ("cosa", 1.0, (1e-300+0j)): ("0x1.0000000000000p+0", "0x0.0p+0", 1),
}


class TestKernelGolden:
    def test_bit_identical(self):
        got = {}
        for key in GOLDEN:
            value, terms = evaluate_series(*key)
            got[key] = (value.real.hex(), value.imag.hex(), terms)
        assert got == GOLDEN

    @pytest.mark.parametrize("kind", ("Ea", "sina", "cosa"))
    def test_real_argument_gives_real_value(self, kind):
        # with phase(u) = pi, sin(k*pi) rounding made Ea(1, -30) 9.6e-3 + 5.5e-4i
        summed = 0
        for alpha in (0.1, 0.3, 0.5, 0.75, 1.0):
            for u in (-30.0, -6.0, -1.3, -0.2, -1e-300, 0.0, 0.7, 2.5, 12.0, 30.0):
                try:
                    value, _ = evaluate_series(kind, alpha, complex(u, 0.0))
                except SeriesConvergenceError:
                    continue
                assert value.imag == 0.0, (alpha, u)
                summed += 1
        assert summed >= 30

    def test_non_convergence_message(self):
        with pytest.raises(SeriesConvergenceError) as err:
            evaluate_series("Ea", 0.5, 20.0)
        assert str(err.value) == (
            "ml_exp did not converge to tol=1e-12 within the 499-term budget "
            "(term 499 has magnitude 8.009e+157)"
        )
        # exp(499*log 20 - lgamma(1 + 499/2)), the closed form of term 499
        assert err.value.last_term_magnitude.hex() == "0x1.755406cadf07cp+524"

    # (kind, alpha, u): the terms the loop sums before the overflow, when
    # it is reached
    OVERFLOWS = {
        ("Ea", 0.3, 20.0): 380,
        ("Ea", 0.3, 20 + 1j): 380,
        # u^2 itself past the double range, for the step-2 series
        ("sina", 0.5, 1e200): 1,
        ("sina", 0.5, 1e200j): 1,
        ("cosa", 0.5, 1e200): 1,
        ("cosa", 0.5, 1e200j): 1,
        # finite parts whose modulus abs() cannot hold: in the loop, and at
        # the first term, before any term is summed
        ("cosa", 0.15392785036507609, -3.2481912923852962 + 3.1353549599831267j): 385,
        ("sina", 1, 1.5e308 + 1.5e308j): 0,
    }

    @pytest.mark.parametrize("kind, alpha, u", OVERFLOWS)
    def test_overflow_branch(self, kind, alpha, u):
        # term 499 is past e^709, so the sum is refused before any term is
        # summed, with magnitude inf; an |u| that abs() cannot hold counts as inf
        with pytest.raises(SeriesConvergenceError) as err:
            evaluate_series(kind, alpha, u)
        assert str(err.value).endswith(
            "did not converge to tol=1e-12 within the 499-term budget (term 499 has magnitude inf)"
        )
        assert err.value.last_term_magnitude == math.inf

    @pytest.mark.parametrize("kind, alpha, u", OVERFLOWS)
    def test_overflow_branch_of_the_loop(self, kind, alpha, u):
        # at tol=1e308, whose 2*tol is past the double range, nothing is
        # refused, so the loop meets the overflow: terms past the range are
        # taken as inf, so the sum cannot settle; for a complex u, a bare
        # recurrence would turn inf * z into nan
        with pytest.raises(SeriesConvergenceError) as err:
            evaluate_series(kind, alpha, u, 1e308)
        summed = self.OVERFLOWS[kind, alpha, u]
        assert str(err.value).endswith(
            f"did not converge to tol=1e+308, terms summed: {summed} (last term magnitude inf)"
        )
        assert err.value.last_term_magnitude == math.inf

    @pytest.mark.parametrize("u", [math.nan, math.inf, complex(1, math.inf), complex(-math.inf, 0)])
    @pytest.mark.parametrize("function", [ml_exp, sin_alpha, cos_alpha])
    def test_non_finite_argument(self, function, u):
        # these used to run 500 terms and report a convergence failure
        with pytest.raises(ValueError, match="u must be finite"):
            function(0.5, u)


SPECS = {
    "Ea": ("ml_exp", 0, 1, False),
    "sina": ("sin_alpha", 1, 2, True),
    "cosa": ("cos_alpha", 0, 2, True),
}


def recurrence_sum(kind, alpha, u, tol=1e-12, magnitudes=None):
    """evaluate_series by the per-term recurrence that the ratio tables
    replaced, with no test before summing and the stopping test at every
    term: each term pays its own lgamma and exp, and a sum that cannot
    settle runs to the cap or the overflow.  Given a list as magnitudes,
    it appends |t_k| of each term k >= 1 as the loop forms it."""
    label, power, step, alternating = SPECS[kind]
    u = complex(u)
    if u == 0:
        return (1 + 0j if power == 0 else 0j), 1
    if u.imag == 0:
        u = u.real
    z = u * u if step == 2 else u
    if alternating:
        z = -z
    lg = math.lgamma(1.0 + power * alpha)
    term = u**power / math.gamma(1.0 + power * alpha)
    total = 0.0
    summed = 0
    try:
        mag, prev_mag = abs(term), math.inf
        for i in range(MAX_SERIES_TERMS - 1):
            total += term
            summed += 1
            power += step
            lg_next = math.lgamma(1.0 + power * alpha)
            term *= z * math.exp(lg - lg_next)
            lg = lg_next
            next_mag = abs(term)
            if magnitudes is not None:
                magnitudes.append(next_mag)
            if next_mag < mag and next_mag < prev_mag:
                if next_mag == 0.0:
                    return complex(total), i + 1
                rho = next_mag / mag
                if next_mag / (1.0 - rho) < tol:
                    return complex(total), i + 1
            elif not next_mag <= math.exp(709.0):
                mag = math.inf
                break
            prev_mag, mag = mag, next_mag
    except OverflowError:  # abs() of a finite complex term past the double range
        mag = math.inf
    raise SeriesConvergenceError(
        f"{label} did not converge to tol={tol}, terms summed: {summed} "
        f"(last term magnitude {mag:.3e})",
        mag,
    )


def reference_sum(kind, alpha, u, tol=1e-12):
    """evaluate_series as specified: refused when the closed-form log
    magnitudes p*log|u| - lgamma(1 + p*alpha) of terms 1 and 499 both
    exceed log(2*tol) and -700, else the per-term recurrence."""
    label, power, step, _ = SPECS[kind]
    u = complex(u)
    if u != 0:
        try:
            log_u = math.log(abs(u))
        except OverflowError:
            log_u = math.inf
        n = MAX_SERIES_TERMS - 1
        ends = [(power + k * step) * log_u - math.lgamma(1.0 + (power + k * step) * alpha)
                for k in (1, n)]
        if min(ends) > max(math.log(2.0 * tol), -700.0):
            mag = math.exp(ends[1]) if ends[1] <= 709.0 else math.inf
            raise SeriesConvergenceError(
                f"{label} did not converge to tol={tol} within the {n}-term budget "
                f"(term {n} has magnitude {mag:.3e})",
                mag,
            )
    return recurrence_sum(kind, alpha, u, tol)


def outcome(function, *args):
    """What a call gives, bit for bit: (value hex pair, terms) or the error."""
    try:
        value, terms = function(*args)
    except SeriesConvergenceError as exc:
        return "SeriesConvergenceError", str(exc), exc.last_term_magnitude.hex()
    return value.real.hex(), value.imag.hex(), terms


def clear_caches():
    for cache in (series_module._ends, series_module._plan):
        cache.cache_clear()


# |u| from 1e-300 to 1e6 in every direction
MODULI = st.floats(-300.0, 6.0).map(lambda e: 10.0**e) | st.floats(0.0, 1e6, exclude_min=True)
WIDE_ARGUMENTS = st.builds(lambda r, d: r * d, MODULI, st.sampled_from((1, -1, 1j, -1j))) | st.builds(
    cmath.rect, MODULI, st.floats(-math.pi, math.pi)
)


def refused_or_same(kind, alpha, u, tol=1e-12):
    """Check the kernel against the recurrence with no test before summing:
    a call refused before summing raises there too, and any other call
    ends the same, bit for bit.  Returns "refused", "returned" or "raised"."""
    got = outcome(evaluate_series, kind, alpha, u, tol)
    plain = outcome(recurrence_sum, kind, alpha, u, tol)
    if got[0] == "SeriesConvergenceError" and "-term budget" in got[1]:
        assert plain[0] == "SeriesConvergenceError", (kind, alpha, u, tol, plain)
        return "refused"
    assert got == plain, (kind, alpha, u, tol)
    return "raised" if got[0] == "SeriesConvergenceError" else "returned"


class TestRatioTables:
    KINDS = ("Ea", "sina", "cosa")

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.floats(0.0, 1.0, exclude_min=True),
        st.builds(cmath.rect, st.floats(0.0, 40.0), st.floats(-math.pi, math.pi))
        | st.floats(-40.0, 40.0).map(complex),
        st.floats(1e-300, 1.0),
    )
    def test_matches_the_per_term_recurrence(self, kind, alpha, u, tol):
        # more alphas come up here than the cache keeps, so tables are
        # dropped and rebuilt
        assert outcome(evaluate_series, kind, alpha, u, tol) == outcome(
            reference_sum, kind, alpha, u, tol
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.floats(0.0, 1.0, exclude_min=True),
        st.builds(cmath.rect, st.floats(0.0, 200.0), st.floats(-math.pi, math.pi))
        | st.floats(-200.0, 200.0).map(complex),
        # a tol below e^-700 / 2 or past half the double range too
        st.floats(1e-300, 1.0) | st.floats(0.0, 1e-300, exclude_min=True) | st.floats(1.0, 1e308),
    )
    def test_a_refusal_is_a_call_the_recurrence_cannot_finish(self, kind, alpha, u, tol):
        refused_or_same(kind, alpha, u, tol)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(KINDS), st.floats(1e-4, 1.0), WIDE_ARGUMENTS, st.floats(1e-320, 1e308))
    def test_skipped_prefix_ends_as_the_per_term_recurrence(self, kind, alpha, u, tol):
        # the terms before the bisect's b are summed with no test: however
        # many, up to the e^-700 floor or the overflow cut, each call ends
        # as with a test at every term
        assert outcome(evaluate_series, kind, alpha, u, tol) == outcome(
            reference_sum, kind, alpha, u, tol
        )

    ALPHAS = (1e-3, 0.05, 0.3, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_thresholds_increase_strictly(self, kind):
        for alpha in self.ALPHAS:
            for tol in (1e-300, 1e-12, 0.1):
                thresholds = series_module._plan(alpha, kind, tol)[2]
                assert len(thresholds) == MAX_SERIES_TERMS - 1
                assert all(a < b for a, b in zip(thresholds, thresholds[1:])), (alpha, tol)
            # c = max(log tol, -700) + 1e-6 >= 0: nothing is skipped
            for tol in (0.9999995, 1.0, 1e308):
                assert series_module._plan(alpha, kind, tol)[2] is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_skipped_terms_are_above_tol_and_below_overflow(self, kind):
        # the terms 1..b that the kernel sums with no test, as the recurrence
        # forms them: each is at least tol, so it cannot pass the tail test,
        # and at most e^709, so it cannot end the sum as overflowed
        skipped = 0
        for alpha in self.ALPHAS:
            for tol in (1e-310, 1e-300, 1e-12, 0.1):
                _, _, thresholds, log_u_max = series_module._plan(alpha, kind, tol)
                # log|u| just past a threshold puts its term just above the
                # margin; and log|u| just under log_u_max
                logs = [t + 1e-15 * max(1.0, abs(t)) for t in thresholds[::37]]
                logs.append(log_u_max - 1e-12 * max(1.0, abs(log_u_max)))
                for level in logs:
                    for direction in (1, -1, 1j, cmath.rect(1.0, 2.0)):
                        u = complex(math.exp(level) * direction)
                        log_u = math.log(abs(u))
                        if log_u >= log_u_max:
                            continue
                        b = bisect.bisect_left(thresholds, log_u)
                        magnitudes = []
                        outcome(recurrence_sum, kind, alpha, u, tol, magnitudes)
                        assert len(magnitudes) >= b
                        assert all(tol <= m <= math.exp(709.0) for m in magnitudes[:b])
                        skipped += b >= 2
        assert skipped >= 300

    def test_large_band_grid_refuses_only_what_the_recurrence_cannot_finish(self):
        # the bench's large band: three kinds, alpha 0.5, 0.75 and 1, four
        # directions and |u| in (2, 30]
        ends = collections.Counter(
            refused_or_same(kind, alpha, u)
            for kind in self.KINDS
            for alpha in (0.5, 0.75, 1.0)
            for n in range(1, 29)
            for u in (2.0 + n, -2.0 - n, (2.0 + n) * 1j, cmath.rect(2.0 + n, (n + 0.5) * math.pi / 14))
        )
        # every call here that the loop cannot finish is refused before summing
        assert ends == {"returned": 788, "refused": 220}

    @pytest.mark.parametrize("kind", KINDS)
    def test_small_u_skips_only_calls_that_are_not_refused(self, kind):
        # at |u| <= small_u the kernel takes no log; there term 499 is below
        # e^-700, and just above it the kernel still ends as the reference
        _, power, step, _ = series_module._SERIES[kind]
        p = power + (MAX_SERIES_TERMS - 1) * step
        for alpha in (1e-3, 0.05, 0.3, 0.5, 0.75, 1.0):
            small_u = series_module._ends(alpha, kind)[2]
            assert p * math.log(small_u) - math.lgamma(1.0 + p * alpha) < -700.0
            for u in (small_u, small_u * (1 + 1e-8), -small_u * 1.01j):
                for tol in (1e-300, 1e-12):
                    assert outcome(evaluate_series, kind, alpha, u, tol) == outcome(
                        reference_sum, kind, alpha, u, tol
                    )

    def test_golden_values_are_the_per_term_recurrence(self):
        assert {key: outcome(reference_sum, *key) for key in GOLDEN} == GOLDEN

    def test_call_order_does_not_matter(self):
        # whichever call builds a plan, the others read the same one
        calls = [(kind, 0.6180339887, u) for kind in self.KINDS for u in (25 + 3j, 0.7 - 0.2j)]
        runs = []
        for order in (calls, calls[::-1]):
            clear_caches()
            runs.append({call: outcome(evaluate_series, *call) for call in order})
        assert runs[0] == runs[1] == {call: outcome(reference_sum, *call) for call in calls}

    def test_plan_count_and_length_are_bounded(self):
        plan = series_module._plan
        plan.cache_clear()
        # at tol 1 nothing is skipped: its plans hold no thresholds
        keys = [(0.3 + n / 1000, kind, tol) for n in range(24) for kind in self.KINDS for tol in (1e-12, 1.0)]
        for alpha, kind, tol in keys:
            # a call that sums: a refused one builds no plan
            outcome(evaluate_series, kind, alpha, 1.5, tol)
            assert plan.cache_info().currsize <= 64
        # each (alpha, kind, tol) was built once, whole, by its first call
        assert plan.cache_info().misses == len(keys)
        for alpha, kind, tol in keys[-6:]:
            _, ratios, thresholds, _ = plan(alpha, kind, tol)
            assert len(ratios) == MAX_SERIES_TERMS - 1
            if tol < 1:
                assert len(thresholds) == MAX_SERIES_TERMS - 1
            else:
                assert thresholds is None

    def test_a_warm_summing_call_reads_one_plan(self):
        evaluate_series("Ea", 0.75, 1e-3)
        ends, plan = series_module._ends.cache_info(), series_module._plan.cache_info()
        evaluate_series("Ea", 0.75, 1e-3)
        assert series_module._ends.cache_info().hits == ends.hits + 1
        assert series_module._plan.cache_info().hits == plan.hits + 1
        assert series_module._plan.cache_info().misses == plan.misses

    def test_a_refused_call_builds_no_table(self):
        clear_caches()
        with pytest.raises(SeriesConvergenceError, match="499-term budget"):
            evaluate_series("Ea", 0.3, 20.0)
        assert series_module._plan.cache_info().currsize == 0

    def test_threads_at_a_fresh_alpha_agree_with_serial_calls(self):
        alpha = 0.4142135623
        calls = [(kind, alpha, u) for kind in self.KINDS for u in (0.3, 1.5j, 6 - 2j, 18.0, -25j)]
        serial = [outcome(evaluate_series, *call) for call in calls]
        clear_caches()
        barrier = threading.Barrier(8)
        results = [None] * 8

        def work(n):
            barrier.wait()
            # each thread takes the calls in its own order, so table builds interleave
            order = calls[n:] + calls[:n]
            got = {call: outcome(evaluate_series, *call) for call in order}
            results[n] = [got[call] for call in calls]

        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside a sum or a table build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 8
        assert serial == [outcome(reference_sum, *call) for call in calls]

    def test_ratios_against_independent_gamma(self):
        # mpmath implements gamma independently of libm; the kernel's Gamma
        # values live only in the plans and the refusal's ends
        tol = 1e-12
        c = math.log(tol) + series_module._SKIP_MARGIN
        for alpha in (0.3, 0.5, 0.75, 1.0):
            for kind in self.KINDS:
                _, power, step, _ = series_module._SERIES[kind]
                gamma0, ratios, thresholds, _ = series_module._plan(alpha, kind, tol)
                assert abs(gamma0 - float(mpmath.gamma(1 + power * alpha))) <= 1e-15 * gamma0
                # the lgammas of terms 1 and 499 that decide a refusal are,
                # bit for bit, those the skip's thresholds are built from
                lg_first, lg_last, _ = series_module._ends(alpha, kind)
                assert thresholds[0] == (c + lg_first) / (power + step)
                assert thresholds[-1] == (c + lg_last) / (power + (MAX_SERIES_TERMS - 1) * step)
                for k, threshold in enumerate(thresholds, 1):
                    p = power + k * step
                    ref = float((c + mpmath.loggamma(1 + p * mpmath.mpf(alpha))) / p)
                    assert abs(threshold - ref) <= 1e-14 * max(1.0, abs(ref))
                for i, ratio in enumerate(ratios):
                    p = power + i * step
                    ref = float(mpmath.exp(
                        mpmath.loggamma(1 + p * mpmath.mpf(alpha))
                        - mpmath.loggamma(1 + (p + step) * mpmath.mpf(alpha))
                    ))
                    assert abs(ratio - ref) <= 1e-10 * ref

    def test_import_builds_no_table(self):
        code = (
            "import fracquat, fracquat.cli; s = fracquat.series; "
            "print([f.cache_info().currsize for f in (s._ends, s._plan)])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(series_module.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 0]\n", "")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("Ea", "sina", "cosa")),
    st.floats(0.5, 1.0),
    st.one_of(
        st.floats(-2.0, 2.0).map(complex),
        st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi)),
    ),
    st.sampled_from((1e-12, 1e-9)),
)
def test_small_band_matches_mpmath(kind, alpha, u, tol):
    value, _ = evaluate_series(kind, alpha, u, tol)
    ref = series_reference(kind, alpha, u)
    assert abs(value - ref) <= 10 * tol * max(1.0, abs(ref))


@pytest.mark.parametrize("kind", ("Ea", "sina", "cosa"))
def test_the_mpmath_reference_agrees_with_closed_forms(kind):
    # the series sum at alpha 1/2 against the closed forms there, and at
    # alpha 1 against mpmath's exp, sin and cos, over both bench bands
    classical = {"Ea": mpmath.exp, "sina": mpmath.sin, "cosa": mpmath.cos}[kind]
    for u in (0, 1e-300, 0.7, -1.75, 1.3j, 0.78 + 1.04j, -6, 10j, 6 + 8j, -25):
        with mpmath.workdps(40):
            one = classical(mpmath.mpc(u))
        for alpha, ref in ((0.5, series_reference(kind, 0.5, u)), (1.0, one)):
            assert abs(series_sum(kind, alpha, u) - ref) <= 1e-28 * max(1, abs(ref)), (alpha, u)


class TestMlExp:
    def test_zero_argument(self):
        for alpha in (0.2, 0.5, 1.0):
            assert ml_exp(alpha, 0) == 1

    def test_unknown_series_kind(self):
        with pytest.raises(ValueError, match="unknown series kind 'foo'"):
            series_module.evaluate_series("foo", 0.5, 1)

    def test_classical_exponential(self):
        assert abs(ml_exp(1.0, 1.0) - math.e) <= 1e-12
        for u in (-3.0, -1.0, 0.5, 2.0, 5.0):
            assert abs(ml_exp(1.0, u) - math.exp(u)) <= 1e-12

    def test_half_order_against_brute_force(self):
        value = ml_exp(0.5, 1.0, 1e-9)
        assert abs(value - brute_ml(0.5, 1.0)) <= 1e-9

    def test_half_order_closed_form(self):
        # E_(1/2)(1) = e * erfc(-1)
        assert abs(ml_exp(0.5, 1.0, 1e-9) - math.e * math.erfc(-1)) <= 1e-9
        assert abs(ml_exp(0.5, 1.0, 1e-9) - 5.008980) <= 1e-6

    def test_complex_argument(self):
        u = 0.3 + 0.4j
        assert abs(ml_exp(0.5, u, 1e-10) - brute_ml(0.5, u)) <= 1e-10

    def test_non_convergence(self):
        with pytest.raises(SeriesConvergenceError) as err:
            ml_exp(0.5, 1e8, 1e-12)
        assert err.value.last_term_magnitude > 0

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            ml_exp(0.5, 1.0, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, -1e-12])
    @pytest.mark.parametrize("kind", ["Ea", "sina", "cosa"])
    def test_tol_must_be_positive_and_finite(self, kind, tol):
        # an infinite tol used to stop after a few terms: Ea(1/2, 1) gave 3.128
        # for the true 5.009; a nan tol never stopped before term underflow
        with pytest.raises(ValueError, match="tol"):
            evaluate_series(kind, 0.5, 1.0, tol)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_eval_rejects_non_finite_tol(self, tol):
        # a field without series generators rejects it too
        with pytest.raises(ValueError, match="tol"):
            eval_canonical(canon("P(r,1)", CYLINDRICAL), 0.5, {"r": 2.0}, tol=tol)


class TestTrig:
    def test_zero_argument(self):
        assert sin_alpha(0.5, 0) == 0
        assert cos_alpha(0.5, 0) == 1

    def test_classical_values(self):
        assert abs(sin_alpha(1.0, 1.0) - 0.841470984) <= 1e-9
        assert abs(cos_alpha(1.0, 1.0) - 0.540302306) <= 1e-9

    def test_classical_grid(self):
        u = -5.0
        while u <= 5.0:
            assert abs(sin_alpha(1.0, u) - math.sin(u)) <= 1e-12
            assert abs(cos_alpha(1.0, u) - math.cos(u)) <= 1e-12
            u += 0.5

    def test_half_order_against_brute_force(self):
        assert abs(sin_alpha(0.5, 1.0, 1e-10) - brute_sin(0.5, 1.0)) <= 1e-10
        assert abs(cos_alpha(0.5, 1.0, 1e-10) - brute_cos(0.5, 1.0)) <= 1e-10


class TestJSeries:
    """The coefficient tuples of the oracle series: the shift maps each to the next."""

    def test_ml_shift_is_identity_one_shorter(self):
        assert ml_exp_coeffs(6)[1:] == ml_exp_coeffs(5) == (1,) * 6

    def test_sin_shift_gives_cos(self):
        assert sin_alpha_coeffs(7)[1:] == cos_alpha_coeffs(6)

    def test_cos_shift_gives_minus_sin(self):
        assert cos_alpha_coeffs(8)[1:] == tuple(-c for c in sin_alpha_coeffs(7))

    def test_numeric_evaluation_matches_ml_exp(self):
        x = 1.3
        assert abs(jseries_sum(0.5, ml_exp_coeffs(60), x) - ml_exp(0.5, x**0.5, 1e-13)) < 1e-10

    def test_numeric_evaluation_matches_sin_alpha(self):
        x = 1.3
        assert abs(jseries_sum(0.5, sin_alpha_coeffs(61), x) - sin_alpha(0.5, x**0.5, 1e-13)) < 1e-10

    def test_numeric_evaluation_matches_cos_alpha(self):
        x = 1.3
        assert abs(jseries_sum(0.5, cos_alpha_coeffs(60), x) - cos_alpha(0.5, x**0.5, 1e-13)) < 1e-10


class TestLimitDefinition:
    STEPS = [10.0**-k for k in range(3, 13)]

    def test_power_alpha_constant_quotient(self):
        estimate, quotients, converged = limit_quotient_at_zero(lambda x: x**0.5, 0.5, self.STEPS)
        assert converged
        g = math.gamma(1.5)
        assert all(abs(q - g) < 1e-12 for q in quotients)
        assert abs(estimate - g) <= 1e-10

    def test_power_two_alpha_goes_to_zero(self):
        estimate, _, converged = limit_quotient_at_zero(lambda x: x**1.0, 0.5, self.STEPS)
        assert converged
        assert abs(estimate) < 1e-4

    def test_ml_exp_composite(self):
        f = lambda x: ml_exp(0.5, x**0.5, 1e-14)
        estimate, _, converged = limit_quotient_at_zero(f, 0.5, self.STEPS)
        assert converged
        assert abs(estimate - 1.0) < 1e-4

    def test_ml_exp_composite_at_other_orders(self):
        for alpha in (0.3, 0.75):
            f = lambda x: ml_exp(alpha, x**alpha, 1e-14)
            estimate, _, converged = limit_quotient_at_zero(f, alpha, self.STEPS)
            assert converged
            assert abs(estimate - 1.0) < 1e-4

    def test_sin_alpha_composite(self):
        # D sin_alpha(x^alpha) = cos_alpha(x^alpha), which is 1 at 0
        f = lambda x: sin_alpha(0.5, x**0.5, 1e-14)
        estimate, _, converged = limit_quotient_at_zero(f, 0.5, self.STEPS)
        assert converged
        assert abs(estimate - 1.0) < 1e-4

    def test_cos_alpha_composite(self):
        # D cos_alpha(x^alpha) = -sin_alpha(x^alpha), which is 0 at 0
        f = lambda x: cos_alpha(0.5, x**0.5, 1e-14)
        estimate, _, converged = limit_quotient_at_zero(f, 0.5, self.STEPS)
        assert converged
        assert abs(estimate) < 1e-4

    def test_divergent_sequence_reported(self):
        _, _, converged = limit_quotient_at_zero(lambda x: x**0.1, 0.5, self.STEPS)
        assert not converged
