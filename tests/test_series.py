"""Numeric oracle tests for the fractal special functions.

Oracles: fixed-order brute-force partial sums computed in this file, a
40-digit mpmath sum of the defining series, the classical libm functions
at alpha=1, mpmath's independent gamma, and the closed form
E_(1/2)(1) = e*erfc(-1).
"""

import cmath
import copy
import math
import os
import pickle
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
    GammaRangeError,
    JSeries,
    SeriesConvergenceError,
    canon,
    cos_alpha,
    cos_alpha_jseries,
    eval_canonical,
    gamma_one_plus,
    limit_definition_derivative_at_zero,
    ml_exp,
    ml_exp_jseries,
    series_shift_derivative,
    sin_alpha,
    sin_alpha_jseries,
)
import fracquat.series as series_module
from fracquat.series import MAX_SERIES_TERMS, evaluate_series


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
            "ml_exp did not converge to tol=1e-12, terms summed: 499 "
            "(last term magnitude 8.009e+157)"
        )
        # recorded from the recurrence kernel
        assert err.value.last_term_magnitude.hex() == "0x1.755406cadf122p+524"

    # (kind, alpha, u): the terms summed before the overflow
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
        # terms past the double range are taken as inf, so the sum cannot
        # settle; for a complex u, a bare recurrence would turn inf * z into nan
        with pytest.raises(SeriesConvergenceError) as err:
            evaluate_series(kind, alpha, u)
        summed = self.OVERFLOWS[kind, alpha, u]
        assert str(err.value).endswith(
            f"did not converge to tol=1e-12, terms summed: {summed} (last term magnitude inf)"
        )
        assert err.value.last_term_magnitude == math.inf

    @pytest.mark.parametrize("u", [math.nan, math.inf, complex(1, math.inf), complex(-math.inf, 0)])
    @pytest.mark.parametrize("function", [ml_exp, sin_alpha, cos_alpha])
    def test_non_finite_argument(self, function, u):
        # these used to run 500 terms and report a convergence failure
        with pytest.raises(ValueError, match="u must be finite"):
            function(0.5, u)


def reference_sum(kind, alpha, u, tol=1e-12):
    """evaluate_series by the per-term recurrence that the ratio tables
    replaced: each term pays its own lgamma and exp."""
    label, power, step, alternating = {
        "Ea": ("ml_exp", 0, 1, False),
        "sina": ("sin_alpha", 1, 2, True),
        "cosa": ("cos_alpha", 0, 2, True),
    }[kind]
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


def outcome(function, *args):
    """What a call gives, bit for bit: (value hex pair, terms) or the error."""
    try:
        value, terms = function(*args)
    except SeriesConvergenceError as exc:
        return "SeriesConvergenceError", str(exc), exc.last_term_magnitude.hex()
    return value.real.hex(), value.imag.hex(), terms


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

    def test_golden_values_are_the_per_term_recurrence(self):
        assert {key: outcome(reference_sum, *key) for key in GOLDEN} == GOLDEN

    def test_call_order_does_not_matter(self):
        # whichever call builds a table, the others read the same one
        calls = [(kind, 0.6180339887, u) for kind in self.KINDS for u in (25 + 3j, 0.7 - 0.2j)]
        runs = []
        for order in (calls, calls[::-1]):
            series_module._table.cache_clear()
            runs.append({call: outcome(evaluate_series, *call) for call in order})
        assert runs[0] == runs[1] == {call: outcome(reference_sum, *call) for call in calls}

    def test_table_count_and_length_are_bounded(self):
        table = series_module._table
        table.cache_clear()
        alphas = [0.3 + n / 1000 for n in range(2 * 64 + 5)]
        for alpha in alphas:
            for kind in self.KINDS:
                outcome(evaluate_series, kind, alpha, 20.0)
                assert table.cache_info().currsize <= 64
        # each (alpha, kind) was built once, whole, by its first call
        assert table.cache_info().misses == 3 * len(alphas)
        assert {len(table(alpha, kind)[1]) for alpha in alphas[-2:] for kind in self.KINDS} == {
            MAX_SERIES_TERMS - 1
        }

    def test_threads_at_a_fresh_alpha_agree_with_serial_calls(self):
        alpha = 0.4142135623
        calls = [(kind, alpha, u) for kind in self.KINDS for u in (0.3, 1.5j, 6 - 2j, 18.0, -25j)]
        serial = [outcome(evaluate_series, *call) for call in calls]
        series_module._table.cache_clear()
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

    def test_import_builds_no_table(self):
        code = "import fracquat, fracquat.cli; print(fracquat.series._table.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(series_module.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def mp_series(kind, alpha, u):
    """mpmath reference: the defining power series at 40 digits, with mpmath's gamma."""
    first, step = {"Ea": (0, 1), "sina": (1, 2), "cosa": (0, 2)}[kind]
    sign = 1 if kind == "Ea" else -1
    with mpmath.workdps(40):
        z, a = mpmath.mpc(u), mpmath.mpf(alpha)
        # |u| <= 2 and alpha >= 1/2: the terms are below 1e-40 from power 150 on
        total = mpmath.fsum(
            sign**k * z ** (first + k * step) / mpmath.gamma(1 + (first + k * step) * a)
            for k in range(150)
        )
        return complex(total)


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
    ref = mp_series(kind, alpha, u)
    assert abs(value - ref) <= 10 * tol * max(1.0, abs(ref))


class TestGamma:
    def test_trivial_values(self):
        assert gamma_one_plus(0.7, 0) == 1.0
        assert gamma_one_plus(0.5, 2) == 1.0
        assert abs(gamma_one_plus(0.5, 1) - 0.886226925452758) < 1e-12

    def test_against_independent_gamma(self):
        # mpmath implements gamma independently of libm
        for alpha in (0.3, 0.5, 0.75, 1.0):
            k = 0
            while k * alpha <= 30:
                ours = gamma_one_plus(alpha, k)
                ref = float(mpmath.gamma(1 + k * alpha))
                assert abs(ours - ref) <= 1e-10 * ref
                k += 1

    def test_range_error(self):
        with pytest.raises(GammaRangeError):
            gamma_one_plus(1.0, 200)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gamma_one_plus(0.5, -1)
        with pytest.raises(ValueError):
            gamma_one_plus(0.0, 1)
        with pytest.raises(ValueError):
            gamma_one_plus(1.5, 1)


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
    def test_ml_shift_is_identity_one_shorter(self):
        s = ml_exp_jseries(0.5, 6)
        out = series_shift_derivative(s)
        assert out.coeffs == (1,) * 6
        assert out.truncation_order == 5

    def test_sin_shift_gives_cos(self):
        s = sin_alpha_jseries(0.5, 7)
        out = series_shift_derivative(s)
        assert out.coeffs == cos_alpha_jseries(0.5, 6).coeffs

    def test_cos_shift_gives_minus_sin(self):
        s = cos_alpha_jseries(0.5, 8)
        out = series_shift_derivative(s)
        minus_sin = tuple(-c for c in sin_alpha_jseries(0.5, 7).coeffs)
        assert out.coeffs == minus_sin

    def test_single_term_shift(self):
        s = JSeries(0.5, (0, 0, 0, 1))  # J_3
        assert series_shift_derivative(s).coeffs == (0, 0, 1)

    def test_repeated_shift_reaches_zero(self):
        s = JSeries(0.7, (2, -1, 3, 0.5, 1j))
        for _ in range(s.truncation_order + 1):
            s = series_shift_derivative(s)
        assert s.is_zero()

    def test_shift_relation_termwise(self):
        # coefficient k of the shift equals coefficient k+1 of the input
        s = JSeries(0.4, (3, 1, 4, 1, 5))
        out = series_shift_derivative(s)
        assert out.coeffs == s.coeffs[1:]

    def test_numeric_evaluation_matches_ml_exp(self):
        s = ml_exp_jseries(0.5, 60)
        x = 1.3
        assert abs(s.evaluate(x) - ml_exp(0.5, x**0.5, 1e-13)) < 1e-10

    def test_evaluation_at_the_edges(self):
        s = JSeries(1.0, (2, 3, 1j, 1))
        assert s.evaluate(0) == 2 + 0j  # only J_0 is nonzero at 0
        for x in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                s.evaluate(x)
        # a term below the double range adds 0, and one above it raises
        assert JSeries(1.0, (0, 0, 1)).evaluate(1e-300) == 0
        for c in (1, 1j):
            with pytest.raises(SeriesConvergenceError, match=r"x = 1e\+300") as err:
                JSeries(1.0, (0, 0, 0, c)).evaluate(1e300)
            assert err.value.last_term_magnitude == math.inf
        # a term is finite up to the double maximum; x^2/2 at 1.9e154 is past it
        assert JSeries(1.0, (0, 1)).evaluate(1e308) == pytest.approx(1e308, rel=1e-13)
        with pytest.raises(SeriesConvergenceError) as err:
            JSeries(1.0, (0, 0, 1)).evaluate(1.9e154)
        assert err.value.last_term_magnitude == math.inf

    def test_needs_at_least_one_coefficient(self):
        with pytest.raises(ValueError):
            JSeries(0.5, ())

    def test_frozen_and_copyable(self):
        s = JSeries(0.5, (1, 2.5, 1j))
        assert s.coeffs == (1 + 0j, 2.5 + 0j, 1j) and s.alpha == 0.5
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert type(copied) is JSeries and copied == s and hash(copied) == hash(s)
        with pytest.raises(AttributeError):
            s.coeffs = (0,)
        with pytest.raises(ValueError):
            JSeries(0.0, (1,))


class TestLimitDefinition:
    STEPS = [10.0**-k for k in range(3, 13)]

    def test_report_fields_by_name(self):
        report = limit_definition_derivative_at_zero(lambda x: x**0.5, 0.5, self.STEPS)
        assert type(report).__name__ == "LimitReport"
        assert (report.estimate, report.quotients, report.converged) == tuple(report)
        assert pickle.loads(pickle.dumps(report)) == report
        with pytest.raises(AttributeError):
            report.converged = False

    def test_power_alpha_constant_quotient(self):
        report = limit_definition_derivative_at_zero(lambda x: x**0.5, 0.5, self.STEPS)
        assert report.converged
        g = math.gamma(1.5)
        assert all(abs(q - g) < 1e-12 for q in report.quotients)
        assert abs(report.estimate - g) <= 1e-10

    def test_power_two_alpha_goes_to_zero(self):
        report = limit_definition_derivative_at_zero(lambda x: x**1.0, 0.5, self.STEPS)
        assert report.converged
        assert abs(report.estimate) < 1e-4

    def test_ml_exp_composite(self):
        f = lambda x: ml_exp(0.5, x**0.5, 1e-14)
        report = limit_definition_derivative_at_zero(f, 0.5, self.STEPS)
        assert report.converged
        assert abs(report.estimate - 1.0) < 1e-4

    def test_divergent_sequence_reported(self):
        report = limit_definition_derivative_at_zero(lambda x: x**0.1, 0.5, self.STEPS)
        assert not report.converged

    def test_step_validation(self):
        with pytest.raises(ValueError):
            limit_definition_derivative_at_zero(lambda x: x, 0.5, [0.1])
        with pytest.raises(ValueError):
            limit_definition_derivative_at_zero(lambda x: x, 0.5, [0.1, 0.2])
        with pytest.raises(ValueError):
            limit_definition_derivative_at_zero(lambda x: x, 0.5, [0.1, -0.2])
