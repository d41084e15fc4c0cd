"""The series contract, judged against an mpmath oracle: each call of
E_alpha, sin_alpha or cos_alpha either raises SeriesConvergenceError or
returns within 10 * tol * max(1, |ref|) of the true value, the bench's
own bound.  KNOWN_WRONG lists the calls that break it today.  Run with
-s to print the list."""

import mpmath

from fracquat import SeriesConvergenceError
from fracquat.series import evaluate_series

from oracles import series_reference
from test_series import GOLDEN

TOL = 1e-12  # the default, which GOLDEN is recorded at
KINDS, ALPHAS = ("Ea", "sina", "cosa"), (0.5, 0.75, 1.0)
# |u| in the bench's small band (0, 2] and large band (2, 30], each in four
# directions: real, negative, imaginary and along 3+4i
MAGNITUDES = (0.5, 1.25, 4, 10, 25)
GRID = [
    (kind, alpha, u)
    for kind in KINDS
    for alpha in ALPHAS
    for m in MAGNITUDES
    for u in (complex(m), complex(-m), complex(0, m), complex(3 * m / 5, 4 * m / 5))
]

# the calls that return a value outside the bound, by (kind, alpha): 12
# GOLDEN rows (|u| = 6) and 40 grid calls, 52 in all.  The stopping rule
# bounds the tail only, so large cancelling terms leave rounding errors
# far above tol
KNOWN_WRONG = {
    ("Ea", 0.5): (-4, 4j, 2.4 + 3.2j, -6, 6j, 3.6 + 4.8j),
    ("Ea", 0.75): (6j, -10, 10j, 6 + 8j, -25, 25j, 15 + 20j),
    ("Ea", 1.0): (10j, -25, 25j, 15 + 20j),
    ("sina", 0.5): (4, -4, 2.4 + 3.2j, 6, -6, 3.6 + 4.8j, 10, -10, 6 + 8j),
    ("sina", 0.75): (10, -10, 25, -25, 15 + 20j),
    ("sina", 1.0): (10, -10, 25, -25),
    ("cosa", 0.5): (4, -4, 6, -6, 3.6 + 4.8j, 10, -10, 6 + 8j),
    ("cosa", 0.75): (6, -6, 10, -10, 25, -25, 15 + 20j),
    ("cosa", 1.0): (25, -25),
}


def _wrong(key):
    """True when the call returns outside the bound, False when it
    returns inside it or raises SeriesConvergenceError."""
    try:
        value, _ = evaluate_series(*key)
    except SeriesConvergenceError:
        return False
    ref = series_reference(*key)
    return abs(mpmath.mpc(value) - ref) > 10 * TOL * max(1, abs(ref))


def _order(key):
    kind, alpha, u = key
    return KINDS.index(kind), alpha, abs(u), u.real, u.imag


def test_every_call_is_within_tol_raises_or_is_a_known_defect():
    """KNOWN_WRONG is the package's list of known wrong series values.  A
    call outside it that returns a wrong value fails the test, and so does
    a call in it that becomes right or raises: then the list shrinks."""
    known = {(kind, alpha, complex(u)) for (kind, alpha), us in KNOWN_WRONG.items() for u in us}
    calls = {*GOLDEN, *GRID}
    assert len(known) == 52 and known <= calls
    wrong = {key for key in calls if _wrong(key)}
    print(f"\nwrong series values, {len(wrong)} of {len(calls)} calls:")
    for kind, alpha, u in sorted(wrong, key=_order):
        print(f"  {kind}(alpha={alpha}, u={u})")
    assert (sorted(wrong - known, key=_order), sorted(known - wrong, key=_order)) == ([], [])
