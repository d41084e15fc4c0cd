"""The series contract, judged against an mpmath oracle: each call of
E_alpha, sin_alpha or cos_alpha either raises SeriesConvergenceError or
returns within 10 * tol * max(1, |ref|) of the true value, the bench's
own bound.  KNOWN_WRONG lists the calls that break it today, and
KNOWN_REFUSED the calls that raise although the true value is a finite
double.  Run with -s to print both lists."""

import functools
import sys
from pathlib import Path

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


def _pinned_calls():
    """The calls whose printed values tests/data/series.txt pins, in tier-1
    and in CI: each line reads kind(alpha=A, u=U) = value (n terms)."""
    lines = (Path(__file__).parent / "data" / "series.txt").read_text().splitlines()
    for line in lines:
        kind, rest = line.split("(alpha=", 1)
        alpha, u = rest.split(") = ", 1)[0].split(", u=")
        yield kind, float(alpha), complex(u.replace("i", "j"))


# every value pinned in tier-1 or CI is judged: 90 GOLDEN rows, 180 grid
# calls and the 4 of series.txt's 13 lines that neither holds
CALLS = {*GOLDEN, *GRID, *_pinned_calls()}

# the calls that return a value outside the bound, by (kind, alpha): 12
# GOLDEN rows (|u| = 6), 40 grid calls and 2 lines of series.txt, 54 in
# all.  The stopping rule bounds the tail only, so large cancelling terms
# leave rounding errors far above tol
KNOWN_WRONG = {
    ("Ea", 0.5): (-4, 4j, 2.4 + 3.2j, -6, 6j, 3.6 + 4.8j),
    ("Ea", 0.75): (6j, -10, 10j, 6 + 8j, -25, 25j, 15 + 20j),
    ("Ea", 1.0): (10j, -25, 25j, 15 + 20j),
    ("sina", 0.5): (4, -4, 2.4 + 3.2j, 6, -6, 3.6 + 4.8j, 10, -10, 6 + 8j),
    ("sina", 0.75): (10, -10, 25, -25, 15 + 20j),
    ("sina", 1.0): (10, -10, 12, 25, -25),
    ("cosa", 0.5): (4, -4, 6, -6, 3.6 + 4.8j, 10, -10, 6 + 8j),
    ("cosa", 0.75): (6, -6, 10, -10, 25, -25, 15 + 20j),
    ("cosa", 1.0): (20 + 5j, 25, -25),
}

# the calls that raise although the true value is a finite double, 16
# grid calls, all at alpha 1/2: each is refused before summing, since no
# term 1..499 in double arithmetic can end the sum within tol
KNOWN_REFUSED = {
    ("Ea", 0.5): (-10, 10, 10j, 6 + 8j, -25, 25, 25j, 15 + 20j),
    ("sina", 0.5): (-25, 25, 25j, 15 + 20j),
    ("cosa", 0.5): (-25, 25, 25j, 15 + 20j),
}


@functools.cache
def _verdict(key):
    """"wrong" when the call returns outside the bound, "right" inside it;
    "refused" when it raises SeriesConvergenceError although the true
    value is a finite double, "raised" when it raises on a value past the
    double range."""
    ref = series_reference(*key)
    try:
        value, _ = evaluate_series(*key)
    except SeriesConvergenceError:
        return "refused" if abs(ref) <= sys.float_info.max else "raised"
    return "wrong" if abs(mpmath.mpc(value) - ref) > 10 * TOL * max(1, abs(ref)) else "right"


def _order(key):
    kind, alpha, u = key
    return KINDS.index(kind), alpha, abs(u), u.real, u.imag


def _check(verdict, lists, size, title):
    """The calls judged `verdict` are exactly the `size` calls of `lists`."""
    known = {(kind, alpha, complex(u)) for (kind, alpha), us in lists.items() for u in us}
    assert len(CALLS) == 274 and len(known) == size and known <= CALLS
    found = {key for key in CALLS if _verdict(key) == verdict}
    print(f"\n{title}, {len(found)} of {len(CALLS)} calls:")
    for kind, alpha, u in sorted(found, key=_order):
        print(f"  {kind}(alpha={alpha}, u={u})")
    assert (sorted(found - known, key=_order), sorted(known - found, key=_order)) == ([], [])


def test_every_call_is_within_tol_raises_or_is_a_known_defect():
    """KNOWN_WRONG is the package's list of known wrong series values.  A
    call outside it that returns a wrong value fails the test, and so does
    a call in it that becomes right or raises: then the list shrinks."""
    _check("wrong", KNOWN_WRONG, 54, "wrong series values")


def test_every_refusal_of_a_finite_value_is_known():
    """KNOWN_REFUSED is the package's list of calls that raise although
    the true value is a finite double.  A call outside it that raises so
    fails the test, and so does a call in it that stops raising."""
    _check("refused", KNOWN_REFUSED, 16, "refused finite series values")
