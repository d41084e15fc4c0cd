"""The series contract, judged against an mpmath oracle: each call of
E_alpha, sin_alpha or cos_alpha either raises SeriesConvergenceError or
returns within 10 * tol * max(1, |ref|) of the true value, the bench's
own bound.  Every call is judged at both ends of the range of tol that
matters for the value: the default 1e-12, and the least tol, the
double's epsilon.  KNOWN_WRONG lists the calls that break it today at
1e-12, KNOWN_WRONG_AT_EPS the further calls that break it at epsilon,
and KNOWN_REFUSED the calls that raise at either tol although the true
value is a finite double.  Run with -s to print the lists."""

import functools
import sys
from pathlib import Path

import mpmath

from fracquat import SeriesConvergenceError
from fracquat.series import evaluate_series

from oracles import series_reference
from test_series import GOLDEN

TOL = 1e-12  # the default, which GOLDEN is recorded at
EPS = sys.float_info.epsilon  # the least tol a call accepts
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

# at tol = eps, the 54 calls above and these 37 more, 91 in all: 23 grid
# calls, 13 GOLDEN rows (|u| = 6) and sina(alpha=0.75, u=3+4i) of
# series.txt, all at |u| >= 4
KNOWN_WRONG_AT_EPS = {
    ("Ea", 0.75): (-4, 4j, 2.4 + 3.2j, -6, 3.6 + 4.8j),
    ("Ea", 1.0): (-4, 4j, -6, 6j, 3.6 + 4.8j, -10, 6 + 8j),
    ("sina", 0.75): (-4, 4, 3 + 4j, -6, 3.6 + 4.8j, 6, 6 + 8j, 25j),
    ("sina", 1.0): (-6, 6, 15 + 20j),
    ("cosa", 0.5): (2.4 + 3.2j,),
    ("cosa", 0.75): (-4, 2.4 + 3.2j, 4, 3.6 + 4.8j, 6 + 8j),
    ("cosa", 1.0): (-4, 4, -6, 6, -10, 6 + 8j, 10, 15 + 20j),
}

# the calls that raise although the true value is a finite double, 16
# grid calls, all at alpha 1/2, the same at both tols: each is refused
# before summing, since no term 1..499 in double arithmetic can end the
# sum within tol
KNOWN_REFUSED = {
    ("Ea", 0.5): (-10, 10, 10j, 6 + 8j, -25, 25, 25j, 15 + 20j),
    ("sina", 0.5): (-25, 25, 25j, 15 + 20j),
    ("cosa", 0.5): (-25, 25, 25j, 15 + 20j),
}


_reference = functools.cache(series_reference)


@functools.cache
def _verdict(key, tol):
    """"wrong" when the call returns outside the bound, "right" inside it;
    "refused" when it raises SeriesConvergenceError although the true
    value is a finite double, "raised" when it raises on a value past the
    double range."""
    ref = _reference(*key)
    try:
        value, _ = evaluate_series(*key, tol)
    except SeriesConvergenceError:
        return "refused" if abs(ref) <= sys.float_info.max else "raised"
    return "wrong" if abs(mpmath.mpc(value) - ref) > 10 * tol * max(1, abs(ref)) else "right"


def _order(key):
    kind, alpha, u = key
    return KINDS.index(kind), alpha, abs(u), u.real, u.imag


def _check(verdict, tol, size, title, *lists):
    """The calls judged `verdict` at `tol` are exactly the `size` calls of
    `lists`."""
    known = {
        (kind, alpha, complex(u)) for one in lists for (kind, alpha), us in one.items() for u in us
    }
    assert len(CALLS) == 274 and len(known) == size and known <= CALLS
    found = {key for key in CALLS if _verdict(key, tol) == verdict}
    print(f"\n{title}, {len(found)} of {len(CALLS)} calls:")
    for kind, alpha, u in sorted(found, key=_order):
        print(f"  {kind}(alpha={alpha}, u={u})")
    assert (sorted(found - known, key=_order), sorted(known - found, key=_order)) == ([], [])


def test_every_call_is_within_tol_raises_or_is_a_known_defect():
    """KNOWN_WRONG is the package's list of known wrong series values.  A
    call outside it that returns a wrong value fails the test, and so does
    a call in it that becomes right or raises: then the list shrinks."""
    _check("wrong", TOL, 54, "wrong series values", KNOWN_WRONG)


def test_every_refusal_of_a_finite_value_is_known():
    """KNOWN_REFUSED is the package's list of calls that raise although
    the true value is a finite double.  A call outside it that raises so
    fails the test, and so does a call in it that stops raising."""
    _check("refused", TOL, 16, "refused finite series values", KNOWN_REFUSED)


def test_at_eps_every_call_is_within_tol_raises_or_is_a_known_defect():
    """At the least tol the bound is tighter, and the calls wrong at 1e-12
    are wrong there too, with KNOWN_WRONG_AT_EPS beside them."""
    _check("wrong", EPS, 91, "wrong series values at tol = eps", KNOWN_WRONG, KNOWN_WRONG_AT_EPS)


def test_at_eps_every_refusal_of_a_finite_value_is_known():
    """At the least tol the refused calls are the same 16."""
    _check("refused", EPS, 16, "refused finite series values at tol = eps", KNOWN_REFUSED)
