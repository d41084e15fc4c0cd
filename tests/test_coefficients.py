"""CRat, the (a + b i)/d coefficient layout, against a (Fraction, Fraction)
reference: ring operations, equality and hashing, order, pickling,
rendering, and the float values eval_canonical builds from it."""

import copy
import math
import pickle
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import canon, eval_canonical, frame_by_name, parse
from fracquat.canonical import CanonicalExpr
from fracquat.coefficients import DIGITS, LIMIT, CRat, _of, render_crat
from fracquat.expr import CoefficientLimitError

BIG = 2**80
parts = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
pairs = st.tuples(parts, parts)
ints = st.integers(-BIG, BIG)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def assert_is(c, ref):
    """c holds the value ref in the stored form: d > 0, gcd(a, b, d) == 1."""
    assert isinstance(c, CRat)
    assert c.d > 0 and math.gcd(c.a, c.b, c.d) == 1
    assert (c.re, c.im) == ref
    assert (Fraction(c.a, c.d), Fraction(c.b, c.d)) == ref


@settings(max_examples=100, deadline=None)
@given(pairs, pairs)
def test_ring_operations_match_the_reference(x, y):
    cx, cy = CRat(*x), CRat(*y)
    assert_is(cx, x)
    assert_is(cx + cy, (x[0] + y[0], x[1] + y[1]))
    assert_is(cx - cy, (x[0] - y[0], x[1] - y[1]))
    assert_is(cx * cy, ref_mul(x, y))
    assert_is(-cx, (-x[0], -x[1]))
    if any(y):
        assert_is(cx / cy, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            cx / cy


@settings(max_examples=100, deadline=None)
@given(pairs, ints)
def test_int_operands_on_both_sides(x, n):
    cx, m = CRat(*x), (n, 0)
    for got, ref in (
        (cx + n, (x[0] + n, x[1])),
        (n + cx, (x[0] + n, x[1])),
        (cx - n, (x[0] - n, x[1])),
        (n - cx, (n - x[0], -x[1])),
        (cx * n, ref_mul(x, m)),
        (n * cx, ref_mul(x, m)),
    ):
        assert_is(got, ref)
    if n:
        assert_is(cx / n, ref_div(x, m))
    if any(x):
        assert_is(n / cx, ref_div(m, x))


@settings(max_examples=100, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash_agree(x, y):
    cx, cy = CRat(*x), CRat(*y)
    assert (cx == cy) == (x == y)
    assert cx == CRat(*x) and hash(cx) == hash(CRat(*x))
    assert bool(cx) == any(x)
    if x[1] == 0:
        # a real value equals, and hashes like, its Fraction (and int)
        assert cx == x[0] and hash(cx) == hash(x[0])
    else:
        assert cx != x[0]


MODULUS = sys.hash_info.modulus


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(2**200), -1) | st.integers(1, 2**200),
    st.integers(2, 2**200) | st.sampled_from([MODULUS, MODULUS + 1, 3 * MODULUS, MODULUS**2 + 1]),
)
def test_non_integer_reals_hash_like_fractions(n, d):
    # the Fraction hash formula, computed without a Fraction: negative
    # numerators, large denominators, and denominators that are a multiple
    # of the hash modulus (no inverse) or 1 above one (a hash of -1 is -2)
    value = Fraction(n, d)
    assert hash(CRat(value)) == hash(value)
    assert hash(CRat(value.numerator) / value.denominator) == hash(value)


def test_hash_edge_denominators():
    for n, d in [(-1, MODULUS + 1), (1, MODULUS + 1), (-7, MODULUS), (5, 2 * MODULUS), (-3, 2)]:
        assert hash(CRat(Fraction(n, d))) == hash(Fraction(n, d))
    assert hash(CRat(Fraction(-1, MODULUS + 1))) == -2


@given(ints, ints)
def test_int_construction_matches_the_fraction_path(a, b):
    # CRat(int, int) takes a fast path that builds no Fraction
    fast, slow = CRat(a, b), CRat(Fraction(a), Fraction(b))
    assert (fast.a, fast.b, fast.d) == (slow.a, slow.b, slow.d) == (a, b, 1)
    assert type(CRat(True).a) is int and CRat(True) == 1


def test_integers_compare_and_hash_like_ints():
    assert CRat(2) == 2 and hash(CRat(2)) == hash(2)
    assert CRat(0) == 0 and not CRat(0) and CRat(0, 0).d == 1
    assert CRat(2, 1) != 2 and CRat(Fraction(1, 2)) != 0
    assert {CRat(3): "x"}[3] == "x"


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs, min_size=2, max_size=8))
def test_sort_key_gives_the_reference_order(xs):
    crats = [CRat(*x) for x in xs]
    assert [(c.re, c.im) for c in sorted(crats)] == sorted(xs)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_pickle_and_deepcopy_keep_the_value(x):
    cx = CRat(*x)
    for copied in (pickle.loads(pickle.dumps(cx)), copy.deepcopy(cx)):
        assert_is(copied, x)
        assert copied == cx and hash(copied) == hash(cx)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_to_complex_matches_the_fraction_floats(x):
    got = CRat(*x).to_complex()
    expected = complex(x[0]) + 1j * complex(x[1])
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


@pytest.mark.parametrize(
    "value, text",
    [
        (CRat(Fraction(1, 2), 1), "(1/2 + 1i)"),
        (CRat(0, Fraction(-3, 4)), "-3/4*1i"),
        (CRat(2, Fraction(-1, 3)), "(2 - 1/3*1i)"),
        (CRat(Fraction(-5, 6), Fraction(2, 3)), "(-5/6 + 2/3*1i)"),
        (CRat(0, -1), "-1i"),
        (CRat(Fraction(7, 4)), "7/4"),
    ],
)
def test_render_reduces_each_part(value, text):
    assert render_crat(value) == text
    assert canon(text) == CanonicalExpr.const(value)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_render_reparses_to_the_same_value(x):
    cx = CRat(*x)
    assert canon(render_crat(cx)) == CanonicalExpr.const(cx)


# -- the coefficient bound --------------------------------------------------------

PAST = rf"^a coefficient passes the int digit limit \({DIGITS} digits\)$"
ROOT = math.isqrt(LIMIT)
# parts near 0, near the square root of the bound (products cross it) and near the bound
near = (
    st.integers(-(2**16), 2**16)
    | st.integers(ROOT - 2**16, ROOT + 2**16)
    | st.integers(LIMIT - 2**16, LIMIT - 1)
    | st.integers(1 - LIMIT, 2**16 - LIMIT)
)
near_crats = st.builds(_of, near, near, near.filter(lambda d: d > 0))


def past_the_bound(re, im):
    """Whether the value re + im i has a part of LIMIT or more in lowest terms."""
    d = math.lcm(re.denominator, im.denominator)
    return max(abs(re * d), abs(im * d), d) >= LIMIT


@settings(max_examples=100, deadline=None)
@given(near_crats, near_crats, near)
def test_every_operation_stays_below_the_bound_or_raises(x, y, n):
    fx, fy = (x.re, x.im), (y.re, y.im)
    cases = [
        (lambda: x + y, (fx[0] + fy[0], fx[1] + fy[1])),
        (lambda: x * y, ref_mul(fx, fy)),
        (lambda: x * n, ref_mul(fx, (n, 0))),
    ]
    if y:
        cases.append((lambda: x / y, ref_div(fx, fy)))
    for form, ref in cases:
        try:
            c = form()
        except CoefficientLimitError as exc:
            assert past_the_bound(*ref)
            assert str(exc) == f"a coefficient passes the int digit limit ({DIGITS} digits)"
        else:
            assert_is(c, ref)
            assert max(abs(c.a), abs(c.b), c.d) < LIMIT


def test_the_bound_is_exact():
    top = LIMIT - 1
    assert (CRat(top) * 1).a == top and (CRat(-top) / 1).a == -top
    assert CRat(top, -top) == _of(top, -top, 1)
    assert (CRat(1) / top).d == top and CRat(top) / 2 * 2 == top
    past = (lambda: CRat(top) + 1, lambda: CRat(0, -top) - CRat(0, 1), lambda: CRat(1) / top / 2)
    for form in past:
        with pytest.raises(CoefficientLimitError, match=PAST):
            form()
    with pytest.raises(CoefficientLimitError, match=PAST):
        CRat(Fraction(1, LIMIT))


def test_canonical_products_and_sums_past_the_bound_raise():
    big = CanonicalExpr.const(CRat(LIMIT - 1))
    r = CanonicalExpr.fractal_power("r", 1)
    for form in (lambda: (big * r) * (big + r), lambda: big * 2, lambda: big + big, lambda: big**2):
        with pytest.raises(CoefficientLimitError, match=PAST):
            form()


def test_a_power_stops_at_its_first_product_past_the_bound(monkeypatch):
    # the first square of 2^14000*P(r,1) + 1 has a part 2^28000, and __pow__
    # forms 512 only by squaring: it raises there, after one product
    base = parse("2^14000*P(r,1) + 1", ("r",))
    calls = []
    mul = CanonicalExpr.__mul__
    monkeypatch.setattr(CanonicalExpr, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    with pytest.raises(CoefficientLimitError, match=PAST):
        base**512
    assert len(calls) == 1


# eval_canonical values, as float.hex pairs, recorded from the recurrence
# kernel of series._sum_series (the second and fourth rows moved in their
# last bits from the log-space kernel before it); to_complex must keep
# reproducing them bit for bit
EVAL_PINS = (
    ("cylindrical", "1/2*P(r,1)*sina(theta) + 3/4*cosa(z) - 2i*f1", 0.5,
     {"r": 1.3, "theta": 0.7, "z": 0.4}, None,
     ("0x1.6c8a8deee320ap+1", "-0x1.0000000000000p-1")),
    ("spherical", "2i*Ea(1/2, r)*sina(psi) - (1 + 2i)*P(theta,-1)", 0.75,
     {"r": 1.1, "theta": 0.9, "psi": 1.7}, None,
     ("-0x1.150cc9d216390p+0", "0x1.b4cf728bd20e8p-2")),
    ("cartesian", "(1 + 2i)*Ea(3/4, x) + 3/4*P(y,2) - 1/2*cosa(z)*Ea(2i, z)", 1.0,
     {"x": 0.6, "y": 1.9, "z": 0.3}, None,
     ("0x1.f0d777e3805eep+1", "0x1.6ef6fde75e1a1p+1")),
    ("cylindrical", "(1/2 + 3/4*1i)*lam*P(r,2) + 2i*lam^2*sina(r) + Ea((1 + 2i)*lam, z)", 0.5,
     {"r": 1.7, "theta": 0.2, "z": 0.8}, 0.5 - 1j,
     ("0x1.2b61f6d0e2755p+8", "-0x1.076d38b8b0967p+0")),
)


@pytest.mark.parametrize("frame, text, alpha, point, lam, expected", EVAL_PINS)
def test_eval_values_are_pinned(frame, text, alpha, point, lam, expected):
    ce = canon(text, frame_by_name(frame))
    value = eval_canonical(ce, alpha, point, bindings={"f1": 0.25 + 1j}, lam=lam)
    assert (value.real.hex(), value.imag.hex()) == expected
