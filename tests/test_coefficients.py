"""Coefficients in their stored form, an int for an integer value and else
a CRat (a + b i)/d, against a (Fraction, Fraction) reference: ring
operations, equality and hashing, order, pickling, rendering, the
coefficient bound at every site that forms one, and the float values
eval_canonical builds from them."""

import copy
import math
import pickle
import sys
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import (
    CYLINDRICAL, canon, d_alpha, eval_canonical, frame_by_name, parse, substitute_lam,
)
from fracquat.canonical import MONOMIAL_ONE, CanonicalExpr, _accumulate, _add_products
from fracquat.coefficients import (
    DIGITS, LIMIT, CRat, _of, _parts, as_crat, quotient, render_crat,
)
from fracquat.expr import CoefficientLimitError
from fracquat.frames import apply_table

from strategies import is_stored

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


def value(c) -> tuple:
    """The value of a stored coefficient as (Fraction, Fraction)."""
    a, b, d = _parts(c)
    return Fraction(a, d), Fraction(b, d)


def assert_is(c, ref):
    """c holds the value ref in its stored form: an int when ref is an
    integer, else a CRat with d > 0, gcd(a, b, d) == 1."""
    assert is_stored(c)
    assert (type(c) is int) == (ref[1] == 0 and ref[0].denominator == 1)
    assert value(c) == ref
    if type(c) is CRat:
        assert (c.re, c.im) == ref


def divide(x, y):
    """x / y of stored coefficients: the CRat operator where one is a CRat,
    coefficients.quotient where both are ints (int / int is a float)."""
    return x / y if CRat in (type(x), type(y)) else quotient(x, y)


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
        assert_is(divide(cx, cy), ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            divide(cx, cy)


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
        assert_is(divide(cx, n), ref_div(x, m))
    if any(x):
        assert_is(divide(n, cx), ref_div(m, x))


def test_fraction_and_foreign_operands():
    x = CRat(Fraction(1, 2), 1)
    assert x + Fraction(1, 3) == CRat(Fraction(5, 6), 1)
    assert x * Fraction(2, 3) == CRat(Fraction(1, 3), Fraction(2, 3))
    assert x / Fraction(1, 2) == CRat(1, 2)
    assert x - Fraction(1, 2) == CRat(0, 1) and Fraction(1, 2) - x == CRat(0, -1)
    assert repr(x) == "CRat(1/2, 1)"
    assert as_crat(0.5, exact=True) is None
    foreign = (lambda: x + 0.5, lambda: x * 0.5, lambda: x / 0.5, lambda: 0.5 / x, lambda: x / 1j)
    for bad in (*foreign, lambda: as_crat("x"), lambda: CRat(None)):
        with pytest.raises(TypeError):
            bad()
    for bad in (lambda: x - 0.5, lambda: 0.5 - x, lambda: x - 1j):  # the message names -
        with pytest.raises(TypeError, match="for -:"):
            bad()
    with pytest.raises(AttributeError):
        x.a = 3


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
    assert hash(quotient(value.numerator, value.denominator)) == hash(value)


def test_hash_edge_denominators():
    for n, d in [(-1, MODULUS + 1), (1, MODULUS + 1), (-7, MODULUS), (5, 2 * MODULUS), (-3, 2)]:
        assert hash(CRat(Fraction(n, d))) == hash(Fraction(n, d))
    assert hash(CRat(Fraction(-1, MODULUS + 1))) == -2


@given(ints, ints)
def test_int_construction_matches_the_fraction_path(a, b):
    # CRat(int, int) takes a fast path that builds no Fraction
    fast, slow = CRat(a, b), CRat(Fraction(a), Fraction(b))
    assert _parts(fast) == _parts(slow) == (a, b, 1)
    assert type(fast) is type(slow) is (CRat if b else int)
    assert type(CRat(True)) is int and CRat(True) == 1


def test_integers_compare_and_hash_like_ints():
    for c in (CRat(2), CRat(Fraction(6, 3)), CRat(0, 0), as_crat(Fraction(-4, 2)), CRat(True)):
        assert type(c) is int
    assert CRat(2) == 2 and hash(CRat(2)) == hash(2)
    assert CRat(0) == 0 and not CRat(0) and CRat(0, 0) == 0
    assert CRat(2, 1) != 2 and CRat(Fraction(1, 2)) != 0
    assert {CRat(3): "x"}[3] == "x"
    # a CRat is never integer-valued, so it equals no int
    assert CRat(Fraction(1, 2)) * 2 == 1 and type(CRat(0, 1) * CRat(0, 1)) is int
    assert type(quotient(1, CRat(Fraction(1, 3)))) is int and quotient(1, CRat(Fraction(-1, 3))) == -3


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs, min_size=2, max_size=8))
def test_sort_key_gives_the_reference_order(xs):
    # ints and CRats mixed: `int < CRat` reaches CRat.__gt__
    crats = [CRat(*x) for x in xs]
    assert [value(c) for c in sorted(crats)] == sorted(xs)
    assert [value(c) for c in sorted(crats, reverse=True)] == sorted(xs, reverse=True)


def test_order_takes_the_rationals_the_ring_takes():
    half, third = CRat(Fraction(1, 2)), Fraction(1, 3)
    assert half > third and not half < third and third < half and not third > half
    # the (re, im) order: a CRat with the same real part and a positive imaginary one is larger
    assert CRat(Fraction(1, 2), 1) > Fraction(1, 2) and Fraction(1, 2) < CRat(Fraction(1, 2), 1)
    for compare in (lambda: half < 0.5, lambda: half > 0.5, lambda: 0.5 < half):
        with pytest.raises(TypeError):
            compare()


def test_le_and_ge_take_what_lt_and_gt_take():
    half = CRat(Fraction(1, 2))
    assert half <= 1 and half >= Fraction(1, 3) and half <= Fraction(1, 2) and half >= Fraction(1, 2)
    assert not half <= Fraction(1, 3) and not half >= 1 and 1 >= half and Fraction(1, 3) <= half
    assert CRat(Fraction(1, 2), 1) >= Fraction(1, 2) and not CRat(Fraction(1, 2), -1) >= Fraction(1, 2)
    for compare in (lambda: half <= 0.5, lambda: half >= 0.5, lambda: 0.5 <= half):
        with pytest.raises(TypeError):
            compare()


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_le_and_ge_agree_with_lt_gt_and_eq(x, y):
    cx, cy = CRat(*x), CRat(*y)
    for other in (cy, y[0]):  # a stored coefficient, or a Fraction
        assert (cx <= other) == (cx < other or cx == other)
        assert (cx >= other) == (cx > other or cx == other)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_pickle_and_deepcopy_keep_the_value(x):
    cx = CRat(*x)
    for copied in (pickle.loads(pickle.dumps(cx)), copy.deepcopy(cx)):
        assert_is(copied, x)
        assert copied == cx and hash(copied) == hash(cx)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_complex_matches_the_fraction_floats(x):
    got = complex(CRat(*x))
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
    # sums and products through the ring, whose sites bound the int ones
    # that the interpreter forms as well as every CRat; the ring divides by
    # forming an inverse, so a quotient is the coefficients' own
    fx, fy = value(x), value(y)
    cx, cy = CanonicalExpr.const(x), CanonicalExpr.const(y)
    cases = [
        (lambda: (cx + cy).constant_coefficient(), (fx[0] + fy[0], fx[1] + fy[1])),
        (lambda: (cx * cy).constant_coefficient(), ref_mul(fx, fy)),
        (lambda: (cx * n).constant_coefficient(), ref_mul(fx, (n, 0))),
    ]
    if y:
        cases.append((lambda: divide(x, y), ref_div(fx, fy)))
    for form, ref in cases:
        try:
            c = form()
        except CoefficientLimitError as exc:
            assert past_the_bound(*ref)
            assert str(exc) == f"a coefficient passes the int digit limit ({DIGITS} digits)"
        else:
            assert_is(c, ref)
            assert max(map(abs, _parts(c))) < LIMIT


def test_the_bound_is_exact():
    top, C = LIMIT - 1, CanonicalExpr.const
    assert (C(top) * 1).constant_coefficient() == top
    assert (C(-top) / 1).constant_coefficient() == -top
    assert CRat(top, -top) == _of(top, -top, 1)
    assert _parts(quotient(1, top)) == (1, 0, top) and (C(top) / 2 * 2).constant_coefficient() == top
    past = (lambda: C(top) + 1, lambda: CRat(0, -top) - CRat(0, 1), lambda: C(1) / top / 2)
    for form in past:
        with pytest.raises(CoefficientLimitError, match=PAST):
            form()
    for value in (Fraction(1, LIMIT), LIMIT, -LIMIT):
        with pytest.raises(CoefficientLimitError, match=PAST):
            CRat(value)
        with pytest.raises(CoefficientLimitError, match=PAST):
            as_crat(value)
    with pytest.raises(CoefficientLimitError, match=PAST):
        C(LIMIT)


# the sites that form an int coefficient, which the interpreter does not
# bound, store it through _accumulate: each raises as a coefficient it
# stores passes the bound, and HALF, below it, passes it doubled
HALF = LIMIT // 2 + 1
ONE = MONOMIAL_ONE


def cyl(text):
    return canon(text, CYLINDRICAL)


def test_add_products_bounds_its_int_products_and_sums():
    h = CanonicalExpr.const(HALF)
    # one pair product past the bound
    with pytest.raises(CoefficientLimitError, match=PAST):
        (h * cyl("P(r,1)")) * (h * cyl("P(z,1)") + 1)
    # two pair products, each below it, that sum past it on P(r,1)*P(z,1)
    a, b = h * cyl("P(r,1) + P(z,1)"), cyl("P(r,1) + P(z,1)")
    with pytest.raises(CoefficientLimitError, match=PAST):
        a * b
    assert (a * cyl("P(r,1) - P(z,1)")).terms == (h * cyl("P(r,2) - P(z,2)")).terms
    # the constant-factor path: a product, and a sum into a map already holding a term
    with pytest.raises(CoefficientLimitError, match=PAST):
        h * 2
    with pytest.raises(CoefficientLimitError, match=PAST):
        _add_products({ONE: HALF}, {ONE: HALF}, {ONE: 1})
    assert _add_products({ONE: HALF}, {ONE: -HALF}, {ONE: 1}) == {}


def test_accumulate_bounds_its_int_sums():
    with pytest.raises(CoefficientLimitError, match=PAST):
        CanonicalExpr.const(HALF) + HALF
    with pytest.raises(CoefficientLimitError, match=PAST):
        _accumulate({ONE: HALF}, [(ONE, HALF)])
    with pytest.raises(CoefficientLimitError, match=PAST):
        _accumulate({}, [(ONE, LIMIT)])
    assert _accumulate({ONE: HALF}, [(ONE, -HALF)]) == {}


def test_d_alpha_bounds_its_int_factors_products_and_sums():
    # a Leibniz product: 2 * HALF from P(r,2)
    with pytest.raises(CoefficientLimitError, match=PAST):
        d_alpha(HALF * cyl("P(r,2)"), "r")
    # a Leibniz factor: exponent times Ea scale, 2 * HALF under the coefficient 1
    ea = CanonicalExpr.ea_power("r", ((0, HALF),), 2)
    with pytest.raises(CoefficientLimitError, match=PAST):
        d_alpha(ea, "r")
    # under the coefficient 1/2 the stored coefficient, HALF, is below the
    # bound: only what a map stores is bounded, not the factor 2 * HALF
    assert d_alpha(Fraction(1, 2) * ea, "r").terms == {next(iter(ea.terms)): HALF}
    # a sum: f1*f1 gives f1*d(f1,r) twice, HALF each
    with pytest.raises(CoefficientLimitError, match=PAST):
        d_alpha(HALF * cyl("f1*f1"), "r")
    # below the bound each form is an int
    out = d_alpha((HALF // 2) * cyl("f1*f1"), "r")
    assert list(out.terms.values()) == [2 * (HALF // 2)]


def test_apply_table_bounds_the_products_it_forms():
    # the Laplacian's -2*P(r,-2)*d(f2,theta) on f2 = HALF*P(theta,1)
    f2 = HALF * cyl("P(theta,1)")
    with pytest.raises(CoefficientLimitError, match=PAST):
        apply_table(CYLINDRICAL.forms["laplacian"], (0, 0, f2, 0))
    assert apply_table(CYLINDRICAL.forms["laplacian"], (0, 0, f2 / 2, 0))[1] == -HALF * cyl("P(r,-2)")


def test_a_power_of_an_integer_stops_at_the_bound_in_time():
    # unbounded, the squares of 2 would reach 2^(10^8) and beyond
    start = time.perf_counter()
    with pytest.raises(CoefficientLimitError, match=PAST):
        CanonicalExpr.const(2) ** 10**8
    assert time.perf_counter() - start < 1


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
    if lam is not None:
        ce = substitute_lam(ce, as_crat(lam))
    value = eval_canonical(ce, alpha, point, bindings={"f1": 0.25 + 1j})
    assert (value.real.hex(), value.imag.hex()) == expected
