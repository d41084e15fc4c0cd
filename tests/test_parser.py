import sys

import pytest

import fracquat
from fracquat import CYLINDRICAL, CanonicalExpr, NonInvertibleDivisionError, ParseError, parse
from fracquat.coefficients import CRat
from fracquat.parser import MAX_DEPTH, MAX_FACTORS, MAX_TERMS

C = CanonicalExpr


def test_fractal_monomial():
    assert parse("P(r,-2)", CYLINDRICAL) == C.fractal_power("r", -2)


def test_sum_of_product_and_component():
    ce = parse("sina(theta)*P(r,1) + f1", CYLINDRICAL)
    assert ce == C.trig("theta", "sin") * C.fractal_power("r", 1) + C.component(1)


def test_squared_generators():
    ce = parse("cosa(theta)^2 + sina(theta)^2", CYLINDRICAL)
    assert ce == C.trig("theta", "cos") ** 2 + C.trig("theta", "sin") ** 2 == C.one()


def test_lam_and_numbers():
    assert parse("lam", CYLINDRICAL) == C.lam()
    assert parse("42", CYLINDRICAL) == C.const(CRat(42))
    assert parse("2.5", CYLINDRICAL) == C.const(CRat("5/2"))


def test_imaginary_literals():
    assert parse("2i", CYLINDRICAL) == C.const(CRat(0, 2))
    assert parse("1i", CYLINDRICAL) == C.const(CRat(0, 1))
    # a+bi goes through the ordinary sum grammar
    ce = parse("1+2i", CYLINDRICAL)
    assert ce == C.const(CRat(1)) + C.const(CRat(0, 2)) == C.const(CRat(1, 2))


def test_ea_with_expression_scale():
    ce = parse("Ea(1i*lam, z)", CYLINDRICAL)
    assert ce == C.ea_power("z", ((1, CRat(0, 1)),))


def test_derivative_symbols():
    single = parse("d(f1,r)", CYLINDRICAL)
    assert single == C.component(1, ("r",))
    multi = parse("d(f1,theta,r)", CYLINDRICAL)
    nested = parse("d(d(f1,r),theta)", CYLINDRICAL)
    assert multi == nested == C.component(1, ("r", "theta"))


def test_derivative_errors():
    with pytest.raises(ParseError):
        parse("d(P(r,1),r)", CYLINDRICAL)
    with pytest.raises(ParseError):
        parse("d(f1)", CYLINDRICAL)


def test_empty_input():
    with pytest.raises(ParseError) as err:
        parse("   ", CYLINDRICAL)
    assert "empty" in str(err.value)


def test_lex_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("P(r,1) $", CYLINDRICAL)
    assert err.value.position == 7


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("foo(r)", CYLINDRICAL)
    assert "unknown identifier" in str(err.value)


def test_variable_not_in_frame():
    with pytest.raises(ParseError) as err:
        parse("P(x,1)", CYLINDRICAL)
    assert "not in the active frame" in str(err.value)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse("P(w,1)", CYLINDRICAL)


def test_non_integer_exponent():
    with pytest.raises(ParseError) as err:
        parse("f1^1.5", CYLINDRICAL)
    assert "not an integer" in str(err.value)
    with pytest.raises(ParseError):
        parse("P(r,1.5)", CYLINDRICAL)
    with pytest.raises(ParseError):
        parse("f1^f2", CYLINDRICAL)


def test_negative_exponent():
    assert parse("sina(theta)^-2", CYLINDRICAL) == C.trig("theta", "sin") ** -2


def test_leading_minus():
    ce = parse("-sina(theta) + f1", CYLINDRICAL)
    assert ce == -C.trig("theta", "sin") + C.component(1)


def test_trailing_input():
    with pytest.raises(ParseError):
        parse("f1 f2", CYLINDRICAL)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(f1 + f2", CYLINDRICAL)


def test_malformed_number():
    with pytest.raises(ParseError):
        parse("1.", CYLINDRICAL)


def test_over_long_literal_is_a_parse_error():
    # int() refuses more than sys.get_int_max_str_digits() digits with a bare
    # ValueError; a limit of 0 means none, so the test sets the default then
    old_limit = sys.get_int_max_str_digits()
    n = old_limit or sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(n)
    try:
        assert parse("1" * n) == C.const(CRat(int("1" * n)))
        long = "1" * (n + 1)
        for text, position in ((long, 0), ("P(r," + long + ")", 4), ("1." + long, 0)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.position == position
            assert str(err.value) == f"number has too many digits (at position {position})"
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_default_frame_allows_all_variables():
    parse("P(x,1) + P(psi,2)")


def test_canon_is_parse():
    assert fracquat.canon is parse


def test_non_decimal_digit_is_a_parse_error():
    for text in ("²", "1²", "P(r,²)"):
        with pytest.raises(ParseError) as err:
            parse(text, CYLINDRICAL)
        assert "unexpected character '²'" in str(err.value)


def test_errors_come_in_reading_order():
    # the division fails before the stray ")" is read
    with pytest.raises(NonInvertibleDivisionError):
        parse("1/(f1+f2))", CYLINDRICAL)
    with pytest.raises(ParseError):
        parse(")1/(f1+f2)", CYLINDRICAL)


def _ea_nest(n):
    """n nested Ea scales, each equal to 1: Ea(Ea(...Ea(0, z)... - 1, z) - 1, z)."""
    text = "Ea(0, z)"
    for _ in range(n - 1):
        text = f"Ea({text} - 1, z)"
    return text


LIMITS = {
    "sum terms": (MAX_TERMS, lambda n: " + ".join(["P(r,1)"] * n)),
    "product factors": (MAX_FACTORS, lambda n: "*".join(["sina(theta)"] * n)),
    "parentheses": (MAX_DEPTH, lambda n: "(" * n + "f1" + ")" * n),
    "Ea scales": (MAX_DEPTH, _ea_nest),
    "d(...)": (MAX_DEPTH, lambda n: "d(" * n + "f1" + ",r)" * n),
    "mixed nesting": (MAX_DEPTH, lambda n: "(" * (n // 2) + _ea_nest(n - n // 2) + ")" * (n // 2)),
}


@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_limit_is_exact(limit):
    n, make = LIMITS[limit]
    parse(make(n), CYLINDRICAL)
    with pytest.raises(ParseError):
        parse(make(n + 1), CYLINDRICAL)


def _at_stack_depth(frames, fn):
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


@pytest.mark.parametrize(
    "text",
    [
        " + ".join(["f1"] * 3000),
        "*".join(["f1"] * 3000),
        "(" * 1200 + "f1" + ")" * 1200,
        "d(" * 1000 + "f1" + ",r)" * 1000,
        _ea_nest(1000),
    ],
    ids=["3000 terms", "3000 factors", "1200 parentheses", "1000 d(...)", "1000 Ea scales"],
)
def test_oversized_input_is_a_parse_error_at_any_stack_depth(text):
    for frames in (0, 100):
        with pytest.raises(ParseError):
            _at_stack_depth(frames, lambda: parse(text, CYLINDRICAL))


def test_deepest_accepted_nesting_fits_the_stack():
    for make in (LIMITS["mixed nesting"][1], LIMITS["Ea scales"][1]):
        _at_stack_depth(100, lambda: parse(make(MAX_DEPTH), CYLINDRICAL))
