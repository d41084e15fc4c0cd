import math
import os
import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import fracquat
from fracquat import (
    CARTESIAN, CYLINDRICAL, SPHERICAL, CanonicalExpr, NonInvertibleDivisionError, ParseError, parse,
)
from fracquat import canonical, parser
from fracquat.canonical import render_canonical
from fracquat.cli import _OPERATORS
from fracquat.coefficients import CRat
from fracquat.expr import COMPONENT_NAMES, ExpressionError
from fracquat.frames import FRAMES, QuaternionField
from fracquat.parser import MAX_DEPTH, MAX_FACTORS, MAX_TERMS
from fracquat.quatops import FORMAL, bitsadze

from strategies import exprs

C = CanonicalExpr
RENDER = Path(__file__).parent / "data" / "render"


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


# (text, message, position) of malformed inputs, recorded from the parser
# that built every factor as a CanonicalExpr and tokenized into objects
MALFORMED = [
    ("P(r,1) $", "unexpected character '$'", 7),
    ("1.", "malformed number", 0),
    ("2.i", "malformed number", 0),
    ("f1 f2", "unexpected trailing input 'f2'", 3),
    ("(f1 + f2", "expected ')', found None", 8),
    ("foo(r)", "unknown identifier 'foo'", 0),
    ("P(w,1)", "unknown variable 'w'", 2),
    ("P(x,1)", "variable 'x' is not in the active frame ('r', 'theta', 'z')", 2),
    ("P(2,1)", "expected 'ident', found '2'", 2),
    ("P(r,2.5)", "exponent is not an integer", 4),
    ("P(r,1i)", "exponent is not an integer", 4),
    ("P(r,)", "expected an integer, found ')'", 4),
    ("P(r,1", "expected ')', found None", 5),
    ("P r", "expected '(', found 'r'", 2),
    ("f1^1.5", "exponent is not an integer", 3),
    ("f1^f2", "expected an integer, found 'f2'", 3),
    ("f1^", "expected an integer, found None", 3),
    ("f1^2.5i", "exponent is not an integer", 3),
    ("sina(1)", "expected 'ident', found '1'", 5),
    ("cosa(theta", "expected ')', found None", 10),
    ("Ea(1, )", "expected 'ident', found ')'", 6),
    ("Ea(1 z)", "expected ',', found 'z'", 5),
    ("d(f1)", "d(...) needs at least one differentiation variable", 0),
    ("d(P(r,1),r)", "d(...) applies only to component symbols f0..f3", 2),
    ("d(2,r)", "d(...) applies only to component symbols f0..f3", 2),
    ("d(f1,r", "expected ')', found None", 6),
    ("d(f1,w)", "unknown variable 'w'", 5),
    ("*f1", "unexpected token '*'", 0),
    ("f1*", "unexpected token None", 3),
    ("f1 + ", "unexpected token None", 5),
    ("-", "unexpected token None", 1),
    ("--f1", "unexpected token '-'", 1),
    ("f1 ++ f2", "unexpected token '+'", 4),
    (")", "unexpected token ')'", 0),
    ("1)", "unexpected trailing input ')'", 1),
    ("f1 3", "unexpected trailing input '3'", 3),
    ("f1 (2)", "unexpected trailing input '('", 3),
    ("f1 2.5i", "unexpected trailing input '2.5i'", 3),
    ("1²", "unexpected character '²'", 1),
    ("P(r,²)", "unexpected character '²'", 4),
    ("()", "unexpected token ')'", 1),
    ("lam(", "unexpected trailing input '('", 3),
    ("f1,f2", "unexpected trailing input ','", 2),
    ("Ea(1,z)^", "expected an integer, found None", 8),
    ("3^--1", "expected an integer, found '-'", 3),
    ("P(r,-)", "expected an integer, found ')'", 5),
    ("f1^(2)", "expected an integer, found '('", 3),
    ("3.5.5", "unexpected character '.'", 3),
    ("1..2", "malformed number", 0),
    ("_a", "unknown identifier '_a'", 0),
    ("sin(r)", "unknown identifier 'sin'", 0),
    ("f1 $ 1.", "unexpected character '$'", 3),
    ("P(x,1) + 1.", "malformed number", 9),
    # errors inside what the lexer reads as one factor token, or next to one,
    # recorded from the parser that read every factor token by token
    ('Ea(1, w)', "unknown variable 'w'", 6),
    ('sina(x)', "variable 'x' is not in the active frame ('r', 'theta', 'z')", 5),
    ('d(f1,x)', "variable 'x' is not in the active frame ('r', 'theta', 'z')", 5),
    ('d(f4,r)', 'd(...) applies only to component symbols f0..f3', 2),
    ('P(r,-x)', "expected an integer, found 'x'", 5),
    ('cosa(w)', "unknown variable 'w'", 5),
    ('Ea(1., r)', 'malformed number', 3),
    ('Ea(, r)', "unexpected token ','", 3),
    ('Ea(1 + $, r)', "unexpected character '$'", 7),
    ('P(r2,1)', "unknown variable 'r2'", 2),
    ('P(1,1)', "expected 'ident', found '1'", 2),
    ('d(f1,r,w)', "unknown variable 'w'", 7),
    ('Ea(P, r)', "expected '(', found ','", 4),
    ('d(f1,2)', "expected 'ident', found '2'", 5),
    ('P(r,2)P(z,1)', "unexpected trailing input 'P'", 6),
    ('2 sina(r)', "unexpected trailing input 'sina'", 2),
    ('Ea(1, P(r,1))', "unknown variable 'P'", 6),
    ('f1^P(r,1)', "expected an integer, found 'P'", 3),
    ('d(d(f1,w),r)', "unknown variable 'w'", 7),
    ('d(sina(r),r)', 'd(...) applies only to component symbols f0..f3', 2),
    ('P(r,1²)', "unexpected character '²'", 5),
    ('Ea(1, ²)', "unexpected character '²'", 6),
    ('P(r,1)*P(x,1)', "variable 'x' is not in the active frame ('r', 'theta', 'z')", 9),
    ('Ea(1, r) + Ea(1, x)', "variable 'x' is not in the active frame ('r', 'theta', 'z')", 17),
    ('d(f1,r) - d(f1,x)', "variable 'x' is not in the active frame ('r', 'theta', 'z')", 15),
    (
        "sina(r)*cosa(r) + sina(theta)/sina(x)",
        "variable 'x' is not in the active frame ('r', 'theta', 'z')",
        35,
    ),
    ('P(r,1) + P(r,1.5)', 'exponent is not an integer', 13),
    ('P(r,1)*P(r,1 P(z,1)', "expected ')', found 'P'", 13),
]


@pytest.mark.parametrize("text, message, position", MALFORMED)
def test_malformed_input_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text, CYLINDRICAL)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


@pytest.mark.parametrize("text, message, position", MALFORMED)
def test_a_quoted_token_is_the_input_at_its_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text, CYLINDRICAL)
    at, said = err.value.position, str(err.value).rpartition(" (at position")[0]
    for shown in re.findall(r"\b(?:found|input|token|variable) (\S+)", said):
        # None is the end of the input; anything else is the input as written
        written = text[at : at + len(shown) - 2] if text[at:].strip() else None
        assert shown == repr(written), said


# -- the per-frame table of factor texts ------------------------------------------


def test_a_repeated_factor_one_level_too_deep_is_refused_at_its_place():
    # the second Ea(1, r) or d(f1,r) is in the frame's table; inside MAX_DEPTH
    # parentheses it opens one level too many, as its first reading would
    for factor in ("Ea(1, r)", "d(f1,r)"):
        head = f"{factor} + "
        parse(head + "(" * (MAX_DEPTH - 1) + factor + ")" * (MAX_DEPTH - 1), CYLINDRICAL)
        with pytest.raises(ParseError) as err:
            parse(head + "(" * MAX_DEPTH + factor + ")" * MAX_DEPTH, CYLINDRICAL)
        message = f"nesting is deeper than {MAX_DEPTH} levels"
        assert str(err.value) == f"{message} (at position {len(head) + MAX_DEPTH})"


def test_one_frames_table_does_not_serve_another():
    assert parse("P(r,1)", CYLINDRICAL) == C.fractal_power("r", 1)
    with pytest.raises(ParseError) as err:
        parse("P(r,1)", CARTESIAN)
    message = "variable 'r' is not in the active frame ('x', 'y', 'z')"
    assert str(err.value) == f"{message} (at position 2)"


@pytest.mark.parametrize("tail", ["*cosa(r)^4", "*cosa(r)" * 4])
def test_a_coefficient_error_at_a_repeated_factor_names_its_place(tail):
    # the term's last cosa(r) is in the frame's table, and the coefficient
    # passes the limit as the ring rewrites cos^4 there
    text = f"cosa(r) + 2^{_bit_limit()}{tail}"
    with pytest.raises(ParseError) as err:
        parse(text, CYLINDRICAL)
    position = text.rindex("cosa(r)")
    message = f"a term's coefficient would pass {_digit_limit()} digits"
    assert str(err.value) == f"{message} (at position {position})"


@pytest.fixture(scope="module")
def probe():
    """ROADMAP item 14's probe: (text, map) of each component of Bitsadze of
    a spherical field of four 40-term components, 1183 terms in all."""
    sums = [f"(P(r,1)+sina(theta)+Ea(2+lam,psi)+f{k}+cosa(theta)*P(r,-1))^3" for k in range(4)]
    field = QuaternionField(SPHERICAL, *(parse(s, SPHERICAL) for s in sums))
    return [(render_canonical(c), c) for c in bitsadze(field).components]


def test_probe_output_parses_back(probe):
    assert sum(len(c.terms) for _, c in probe) == 1183
    for text, c in probe:
        assert parse(text, SPHERICAL) == c


def test_a_cleared_table_reads_each_distinct_factor_text_once(probe, monkeypatch):
    reads = Counter()

    class Counted(dict):
        """A table that counts its stores: each reading of a token that
        the table does not hold ends in one."""

        def __setitem__(self, tok, entry):
            reads[tok] += 1
            super().__setitem__(tok, entry)

    table = Counted()
    monkeypatch.setattr(parser, "_table", lambda variables: table)
    for text, c in probe:
        table.clear()
        reads.clear()
        assert parse(text, SPHERICAL) == c
        tokens = parser._TOKEN.findall(text)
        factors = [t for t in tokens if t[-1] == ")" and len(t) > 1]
        read = Counter({t: n for t, n in reads.items() if t[-1] == ")"})
        assert read == Counter(set(factors)) and len(factors) > 10 * len(read)
        # the table outlives the call: a second parse reads no token
        reads.clear()
        assert parse(text, SPHERICAL) == c
        assert not reads


def _read(text, frame):
    """The map parse gives, as its items in insertion order, or the error it raises."""
    try:
        return list(parse(text, frame).terms.items())
    except ExpressionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", tuple(FRAMES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_warm_table_reads_as_a_cleared_one(name, data):
    frame = FRAMES[name]
    text = data.draw(exprs(frame.variables))
    table = parser._table(frame.variables)
    table.clear()
    cold = _read(text, frame)
    assert _read(text, frame) == cold
    if type(cold) is list:
        # the rendered text holds Ea scales and constants as render writes them
        rendered = render_canonical(C._of(dict(cold)))
        table.clear()
        again = _read(rendered, frame)
        assert _read(rendered, frame) == again and dict(again) == dict(cold)
    # the same text with a space after each '(' and ',' inside its factor tokens,
    # so that the lexer splits them, such as P( r, 1) and ( 1 + 2i)
    spaced = parser._TOKEN.sub(
        lambda m: m[0].replace("(", "( ").replace(",", ", ") if m[0][-1] == ")" else m[0], text
    )
    table.clear()
    read = _read(spaced, frame)
    assert read == cold or type(cold) is tuple and read[0] is cold[0]


def test_a_table_filled_past_its_size_is_cleared():
    table = parser._table(CYLINDRICAL.variables)
    table.clear()
    sizes = []
    for block in range(3):  # 3 * 1000 terms of 3 distinct factors each pass TABLE_SIZE
        start = block * 1000
        text = " + ".join(f"{k}*P(r,{k})*Ea({k}, z)" for k in range(start, start + 1000))
        parse(text, CYLINDRICAL)
        sizes.append(len(table))
    assert max(sizes) <= canonical.TABLE_SIZE and sizes != sorted(sizes)


def test_threads_sharing_a_table_read_what_one_thread_reads(monkeypatch):
    """More threads than cores parse the goldens of every frame while the
    tables, shrunk to 16 entries, are cleared under them."""
    texts = [
        (frame, line.split(" = ", 1)[1])
        for name, frame in FRAMES.items()
        for op in _OPERATORS
        for line in (RENDER / f"{name}-{op}.txt").read_text().splitlines()
    ]
    serial = [_read(text, frame) for frame, text in texts]
    for frame in FRAMES.values():  # each frame's texts hold more distinct tokens than fit
        assert len({t for f, text in texts if f is frame for t in parser._TOKEN.findall(text)}) > 64
    monkeypatch.setattr(canonical, "TABLE_SIZE", 16)
    parser._table.cache_clear()  # full tables would serve every read and never be cleared
    wrong = []

    def work(seed):
        order = list(range(len(texts))) * 4
        random.Random(seed).shuffle(order)
        try:
            for i in order:
                if _read(texts[i][1], texts[i][0]) != serial[i]:
                    wrong.append(i)
        except Exception as exc:  # a thread's error would otherwise only be printed
            wrong.append(exc)

    count = 2 * (os.cpu_count() or 1) + 1  # more threads than cores
    threads = [threading.Thread(target=work, args=(n,)) for n in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert all(len(parser._table(frame.variables)) <= 16 for frame in FRAMES.values())


@pytest.mark.parametrize(
    "factor, levels, offset", [("Ea((1/6 + 2i), z)", MAX_DEPTH - 1, 3), ("(1 + 2i)", MAX_DEPTH, 0)]
)
def test_a_stored_token_is_refused_where_its_reading_passes_the_depth(factor, levels, offset):
    # Ea((1/6 + 2i), z) opens two levels and (1 + 2i) one; once the table holds
    # the token, it is still refused at its '(' inside `levels` parentheses
    head = f"{factor} + "
    parse(head + "(" * (levels - 1) + factor + ")" * (levels - 1), CYLINDRICAL)
    with pytest.raises(ParseError) as err:
        parse(head + "(" * levels + factor + ")" * levels, CYLINDRICAL)
    message = f"nesting is deeper than {MAX_DEPTH} levels"
    assert str(err.value) == f"{message} (at position {len(head) + levels + offset})"


def test_a_constant_written_as_render_writes_one_is_one_stored_token():
    table = parser._table(CARTESIAN.variables)
    for constant, value in [("(1 + 2i)", 1 + 2j), ("(-1/2 - 3/4*1i)", -0.5 - 0.75j)]:
        assert parser._TOKEN.findall(constant) == [constant]
        table.clear()
        product = parse(f"{constant}*P(x,1)", CARTESIAN)
        assert constant in table
        assert product == C.fractal_power("x", 1) * parse(constant.replace(" ", ""), CARTESIAN)
        assert complex(parse(constant, CARTESIAN).constant_coefficient()) == value
    # written another way, it is read from its fine tokens
    assert parser._TOKEN.findall("(1+2i)") == ["(", "1", "+", "2i", ")"]


def test_a_long_token_is_read_but_not_stored():
    scale = "+".join(["lam"] * 30)  # Ea(lam+lam+...+lam, z), one token past _TABLE_TOKEN
    factor = f"Ea({scale}, z)"
    assert len(parser._TOKEN.findall(factor)) == 1 and len(factor) > parser._TABLE_TOKEN
    table = parser._table(CYLINDRICAL.variables)
    table.clear()
    assert parse(factor, CYLINDRICAL) == parse("Ea(30*lam, z)", CYLINDRICAL)
    assert factor not in table and "Ea(30*lam, z)" in table


def test_every_ea_in_the_cylindrical_goldens_is_one_token():
    # a spec's complex "lambda" puts constants such as (1/6 + 2i) in Ea scales
    for op in _OPERATORS:
        for line in (RENDER / f"cylindrical-{op}.txt").read_text().splitlines():
            rhs = line.split(" = ", 1)[1]
            tokens = parser._TOKEN.findall(rhs)
            assert sum(t.startswith("Ea(") for t in tokens) == rhs.count("Ea(") > 0
            assert render_canonical(parse(rhs, CYLINDRICAL)) == rhs


def test_a_frame_name_reads_as_its_frame():
    # the name is not read as the one-letter variables 's', 'p', 'h', ...
    for text in ("P(r,1)*sina(r)", "P(theta,1)"):
        assert parse(text, "spherical") == parse(text, SPHERICAL)
    with pytest.raises(ParseError) as err:
        parse("P(x,1)", "spherical")
    message = "variable 'x' is not in the active frame ('r', 'theta', 'psi')"
    assert str(err.value) == f"{message} (at position 2)"
    with pytest.raises(ValueError, match="unknown frame 'spherica'"):
        parse("P(r,1)", "spherica")


# -- the term reader against the ring ------------------------------------------

_CYL = ("r", "theta", "z")
_SCALES = {  # Ea scale text -> the scale as (lam power, CRat) pairs
    "1": ((0, CRat(1)),),
    "lam": ((1, CRat(1)),),
    "2 - 1i*lam": ((0, CRat(2)), (1, CRat(0, -1))),
    "lam^2/2": ((2, CRat("1/2")),),
    "0": (),
}
_SUMS = {  # parenthesised text -> the same value from the constructors
    "(P(r,1) + f1)": C.fractal_power("r", 1) + C.component(1),
    "(2*P(r,1))": C.const(CRat(2)) * C.fractal_power("r", 1),
    "(-3*sina(theta))": C.const(CRat(-3)) * C.trig("theta", "sin"),
    "(cosa(r)*f2)": C.trig("r", "cos") * C.component(2),
    "(1 + 2i)": C.const(CRat(1, 2)),
    "(1 - 1)": C.zero(),
    "(lam*P(z,-1))": C.lam() * C.fractal_power("z", -1),
    "(cosa(r) - sina(r))": C.trig("r", "cos") - C.trig("r", "sin"),
}
_var = st.sampled_from(_CYL)
_ring_atoms = st.one_of(
    st.integers(0, 12).map(lambda n: (str(n), C.const(CRat(n)))),
    st.tuples(st.integers(0, 9), st.integers(0, 99)).map(
        lambda p: (f"{p[0]}.{p[1]}", C.const(CRat(Fraction(f"{p[0]}.{p[1]}"))))
    ),
    st.integers(0, 5).map(lambda n: (f"{n}i", C.const(CRat(0, n)))),
    st.just(("lam", C.lam())),
    st.tuples(_var, st.integers(-3, 3)).map(
        lambda p: (f"P({p[0]},{p[1]})", C.fractal_power(*p))
    ),
    st.tuples(st.sampled_from(("sin", "cos")), _var).map(
        lambda p: (f"{p[0]}a({p[1]})", C.trig(p[1], p[0]))
    ),
    st.tuples(st.sampled_from(sorted(_SCALES)), _var).map(
        lambda p: (f"Ea({p[0]}, {p[1]})", C.ea_power(p[1], _SCALES[p[0]]))
    ),
    st.tuples(st.integers(0, 3), st.lists(_var, max_size=2)).map(
        lambda p: (
            f"d(f{p[0]},{','.join(p[1])})" if p[1] else f"f{p[0]}",
            C.component(p[0], p[1]),
        )
    ),
    st.sampled_from(sorted(_SUMS.items())),
)
_factors = st.tuples(_ring_atoms, st.one_of(st.none(), st.integers(-3, 3)))


def _product(draws):
    """(text, value or ExpressionError) of a product of (op, atom, exponent)
    draws, the value formed with the ring's *, / and **; the first op is
    not written."""
    text, value, error = "", None, None
    for i, (op, (atom, ring), k) in enumerate(draws):
        text += (op if i else "") + atom + ("" if k is None else f"^{k}")
        if error is None:
            try:
                factor = ring if k is None else ring**k
                value = factor if value is None else value * factor if op == "*" else value / factor
            except ExpressionError as exc:
                error = exc
    return text, error or value


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("*/"), _factors), min_size=1, max_size=5),
    st.lists(_factors, min_size=1, max_size=4),
    st.booleans(),
)
def test_term_reader_matches_the_ring(first, second, negate):
    """parse of a product of atoms (and of a difference of two such
    products) equals what the ring's constructors and operators form, and
    fails with the ring's error class and message where the ring fails."""
    left_text, left = _product([(op, atom, k) for op, (atom, k) in first])
    right_text, right = _product([("*", atom, k) for atom, k in second])
    text = ("-" if negate else "") + left_text + " - " + right_text
    expected = left if isinstance(left, Exception) else right
    if not isinstance(expected, Exception):
        expected = (-left if negate else left) - right
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            parse(text, CYLINDRICAL)
        assert str(err.value) == str(expected)
    else:
        assert parse(text, CYLINDRICAL) == expected


@pytest.mark.parametrize(
    "text, ring",
    [
        ("0^0", C.one()),
        ("0^0*f1/0^0", C.component(1)),
        ("cosa(r)^3*sina(r)^-2", C.trig("r", "cos") ** 3 / C.trig("r", "sin") ** 2),
        ("cosa(r)*cosa(r)*sina(r)^-1", C.trig("r", "cos") ** 2 / C.trig("r", "sin")),
        ("Ea(lam, z)^2/Ea(lam, z)^3", C.ea_power("z", ((1, CRat(1)),), -1)),
        ("(P(r,1) + 1)*(P(r,1) - 1)/P(r,2)", C.one() - C.fractal_power("r", -2)),
        ("2/(1 + 2i)^2", C.const(CRat(2) / CRat(-3, 4))),
        ("(2*P(r,1))^-2", C.const(CRat("1/4")) * C.fractal_power("r", -2)),
    ],
)
def test_term_reader_cases(text, ring):
    assert parse(text, CYLINDRICAL) == ring


# -- the coefficient a power forms ----------------------------------------------


def _bit_limit():
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return int(digits * math.log2(10))


@pytest.mark.parametrize(
    "text, position",
    [
        ("2^100000000*P(r,1)", 1),
        ("(2*P(r,1))^100000000", 10),
        ("(1/2)^-100000000", 5),
        ("P(r,1)/3^100000000", 8),
        ("(1 + 1i)^100000000", 8),
    ],
)
def test_power_coefficient_past_the_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse(text, CYLINDRICAL)
    assert err.value.position == position
    message = f"a term's coefficient would pass {_digit_limit()} digits"
    assert str(err.value) == f"{message} (at position {position})"


def test_power_coefficient_limit_is_exact_and_renderable():
    limit = _bit_limit()
    assert render_canonical(parse(f"2^{limit}")) == str(2**limit)
    assert parse(f"(1 + 1i)^{2 * limit}") == C.const(CRat(0, 2)) ** limit
    # (1 + 1i)(2i)^limit: each part is 2^limit, so the power is formed, not estimated
    odd = parse(f"(1 + 1i)^{2 * limit + 1}")
    assert odd == C.const(CRat(1, 1)) * C.const(CRat(0, 2)) ** limit
    assert parse(render_canonical(odd)) == odd
    for text in (f"2^{limit + 1}", f"(1 + 1i)^{2 * limit + 2}", f"(1/2)^{limit + 1}"):
        with pytest.raises(ParseError):
            parse(text)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1^100000000", C.one()),
        ("(-1)^100000001", C.const(CRat(-1))),
        ("1i^100000002", C.const(CRat(-1))),
        ("(-1i)^-100000001", C.const(CRat(0, 1))),
        ("1.0^100000000", C.one()),
        ("0^100000000", C.zero()),
        ("P(r,1)^100000000", C.fractal_power("r", 100000000)),
    ],
)
def test_unit_powers_are_not_limited(text, value):
    assert parse(text, CYLINDRICAL) == value


def test_non_invertible_base_fails_before_the_limit():
    with pytest.raises(NonInvertibleDivisionError) as err:
        parse("(2*lam)^-100000000", CYLINDRICAL)
    assert str(err.value) == "cannot divide by lam factors"


# -- the coefficient a product forms ---------------------------------------------


def _digit_limit():
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _term_coefficient_cases():
    power, digits = f"2^{_bit_limit()}", _digit_limit()
    cos4 = "*cosa(r)" * 4
    nines, zeros = "9" * (digits - 1), "0" * (digits - 1)
    return [
        # two powers, each within the power bound: at the second
        (f"{power}*{power}*P(r,1)", len(power) + 1),
        # a power formed in the ring, then a number read into the record
        (f"({power})*2*P(r,1)", len(power) + 3),
        (f"P(r,1)*{power}/(1/2)", len(power) + 8),
        # two literals, and one decimal literal whose numerator is too long
        (f"{'9' * digits}*10", digits + 1),
        (f"P(r,1) + 1.{'0' * (digits - 1)}1", 9),
        # cos^4 is rewritten to (1 - sin^2)^2 at the end of the term, which
        # doubles the coefficient: at the term's last factor
        (f"{power}{cos4}", len(power) + 1 + 3 * len("cosa(r)*")),
        # a constant in parentheses is named at its '(', not inside it
        (f"2*({power})*P(r,1)", 2),
        # an int product is bounded at the number that forms it, not at the term's end
        (f"{nines}*{nines}*2", digits),
        # a product that the ring forms at the term's end names its last number
        (f"{power}*2*P(r,1)", len(power) + 1),
        # a literal whose own value is past the bound is refused where it is
        # read, also after a 0 or a factor that would cancel it
        (f"0*1.{zeros}1", 2),
        (f"10*0.{zeros}1", 3),
    ]


@pytest.mark.parametrize("text, position", _term_coefficient_cases())
def test_term_coefficient_past_the_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse(text, CYLINDRICAL)
    message = f"a term's coefficient would pass {_digit_limit()} digits"
    assert str(err.value) == f"{message} (at position {position})"


@pytest.mark.parametrize("k", [64, 512])
def test_power_of_a_sum_stops_at_the_first_product_past_the_limit(k, monkeypatch):
    # the first square of 2^14000*P(r,1) + 1 passes 10^4300, and the ring
    # refuses it as it forms; the error names the power's '^' 
    products = []  # of two sums: the squares and products the power forms
    mul = CanonicalExpr.__mul__

    def counted(a, b):
        products.append(len(a.terms) > 1 and len(b.terms) > 1)
        return mul(a, b)

    monkeypatch.setattr(CanonicalExpr, "__mul__", counted)
    with pytest.raises(ParseError) as err:
        parse(f"(2^14000*P(r,1) + 1)^{k}", CYLINDRICAL)
    message = f"a term's coefficient would pass {_digit_limit()} digits"
    assert str(err.value) == f"{message} (at position 20)"
    assert sum(products) == 1


def test_power_of_a_sum_within_the_limit_is_its_ring_power():
    r, n = C.fractal_power("r", 1), _bit_limit() // 8
    for text, base, k in [
        ("(P(r,1) + 1)^13", r + 1, 13),
        # its 8th power's top coefficient, 2^(8n), is within the limit
        (f"(2^{n}*P(r,1) - 1)^8", 2**n * r - 1, 8),
        ("(sina(r) + 1i)^0", C.one(), 1),
    ]:
        assert parse(text, CYLINDRICAL) == base**k, text


def test_term_coefficient_within_the_limit_parses_and_renders():
    limit, digits = _bit_limit(), _digit_limit()
    half = limit // 2
    nines = "9" * digits
    for text, value in [
        (nines, CRat(int(nines))),
        (f"2^{half}*2^{limit - half}", CRat(2**limit)),
        (f"2^{limit}/2*2", CRat(2**limit)),
        # the record's 3/3 is 1 when it meets the ring's 2^limit
        (f"2^{limit}*3/3", CRat(2**limit)),
        (f"1.{'0' * (digits - 1)}*1.{'0' * (digits - 1)}", CRat(1)),
        (f"(2^{limit})*P(r,1)", CRat(2**limit)),
    ]:
        ce = parse(text, CYLINDRICAL)
        assert list(ce.terms.values()) == [value], text
        assert parse(render_canonical(ce), CYLINDRICAL) == ce


def test_sum_past_the_limit_and_unprintable_tokens_are_parse_errors():
    nines, digits = "9" * _digit_limit(), _digit_limit()
    with pytest.raises(ParseError) as err:
        parse(f"{nines} + {nines}")
    message = f"a term's coefficient would pass {digits} digits"
    assert str(err.value) == f"{message} (at position {digits + 3})"
    # a number whose value could not be printed is shown as its text
    tiny = "0." + "0" * (digits - 1) + "1"
    with pytest.raises(ParseError) as err:
        parse(f"sina({tiny})")
    assert str(err.value) == f"expected 'ident', found {tiny!r} (at position 5)"


# -- the power of a component symbol ---------------------------------------------


@pytest.mark.parametrize(
    "text, position",
    [
        (f"f1^{MAX_FACTORS + 1}", 2),
        ("d(f1,r)^100000000", 7),
        (f"(2*f1)^{MAX_FACTORS + 1}", 6),
        ("(f1*f2)^100000000", 7),
        ("P(r,1)/f1^100000000", 9),
        ("1 + lam*f3^100000000", 10),
    ],
)
def test_component_power_past_max_factors_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse(text, CYLINDRICAL)
    message = f"a power of component symbols is past {MAX_FACTORS}"
    assert str(err.value) == f"{message} (at position {position})"


def test_component_powers_within_max_factors_are_unchanged():
    (mono,) = parse(f"f1^{MAX_FACTORS}", CYLINDRICAL).terms
    assert mono.dsyms == ((1, ()),) * MAX_FACTORS
    assert parse("(2*f1)^3", CYLINDRICAL) == 8 * C.component(1) ** 3
    # a negative power is still refused by the inverse
    with pytest.raises(NonInvertibleDivisionError):
        parse(f"f1^-{MAX_FACTORS + 1}", CYLINDRICAL)
    # the component bound is checked before any power is formed
    with pytest.raises(ParseError, match="a power of component symbols"):
        parse("(2*f1)^100000000", CYLINDRICAL)


# -- render -> parse round trip of operator output -------------------------------


@pytest.mark.parametrize("frame", sorted(FRAMES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_apply_output_parses_back(frame, data):
    frame = FRAMES[frame]
    texts = [data.draw(exprs(frame.variables, max_leaves=4)) for _ in COMPONENT_NAMES]
    field = QuaternionField(frame, *(parse(t, frame) for t in texts))
    for name, operator in sorted(_OPERATORS.items()):
        for component in operator(field, FORMAL).components:
            if len(component.terms) <= MAX_TERMS:
                assert parse(render_canonical(component), frame) == component, name
