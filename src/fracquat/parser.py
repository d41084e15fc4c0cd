"""Lexer and parser for the expression DSL.

Published grammar (superset notes in the README):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := atom ['^' integer]
    atom    := number | 'lam'
             | 'P(' var ',' integer ')'
             | 'sina(' var ')' | 'cosa(' var ')'
             | 'Ea(' expr ',' var ')'
             | 'f0'|'f1'|'f2'|'f3'
             | 'd(' component ',' var {',' var} ')'
             | '(' expr ')'

Numbers are decimal (exact rationals) with an optional 'i' suffix for
imaginary literals, so the complex form a+bi parses through the ordinary
sum grammar.  d(...) attaches partial-derivative indices to component
symbols and exists so rendered canonical forms re-parse.

The parser builds the canonical form as it reads: every production
returns a CanonicalExpr, and a sum adds its terms into one map.  Sums and
products are loops, so only nesting recurses; the input limits below keep
both the work and the recursion bounded, and going past one raises
ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .canonical import CanonicalExpr, _accumulate, _scale
from .coefficients import CRat
from .expr import COMPONENT_NAMES, ParseError, VARIABLES

MAX_TERMS = 1000  # terms in one sum
MAX_FACTORS = 1000  # factors in one product
MAX_DEPTH = 200  # nesting levels, counted across '(', 'Ea(' and 'd('

_SYMBOLS = "+-*/^(),"
# a token is a number with an optional imaginary suffix, a word, or any
# other character that is not whitespace.  \s, \w and \d match what
# str.isspace, str.isalnum (or "_") and str.isdecimal accept
_TOKEN = re.compile(r"(\d+(?:\.\d*)?i?|\w+|\S)")


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind  # "num" | "ident" | one of _SYMBOLS | "end"
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.value!r}, {self.pos})"


def tokenize(text: str) -> list:
    tokens = []
    parts = _TOKEN.split(text)  # whitespace, token, whitespace, ..., whitespace
    pos = len(parts[0])
    for k in range(1, len(parts), 2):
        word = parts[k]
        if word in _SYMBOLS:
            tokens.append(_Token(word, word, pos))
        elif word[0].isalpha() or word[0] == "_":
            tokens.append(_Token("ident", word, pos))
        elif word[0].isdecimal():
            imag = word[-1] == "i"
            digits = word[:-1] if imag else word
            if digits[-1] == ".":
                raise ParseError("malformed number", pos)
            try:
                value = Fraction(digits) if "." in digits else Fraction(int(digits))
            except ValueError:  # past the interpreter's int digit limit
                raise ParseError("number has too many digits", pos) from None
            tokens.append(_Token("num", (value, imag), pos))
        else:
            raise ParseError(f"unexpected character {word[0]!r}", pos)
        pos += len(word) + len(parts[k + 1])
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = tuple(variables)
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.pos)
        return self.advance()

    def descend(self, tok: _Token):
        """Enter the nesting level that tok opens; the caller leaves it
        with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting is deeper than {MAX_DEPTH} levels", tok.pos)

    # -- grammar productions ---------------------------------------------
    # a nesting level costs three frames: parse_sum, parse_term, parse_atom

    def parse_sum(self) -> CanonicalExpr:
        acc = {}
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        terms = 1
        while True:
            items = self.parse_term().terms.items()
            _accumulate(acc, ((m, -p) for m, p in items) if negate else items)
            op = self.peek()
            if op.kind not in ("+", "-"):
                return CanonicalExpr._of(acc)
            if terms == MAX_TERMS:
                raise ParseError(f"a sum has more than {MAX_TERMS} terms", op.pos)
            terms += 1
            negate = self.advance().kind == "-"

    def parse_term(self) -> CanonicalExpr:
        node, op, factors = None, None, 1
        while True:
            factor = self.parse_atom()
            if self.peek().kind == "^":
                self.advance()
                factor = factor ** self.parse_integer()
            if op is None:
                node = factor
            else:
                node = node * factor if op.kind == "*" else node / factor
            op = self.peek()
            if op.kind not in ("*", "/"):
                return node
            if factors == MAX_FACTORS:
                raise ParseError(f"a product has more than {MAX_FACTORS} factors", op.pos)
            factors += 1
            self.advance()

    def parse_integer(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            raise ParseError(f"expected an integer, found {tok.value!r}", tok.pos)
        value, imag = tok.value
        if imag or value.denominator != 1:
            raise ParseError("exponent is not an integer", tok.pos)
        self.advance()
        return sign * value.numerator

    def parse_variable(self) -> str:
        tok = self.expect("ident")
        if tok.value not in VARIABLES:
            raise ParseError(f"unknown variable {tok.value!r}", tok.pos)
        if tok.value not in self.variables:
            raise ParseError(
                f"variable {tok.value!r} is not in the active frame {self.variables}", tok.pos
            )
        return tok.value

    def parse_atom(self) -> CanonicalExpr:
        tok = self.advance()
        if tok.kind == "num":
            value, imag = tok.value
            return CanonicalExpr.const(CRat(0, value) if imag else CRat(value))
        if tok.kind == "(":
            self.descend(tok)
            node = self.parse_sum()
            self.depth -= 1
            self.expect(")")
            return node
        if tok.kind != "ident":
            raise ParseError(f"unexpected token {tok.value!r}", tok.pos)
        name = tok.value
        if name == "lam":
            return CanonicalExpr.lam()
        if name in COMPONENT_NAMES or name == "d":
            return CanonicalExpr.component(*self.parse_component(tok))
        if name == "P":
            self.expect("(")
            var = self.parse_variable()
            self.expect(",")
            n = self.parse_integer()
            self.expect(")")
            return CanonicalExpr.fractal_power(var, n)
        if name in ("sina", "cosa"):
            self.expect("(")
            var = self.parse_variable()
            self.expect(")")
            return CanonicalExpr.trig(var, "sin" if name == "sina" else "cos")
        if name == "Ea":
            self.expect("(")
            self.descend(tok)
            scale = self.parse_sum()
            self.depth -= 1
            self.expect(",")
            var = self.parse_variable()
            self.expect(")")
            return CanonicalExpr.ea_power(var, _scale(scale))
        raise ParseError(f"unknown identifier {name!r}", tok.pos)

    def parse_component(self, tok: _Token) -> tuple:
        """The component symbol that tok (f0..f3 or d) starts, as
        (k, differentiation variables)."""
        if tok.value != "d":
            return int(tok.value[1]), ()
        self.expect("(")
        inner = self.advance()
        if inner.kind != "ident" or inner.value not in COMPONENT_NAMES + ("d",):
            raise ParseError("d(...) applies only to component symbols f0..f3", inner.pos)
        self.descend(tok)
        k, midx = self.parse_component(inner)
        self.depth -= 1
        variables = []
        while self.peek().kind == ",":
            self.advance()
            variables.append(self.parse_variable())
        self.expect(")")
        if not variables:
            raise ParseError("d(...) needs at least one differentiation variable", tok.pos)
        return k, midx + tuple(variables)


def parse(text: str, frame=None) -> CanonicalExpr:
    """The canonical form of DSL text, with identifiers resolved against
    the frame's variables.

    frame may be anything with a .variables attribute, an iterable of
    variable names, or None to allow every known variable.
    """
    if frame is None:
        variables = VARIABLES
    elif hasattr(frame, "variables"):
        variables = frame.variables
    else:
        variables = tuple(frame)
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(tokenize(text), variables)
    ce = parser.parse_sum()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.value!r}", trailing.pos)
    return ce
