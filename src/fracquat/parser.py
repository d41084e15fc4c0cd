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
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import CRat
from .expr import (
    COMPONENT_NAMES,
    Add,
    CompSym,
    Div,
    EaGen,
    Expr,
    FracPow,
    LamSym,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    TrigGen,
    VARIABLES,
)

_SYMBOLS = "+-*/^(),"


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
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("malformed number", start)
                while i < n and text[i].isdigit():
                    i += 1
            imag = i < n and text[i] == "i"
            if imag:
                i += 1
            digits = text[start : i - 1] if imag else text[start:i]
            tokens.append(_Token("num", (Fraction(digits), imag), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = tuple(variables)

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

    # -- grammar productions ---------------------------------------------

    def parse_expr(self) -> Expr:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        node = self.parse_term()
        if negate:
            node = Neg(node)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(node, self.parse_integer())
        return node

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

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value, imag = tok.value
            return Num(CRat(0, value) if imag else CRat(value))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            return self.parse_ident_atom()
        raise ParseError(f"unexpected token {tok.value!r}", tok.pos)

    def parse_ident_atom(self) -> Expr:
        tok = self.advance()
        name = tok.value
        if name == "lam":
            return LamSym()
        if name in COMPONENT_NAMES:
            return CompSym(int(name[1]))
        if name == "P":
            self.expect("(")
            var = self.parse_variable()
            self.expect(",")
            n = self.parse_integer()
            self.expect(")")
            return FracPow(var, n)
        if name in ("sina", "cosa"):
            self.expect("(")
            var = self.parse_variable()
            self.expect(")")
            return TrigGen(var, "sin" if name == "sina" else "cos")
        if name == "Ea":
            self.expect("(")
            scale = self.parse_expr()
            self.expect(",")
            var = self.parse_variable()
            self.expect(")")
            return EaGen(scale, var)
        if name == "d":
            return self.parse_derivative(tok.pos)
        raise ParseError(f"unknown identifier {name!r}", tok.pos)

    def parse_derivative(self, pos: int) -> Expr:
        self.expect("(")
        inner = self.peek()
        if inner.kind != "ident" or inner.value not in COMPONENT_NAMES + ("d",):
            raise ParseError("d(...) applies only to component symbols f0..f3", inner.pos)
        target = self.parse_ident_atom()
        if not isinstance(target, CompSym):
            raise ParseError("d(...) applies only to component symbols f0..f3", inner.pos)
        variables = []
        while self.peek().kind == ",":
            self.advance()
            variables.append(self.parse_variable())
        self.expect(")")
        if not variables:
            raise ParseError("d(...) needs at least one differentiation variable", pos)
        return CompSym(target.k, target.midx + tuple(variables))


def parse(text: str, frame=None) -> Expr:
    """Parse DSL text with identifiers resolved against the frame's variables.

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
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.value!r}", trailing.pos)
    return node
