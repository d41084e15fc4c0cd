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

The parser builds the canonical form as it reads.  A term is read into
one record, the exponent of each generator and one coefficient, and its
monomial is formed once, at the end of the term.  Only a factor in
parentheses, a power of a number or of cosa, and a cos power past 1 take
ring products.  A sum adds its terms into one map.  Sums and products
are loops, so only nesting recurses; the input limits below keep both
the work and the recursion bounded, and going past one raises ParseError,
as does a coefficient past the bound that the ring keeps (coefficients.LIMIT).
"""

from __future__ import annotations

import re
from itertools import islice

from .canonical import MONOMIAL_ONE, CanonicalExpr, Monomial, _accumulate, _new, _scale
from .coefficients import DIGITS, LIMIT, _of, _parts
from .expr import _VAR_INDEX, COMPONENT_NAMES, CoefficientLimitError, ParseError, VARIABLES

MAX_TERMS = 1000  # terms in one sum
MAX_FACTORS = 1000  # factors in one product
MAX_DEPTH = 200  # nesting levels, counted across '(', 'Ea(' and 'd('

_SYMBOLS = frozenset("+-*/^(),")
# a token is a number with an optional imaginary suffix, a word, or any
# other character that is not whitespace.  \s, \w and \d match what
# str.isspace, str.isalnum (or "_") and str.isdecimal accept
_TOKEN = re.compile(r"\d+(?:\.\d*)?i?|\w+|\S")
# a record maps generators to exponents; its keys are ("d", (k, midx)),
# ("P", v), ("sina", v), ("cosa", v), ("Ea", v, scale) and ("lam",)
_NOT_UNITS = ("d", "cosa", "lam")  # generators that CanonicalExpr.inverse refuses
_ONE = (1, 0, 1)  # the coefficient (a, b, d) of an atom that is not a number


def _number(tok: str) -> tuple:
    """A number token's value (a + b i)/d as (a, b, d).  int reads each side
    of the point on its own, as Fraction does, and raises ValueError past
    the interpreter's int digit limit."""
    imag = tok[-1] == "i"
    digits, _, decimals = (tok[:-1] if imag else tok).partition(".")
    d = 10 ** len(decimals)
    n = int(digits) * d + int(decimals) if decimals else int(digits)
    return (0, n, d) if imag else (n, 0, d)


def _lex_error(tok: str):
    """What is wrong with a token, or None."""
    if tok[0].isdecimal():
        if tok.rstrip("i")[-1] == ".":
            return "malformed number"
        try:
            _number(tok)
        except ValueError:
            return "number has too many digits"
    elif tok not in _SYMBOLS and not (tok[0].isalpha() or tok[0] == "_"):
        return f"unexpected character {tok[0]!r}"
    return None


def tokenize(text: str) -> list:
    """The tokens of text as strings, then None for the end.  Each distinct
    token is checked once; a text with a bad one is scanned again, so the
    first in reading order is reported.  Tokens carry no position: only
    an error needs one, and _Parser.error finds it again."""
    tokens = _TOKEN.findall(text)
    if any(map(_lex_error, set(tokens))):
        for m in _TOKEN.finditer(text):
            if message := _lex_error(m.group()):
                raise ParseError(message, m.start())
    tokens.append(None)
    return tokens


def _shown(tok) -> str:
    """A token as error messages show it: a number as (Fraction, imaginary)."""
    if tok is None or not tok[0].isdecimal():
        return repr(tok)
    try:
        a, b, d = _parts(_of(*_number(tok)))
    except CoefficientLimitError:  # its value could not be printed
        return repr(tok)
    return f"(Fraction({a + b}, {d}), {tok[-1] == 'i'})"


def _terms(gens: dict, coeff) -> dict:
    """The clean map of the record (gens, coeff): one term, or more where a
    cos power past 1 is rewritten to (1 - sin^2)^j in the ring."""
    if not coeff or not gens:
        return {MONOMIAL_ONE: coeff} if coeff else {}
    dsyms, powers, trig, ea, lam = [], [], {}, [], 0
    for key, p in gens.items():
        tag = key[0]
        if not p:
            continue
        if tag == "P":
            powers.append((key[1], p))
        elif tag == "Ea":
            ea.append((key[1], key[2], p))
        elif tag == "d":
            dsyms += [key[1]] * p
        elif tag == "lam":
            lam = p
        else:
            trig.setdefault(key[1], [0, 0])[tag == "cosa"] = p
    sig = [(v, m, c & 1) for v, (m, c) in trig.items() if m or c & 1] if trig else ()
    # only a group of two or more needs sorting
    out = {_new(Monomial, (
        tuple(sorted(dsyms) if len(dsyms) > 1 else dsyms),
        tuple(sorted(powers) if len(powers) > 1 else powers),
        tuple(sorted(sig) if len(sig) > 1 else sig),
        tuple(sorted(ea) if len(ea) > 1 else ea),
        lam,
    )): coeff}
    for v, (_, c) in trig.items():
        if c > 1:  # cos^2j, which the ring rewrites to (1 - sin^2)^j
            cos = CanonicalExpr.trig(VARIABLES[v], "cos") ** (c & ~1)
            out = (CanonicalExpr._of(out) * cos).terms
    return out


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.variables = tuple(variables)
        self.depth = 0
        self.where = 0  # the token at which parse reports the ring's coefficient bound

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the token with this index (the end has the last);
        the text is scanned only up to that token."""
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return ParseError(message, len(self.text) if m is None else m.start())

    def expect(self, symbol: str):
        tok = self.tokens[self.i]
        if tok != symbol:
            raise self.error(f"expected {symbol!r}, found {_shown(tok)}", self.i)
        self.i += 1

    def descend(self, index: int):
        """Enter the nesting level that the token at index opens; the
        caller leaves it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting is deeper than {MAX_DEPTH} levels", index)

    # -- grammar productions ---------------------------------------------
    # a nesting level costs three frames: parse_sum, parse_term, parse_atom

    def parse_sum(self) -> CanonicalExpr:
        acc = {}
        sign = 1
        if self.tokens[self.i] == "-":
            self.i += 1
            sign = -1
        terms = 1
        while True:
            _accumulate(acc, self.parse_term(sign).items())
            op = self.tokens[self.i]
            if op != "+" and op != "-":
                return CanonicalExpr._of(acc)
            if terms == MAX_TERMS:
                raise self.error(f"a sum has more than {MAX_TERMS} terms", self.i)
            terms += 1
            self.i += 1
            sign = -1 if op == "-" else 1

    def parse_term(self, sign: int) -> dict:
        """The clean map of sign times one product.  Atoms go into the record
        (gens, (a + b i)/d).  A factor in parentheses, a power of a number or
        of cosa, and a division or negative power that the ring refuses are
        formed in the ring, which raises its own errors; the product read so
        far is multiplied by such a factor there, and the record starts afresh.
        self.where follows the factor being read, or a power's '^'; at the
        term's end, where the record meets the ring product, it names the
        record's last number factor."""
        gens, (a, b, d), ring, divide, factors, mark = {}, (sign, 0, 1), None, False, 1, None
        while True:
            at = self.i
            atom = self.parse_atom()
            k, caret, self.where = 1, self.i, at
            if self.tokens[caret] == "^":
                self.i += 1
                k = self.parse_integer()
            if type(atom) is not CanonicalExpr:
                key, n, base = atom
                unit = key[0] not in _NOT_UNITS if key else base[0] or base[1]
                if k != 1 and (not key or key[0] == "cosa") or not unit and (
                    k < 0 or k > MAX_FACTORS or divide and k
                ):
                    atom = CanonicalExpr._of(_terms({key: n} if key else {}, _of(*base)))
            if type(atom) is CanonicalExpr:
                if k > MAX_FACTORS and len(atom.terms) == 1 and next(iter(atom.terms)).dsyms:
                    raise self.error(f"a power of component symbols is past {MAX_FACTORS}", caret)
                if k != 1:
                    self.where = caret
                    atom = atom**k
                    self.where = at
                if divide:
                    atom = atom.inverse()
                product = CanonicalExpr._of(_terms(gens, _of(a, b, d)))
                ring = product * atom if ring is None else ring * product * atom
                gens, (a, b, d), mark = {}, _ONE, None
            else:
                if key:
                    gens[key] = gens.get(key, 0) + (-n * k if divide else n * k)
                if base is not _ONE:  # a number, k == 1
                    x, y, z = base
                    if divide:
                        x, y, z = x * z, -y * z, x * x + y * y
                    a, b, d = a * x - b * y, a * y + b * x, d * z
                    mark = at
                    if not (abs(a) < LIMIT > abs(b) and d < LIMIT):
                        # in lowest terms it may be below the bound
                        a, b, d = _parts(_of(a, b, d))
            op = self.tokens[self.i]
            if op != "*" and op != "/":
                if mark is not None:
                    self.where = mark
                out = _terms(gens, _of(a, b, d))
                return out if ring is None else (ring * CanonicalExpr._of(out)).terms
            if factors == MAX_FACTORS:
                raise self.error(f"a product has more than {MAX_FACTORS} factors", self.i)
            factors += 1
            self.i += 1
            divide = op == "/"

    def parse_integer(self) -> int:
        sign = 1
        if self.tokens[self.i] == "-":
            self.i += 1
            sign = -1
        tok = self.tokens[self.i]
        if tok is None or not tok[0].isdecimal():
            raise self.error(f"expected an integer, found {_shown(tok)}", self.i)
        n, _, d = _number(tok)
        if tok[-1] == "i" or n % d:
            raise self.error("exponent is not an integer", self.i)
        self.i += 1
        return sign * (n // d)

    def parse_variable(self) -> int:
        """A variable of the active frame, as its index in VARIABLES."""
        name = self.tokens[self.i]
        if name is None or not (name[0].isalpha() or name[0] == "_"):
            raise self.error(f"expected 'ident', found {_shown(name)}", self.i)
        if name not in _VAR_INDEX:
            raise self.error(f"unknown variable {name!r}", self.i)
        if name not in self.variables:
            raise self.error(
                f"variable {name!r} is not in the active frame {self.variables}", self.i
            )
        self.i += 1
        return _VAR_INDEX[name]

    def parse_atom(self):
        """The next atom: a parenthesised sum as its CanonicalExpr, anything
        else as (record key or None, exponent, coefficient (a, b, d))."""
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if tok == "(":
            self.descend(i)
            node = self.parse_sum()
            self.depth -= 1
            self.expect(")")
            return node
        if tok is None or tok in _SYMBOLS:
            raise self.error(f"unexpected token {_shown(tok)}", i)
        if tok[0].isdecimal():
            return None, 0, _number(tok)
        if tok == "lam":
            return ("lam",), 1, _ONE
        if tok in COMPONENT_NAMES or tok == "d":
            k, midx = self.parse_component(i)
            return ("d", (k, tuple(sorted(midx)))), 1, _ONE
        if tok == "P":
            self.expect("(")
            var = self.parse_variable()
            self.expect(",")
            n = self.parse_integer()
            self.expect(")")
            return ("P", var), n, _ONE
        if tok == "sina" or tok == "cosa":
            self.expect("(")
            var = self.parse_variable()
            self.expect(")")
            return (tok, var), 1, _ONE
        if tok == "Ea":
            self.expect("(")
            self.descend(i)
            scale = self.parse_sum()
            self.depth -= 1
            self.expect(",")
            var = self.parse_variable()
            self.expect(")")
            scale = _scale(scale)
            return ("Ea", var, scale), 1 if scale else 0, _ONE  # E_alpha(0) = 1
        raise self.error(f"unknown identifier {tok!r}", i)

    def parse_component(self, index: int) -> tuple:
        """The component symbol that the token at index (f0..f3 or d)
        starts, as (k, differentiation variable indices)."""
        if self.tokens[index] != "d":
            return int(self.tokens[index][1]), ()
        self.expect("(")
        inner = self.i
        if self.tokens[inner] not in COMPONENT_NAMES + ("d",):
            raise self.error("d(...) applies only to component symbols f0..f3", inner)
        self.i += 1
        self.descend(index)
        k, midx = self.parse_component(inner)
        self.depth -= 1
        variables = []
        while self.tokens[self.i] == ",":
            self.i += 1
            variables.append(self.parse_variable())
        self.expect(")")
        if not variables:
            raise self.error("d(...) needs at least one differentiation variable", index)
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
    parser = _Parser(text, variables)
    try:
        ce = parser.parse_sum()
    except CoefficientLimitError:  # a sum, product or power in the ring
        message = f"a term's coefficient would pass {DIGITS} digits"
        raise parser.error(message, parser.where) from None
    trailing = parser.tokens[parser.i]
    if trailing is not None:
        raise parser.error(f"unexpected trailing input {_shown(trailing)}", parser.i)
    return ce
