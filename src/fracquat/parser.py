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

The lexer makes one token of each well-formed generator factor, and a
parse call reads each distinct factor text once: a dict that lives as long
as the call keeps its record entry.  A term is read into one record, the
exponent of each generator and one int or CRat coefficient, formed by the
ring's * and quotient, which also takes a constant in parentheses such as
(1 + 2i); its monomial is formed once, at the end of the term.  Only
another factor in parentheses, a power of a number or of cosa, and a cos
power past 1 take ring products.  Sums and products are loops, so only
nesting recurses; the input limits below keep both the work and the
recursion bounded, and going past one raises ParseError, as does a
coefficient, or a literal's own value, past the ring's coefficients.LIMIT.
"""

from __future__ import annotations

import re

from .canonical import MONOMIAL_ONE, CanonicalExpr, Monomial, _accumulate, _new, _scale
from .coefficients import DIGITS, _of, quotient
from .expr import _VAR_INDEX, COMPONENT_NAMES, CoefficientLimitError, ParseError, VARIABLES

MAX_TERMS = 1000  # terms in one sum
MAX_FACTORS = 1000  # factors in one product
MAX_DEPTH = 200  # nesting levels, counted across '(', 'Ea(' and 'd('

_SYMBOLS = frozenset("+-*/^(),")
# a fine token is a number with an optional imaginary suffix, a word, or any
# other character that is not whitespace.  \s, \w and \d match what
# str.isspace, str.isalnum (or "_") and str.isdecimal accept
_FINE = re.compile(r"\d+(?:\.\d*)?i?|\w+|\S")
# a token is a symbol (tried first, the commonest), a generator factor or a fine
# token.  A factor starts and ends where fine tokens do, and holds only fine tokens
# that pass the lexer's checks: known variables, numbers of at most 9 digits, ASCII words
_VAR = "(?:" + "|".join(VARIABLES) + ")"
_TOKEN = re.compile(
    rf"[-+*/^(),]|(?:P\({_VAR},-?\d{{1,9}}|(?:sina|cosa)\({_VAR}|d\(f[0-3](?:,{_VAR})+"
    rf"|Ea\((?:[-+*/^ A-Za-z_]|\d{{1,9}}(?!\d))*,\s*{_VAR})\)|" + _FINE.pattern
)
# a record maps generators to exponents; its keys are ("d", (k, midx)),
# ("P", v), ("sina", v), ("cosa", v), ("Ea", v, scale) and ("lam",)
_NOT_UNITS = ("d", "cosa", "lam")  # generators that CanonicalExpr.inverse refuses


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


def _shown(tok) -> str:
    """A token as messages show it: its first fine token as written (a factor's head), or None."""
    return repr(tok and _FINE.match(tok).group())


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
        """Tokens are strings, then None for the end.  Each distinct token is
        checked once; a text with a bad one is scanned again for the first."""
        self.text, self.tokens = text, _TOKEN.findall(text)
        if any(map(_lex_error, set(self.tokens))):
            for m in _TOKEN.finditer(text):
                if message := _lex_error(m.group()):
                    raise ParseError(message, m.start())
        self.tokens.append(None)
        self.variables = tuple(variables)
        self.i = self.depth = 0
        self.where = 0  # the token at which parse reports the ring's coefficient bound
        self.memo = {}  # token -> record entry, for the factors this call has read

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the token with this index (the end has the last);
        each token is the next text that is not whitespace."""
        pos = 0
        for tok in self.tokens[:index]:
            pos = self.text.index(tok, pos) + len(tok)
        tok = self.tokens[index]
        return ParseError(message, len(self.text) if tok is None else self.text.index(tok, pos))

    def expect(self, symbol: str):
        tok = self.tokens[self.i]
        if tok != symbol:
            raise self.error(f"expected {symbol!r}, found {_shown(tok)}", self.i)
        self.i += 1

    def descend(self, index: int):
        """Enter the level that the token at index opens; `depth -= 1` leaves it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting is deeper than {MAX_DEPTH} levels", index)

    # -- grammar productions ---------------------------------------------
    # a nesting level costs three frames: parse_sum, parse_term, parse_atom

    def parse_sum(self) -> CanonicalExpr:
        acc, sign, terms = {}, 1, 1
        if self.tokens[self.i] == "-":
            self.i, sign = self.i + 1, -1
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
        (gens, coeff), coeff bounded at each number.  A sum in parentheses, a
        power of a number or of cosa, and a division or negative power that
        the ring refuses are formed in the ring, which raises its own errors;
        the product read so far is multiplied by such a factor there, and the
        record starts afresh.  self.where follows the factor being read, or a
        power's '^', and at the term's end names the last number factor."""
        gens, coeff, ring, divide, factors, mark = {}, sign, None, False, 1, None
        while True:
            at = self.where = self.i  # a literal past the bound is refused where it is read
            atom = self.parse_atom()
            k, caret, self.where = 1, self.i, at
            if self.tokens[caret] == "^":
                self.i += 1
                k = self.parse_integer()
            if type(atom) is not CanonicalExpr:
                key, n, base = atom
                if k != 1 and (not key or key[0] == "cosa") or (
                    k < 0 or k > MAX_FACTORS or divide and k
                ) and not (key[0] not in _NOT_UNITS if key else base):  # not a unit
                    atom = CanonicalExpr._of(_terms({key: n} if key else {}, base))
            if type(atom) is CanonicalExpr:
                if k > MAX_FACTORS and len(atom.terms) == 1 and next(iter(atom.terms)).dsyms:
                    raise self.error(f"a power of component symbols is past {MAX_FACTORS}", caret)
                if k != 1:
                    self.where = caret
                    atom = atom**k
                    self.where = at
                if divide:
                    atom = atom.inverse()
                product = CanonicalExpr._of(_terms(gens, coeff))
                ring = product * atom if ring is None else ring * product * atom
                gens, coeff, mark = {}, 1, None
            elif key:
                gens[key] = gens.get(key, 0) + (-n * k if divide else n * k)
            else:  # a number, k == 1; _of bounds an int product, as it does every CRat
                coeff = quotient(coeff, base) if divide else coeff * base
                if type(coeff) is int:
                    coeff = _of(coeff, 0, 1)
                mark = at
            op = self.tokens[self.i]
            if op != "*" and op != "/":
                if mark is not None:
                    self.where = mark
                out = _terms(gens, coeff)
                return out if ring is None else (ring * CanonicalExpr._of(out)).terms
            if factors == MAX_FACTORS:
                raise self.error(f"a product has more than {MAX_FACTORS} factors", self.i)
            factors += 1
            self.i += 1
            divide = op == "/"

    def parse_integer(self) -> int:
        sign = 1
        if self.tokens[self.i] == "-":
            self.i, sign = self.i + 1, -1
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
            raise self.error(f"unknown variable {_shown(name)}", self.i)
        if name not in self.variables:
            raise self.error(
                f"variable {name!r} is not in the active frame {self.variables}", self.i
            )
        self.i += 1
        return _VAR_INDEX[name]

    def parse_atom(self):
        """The next atom: a sum in parentheses that is not a constant as its
        CanonicalExpr, anything else as (record key or None, exponent,
        stored coefficient), taken from the memo below the deepest level."""
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if tok in self.memo and self.depth < MAX_DEPTH:
            return self.memo[tok]
        if tok == "(":
            self.descend(i)
            node = self.parse_sum()
            self.depth -= 1
            self.expect(")")
            if node.terms.keys() <= {MONOMIAL_ONE}:  # a constant joins the record's coefficient
                return None, 0, node.constant_coefficient()
            return node
        if tok is None or tok in _SYMBOLS:
            raise self.error(f"unexpected token {_shown(tok)}", i)
        if tok == "d":  # d(component, variables), the component f0..f3 or a d(...)
            self.expect("(")
            inner = self.tokens[self.i]
            if not inner or _FINE.match(inner).group() not in COMPONENT_NAMES + ("d",):
                raise self.error("d(...) applies only to component symbols f0..f3", self.i)
            self.descend(i)
            (_, (k, midx)), _, _ = self.parse_atom()
            self.depth -= 1
            variables = list(midx)
            while self.tokens[self.i] == ",":
                self.i += 1
                variables.append(self.parse_variable())
            self.expect(")")
            if len(variables) == len(midx):
                raise self.error("d(...) needs at least one differentiation variable", i)
            return ("d", (k, tuple(sorted(variables)))), 1, 1
        if tok == "P" or tok == "sina" or tok == "cosa" or tok == "Ea":
            self.expect("(")
            if tok == "Ea":
                self.descend(i)
                scale = self.parse_sum()
                self.depth -= 1
                self.expect(",")
            key, n = (tok, self.parse_variable()), 1
            if tok == "P":
                self.expect(",")
                n = self.parse_integer()
            self.expect(")")
            if tok == "Ea":
                scale = _scale(scale)
                key, n = ("Ea", key[1], scale), 1 if scale else 0  # E_alpha(0) = 1
            return key, n, 1
        if tok[-1] == ")":
            entry = self.read_factor(tok, i)
        elif tok[0].isdecimal():
            entry = None, 0, _of(*_number(tok))
        elif tok == "lam" or tok in COMPONENT_NAMES:
            entry = ("lam",) if tok == "lam" else ("d", (int(tok[1]), ())), 1, 1
        else:
            raise self.error(f"unknown identifier {tok!r}", i)
        self.memo[tok] = entry
        return entry

    def read_factor(self, tok: str, index: int) -> tuple:
        """The record entry of the factor token at index.  P, sina, cosa and
        d(...) of the frame's variables are read off the text; Ea, and any
        factor with an error, by parse_atom once the token is split into its
        fine tokens."""
        head, _, body = tok[:-1].partition("(")
        args = body.split(",")
        names = args[1:] if head == "d" else args[:1]
        if head != "Ea" and self.depth < MAX_DEPTH and all(map(self.variables.__contains__, names)):
            if head == "d":
                return ("d", (int(args[0][1]), tuple(sorted(map(_VAR_INDEX.get, names))))), 1, 1
            return (head, _VAR_INDEX[args[0]]), int(args[1]) if head == "P" else 1, 1
        self.tokens[index : index + 1] = _FINE.findall(tok)
        self.i = index
        return self.parse_atom()


def parse(text: str, frame=None) -> CanonicalExpr:
    """The canonical form of DSL text, with identifiers resolved against the
    variables of frame: anything with a .variables attribute, an iterable of
    variable names, or None to allow every known variable."""
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text, VARIABLES if frame is None else getattr(frame, "variables", frame))
    try:
        ce = parser.parse_sum()
    except CoefficientLimitError:  # a sum, product or power in the ring
        message = f"a term's coefficient would pass {DIGITS} digits"
        raise parser.error(message, parser.where) from None
    trailing = parser.tokens[parser.i]
    if trailing is not None:
        raise parser.error(f"unexpected trailing input {_shown(trailing)}", parser.i)
    return ce
