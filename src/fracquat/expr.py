"""Names and errors shared by the expression layers.

The DSL's generators mirror what the coordinate formulas need: fractal
monomials P(var, n) = var^(n*alpha), the fractal trig pair sina/cosa of
var^alpha, the scaled exponential Ea(c, var) = E_alpha(c * var^alpha), the
formal parameter lam, and the abstract field components f0..f3
(optionally carrying a partial-derivative multi-index via d(...)).
"""

from __future__ import annotations

VARIABLES = ("x", "y", "z", "r", "theta", "psi")
_VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}
COMPONENT_NAMES = ("f0", "f1", "f2", "f3")


class ExpressionError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularDivisionError(ExpressionError):
    """Division by an expression whose canonical form is zero."""


class NonInvertibleDivisionError(ExpressionError):
    """Division by a canonical form that is not a single unit monomial."""


class CoefficientLimitError(ExpressionError):
    """A coefficient part would reach 10^digits, past what str() of an int prints."""


class TermBudgetError(ExpressionError):
    """A product of canonical forms would pair up more terms than allowed."""


class UnboundSymbolError(ExpressionError):
    """Numeric evaluation hit a variable or component without a binding."""


class EvaluationDomainError(ExpressionError):
    """Numeric evaluation outside the valid fractal domain (e.g. r <= 0)."""


def var_index(name: str) -> int:
    """The index of a variable in VARIABLES, which is how monomials store it."""
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}") from None
