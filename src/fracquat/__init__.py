"""Exact symbolic engine for local fractional vector calculus on
Cantor-type coordinate systems, over complex quaternions.

The package parses a small expression DSL straight into a unique
canonical form with exact rational coefficients, differentiates
symbolically, and mechanically verifies the operator identities of the
calculus (Laplacian, Bitsadze and Helmholtz factorizations) as exact
canonical-form equalities.  A numeric layer evaluates the fractal
exponential and trigonometric series.
"""

from .coefficients import CRat
from .expr import (
    CoefficientLimitError,
    EvaluationDomainError,
    ExpressionError,
    NonInvertibleDivisionError,
    ParseError,
    SingularDivisionError,
    TermBudgetError,
    UnboundSymbolError,
    VARIABLES,
)
from .parser import parse
from .canonical import (
    CanonicalExpr,
    Monomial,
    equal,
    eval_canonical,
    render_canonical,
    substitute_lam,
)
from .derivative import (
    DerivativeMode,
    ModeViolationError,
    d_alpha,
    d_alpha_gamma,
    differentiate,
    nth_d_alpha,
)
from .series import (
    GammaRangeError,
    JSeries,
    LimitReport,
    SeriesConvergenceError,
    cos_alpha,
    cos_alpha_jseries,
    gamma_one_plus,
    limit_definition_derivative_at_zero,
    ml_exp,
    ml_exp_jseries,
    series_shift_derivative,
    sin_alpha,
    sin_alpha_jseries,
)
from .quaternion import ComplexQuaternion, cross, dot, qmul, sc, vec
from .frames import (
    CARTESIAN,
    CYLINDRICAL,
    FRAMES,
    Frame,
    QuaternionField,
    SPHERICAL,
    abstract_field,
    field,
    frame_by_name,
    scalar_field,
    vector_field,
    zero_field,
)
from .quatops import (
    IDENTITY_NAMES,
    IdentityReport,
    VERIFICATION_MATRIX,
    bitsadze,
    curl_alpha,
    delta0,
    div_alpha,
    grad_alpha,
    helmholtz_component_system,
    helmholtz_residual,
    laplacian,
    mt_apply,
    perturbed_mt,
    verify_all,
    verify_identity,
)

canon = parse  # the canonical form of DSL text: the same function as parse

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
