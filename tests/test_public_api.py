"""The package's public surface: the names `fracquat` exports, and the
README's library example, run as written."""

import contextlib
import io
import re
from pathlib import Path

import fracquat
import fracquat.series

EXPORTS = {
    # records, constants and errors
    "CARTESIAN", "CYLINDRICAL", "SPHERICAL", "FRAMES", "Frame", "QuaternionField",
    "IDENTITY_NAMES", "IdentityReport", "VERIFICATION_MATRIX", "VARIABLES",
    "CRat", "CanonicalExpr", "ComplexQuaternion", "DerivativeMode", "Monomial",
    "CoefficientLimitError", "EvaluationDomainError", "ExpressionError",
    "ModeViolationError", "NonInvertibleDivisionError", "ParseError",
    "SeriesConvergenceError", "SingularDivisionError", "TermBudgetError",
    "UnboundSymbolError",
    # the expression ring
    "canon", "parse", "equal", "eval_canonical", "render_canonical", "substitute_lam",
    # derivatives
    "d_alpha", "d_alpha_gamma", "differentiate", "nth_d_alpha",
    # the series kernel
    "cos_alpha", "ml_exp", "sin_alpha",
    # quaternion algebra
    "cross", "dot", "qmul", "sc", "vec",
    # fields and operators
    "abstract_field", "field", "frame_by_name", "scalar_field", "vector_field", "zero_field",
    "bitsadze", "curl_alpha", "delta0", "div_alpha", "grad_alpha",
    "helmholtz_component_system", "helmholtz_residual", "laplacian", "mt_apply",
    "perturbed_mt", "verify_all", "verify_identity",
}

# the submodules that import fracquat loads: attributes, not exports
SUBMODULES = (
    "canonical", "coefficients", "derivative", "expr", "frames", "parser",
    "quaternion", "quatops", "series",
)

# the J-basis series, limit-quotient and Gamma helpers, now test oracles (oracles.py)
REMOVED = (
    "JSeries", "_power_term", "series_shift_derivative", "ml_exp_jseries",
    "sin_alpha_jseries", "cos_alpha_jseries", "LimitReport",
    "limit_definition_derivative_at_zero", "gamma_one_plus", "GammaRangeError",
)


def test_exports_are_the_listed_set():
    assert set(fracquat.__all__) == EXPORTS


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from fracquat import *", namespace)
    assert [name for name in SUBMODULES if name in namespace] == []
    # each stays reachable as an attribute and by its dotted name
    assert all(hasattr(fracquat, name) for name in SUBMODULES)
    assert fracquat.series.ml_exp is fracquat.ml_exp


def test_removed_names_are_gone():
    for module in (fracquat, fracquat.series):
        assert [name for name in REMOVED if hasattr(module, name)] == []


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["P(r,-1)", "cosa(theta)"]
