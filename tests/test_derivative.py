"""Derivation-mode rules, their algebraic laws, and the Gamma-normalized
index-shift mode (plus the documented conflict between the two)."""

import pytest
from hypothesis import given, settings

from fracquat import (
    CYLINDRICAL,
    SPHERICAL,
    ModeViolationError,
    canon,
    d_alpha,
    d_alpha_gamma,
    differentiate,
    equal,
    gamma_one_plus,
    ml_exp_jseries,
    nth_d_alpha,
    render_canonical,
    series_shift_derivative,
    sin_alpha_jseries,
    cos_alpha_jseries,
)
from fracquat.derivative import DerivativeMode, jpoly_coefficients

from strategies import exprs

CYL = CYLINDRICAL


class TestDerivationRules:
    def test_sin_to_cos(self):
        assert d_alpha(canon("sina(theta)", CYL), "theta") == canon("cosa(theta)", CYL)

    def test_cos_to_minus_sin(self):
        assert d_alpha(canon("cosa(theta)", CYL), "theta") == canon("-sina(theta)", CYL)

    def test_reciprocal_power(self):
        assert d_alpha(canon("P(r,-1)", CYL), "r") == canon("-P(r,-2)", CYL)

    def test_product_rule_with_component(self):
        out = d_alpha(canon("P(r,1)*f1", CYL), "r")
        assert out == canon("f1 + P(r,1)*d(f1,r)", CYL)

    def test_constant(self):
        assert d_alpha(canon("5", CYL), "r").is_zero()
        assert d_alpha(canon("lam", CYL), "r").is_zero()

    def test_other_variable_is_constant(self):
        assert d_alpha(canon("sina(theta)", CYL), "r").is_zero()
        assert d_alpha(canon("Ea(2,z)", CYL), "r").is_zero()

    def test_ea_scale_multiplies(self):
        assert d_alpha(canon("Ea(2,z)", CYL), "z") == canon("2*Ea(2,z)", CYL)
        out = d_alpha(canon("Ea(1i*lam, z)", CYL), "z")
        assert out == canon("1i*lam*Ea(1i*lam, z)", CYL)

    def test_component_multi_index_grows(self):
        assert d_alpha(canon("f2", CYL), "theta") == canon("d(f2,theta)", CYL)
        assert d_alpha(canon("d(f2,r)", CYL), "theta") == canon("d(f2,r,theta)", CYL)

    def test_trig_negative_power(self):
        # (sin^-1)' = -sin^-2 cos
        out = d_alpha(canon("sina(theta)^-1", SPHERICAL), "theta")
        assert out == canon("-sina(theta)^-2*cosa(theta)", SPHERICAL)

    def test_zero_leibniz_factor_is_not_stored(self):
        # (sina^m cosa)' = m sina^(m-1) - (m+1) sina^(m+1): at m = -1 the
        # second term has factor zero and must leave no entry in the map
        out = d_alpha(canon("cosa(theta)/sina(theta)", CYL), "theta")
        assert out == canon("-sina(theta)^-2", CYL)
        assert len(out.terms) == 1 and all(out.terms.values())
        text = render_canonical(out)
        assert text == "-sina(theta)^-2"
        assert render_canonical(canon(text, CYL)) == text


class TestNthDerivative:
    def test_double_sin(self):
        assert nth_d_alpha(canon("sina(theta)", CYL), "theta", 2) == canon("-sina(theta)", CYL)

    def test_double_ea(self):
        assert nth_d_alpha(canon("Ea(3,z)", CYL), "z", 2) == canon("9*Ea(3,z)", CYL)
        out = nth_d_alpha(canon("Ea(1i*lam, z)", CYL), "z", 2)
        assert out == canon("-lam^2*Ea(1i*lam, z)", CYL)

    def test_double_power(self):
        assert nth_d_alpha(canon("P(r,2)", CYL), "r", 2) == canon("2", CYL)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            nth_d_alpha(canon("f1", CYL), "r", 0)


@settings(max_examples=50, deadline=None)
@given(exprs(), exprs())
def test_linearity(a, b):
    ca, cb = canon(a, CYL), canon(b, CYL)
    lhs = d_alpha(3 * ca - 2 * cb, "r")
    rhs = 3 * d_alpha(ca, "r") - 2 * d_alpha(cb, "r")
    assert equal(lhs, rhs)


@settings(max_examples=50, deadline=None)
@given(exprs(), exprs())
def test_leibniz(a, b):
    ca, cb = canon(a, CYL), canon(b, CYL)
    lhs = d_alpha(ca * cb, "theta")
    rhs = ca * d_alpha(cb, "theta") + cb * d_alpha(ca, "theta")
    assert equal(lhs, rhs)


@settings(max_examples=50, deadline=None)
@given(exprs())
def test_mixed_partials_commute(a):
    ca = canon(a, CYL)
    assert equal(d_alpha(d_alpha(ca, "r"), "theta"), d_alpha(d_alpha(ca, "theta"), "r"))


@settings(max_examples=30, deadline=None)
@given(exprs())
def test_quotient_rule_consistency(e1):
    """d(e1/e2)*e2^2 = d(e1)*e2 - e1*d(e2) for unit denominators."""
    c1 = canon(e1, CYL)
    for den_text in ("P(r,1)", "sina(theta)", "2*P(r,2)*sina(theta)^2", "Ea(2,z)"):
        c2 = canon(den_text, CYL)
        lhs = d_alpha(c1 / c2, "r") * c2 * c2
        rhs = d_alpha(c1, "r") * c2 - c1 * d_alpha(c2, "r")
        assert equal(lhs, rhs)


class TestGammaMode:
    def test_single_power_shift(self):
        assert d_alpha_gamma(canon("P(x,3)", None), "x") == canon("P(x,2)", None)

    def test_ml_exp_series_invariant(self):
        # truncated E series maps to itself one order shorter
        text = " + ".join(f"P(x,{k})" for k in range(6))
        out = d_alpha_gamma(canon(text, None), "x")
        assert out == canon(" + ".join(f"P(x,{k})" for k in range(5)), None)

    def test_constant_to_zero(self):
        assert d_alpha_gamma(canon("7", None), "x").is_zero()

    def test_sin_series_shift_matches_series_layer(self):
        for order in (5, 8):
            for build in (ml_exp_jseries, sin_alpha_jseries, cos_alpha_jseries):
                s = build(0.5, order)
                text_terms = [
                    f"({c.real:.0f})*P(x,{k})" for k, c in enumerate(s.coeffs) if c
                ]
                ce = canon(" + ".join(text_terms) if text_terms else "0", None)
                shifted = series_shift_derivative(s)
                out = d_alpha_gamma(ce, "x")
                coeffs = jpoly_coefficients(out, "x")
                for k, c in enumerate(shifted.coeffs):
                    got = complex(coeffs[k].constant_coefficient()) if k < len(coeffs) else 0j
                    assert got == c

    def test_mode_violation_on_products(self):
        with pytest.raises(ModeViolationError):
            d_alpha_gamma(canon("sina(x)*P(x,1)", None), "x")
        with pytest.raises(ModeViolationError):
            d_alpha_gamma(canon("P(x,1)*P(y,1)", None), "x")
        with pytest.raises(ModeViolationError):
            d_alpha_gamma(canon("f1", None), "x")

    def test_mode_violation_on_quotients(self):
        with pytest.raises(ModeViolationError):
            d_alpha_gamma(canon("P(x,-1)", None), "x")

    def test_differentiate_dispatch(self):
        assert differentiate(canon("P(x,3)", None), "x", DerivativeMode.GAMMA) == canon(
            "P(x,2)", None
        )
        assert differentiate(canon("sina(theta)", CYL), "theta") == canon("cosa(theta)", CYL)


class TestModeConflict:
    """The product rule and the Gamma shift rule contradict each other on
    (x^alpha)^2 away from alpha=1; derivation mode is what the coordinate
    formulas need, gamma mode is what the J-basis shift says."""

    def test_derivation_value_is_exact(self):
        assert d_alpha(canon("P(x,1)^2", None), "x") == canon("2*P(x,1)", None)

    def test_rules_disagree_at_alpha_half(self):
        alpha = 0.5
        # derivation mode coefficient of x^alpha in D[(x^alpha)^2]
        derivation_coeff = 2.0
        # eq-13 value: D[x^(2a)] = Gamma(1+2a)/Gamma(1+a) * x^a
        shift_coeff = gamma_one_plus(alpha, 2) / gamma_one_plus(alpha, 1)
        assert abs(derivation_coeff - shift_coeff) > 0.5

    def test_rules_agree_classically(self):
        alpha = 1.0
        shift_coeff = gamma_one_plus(alpha, 2) / gamma_one_plus(alpha, 1)
        assert abs(2.0 - shift_coeff) < 1e-12

    def test_leibniz_and_shift_disagree_on_j_basis(self):
        # Leibniz on J_1*J_1 gives 2*Gamma(1+a)*J_1 while the shift on the
        # rebased J_2 gives (Gamma(1+2a)/Gamma(1+a))*J_1
        alpha = 0.5
        leibniz = 2.0 * gamma_one_plus(alpha, 1)
        shift = gamma_one_plus(alpha, 2) / gamma_one_plus(alpha, 1)
        assert abs(leibniz - shift) > 0.5
