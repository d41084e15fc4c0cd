"""Canonical-form invariants: unique normal form, exact equality,
Pythagorean reduction, division, rendering round-trips, numeric tie-in."""

import copy
import math
import pickle
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import mul

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import (
    CARTESIAN,
    CanonicalExpr,
    CoefficientLimitError,
    CYLINDRICAL,
    FRAMES,
    EvaluationDomainError,
    ExpressionError,
    NonInvertibleDivisionError,
    QuaternionField,
    SPHERICAL,
    SingularDivisionError,
    TermBudgetError,
    UnboundSymbolError,
    VARIABLES,
    abstract_field,
    canon,
    d_alpha,
    equal,
    eval_canonical,
    helmholtz_residual,
    parse,
    render_canonical,
    substitute_lam,
)
from fracquat import canonical, cos_alpha, ml_exp, series, sin_alpha
from fracquat.canonical import (
    MONOMIAL_ONE,
    Monomial,
    _accumulate,
    _products,
    as_canonical_scalar,
    dsym_name,
)
from fracquat.coefficients import CRat
from fracquat.expr import var_index
from fracquat.frames import apply_table

from strategies import crats, exprs, is_stored, unit_atoms

CYL = CYLINDRICAL
R, THETA, Z = map(var_index, ("r", "theta", "z"))


class TestNormalize:
    def test_pythagorean_identity(self):
        assert canon("cosa(theta)^2 + sina(theta)^2", CYL) == CanonicalExpr.one()

    def test_mixed_partials_commute(self):
        assert canon("d(d(f1,theta),r)", CYL) == canon("d(d(f1,r),theta)", CYL)

    def test_fractal_exponents_add(self):
        assert canon("P(r,2)*P(r,-1)", CYL) == canon("P(r,1)", CYL)

    def test_cos_power_reduction(self):
        assert equal(canon("cosa(theta)^2", CYL), canon("1 - sina(theta)^2", CYL))
        # odd powers keep a single cos factor
        assert equal(
            canon("cosa(theta)^3", CYL),
            canon("cosa(theta) - sina(theta)^2*cosa(theta)", CYL),
        )

    def test_ea_zero_scale_is_one(self):
        assert canon("Ea(0, z)", CYL) == CanonicalExpr.one()

    def test_ea_distinct_scales_do_not_merge(self):
        ce = canon("Ea(1, z) * Ea(2, z)", CYL)
        assert len(ce.terms) == 1
        mono = next(iter(ce.terms))
        assert len(mono.ea) == 2

    def test_ea_same_scale_accumulates_power(self):
        ce = canon("Ea(2, z) * Ea(2, z)", CYL)
        mono = next(iter(ce.terms))
        assert mono.ea[0][2] == 2

    def test_canonical_operand_is_used_as_is(self):
        ce = canon("P(r,1)*f1 + sina(theta)", CYL)
        assert as_canonical_scalar(ce) is ce

    def test_ea_scale_must_be_scalar(self):
        from fracquat import ExpressionError

        with pytest.raises(ExpressionError):
            canon("Ea(P(r,1), z)", CYL)

    def test_zero_power_is_one(self):
        assert canon("P(r,0)", CYL) == CanonicalExpr.one()
        assert canon("f1^0", CYL) == CanonicalExpr.one()


    def test_numbers_on_the_left_and_foreign_operands(self):
        ce = canon("2*P(r,1)", CYL)
        assert 1 - ce == canon("1 - 2*P(r,1)", CYL)
        assert 1 / ce == canon("1/2*P(r,-1)", CYL)
        assert (ce == "x") is False
        with pytest.raises(TypeError):
            ce**1.5
        with pytest.raises(TypeError):
            as_canonical_scalar("x")
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            var_index("w")


class TestEqual:
    def test_doubling(self):
        assert equal(parse("f0 + f0", CYL), parse("2*f0", CYL))

    def test_distinct_generators(self):
        assert not equal(parse("sina(theta)", CYL), parse("cosa(theta)", CYL))

    def test_pythagorean_rewrite(self):
        assert equal(parse("cosa(theta)^2", CYL), parse("1 - sina(theta)^2", CYL))

    def test_a_constant_equals_the_rational_that_equal_takes(self):
        half = CanonicalExpr.const(Fraction(1, 2))
        assert half == Fraction(1, 2) and Fraction(1, 2) == half and equal(half, Fraction(1, 2))
        assert half != Fraction(1, 3) and CanonicalExpr.const(2) == Fraction(4, 2)

    def test_a_constant_hashes_like_the_value_it_equals(self):
        for c in (2, Fraction(1, 2), 0, CRat(1, 2)):
            assert c in {CanonicalExpr.const(c)} and CanonicalExpr.const(c) in {c}
        assert 0 in {CanonicalExpr.zero()} and 1 in {CanonicalExpr.one()}
        other = parse("2*P(r,1)", CYL)  # any other map keeps its hash
        assert hash(other) == hash(frozenset(other.terms.items()))


class TestDivision:
    def test_unit_monomial_division(self):
        num = canon("P(r,2)*sina(theta)^2", CYL)
        den = canon("P(r,1)*sina(theta)", CYL)
        assert num / den == canon("P(r,1)*sina(theta)", CYL)

    def test_divide_by_number(self):
        assert canon("f1/2", CYL) == canon("1/2*f1", CYL)

    def test_divide_by_ea(self):
        ce = canon("1/Ea(2,z)", CYL)
        mono = next(iter(ce.terms))
        assert mono.ea[0][2] == -1
        assert canon("Ea(2,z)/Ea(2,z)", CYL) == CanonicalExpr.one()

    def test_division_by_zero_expression(self):
        with pytest.raises(SingularDivisionError):
            canon("f1/(sina(theta)^2 + cosa(theta)^2 - 1)", CYL)

    def test_division_by_sum_rejected(self):
        with pytest.raises(NonInvertibleDivisionError):
            canon("1/(1 + sina(theta))", CYL)

    def test_division_by_cos_rejected(self):
        with pytest.raises(NonInvertibleDivisionError):
            canon("1/cosa(theta)", CYL)

    def test_division_by_component_rejected(self):
        with pytest.raises(NonInvertibleDivisionError):
            canon("1/f1", CYL)

    def test_division_by_lam_rejected(self):
        with pytest.raises(NonInvertibleDivisionError):
            canon("1/lam", CYL)

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(NonInvertibleDivisionError):
            canon("(1 + sina(theta))^-1", CYL)


class TestPower:
    def test_large_exponent_on_one_generator(self, monkeypatch):
        n, products = 100000000, []
        product = CanonicalExpr.__mul__

        def counted(a, b):  # fail fast, not after n products
            products.append(1)
            assert len(products) <= 2 * n.bit_length(), "the power is multiplied out"
            return product(a, b)

        monkeypatch.setattr(CanonicalExpr, "__mul__", counted)
        assert canon(f"P(r,1)^{n}", CYL) == CanonicalExpr.fractal_power("r", n)

    @pytest.mark.parametrize(
        "text",
        ["sina(theta)*cosa(theta)", "sina(theta)^-1", "2*cosa(theta)*f1", "1 + cosa(theta)"],
    )
    def test_power_is_the_repeated_product(self, text):
        # the one-monomial bases square through the cos^2 rewrite
        base = canon(text, CYL)
        for n in range(1, 8):
            assert base**n == reduce(mul, [base] * n)
            assert canon(f"({text})^{n}", CYL) == base**n

    def test_power_of_a_sum_stops_at_the_term_budget(self, monkeypatch):
        # (P(r,1) + 1)^(2^k) has 2^k + 1 terms: with a budget of 100 term
        # pairs, squaring up to the 16th power forms 4 + 9 + 25 + 81 pairs,
        # one row of len(b) pairs per term of a, and the next square
        # (17 * 17 = 289 pairs) is refused before it forms any
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 100)
        n, products, pairs = 1000000, [], []
        product, add_row = CanonicalExpr.__mul__, canonical._add_term_products

        def counted(a, b):  # fail fast, not after n products
            products.append(1)
            assert len(products) <= 2 * n.bit_length(), "the power is multiplied out"
            return product(a, b)

        def counted_row(acc, m1, p1, b):
            pairs.extend([1] * len(b))
            return add_row(acc, m1, p1, b)

        monkeypatch.setattr(CanonicalExpr, "__mul__", counted)
        monkeypatch.setattr(canonical, "_add_term_products", counted_row)
        with pytest.raises(TermBudgetError, match="17 by 17 terms exceeds 100 term pairs"):
            canon(f"(P(r,1) + 1)^{n}", CYL)
        assert len(pairs) == 4 + 9 + 25 + 81

    def test_term_budget_is_exact(self, monkeypatch):
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 12)
        a = canon("1 + f1 + f2", CYL)
        b = canon("P(r,1) + P(r,2) + P(r,3) + P(r,4)", CYL)
        assert len((a * b).terms) == 12  # 3 * 4 pairs: at the budget
        with pytest.raises(TermBudgetError):
            a * (b + canon("P(z,1)", CYL))  # 3 * 5 pairs

    @pytest.mark.parametrize(
        "base, stop",
        [
            # no derivative symbols: the charge is the 4 + 9 + 25 + 81 term
            # pairs of the squares, and the 17 by 17 square is refused
            ("P(r,1) + 1", 17),
            # (f1 + 1)^n has n terms holding 1..n symbols; a pair of two such
            # terms also pays their symbols, so the square of the 4th power
            # costs 25 + 2 * 4 * (1 + 2 + 3 + 4) = 105 and is refused
            ("f1 + 1", 5),
        ],
    )
    def test_budget_charges_the_derivative_symbols_each_pair_merges(
        self, monkeypatch, base, stop
    ):
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 100)
        with pytest.raises(TermBudgetError, match=f"{stop} by {stop} terms exceeds 100 term pairs"):
            canon(f"({base})^1000000", CYL)

    def test_merged_symbol_charge_is_exact(self, monkeypatch):
        a = canon("f1 + d(f2,r)*f3", CYL)  # 2 terms with symbols, 3 symbols
        b = canon("f0 + P(r,1)", CYL)  # 1 term with symbols, 1 symbol
        # 2 * 2 pairs, plus 3 symbols of a met by 1 term of b and 1 symbol
        # of b met by 2 terms of a
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 4 + 3 + 2)
        assert len((a * b).terms) == 4
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 4 + 3 + 2 - 1)
        with pytest.raises(TermBudgetError, match="2 by 2 terms"):
            a * b
        # a one-term operand pays only its term pairs
        one_term = canon("f1^50*d(f2,r)", CYL)
        assert len((one_term * b).terms) == 2 and len((a * one_term).terms) == 2

    @pytest.mark.parametrize("coefficient", ["P(r,-1)", "cosa(theta)"])
    def test_apply_table_charges_a_product_with_a_monomial(self, monkeypatch, coefficient):
        # a form term c*m*fk multiplies the 7 terms of fk by the monomial m:
        # 7 term pairs, read against the budget at call time.  `*` charges
        # them in either order: 7 by 1 for a multi-term left side, 1 by 7
        # for the one row of a one-term left side
        f0 = canon(" + ".join(f"P(r,{n})" for n in range(1, 8)), CYL)
        m = canon(coefficient, CYL)
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 5)
        with pytest.raises(TermBudgetError, match="a product of 1 by 7 terms exceeds 5 term pairs"):
            apply_table((canon(f"{coefficient}*f0", CYL),), (f0,))
        with pytest.raises(TermBudgetError, match="^a product of 7 by 1 terms exceeds 5 term pairs$"):
            f0 * m
        with pytest.raises(TermBudgetError, match="^a product of 1 by 7 terms exceeds 5 term pairs$"):
            m * f0

    def test_apply_table_scales_by_a_constant_without_a_charge(self, monkeypatch):
        f0 = canon(" + ".join(f"P(r,{n})" for n in range(1, 8)), CYL)
        monkeypatch.setattr(canonical, "MAX_TERM_PAIRS", 5)
        assert apply_table((canon("2*f0", CYL),), (f0,)) == (2 * f0,)
        assert len((CanonicalExpr.const(2) * f0).terms) == len((f0 * 2).terms) == 7

    def test_negative_power_is_the_repeated_inverse(self):
        sin = canon("sina(theta)", CYL)
        for n in range(1, 8):
            assert canon(f"sina(theta)^-{n}", CYL) == reduce(mul, [sin.inverse()] * n)
            assert sin**-n * sin**n == CanonicalExpr.one()


class TestEvalNumeric:
    def test_fractal_power(self):
        assert abs(eval_canonical(canon("P(r,2)", CYL), 0.5, {"r": 2.0}) - 2.0) < 1e-14

    def test_constant(self):
        assert eval_canonical(canon("1", CYL), 0.5, {}) == 1

    def test_pythagorean_is_exactly_one(self):
        ce = canon("sina(theta)^2 + cosa(theta)^2", CYL)
        assert eval_canonical(ce, 0.5, {"theta": 0.7}) == 1

    def test_component_bindings(self):
        ce = canon("P(r,1)*f1 + d(f1,r)", CYL)
        value = eval_canonical(
            ce, 1.0, {"r": 2.0}, bindings={"f1": 3.0, "d(f1,r)": lambda pt: pt["r"]}
        )
        assert abs(value - (2.0 * 3.0 + 2.0)) < 1e-14

    def test_lam_binding(self):
        ce = substitute_lam(canon("lam^2*f0", CYL), CRat(0, 2))
        value = eval_canonical(ce, 1.0, {}, bindings={"f0": 1.0})
        assert abs(value - (-4.0)) < 1e-14

    def test_unbound_errors(self):
        with pytest.raises(UnboundSymbolError):
            eval_canonical(canon("P(r,1)", CYL), 0.5, {})
        with pytest.raises(UnboundSymbolError):
            eval_canonical(canon("f1", CYL), 0.5, {})
        with pytest.raises(UnboundSymbolError):
            eval_canonical(canon("lam", CYL), 0.5, {})
        with pytest.raises(UnboundSymbolError):
            eval_canonical(canon("Ea(1 + lam, z)", CYL), 0.5, {"z": 1.0})

    def test_domain_errors(self):
        with pytest.raises(EvaluationDomainError):
            eval_canonical(canon("P(r,1)", CYL), 0.5, {"r": -1.0})
        with pytest.raises(EvaluationDomainError):
            eval_canonical(canon("P(r,-1)", CYL), 0.5, {"r": 0.0})

    def test_out_of_the_double_range(self):
        # a power that overflows, or that inverts a zero or a value that
        # underflows to zero, is named with the point; so is a coefficient
        # past the double range, also one that a value put in for lam takes
        # there, and a total that is not finite
        big = {"r": 1e200, "z": 1e200, "theta": 1e200}
        cases = (
            ("Ea(1, z)^400", {"z": 2.0}, None, r"^Ea\(1, z\)\^400 has no .* at z = 2.0$"),
            ("P(r,-1)", {"r": 0.0}, None, r"^P\(r,-1\) has no finite value at r = 0.0$"),
            ("sina(theta)^-2", {"theta": 1e-300}, None, r"^sina\(theta\)\^-2 has .* = 1e-300$"),
            ("lam^2*P(r,1)", {"r": 1.0}, 1e200, r"^a coefficient has no finite value$"),
            ("P(r,1)*P(z,1) - P(r,1)*P(theta,1)", big, None, r"\(nan\+0j\)"),
        )
        for text, point, lam, message in cases:
            ce = canon(text, CYL)
            with pytest.raises(EvaluationDomainError, match=message):
                eval_canonical(ce if lam is None else substitute_lam(ce, CRat(lam)), 1.0, point)
        # at lam = 1 the two terms that overflow cancel exactly, before any float is formed
        ce = substitute_lam(canon("P(r,1)*P(z,1) - P(r,1)*P(z,1)*lam", CYL), 1)
        assert ce.is_zero() and eval_canonical(ce, 1.0, big) == 0

    def test_ea_evaluation(self):
        import math

        ce = canon("Ea(2, z)", CYL)
        # alpha=1: exp(2z)
        assert abs(eval_canonical(ce, 1.0, {"z": 0.5}) - math.e) < 1e-12


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_render_roundtrip(e):
    ce = canon(e, CYL)
    again = canon(render_canonical(ce), CYL)
    assert again == ce


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_equal_is_congruence_for_sum_and_product(a, b):
    ca, cb = canon(a, CYL), canon(b, CYL)
    assert equal(ca + cb, cb + ca)
    assert equal(ca * cb, cb * ca)
    # adding equal things preserves equality
    assert equal(ca + ca, 2 * ca)


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs(), exprs())
def test_product_distributes_over_sum(a, b, c):
    ca, cb, cc = canon(a, CYL), canon(b, CYL), canon(c, CYL)
    assert equal(ca * (cb + cc), ca * cb + ca * cc)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.sampled_from(("r", "theta", "z")))
def test_product_with_one_or_zero(e, var):
    ce = canon(e, CYL)
    before = list(ce.terms.items())
    one, zero = CanonicalExpr.one(), CanonicalExpr.zero()
    for same in (ce * 1, 1 * ce, ce * one, one * ce, ce + 0, 0 + ce, ce + zero, zero + ce):
        # the result may share ce's map: no later operation may mutate it
        derived = (same + ce, same - ce, -same, same * ce, d_alpha(same, var))
        assert same == ce and derived[1].is_zero()
        assert list(ce.terms.items()) == before
    assert (ce * 0).is_zero() and (0 * ce).is_zero()
    assert list(ce.terms.items()) == before


def test_product_with_one_and_sum_with_zero_share_the_map():
    ce = canon("P(r,1)*f1 - 2*lam*sina(theta)", CYL)
    one, zero = CanonicalExpr.one(), CanonicalExpr.zero()
    for same in (ce * 1, 1 * ce, ce * one, one * ce, ce + 0, 0 + ce, ce + zero, zero + ce):
        assert same.terms is ce.terms


def assert_clean(x):
    """x holds only nonzero coefficients in their stored form, so rebuilding
    it through the cleaning constructor changes nothing."""
    assert all(is_stored(c) and c for c in x.terms.values())
    assert x == CanonicalExpr(dict(x.terms))


def assert_rehashes(mono):
    """A monomial equals, and hashes like, copies built the other ways."""
    fields = (mono.dsyms, mono.powers, mono.trig, mono.ea, mono.lam)
    for copy in (Monomial(*fields), mono._replace()):
        assert copy == mono and hash(copy) == hash(mono)


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), st.sampled_from(("r", "theta", "z")))
def test_results_are_clean_maps(a, b, var):
    ca, cb = canon(a, CYL), canon(b, CYL)
    product = ca * cb
    for x in (ca, cb, ca + cb, ca - cb, -ca, product, d_alpha(ca, var)):
        assert_clean(x)
        for mono in x.terms:
            # every group and multi-index is stored sorted, so plain tuple
            # order is the rendering order
            for group in (*mono[:4], *(midx for _, midx in mono.dsyms)):
                assert list(group) == sorted(group)
    for mono in product.terms:
        assert_rehashes(mono)


@settings(max_examples=60, deadline=None)
@given(
    exprs(),
    exprs(),
    st.sampled_from(("r", "theta", "z")),
    st.integers(-2, 3),
    crats.filter(bool),
    unit_atoms(("r", "theta", "z")),
)
def test_every_formed_coefficient_is_in_its_stored_form(a, b, var, k, c, unit):
    # an int exactly where the value is an integer, else a CRat that is not
    # one; unit inverses turn 1/2 into 2 and 2 into 1/2
    ca, cb = canon(a, CYL), canon(b, CYL)
    divisor = CanonicalExpr.const(c) * canon(unit, CYL)
    formed = [ca, cb, ca + cb, ca - cb, -ca, ca * cb, d_alpha(ca, var), divisor.inverse()]
    formed += [divisor**k, CanonicalExpr.const(c) ** k, ca ** abs(k)]
    formed += apply_table(CYL.forms["laplacian"], (ca, cb, ca, cb))
    for x in formed:
        for coeff in x.terms.values():
            assert is_stored(coeff) and coeff, coeff


def _reference_product(a: Monomial, b: Monomial) -> list:
    """The product of two monomials written out group by group, with every
    cos^2 rewritten as 1 - sin^2, as sorted (monomial, sign) pairs."""

    def merged(x, y):
        acc = {}
        for t in x + y:
            acc[t[:-1]] = acc.get(t[:-1], 0) + t[-1]
        return tuple(sorted(g + (p,) for g, p in acc.items() if p))

    trig = {}
    for v, m, e in a.trig + b.trig:
        m0, e0 = trig.get(v, (0, 0))
        trig[v] = (m0 + m, e0 + e)
    expansions = [((), 1)]
    for v, (m, e) in sorted(trig.items()):
        choices = [((v, m, 0), 1), ((v, m + 2, 0), -1)] if e == 2 else [((v, m, e), 1)]
        expansions = [(t + (g,), s * c) for t, s in expansions for g, c in choices]
    rest = {
        "dsyms": tuple(sorted(a.dsyms + b.dsyms)),
        "powers": merged(a.powers, b.powers),
        "ea": merged(a.ea, b.ea),
        "lam": a.lam + b.lam,
    }
    return sorted(
        (Monomial(trig=tuple(g for g in t if g[1] or g[2]), **rest), s) for t, s in expansions
    )


# a frame and three expressions in its variables
FRAME_EXPRS = st.sampled_from(tuple(FRAMES.values())).flatmap(
    lambda frame: st.tuples(st.just(frame), *[exprs(frame.variables, max_leaves=6)] * 3)
)


@pytest.mark.parametrize(
    "a, b",
    [
        ("cosa(theta)*f1", "P(r,1)*d(f1,r)*f2"),  # cos on one side, symbols on both
        ("sina(theta)*d(f2,theta)", "lam*f2*f0"),  # sin on one side, symbols on both
        ("cosa(theta)*f1", "cosa(theta)*sina(r)*f1"),  # cos^2 on the general path
        ("cosa(theta)*cosa(r)", "cosa(theta)*cosa(r)"),  # two cos^2 rewrites
        ("Ea(2, z)*f3", "Ea(2, z)*Ea(lam, z)*f3"),
    ],
)
def test_mul_monomials_matches_the_reference(a, b):
    (m1,), (m2,) = canon(a, CYL).terms, canon(b, CYL).terms
    assert sorted(_products({m1: 1}, {m2: 1}).items()) == _reference_product(m1, m2)


@settings(max_examples=60, deadline=None)
@given(FRAME_EXPRS)
def test_mul_monomials_early_return_matches_the_reference(drawn):
    frame, *texts = drawn
    monos = [m for text in texts for m in canon(text, frame).terms]
    for m1 in monos:
        for m2 in monos:
            assert sorted(_products({m1: 1}, {m2: 1}).items()) == _reference_product(m1, m2)


def _pairs(terms: dict) -> dict:
    """A map with each coefficient as its (real, imaginary) Fraction pair."""
    def pair(c):
        return (Fraction(c), Fraction(0)) if type(c) is int else (c.re, c.im)

    return {m: pair(c) for m, c in terms.items()}


def _reference_add_products(acc: dict, a: dict, b: dict) -> dict:
    """acc + a * b summed pair by pair in Fractions over _reference_product,
    without the ring: zero coefficients dropped."""
    out = _pairs(acc)
    for m1, (x, y) in _pairs(a).items():
        for m2, (u, w) in _pairs(b).items():
            for mono, sign in _reference_product(m1, m2):
                re, im = out.get(mono, (0, 0))
                out[mono] = (re + sign * (x * u - y * w), im + sign * (x * w + y * u))
    return {m: p for m, p in out.items() if any(p)}


@pytest.mark.parametrize(
    "acc, a, b, empty",
    [
        # a non-empty acc, one term of which the product cancels
        ("f1 + (1/2)*P(r,1)*f2", "P(r,1) + 3i*f1", "(-1/2)*f2 + (2 - 1/3*1i)*lam", False),
        # the product cancels every term of acc
        (
            "-(1/2)*P(r,2) + (-1/2 + 1/2*1i)*P(r,1)*f1 + (1 + 1i)*f1*f1",
            "(1/2)*P(r,1) + f1",
            "P(r,1) - (1 + 1i)*f1",
            True,
        ),
        # cos^2 -> 1 - sin^2 on two variables at once, into a sin^2 term of acc
        (
            "cosa(theta) - sina(theta)^2",
            "cosa(theta)*cosa(r) + (1/3)*f0",
            "(2 + 1i)*cosa(theta)*cosa(r)",
            False,
        ),
        # a one-term a, its row built in place: symbols on both sides merge,
        # powers and Ea groups add (P(r,1)*P(r,-1) drops out), cos^2 splits
        (
            "f1*f2",
            "(1/2)*cosa(theta)*P(r,1)*Ea(2, r)*f1",
            "cosa(theta)*f2 + Ea(2, r)*d(f1,r) + lam*sina(theta)*f0 + 3*P(r,-1) - 2i",
            False,
        ),
        # a multi-term a: its constant row scales b, its trig rows meet
        # trig factors of b (sin*cos and sin^2 do not split; cos^2 does,
        # and its -sin^2 part cancels a term of acc)
        (
            "f2 + sina(theta)^2*P(r,1)*f2",
            "(1/2 + 1i) + cosa(theta)*P(r,1) + sina(theta)*f1",
            "cosa(theta)*f2 - 3*sina(theta)*cosa(psi)",
            False,
        ),
    ],
)
def test_add_products_matches_a_fraction_reference(acc, a, b, empty):
    acc, a, b = (canon(text, SPHERICAL).terms for text in (acc, a, b))
    out = _accumulate(dict(acc), _products(a, b).items())
    assert _pairs(out) == _reference_add_products(acc, a, b)
    assert all(is_stored(c) and c for c in out.values())
    assert (out == {}) == empty


@settings(max_examples=60, deadline=None)
@given(FRAME_EXPRS)
def test_add_products_adds_the_product_into_the_map(drawn):
    frame, *texts = drawn
    acc, a, b = (canon(text, frame) for text in texts)
    # (a * b, -a, b) cancels every entry of acc; a * 1 and 1 * b share maps
    cases = [(acc, a, b), (acc, a, a), (a * b, -a, b), (a * 1, a, 1 * b), (acc, a, 0)]
    for acc, a, b in cases:
        a, b = as_canonical_scalar(a), as_canonical_scalar(b)
        before = [list(x.terms.items()) for x in (acc, a, b)]
        out = _accumulate(dict(acc.terms), _products(a.terms, b.terms).items())
        assert out == (acc + a * b).terms
        assert _pairs(out) == _reference_add_products(acc.terms, a.terms, b.terms)
        assert all(is_stored(c) and c for c in out.values())
        assert [list(x.terms.items()) for x in (acc, a, b)] == before


class TestSubstituteLam:
    def test_equal_ea_scales_merge(self):
        ce = canon("Ea(lam, x)*Ea(2, x)^-1 + lam^3*P(x,1) - 8*P(x,1)", CARTESIAN)
        assert substitute_lam(ce, 2) == 1
        assert substitute_lam(canon("Ea(lam - 1, x)*f1", CARTESIAN), 1) == canon("f1", CARTESIAN)

    def test_a_power_of_the_value_is_formed_by_squaring(self, monkeypatch):
        # lam^1000000000 at 2 stops at the coefficient bound after about 14
        # squarings; at 1i the power cycles to 1 in 30 squarings and a
        # product per set bit of the exponent
        ce, one = canon("lam^1000000000*P(x,1)", CARTESIAN), canon("P(x,1)", CARTESIAN)
        calls = []
        mul = CanonicalExpr.__mul__
        monkeypatch.setattr(CanonicalExpr, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        with pytest.raises(CoefficientLimitError):
            substitute_lam(ce, 2)
        assert len(calls) < 20
        calls.clear()
        assert substitute_lam(ce, CRat(0, 1)) == one
        assert len(calls) < 2 * (10**9).bit_length()

    def test_formal_parts_are_kept(self):
        ce = canon("(1 + 2i)*P(r,1)*sina(theta)*Ea(3, z)*d(f1,r)*f2 - 1/2", CYL)
        assert substitute_lam(ce, CRat(1, 2)) == ce
        assert substitute_lam(canon("lam^2*f0 + lam", CYL), 0).is_zero()


@settings(max_examples=40, deadline=None)
@given(FRAME_EXPRS, crats)
def test_substitute_lam_commutes_with_the_ring_d_alpha_and_apply_table(drawn, c):
    frame, *texts = drawn
    a, b, e = (canon(text, frame) for text in texts)

    def at(x):
        return substitute_lam(x, c)

    try:
        assert at(a + b) == at(a) + at(b)
        assert at(a * b) == at(a) * at(b)
        for var in frame.variables:
            assert at(d_alpha(a, var)) == d_alpha(at(a), var)
        comps = (a, b, e, a * b)
        for name, form in frame.forms.items():  # the frame's forms hold no lam
            expected = tuple(map(at, apply_table(form, comps)))
            assert apply_table(form, tuple(map(at, comps))) == expected, name
    except CoefficientLimitError:
        pass  # a value of lam may take a coefficient past the bound


def _coeff_value(poly: tuple, lam) -> complex:
    """Value of a lam-polynomial given as (lam power, coefficient) pairs: the
    float model of lam that eval_canonical had before substitute_lam."""
    if len(poly) == 1 and not poly[0][0]:
        return complex(poly[0][1])
    if lam is None:
        raise UnboundSymbolError("expression contains lam but no lam value was given")
    lam = complex(lam)
    return sum((complex(c) * lam**p for p, c in poly), 0j)


@settings(max_examples=60, deadline=None)
@given(exprs(), crats, st.sampled_from((0.75, 1.0)))
def test_eval_of_the_substituted_map_matches_a_float_lam(text, c, alpha):
    # small arguments, so that no Ea series cancels: |u| stays below about 7
    ce, point = canon(text, CYL), {"r": 0.2, "theta": 0.3, "z": 0.25}
    bindings = {f"f{k}": complex(0.5, 0.25 * k) for k in range(4)}
    try:
        value = eval_canonical(substitute_lam(ce, c), alpha, point, bindings)
    except CoefficientLimitError:
        return
    # the reference evaluates each term of the formal map with the
    # lam-polynomials (the coefficient and each Ea scale) in floats
    terms = []
    for mono, coeff in ce.terms.items():
        rest = CanonicalExpr({mono._replace(ea=(), lam=0): 1})
        term = _coeff_value(((mono.lam, coeff),), c) * eval_canonical(rest, alpha, point, bindings)
        for v, scale, p in mono.ea:
            u = _coeff_value(scale, c) * point[VARIABLES[v]] ** alpha
            term *= ml_exp(alpha, u) ** p
        terms.append(term)
    assert abs(value - sum(terms)) <= 1e-9 * sum(map(abs, terms))


def test_render_past_the_int_digit_limit_is_an_expression_error():
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    # the parser lets 2^bits through; the Leibniz factor 2 doubles it past the
    # limit, and the ring refuses it before render could meet it
    message = rf"^a coefficient passes the int digit limit \({digits} digits\)$"
    with pytest.raises(ExpressionError, match=message):
        render_canonical(d_alpha(canon(f"2^{int(digits * math.log2(10))}*P(r,2)", CYL), "r"))
    # what render can still meet is an exponent past the limit
    n = int("9" * (digits - 1))
    ce = CanonicalExpr({Monomial(powers=((R, n * n),)): CRat(1)})
    message = rf"^an exponent passes the int digit limit \({digits} digits\)$"
    with pytest.raises(ExpressionError, match=message):
        render_canonical(ce)


def test_monomial_hash_agrees_across_constructions():
    sin = Monomial(trig=((THETA, 1, 0),))
    cos = Monomial(trig=((THETA, 0, 1),))
    ea = Monomial(ea=((Z, ((0, CRat(2)),), 1),), lam=1)
    built = Monomial(powers=((R, 1),), trig=((THETA, 1, 0),))
    replaced = sin._replace(powers=((R, 1),))
    (product, sign), = _products({Monomial(powers=((R, 1),)): 1}, {sin: 1}).items()
    assert built == replaced == product and sign == 1
    assert hash(built) == hash(replaced) == hash(product)
    # cos^2 splits into 1 - sin^2; both parts are ordinary dict keys
    (one, s1), (sin2, s2) = _products({cos: 1}, {cos: 1}).items()
    assert (s1, s2) == (1, -1)
    assert hash(one) == hash(MONOMIAL_ONE) and one == MONOMIAL_ONE
    assert {Monomial(trig=((THETA, 2, 0),)): 1}[sin2] == 1
    # Ea scales are separately built but equal polynomials; lam powers add
    (ea2, _), = _products({ea: 1}, {ea: 1}).items()
    assert ea2 == Monomial(ea=((Z, ((0, CRat(2)),), 2),), lam=2)
    assert hash(ea2) == hash(Monomial(ea=((Z, ((0, CRat(2)),), 2),), lam=2))
    for mono in (built, replaced, product, one, sin2, ea2):
        assert_rehashes(mono)
    # string hashes differ between processes, so a pickle must not carry the
    # cached hash
    for mono in (built, product, one, sin2, ea2):
        data = pickle.dumps(mono)
        assert b"_hash" not in data and pickle.loads(data) == mono


def test_canonical_values_pickle_and_deepcopy():
    ce = canon(
        "(1/2 + 3i)*P(r,1)*f1 + lam^2*sina(theta) - (2 - 1i)*lam*Ea(1/2 - 1i*lam, z)*cosa(theta)",
        CYL,
    )
    assert any(mono.lam for mono in ce.terms)
    for copied in (pickle.loads(pickle.dumps(ce)), copy.deepcopy(ce)):
        assert copied == ce
        assert [hash(m) for m in copied.terms] == [hash(m) for m in ce.terms]
        assert render_canonical(copied) == render_canonical(ce)
    value = CRat(1, 2)
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)


class TestEvalMemo:
    FIELD = "sina(r)*cosa(r) + 2*sina(r)^2*P(r,1) + Ea(1,r)*sina(r) + Ea(1,r)"

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for direct in (sin_alpha, cos_alpha, ml_exp):

            def counted(alpha, u, tol=1e-12, direct=direct):
                calls.append((direct.__name__, alpha, u))
                return direct(alpha, u, tol)

            monkeypatch.setattr(series, direct.__name__, counted)
        return calls

    @staticmethod
    def expected(alpha, r):
        u = r**alpha
        s, c, e = sin_alpha(alpha, u), cos_alpha(alpha, u), ml_exp(alpha, u)
        return s * c + 2 * s**2 * u + e * s + e

    def test_each_generator_summed_once_per_call(self, calls):
        value = eval_canonical(canon(self.FIELD, CYL), 0.5, {"r": 1.3})
        u = 1.3**0.5
        assert sorted(calls) == [("cos_alpha", 0.5, u), ("ml_exp", 0.5, u), ("sin_alpha", 0.5, u)]
        assert value == pytest.approx(self.expected(0.5, 1.3), rel=1e-14)

    def test_calls_share_no_values(self, calls):
        # r = 1 gives u = 1 at every alpha; the last point repeats
        ce = canon(self.FIELD, CYL)
        for alpha, r in ((0.5, 1.0), (0.75, 1.0), (0.75, 1.7), (0.75, 1.7)):
            calls.clear()
            value = eval_canonical(ce, alpha, {"r": r})
            assert value == pytest.approx(self.expected(alpha, r), rel=1e-14)
            assert len(calls) == 3 and {a for _, a, _ in calls} == {alpha}

    def test_vanishing_sina_with_negative_exponent(self, calls):
        with pytest.raises(EvaluationDomainError, match="no finite value"):
            eval_canonical(canon("sina(r) + sina(r)^-1", CYL), 0.5, {"r": 0.0})
        assert [name for name, _, _ in calls] == ["sin_alpha"]


def test_linear_independence_by_random_evaluation():
    """A nonzero canonical map evaluates to a nonzero number at generic
    points with alpha=1 (classical generators), so the monomial basis is
    linearly independent."""
    rng = random.Random(20240811)
    samples = [
        "P(r,1)*sina(theta) - cosa(theta)",
        "sina(theta)^3 + cosa(theta)*sina(theta)",
        "P(r,-2)*f1 + P(z,1)",
        "Ea(1,z)*sina(theta) - Ea(2,z)",
        "sina(theta)^-1*cosa(theta) + P(r,2)",
    ]
    for text in samples:
        ce = canon(text, CYL)
        assert not ce.is_zero()
        hits = 0
        for _ in range(5):
            point = {
                "r": rng.uniform(0.5, 2.0),
                "theta": rng.uniform(0.4, 1.1),
                "z": rng.uniform(0.2, 1.5),
            }
            bindings = {
                dsym_name(k, ()): rng.uniform(0.5, 1.5) for k in range(4)
            }
            value = eval_canonical(ce, 1.0, point, bindings=bindings)
            if abs(value) > 1e-9:
                hits += 1
        assert hits > 0


def test_render_of_zero():
    assert render_canonical(CanonicalExpr.zero()) == "0"


def test_render_deterministic():
    a = render_canonical(canon("f1 + P(r,1) + sina(theta)", CYL))
    b = render_canonical(canon("sina(theta) + f1 + P(r,1)", CYL))
    assert a == b


def test_derivative_symbols_render_in_frame_order():
    # like every other group, derivative symbols follow the variable order
    # of VARIABLES (r before psi), not the alphabetical order of their names
    ce = canon("d(f1,psi)*d(f1,r)", SPHERICAL)
    assert render_canonical(ce) == "d(f1,r)*d(f1,psi)"
    assert canon(render_canonical(ce), SPHERICAL) == ce


# render_canonical output recorded while coefficients were lam-polynomials;
# grouping the lam powers of one monomial must reproduce it byte for byte
RENDER_GOLDEN = {
    "cartesian": (
        "lam^2*f0 + d(f0,x,x) + d(f0,y,y) + d(f0,z,z)",
        "lam^2*f1 + d(f1,x,x) + d(f1,y,y) + d(f1,z,z)",
        "lam^2*f2 + d(f2,x,x) + d(f2,y,y) + d(f2,z,z)",
        "lam^2*f3 + d(f3,x,x) + d(f3,y,y) + d(f3,z,z)",
    ),
    "cylindrical": (
        "lam^2*f0 + d(f0,z,z) + P(r,-1)*d(f0,r) + d(f0,r,r) + P(r,-2)*d(f0,theta,theta)",
        "lam^2*f1 - P(r,-2)*f1 + d(f1,z,z) + P(r,-1)*d(f1,r) + d(f1,r,r)"
        " + P(r,-2)*d(f1,theta,theta) - 2*P(r,-2)*d(f2,theta)",
        "2*P(r,-2)*d(f1,theta) + lam^2*f2 - P(r,-2)*f2 + d(f2,z,z) + P(r,-1)*d(f2,r)"
        " + d(f2,r,r) + P(r,-2)*d(f2,theta,theta)",
        "lam^2*f3 + d(f3,z,z) + P(r,-1)*d(f3,r) + d(f3,r,r) + P(r,-2)*d(f3,theta,theta)",
    ),
    "spherical": (
        "lam^2*f0 + 2*P(r,-1)*d(f0,r) + d(f0,r,r)"
        " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f0,theta) + P(r,-2)*d(f0,theta,theta)"
        " + P(r,-2)*sina(theta)^-2*d(f0,psi,psi)",
        "lam^2*f1 - 2*P(r,-2)*f1 + 2*P(r,-1)*d(f1,r) + d(f1,r,r)"
        " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f1,theta) + P(r,-2)*d(f1,theta,theta)"
        " + P(r,-2)*sina(theta)^-2*d(f1,psi,psi)"
        " - 2*P(r,-2)*sina(theta)^-1*cosa(theta)*f2 - 2*P(r,-2)*d(f2,theta)"
        " - 2*P(r,-2)*sina(theta)^-1*d(f3,psi)",
        "2*P(r,-2)*d(f1,theta) + lam^2*f2 - P(r,-2)*sina(theta)^-2*f2 + 2*P(r,-1)*d(f2,r)"
        " + d(f2,r,r) + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f2,theta)"
        " + P(r,-2)*d(f2,theta,theta) + P(r,-2)*sina(theta)^-2*d(f2,psi,psi)"
        " - 2*P(r,-2)*sina(theta)^-2*cosa(theta)*d(f3,psi)",
        "2*P(r,-2)*sina(theta)^-1*d(f1,psi)"
        " + 2*P(r,-2)*sina(theta)^-2*cosa(theta)*d(f2,psi) + lam^2*f3"
        " - P(r,-2)*sina(theta)^-2*f3 + 2*P(r,-1)*d(f3,r) + d(f3,r,r)"
        " + P(r,-2)*sina(theta)^-1*cosa(theta)*d(f3,theta) + P(r,-2)*d(f3,theta,theta)"
        " + P(r,-2)*sina(theta)^-2*d(f3,psi,psi)",
    ),
    "mixed": (
        "4*lam + (lam^3 + lam^2)*P(z,1) - lam^2*P(r,1)*sina(theta) + lam^3*P(r,2)",
        "-2*cosa(theta) - 6*lam*P(r,-2)*sina(theta) + (1i*lam^2 + (-1/4 - 2i)*lam"
        " + 1/2)*P(r,1)*Ea(-1i*lam + 1/2, z) - lam^2*P(r,-2)*d(f2,theta)",
        "-3*lam^3*cosa(theta) + 2*sina(theta) + 6*lam*P(r,-2)*cosa(theta)"
        " + lam^2*P(r,2)*sina(theta) + 1/2*lam^4*f2 - 1/2*lam^2*P(r,-2)*f2"
        " + 1/2*lam^2*d(f2,z,z) + 1/2*lam^2*P(r,-1)*d(f2,r) + 1/2*lam^2*d(f2,r,r)"
        " + 1/2*lam^2*P(r,-2)*d(f2,theta,theta)",
        "-(2 + 4i)*lam^2*Ea(lam, r) - (1 + 2i)*lam*P(r,-1)*Ea(lam, r) + lam^4*d(f1,z)"
        " + lam^2*d(f1,z,z,z) + lam^2*P(r,-1)*d(f1,z,r) + lam^2*d(f1,z,r,r)"
        " + lam^2*P(r,-2)*d(f1,z,theta,theta) + P(r,-1)*f3 + lam^2*P(r,1)*f3"
        " + P(r,1)*d(f3,z,z) + 3*d(f3,r) + P(r,1)*d(f3,r,r) + P(r,-1)*d(f3,theta,theta)",
    ),
    "d_alpha": "2*P(z,1)*Ea(-1i*lam + 1/2, z) + (-1i*lam + 1/2)*P(z,2)*Ea(-1i*lam + 1/2, z)",
    "canon": "-lam^2*Ea(lam^2 - 3, r) + (lam^3 + 3*lam^2 + 3*lam + 1)*sina(theta)",
}


MIXED_FIELD = (
    "(1 + lam)*P(z,1) + lam*P(r,2) - sina(theta)*P(r,1)",
    "(2 - lam)*Ea(1/2 - 1i*lam, z)*P(r,1)",
    "P(r,2)*sina(theta) - 3*lam*cosa(theta) + 1/2*lam^2*f2",
    "f3*P(r,1) + lam^2*d(f1,z) - (1 + 2i)*Ea(lam, r)",
)


class TestRenderGolden:
    @pytest.mark.parametrize("name", ("cartesian", "cylindrical", "spherical"))
    def test_helmholtz_of_abstract_field(self, name):
        out = helmholtz_residual(abstract_field(FRAMES[name]))
        assert tuple(render_canonical(c) for c in out.components) == RENDER_GOLDEN[name]

    def test_helmholtz_mixes_lam_and_plain_coefficients(self):
        f = QuaternionField(CYL, *(canon(text, CYL) for text in MIXED_FIELD))
        out = helmholtz_residual(f)
        assert tuple(render_canonical(c) for c in out.components) == RENDER_GOLDEN["mixed"]

    def test_d_alpha_of_lam_scaled_ea(self):
        out = d_alpha(canon("Ea(1/2 - 1i*lam, z)*P(z,2)", CYL), "z")
        assert render_canonical(out) == RENDER_GOLDEN["d_alpha"]

    def test_lam_polynomial_coefficients(self):
        ce = canon("(lam+1)^3*sina(theta) - lam^2*Ea(lam^2 - 3, r)")
        assert render_canonical(ce) == RENDER_GOLDEN["canon"]
