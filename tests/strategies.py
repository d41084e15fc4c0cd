"""Shared hypothesis strategies: random grammar-generated ASTs."""

import hypothesis.strategies as st

from fracquat.coefficients import CRat
from fracquat.expr import (
    Add, CompSym, Div, EaGen, FracPow, LamSym, Mul, Neg, Num, Pow, Sub, TrigGen,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
crats = st.builds(CRat, rationals, rationals)
nonzero_crats = crats.filter(bool)


def atoms(variables):
    variables = st.sampled_from(tuple(variables))
    return st.one_of(
        st.builds(Num, crats),
        st.just(LamSym()),
        st.builds(FracPow, variables, st.integers(-2, 2)),
        st.builds(TrigGen, variables, st.sampled_from(("sin", "cos"))),
        st.builds(lambda c, v: EaGen(Num(c), v), nonzero_crats, variables),
        st.builds(lambda c, v: EaGen(Mul(Num(c), LamSym()), v), nonzero_crats, variables),
        st.builds(
            lambda c0, c1, v: EaGen(Add(Num(c0), Mul(Num(c1), LamSym())), v),
            nonzero_crats, nonzero_crats, variables,
        ),
        st.builds(CompSym, st.integers(0, 3)),
    )


def unit_atoms(variables):
    """Divisors that normalize to unit monomials, so that quotients give
    negative fractal and sina exponents."""
    variables = st.sampled_from(tuple(variables))
    return st.one_of(
        st.builds(FracPow, variables, st.integers(-2, 2)),
        st.builds(TrigGen, variables, st.just("sin")),
    )


def exprs(variables=("r", "theta", "z"), max_leaves=10):
    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, unit_atoms(variables)),
            st.builds(Neg, children),
            st.builds(Pow, children, st.integers(0, 2)),
        )

    return st.recursive(atoms(variables), extend, max_leaves=max_leaves)
