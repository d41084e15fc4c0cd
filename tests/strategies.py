"""Shared hypothesis strategies: random grammar-generated DSL text.

Every composite is wrapped in parentheses, so a drawn text can stand as
an atom of a larger one."""

import hypothesis.strategies as st

from fracquat.coefficients import CRat, render_crat

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
crats = st.builds(CRat, rationals, rationals)


def _number(c: CRat) -> str:
    return f"({render_crat(c)})"


numbers = crats.map(_number)
nonzero_numbers = crats.filter(bool).map(_number)


def atoms(variables):
    variables = st.sampled_from(tuple(variables))
    return st.one_of(
        numbers,
        st.just("lam"),
        st.builds("P({},{})".format, variables, st.integers(-2, 2)),
        st.builds("{}({})".format, st.sampled_from(("sina", "cosa")), variables),
        st.builds("Ea({}, {})".format, nonzero_numbers, variables),
        st.builds("Ea({}*lam, {})".format, nonzero_numbers, variables),
        st.builds("Ea({} + {}*lam, {})".format, nonzero_numbers, nonzero_numbers, variables),
        st.builds("f{}".format, st.integers(0, 3)),
    )


def unit_atoms(variables):
    """Divisors that are unit monomials, so that quotients give negative
    fractal and sina exponents."""
    variables = st.sampled_from(tuple(variables))
    return st.one_of(
        st.builds("P({},{})".format, variables, st.integers(-2, 2)),
        st.builds("sina({})".format, variables),
    )


def exprs(variables=("r", "theta", "z"), max_leaves=10):
    def extend(children):
        return st.one_of(
            st.builds("({} + {})".format, children, children),
            st.builds("({} - {})".format, children, children),
            st.builds("({}*{})".format, children, children),
            st.builds("({}/{})".format, children, unit_atoms(variables)),
            st.builds("(-{})".format, children),
            st.builds("({}^{})".format, children, st.integers(0, 2)),
        )

    return st.recursive(atoms(variables), extend, max_leaves=max_leaves)
