"""Shared hypothesis strategies: random grammar-generated DSL text.

Every composite is wrapped in parentheses, so a drawn text can stand as
an atom of a larger one.  is_stored states the coefficient stored-form
rule that every map the ring forms keeps."""

import math

import hypothesis.strategies as st

from fracquat.coefficients import CRat, render_crat


def is_stored(c) -> bool:
    """Whether c is a coefficient in its one stored form: an int for an
    integer value, else a CRat (a + b i)/d with d > 0, gcd(a, b, d) == 1
    and a nonzero b or d != 1."""
    if type(c) is int:
        return True
    return type(c) is CRat and c.d > 0 and math.gcd(c.a, c.b, c.d) == 1 and (c.b or c.d != 1)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
crats = st.builds(CRat, rationals, rationals)


def _number(c) -> str:
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
