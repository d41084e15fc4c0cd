"""The per-process tables of the ring, render and d_alpha: the product of
two exponent groups, the text of each factor and of each one-term
coefficient, and each bumped component symbol.  A table only saves work,
so what it serves must be what a fresh computation gives, under threads
and past its bound too."""

import random
import sys
import threading
from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import FRAMES, canonical, d_alpha, derivative, parse, render_canonical
from fracquat.canonical import CanonicalExpr, Monomial
from fracquat.cli import _OPERATORS
from fracquat.coefficients import CRat
from fracquat.expr import ExpressionError, var_index

from strategies import exprs

TABLES = (canonical._PRODUCTS, canonical._TEXTS, canonical._COEFFS, derivative._BUMPED)
RENDER = Path(__file__).parent / "data" / "render"
R, Z = var_index("r"), var_index("z")


def _clear():
    for table in TABLES:
        table.clear()


def _outcome(fn, *args):
    """What fn gives: a rendered text, a map's items in insertion order, or the error."""
    try:
        out = fn(*args)
    except ExpressionError as exc:
        return type(exc), str(exc)
    return out if type(out) is str else list(out.terms.items())


class _Unread(dict):
    """A table whose every lookup misses: each call forms everything afresh."""

    def get(self, key, default=None):
        return default


def _unread(calls):
    """The outcomes of calls with no table serving anything."""
    with patch.multiple(canonical, _PRODUCTS=_Unread(), _TEXTS=_Unread(), _COEFFS=_Unread()):
        with patch.object(derivative, "_BUMPED", _Unread()):
            return [_outcome(*call) for call in calls]


def _calls(a, b, var):
    """Calls of each kernel that reads a table: products (the no-cos^2 path
    among them), d_alpha, and render of each result."""
    return [
        (CanonicalExpr.__mul__, a, b),
        (d_alpha, a, var),
        (d_alpha, b, var),
        (render_canonical, a),
        (render_canonical, a * b if len(a.terms) * len(b.terms) < 400 else b),
        (render_canonical, d_alpha(b, var)),
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cleared_and_warm_tables_give_what_no_table_gives(data):
    name = data.draw(st.sampled_from(sorted(FRAMES)))
    variables = FRAMES[name].variables
    texts = [data.draw(exprs(variables)) for _ in range(3)]
    try:
        a, b, other = (parse(t, name) for t in texts)
    except ExpressionError:
        return
    var = data.draw(st.sampled_from(variables))
    calls = _calls(a, b, var)
    _clear()
    cold = [_outcome(*call) for call in calls]
    assert _unread(calls) == cold
    for x in (a, b, other):  # warm with entries of every pair of the three, and all variables
        for y in (a, b, other):
            _outcome(*_calls(x, y, var)[0])
        for v in variables:
            _outcome(render_canonical, d_alpha(x, v))
    assert [_outcome(*call) for call in calls] == cold
    _clear()
    assert [_outcome(*call) for call in reversed(calls)] == cold[::-1]


def _golden_maps():
    return [
        parse(line.split(" = ", 1)[1], name)
        for name in FRAMES
        for op in _OPERATORS
        for line in (RENDER / f"{name}-{op}.txt").read_text().splitlines()
    ]


def test_threads_on_cleared_tables_agree_with_serial_calls(monkeypatch):
    """8 threads render, differentiate and multiply the goldens' maps while
    the tables, shrunk to 16 entries, are cleared under them."""
    maps = _golden_maps()
    calls = [(render_canonical, m) for m in maps] + [(d_alpha, m, "r") for m in maps[::5]]
    calls += [(CanonicalExpr.__mul__, a, b) for a, b in zip(maps[::7], maps[1::7])]
    _clear()
    serial = [_outcome(*call) for call in calls]
    monkeypatch.setattr(canonical, "TABLE_SIZE", 16)
    _clear()
    barrier = threading.Barrier(8)
    results, errors = [None] * 8, []

    def work(n):
        order = list(range(len(calls)))
        random.Random(n).shuffle(order)  # each thread in its own order
        try:
            barrier.wait()
            got = {i: _outcome(*calls[i]) for i in order}
            results[n] = [got[i] for i in range(len(calls))]
        except Exception as exc:  # a thread's error would otherwise only be printed
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert all(result == serial for result in results)
    assert all(len(table) <= 16 for table in TABLES)


def test_filling_past_the_bound_leaves_every_table_at_or_under_it(monkeypatch):
    monkeypatch.setattr(canonical, "TABLE_SIZE", 32)
    _clear()
    sizes = {id(table): [] for table in TABLES}
    for n in range(1, 40):
        # distinct groups, factors and coefficients each round
        a = CanonicalExpr({Monomial(powers=((Z, n), (R, 1)), lam=1): CRat(1, n)})
        b = CanonicalExpr({Monomial(powers=((R, n),)): 1})
        c = CanonicalExpr.component(n % 4, ["r"] * n)
        render_canonical(a * b + d_alpha(c, "z"))
        for table in TABLES:
            sizes[id(table)].append(len(table))
    for history in sizes.values():
        assert 0 < max(history) <= 32 and history != sorted(history)  # cleared when full


def test_a_render_that_fails_stores_nothing():
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    n = int("9" * (digits - 1)) ** 2  # an exponent past the digit limit
    # the first term's texts and the second's P(z,1) are formed before P(r,n) fails
    ce = CanonicalExpr({
        Monomial(powers=((Z, 1),), lam=1): CRat(1, 2),
        Monomial(powers=((Z, 1), (R, n))): 1,
        Monomial(dsyms=((1, (R,)),), powers=((R, 2),)): 3,
    })
    _clear()
    with pytest.raises(ExpressionError, match="an exponent passes the int digit limit"):
        render_canonical(ce)
    assert not canonical._TEXTS and not canonical._COEFFS
    assert render_canonical(ce - CanonicalExpr({Monomial(powers=((Z, 1), (R, n))): 1})) == (
        "(1 + 2i)*lam*P(z,1) + 3*P(r,2)*d(f1,r)"
    )
    assert canonical._TEXTS and canonical._COEFFS  # a render that succeeds stores its texts

