"""The per-process tables of the ring and render: the product of two
exponent groups (an lru_cache of canonical._add_exponents), and the text
of each factor and of each one-term coefficient (dicts).  A table only
saves work, so what it serves must be what a fresh computation gives,
under threads and past its bound too."""

import random
import sys
import threading
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fracquat import FRAMES, canonical, d_alpha, parse, render_canonical
from fracquat.canonical import CanonicalExpr, Monomial
from fracquat.cli import _OPERATORS
from fracquat.coefficients import CRat
from fracquat.expr import ExpressionError, var_index

from strategies import exprs

TABLES = (canonical._TEXTS, canonical._COEFFS)  # the dict tables
RENDER = Path(__file__).parent / "data" / "render"
R, Z = var_index("r"), var_index("z")


def _clear():
    for table in TABLES:
        table.clear()
    canonical._add_exponents.cache_clear()


def _products_of_size(monkeypatch, size):
    """Bound the dict tables and the product cache at size entries."""
    monkeypatch.setattr(canonical, "TABLE_SIZE", size)
    products = lru_cache(maxsize=size)(canonical._add_exponents.__wrapped__)
    monkeypatch.setattr(canonical, "_add_exponents", products)
    return products


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
    uncached = canonical._add_exponents.__wrapped__
    with patch.multiple(canonical, _add_exponents=uncached, _TEXTS=_Unread(), _COEFFS=_Unread()):
        return [_outcome(*call) for call in calls]


def _calls(a, b, var):
    """Products (the no-cos^2 path among them), d_alpha, and render of each
    result: each kernel that reads a table, and d_alpha, whose output
    render reads."""
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
    products = _products_of_size(monkeypatch, 16)
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
    assert products.cache_info().currsize <= 16


def test_filling_past_the_bound_leaves_every_table_at_or_under_it(monkeypatch):
    products = _products_of_size(monkeypatch, 32)
    _clear()
    sizes, cached = {id(table): [] for table in TABLES}, []
    for n in range(1, 40):
        # distinct groups, factors and coefficients each round
        a = CanonicalExpr({Monomial(powers=((Z, n), (R, 1)), lam=1): CRat(1, n)})
        b = CanonicalExpr({Monomial(powers=((R, n),)): 1})
        c = CanonicalExpr.component(n % 4, ["r"] * n)
        render_canonical(a * b + d_alpha(c, "z"))
        for table in TABLES:
            sizes[id(table)].append(len(table))
        cached.append(products.cache_info().currsize)
    for history in sizes.values():
        assert 0 < max(history) <= 32 and history != sorted(history)  # cleared when full
    assert max(cached) == 32 and cached[-1] == 32  # the least recently used is dropped


def test_a_render_that_fails_raises_and_the_next_render_is_right():
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
    _clear()
    assert render_canonical(ce - CanonicalExpr({Monomial(powers=((Z, 1), (R, n))): 1})) == (
        "(1 + 2i)*lam*P(z,1) + 3*P(r,2)*d(f1,r)"
    )
    assert canonical._TEXTS and canonical._COEFFS  # a render that succeeds stores its texts

