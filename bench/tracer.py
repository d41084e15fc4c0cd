"""Per-layer tracing of fracquat, installed from outside the package.

Each traced entry point is replaced, in every fracquat module namespace
and class dictionary that binds it, by a wrapper.  Modules import each
other's functions with `from .x import y`, so patching only the defining
module would miss most calls.  Calls that take microseconds (the
coefficient ring operations, CanonicalExpr addition, power and inverse)
get counters; the rest get spans, whose self time is their duration minus
the time covered by their child spans.  An entry point that no longer
exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import sys
from time import perf_counter

SMALL_BAND = 2.0


def _terms(x):
    terms = getattr(x, "terms", None)
    return len(terms) if isinstance(terms, dict) else 1


def _verify_name(args, kwargs):
    return "quatops.verify." + str(args[0] if args else kwargs.get("name"))


def _banded(base):
    def name(args, kwargs):
        u = args[1] if len(args) > 1 else kwargs.get("u", 0)
        return f"{base}.{'small' if abs(complex(u)) <= SMALL_BAND else 'large'}"

    return name


# (metric base, module, attribute); a span is named by its base unless
# NAMERS derives the name from the call's arguments
SPANS = (
    ("parser.parse", "fracquat.parser", "parse"),
    ("canonical.normalize", "fracquat.canonical", "normalize"),
    ("canonical.mul", "fracquat.canonical", "CanonicalExpr.__mul__"),
    ("canonical.render", "fracquat.canonical", "render_canonical"),
    ("canonical.eval", "fracquat.canonical", "eval_canonical"),
    ("derivative.d_alpha", "fracquat.derivative", "d_alpha"),
    ("vectorops.grad", "fracquat.vectorops", "grad_alpha"),
    ("vectorops.div", "fracquat.vectorops", "div_alpha"),
    ("vectorops.curl", "fracquat.vectorops", "curl_alpha"),
    ("quatops.mt_apply", "fracquat.quatops", "mt_apply"),
    ("quatops.delta0", "fracquat.quatops", "delta0"),
    ("quatops.laplacian", "fracquat.quatops", "laplacian"),
    ("quatops.bitsadze", "fracquat.quatops", "bitsadze"),
    ("quatops.helmholtz_residual", "fracquat.quatops", "helmholtz_residual"),
    ("quatops.verify", "fracquat.quatops", "verify_identity"),
    ("series.ml_exp", "fracquat.series", "ml_exp"),
    ("series.sin_alpha", "fracquat.series", "sin_alpha"),
    ("series.cos_alpha", "fracquat.series", "cos_alpha"),
)
NAMERS = {
    "quatops.verify": _verify_name,
    "series.ml_exp": _banded("series.ml_exp"),
    "series.sin_alpha": _banded("series.sin_alpha"),
    "series.cos_alpha": _banded("series.cos_alpha"),
}

COUNTERS = (
    ("canonical.add", "fracquat.canonical", "CanonicalExpr.__add__"),
    ("canonical.pow", "fracquat.canonical", "CanonicalExpr.__pow__"),
    ("canonical.inverse", "fracquat.canonical", "CanonicalExpr.inverse"),
    ("coefficients.poly_add", "fracquat.coefficients", "Poly.__add__"),
    ("coefficients.poly_mul", "fracquat.coefficients", "Poly.__mul__"),
    ("coefficients.crat_mul", "fracquat.coefficients", "CRat.__mul__"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # time covered by children, one entry per open span
        self.cls = "none"
        self.op = 0
        self.spans = {}  # (name, op class) -> [calls, self seconds, ops touched, last op]
        self.counts = {}
        self.peak_terms = 0
        self.missing = []

    # -- op boundaries ---------------------------------------------------------

    def begin_op(self, cls):
        self.op += 1
        self.cls = cls
        self.stack.clear()

    def end_op(self):
        # a RecursionError can unwind through wrappers without closing them
        self.stack.clear()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _note_size(self, out):
        n = _terms(out)
        if n > self.peak_terms:
            self.peak_terms = n
        return n

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, extra):
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop() if stack else 0.0
                if stack:
                    stack[-1] += dur
                key = (label, self.cls)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0, -1]
                agg[0] += 1
                agg[1] += dur - child
                if agg[3] != self.op:
                    agg[2] += 1
                    agg[3] = self.op
            if extra is not None:
                extra(args, out)
            return out

        return wrapper

    def _counter(self, name, fn, extra):
        counts = self.counts
        counts.setdefault(name + ".calls", 0)
        key = name + ".calls"

        def wrapper(*args):
            counts[key] += 1
            out = fn(*args)
            if extra is not None:
                extra(args, out)
            return out

        return wrapper

    def _extras(self):
        def parse(args, out):
            self.count("parser.chars", len(args[0]) if args and isinstance(args[0], str) else 0)

        def normalize(args, out):
            self._note_size(out)

        def mul(args, out):
            self.count("canonical.mul.term_pairs", _terms(args[0]) * _terms(args[1]))
            self._note_size(out)

        def add(args, out):
            self.count("canonical.add.terms_in", _terms(args[0]) + _terms(args[1]))
            self._note_size(out)

        def render(args, out):
            self.count("canonical.render.chars", len(out))

        def d_alpha(args, out):
            self.count("derivative.d_alpha.terms_in", _terms(args[0]))
            self.count("derivative.d_alpha.terms_out", self._note_size(out))

        return {
            "parser.parse": parse,
            "canonical.normalize": normalize,
            "canonical.mul": mul,
            "canonical.add": add,
            "canonical.render": render,
            "derivative.d_alpha": d_alpha,
        }

    # -- installation --------------------------------------------------------------

    def install(self):
        extras = self._extras()
        for base, module, attr in SPANS:
            name = NAMERS.get(base, base)
            self._patch(base, module, attr, lambda fn: self._span(name, fn, extras.get(base)))
        for base, module, attr in COUNTERS:
            self._patch(base, module, attr, lambda fn: self._counter(base, fn, extras.get(base)))

    def _patch(self, base, module_name, attr, make):
        module = sys.modules.get(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, member, None)
        if not callable(original):
            self.missing.append(base)
            return
        wrapper = make(original)
        if owner_name:
            targets = [owner]
        else:
            targets = [
                m for n, m in list(sys.modules.items())
                if m is not None and (n == "fracquat" or n.startswith("fracquat."))
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)

    def report(self):
        spans = {}
        for (label, cls), (calls, self_s, ops, _) in self.spans.items():
            spans.setdefault(label, {})[cls] = [calls, self_s, ops]
        return {
            "spans": spans,
            "counts": self.counts,
            "peak_terms": self.peak_terms,
            "missing": self.missing,
        }
