"""Seeded inputs for the three workloads and the checks of their outputs.

Each op is a dict.  The keys the worker reads are `kind`, `cls` and the
arguments of the call; `check` holds what the parent needs to judge the
output and is never sent to the worker.
"""

from __future__ import annotations

import math
import random

import oracle

FRAMES = {
    "cartesian": ("x", "y", "z"),
    "cylindrical": ("r", "theta", "z"),
    "spherical": ("r", "theta", "psi"),
}
FRAME_NAMES = tuple(sorted(FRAMES))
OPERATORS = ("mt", "mt-right", "laplacian", "bitsadze", "helmholtz")

# --- verify -------------------------------------------------------------------

# the 14-report matrix of `fracquat verify`; the factorizations are the
# large class, the first-order identities the small one
VERIFY_MATRIX = (
    ("mt_squared", ("cartesian", "cylindrical", "spherical")),
    ("bitsadze_factorization", ("cylindrical", "spherical")),
    ("helmholtz_factorization", ("cartesian", "cylindrical", "spherical")),
    ("curl_grad", ("cylindrical", "spherical")),
    ("div_curl", ("cylindrical", "spherical")),
    ("div_grad_delta0", ("cylindrical", "spherical")),
)
_FACTORIZATIONS = ("mt_squared", "bitsadze_factorization", "helmholtz_factorization")


def verify_passes(seed):
    """Endless sequence of passes; each is the matrix in a seeded order."""
    rng = random.Random(seed)
    reports = [
        {
            "kind": "verify",
            "cls": "large" if name in _FACTORIZATIONS else "small",
            "name": name,
            "frame": frame,
        }
        for name, frames in VERIFY_MATRIX
        for frame in frames
    ]
    while True:
        order = list(reports)
        rng.shuffle(order)
        yield [dict(op) for op in order]


def verify_control(seed):
    """D(D f) - Laplacian f, which is -2 Laplacian f and so never zero."""
    frame = random.Random(seed).choice(FRAME_NAMES)
    return {"kind": "control", "cls": "control", "frame": frame}


# the failures the seed commit shows, by workload and op class.  A run is
# correct while each failure it counts is one of these; a failure in any
# other class, or of a new kind, makes it incorrect
KNOWN_FAILURES = {
    ("symbolic", "boundary"): {"raised:RecursionError"},
    ("numeric", "large"): {"wrong:inaccurate", "raised:SeriesConvergenceError"},
}


def unexpected_failures(workload, table):
    """{class: {kind: count}} of the failures KNOWN_FAILURES does not name."""
    out = {}
    for cls, counts in table.items():
        known = KNOWN_FAILURES.get((workload, cls), set())
        bad = {k: n for k, n in counts.items() if k != "attempted" and k not in known}
        if bad:
            out[cls] = bad
    return out


def check_verify(op, result):
    ok, payload = result
    if not ok:
        return "raised:" + payload["type"]
    passed, zero = payload
    if passed and all(zero):
        return None
    return "wrong:residual_nonzero"


def check_control(result):
    ok, payload = result
    return ok and any(payload)


# --- symbolic -----------------------------------------------------------------

SMALL_TERMS, LARGE_TERMS = 20, 200
LONG_SUM_TERMS, NEST_DEPTH = 3000, 1200
_EA_SCALES = ("1", "2", "-1", "1/2", "lam", "3i")
_COEFFS = ("1", "2", "3", "5", "7", "1/2", "3/4", "2i", "lam", "(1 + 2i)", "(2 - 1i)")


# the kinds of factor a term draws, in their shares per 50 draws.  Each
# input deals its factors from this deck, reshuffled whenever it runs
# out, so inputs of one class hold each kind in nearly the same share and
# cost alike (over five seeds, the spread of symbolic ops_per_s fell from
# 10% with independent draws to 6%)
_FACTOR_DECK = (
    ("P",) * 15 + ("sina",) * 4 + ("sina^2",) * 2 + ("sina^3",) * 2 + ("cosa",) * 7
    + ("Ea",) * 6 + ("comp",) * 6 + ("d1",) * 4 + ("d2",) * 4
)


class _TermGen:
    def __init__(self, rng, variables):
        self.rng = rng
        self.vars = variables
        self.deck = []

    def factor(self):
        rng, v = self.rng, self.rng.choice(self.vars)
        if not self.deck:
            self.deck = list(_FACTOR_DECK)
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "P":
            return f"P({v},{rng.choice((-2, -1, 1, 2, 3))})"
        if kind.startswith("sina"):
            return kind.replace("sina", f"sina({v})")
        if kind == "cosa":
            return f"cosa({v})"
        if kind == "Ea":
            return f"Ea({rng.choice(_EA_SCALES)}, {v})"
        comp = f"f{rng.randrange(4)}"
        if kind == "comp":
            return comp
        idx = ",".join(rng.choice(self.vars) for _ in range(int(kind[1])))
        return f"d({comp},{idx})"

    def unit(self):
        v = self.rng.choice(self.vars)
        if self.rng.random() < 0.5:
            return f"P({v},{self.rng.choice((1, 2))})"
        return f"sina({v})"

    def product(self, divide=False):
        out = "*".join([self.rng.choice(_COEFFS), self.factor(), self.factor()])
        return out + "/" + self.unit() if divide else out

    def terms(self, n):
        """A sum of exactly n terms of one shape: a coefficient times two
        factors; in every ten terms one is divided by a unit and two come
        as a sub-sum multiplied by a factor.  Which generators appear is
        random; how many does not, so inputs of one class cost alike."""
        pieces = []
        i = 0
        while i < n:
            if i % 10 == 8 and i + 1 < n:
                pieces.append(f"({self.product()} + {self.product()})*{self.factor()}")
                i += 2
            else:
                pieces.append(self.product(divide=i % 10 == 4))
                i += 1
        out = pieces[0]
        for p in pieces[1:]:
            out += (" - " if self.rng.random() < 0.3 else " + ") + p
        return out


def _check_context(rng, variables):
    point = {}
    for v in variables:
        point[v] = rng.uniform(0.5, 1.3) if v in ("theta", "psi") else rng.uniform(0.6, 1.6)
    return {
        "point": point,
        "lam": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        "comp_coeffs": {k: [rng.uniform(-0.6, 0.6) for _ in variables] for k in range(4)},
    }


def _symbolic_op(rng, kind, operator, cls, frame):
    variables = FRAMES[frame]
    gen = _TermGen(rng, variables)
    op = {"kind": kind, "cls": cls, "frame": frame}
    check = _check_context(rng, variables)
    if kind == "diff":
        n = SMALL_TERMS if cls == "small" else LARGE_TERMS
        op["var"] = rng.choice(variables)
        op["expr"] = check["text"] = gen.terms(n)
    else:
        n = (SMALL_TERMS if cls == "small" else LARGE_TERMS) // 4
        op["operator"] = operator
        op["components"] = [gen.terms(n) for _ in range(4)]
    op["terms"] = n if kind == "diff" else 4 * n
    op["check"] = check
    return op


def _boundary_op(rng, long_sum):
    frame = rng.choice(FRAME_NAMES)
    variables = FRAMES[frame]
    gen = _TermGen(rng, variables)
    op = {"kind": "diff", "cls": "boundary", "frame": frame, "var": rng.choice(variables)}
    check = _check_context(rng, variables)
    if long_sum:
        op["expr"] = check["text"] = gen.terms(LONG_SUM_TERMS)
        op["terms"] = LONG_SUM_TERMS
    else:
        core = gen.product()
        op["expr"] = "(" * NEST_DEPTH + core + " + 1)" * NEST_DEPTH
        check["text"] = f"{core} + {NEST_DEPTH}"
        op["terms"] = NEST_DEPTH + 1
    op["check"] = check
    return op


REQUESTS = ("diff",) + OPERATORS


def symbolic_blocks(seed):
    """Endless sequence of 25-op blocks; no input repeats.

    There are no usage data to draw a request mix from, so every request
    type (`diff` and the five operators of `apply`) gets an equal share
    in every frame and size class.  A block holds a small request of each
    type in each frame (18 ops), a large request of each type (6 ops,
    frames rotating with the block number so that every three blocks
    cover each type in each frame) and one boundary input, a long sum
    and a deep nesting in turn.  Large ops are 6 of 25, the "about 1/4"
    the benchmark's definition asks for.  Runs stop at whole blocks, so
    every run does the same mix of work; the seed draws the inputs and
    their order.
    """
    rng = random.Random(seed)
    block_no = 0
    while True:
        block = []
        for frame in FRAME_NAMES:
            block += [_symbolic_request(rng, r, "small", frame) for r in REQUESTS]
        for i, request in enumerate(REQUESTS):
            frame = FRAME_NAMES[(i + block_no) % len(FRAME_NAMES)]
            block.append(_symbolic_request(rng, request, "large", frame))
        block.append(_boundary_op(rng, long_sum=block_no % 2 == 0))
        rng.shuffle(block)
        block_no += 1
        yield block


def _symbolic_request(rng, request, cls, frame):
    if request == "diff":
        return _symbolic_op(rng, "diff", None, cls, frame)
    return _symbolic_op(rng, "apply", request, cls, frame)


# tolerance fixed before measuring: outputs are sums of at most a few
# thousand O(1..100) terms, so double rounding stays far below it
SYMBOLIC_RTOL = 1e-9


def _close(got, expected, scale):
    return abs(got - expected) <= SYMBOLIC_RTOL * max(1.0, scale, abs(expected))


def check_symbolic(op, result):
    ok, payload = result
    if not ok:
        if op["cls"] == "boundary" and payload["expr_error"]:
            return None
        return "raised:" + payload["type"]
    frame = op["frame"]
    variables = FRAMES[frame]
    ctx = op["check"]

    def sem(order):
        return oracle.Semantics(variables, ctx["point"], ctx["lam"], ctx["comp_coeffs"], order)

    outputs = [payload] if op["kind"] == "diff" else payload
    got = []
    try:
        out_sem = sem(0)
        for text in outputs:
            got.append(oracle.evaluate(text, out_sem))
    except (ValueError, KeyError, IndexError, ZeroDivisionError, OverflowError):
        return "wrong:unreadable_output"
    if op["kind"] == "diff":
        value, _ = oracle.evaluate(ctx["text"], sem(1))
        expected = [value.d(variables.index(op["var"])).value]
    else:
        order = 1 if op["operator"] in ("mt", "mt-right") else 2
        comp_sem = sem(order)
        comps = [oracle.evaluate(text, comp_sem)[0] for text in op["components"]]
        expected = oracle.apply_operator(op["operator"], frame, comps, comp_sem)
    for (value, scale), exp in zip(got, expected):
        if not _close(value, exp, scale):
            return "wrong:value_mismatch"
    return None


# --- numeric --------------------------------------------------------------------

ALPHAS = (0.5, 0.75, 1.0)
SERIES = ("Ea", "sina", "cosa")
SHAPES = ("real+", "real-", "imag", "complex")
BANDS = {"small": (0.0, 2.0), "large": (2.0, 30.0)}
CELLS_PER_SHAPE = 16
TOL = 1e-12  # the series functions' default, which the worker uses
# a direct call may be off by 10*tol relative to max(1, |value|): the
# factor 10 leaves room for the rounding of a double result
DIRECT_RTOL = 10 * TOL
# eval sums products of up to three series values with O(1..10) weights
EVAL_RTOL = 100 * TOL
# there are no usage data to draw a mix from, so each op class gets an
# equal share: small-band calls, large-band calls, evals
NUMERIC_CLASSES = ("small", "large", "eval")
SWEEP_SEED = 0
EVAL_FIELDS, EVAL_POINTS = 24, 5
# factors per term of an eval field, and the factors of the whole field
FIELD_SHAPE = (1, 2, 3, 2, 1, 2, 3)
FIELD_KINDS = ("P",) * 4 + ("sina",) * 4 + ("cosa",) * 3 + ("Ea",) * 3


def _finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag) and abs(z) < 1e300


def _sweep(rng, band):
    """Stratified (function, alpha, u) sweep: every cell of function x
    alpha x direction x magnitude slice gets one draw whose true value
    is finite in double precision; cells with none are left out."""
    lo, hi = BANDS[band]
    out = []
    for kind in SERIES:
        for alpha in ALPHAS:
            for shape in SHAPES:
                angles = list(range(CELLS_PER_SHAPE))
                rng.shuffle(angles)
                for cell in range(CELLS_PER_SHAPE):
                    for _ in range(8):
                        mag = lo + (hi - lo) * (cell + rng.random()) / CELLS_PER_SHAPE
                        if shape == "real+":
                            u = complex(mag)
                        elif shape == "real-":
                            u = complex(-mag)
                        elif shape == "imag":
                            u = complex(0, mag)
                        else:
                            phi = 2 * math.pi * (angles[cell] + rng.random()) / CELLS_PER_SHAPE
                            u = complex(mag * math.cos(phi), mag * math.sin(phi))
                        try:
                            ref = oracle.special(kind, alpha, u)
                        except OverflowError:
                            continue
                        if _finite(ref):
                            out.append(
                                {"kind": "series", "cls": band, "fn": kind, "alpha": alpha,
                                 "u": [u.real, u.imag], "check": {"ref": ref}}
                            )
                            break
    return out


def _field_text(rng, variables):
    """A scalar field of FIELD_SHAPE terms.  Every field holds the same
    factors (FIELD_KINDS) in a seeded order, so that fields cost alike and
    the eval class does not hinge on which fields the seed draws.  No term
    holds cosa(v) twice: the canonical form rewrites cos^2 to 1 - sin^2,
    which the fractal series satisfy only at alpha = 1, so such a term has
    no single true value."""
    kinds = list(FIELD_KINDS)
    rng.shuffle(kinds)
    terms = []
    for size in FIELD_SHAPE:
        parts = [str(rng.randint(1, 9))]
        cos_vars = list(variables)
        rng.shuffle(cos_vars)
        for _ in range(size):
            kind, v = kinds.pop(), rng.choice(variables)
            if kind == "P":
                parts.append(f"P({v},{rng.choice((-1, 1, 2))})")
            elif kind == "sina":
                parts.append(f"sina({v})")
            elif kind == "cosa":
                parts.append(f"cosa({cos_vars.pop()})")
            else:
                parts.append(f"Ea({rng.choice(('1', '-1', '1/2', '1i'))}, {v})")
        terms.append("*".join(parts))
    return " + ".join(terms)


def numeric_inputs(seed):
    """(fields to normalize during set-up, sweep by band, eval ops).

    The sweep is drawn from SWEEP_SEED, not from `seed`: every run meets
    the same large-band inputs, so it counts the same series failures
    (see numeric_batches).  `seed` draws the eval fields and points and
    the order of every op."""
    sweep_rng = random.Random(SWEEP_SEED)
    sweep = {band: _sweep(sweep_rng, band) for band in BANDS}
    rng = random.Random(seed)
    fields = []
    evals = []
    for fid in range(EVAL_FIELDS):
        frame = rng.choice(FRAME_NAMES)
        variables = FRAMES[frame]
        alpha = ALPHAS[fid % len(ALPHAS)]
        text = _field_text(rng, variables)
        fields.append({"frame": frame, "text": text})
        for _ in range(EVAL_POINTS):
            # v^alpha <= 2 keeps every series argument in the small band
            point = {v: rng.uniform(0.3, 2.0) for v in variables}
            sem = oracle.Semantics(variables, point, 0, order=0, alpha=alpha)
            ref, scale = oracle.evaluate(text, sem)
            evals.append(
                {"kind": "eval", "cls": "eval", "field": fid, "alpha": alpha,
                 "point": point, "check": {"ref": ref, "scale": scale}}
            )
    return fields, {"small": sweep["small"], "large": sweep["large"], "eval": evals}


def numeric_batches(seed, pools):
    """Endless sequence of batches of blocks, each block one op of every
    class in seeded order; each pool is walked in a fresh seeded order
    once it is used up.  A batch has as many blocks as the large pool has
    inputs, so it holds every large-band input exactly once, and every
    batch, whatever the seed, counts the same large-band failures."""
    rng = random.Random(seed + 1)
    queues = {name: [] for name in pools}
    while True:
        batch = []
        for _ in range(len(pools["large"])):
            block = list(NUMERIC_CLASSES)
            rng.shuffle(block)
            for name in block:
                if not queues[name]:
                    queues[name] = list(pools[name])
                    rng.shuffle(queues[name])
                batch.append(queues[name].pop())
        yield batch


def check_numeric(op, result):
    ok, payload = result
    if not ok:
        return "raised:" + payload["type"]
    got = complex(*payload)
    if not _finite(got):
        return "wrong:nonfinite"
    ref = op["check"]["ref"]
    if op["kind"] == "eval":
        bound = EVAL_RTOL * max(1.0, op["check"]["scale"])
    else:
        bound = DIRECT_RTOL * max(1.0, abs(ref))
    if abs(got - ref) > bound:
        return "wrong:inaccurate"
    return None
