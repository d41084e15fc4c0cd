"""Benchmark worker: one fresh interpreter that runs fracquat ops.

Usage (the parent, run.py, starts it): worker.py <workload> <trace 0|1>

Protocol, one JSON document per line:
  parent -> worker  {"prep": ...}                  set-up input
  worker -> parent  {"imported": t, "prep_s": s, "calibration": [s, ...]}
                                                   t on CLOCK_MONOTONIC
  parent -> worker  {"ops": [...]}                 run every op, in order
  worker -> parent  {"results": [...], "calibration": [s, ...]}
  parent -> worker  {"stop": true}
  worker -> parent  {"peak_rss_kb": n, "trace": {...} or null}

Each result is [latency_s, ok, payload, calibration slices before it].
The worker only calls public fracquat functions, the way the CLI does,
and never judges an output.  After every CALIBRATE_EVERY_S of op time
it times a fixed calibration slice that does not touch fracquat, so the
parent can follow the host's speed.

An op's latency, like a calibration slice, is the worker thread's CPU
time (time.thread_time).  The ops are CPU-bound and single-threaded, so
that is their wall time less the time the shared host preempts the
worker: on wall time, stalls of 5-20 ms landed on ops of 0.1-1 ms and
moved numeric's tail by up to 2x between runs.
"""

import time

import fracquat

# set-up time runs from the parent's spawn to here, so nothing else
# is imported before fracquat
IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

CALIBRATE_EVERY_S = 0.02
SETUP_SLICES = 5


def _send(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _recv():
    line = sys.stdin.readline()
    if not line:
        raise SystemExit(1)
    return json.loads(line)


def _prepare(prep):
    """Package-side set-up: the numeric workload normalizes its fields."""
    fields = []
    for spec in prep.get("fields", ()):
        frame = fracquat.frame_by_name(spec["frame"])
        fields.append(fracquat.canon(spec["text"], frame))
    return fields


def _dispatch(fields):
    fq = fracquat
    apply_ops = {
        "mt": lambda f: fq.mt_apply(f, "left"),
        "mt-right": lambda f: fq.mt_apply(f, "right"),
        "laplacian": lambda f: fq.laplacian(f),
        "bitsadze": lambda f: fq.bitsadze(f),
        "helmholtz": lambda f: fq.helmholtz_residual(f, "formal"),
    }
    series = {"Ea": "ml_exp", "sina": "sin_alpha", "cosa": "cos_alpha"}

    def verify(op):
        report = fq.verify_identity(op["name"], op["frame"])
        return [report.passed, [r.is_zero() for r in report.residuals]]

    def control(op):
        f = fq.abstract_field(fq.frame_by_name(op["frame"]))
        residual = fq.mt_apply(fq.mt_apply(f)) - fq.laplacian(f)
        return [not c.is_zero() for c in residual.components]

    def diff(op):
        frame = fq.frame_by_name(op["frame"])
        out = fq.differentiate(fq.canon(op["expr"], frame), op["var"], fq.DerivativeMode("derivation"))
        return fq.render_canonical(out)

    def apply(op):
        frame = fq.frame_by_name(op["frame"])
        f = fq.QuaternionField(frame, *(fq.canon(c, frame) for c in op["components"]))
        out = apply_ops[op["operator"]](f)
        return [fq.render_canonical(c) for c in out.components]

    def direct(op):
        value = getattr(fq, series[op["fn"]])(op["alpha"], complex(*op["u"]))
        return [value.real, value.imag]

    def evaluate(op):
        value = fq.eval_canonical(fields[op["field"]], op["alpha"], op["point"])
        return [value.real, value.imag]

    return {
        "verify": verify,
        "control": control,
        "diff": diff,
        "apply": apply,
        "series": direct,
        "eval": evaluate,
    }


def calibrate():
    """Fixed pure-Python work of the same kind as the symbolic layers
    (dicts, tuples, Fraction arithmetic).  The host's speed drifts by tens
    of percent within minutes; this slice drifts with it."""
    t0 = time.thread_time()
    acc = {}
    x = Fraction(1, 3)
    for i in range(600):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + x * (i % 7)
        if i % 50 == 0:
            x += Fraction(1, i + 2)
    return time.thread_time() - t0


def _run(call, op, tracer):
    if tracer is not None:
        tracer.begin_op(op["cls"])
    t0 = time.thread_time()
    try:
        out = call(op)
        ok = True
    except Exception as exc:  # every op has its own failure boundary
        out = {
            "type": type(exc).__name__,
            "expr_error": isinstance(exc, fracquat.ExpressionError),
            "message": str(exc)[:200],
        }
        ok = False
    latency = time.thread_time() - t0
    if tracer is not None:
        tracer.end_op()
    return [latency, ok, out]


def main():
    traced = sys.argv[2] == "1"
    t0 = time.perf_counter()
    fields = _prepare(_recv()["prep"])
    prep_s = time.perf_counter() - t0
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    calls = _dispatch(fields)
    # the host's speed at set-up time, so the parent can scale prep_s
    slices = [calibrate() for _ in range(SETUP_SLICES)]
    _send({"imported": IMPORTED, "prep_s": prep_s, "calibration": slices})
    while True:
        msg = _recv()
        if msg.get("stop"):
            break
        results, slices = [], []
        since = 0.0
        for op in msg["ops"]:
            results.append(_run(calls[op["kind"]], op, tracer) + [len(slices)])
            since += results[-1][0]
            while since >= CALIBRATE_EVERY_S:
                slices.append(calibrate())
                since -= CALIBRATE_EVERY_S
        if not slices:
            slices.append(calibrate())
        _send({"results": results, "calibration": slices})
    _send(
        {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.report() if tracer is not None else None,
        }
    )


if __name__ == "__main__":
    main()
