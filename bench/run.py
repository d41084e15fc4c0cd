"""fracquat benchmark.

    python3 bench/run.py --workload {verify,symbolic,numeric} --seed N
                         --seconds S --trace {0,1}

Run from the repository root.  The load is a closed loop with a single
caller: one worker interpreter runs one op at a time, and the next op is
sent when the previous one has returned.  The `verify` workload starts a
fresh worker for every pass over the identity matrix, one after another.

Every run does a fixed number of batches, --seconds times a per-workload
rate that the seed commit completes in about --seconds, so that a seed
and --seconds give the same ops, and the same count of known failures,
on every run.  With --trace 0 the last line of standard output holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run of the same ops.  The line before it holds
details: failure counts by class and kind, the tail percentile, sample
counts and any per-layer metric that is missing or does not apply.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fracquat")
WORKER = os.path.join(BENCH, "worker.py")
ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

RUN_LIMIT_S = 170.0
SETUP_PROBES = 9
CLI_PROBES = 5
# batches per second of --seconds: about what the seed commit completes
# in that time
VERIFY_PASSES_PER_S = 3.5
SYMBOLIC_BLOCKS_PER_S = 0.45
NUMERIC_BATCHES_PER_S = 0.9
# a run whose batches take longer than this many times --seconds stops
# early, so that a much slower commit still gets a result
STOP_AFTER_SECONDS = 4
# median calibration slice (worker.calibrate) at the reference speed
CALIBRATION_REF_S = 0.002
WINDOW_SLICES = 20

MODULES = (
    "__init__", "__main__", "canonical", "cli", "coefficients", "derivative", "expr",
    "frames", "parser", "quaternion", "quatops", "series", "vectorops",
)
QUATOPS = ("mt_apply", "delta0", "laplacian", "bitsadze", "helmholtz_residual")
SCALED = (
    "parser.parse", "canonical.normalize", "canonical.mul", "derivative.d_alpha",
    "canonical.render",
) + tuple(f"quatops.{op}" for op in QUATOPS)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("large_mean_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    out = [
        ("parser.parse.calls", "count"), ("parser.parse.self_s", "s"), ("parser.chars", "count"),
        ("canonical.normalize.calls", "count"), ("canonical.normalize.self_s", "s"),
        ("canonical.add.calls", "count"), ("canonical.add.terms_in", "count"),
        ("canonical.mul.calls", "count"), ("canonical.mul.term_pairs", "count"),
        ("canonical.mul.self_s", "s"),
        ("canonical.pow.calls", "count"), ("canonical.inverse.calls", "count"),
        ("canonical.peak_terms", "count"),
        ("canonical.render.self_s", "s"), ("canonical.render.chars", "count"),
        ("canonical.eval.calls", "count"), ("canonical.eval.self_s", "s"),
        ("coefficients.poly_add.calls", "count"), ("coefficients.poly_mul.calls", "count"),
        ("coefficients.crat_mul.calls", "count"),
        ("derivative.d_alpha.calls", "count"), ("derivative.d_alpha.terms_in", "count"),
        ("derivative.d_alpha.terms_out", "count"), ("derivative.d_alpha.self_s", "s"),
    ]
    for op in ("grad", "div", "curl"):
        out += [(f"vectorops.{op}.calls", "count"), (f"vectorops.{op}.self_s", "s")]
    out += [(f"quatops.{op}.self_s", "s") for op in QUATOPS]
    out += [(f"quatops.verify.{name}.self_s", "s") for name, _ in workloads.VERIFY_MATRIX]
    for fn in ("ml_exp", "sin_alpha", "cos_alpha"):
        for band in ("small", "large"):
            out += [(f"series.{fn}.{band}.calls", "count"), (f"series.{fn}.{band}.self_s", "s")]
    out += [("cli.interpreter_s", "s"), ("cli.import_s", "s")]
    out += [(f"scaling.{layer}", "slope") for layer in SCALED]
    out += [("trace.overhead_frac", "ratio"), ("src.lines", "lines")]
    out += [(f"src.{mod}.lines", "lines") for mod in MODULES]
    return out


class BenchError(Exception):
    """The run cannot produce a result."""


class Clock:
    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def left(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


class Worker:
    """One worker interpreter; see worker.py for the protocol."""

    def __init__(self, clock, workload, traced, prep):
        self.clock = clock
        self.buf = b""
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, workload, "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=ENV,
        )
        try:
            self.send({"prep": prep})
            ready = self.recv()
        except BaseException:
            self.kill()
            raise
        self.setup_s = ready["imported"] - t_spawn + ready["prep_s"]
        self.setup_speed = CALIBRATION_REF_S / statistics.median(ready["calibration"])
        self.setup_calibration_s = sum(ready["calibration"])

    def send(self, doc):
        try:
            self.proc.stdin.write((json.dumps(doc) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError("worker exited early") from None

    def recv(self):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            ready, _, _ = select.select([fd], [], [], self.clock.left())
            if not ready:
                self.clock.left()
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise BenchError(f"worker exited with code {self.proc.wait()}")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def run(self, ops):
        self.send({"ops": [{k: v for k, v in op.items() if k != "check"} for op in ops]})
        return self.recv()

    def close(self):
        try:
            self.send({"stop": True})
            final = self.recv()
        finally:
            self.kill()
        return final

    def kill(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Measurement:
    def __init__(self):
        self.records = []  # (op, [latency_s, ok, payload, slice index])
        self.slices = []  # calibration slices, in time order
        self.wall = 0.0  # the measured loop's wall time, calibration included
        self.setup_calibration_s = 0.0
        self.setups = []  # (seconds, speed factor of the worker at set-up)
        self.rss_kb = 0
        self.traces = []

    def add(self, ops, out):
        base = len(self.slices)
        for op, result in zip(ops, out["results"]):
            result[3] += base
            self.records.append((op, result))
        self.slices += out["calibration"]

    def close_worker(self, worker):
        final = worker.close()
        self.rss_kb = max(self.rss_kb, final["peak_rss_kb"])
        if final["trace"] is not None:
            self.traces.append(final["trace"])

    def speed(self):
        """Factor that turns seconds measured in this run into seconds at
        the reference speed: reference calibration time over this run's."""
        return CALIBRATION_REF_S / statistics.median(self.slices)

    def wall_raw(self):
        """Wall time of the measured loop without the calibration slices."""
        return self.wall - sum(self.slices) - self.setup_calibration_s

    def normalized(self):
        """(latencies, wall seconds) at the reference speed.  Each op is
        scaled by the median of the WINDOW_SLICES calibration slices
        nearest to it in time, since the host's speed also changes within
        a run; the rest of the wall time (interpreter start-up, messages)
        by the run's overall factor."""
        factors = {}
        latencies = []
        for _, r in self.records:
            if r[3] not in factors:
                factors[r[3]] = self.factor_at(r[3])
            latencies.append(r[0] * factors[r[3]])
        rest = self.wall_raw() - sum(r[0] for _, r in self.records)
        return latencies, sum(latencies) + rest * self.speed()

    def factor_at(self, idx):
        lo = max(0, min(idx - WINDOW_SLICES // 2, len(self.slices) - WINDOW_SLICES))
        return CALIBRATION_REF_S / statistics.median(self.slices[lo:lo + WINDOW_SLICES])

    def add_setup(self, worker):
        self.setups.append((worker.setup_s, worker.setup_speed))
        self.setup_calibration_s += worker.setup_calibration_s

    def normalized_setup(self):
        """Median set-up time, each scaled by the slices its worker timed
        right after setting up."""
        return statistics.median(s * speed for s, speed in self.setups)


def measure_batches(clock, workload, batches, prep, seconds, count, probes=False,
                    traced=False):
    """Closed loop with one caller.  Runs `count` whole batches, or fewer
    once STOP_AFTER_SECONDS times `seconds` have passed.  `verify` starts
    a fresh worker per batch (one pass over the matrix), so its wall time
    holds each pass's start-up; the other workloads use one worker, and
    with `probes` first start set-up probes outside the measured loop:
    fresh interpreters that only set up, so that set-up time is a median."""
    m = Measurement()
    fresh = workload == "verify"
    if probes and not fresh:
        for _ in range(SETUP_PROBES):
            probe = Worker(clock, workload, False, prep)
            m.setups.append((probe.setup_s, probe.setup_speed))
            probe.close()
    start = time.monotonic()

    def elapsed():
        return time.monotonic() - start

    worker = None
    done = 0
    try:
        while done < count and (done == 0 or elapsed() < STOP_AFTER_SECONDS * seconds):
            ops = next(batches)
            if worker is None:
                worker = Worker(clock, workload, traced, prep)
                m.add_setup(worker)
            m.add(ops, worker.run(ops))
            if fresh:
                m.close_worker(worker)
                worker = None
            done += 1
        if worker is not None:
            m.close_worker(worker)
            worker = None
        m.wall = elapsed()
    finally:
        if worker is not None:
            worker.kill()
    return m


# -- correctness ---------------------------------------------------------------


def _round_trip_failures(m):
    """render -> reparse -> render must be a fixed point.  Checked on the
    small class only: reparsing a large output costs more than the op."""
    sys.path.insert(0, SRC)
    import fracquat

    failures = {}
    for op, (_, ok, payload, _) in m.records:
        if not ok or op["cls"] != "small":
            continue
        frame = fracquat.frame_by_name(op["frame"])
        for text in [payload] if op["kind"] == "diff" else payload:
            try:
                same = fracquat.render_canonical(fracquat.canon(text, frame)) == text
            except fracquat.ExpressionError:
                same = False
            if not same:
                failures[id(op)] = "wrong:round_trip"
                break
    return failures


def judge(workload, m):
    """Failure kind of every record, or None for a correct outcome."""
    if workload == "verify":
        return [workloads.check_verify(op, r[1:3]) for op, r in m.records]
    if workload == "numeric":
        return [workloads.check_numeric(op, r[1:3]) for op, r in m.records]
    kinds = [workloads.check_symbolic(op, r[1:3]) for op, r in m.records]
    round_trip = _round_trip_failures(m)
    return [k or round_trip.get(id(op)) for k, (op, _) in zip(kinds, m.records)]


# -- metrics -----------------------------------------------------------------------


# latency_tail_ms is the mean of the ops from this percentile up: a
# single high percentile, or a mean over a thinner tail (p99 on numeric),
# moved by 11-16% between runs of one commit, this mean by 3-6% on
# symbolic and numeric
TAIL_PERCENTILE = 90.0
TAIL_MIN_ABOVE = 10


def _tail(values, pct):
    """(nearest-rank percentile, mean of the samples from it up, samples
    above it)."""
    s = sorted(values)
    k = max(math.ceil(len(s) * pct / 100.0) - 1, 0)
    return s[k], statistics.fmean(s[k:]), len(s) - 1 - k


def end_to_end(m, kinds):
    """End-to-end metrics; times are at the reference speed."""
    lat, wall = m.normalized()
    by_cls = {}
    for t, (op, _) in zip(lat, m.records):
        by_cls.setdefault(op["cls"], []).append(t)
    failed = sum(1 for k in kinds if k is not None)
    at_pct, tail, above = _tail(lat, TAIL_PERCENTILE)
    metrics = {
        "setup_s": m.normalized_setup(),
        "ops_per_s": len(lat) / wall,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "large_mean_ms": statistics.fmean(by_cls["large"]) * 1e3,
        "success_rate": (len(lat) - failed) / len(lat),
        "peak_rss_mb": m.rss_kb / 1024.0,
    }
    raw = [r[0] for _, r in m.records]
    detail = {
        "tail_percentile": TAIL_PERCENTILE, "tail_percentile_ms": at_pct * 1e3,
        "samples": len(lat), "samples_above_tail": above,
        # too few samples above the percentile to tell it from the maximum
        "tail_resolved": above >= TAIL_MIN_ABOVE,
        "class_samples": {cls: len(v) for cls, v in by_cls.items()},
        "class_p50_ms": {cls: statistics.median(v) * 1e3 for cls, v in by_cls.items()},
        "setup_samples": len(m.setups),
        "calibration_samples": len(m.slices),
        "speed_factor": m.speed(),
        "raw": {"setup_s": statistics.median(s for s, _ in m.setups),
                "ops_per_s": len(raw) / m.wall_raw(),
                "latency_p50_ms": statistics.median(raw) * 1e3},
    }
    return metrics, detail


def failure_table(m, kinds):
    table = {}
    for (op, _), kind in zip(m.records, kinds):
        cls = table.setdefault(op["cls"], {"attempted": 0})
        cls["attempted"] += 1
        if kind is not None:
            cls[kind] = cls.get(kind, 0) + 1
    return table


def _merge_traces(traces):
    spans, counts, peak, missing = {}, {}, 0, set()
    for t in traces:
        for name, by_cls in t["spans"].items():
            for cls, vals in by_cls.items():
                acc = spans.setdefault(name, {}).setdefault(cls, [0, 0.0, 0])
                for i, v in enumerate(vals):
                    acc[i] += v
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
        peak = max(peak, t["peak_terms"])
        missing.update(t["missing"])
    return spans, counts, peak, missing


def _scaling(spans, layer, sizes):
    by_cls = spans.get(layer, {})
    small, large = by_cls.get("small"), by_cls.get("large")
    if not small or not large or "small" not in sizes or "large" not in sizes:
        return None
    t_small, t_large = small[1] / small[2], large[1] / large[2]
    if t_small <= 0 or t_large <= 0:
        return None
    return math.log(t_large / t_small) / math.log(sizes["large"] / sizes["small"])


def _median_probe(argv, parse):
    values = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True,
                             timeout=60, check=True)
        values.append(parse(out.stdout, time.perf_counter() - t0))
    return statistics.median(values)


def per_layer(workload, m_plain, m_traced):
    spans, counts, peak, missing = _merge_traces(m_traced.traces)
    speed = m_traced.speed()
    values = {}
    for name, by_cls in spans.items():
        values[name + ".calls"] = sum(v[0] for v in by_cls.values())
        values[name + ".self_s"] = sum(v[1] for v in by_cls.values()) * speed
    values.update(counts)
    values["canonical.peak_terms"] = peak

    sizes = {}
    for op, _ in m_traced.records:
        if "terms" in op:
            sizes.setdefault(op["cls"], []).append(op["terms"])
    sizes = {cls: statistics.mean(v) for cls, v in sizes.items()}
    not_applicable = []
    for layer in SCALED:
        slope = _scaling(spans, layer, sizes) if workload == "symbolic" else None
        if slope is None:
            not_applicable.append(f"scaling.{layer}")
        else:
            values[f"scaling.{layer}"] = slope

    values["trace.overhead_frac"] = m_traced.normalized()[1] / m_plain.normalized()[1] - 1.0
    values["cli.interpreter_s"] = _median_probe([sys.executable, "-c", "pass"],
                                                lambda out, wall: wall)
    values["cli.import_s"] = _median_probe(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import fracquat; "
         "print(time.perf_counter() - t)"],
        lambda out, wall: float(out))

    total = 0
    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            with open(os.path.join(PACKAGE, entry), encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            total += lines
            values[f"src.{entry[:-3]}.lines"] = lines
    values["src.lines"] = total

    metrics = {}
    absent = []
    for name, unit in per_layer_metrics():
        if name in values:
            value = values[name]
        else:
            value = 0
            if any(name.startswith(base + ".") for base in missing) or name.startswith("src."):
                absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, {"missing": absent, "not_applicable": not_applicable}


# -- entry point -----------------------------------------------------------------


def measure(clock, workload, seed, seconds, probes=False, traced=False):
    if workload == "verify":
        batches, prep = workloads.verify_passes(seed), {}
        count = max(2, round(VERIFY_PASSES_PER_S * seconds))
    elif workload == "symbolic":
        batches, prep = workloads.symbolic_blocks(seed), {}
        count = max(1, round(SYMBOLIC_BLOCKS_PER_S * seconds))
    else:
        fields, pools = workloads.numeric_inputs(seed)
        batches, prep = workloads.numeric_batches(seed, pools), {"fields": fields}
        count = max(1, round(NUMERIC_BATCHES_PER_S * seconds))
    return measure_batches(clock, workload, batches, prep, seconds, count, probes, traced)


def negative_control(clock, seed):
    op = workloads.verify_control(seed)
    worker = Worker(clock, "verify", False, {})
    try:
        out = worker.run([op])
    finally:
        worker.close()
    return workloads.check_control(out["results"][0][1:3])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "symbolic", "numeric"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no fracquat package under {SRC}", file=sys.stderr)
        return 2

    clock = Clock()
    # fill the bytecode cache first: installed packages ship it
    subprocess.run([sys.executable, "-c", "import fracquat"], cwd=ROOT, env=ENV,
                   check=True, timeout=60)

    plain = measure(clock, args.workload, args.seed, args.seconds, probes=not args.trace)
    kinds = judge(args.workload, plain)
    table = failure_table(plain, kinds)
    unexpected = workloads.unexpected_failures(args.workload, table)
    correct = not unexpected
    detail = {"workload": args.workload, "seed": args.seed,
              "failures": table, "unexpected_failures": unexpected}
    if args.workload == "verify":
        detail["negative_control_nonzero"] = negative_control(clock, args.seed)
        correct = correct and detail["negative_control_nonzero"]
    if args.trace:
        traced = measure(clock, args.workload, args.seed, args.seconds, traced=True)
        # an op may fail in one run only (tracing deepens the stack), but
        # two successful runs of one op must give the same output
        same = len(traced.records) == len(plain.records) and all(
            a[2] == b[2]
            for (_, a), (_, b) in zip(plain.records, traced.records)
            if a[1] and b[1]
        )
        detail["traced_outputs_match"] = same
        correct = correct and same
        metrics, extra = per_layer(args.workload, plain, traced)
        detail.update(extra)
    else:
        values, extra = end_to_end(plain, kinds)
        detail.update(extra)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted = len(plain.records)
    failed = sum(1 for k in kinds if k is not None)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
