"""Side by side: the operator kernels of a git revision against the working tree.

    python tests/compare_kernels.py [REV]     # REV defaults to HEAD

Runs the package twice, in two processes: once from a `git archive` of
REV's src/ in a temporary directory, once from the working tree's src/.
Each process runs the same ops: the `symbolic` workload's requests
(bench/workloads.symbolic_blocks, seeds 1-4, 4 blocks each, run the way
bench/worker.py runs them) and every report of the verification matrix.
Per `diff` or `apply` op it records the error type and text if the op
raises, else the rendered text and a digest of the map's items in
insertion order of each output, each monomial taken as a plain tuple;
per report, its to_dict().  Any difference is a mismatch.  Prints the op
and mismatch counts, and exits 1 on any mismatch.  bench/ is read, not
written: it is put on sys.path with bytecode writing off.  Not collected
by pytest: its name does not start with test_.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_series import extract

ROOT = Path(__file__).resolve().parents[1]
SEEDS, BLOCKS = (1, 2, 3, 4), 4


def outputs():
    """(op label, what the op gives) for every op, in a fixed order."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import fracquat as fq
    from workloads import symbolic_blocks

    apply_ops = {
        "mt": lambda f: fq.mt_apply(f, "left"),
        "mt-right": lambda f: fq.mt_apply(f, "right"),
        "laplacian": fq.laplacian,
        "bitsadze": fq.bitsadze,
        "helmholtz": lambda f: fq.helmholtz_residual(f, "formal"),
    }

    def seen(ce):
        # each key as a plain tuple, so that a tuple subclass digests like its fields
        items = [(tuple(m), p) for m, p in ce.terms.items()]
        order = hashlib.sha256(repr(items).encode()).hexdigest()
        return [fq.render_canonical(ce), order]

    for seed in SEEDS:
        blocks = symbolic_blocks(seed)
        for b in range(BLOCKS):
            for i, op in enumerate(next(blocks)):
                frame = fq.frame_by_name(op["frame"])
                label = f"seed {seed} block {b} op {i} ({op['kind']} {op.get('operator') or ''})"
                try:
                    if op["kind"] == "diff":
                        ce = fq.canon(op["expr"], frame)
                        out = seen(fq.differentiate(ce, op["var"], fq.DerivativeMode("derivation")))
                    else:
                        comps = (fq.canon(c, frame) for c in op["components"])
                        f = fq.QuaternionField(frame, *comps)
                        out = [seen(c) for c in apply_ops[op["operator"]](f).components]
                except fq.ExpressionError as exc:  # a boundary input past a limit
                    out = [type(exc).__name__, str(exc)]
                yield label, out
    for report in fq.verify_all():
        yield f"verify {report.identity} {report.frame}", report.to_dict()


def run(src):
    """Start a process that prints outputs() as JSON lines, with the package from src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, __file__, "--emit"], env=env, stdout=subprocess.PIPE, text=True
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        for label, out in outputs():
            print(json.dumps([label, out]))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.rev, "src", tmp)
        old, new = run(Path(tmp) / "src"), run(ROOT / "src")
        want, got = old.communicate()[0].splitlines(), new.communicate()[0].splitlines()
    if old.returncode or new.returncode:
        print(f"a run failed: exit {old.returncode} at {args.rev}, {new.returncode} in the tree")
        return 1
    mismatches = sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))
    for a, b in [(a, b) for a, b in zip(want, got) if a != b][:10]:
        print(f"mismatch at {json.loads(a)[0]}")
    print(f"{len(want)} ops against {args.rev}: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
