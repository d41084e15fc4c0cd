"""Side by side: the series kernel of a git revision against the working tree.

    python tests/compare_series.py [REV]     # REV defaults to HEAD

Loads src/fracquat/series.py twice, once from the revision (by `git
archive` into a temporary directory) and once from the working tree, and
makes the same 200 000 seeded calls of evaluate_series on both (about 75
s with CPython 3.11 on one x86-64 core).  Each call's outcome is its
value bits and term count, or its error type, text and
last_term_magnitude bits; any difference is a mismatch.  Prints the
call, refusal and mismatch counts, and exits 1 on any mismatch.

The mix: the three kinds; alpha 0.5, 0.75 or 1, or uniform in (0.01, 1);
|u| log-uniform in (e^-6, e^4.5), or in (1e-300, 1e308); u real, imaginary
(either sign) or in a uniform direction; tol 1e-12, or log-uniform in
(1e-320, 1e308).  Not collected by pytest: its name does not start with
test_.
"""

import argparse
import cmath
import importlib.util
import io
import math
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SERIES = "src/fracquat/series.py"
CALLS = 200_000


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def extract(rev, path, tmp):
    """Write path (a file or directory of the repository) as it is at the
    git revision rev under the directory tmp."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, path],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp)


def load_revision(rev, tmp):
    extract(rev, SERIES, tmp)
    return load(Path(tmp) / SERIES, "series_at_revision")


def outcome(module, kind, alpha, u, tol):
    """What a call gives, bit for bit."""
    try:
        value, terms = module.evaluate_series(kind, alpha, u, tol)
    except Exception as exc:  # compared by type name, text and magnitude
        mag = getattr(exc, "last_term_magnitude", None)
        return type(exc).__name__, str(exc), None if mag is None else mag.hex()
    return value.real.hex(), value.imag.hex(), terms


def calls(rng, n):
    for _ in range(n):
        kind = rng.choice(("Ea", "sina", "cosa"))
        alpha = rng.choice((0.5, 0.75, 1.0)) if rng.random() < 0.5 else rng.uniform(0.01, 1.0)
        if rng.random() < 0.8:
            modulus = math.exp(rng.uniform(-6.0, 4.5))
        else:
            modulus = 10.0 ** rng.uniform(-300.0, 308.0)
        direction = rng.choice((1, -1, 1j, -1j, cmath.rect(1.0, rng.uniform(-math.pi, math.pi))))
        tol = 1e-12 if rng.random() < 0.5 else 10.0 ** rng.uniform(-320.0, 308.0)
        yield kind, alpha, complex(modulus * direction), tol


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = load_revision(args.rev, tmp)
    new = load(ROOT / SERIES, "series_in_tree")
    refused = raised = mismatches = 0
    for call in calls(random.Random(0), CALLS):
        got, want = outcome(new, *call), outcome(old, *call)
        if got != want:
            mismatches += 1
            if mismatches <= 10:
                print(f"mismatch at {call}: {want} -> {got}")
        elif "-term budget" in str(got[1]):
            refused += 1
        elif not isinstance(got[2], int):
            raised += 1
    print(
        f"{CALLS} calls against {args.rev}: {refused} refused, "
        f"{raised} raised in the loop, {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
