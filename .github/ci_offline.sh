#!/usr/bin/env bash
# Every CI step that needs no network, in the order of ci.yml, which
# runs this script after installing the test dependencies and the package.
#
#   bash .github/ci_offline.sh                       # the package under src/
#   FRACQUAT=fracquat bash .github/ci_offline.sh     # and the installed console script
#
# Run from the repository root, in a git checkout; needs pytest,
# hypothesis and mpmath.
# FRACQUAT is the command that check_installed.sh runs; when it is unset,
# that step runs `python3 -m fracquat` on src/.  Stops at the first step
# that fails, with its exit code.
set -euo pipefail

step() { printf '\n== %s\n' "$1"; }

step "Tier-1 tests"
# a 4 GB address-space cap: a coefficient that escapes the ring's bound
# fails with MemoryError in seconds, not by exhausting the host; warnings
# are errors, so a new DeprecationWarning on a newer Python fails the step
(
  ulimit -v 4000000
  PYTHONPATH=src python3 -W error -m pytest -q -W error --continue-on-collection-errors
)

step "Acceptance criteria"
# -s shows each criterion's PASS or FAIL line
PYTHONPATH=src python3 -m pytest -q -s tests/test_acceptance.py

step "Known wrong series values"
# -s prints the list of series calls that return a value outside
# 10*tol*max(1, |ref|) of the mpmath oracle, and the list of calls that
# raise although the true value is a finite double, at tol 1e-12 and at
# the double's epsilon; the test fails when a list grows or a listed call
# changes
PYTHONPATH=src python3 -m pytest -q -s tests/test_series_contract.py

step "Mutation gate"
# -s prints how many planted hand-text faults pass every verify row; the
# test fails when that set of survivors grows or shrinks
PYTHONPATH=src python3 -m pytest -q -s tests/test_mutants.py

step "Kernel outputs against HEAD"
# runs the diff, apply and verify ops on a `git archive` of HEAD and on
# the tree, each in its own process and so with its own string-hash seed;
# any difference in a rendered text or a map's insertion order fails it,
# so at HEAD it shows that neither depends on hashing
python3 tests/compare_kernels.py HEAD

step "Start-up imports"
# -S keeps site from importing anything, so sys.modules holds only what
# the interpreter and fracquat.cli load; this reads no clock
PYTHONPATH=src python3 -S .github/check_startup.py

step "Console script"
if [ -n "${FRACQUAT:-}" ]; then
  bash .github/check_installed.sh
else
  PYTHONPATH=src FRACQUAT="python3 -m fracquat" bash .github/check_installed.sh
fi

step "Benchmark smoke run"
for w in numeric verify symbolic; do
  out=$(python3 bench/run.py --workload "$w" --seed 1 --seconds 1)
  # the numeric detail line shows the large band's failures by kind:
  # raised:SeriesConvergenceError against wrong:inaccurate
  if [ "$w" = numeric ]; then echo "$out" | tail -n 2 | head -n 1; fi
  echo "$out" | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
done
# a traced run is correct only if each op that succeeds in both its plain
# and its traced run gives the same output in each
python3 bench/run.py --workload symbolic --seed 1 --seconds 1 --trace 1 | tail -n 1 \
  | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'

step "All offline steps passed"
