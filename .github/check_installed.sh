#!/usr/bin/env bash
# Checks of the fracquat console script against the recorded outputs.
#
#   bash .github/check_installed.sh                     # the installed `fracquat`
#   PYTHONPATH=src FRACQUAT="python3 -m fracquat" bash .github/check_installed.sh
#
# Run from the repository root.  FRACQUAT is the command that runs the CLI
# (default: fracquat); `python` must import the same package.  Scratch files
# go to a temporary directory that is removed on exit.
set -eo pipefail
read -r -a fracquat <<< "${FRACQUAT:-fracquat}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# tier-1 pins the text and structured reports for src/; this pins
# them for the installed package
"${fracquat[@]}" verify | diff - tests/data/verify.txt
"${fracquat[@]}" verify --format structured | diff - tests/data/verify_structured.jsonl
# the installed package renders each recorded spec under every
# operator byte for byte
for frame in cartesian cylindrical spherical; do
  for op in mt mt-right laplacian bitsadze helmholtz; do
    "${fracquat[@]}" apply "tests/data/render/$frame.json" -o "$op" \
      | diff - "tests/data/render/$frame-$op.txt"
  done
done
# every right-hand side of those goldens renders back to itself
# after a parse, so the parser reads the package's own output
python - <<'PY'
import pathlib
from fracquat import FRAMES, parse
from fracquat.canonical import render_canonical
ops = ("mt", "mt-right", "laplacian", "bitsadze", "helmholtz")
for name in ("cartesian", "cylindrical", "spherical"):
    for op in ops:
        path = pathlib.Path(f"tests/data/render/{name}-{op}.txt")
        for line in path.read_text().splitlines():
            rhs = line.split(" = ", 1)[1]
            assert render_canonical(parse(rhs, FRAMES[name])) == rhs, (path, line[:60])
print("15 apply goldens: every right-hand side is a render fixed point")
PY
# a closed stdout, as after `verify | head -1`, is exit 1 with one
# stderr line, not a usage error or a traceback; the pipe's read end
# is closed before the child starts, so its first write fails on
# every run, however fast the host
status=$(python -c '
import os, subprocess, sys
read_end, write_end = os.pipe()
os.close(read_end)
with open(sys.argv[1], "w") as err:
    print(subprocess.run(sys.argv[2:], stdout=write_end, stderr=err).returncode)
' "$tmp/err.txt" "${fracquat[@]}" verify)
cat "$tmp/err.txt"
test "$status" -eq 1
test "$(wc -l < "$tmp/err.txt")" -eq 1
if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
# a numeric lambda is put in for lam before the operator runs, so
# the Helmholtz null solution Ea(i lam, z) at lam = 2 reads as 0
echo '{"alpha": 0.5, "frame": "cartesian", "components": {"f0": "Ea(1i*lam, z)"}, "lambda": "2"}' > "$tmp/null.json"
"${fracquat[@]}" apply "$tmp/null.json" -o helmholtz | diff - <(printf 'f0 = 0\nf1 = 0\nf2 = 0\nf3 = 0\n')
# --lam reads what the spec's lambda reads
echo '{"alpha": 0.5, "frame": "cartesian", "components": {"f0": "lam*Ea(lam, z)"}}' > "$tmp/formal.json"
echo '{"alpha": 0.5, "frame": "cartesian", "components": {"f0": "lam*Ea(lam, z)"}, "lambda": "1/2"}' > "$tmp/half.json"
"${fracquat[@]}" eval "$tmp/formal.json" --at x=1,y=1,z=1 --lam 1/2 > "$tmp/by_option.txt"
"${fracquat[@]}" eval "$tmp/half.json" --at x=1,y=1,z=1 | diff - "$tmp/by_option.txt"
# a constant in parentheses past the coefficient bound is named at its '('
set +e
"${fracquat[@]}" diff '2*(2^14284)*P(r,1)' --var r --frame cylindrical 2>"$tmp/err.txt"
status=$?
set -e
cat "$tmp/err.txt"
test "$status" -eq 2
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '(at position 2)$' "$tmp/err.txt"
# a parse error quotes the token as written
set +e
"${fracquat[@]}" diff 'f1 2.5i' --var r --frame cylindrical 2>"$tmp/err.txt"
status=$?
set -e
cat "$tmp/err.txt"
test "$status" -eq 2
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q "unexpected trailing input '2\.5i' (at position 3)$" "$tmp/err.txt"
# the installed package prints every recorded series value bit for bit;
# each line names its call: kind(alpha=A, u=U) = value (n terms)
while IFS= read -r line; do
  call=${line%%) = *}
  kind=${call%%(*}
  alpha=${call#*alpha=}
  alpha=${alpha%%, u=*}
  "${fracquat[@]}" series "$kind" --alpha "$alpha" "--u=${call#*, u=}"
done < tests/data/series.txt | diff - tests/data/series.txt
# a series that cannot settle within the term budget is refused before
# summing: exit 1 with one error line that names the budget
set +e
"${fracquat[@]}" series Ea --alpha 0.5 --u 20 2>"$tmp/err.txt"
status=$?
set -e
cat "$tmp/err.txt"
test "$status" -eq 1
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^error: ml_exp did not converge to tol=1e-12 within the 499-term budget ' "$tmp/err.txt"
if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
# a component given as a JSON number is read exactly, as lambda is
echo '{"alpha": 1, "frame": "cartesian", "components": {"f0": 1e-05}}' > "$tmp/number.json"
test "$("${fracquat[@]}" eval "$tmp/number.json" --at x=1,y=1,z=1 | head -1)" = "f0 = (1e-05+0j)"
out=$("${fracquat[@]}" series Ea --alpha 1 --u -1)
echo "$out"
# a real argument must print a real value, not "(a+bj)"
python -c 'import sys; float(sys.argv[1].split(" = ")[1].split(" (")[0])' "$out"
