#!/usr/bin/env bash
# Runs every CLI command once on a 4-couple instance, and the chain checks on
# 60 couples, through the command given as arguments (default: the installed
# `matchkit` console script):
#
#   bash .github/cli_smoke.sh                        # the entry point
#   bash .github/cli_smoke.sh python -m matchkit.cli # the module
#
# Exits 1 at the first command whose exit code is not 0, or 1 with an
# "unstable" verdict ("stable: no", "core-valid: no"), at the first check
# expected stable that does not answer "stable: yes", at the first additive
# ft solve that does not return the identity with "core audit: ok", at the
# first exact step (a refusal, or a core search on the widest grid) that
# does not exit with its expected code and output, and at the first sweep
# whose CSV does not hash to its recorded sha256.
set -u
if [ "$#" -eq 0 ]; then
  set -- matchkit
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

step() {
  local out code=0
  out=$("$@" 2>&1) || code=$?
  printf '$ %s\n%s\n' "$*" "$out"
  if [ "$code" -eq 1 ] && grep -Eq '^(stable|core-valid): no' <<<"$out"; then
    return 0
  fi
  if [ "$code" -ne 0 ]; then
    echo "exit $code" >&2
    exit 1
  fi
}

# A check that must answer "stable: yes" with exit code 0.
stable() {
  local out code=0
  out=$("$@" 2>&1) || code=$?
  printf '$ %s\n%s\n' "$*" "$out"
  if [ "$code" -ne 0 ] || ! grep -q '^stable: yes$' <<<"$out"; then
    echo "exit $code, expected stable: yes" >&2
    exit 1
  fi
}

# An ft solve on 2 couples that must exit 0 with the identity matching and
# a passing core audit.
identity2() {
  local out code=0
  out=$("$@" 2>&1) || code=$?
  printf '$ %s\n%s\n' "$*" "$out"
  if [ "$code" -ne 0 ] || ! grep -qxF "matching: 1→1', 2→2'" <<<"$out" \
    || ! grep -qxF 'core audit: ok' <<<"$out"; then
    echo "exit $code, expected matching: 1→1', 2→2' and core audit: ok" >&2
    exit 1
  fi
}

# Runs a step, then expects the file given second to have the sha256 given
# first.
hashed() {
  local expected=$1 file=$2 got
  shift 2
  step "$@"
  got=$(sha256sum "$file" | cut -d ' ' -f 1)
  if [ "$got" != "$expected" ]; then
    echo "sha256 of $file is $got, expected $expected" >&2
    exit 1
  fi
}

# Expects the exit code and the whole output given first.
expect() {
  local status=$1 expected=$2 out code=0
  shift 2
  out=$("$@" 2>&1) || code=$?
  printf '$ %s\n%s\n' "$*" "$out"
  if [ "$code" -ne "$status" ] || [ "$out" != "$expected" ]; then
    echo "exit $code, expected $status with: $expected" >&2
    exit 1
  fi
}

step "$@" gen --n 4 --seed 7 --out "$work/inst.json"
step "$@" gen --n 4 --seed 7 --dist int:-3:3 --out "$work/int.json"
step "$@" solve nt --instance "$work/inst.json" --out "$work/nt.json"
step "$@" solve ft --instance "$work/inst.json" --out "$work/ft.json"
step "$@" check --instance "$work/inst.json" --matching "$work/ft.json" --p 0 --q 0
step "$@" check --instance "$work/inst.json" --matching "$work/nt.json" --p 0.5 --q 0.5
# Integer rewards at eps = 0: dual_cuts certifies on its exact integer path.
step env MATCHKIT_EPS=0 "$@" solve ft --instance "$work/int.json" --out "$work/int_ft.json"
step "$@" check --instance "$work/int.json" --matching "$work/int_ft.json" --p 0 --q 0
# 60 couples: the chain checks run the detector past its enumeration limit,
# and solve nt checks each proposer's matching for blocking pairs.
step "$@" gen --n 60 --seed 7 --out "$work/inst60.json"
step "$@" solve nt --instance "$work/inst60.json" --out "$work/nt60.json"
step "$@" solve nt --proposer women --instance "$work/inst60.json" --out "$work/nt60w.json"
step "$@" check --instance "$work/inst60.json" --matching "$work/nt60.json" --p 1 --q 1
step "$@" check --instance "$work/inst60.json" --matching "$work/nt60.json" --p 0.5 --q 0.5
# An ft-optimal matching admits no blocking chain, so it is (1, 1)-stable.
step "$@" gen --n 60 --seed 7 --dist int:0:9 --out "$work/int60.json"
step "$@" solve ft --instance "$work/inst60.json" --out "$work/ft60.json"
step "$@" solve ft --instance "$work/int60.json" --out "$work/int_ft60.json"
stable "$@" check --instance "$work/inst60.json" --matching "$work/ft60.json" --p 1 --q 1
stable "$@" check --instance "$work/int60.json" --matching "$work/int_ft60.json" --p 1 --q 1
step "$@" core --model fnt --instance "$work/inst.json" --matching "$work/ft.json"
# The exact core search, on 2 couples, for each family that runs it; the taxed
# family reads its beta table from the instance.
step "$@" gen --n 2 --seed 7 --out "$work/inst2.json"
step "$@" solve ft --instance "$work/inst2.json" --out "$work/ft2.json"
for model in ft ft_nonneg ft_m2w; do
  step "$@" core --model "$model" --instance "$work/inst2.json" --matching "$work/ft2.json"
done
printf '{"n": 2, "theta_m": %s, "theta_w": %s, "beta": %s}\n' \
  '[[0.5, 1.0], [0.25, 0.75]]' '[[1.0, 0.5], [0.5, 1.0]]' '[[0.5, 1.0], [0.75, 0.5]]' \
  > "$work/taxed.json"
step "$@" core --model ft_taxed --instance "$work/taxed.json" --matching "$work/ft2.json"
# 3 couples on the widest power-of-two grid: 5e-324 beside +-1e308-scale
# rewards, so the exact search runs on integers of about 2,100 bits.  The
# second table's identity has a cut of 2.5e308, beyond the float range.
mixed_m='[[1e308, 5e-324, -1.5e308], [5e-324, 1.5e308, 1e308], [-1e308, 1.25e308, 5e-324]]'
mixed_beta='[[0.5, 0.1, 1.0], [0.3333333333333333, 1.0, 0.75], [1e-10, 0.5, 1.0]]'
printf '{"n": 3, "theta_m": %s, "theta_w": %s, "beta": %s}\n' "$mixed_m" \
  '[[5e-324, -1e308, 1.5e308], [1e308, 5e-324, -5e-324], [0.75, 5e-324, 1e308]]' \
  "$mixed_beta" > "$work/mixed.json"
printf '{"n": 3, "theta_m": %s, "theta_w": %s, "beta": %s}\n' "$mixed_m" \
  '[[5e-324, -1e308, 1.5e308], [1e308, 1.5e308, -5e-324], [0.75, 5e-324, 1e308]]' \
  "$mixed_beta" > "$work/wide.json"
echo '{"assignment": [0, 2, 1]}' > "$work/m3.json"
echo '{"assignment": [0, 1, 2]}' > "$work/id3.json"
for model in ft ft_nonneg; do
  expect 1 "model: $model
matching: 1→1', 2→3', 3→2'
core-valid: no" "$@" core --model "$model" --instance "$work/mixed.json" --matching "$work/m3.json"
  expect 2 "error: the core point found has a cut beyond the float range" \
    "$@" core --model "$model" --instance "$work/wide.json" --matching "$work/id3.json"
done
expect 0 "model: ft_m2w
matching: 1→1', 2→3', 3→2'
core-valid: yes (u=[1e+308, 1e+308, 7.5e+307], v=[0, 5e+307, 0])" \
  "$@" core --model ft_m2w --instance "$work/mixed.json" --matching "$work/m3.json"
expect 0 "model: ft_taxed
matching: 1→1', 2→3', 3→2'
core-valid: yes (u=[1e+308, 1e+308, 2.5e+307], v=[0, 5e+307, 0])" \
  "$@" core --model ft_taxed --instance "$work/mixed.json" --matching "$work/m3.json"
for model in ft_m2w ft_taxed; do
  expect 0 "model: $model
matching: 1→1', 2→2', 3→3'
core-valid: yes (u=[1e+308, 1.5e+308, 0], v=[0, 1.5e+308, 1e+308])" \
    "$@" core --model "$model" --instance "$work/wide.json" --matching "$work/id3.json"
done
# Additive tables theta_m[i][j] = a[i] + b[j] (sums of seeded uniform draws),
# theta_w = 0: every matching ties up to rounding, and rounding-level cycles
# keep the chain relaxation from settling in 4n passes: in the first table
# on the assignment solver's matching 1→2', 2→1', which the tie-break then
# replaces, and in the second on the identity, whose cuts are certified.
zero='[[0, 0], [0, 0]]'
printf '{"n": 2, "theta_m": %s, "theta_w": %s}\n' \
  '[[0.9031240876275589, 1.5203069489336754], [0.8914733894613489, 1.5086562507674655]]' \
  "$zero" > "$work/additive_a.json"
printf '{"n": 2, "theta_m": %s, "theta_w": %s}\n' \
  '[[0.8701875383540523, 0.8692856992091277], [1.3492538309804314, 1.3483519918355067]]' \
  "$zero" > "$work/additive_b.json"
identity2 "$@" solve ft --instance "$work/additive_a.json"
identity2 "$@" solve ft --instance "$work/additive_b.json"
step "$@" counterexample --p 0.2 --q 0.8 --out "$work/ce.json"
# Sweeps, byte for byte: n = 3 and the oracle's limit n = 8, then a CLI-size
# grid with an odd trial count, so every cell ends on a random trial.
hashed 1110f3bb9acfd5fea02d3d08f25e664294ba3807d6c334041b109c2b02b343d6 "$work/sweep.csv" \
  "$@" sweep --n 3 --grid 3 --trials 2 --seed 1 --out "$work/sweep.csv"
hashed 64b5ac6ac40fa65d6ab9d909e75926949e5b4aa465666d841e864908fca26c20 "$work/sweep8.csv" \
  "$@" sweep --n 8 --grid 3 --trials 4 --seed 1 --out "$work/sweep8.csv"
hashed bec0ab0c2fdf1a9e31ceb5ef96fdba3a3fe7b62517b5915e09631c314fed6891 "$work/sweep21.csv" \
  "$@" sweep --n 3 --grid 11 --trials 21 --seed 1 --out "$work/sweep21.csv"
# Each side's table is finite but the pooled one overflows.
big='[[1e308, 1e308], [1e308, 1e308]]'
printf '{"n": 2, "theta_m": %s, "theta_w": %s}\n' "$big" "$big" > "$work/pooled.json"
expect 2 "error: theta[0][0] is not finite" "$@" solve ft --instance "$work/pooled.json"
# 12 couples, past the size where parsed float tables keep tuple rows: a
# literal true falls back to the entry check, and each side held as an array
# still pools to an overflowing table that is refused.
table12() {  # a 12-by-12 JSON table of $1, with $2 in row 3, column 4 when given
  local cells=() rows=() k
  for k in $(seq 144); do cells+=("$1"); done
  if [ "$#" -gt 1 ]; then cells[40]=$2; fi  # 3 * 12 + 4
  for k in $(seq 0 12 132); do rows+=("[$(IFS=,; echo "${cells[*]:k:12}")]"); done
  echo "[$(IFS=,; echo "${rows[*]}")]"
}
printf '{"n": 12, "theta_m": %s, "theta_w": %s}\n' "$(table12 0.5 true)" "$(table12 0.25)" \
  > "$work/true12.json"
expect 2 "error: theta_m[3][4] is not a number" "$@" solve ft --instance "$work/true12.json"
printf '{"n": 12, "theta_m": %s, "theta_w": %s}\n' "$(table12 1e308)" "$(table12 1e308)" \
  > "$work/pooled12.json"
expect 2 "error: theta[0][0] is not finite" "$@" solve ft --instance "$work/pooled12.json"
expect 2 "error: p must lie in [0, 1], got 1.5" \
  "$@" check --instance "$work/inst.json" --matching "$work/nt.json" --p 1.5 --q 0.5
expect 2 "error: MATCHKIT_EPS must be a finite non-negative number" \
  env MATCHKIT_EPS=nan "$@" solve ft --instance "$work/int.json"
# Size limits: the existence oracle and the ft core search.
expect 3 "error: existence oracle limited to n <= 8, got 9" \
  "$@" sweep --n 9 --grid 3 --trials 1 --seed 1 --out "$work/sweep9.csv"
expect 3 "error: core search limited to n <= 3, got 4" \
  "$@" core --model ft --instance "$work/inst.json" --matching "$work/ft.json"
echo "cli smoke: all commands ran"
