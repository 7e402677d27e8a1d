#!/usr/bin/env bash
# Layout-controlled A/B timing of two versions of oglaf with perfbench.
#
# A change to a module that links before lib/interp moves the VM, the
# interpreter and the runtime inside both binaries, and that alone can
# move a perfbench reading by 5-15 % on a small host (EXPERIMENTS.md
# "Layout-controlled A/B timing").  This script builds each side at
# several code layouts and pools the runs of all of them, so neither
# side is judged by one lucky or unlucky placement:
#
#   - side A is the commit REV (default HEAD), side B the working tree
#     (tracked and untracked files that git does not ignore);
#   - each side is copied once per layout into a temporary directory and
#     built there; layout k appends one dead function of PAD_k terms
#     (about 25 bytes each) to lib/lift/verify.ml, whose code the linker
#     places below lib/interp's in both bin/oglaf.exe and
#     perfbench/main.exe, and pad 0 appends nothing;
#   - pair i runs layout (i mod L) of both sides, the first side
#     alternating between pairs;
#   - it prints where Vm.texec landed (address modulo 64) in each build,
#     then per metric each side's median [quartiles] over all runs, the
#     pairs the working tree won, and each layout's medians.
#
# Nothing in the checkout changes; the copies are removed on exit.  Run
# from the root of a git checkout:
#
#   bash bench/layout_ab.sh --workload serve_mix --seconds 20 --pairs 6
#
# Options (defaults in brackets):
#   --workload W   perfbench workload                       [serve_mix]
#   --base REV     commit of side A                         [HEAD]
#   --seconds S    run length of each perfbench run         [20]
#   --pairs N      pairs of runs                            [6]
#   --seed K       perfbench workload seed                  [11]
set -euo pipefail

workload=serve_mix base=HEAD seconds=20 pairs=6 seed=11
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --base) base=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    *) echo "layout_ab.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
# padding terms of each layout, and the end-to-end metrics summarized
pad_list=(0 2 8)
metrics="ops_per_s cpu_ms_per_op op_p50_ms op_p90_ms"
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

root=$(git rev-parse --show-toplevel)
workdir=$(mktemp -d "${TMPDIR:-/tmp}/layout_ab.XXXXXX")
trap 'rm -rf "$workdir"' EXIT

# One dead function of [$1] terms, never called.
pad_source() {
  local i
  printf '\n(* layout padding, never called *)\nlet layout_pad x =\n  0'
  for ((i = 1; i <= $1; i++)); do printf ' + ((x * %d) lxor %d)' $((7 * i + 1)) $((13 * i)); done
  printf '\n'
}

# Copy side [$1] (A or B) at layout [$2] and build it.
build() {
  local side=$1 k=$2 dir="$workdir/$1$2"
  rm -rf "$dir" && mkdir -p "$dir"
  if [ "$side" = A ]; then
    git -C "$root" archive "$base" | tar -x -C "$dir"
  else
    # tracked files deleted in the working tree are still listed: skip them
    (cd "$root" && git ls-files -z -co --exclude-standard |
      while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
      tar --null -T - -cf -) | tar -x -C "$dir"
  fi
  if [ "${pad_list[$k]}" -gt 0 ]; then pad_source "${pad_list[$k]}" >>"$dir/lib/lift/verify.ml"; fi
  (cd "$dir" && DUNE_CACHE=disabled dune build --root . --display quiet \
    ./bin/oglaf.exe ./perfbench/main.exe)
  local e a
  for e in bin/oglaf.exe perfbench/main.exe; do
    a=$(nm "$dir/_build/default/$e" | awk '/Vm\.texec/ { a = $1 } END { print a }')
    echo "build $side layout $k (pad ${pad_list[$k]}): $e Vm.texec 0x$a, $((16#$a % 64)) mod 64" >&2
  done
}

nl=${#pad_list[@]}
for ((k = 0; k < nl; k++)); do build A $k; build B $k; done

results="$workdir/results.tsv"
: >"$results"
# Run side [$1] at layout [$2] in pair [$3]; append one line per metric.
run() {
  local side=$1 k=$2 p=$3 line m
  line=$(cd "$workdir/$side$k" && ./_build/default/perfbench/main.exe \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -1)
  echo "pair $p side $side layout $k: $line" >&2
  for m in $metrics failed; do
    if [ "$m" = failed ]; then
      printf '%s\t%s\t%s\t%s\t%s\n' "$p" "$side" "$k" failed "$(jq -r '.failed' <<<"$line")"
    else
      printf '%s\t%s\t%s\t%s\t%s\n' "$p" "$side" "$k" "$m" "$(jq -r ".metrics.$m.value" <<<"$line")"
    fi
  done >>"$results"
}

for ((p = 1; p <= pairs; p++)); do
  k=$(((p - 1) % nl))
  if [ $((p % 2)) = 1 ]; then run A $k $p; run B $k $p; else run B $k $p; run A $k $p; fi
done

echo "workload $workload, seed $seed, $seconds s runs, $pairs pairs over pads (${pad_list[*]})"
echo "A = $base, B = working tree; median [lower quartile, upper quartile]"
python3 - "$results" <<'PY'
import sys, collections
rows = [l.rstrip("\n").split("\t") for l in open(sys.argv[1])]
vals = collections.defaultdict(list)   # (metric, side) -> values
lay = collections.defaultdict(list)    # (metric, side, layout) -> values
pair = collections.defaultdict(dict)   # (metric, pair) -> side -> value
for p, side, k, m, v in rows:
    v = float(v)
    vals[m, side].append(v)
    lay[m, side, k].append(v)
    pair[m, p][side] = v

def q(xs, f):
    xs = sorted(xs)
    i = f * (len(xs) - 1)
    lo = int(i)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (i - lo)

fmt = lambda x: f"{x:.4g}"
metrics = list(dict.fromkeys(m for _, _, _, m, _ in rows))
for m in metrics:
    higher = m.endswith("_per_s")
    a, b = vals[m, "A"], vals[m, "B"]
    wins = sum(
        1 for d in (pair[m, p] for p in sorted({p for (mm, p) in pair if mm == m}))
        if "A" in d and "B" in d and (d["B"] > d["A"] if higher else d["B"] < d["A"]))
    print(f"{m}: A {fmt(q(a, .5))} [{fmt(q(a, .25))}, {fmt(q(a, .75))}]"
          f"  B {fmt(q(b, .5))} [{fmt(q(b, .25))}, {fmt(q(b, .75))}]"
          + ("" if m == "failed" else f"  B better in {wins}/{len(a)} pairs"))
    for k in sorted({k for (mm, _, k) in lay if mm == m}):
        print(f"  layout {k}: A {fmt(q(lay[m, 'A', k], .5))}  B {fmt(q(lay[m, 'B', k], .5))}")
PY
