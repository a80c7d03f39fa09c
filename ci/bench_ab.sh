#!/usr/bin/env bash
# A/B run of the repository benchmark: the change (the working tree)
# against BASE, built and run on the same machine, judged by the
# BENCHMARK.json bounds.
#
# Usage:
#   ci/bench_ab.sh BASE
#
#   BASE  any git revision; CI passes HEAD^1.
#
# BASE is checked out into a git worktree under .bench_ab/. Each side
# builds perfbench/ with BENCHMARK.json's command (`run` made `build`),
# into its own target directory under .bench_ab/. Every BENCHMARK.json
# workload then runs as 5 alternating pairs of 3 s untraced runs, seeds
# 1 to 5, BASE first in odd pairs and the change first in even ones.
#
# For every end-to-end metric the script prints both sides' medians and
# quartiles, how many pairs the change won (`pairs better n/N`: the
# seeds whose change run beats the BASE run in the metric's better
# direction; a tie counts for neither), how much worse the change's
# median is (a fraction of BASE's median, in the metric's bad
# direction), and the bound. The pair count is informational: it decides
# nothing below. It exits 1 when
#   - a run reports "failed" above 0, or
#   - a metric's change median is worse than BASE's by more than its
#     bound.
# A metric whose BASE interquartile range, over BASE's median, is wider
# than its bound is printed as unresolved: the runs spread too widely to
# tell, unless every change run is better than every BASE run. It then
# fails only if every change run is worse than every BASE run. A run
# that crashes or prints no result stops the script with exit 1.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 2; }

PAIRS=5
SECONDS_PER_RUN=3

root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
work=$root/.bench_ab
base_tree=$work/base
runs=$work/runs

mapfile -t run_cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t build_cmd < <(jq -r '.command | .[:index("--") // length]
  | map(if . == "run" then "build" else . end) | .[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)

remove_base_tree() {
  git worktree remove --force "$base_tree" 2>/dev/null || rm -rf "$base_tree"
  git worktree prune
}
trap remove_base_tree EXIT
remove_base_tree
rm -rf "$runs"
mkdir -p "$runs"
git worktree add --quiet --detach "$base_tree" "$base_rev"

# side -> source tree; each side builds into its own target directory.
declare -A tree=([base]=$base_tree [change]=$root)

echo "bench_ab: BASE $(git rev-parse --short "$base_rev") ($1) vs the working tree at $(git rev-parse --short HEAD)"
for side in base change; do
  echo "bench_ab: building $side: ${build_cmd[*]}"
  (cd "${tree[$side]}" && CARGO_TARGET_DIR=$work/target-$side "${build_cmd[@]}")
done

# One untraced run; appends its JSON result line to runs/<side>-<workload>.jsonl.
run_one() {
  local side=$1 workload=$2 seed=$3 out last
  out=$(cd "${tree[$side]}" && CARGO_TARGET_DIR=$work/target-$side "${run_cmd[@]}" \
    --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0) || {
    echo "FAIL: $side $workload seed $seed exited non-zero" >&2
    exit 1
  }
  [ -s "$runs/machine-$side" ] || grep -m1 '^# machine' <<<"$out" >"$runs/machine-$side" || true
  last=$(tail -n 1 <<<"$out")
  jq -e '.failed | numbers' >/dev/null 2>&1 <<<"$last" || {
    echo "FAIL: $side $workload seed $seed printed no result" >&2
    exit 1
  }
  echo "$last" >>"$runs/$side-$workload.jsonl"
  printf '  %-8s seed %d %-6s %s\n' "$workload" "$seed" "$side" \
    "$(jq -r '"attempted \(.attempted), failed \(.failed)"' <<<"$last")"
}

status=0
for workload in "${workloads[@]}"; do
  echo "bench_ab: $workload, $PAIRS pairs of ${SECONDS_PER_RUN} s runs"
  for seed in $(seq 1 "$PAIRS"); do
    if [ $((seed % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
      run_one "$side" "$workload" "$seed"
    done
  done
  failed=$(jq -s 'map(.failed) | add' "$runs"/{base,change}-"$workload".jsonl)
  if [ "$failed" != 0 ]; then
    echo "FAIL: $workload: $failed failed operations"
    status=1
  fi
done

for side in base change; do
  echo "bench_ab: $side $(cat "$runs/machine-$side")"
done

# One metric's values over a side's runs of a workload, space-separated.
values() {
  jq -r --arg m "$3" '.metrics[$m].value' "$runs/$1-$2.jsonl" | paste -sd' '
}

# Compares one metric's runs: prints one table row, and exits 1 when
# the metric fails by the rule above.
compare() {
  awk -v workload="$1" -v metric="$2" -v better="$3" -v bound="$4" \
    -v base="$5" -v change="$6" '
    function sorted(s, v,   n, i, j, t) {
      n = split(s, v, " ")
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      return n
    }
    function q(v, n, p,   h, lo) {
      h = 1 + (n - 1) * p
      lo = int(h)
      return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function num(x) { return x >= 1e6 ? sprintf("%.4gM", x / 1e6) : x >= 1e4 ? sprintf("%.4gk", x / 1e3) : sprintf("%.4g", x) }
    function summary(v, n) { return num(q(v, n, 0.5)) " [" num(q(v, n, 0.25)) ", " num(q(v, n, 0.75)) "]" }
    function rel(x, ref) { return ref == 0 ? (x == 0 ? 0 : 1e300) : x / ref }
    # Seeds where the change run beats the BASE run of the same seed:
    # both sides list their runs in seed order.
    function pairs_better(   pb, pc, n, i, won) {
      n = split(base, pb, " ")
      split(change, pc, " ")
      for (i = 1; i <= n; i++)
        won += better == "lower" ? pc[i] + 0 < pb[i] + 0 : pc[i] + 0 > pb[i] + 0
      return won + 0 "/" n
    }
    BEGIN {
      won = pairs_better()
      nb = sorted(base, b)
      nc = sorted(change, c)
      bmed = q(b, nb, 0.5); cmed = q(c, nc, 0.5)
      if (better == "lower") {
        worse = rel(cmed - bmed, bmed)
        all_worse = c[1] + 0 > b[nb] + 0
        all_better = c[nc] + 0 < b[1] + 0
      } else {
        worse = rel(bmed - cmed, bmed)
        all_worse = c[nc] + 0 < b[1] + 0
        all_better = c[1] + 0 > b[nb] + 0
      }
      if (rel(q(b, nb, 0.75) - q(b, nb, 0.25), bmed) > bound) {
        verdict = all_worse ? "FAIL (unresolved, every change run worse)" \
          : all_better ? "ok (every change run better)" : "unresolved"
      } else {
        verdict = worse > bound ? "FAIL" : "ok"
      }
      printf "%-9s %-17s %-27s %-27s %-12s %+8.1f%% %5g%%  %s\n", workload, metric,
        summary(b, nb), summary(c, nc), won, 100 * worse, 100 * bound, verdict
      exit verdict ~ /^FAIL/
    }'
}

echo
printf '%-9s %-17s %-27s %-27s %-12s %9s %6s  %s\n' \
  workload metric "base median [q1, q3]" "change median [q1, q3]" "pairs better" "worse by" bound verdict
for workload in "${workloads[@]}"; do
  for spec in "${metrics[@]}"; do
    read -r metric better bound <<<"$spec"
    compare "$workload" "$metric" "$better" "$bound" \
      "$(values base "$workload" "$metric")" "$(values change "$workload" "$metric")" || status=1
  done
done

echo
if [ "$status" -eq 0 ]; then
  echo "bench_ab: PASS"
else
  echo "bench_ab: FAIL"
fi
exit "$status"
