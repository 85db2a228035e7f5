#!/usr/bin/env bash
# Differential bit-identity smoke (ctest: golden_bit_identity).
#
# Two battery merge windows, two golden sets:
#
#   *_tick.csv   — generated at PR 5 by the original decision-stepping
#                  ("tick") simulator, which drew the battery once per
#                  executed slice, and never regenerated since. The
#                  event-driven simulator at --scenario.battery-window=0
#                  makes the same kernel calls in the same order, so it
#                  must reproduce these bytes exactly: they are the
#                  anchor that proves simulator refactors preserve the
#                  original trajectory.
#   *.csv        — generated at the default battery merge window since
#                  the event-driven core landed (PR 7). They differ from
#                  window 0 only through battery merge windows
#                  (SimConfig::battery_window_s); the numerical-
#                  equivalence argument lives in EXPERIMENTS.md,
#                  "Event-driven core". Within one window the outputs
#                  are bit-deterministic, which is what this file pins.
#
# table2 runs fresh; arrival_stress goes through the full shard + cache
# + merge campaign path, so shard/merge byte-identity is covered per
# window as well.
#
#   rate_capacity.csv — rate_capacity_curve's constant-load sweep. It
#                  drives every battery kernel (ideal, Peukert, KiBaM,
#                  diffusion, stochastic) through the per-slice
#                  Battery::draw path with no simulator in between, so
#                  it pins the kernels' own arithmetic and the
#                  stochastic cell's RNG stream. It does not depend on
#                  the merge window.
#
# If a future change moves the default-window bytes ON PURPOSE (a
# genuine semantic change, not a perf transformation), regenerate with
# the commands below and say so in the PR. The *_tick.csv goldens
# should only ever be regenerated together with a written waiver:
#
#   table2_battery_lifetime --sets 2 --jobs 2 --csv tests/golden/table2_smoke.csv
#   arrival_stress --sets 1 --scenario.horizon 600 --jobs 2 \
#       --csv tests/golden/arrival_stress_smoke.csv
#   (append --scenario.battery-window=0 for the *_tick.csv variants)
#   rate_capacity_curve --jobs 2 --csv tests/golden/rate_capacity.csv
#
# Usage: golden_outputs_smoke.sh /path/to/table2 /path/to/arrival_stress \
#            /path/to/rate_capacity_curve golden_dir

set -euo pipefail

table2="$1"
arrival="$2"
rate_capacity="$3"
golden="$4"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for window in default 0; do
  if [ "$window" = 0 ]; then
    window_flag="--scenario.battery-window=0"
    suffix="_tick"
  else
    window_flag=""  # the default merge window
    suffix=""
  fi

  # 1. Table 2 smoke cell, fresh run.
  "$table2" --sets 2 --jobs 2 $window_flag --csv "$work/table2_$window.csv" \
      > /dev/null
  cmp "$golden/table2_smoke$suffix.csv" "$work/table2_$window.csv"

  # 2. arrival_stress smoke cell through the campaign path: two shards
  #    into one cache dir, then a merge — the merged bytes must equal a
  #    fresh run's (and, at window 0, the PR 5 simulator's).
  flags="--sets 1 --scenario.horizon 600 $window_flag"
  "$arrival" $flags --jobs 2 --shard 0/2 --cache "$work/cache_$window" \
      > /dev/null
  "$arrival" $flags --jobs 2 --shard 1/2 --cache "$work/cache_$window" \
      > /dev/null
  "$arrival" $flags --merge --cache "$work/cache_$window" \
      --csv "$work/arrival_$window.csv" > /dev/null
  cmp "$golden/arrival_stress_smoke$suffix.csv" "$work/arrival_$window.csv"

  echo "golden outputs (window $window): OK"
done

# 3. Per-slice battery kernels, no simulator.
"$rate_capacity" --jobs 2 --csv "$work/rate_capacity.csv" > /dev/null
cmp "$golden/rate_capacity.csv" "$work/rate_capacity.csv"
echo "golden outputs (battery kernels): OK"
