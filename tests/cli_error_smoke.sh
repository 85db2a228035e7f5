#!/usr/bin/env bash
# CLI error smoke (ctest: cli_error_exit).
#
# Every class of bad command line must fail cleanly: exit status 2 and
# exactly one `error: ...` line on stderr naming the culprit — not an
# uncaught exception and an abort, and not a silent run with a default
# value. The cases are:
#
#   - an unknown option: the removed simulator-engine selector and the
#     removed per-job deadline, retry and heartbeat-interval flags,
#     which old sweep scripts may still pass;
#   - a stray positional argument;
#   - malformed numbers: a non-number, trailing garbage, and a negative
#     value for an unsigned option;
#   - a trace-replay arrival trace file that is missing, or malformed;
#   - an unknown battery label;
#   - an unwritable --csv path.
#
# Usage: cli_error_smoke.sh /path/to/table2_battery_lifetime

set -uo pipefail

table2="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

printf '0.5\nsoon\n' > "$work/malformed.csv"

failures=0

# expect_error PATTERN ARGS...: the driver run with ARGS must exit 2
# with one stderr line matching ^error: PATTERN.
expect_error() {
  local pattern="$1"
  shift
  "$table2" "$@" > "$work/out.txt" 2> "$work/err.txt"
  local status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL [$*]: expected exit status 2, got $status" >&2
  elif [ "$(wc -l < "$work/err.txt")" -ne 1 ]; then
    echo "FAIL [$*]: expected exactly one stderr line, got:" >&2
  elif ! grep -q "^error: $pattern" "$work/err.txt"; then
    echo "FAIL [$*]: stderr does not match '^error: $pattern':" >&2
  else
    echo "ok   [$*]: $(cat "$work/err.txt")"
    return
  fi
  cat "$work/err.txt" >&2
  failures=$((failures + 1))
}

expect_error 'unknown option --scenario.engine ' --scenario.engine=tick
expect_error 'unknown option --job-timeout ' --job-timeout 5
expect_error 'unknown option --job-attempts ' --job-attempts 2
expect_error 'unknown option --progress-interval ' --progress-interval 0
expect_error "unexpected argument '100'" 100
expect_error "option --sets expects an integer, got 'abc'" --sets abc
expect_error "option --sets expects an integer, got '1x'" --sets 1x
expect_error "option --seed expects a non-negative integer, got '-1'" \
  --seed -1
expect_error "arrival: cannot open trace file '/nonexistent.csv'" \
  --scenario.arrival=trace-replay \
  --scenario.arrival.trace=@/nonexistent.csv
expect_error "arrival: trace '.*malformed.csv' has a bad release time 'soon'" \
  --scenario.arrival=trace-replay \
  --scenario.arrival.trace="@$work/malformed.csv"
expect_error "unknown battery model 'nope'" --scenario.battery=nope
expect_error "cannot open '/nonexistent/dir/x.csv'" \
  --sets 1 --scenario.horizon 60 --csv /nonexistent/dir/x.csv

if [ "$failures" -ne 0 ]; then
  echo "cli error smoke: $failures case(s) failed" >&2
  exit 1
fi
echo "cli error smoke: OK (every case exits 2 with one error: line)"
