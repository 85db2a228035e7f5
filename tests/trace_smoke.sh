#!/usr/bin/env bash
# Chrome-trace smoke (ctest: trace_smoke).
#
# Pins the two end-to-end contracts of the --trace-out flag:
#
#   1. Instrumentation only: a campaign run with --trace-out produces
#      byte-identical CSV output to the same run without it (cmp), and
#      the flag stays out of the cache-keying config summary.
#   2. The emitted file is real trace-event JSON: `python3 -m json.tool`
#      parses the campaign trace (runner-level: job spans and fail
#      markers), and the document carries the expected structure.
#
# The in-process format contracts (per-track monotone ts, escaping,
# release/completion counts, a real sim trace's structure) live in
# tests/test_obs.cpp; this script checks the CLI plumbing end to end.
#
# Usage: trace_smoke.sh /path/to/table2_battery_lifetime

set -euo pipefail

table2="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

flags="--sets 1 --jobs 2"

# 1. Byte-identity: tracing a campaign must not move a single byte of
#    its results.
"$table2" $flags --csv "$work/plain.csv" > /dev/null
"$table2" $flags --csv "$work/traced.csv" \
    --trace-out "$work/campaign.json" > /dev/null
cmp "$work/plain.csv" "$work/traced.csv"
echo "trace smoke (campaign byte-identity): OK"

test -s "$work/campaign.json"
grep -q '"traceEvents"' "$work/campaign.json"
grep -q 'process_name' "$work/campaign.json"

if ! command -v python3 > /dev/null; then
  echo "trace smoke (JSON validity): SKIPPED (python3 not found)"
  exit 0
fi
python3 -m json.tool "$work/campaign.json" > /dev/null
echo "trace smoke (JSON validity): OK"
