#!/usr/bin/env bash
# CLI error smoke (ctest: cli_error_exit).
#
# A driver handed an option it does not know must fail cleanly: exit
# status 2 and exactly one `error: ...` line on stderr naming the
# option — not an uncaught exception and an abort. The case checked is
# the removed simulator-engine selector, which old sweep scripts may
# still pass.
#
# Usage: cli_error_smoke.sh /path/to/table2_battery_lifetime

set -uo pipefail

table2="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$table2" --scenario.engine=tick > "$work/out.txt" 2> "$work/err.txt"
status=$?
set -e

if [ "$status" -ne 2 ]; then
  echo "expected exit status 2, got $status" >&2
  cat "$work/err.txt" >&2
  exit 1
fi
if [ "$(wc -l < "$work/err.txt")" -ne 1 ]; then
  echo "expected exactly one stderr line, got:" >&2
  cat "$work/err.txt" >&2
  exit 1
fi
grep -q '^error: unknown option --scenario.engine ' "$work/err.txt"
echo "cli error (unknown option, exit 2, one line): OK"
