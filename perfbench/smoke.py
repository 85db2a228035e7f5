#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload, with --trace 0 and --trace 1, it asserts that
  * the run exits 0 and its JSON line says correct;
  * every metric BENCHMARK.json names is printed, by name, with its unit;
  * the traced run's result digest equals the untraced one's;
and that an unknown workload or flag, given to run.py or to the perfbench
binary, ends with a one-line `error: ...` on stderr and exit code 2.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


def check(condition, what):
    if not condition:
        raise SystemExit("smoke FAILED: " + what)


def run_py(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def check_usage_error(command, label):
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    lines = done.stderr.strip().split("\n")
    check(done.returncode == 2, "%s: exit %d, expected 2"
          % (label, done.returncode))
    check(len(lines) == 1 and lines[0].startswith("error: "),
          "%s: stderr is not one 'error: ...' line: %r" % (label, done.stderr))
    print("ok  %s -> %s" % (label, lines[0]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in run.WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            label = "%s --trace %s" % (workload, trace)
            done = run_py(["--workload", workload, "--seconds", "1",
                           "--trace", trace, "--size", "tiny"])
            check(done.returncode == 0, "%s: exit %d\n%s%s" % (
                label, done.returncode, done.stdout[-3000:], done.stderr))
            result = json.loads(done.stdout.strip().split("\n")[-1])
            check(result["correct"], label + ": outputs failed a check")
            for metric in spec[group]:
                name, unit = metric["name"], metric["unit"]
                check(result["metrics"].get(name, {}).get("unit") == unit,
                      "%s: %s missing from the JSON or not in %s"
                      % (label, name, unit))
                printed = re.search(r"^%s %s = \S+ %s$" % (
                    re.escape(workload), re.escape(name), re.escape(unit)),
                    done.stdout, re.MULTILINE)
                check(printed is not None,
                      "%s: %s not printed with its unit" % (label, name))
            if trace == "1":
                digests = re.search(r"^digests: untraced (\w+), traced (\w+)$",
                                    done.stdout, re.MULTILINE)
                check(digests is not None and
                      digests.group(1) == digests.group(2),
                      label + ": traced digest differs from untraced")
            print("ok  %s: %d metrics printed with units" % (
                label, len(spec[group])))

    binary = os.path.join(run.build_root(), "release", "perfbench")
    base = [sys.executable, os.path.join(HERE, "run.py")]
    check_usage_error(base + ["--workload", "nope", "--seconds", "1"],
                      "run.py unknown workload")
    check_usage_error(base + ["--workload", "table2-full", "--bogus", "1"],
                      "run.py unknown flag")
    check_usage_error([binary, "--workload", "nope"],
                      "perfbench unknown workload")
    check_usage_error([binary, "--workload", "table2-full", "--bogus", "1"],
                      "perfbench unknown flag")
    print("smoke passed")


if __name__ == "__main__":
    main()
