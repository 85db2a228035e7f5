#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

NAME is table2-full, scenario-gallery, battery-ratecap, or `all` for the
three in turn. --trace 0 times the workload with the default build and
reports the end-to-end metrics; --trace 1 runs it once more untraced and
then traced with a BAS_PROFILE build, and reports the per-layer metrics
plus the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
output check held, 1 when one failed or the build broke, 2 on a usage
error. See perfbench/README.md.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2-full", "scenario-gallery", "battery-ratecap")
# The metrics BENCHMARK.json bounds. perfbench also prints job_p50_ms,
# job_tail_ms, sims_per_s and failed_job_frac, which are reported but not
# bounded (README.md).
END_TO_END = ("sims_per_worker_s", "job_gmean_ms", "setup_s", "peak_rss_mb")
# The runs of perfbench for one workload are killed once this long has
# passed since they began: one invocation for one workload must end
# within 180 s.
CHILD_BUDGET_S = 170
BUILDS = {"release": [], "profile": ["-DBAS_PROFILE=ON"]}


class UsageError(Exception):
    pass


def parse_args(argv):
    args = {"workload": None, "seed": None, "seconds": 10.0, "trace": "0",
            "size": "full"}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if not flag.startswith("--") or flag[2:] not in args:
            raise UsageError("unknown flag '%s'" % flag)
        if i + 1 >= len(argv):
            raise UsageError("%s needs a value" % flag)
        args[flag[2:]] = argv[i + 1]
        i += 2
    if args["workload"] not in WORKLOADS + ("all",):
        raise UsageError("unknown workload '%s' (known: %s, all)"
                         % (args["workload"], ", ".join(WORKLOADS)))
    if args["trace"] not in ("0", "1"):
        raise UsageError("--trace takes 0 or 1, got '%s'" % args["trace"])
    if args["size"] not in ("full", "tiny"):
        raise UsageError("--size takes full or tiny, got '%s'" % args["size"])
    try:
        args["seconds"] = float(args["seconds"])
    except ValueError:
        raise UsageError("--seconds needs a number, got '%s'" % args["seconds"])
    if not args["seconds"] > 0:
        raise UsageError("--seconds must be positive")
    if args["seed"] is not None and not args["seed"].isdigit():
        raise UsageError("--seed needs a non-negative integer, got '%s'"
                         % args["seed"])
    return args


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    """Configures (once) and builds both variants of perfbench."""
    binaries = {}
    for variant, flags in BUILDS.items():
        directory = os.path.join(build_root(), variant)
        steps = []
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", directory,
                          "-DCMAKE_BUILD_TYPE=Release"] + flags)
        steps.append(["cmake", "--build", directory, "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                raise RuntimeError("building perfbench (%s) failed" % variant)
        binaries[variant] = os.path.join(directory, "perfbench")
    return binaries


def run_child(binary, args, seconds, trace, deadline):
    command = [binary, "--workload", args["workload"],
               "--seconds", repr(seconds), "--trace", trace,
               "--size", args["size"],
               "--work-dir", os.path.join(build_root(), "work")]
    if args["seed"] is not None:
        command += ["--seed", args["seed"]]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("perfbench did not finish within %d s"
                           % CHILD_BUDGET_S)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise RuntimeError("perfbench exited %d without a result"
                           % done.returncode)
    if done.returncode not in (0, 1):
        raise RuntimeError("perfbench exited %d" % done.returncode)
    return result


def run_workload(args, binaries, deadline):
    """One workload; returns (correct, attempted, failed, printed, metrics).

    `printed` is every figure to show; `metrics` the ones the JSON carries.
    """
    if args["trace"] == "0":
        out = run_child(binaries["release"], args, args["seconds"], "0",
                        deadline)
        metrics = {name: out["metrics"][name] for name in END_TO_END}
        return (out["correct"], out["attempted"], out["failed"],
                out["metrics"], metrics)

    # The untraced reference: the same campaign, default build, no spans.
    # The profiler roughly doubles a traced rep, so both get a third of
    # the time and the pair stays near --seconds.
    plain = run_child(binaries["release"], args, args["seconds"] / 3, "0",
                      deadline)
    traced = run_child(binaries["profile"], args, args["seconds"] / 3, "1",
                       deadline)
    correct = plain["correct"] and traced["correct"]
    if traced["digest"] != plain["digest"]:
        print("CHECK FAILED: traced digest %s != untraced digest %s"
              % (traced["digest"], plain["digest"]))
        correct = False
    if not traced["phase_profile"]:
        print("note: the profile build has no phase profiler; phase shares "
              "read 0")
    metrics = dict(traced["metrics"])
    overhead = 100.0 * (statistics.median(traced["rep_wall_s"])
                        / statistics.median(plain["rep_wall_s"]) - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print("trace.overhead_pct = %r %% (traced rep wall median vs untraced)"
          % overhead)
    print("digests: untraced %s, traced %s" % (plain["digest"],
                                              traced["digest"]))
    return (correct, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics, metrics)


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    try:
        binaries = build()
        names = WORKLOADS if args["workload"] == "all" else (args["workload"],)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            one = dict(args, workload=name)
            if len(names) > 1:
                print("\n==== %s ====" % name)
            deadline = time.monotonic() + CHILD_BUDGET_S
            ok, n, bad, printed, values = run_workload(one, binaries,
                                                       deadline)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            for key, value in printed.items():
                print("%s %s = %r %s" % (name, key, value["value"],
                                         value["unit"]))
            for key, value in values.items():
                metrics[key if len(names) == 1 else name + "/" + key] = value
    except (RuntimeError, OSError) as error:
        sys.stderr.write("error: %s\n" % error)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
