#pragma once
// Minimal command-line option parsing for bench/example binaries.
//
// Supported syntax:  --name value | --name=value | --flag
// Unknown options, stray positional arguments and malformed numbers
// throw, so typos in sweep scripts fail loudly.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace bas::util {

class Cli {
 public:
  /// Parses argv. `defaults` maps option name (without dashes) to a
  /// default value. An option whose default is exactly "false" or
  /// "true" is a boolean flag: bare `--name` sets it to "true" and it
  /// never consumes the following argument (use `--name=false` to
  /// override explicitly). Every other option requires a value.
  /// Unknown options throw std::runtime_error naming the known options;
  /// an argument that is not an option (no leading --) throws naming it.
  Cli(int argc, const char* const* argv,
      std::map<std::string, std::string> defaults);

  /// Merges the options every sweep-style bench shares into `defaults`
  /// (without overriding caller-provided entries):
  ///   --jobs N     worker threads for the experiment engine
  ///                ("auto" = hardware concurrency; results are
  ///                bit-identical for any value)
  ///   --csv PATH   write aggregated cells as CSV (.json for JSON)
  ///   --shard i/n  execute only slice i of an n-way deterministic job
  ///                partition (cluster fan-out; pair with --cache)
  ///   --cache DIR  campaign store: skip jobs already recorded under
  ///                DIR, append fresh results as they finish
  ///   --store B    store backend under --cache: "jsonl" (append-only
  ///                files, the default) or "sqlite" (one shared
  ///                campaign.sqlite); merge output is byte-identical
  ///                across backends
  ///   --cache-compact
  ///                before loading, rewrite the store in place: dedupe
  ///                re-run jobs, drop stale-fingerprint records, VACUUM
  ///                sqlite (requires --cache; composes with --merge;
  ///                refuses while another writer process is live)
  ///   --merge      fold the complete result from the store alone
  ///                (combines shard outputs; requires --cache)
  ///   --progress   report jobs-done/total, ETA and writer-queue stats
  ///                to stderr
  ///   --trace-out PATH
  ///                write a Chrome-trace-event JSON of the campaign
  ///                (per-job spans per worker, fail markers, writer
  ///                queue depth) — load in Perfetto or chrome://tracing;
  ///                purely observational
  ///   --keep-going record failed jobs as error rows and finish the
  ///                shard instead of aborting
  static std::map<std::string, std::string> with_bench_defaults(
      std::map<std::string, std::string> defaults);

  /// Resolved worker-thread count from --jobs: "auto" (or "0") maps to
  /// the hardware concurrency; anything else must be an integer in
  /// [1, 4096] or std::runtime_error is thrown.
  int jobs() const;

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// Numeric getters parse strictly (parse_int / parse_double /
  /// parse_u64 below): "abc", "1x" and, for get_u64, "-1" throw
  /// std::invalid_argument "option --NAME expects ...".
  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  std::uint64_t get_u64(const std::string& name) const;

  /// Renders "--key value" pairs of the effective configuration, for
  /// reproducibility banners at the top of each bench's output. Options
  /// whose value is empty (unset optional settings) are left out.
  std::string summary() const;

  /// summary() minus the engine/campaign flags (--jobs, --csv, --shard,
  /// --cache, --store, --cache-compact, --merge, --progress,
  /// --trace-out, --keep-going, --list-scenarios) and minus options
  /// whose value is empty (unset optional settings, e.g. unused
  /// --scenario.FIELD overrides) — exactly the options that can alter
  /// job outputs. Feed it to ExperimentSpec::config so the campaign
  /// store is invalidated when any driver parameter changes, while
  /// sharded, resumed, differently-threaded and differently-backed runs
  /// of one sweep still share a fingerprint.
  std::string config_summary() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
};

/// Strict numeric parsing shared by Cli's getters and the
/// --scenario.FIELD overrides: all of `text` must be one number in
/// range — no leading blanks, no trailing characters, no sign for
/// parse_u64 — or std::invalid_argument is thrown reading
/// "<what> expects an integer, got '<text>'" (parse_double: "a number";
/// parse_u64: "a non-negative integer").
long long parse_int(const std::string& what, const std::string& text,
                    long long lo = std::numeric_limits<long long>::min(),
                    long long hi = std::numeric_limits<long long>::max());
double parse_double(const std::string& what, const std::string& text);
std::uint64_t parse_u64(const std::string& what, const std::string& text);

/// A driver's entry point: returns its exit status, may throw.
using MainBody = int (*)(int argc, char** argv);

/// Runs `body` and turns any exception it lets escape — an unknown
/// option, a bad label, an unwritable output path — into one
/// `error: <what>` line on stderr and exit status 2, instead of
/// std::terminate and an abort. Drivers call it from main() as
/// `return util::run_main(argc, argv, run);`.
int run_main(int argc, char** argv, MainBody body);

}  // namespace bas::util
