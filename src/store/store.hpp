#pragma once
// The streaming campaign store: where per-job metric rows live between
// (and across) campaign runs.
//
// A CampaignStore persists records keyed on (spec fingerprint, job
// index). Two backends implement the interface:
//
//   jsonl   (default) the append-only JSONL cache — one record per
//           line, per-writer files so concurrent shard processes can
//           share a directory. Format unchanged from the original
//           src/exp/cache implementation, byte for byte.
//   sqlite  a single `campaign.sqlite` database per store directory
//           (WAL mode, one upsert-keyed `results` table shared by every
//           fingerprint), so `--merge` is a query and cross-campaign
//           analysis is SQL.
//
// Both share the engine's %.17g double rendering (exp/sink.hpp), so a
// result folded from either backend is byte-identical to a fresh run —
// the shard/merge/resume contract the campaign layer is verified
// against. Records are either metric rows (a successful job's values)
// or error rows (a job that failed permanently under --keep-going);
// load() serves only metric rows, so resumed runs re-execute failed
// jobs rather than trusting a stale failure.
//
// Writer liveness: every store construction registers a `*.live` marker
// (holding its pid) in the directory and removes it on destruction.
// compact_store() refuses to run while another live writer's marker is
// present — compaction rewrites/removes other writers' data — and
// silently clears markers whose process died (a kill -9 must not brick
// the directory).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bas::store {

/// Which backend a store directory uses.
enum class Backend {
  kJsonl,
  kSqlite,
};

/// Parses "jsonl" / "sqlite"; throws std::runtime_error on anything
/// else (the message lists the valid labels).
Backend backend_from_label(const std::string& label);

/// One persisted row: either a successful job's metrics (error empty)
/// or a permanent failure (metrics empty, error holds the message).
struct StoreRecord {
  std::size_t job_index = 0;
  std::vector<double> metrics;
  std::string error;

  bool is_error() const noexcept { return !error.empty(); }
};

/// What compact_store() did, for progress notes and tests.
struct CompactionStats {
  std::size_t files_scanned = 0;
  std::size_t files_removed = 0;
  std::size_t records_seen = 0;
  std::size_t records_kept = 0;
};

/// The backend interface. One instance is one writer into a store
/// directory for one spec fingerprint; load() pools every record of
/// that fingerprint regardless of which writer appended it.
///
/// Thread model: append() is called from one thread at a time (the
/// runner's workers serialize their appends on one mutex);
/// load()/load_errors() are called before the workers start.
/// Implementations need not synchronize between the two.
class CampaignStore {
 public:
  virtual ~CampaignStore();

  /// Metrics of every stored success record whose fingerprint matches
  /// and whose arity is `metric_count`. Malformed, stale-fingerprint
  /// and error records are skipped; duplicate job indices keep the
  /// record written last.
  virtual std::map<std::size_t, std::vector<double>> load(
      std::size_t metric_count) = 0;

  /// Error messages of every stored error record of this fingerprint.
  virtual std::map<std::size_t, std::string> load_errors() = 0;

  /// Persists one record durably (one write + flush for jsonl, one
  /// committed upsert for sqlite): after append returns, a kill -9 does
  /// not lose it. Throws std::runtime_error on I/O errors.
  virtual void append(const StoreRecord& record) = 0;

  /// Human-readable location ("DIR/<fp>.jsonl", "DIR/campaign.sqlite")
  /// for notes and error messages.
  virtual const std::string& describe() const noexcept = 0;

  /// Optional campaign annotation (title, metric names) so the sqlite
  /// `campaigns` table makes cross-campaign SQL self-describing. The
  /// jsonl backend ignores it.
  virtual void annotate(const std::string& title,
                        const std::vector<std::string>& metric_names);
};

/// Opens store directory `dir` (created if missing) for `fingerprint`.
/// `tag` distinguishes this writer's jsonl file from other processes
/// appending to the same directory (e.g. "s0of2"); the sqlite backend
/// ignores it (the database serializes concurrent writers itself).
/// Throws std::runtime_error when the directory cannot be created or
/// the backend is unavailable.
std::unique_ptr<CampaignStore> make_store(Backend backend, std::string dir,
                                          std::uint64_t fingerprint,
                                          std::string tag);

/// Rewrites store directory `dir` so it holds exactly one canonical
/// success/error record per job of `fingerprint` and nothing else:
/// re-run duplicates are deduped (the survivor is what load() would
/// have served), stale-fingerprint records and torn tails are dropped,
/// and for sqlite the database is VACUUMed. A missing directory is a
/// no-op. Throws std::runtime_error when another live writer holds the
/// directory (see the header comment) or the rewrite fails.
CompactionStats compact_store(Backend backend, const std::string& dir,
                              std::uint64_t fingerprint,
                              std::size_t metric_count);

// --------------------------------------------------------------------
// Shared helpers for backends and tests.

/// Renders metrics as "[v1,v2,...]" with the engine's %.17g doubles.
std::string format_metrics(const std::vector<double>& metrics);

/// Parses a format_metrics() string back; returns false on anything
/// malformed (outputs untouched).
bool parse_metrics(const char* text, std::vector<double>* metrics);

/// Registers a `<dir>/<stem>.pid<PID>.live` marker on construction and
/// removes it on destruction. Used by both backends.
class WriterMarker {
 public:
  /// Throws std::runtime_error when the marker cannot be created.
  WriterMarker(const std::string& dir, const std::string& stem);
  ~WriterMarker();

  WriterMarker(const WriterMarker&) = delete;
  WriterMarker& operator=(const WriterMarker&) = delete;

 private:
  std::string path_;
};

/// Scans `dir` for `*.live` markers. Markers of dead processes are
/// removed; a marker of a live process other than the caller throws
/// std::runtime_error naming the marker and pid. Used by
/// compact_store(); a missing directory is a no-op.
void require_no_live_writers(const std::string& dir);

}  // namespace bas::store
