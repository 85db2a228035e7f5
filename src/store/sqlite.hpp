#pragma once
// The SQLite campaign-store backend: one `campaign.sqlite` database per
// store directory, shared by every fingerprint that ever ran there, so
// cross-campaign analysis (perf history, paper-gap trends across
// sweeps) is a query instead of a script. Schema:
//
//   results(fp TEXT, job INTEGER, metrics TEXT, error TEXT,
//           PRIMARY KEY(fp, job))
//   campaigns(fp TEXT PRIMARY KEY, title TEXT, metrics TEXT)
//
// `metrics` carries the engine's canonical "[%.17g,...]" rendering —
// the same bytes the jsonl backend stores — so doubles round-trip
// bit-exactly and merge output is byte-identical across backends.
// Each row is upserted (INSERT OR REPLACE) in its own transaction:
// re-run jobs dedupe themselves, concurrent shard writers serialize on
// the database lock (busy_timeout), and a kill -9 loses at most the
// uncommitted row — WAL journaling recovers everything committed on
// the next open.

#include <cstdint>
#include <string>

#include "store/store.hpp"

namespace bas::store {

class SqliteStore final : public CampaignStore {
 public:
  /// Opens (creating if missing) `dir`/campaign.sqlite for one spec
  /// fingerprint; registers this writer's live marker. Throws
  /// std::runtime_error when the database cannot be opened.
  SqliteStore(std::string dir, std::uint64_t fingerprint);
  ~SqliteStore() override;

  std::map<std::size_t, std::vector<double>> load(
      std::size_t metric_count) override;
  std::map<std::size_t, std::string> load_errors() override;
  void append(const StoreRecord& record) override;
  const std::string& describe() const noexcept override { return db_path_; }
  void annotate(const std::string& title,
                const std::vector<std::string>& metric_names) override;

 private:
  struct Impl;
  std::string dir_;
  std::uint64_t fingerprint_ = 0;
  std::string db_path_;
  Impl* impl_ = nullptr;
};

/// The sqlite half of store::compact_store(): deletes every row whose
/// fingerprint differs (dedupe needs no work — the primary key upserts
/// it away) and VACUUMs the database. Exposed for tests.
CompactionStats compact_sqlite(const std::string& dir,
                               std::uint64_t fingerprint);

}  // namespace bas::store
