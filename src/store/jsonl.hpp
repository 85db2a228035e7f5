#pragma once
// The JSONL campaign-store backend (the default), refactored from the
// original src/exp/cache implementation with the on-disk format
// preserved byte for byte. Every record is one line:
//
//   {"fp":"<16-hex fingerprint>","job":<index>,"metrics":[<%.17g>...]}
//   {"fp":"<16-hex fingerprint>","job":<index>,"error":"<escaped>"}
//
// Each record is flushed as it is appended: a killed campaign loses only
// the jobs whose rows were not yet appended, and load() simply skips a
// torn final line. Writers never share a file — each
// (fingerprint, writer tag) pair appends to its own
// `<fingerprint>[-<tag>].jsonl` — so concurrent shard processes can
// point at the same store directory. load() scans every *.jsonl file
// in the directory and filters records by fingerprint, which is also
// what makes `--merge` work: shard outputs and resumed runs are just
// more files in the pool.

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>

#include "store/store.hpp"

namespace bas::store {

class JsonlStore final : public CampaignStore {
 public:
  /// Opens the store in `dir` (created if missing) for one spec
  /// fingerprint; registers this writer's live marker. Throws
  /// std::runtime_error when the directory cannot be created.
  JsonlStore(std::string dir, std::uint64_t fingerprint, std::string tag);

  std::map<std::size_t, std::vector<double>> load(
      std::size_t metric_count) override;
  std::map<std::size_t, std::string> load_errors() override;
  void append(const StoreRecord& record) override;
  /// The file this writer appends to (inside the store directory).
  const std::string& describe() const noexcept override {
    return write_path_;
  }

 private:
  std::string dir_;
  std::uint64_t fingerprint_ = 0;
  std::string write_path_;
  std::mutex mutex_;
  std::ofstream out_;
  std::optional<WriterMarker> marker_;
};

/// The jsonl half of store::compact_store() — see that function for the
/// contract. Exposed for tests.
CompactionStats compact_jsonl(const std::string& dir,
                              std::uint64_t fingerprint,
                              std::size_t metric_count);

}  // namespace bas::store
