// Tests for the streaming campaign store (src/store/): the %.17g
// round-trip contract on both backends, kill-mid-write recovery,
// compaction (dedupe, stale-fingerprint purge, live-writer refusal)
// and cross-backend byte identity of merged results.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "store/jsonl.hpp"
#include "store/sqlite.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

/// Fresh temp directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("bas-store-" + name + "-" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// Doubles that only survive a text round trip at full %.17g precision.
std::vector<double> awkward_metrics() {
  return {1.0 / 3.0,  -0.0, 5e-324, 1.7976931348623157e308, 0.1,
          123456789.123456789};
}

void append_one(store::CampaignStore& s, std::size_t job,
                std::vector<double> metrics) {
  s.append({job, std::move(metrics), ""});
}

std::size_t count_files(const std::string& dir) {
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++files;
  }
  return files;
}

exp::ExperimentSpec awkward_spec() {
  exp::ExperimentSpec spec;
  spec.title = "awkward";
  spec.grid.add("a", {"a0", "a1", "a2"}).add("b", {"b0", "b1"});
  spec.metrics = {"x", "y"};
  spec.replicates = 3;
  spec.seed = 77;
  spec.run = [](const exp::Job& job) -> std::vector<double> {
    const double u =
        static_cast<double>(util::Rng::mix(job.seed)) / 1.8446744e19;
    return {std::sin(u) / 3.0, std::exp(-u) * 1e-7};
  };
  return spec;
}

// ------------------------------------------------------ shared helpers

TEST(StoreHelpers, MetricsFormatRoundTripsBitwise) {
  const auto metrics = awkward_metrics();
  std::vector<double> parsed;
  ASSERT_TRUE(store::parse_metrics(store::format_metrics(metrics).c_str(),
                                   &parsed));
  ASSERT_EQ(parsed.size(), metrics.size());
  EXPECT_EQ(0, std::memcmp(parsed.data(), metrics.data(),
                           metrics.size() * sizeof(double)));
  ASSERT_TRUE(store::parse_metrics("[]", &parsed));
  EXPECT_TRUE(parsed.empty());
}

TEST(StoreHelpers, MalformedMetricsAreRejected) {
  std::vector<double> parsed;
  for (const char* bad : {"", "1,2", "[1 2]", "[x]", "{1}"}) {
    EXPECT_FALSE(store::parse_metrics(bad, &parsed)) << bad;
  }
}

TEST(StoreHelpers, BackendFromLabel) {
  EXPECT_EQ(store::backend_from_label("jsonl"), store::Backend::kJsonl);
  EXPECT_EQ(store::backend_from_label("sqlite"), store::Backend::kSqlite);
  EXPECT_THROW(store::backend_from_label("parquet"), std::runtime_error);
}

// ------------------------------------------------------- jsonl backend

TEST(JsonlStore, RoundTripsDoublesBitwise) {
  TempDir dir("roundtrip");
  const auto metrics = awkward_metrics();
  {
    store::JsonlStore cache(dir.path, 0xabcdefULL, "");
    append_one(cache, 7, metrics);
  }
  store::JsonlStore cache(dir.path, 0xabcdefULL, "");
  const auto loaded = cache.load(metrics.size());
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_TRUE(loaded.count(7));
  ASSERT_EQ(loaded.at(7).size(), metrics.size());
  EXPECT_EQ(0, std::memcmp(loaded.at(7).data(), metrics.data(),
                           metrics.size() * sizeof(double)));
}

TEST(JsonlStore, IgnoresOtherFingerprintsTornLinesAndWrongArity) {
  TempDir dir("filter");
  store::JsonlStore mine(dir.path, 0x1111ULL, "");
  append_one(mine, 0, {1.0, 2.0});
  store::JsonlStore other(dir.path, 0x2222ULL, "");
  append_one(other, 1, {3.0, 4.0});
  append_one(mine, 2, {5.0});  // wrong arity for a 2-metric load
  {
    std::ofstream torn(dir.path + "/torn.jsonl", std::ios::app);
    torn << "{\"fp\":\"" << exp::fingerprint_hex(0x1111ULL)
         << "\",\"job\":9,\"metrics\":[1.0";  // no closing brace/newline
  }
  const auto loaded = mine.load(2);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.count(0));
}

TEST(JsonlStore, AppendHealsATornTailBeforeWriting) {
  TempDir dir("torn-tail");
  const std::string fp = exp::fingerprint_hex(0x4444ULL);
  store::JsonlStore probe(dir.path, 0x4444ULL, "");
  {
    // A killed writer's file: a complete record, then a torn line with
    // no trailing newline.
    std::ofstream file(probe.describe());
    file << "{\"fp\":\"" << fp << "\",\"job\":0,\"metrics\":[1]}\n";
    file << "{\"fp\":\"" << fp << "\",\"job\":5,\"metrics\":";
  }
  store::JsonlStore cache(dir.path, 0x4444ULL, "");
  append_one(cache, 9, {7.0});
  const auto loaded = cache.load(1);
  // The torn job-5 line must stay torn (skipped), never absorb job 9's
  // metrics; jobs 0 and 9 survive.
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.count(0));
  ASSERT_TRUE(loaded.count(9));
  EXPECT_EQ(loaded.at(9), std::vector<double>{7.0});
  EXPECT_FALSE(loaded.count(5));
}

TEST(JsonlStore, SeparateWriterTagsSeparateFiles) {
  TempDir dir("tags");
  store::JsonlStore s0(dir.path, 0x3333ULL, "s0of2");
  store::JsonlStore s1(dir.path, 0x3333ULL, "s1of2");
  EXPECT_NE(s0.describe(), s1.describe());
  append_one(s0, 0, {1.0});
  append_one(s1, 1, {2.0});
  EXPECT_EQ(s0.load(1).size(), 2u);  // load pools every file in the dir
}

TEST(JsonlStore, ErrorRowsRoundTripAndAreServedSeparately) {
  TempDir dir("error-rows");
  const std::string nasty = "broke: \"quoted\", back\\slash,\nnewline\ttab";
  {
    store::JsonlStore cache(dir.path, 0x5555ULL, "");
    cache.append({0, {1.0}, ""});
    cache.append({1, {}, nasty});
  }
  store::JsonlStore cache(dir.path, 0x5555ULL, "");
  const auto loaded = cache.load(1);
  ASSERT_EQ(loaded.size(), 1u);  // the error row is not a result
  EXPECT_TRUE(loaded.count(0));
  const auto errors = cache.load_errors();
  ASSERT_EQ(errors.size(), 1u);
  ASSERT_TRUE(errors.count(1));
  EXPECT_EQ(errors.at(1), nasty);
}

TEST(JsonlStore, LaterRecordOfTheOtherKindWins) {
  TempDir dir("last-wins");
  store::JsonlStore cache(dir.path, 0x6666ULL, "");
  // A failed attempt recorded, then a successful re-run of the same
  // job: the success must win for both load() and load_errors().
  cache.append({3, {}, "flaky"});
  cache.append({3, {42.0}, ""});
  EXPECT_EQ(cache.load(1).size(), 1u);
  EXPECT_TRUE(cache.load_errors().empty());
}

// ------------------------------------------------------ sqlite backend

TEST(SqliteStore, RoundTripsDoublesBitwise) {
  TempDir dir("sq-roundtrip");
  const auto metrics = awkward_metrics();
  {
    auto cache = store::make_store(store::Backend::kSqlite, dir.path,
                                   0xabcdefULL, "");
    append_one(*cache, 7, metrics);
  }
  // A fresh handle (fresh process stand-in) sees the committed row.
  auto cache = store::make_store(store::Backend::kSqlite, dir.path,
                                 0xabcdefULL, "");
  const auto loaded = cache->load(metrics.size());
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_TRUE(loaded.count(7));
  EXPECT_EQ(0, std::memcmp(loaded.at(7).data(), metrics.data(),
                           metrics.size() * sizeof(double)));
}

TEST(SqliteStore, FiltersFingerprintsArityAndErrorRows) {
  TempDir dir("sq-filter");
  auto mine = store::make_store(store::Backend::kSqlite, dir.path,
                                0x1111ULL, "");
  auto other = store::make_store(store::Backend::kSqlite, dir.path,
                                 0x2222ULL, "");
  append_one(*mine, 0, {1.0, 2.0});
  append_one(*other, 1, {3.0, 4.0});
  append_one(*mine, 2, {5.0});       // wrong arity for a 2-metric load
  mine->append({3, {}, "failed"});  // error row
  const auto loaded = mine->load(2);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.count(0));
  const auto errors = mine->load_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.at(3), "failed");
  EXPECT_TRUE(other->load_errors().empty());
}

TEST(SqliteStore, UpsertDedupesReRunJobsInPlace) {
  TempDir dir("sq-upsert");
  auto cache = store::make_store(store::Backend::kSqlite, dir.path,
                                 0x7777ULL, "");
  cache->append({3, {}, "flaky"});
  append_one(*cache, 3, {42.0});
  const auto loaded = cache->load(1);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(3), std::vector<double>{42.0});
  EXPECT_TRUE(cache->load_errors().empty());
}

TEST(SqliteStore, ConcurrentWriterHandlesShareTheDatabase) {
  TempDir dir("sq-shards");
  auto s0 = store::make_store(store::Backend::kSqlite, dir.path,
                              0x3333ULL, "s0of2");
  auto s1 = store::make_store(store::Backend::kSqlite, dir.path,
                              0x3333ULL, "s1of2");
  append_one(*s0, 0, {1.0});
  append_one(*s1, 1, {2.0});
  EXPECT_EQ(s0->load(1).size(), 2u);
}

TEST(SqliteStore, CompactionPurgesStaleFingerprintsAndVacuums) {
  TempDir dir("sq-compact");
  {
    auto live = store::make_store(store::Backend::kSqlite, dir.path,
                                  0xAAAAULL, "");
    auto stale = store::make_store(store::Backend::kSqlite, dir.path,
                                   0xBBBBULL, "");
    append_one(*live, 0, {1.0, 2.0});
    append_one(*live, 1, {3.0, 4.0});
    append_one(*stale, 0, {9.0, 9.0});
    append_one(*stale, 7, {9.0, 9.0});
  }
  const auto before =
      store::make_store(store::Backend::kSqlite, dir.path, 0xAAAAULL, "")
          ->load(2);
  const auto stats =
      store::compact_store(store::Backend::kSqlite, dir.path, 0xAAAAULL, 2);
  EXPECT_EQ(stats.records_seen, 4u);
  EXPECT_EQ(stats.records_kept, 2u);
  auto probe = store::make_store(store::Backend::kSqlite, dir.path,
                                 0xAAAAULL, "");
  EXPECT_EQ(probe->load(2), before);
  auto dead = store::make_store(store::Backend::kSqlite, dir.path,
                                0xBBBBULL, "");
  EXPECT_TRUE(dead->load(2).empty());
}

// ----------------------------------------------------- jsonl compaction

TEST(Compaction, DedupesReRunJobsAndDropsStaleFingerprints) {
  TempDir dir("compact");
  // Two writers of the live fingerprint re-ran job 0 (dupes), a third
  // file holds a dead campaign's records, and one torn tail.
  {
    store::JsonlStore w0(dir.path, 0xAAAAULL, "s0of2");
    store::JsonlStore w1(dir.path, 0xAAAAULL, "s1of2");
    store::JsonlStore stale(dir.path, 0xBBBBULL, "");
    append_one(w0, 0, {1.0, 2.0});
    append_one(w0, 2, {3.0, 4.0});
    append_one(w1, 0, {1.5, 2.5});  // job 0 re-run by the other shard
    append_one(w1, 1, {5.0, 6.0});
    append_one(stale, 0, {9.0, 9.0});
    append_one(stale, 7, {9.0, 9.0});
    std::ofstream torn(w0.describe(), std::ios::app);
    torn << "{\"fp\":\"" << exp::fingerprint_hex(0xAAAAULL)
         << "\",\"job\":3,\"metrics\":";
  }

  // The invariant: a load() after compaction serves exactly what a
  // load() before it would have (same last-wins winners).
  const auto before = store::JsonlStore(dir.path, 0xAAAAULL, "").load(2);
  const auto stats =
      store::compact_store(store::Backend::kJsonl, dir.path, 0xAAAAULL, 2);
  const auto after = store::JsonlStore(dir.path, 0xAAAAULL, "").load(2);
  EXPECT_EQ(before, after);
  ASSERT_EQ(after.size(), 3u);  // jobs 0, 1, 2 — no stale job 7, no torn 3

  EXPECT_EQ(stats.files_scanned, 3u);
  EXPECT_EQ(stats.files_removed, 3u);
  EXPECT_EQ(stats.records_seen, 7u);  // 5 live-fp-file lines + 2 stale
  EXPECT_EQ(stats.records_kept, 3u);

  // One canonical file remains; the dead campaign's records are gone.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string(),
              exp::fingerprint_hex(0xAAAAULL) + ".jsonl");
  }
  EXPECT_EQ(count_files(dir.path), 1u);
  EXPECT_TRUE(store::JsonlStore(dir.path, 0xBBBBULL, "").load(2).empty());
}

TEST(Compaction, MissingOrEmptyDirectoryIsANoop) {
  const auto none = store::compact_store(
      store::Backend::kJsonl, "/nonexistent/bas-compact-test", 0x1ULL, 2);
  EXPECT_EQ(none.files_scanned, 0u);
  EXPECT_EQ(none.records_kept, 0u);

  TempDir dir("compact-empty");
  {
    store::JsonlStore stale(dir.path, 0xBBBBULL, "");
    append_one(stale, 0, {1.0});
  }
  // Nothing matches the live fingerprint: old files are removed and no
  // compacted file is written.
  const auto stats =
      store::compact_store(store::Backend::kJsonl, dir.path, 0xAAAAULL, 1);
  EXPECT_EQ(stats.records_kept, 0u);
  EXPECT_EQ(stats.files_removed, 1u);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(Compaction, CompactedStoreRoundTripsThroughMergeBitwise) {
  TempDir dir("compact-merge");
  const auto spec = awkward_spec();
  const auto fresh = exp::run_experiment(spec, 4);

  // Populate via two shards, plus a duplicate re-run of shard 0 under a
  // different writer tag so the directory really holds re-run jobs.
  for (int s = 0; s < 2; ++s) {
    exp::RunnerOptions options;
    options.jobs = 2;
    options.shard = exp::Shard{s, 2};
    options.cache_dir = dir.path;
    exp::run_experiment(spec, options);
  }
  {
    const exp::Plan plan(spec);
    store::JsonlStore dupes(dir.path, plan.fingerprint(), "rerun");
    append_one(dupes, 0, spec.run(plan.job(0)));
  }

  exp::RunnerOptions merge;
  merge.merge_only = true;
  merge.compact_cache = true;
  merge.cache_dir = dir.path;
  const auto merged = exp::run_experiment(spec, merge);
  EXPECT_EQ(exp::to_csv(fresh), exp::to_csv(merged));
  EXPECT_EQ(count_files(dir.path), 1u);

  // A second compact + resume run over the compacted dir still has
  // every job stored and folds to the same bytes.
  exp::RunnerOptions resume;
  resume.jobs = 4;
  resume.compact_cache = true;
  resume.cache_dir = dir.path;
  EXPECT_EQ(exp::to_csv(fresh),
            exp::to_csv(exp::run_experiment(spec, resume)));
}

TEST(Compaction, WithoutStoreDirIsRejected) {
  exp::RunnerOptions options;
  options.compact_cache = true;
  EXPECT_THROW(exp::run_experiment(awkward_spec(), options),
               std::invalid_argument);
}

TEST(Compaction, FromAShardIsRejected) {
  // A shard is one of several concurrent writers; compacting from it
  // would delete its siblings' in-flight files.
  TempDir dir("compact-shard");
  exp::RunnerOptions options;
  options.compact_cache = true;
  options.cache_dir = dir.path;
  options.shard = exp::Shard{0, 2};
  EXPECT_THROW(exp::run_experiment(awkward_spec(), options),
               std::invalid_argument);
}

// ------------------------------------------------- live-writer markers

TEST(Compaction, RefusesWhileAForeignWriterIsLive) {
  TempDir dir("live-writer");
  {
    store::JsonlStore writer(dir.path, 0xAAAAULL, "");
    append_one(writer, 0, {1.0});
  }
  // Pid 1 (init) always exists and is never ours: a guaranteed-live
  // foreign writer.
  const std::string marker = dir.path + "/dead.pid1.live";
  std::ofstream(marker) << "1\n";
  try {
    store::compact_store(store::Backend::kJsonl, dir.path, 0xAAAAULL, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("refusing to compact"), std::string::npos)
        << message;
    EXPECT_NE(message.find("pid 1"), std::string::npos) << message;
  }
  // The data survived the refusal; clearing the marker unblocks it.
  std::filesystem::remove(marker);
  const auto stats =
      store::compact_store(store::Backend::kJsonl, dir.path, 0xAAAAULL, 1);
  EXPECT_EQ(stats.records_kept, 1u);
}

TEST(Compaction, ClearsMarkersOfDeadWriters) {
  TempDir dir("dead-writer");
  {
    store::JsonlStore writer(dir.path, 0xAAAAULL, "");
    append_one(writer, 0, {1.0});
  }
  // A genuinely dead pid: fork a child that exits immediately and reap
  // it — a kill -9'd shard's leftover marker.
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  const std::string marker =
      dir.path + "/killed.pid" + std::to_string(child) + ".live";
  std::ofstream(marker) << child << "\n";

  const auto stats =
      store::compact_store(store::Backend::kJsonl, dir.path, 0xAAAAULL, 1);
  EXPECT_EQ(stats.records_kept, 1u);
  EXPECT_FALSE(std::filesystem::exists(marker));
}

TEST(Compaction, OwnProcessMarkersDoNotBlock) {
  TempDir dir("own-writer");
  store::JsonlStore writer(dir.path, 0xAAAAULL, "done");
  append_one(writer, 0, {1.0});
  // Same-process compaction is caller-controlled (the runner compacts
  // before opening its writer); only *other* processes block it.
  const auto stats =
      store::compact_store(store::Backend::kJsonl, dir.path, 0xAAAAULL, 1);
  EXPECT_EQ(stats.records_kept, 1u);
}

// ----------------------------------------------- cross-backend contract

TEST(CrossBackend, ShardedMergesAreByteIdenticalAcrossBackends) {
  const auto spec = awkward_spec();
  const std::string fresh_csv = exp::to_csv(exp::run_experiment(spec, 4));

  for (const char* label : {"jsonl", "sqlite"}) {
    const auto backend = store::backend_from_label(label);
    for (const int shards : {1, 3}) {
      TempDir dir(std::string("xb-") + label + "-" + std::to_string(shards));
      for (int s = 0; s < shards; ++s) {
        exp::RunnerOptions options;
        options.jobs = 2;
        options.shard = exp::Shard{s, shards};
        options.cache_dir = dir.path;
        options.store_backend = backend;
        exp::run_experiment(spec, options);
      }
      exp::RunnerOptions merge;
      merge.merge_only = true;
      merge.cache_dir = dir.path;
      merge.store_backend = backend;
      const auto merged = exp::run_experiment(spec, merge);
      EXPECT_EQ(fresh_csv, exp::to_csv(merged))
          << label << " x" << shards;
    }
  }
}

TEST(CrossBackend, SqliteResumeSkipsStoredJobs) {
  TempDir dir("sq-resume");
  auto spec = awkward_spec();
  exp::RunnerOptions first;
  first.shard = exp::Shard{0, 2};
  first.cache_dir = dir.path;
  first.store_backend = store::Backend::kSqlite;
  exp::run_experiment(spec, first);

  std::atomic<std::size_t> executed{0};
  const auto inner = spec.run;
  spec.run = [&executed, inner](const exp::Job& job) {
    executed.fetch_add(1);
    return inner(job);
  };
  exp::RunnerOptions resume;
  resume.jobs = 4;
  resume.cache_dir = dir.path;
  resume.store_backend = store::Backend::kSqlite;
  const auto resumed = exp::run_experiment(spec, resume);
  EXPECT_EQ(executed.load(), spec.job_count() / 2);
  EXPECT_EQ(exp::to_csv(exp::run_experiment(awkward_spec(), 1)),
            exp::to_csv(resumed));
}

}  // namespace
}  // namespace bas
