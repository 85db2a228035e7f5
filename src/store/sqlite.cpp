#include "store/sqlite.hpp"

#include <sqlite3.h>

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "exp/plan.hpp"

namespace bas::store {

namespace {

[[noreturn]] void raise(sqlite3* db, const std::string& what) {
  throw std::runtime_error("sqlite store: " + what + ": " +
                           (db ? sqlite3_errmsg(db) : "out of memory"));
}

void exec(sqlite3* db, const char* sql) {
  char* error = nullptr;
  if (sqlite3_exec(db, sql, nullptr, nullptr, &error) != SQLITE_OK) {
    const std::string message = error ? error : "unknown error";
    sqlite3_free(error);
    throw std::runtime_error("sqlite store: '" + std::string(sql) +
                             "' failed: " + message);
  }
}

/// RAII prepared statement.
class Stmt {
 public:
  Stmt(sqlite3* db, const char* sql) : db_(db) {
    if (sqlite3_prepare_v2(db, sql, -1, &stmt_, nullptr) != SQLITE_OK) {
      raise(db, std::string("preparing '") + sql + "'");
    }
  }
  ~Stmt() { sqlite3_finalize(stmt_); }
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  sqlite3_stmt* get() noexcept { return stmt_; }
  sqlite3* db() noexcept { return db_; }

 private:
  sqlite3* db_ = nullptr;
  sqlite3_stmt* stmt_ = nullptr;
};

sqlite3* open_database(const std::string& path) {
  sqlite3* db = nullptr;
  if (sqlite3_open_v2(path.c_str(), &db,
                      SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE,
                      nullptr) != SQLITE_OK) {
    const std::string message = db ? sqlite3_errmsg(db) : "out of memory";
    sqlite3_close(db);
    throw std::runtime_error("cannot open sqlite store '" + path +
                             "': " + message);
  }
  // Shard processes share the database; serialize writers on the lock
  // rather than failing fast.
  sqlite3_busy_timeout(db, 30000);
  return db;
}

void ensure_schema(sqlite3* db) {
  // WAL keeps readers unblocked while a shard commits, and recovers
  // every committed row after a kill -9. synchronous=NORMAL fsyncs
  // on checkpoint, not per commit — the same durability class as the
  // jsonl backend's per-row flush.
  exec(db, "PRAGMA journal_mode=WAL");
  exec(db, "PRAGMA synchronous=NORMAL");
  exec(db,
       "CREATE TABLE IF NOT EXISTS results("
       "fp TEXT NOT NULL, job INTEGER NOT NULL, "
       "metrics TEXT, error TEXT, PRIMARY KEY(fp, job))");
  exec(db,
       "CREATE TABLE IF NOT EXISTS campaigns("
       "fp TEXT PRIMARY KEY, title TEXT, metrics TEXT)");
}

}  // namespace

struct SqliteStore::Impl {
  sqlite3* db = nullptr;
  std::optional<WriterMarker> marker;

  ~Impl() { sqlite3_close(db); }
};

SqliteStore::SqliteStore(std::string dir, std::uint64_t fingerprint)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("cannot create store directory '" + dir_ +
                             "': " + ec.message());
  }
  db_path_ = dir_ + "/campaign.sqlite";
  impl_ = new Impl;
  try {
    impl_->db = open_database(db_path_);
    ensure_schema(impl_->db);
    impl_->marker.emplace(dir_, exp::fingerprint_hex(fingerprint_) +
                                    "-sqlite");
  } catch (...) {
    delete impl_;
    impl_ = nullptr;
    throw;
  }
}

SqliteStore::~SqliteStore() { delete impl_; }

std::map<std::size_t, std::vector<double>> SqliteStore::load(
    std::size_t metric_count) {
  std::map<std::size_t, std::vector<double>> cached;
  const std::string fp_hex = exp::fingerprint_hex(fingerprint_);
  Stmt select(impl_->db,
              "SELECT job, metrics FROM results "
              "WHERE fp=?1 AND error IS NULL");
  sqlite3_bind_text(select.get(), 1, fp_hex.c_str(), -1, SQLITE_TRANSIENT);
  int rc;
  while ((rc = sqlite3_step(select.get())) == SQLITE_ROW) {
    const sqlite3_int64 job = sqlite3_column_int64(select.get(), 0);
    const unsigned char* text = sqlite3_column_text(select.get(), 1);
    std::vector<double> metrics;
    if (job >= 0 &&
        parse_metrics(reinterpret_cast<const char*>(text), &metrics) &&
        metrics.size() == metric_count) {
      cached[static_cast<std::size_t>(job)] = std::move(metrics);
    }
  }
  if (rc != SQLITE_DONE) {
    raise(impl_->db, "loading results");
  }
  return cached;
}

std::map<std::size_t, std::string> SqliteStore::load_errors() {
  std::map<std::size_t, std::string> errors;
  const std::string fp_hex = exp::fingerprint_hex(fingerprint_);
  Stmt select(impl_->db,
              "SELECT job, error FROM results "
              "WHERE fp=?1 AND error IS NOT NULL");
  sqlite3_bind_text(select.get(), 1, fp_hex.c_str(), -1, SQLITE_TRANSIENT);
  int rc;
  while ((rc = sqlite3_step(select.get())) == SQLITE_ROW) {
    const sqlite3_int64 job = sqlite3_column_int64(select.get(), 0);
    const unsigned char* text = sqlite3_column_text(select.get(), 1);
    if (job >= 0 && text != nullptr) {
      errors[static_cast<std::size_t>(job)] =
          reinterpret_cast<const char*>(text);
    }
  }
  if (rc != SQLITE_DONE) {
    raise(impl_->db, "loading error rows");
  }
  return errors;
}

void SqliteStore::append(const StoreRecord& record) {
  const std::string fp_hex = exp::fingerprint_hex(fingerprint_);
  // One committed transaction per row (a kill -9 loses nothing
  // committed); the upsert primary key dedupes re-run jobs in place.
  exec(impl_->db, "BEGIN IMMEDIATE");
  try {
    Stmt insert(impl_->db,
                "INSERT OR REPLACE INTO results(fp, job, metrics, error) "
                "VALUES(?1, ?2, ?3, ?4)");
    sqlite3_bind_text(insert.get(), 1, fp_hex.c_str(), -1, SQLITE_TRANSIENT);
    sqlite3_bind_int64(insert.get(), 2,
                       static_cast<sqlite3_int64>(record.job_index));
    if (record.is_error()) {
      sqlite3_bind_null(insert.get(), 3);
      sqlite3_bind_text(insert.get(), 4, record.error.c_str(), -1,
                        SQLITE_TRANSIENT);
    } else {
      const std::string metrics = format_metrics(record.metrics);
      sqlite3_bind_text(insert.get(), 3, metrics.c_str(), -1,
                        SQLITE_TRANSIENT);
      sqlite3_bind_null(insert.get(), 4);
    }
    if (sqlite3_step(insert.get()) != SQLITE_DONE) {
      raise(impl_->db, "inserting result row");
    }
  } catch (...) {
    exec(impl_->db, "ROLLBACK");
    throw;
  }
  exec(impl_->db, "COMMIT");
}

void SqliteStore::annotate(const std::string& title,
                           const std::vector<std::string>& metric_names) {
  const std::string fp_hex = exp::fingerprint_hex(fingerprint_);
  std::string names;
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (m) {
      names += ',';
    }
    names += metric_names[m];
  }
  Stmt upsert(impl_->db,
              "INSERT OR REPLACE INTO campaigns(fp, title, metrics) "
              "VALUES(?1, ?2, ?3)");
  sqlite3_bind_text(upsert.get(), 1, fp_hex.c_str(), -1, SQLITE_TRANSIENT);
  sqlite3_bind_text(upsert.get(), 2, title.c_str(), -1, SQLITE_TRANSIENT);
  sqlite3_bind_text(upsert.get(), 3, names.c_str(), -1, SQLITE_TRANSIENT);
  if (sqlite3_step(upsert.get()) != SQLITE_DONE) {
    raise(impl_->db, "annotating campaign");
  }
}

CompactionStats compact_sqlite(const std::string& dir,
                               std::uint64_t fingerprint) {
  CompactionStats stats;
  const std::string path = dir + "/campaign.sqlite";
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return stats;  // nothing to compact
  }
  stats.files_scanned = 1;

  sqlite3* db = open_database(path);
  try {
    ensure_schema(db);
    const std::string fp_hex = exp::fingerprint_hex(fingerprint);
    {
      Stmt count(db, "SELECT COUNT(*) FROM results");
      if (sqlite3_step(count.get()) == SQLITE_ROW) {
        stats.records_seen =
            static_cast<std::size_t>(sqlite3_column_int64(count.get(), 0));
      }
    }
    {
      Stmt purge(db, "DELETE FROM results WHERE fp<>?1");
      sqlite3_bind_text(purge.get(), 1, fp_hex.c_str(), -1,
                        SQLITE_TRANSIENT);
      if (sqlite3_step(purge.get()) != SQLITE_DONE) {
        raise(db, "purging stale fingerprints");
      }
    }
    exec(db, "DELETE FROM campaigns WHERE fp NOT IN "
             "(SELECT DISTINCT fp FROM results)");
    {
      Stmt count(db, "SELECT COUNT(*) FROM results");
      if (sqlite3_step(count.get()) == SQLITE_ROW) {
        stats.records_kept =
            static_cast<std::size_t>(sqlite3_column_int64(count.get(), 0));
      }
    }
    // Fold the WAL back into the main file and reclaim the purged
    // pages — the sqlite analogue of the jsonl rewrite-in-place.
    exec(db, "PRAGMA wal_checkpoint(TRUNCATE)");
    exec(db, "VACUUM");
  } catch (...) {
    sqlite3_close(db);
    throw;
  }
  sqlite3_close(db);
  return stats;
}

}  // namespace bas::store
