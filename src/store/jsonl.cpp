#include "store/jsonl.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "exp/plan.hpp"

namespace bas::store {

namespace {

/// Minimal JSON string escaping for error messages: enough that any
/// message round-trips one line and never breaks the record framing.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        // Other control characters would need \u escapes to be strict
        // JSON; a space keeps the line parseable without the machinery.
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
  }
  return out;
}

std::string unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      default:
        out += text[i];
    }
  }
  return out;
}

/// Parsed form of one line; exactly one of metrics/error is meaningful.
struct ParsedRecord {
  std::size_t job_index = 0;
  std::vector<double> metrics;
  std::string error;
  bool is_error = false;
};

/// Parses one JSONL record. Returns false (leaving the output
/// untouched) on anything malformed — the caller treats that as "not
/// stored".
bool parse_record(const std::string& line, const std::string& fp_hex,
                  ParsedRecord* record) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return false;
  }
  const auto fp_at = line.find("\"fp\":\"");
  if (fp_at == std::string::npos ||
      line.compare(fp_at + 6, fp_hex.size(), fp_hex) != 0 ||
      fp_at + 6 + fp_hex.size() >= line.size() ||
      line[fp_at + 6 + fp_hex.size()] != '"') {
    return false;
  }
  const auto job_at = line.find("\"job\":");
  if (job_at == std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const char* cursor = line.c_str() + job_at + 6;
  const unsigned long long index = std::strtoull(cursor, &end, 10);
  if (end == cursor) {
    return false;
  }
  if (const auto error_at = line.find("\"error\":\"", job_at);
      error_at != std::string::npos) {
    const auto start = error_at + 9;
    const auto close = line.rfind('"');
    if (close == std::string::npos || close <= start) {
      return false;
    }
    record->job_index = static_cast<std::size_t>(index);
    record->error = unescape(line.substr(start, close - start));
    record->is_error = true;
    return true;
  }
  const auto metrics_at = line.find("\"metrics\":", job_at);
  if (metrics_at == std::string::npos) {
    return false;
  }
  std::vector<double> values;
  if (!parse_metrics(line.c_str() + metrics_at + 10, &values)) {
    return false;
  }
  record->job_index = static_cast<std::size_t>(index);
  record->metrics = std::move(values);
  record->is_error = false;
  return true;
}

std::string format_record(const std::string& fp_hex,
                          const StoreRecord& record) {
  std::string line =
      "{\"fp\":\"" + fp_hex +
      "\",\"job\":" + std::to_string(record.job_index);
  if (record.is_error()) {
    line += ",\"error\":\"" + escape(record.error) + "\"}\n";
  } else {
    line += ",\"metrics\":" + format_metrics(record.metrics) + "}\n";
  }
  return line;
}

/// Accept success records of any arity (load_errors() must let a
/// later success of whatever shape supersede an error row).
constexpr std::size_t kAnyArity = static_cast<std::size_t>(-1);

/// load()/load_errors()/compaction share one scan so duplicates
/// resolve identically everywhere: directory-iteration order, last
/// record per job index wins, and a later success/error record
/// replaces an earlier record of the other kind.
void scan_directory(const std::string& dir, const std::string& fp_hex,
                    std::size_t metric_count,
                    std::map<std::size_t, ParsedRecord>* records,
                    CompactionStats* stats,
                    std::vector<std::filesystem::path>* files) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".jsonl") {
      continue;
    }
    if (stats) {
      ++stats->files_scanned;
    }
    if (files) {
      files->push_back(entry.path());
    }
    std::ifstream file(entry.path());
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty()) {
        continue;
      }
      if (stats) {
        ++stats->records_seen;
      }
      ParsedRecord record;
      if (parse_record(line, fp_hex, &record) &&
          (record.is_error || metric_count == kAnyArity ||
           record.metrics.size() == metric_count)) {
        (*records)[record.job_index] = std::move(record);
      }
    }
  }
}

}  // namespace

JsonlStore::JsonlStore(std::string dir, std::uint64_t fingerprint,
                       std::string tag)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("cannot create store directory '" + dir_ +
                             "': " + ec.message());
  }
  const std::string stem = exp::fingerprint_hex(fingerprint_) +
                           (tag.empty() ? "" : "-" + tag);
  write_path_ = dir_ + "/" + stem + ".jsonl";
  marker_.emplace(dir_, stem);
}

std::map<std::size_t, std::vector<double>> JsonlStore::load(
    std::size_t metric_count) {
  std::map<std::size_t, ParsedRecord> records;
  scan_directory(dir_, exp::fingerprint_hex(fingerprint_), metric_count,
                 &records, nullptr, nullptr);
  std::map<std::size_t, std::vector<double>> metrics;
  for (auto& [job_index, record] : records) {
    if (!record.is_error) {
      metrics[job_index] = std::move(record.metrics);
    }
  }
  return metrics;
}

std::map<std::size_t, std::string> JsonlStore::load_errors() {
  std::map<std::size_t, ParsedRecord> records;
  scan_directory(dir_, exp::fingerprint_hex(fingerprint_), kAnyArity,
                 &records, nullptr, nullptr);
  std::map<std::size_t, std::string> errors;
  for (auto& [job_index, record] : records) {
    if (record.is_error) {
      errors[job_index] = std::move(record.error);
    }
  }
  return errors;
}

void JsonlStore::append(const StoreRecord& record) {
  const std::string line =
      format_record(exp::fingerprint_hex(fingerprint_), record);

  std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open()) {
    // A killed writer can leave the file without a trailing newline;
    // appending straight onto that torn line would merge two records
    // (and the torn prefix could steal the new record's metrics). Heal
    // with a newline so the torn line stays torn and load() skips it.
    bool needs_newline = false;
    {
      std::ifstream existing(write_path_, std::ios::binary | std::ios::ate);
      if (existing && existing.tellg() > 0) {
        existing.seekg(-1, std::ios::end);
        needs_newline = existing.get() != '\n';
      }
    }
    out_.open(write_path_, std::ios::app);
    if (!out_) {
      throw std::runtime_error("cannot open store file '" + write_path_ +
                               "' for appending");
    }
    if (needs_newline) {
      out_.put('\n');
    }
  }
  // One write + one flush per record: the line was formatted off the
  // stream, and the durability contract (an appended record survives a
  // kill) costs exactly one flush.
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("failed appending to store file '" +
                             write_path_ + "'");
  }
}

CompactionStats compact_jsonl(const std::string& dir,
                              std::uint64_t fingerprint,
                              std::size_t metric_count) {
  CompactionStats stats;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return stats;  // nothing to compact
  }

  // Scan exactly the way load() does — same iteration order, last
  // record per job index wins — so the survivors are the records a
  // load() of the uncompacted directory would have served.
  const std::string fp_hex = exp::fingerprint_hex(fingerprint);
  std::map<std::size_t, ParsedRecord> kept;
  std::vector<std::filesystem::path> old_files;
  scan_directory(dir, fp_hex, metric_count, &kept, &stats, &old_files);
  stats.records_kept = kept.size();

  // Write the survivors (in job order — compacted files are canonical,
  // so two compactions of equivalent directories are byte-identical)
  // to a temp name, rename it into place, and only then remove the old
  // files. A crash before the rename leaves the originals untouched
  // (load() ignores the ".tmp" extension); a crash after it leaves the
  // compacted file plus some originals, which load() merges to the
  // same records. At no instant does the directory lack the data.
  const std::string target = dir + "/" + fp_hex + ".jsonl";
  const std::string target_name = fp_hex + ".jsonl";
  if (!kept.empty()) {
    const std::string tmp = target + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot write compacted store file '" + tmp +
                               "'");
    }
    std::string records;
    for (const auto& [job_index, record] : kept) {
      StoreRecord row;
      row.job_index = job_index;
      row.metrics = record.metrics;
      row.error = record.error;
      records += format_record(fp_hex, row);
    }
    out.write(records.data(), static_cast<std::streamsize>(records.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("failed writing compacted store file '" + tmp +
                               "'");
    }
    out.close();
    std::filesystem::rename(tmp, target);
  }
  for (const auto& path : old_files) {
    if (!kept.empty() && path.filename().string() == target_name) {
      continue;  // now holds the compacted records
    }
    if (std::filesystem::remove(path, ec)) {
      ++stats.files_removed;
    }
  }
  return stats;
}

}  // namespace bas::store
