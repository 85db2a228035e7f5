#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace bas::util {

namespace {

/// std::from_chars over all of `text`: no leading blanks or '+', no
/// trailing characters, and (for unsigned T) no '-'.
template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  return ec == std::errc() && end == last;
}

[[noreturn]] void reject(const std::string& what, const char* expected,
                         const std::string& text) {
  throw std::invalid_argument(what + " expects " + expected + ", got '" +
                              text + "'");
}

}  // namespace

long long parse_int(const std::string& what, const std::string& text,
                    long long lo, long long hi) {
  long long value = 0;
  if (!parse_whole(text, value) || value < lo || value > hi) {
    reject(what, "an integer", text);
  }
  return value;
}

double parse_double(const std::string& what, const std::string& text) {
  double value = 0.0;
  if (!parse_whole(text, value)) {
    reject(what, "a number", text);
  }
  return value;
}

std::uint64_t parse_u64(const std::string& what, const std::string& text) {
  std::uint64_t value = 0;
  if (!parse_whole(text, value)) {
    reject(what, "a non-negative integer", text);
  }
  return value;
}

Cli::Cli(int argc, const char* const* argv,
         std::map<std::string, std::string> defaults)
    : values_(std::move(defaults)) {
  // Flag-ness is fixed by the declared default, never by the current
  // value — a value option that happens to hold "0"/"1" (e.g. --seed 1)
  // must still consume `--seed 7`'s argument.
  for (const auto& [key, value] : values_) {
    if (value == "false" || value == "true") {
      flags_.push_back(key);
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument '" + arg +
                               "' (options start with --)");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = values_.find(name);
    if (it == values_.end()) {
      std::ostringstream msg;
      msg << "unknown option --" << name << " (known options:";
      for (const auto& [key, unused] : values_) {
        msg << " --" << key;
      }
      msg << ")";
      throw std::runtime_error(msg.str());
    }
    const bool is_flag =
        std::find(flags_.begin(), flags_.end(), name) != flags_.end();
    if (!has_value) {
      if (is_flag) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::runtime_error("option --" + name + " expects a value");
      }
    }
    it->second = value;
  }
}

std::map<std::string, std::string> Cli::with_bench_defaults(
    std::map<std::string, std::string> defaults) {
  defaults.emplace("jobs", "auto");
  defaults.emplace("csv", "");
  defaults.emplace("shard", "");
  defaults.emplace("cache", "");
  defaults.emplace("store", "jsonl");
  defaults.emplace("cache-compact", "false");
  defaults.emplace("merge", "false");
  defaults.emplace("progress", "false");
  defaults.emplace("trace-out", "");
  defaults.emplace("keep-going", "false");
  return defaults;
}

int Cli::jobs() const {
  const std::string value = get("jobs");
  if (value == "auto" || value == "0") {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  try {
    return static_cast<int>(parse_int("option --jobs", value, 1, 4096));
  } catch (const std::invalid_argument&) {
    // Reject trailing garbage ("4x") and out-of-range counts rather than
    // silently truncating, naming the accepted forms.
    throw std::runtime_error(
        "option --jobs expects a thread count in [1, 4096] or 'auto', got '" +
        value + "'");
  }
}

bool Cli::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Cli::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::runtime_error("undeclared option --" + name);
  }
  return it->second;
}

long long Cli::get_int(const std::string& name) const {
  return parse_int("option --" + name, get(name));
}

double Cli::get_double(const std::string& name) const {
  return parse_double("option --" + name, get(name));
}

bool Cli::get_flag(const std::string& name) const {
  const std::string v = get(name);
  return v == "1" || v == "true" || v == "yes";
}

std::uint64_t Cli::get_u64(const std::string& name) const {
  return parse_u64("option --" + name, get(name));
}

std::string Cli::summary() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, value] : values_) {
    // Unset optional values would render as a bare "--key" and make the
    // banner ambiguous to paste back; the empty string is their default.
    if (value.empty()) {
      continue;
    }
    if (!first) {
      out << ' ';
    }
    first = false;
    out << "--" << key << ' ' << value;
  }
  return out.str();
}

std::string Cli::config_summary() const {
  // Flags that steer execution, reporting or storage without changing
  // any job's output — excluded from the cache-keying summary, so
  // switching backend or thread count never invalidates a store full
  // of results.
  static const char* const kEngineFlags[] = {
      "jobs", "csv", "shard", "cache", "store", "cache-compact",
      "merge", "progress", "trace-out", "keep-going", "list-scenarios"};
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, value] : values_) {
    if (std::find_if(std::begin(kEngineFlags), std::end(kEngineFlags),
                     [&key](const char* flag) { return key == flag; }) !=
        std::end(kEngineFlags)) {
      continue;
    }
    // Empty values mark unset optional settings (e.g. --scenario.FIELD
    // overrides); leaving them out keeps the cache key stable when a new
    // optional field is introduced.
    if (value.empty()) {
      continue;
    }
    if (!first) {
      out << ' ';
    }
    first = false;
    out << "--" << key << ' ' << value;
  }
  return out.str();
}

int run_main(int argc, char** argv, MainBody body) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::string what = e.what();
    std::replace(what.begin(), what.end(), '\n', ' ');
    std::fprintf(stderr, "error: %s\n", what.c_str());
    return 2;
  }
}

}  // namespace bas::util
