#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/trace_log.hpp"

namespace perfbench {

namespace {

/// Small stable thread numbers for the trace's tid column.
int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

}  // namespace

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::open(std::string name, int parent, long key) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.key = key;
  span.tid = thread_number();
  span.t0_us = now_us();
  span.t1_us = span.t0_us;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).t1_us = t;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanLog::NameTotals> SpanLog::totals() const {
  const auto all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const auto& span : all) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.t0_us,
                                                                   span.t1_us);
    }
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = -1.0;
    for (const auto& [b, e] : kids) {
      if (b > run_end) {
        covered += std::max(0.0, run_end - run_begin);
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    covered += std::max(0.0, run_end - run_begin);
    auto& t = out[all[i].name];
    ++t.count;
    t.total_us += all[i].dur_us();
    t.self_us += all[i].dur_us() - covered;
    t.max_us = std::max(t.max_us, all[i].dur_us());
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  const auto all = spans();
  bas::obs::TraceLog log;
  log.name_process(bas::obs::kCampaignPid, "perfbench traced run");
  for (const auto& span : all) {
    std::string args = "{\"parent\": \"";
    args += span.parent >= 0 ? all[static_cast<std::size_t>(span.parent)].name
                             : std::string();
    args += "\"";
    if (span.key >= 0) {
      args += ", \"key\": " + std::to_string(span.key);
    }
    args += "}";
    log.span(span.name, bas::obs::kCampaignPid, span.tid, span.t0_us,
             span.dur_us(), args);
  }
  log.write(path);
}

}  // namespace perfbench
