#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace dcsrbench {

namespace {

thread_local int t_current = -1;

int thread_number() noexcept {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const char* name, int parent) {
  if (!enabled()) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.thread = thread_number();
  s.end_ns = -1;
  std::lock_guard<std::mutex> lock(mu_);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, t_current) {}

ScopedSpan::ScopedSpan(const char* name, int parent)
    : id_(tracer().begin(name, parent)), saved_current_(t_current) {
  if (id_ >= 0) t_current = id_;
}

ScopedSpan::~ScopedSpan() {
  tracer().end(id_);
  t_current = saved_current_;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0 && spans[i].end_ns >= 0)
      kids[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  std::vector<std::int64_t> out(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (p.end_ns < 0) continue;
    cover.clear();
    for (const std::size_t k : kids[i])
      cover.emplace_back(std::max(spans[k].start_ns, p.start_ns),
                         std::min(spans[k].end_ns, p.end_ns));
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = p.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

double reportable_percentile(std::size_t n) noexcept {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= rank + 10) return p;
  }
  return 0.0;
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::vector<SpanStats> summarize(const std::vector<Span>& spans) {
  std::vector<SpanStats> rows;
  std::map<std::string, std::size_t> row_of;
  std::vector<std::vector<double>> durations_ms;
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    auto [it, fresh] = row_of.emplace(s.name, rows.size());
    if (fresh) {
      rows.push_back(SpanStats{.name = s.name});
      durations_ms.emplace_back();
    }
    SpanStats& r = rows[it->second];
    const double dur_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++r.count;
    r.total_s += dur_s;
    r.self_s += static_cast<double>(self[i]) * 1e-9;
    durations_ms[it->second].push_back(dur_s * 1e3);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].p50_ms = nearest_rank(durations_ms[r], 50.0);
    rows[r].hi_pct = reportable_percentile(rows[r].count);
    if (rows[r].hi_pct > 0.0)
      rows[r].hi_ms = nearest_rank(durations_ms[r], rows[r].hi_pct);
  }
  return rows;
}

SpanStats stats_for(const std::vector<SpanStats>& rows, const std::string& name) {
  for (const SpanStats& r : rows)
    if (r.name == name) return r;
  return SpanStats{.name = name};
}

std::string format_table(const std::vector<SpanStats>& rows) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %7s %10s %10s %10s %14s\n", "span",
                "count", "total s", "self s", "p50 ms", "p_hi ms");
  out += line;
  for (const SpanStats& r : rows) {
    char hi[48] = "-";
    if (r.hi_pct > 0.0)
      std::snprintf(hi, sizeof hi, "p%g %.3f", r.hi_pct, r.hi_ms);
    std::snprintf(line, sizeof line, "%-28s %7zu %10.4f %10.4f %10.3f %14s\n",
                  r.name.c_str(), r.count, r.total_s, r.self_s, r.p50_ms, hi);
    out += line;
  }
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::int64_t origin = 0;
  for (const Span& s : spans)
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"dcsrbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  first ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent);
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

}  // namespace dcsrbench
