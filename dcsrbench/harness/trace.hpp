#pragma once

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call into a
// product layer (spans inside the product are not recorded here). Each span
// carries a name, start, end, parent and thread; they stay in memory and are
// written at exit as Chrome trace-event JSON plus a per-span summary table.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dcsrbench {

struct Span {
  const char* name = "";   // static string: span names are literals
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // -1 while open
  int parent = -1;          // index into the recorder's spans, -1 for a root
  int thread = 0;           // small per-process thread number
};

/// Thread-safe span store. When disabled, begin() returns -1 and end(-1) is
/// a no-op, so a traced composition can also be timed with tracing off.
class Tracer {
 public:
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span whose parent is `parent`; returns its id (-1 if disabled).
  int begin(const char* name, int parent);
  void end(int id);

  std::vector<Span> snapshot() const;
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// The process-wide recorder used by ScopedSpan.
Tracer& tracer();

/// RAII span on the process-wide tracer. The default parent is the calling
/// thread's innermost open span; a span opened on a pool worker names its
/// parent (the caller's span id) explicitly.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, int parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return id_; }

 private:
  int id_;
  int saved_current_;
};

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns() noexcept;

/// Self time of every span: its duration minus the part of its interval that
/// the union of its children's intervals covers (children may overlap when
/// they ran on different threads). Open spans get 0.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Highest percentile in {50, 90, 99, 99.9} that leaves at least ten of `n`
/// nearest-rank samples beyond it; 0 when n is too small for any of them.
double reportable_percentile(std::size_t n) noexcept;

/// Nearest-rank percentile of `values` (p in (0, 100]); 0 for no values.
double nearest_rank(std::vector<double> values, double p);

/// One row of the per-span table: all spans of one name.
struct SpanStats {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double p50_ms = 0.0;
  double hi_pct = 0.0;  // reportable_percentile(count); 0 means none
  double hi_ms = 0.0;
};

/// Per-name aggregate, in order of first appearance.
std::vector<SpanStats> summarize(const std::vector<Span>& spans);

/// Lookup by name in a summary; a zero row when the name never occurred.
SpanStats stats_for(const std::vector<SpanStats>& rows, const std::string& name);

/// Fixed-width table of the summary (count, total, self, p50, highest
/// reportable percentile).
std::string format_table(const std::vector<SpanStats>& rows);

/// Chrome trace-event JSON ("X" complete events, microseconds), readable by
/// chrome://tracing and Perfetto.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace dcsrbench
