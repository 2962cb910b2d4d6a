#pragma once

// What the workloads share: options, the outcome they report, the
// metric tables every run prints, and the timing and checking helpers.

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace dcsrbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run of every workload.
/// setup_s is the median of the run's set-ups. op_s is the median wall time
/// of the workload's operation: one run_server_pipeline (server_news), one
/// play_dcsr plus one play_low (client_music), one run_fleet (fleet_zipf).
/// peak_rss_mb is the process's peak resident memory.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by every traced run of every workload. A layer
/// the workload never calls reads 0. Times are per traced repetition.
inline constexpr MetricSpec kPerLayer[] = {
    // The workloads' own end-to-end figures, measured untraced.
    {"e2e.server_s", "s"},
    {"e2e.train_psnr_db", "dB"},
    {"e2e.play_dcsr_fps", "1/s"},
    {"e2e.play_low_fps", "1/s"},
    {"e2e.dcsr_gain_db", "dB"},
    {"e2e.fleet_sessions_per_s", "1/s"},
    {"e2e.fleet_model_bytes_per_session", "B"},
    {"e2e.fleet_rebuffer_p99_s", "s"},
    // server_news
    {"split.segment_s", "s"},
    {"split.segments", "count"},
    {"codec.encode_s", "s"},
    {"codec.encode_ms_per_frame", "ms"},
    {"codec.encoded_kb", "kB"},
    {"core.iframe_pairs_s", "s"},
    {"features.vae_train_s", "s"},
    {"features.extract_s", "s"},
    {"cluster.select_s", "s"},
    {"cluster.k", "count"},
    {"sr.train_s_max", "s"},
    {"sr.train_s_sum", "s"},
    {"sr.train_gflop", "GFLOP"},
    {"sr.train_gflops_per_s", "GFLOP/s"},
    {"sr.train_parallel_eff", "ratio"},
    {"core.span_coverage", "ratio"},
    // client_music
    {"codec.decode_s", "s"},
    {"codec.decode_ms_per_frame", "ms"},
    {"sr.infer_s", "s"},
    {"sr.infer_calls", "count"},
    {"sr.infer_ms_p50", "ms"},
    {"sr.infer_ms_p90", "ms"},
    {"image.yuv2rgb_s", "s"},
    {"image.rgb2yuv_s", "s"},
    {"image.metrics_s", "s"},
    {"image.ssim_calls", "count"},
    {"core.pipeline_speedup_dcsr", "ratio"},
    {"core.pipeline_speedup_low", "ratio"},
    {"core.model_switches", "count"},
    {"tensor.ws_misses_pool", "count"},
    {"tensor.ws_misses_traced", "count"},
    // fleet_zipf
    {"stream.generate_workload_s", "s"},
    {"stream.fleet_s", "s"},
    {"stream.segments_per_s", "1/s"},
    {"stream.segments", "count"},
    {"stream.client_hit_rate", "ratio"},
    {"stream.edge_hit_rate", "ratio"},
    {"stream.edge_evictions", "count"},
    // every workload
    {"trace_overhead", "ratio"},
};

/// What one run of a workload reports back to main().
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;   // one line per failed operation
  std::vector<double> setup_s;       // one entry per set-up repetition
  std::vector<double> op_s;          // one entry per timed operation
  std::map<std::string, double> layers;  // traced runs only
  std::vector<Span> trace;               // every traced repetition
  /// The workload's own end-to-end figures ("name unit" -> value), printed
  /// as a table by every run.
  std::vector<std::pair<std::string, double>> report;
};

/// Each run sets up at least kSetupReps times, and again while one more
/// set-up still ends within kSetupSeconds; setup_s is their median.
inline constexpr int kSetupReps = 3;
inline constexpr double kSetupSeconds = 1.0;

double median(std::vector<double> v);

/// Appends one traced repetition's spans to `all`, re-basing parent ids.
void append_spans(std::vector<Span>& all, const std::vector<Span>& rep);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times `fn` in seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return seconds_since(t0);
}

/// Runs one operation: counts it as attempted, and as failed when it throws
/// or returns a non-empty mismatch description. Returns true on success.
template <typename Fn>
bool attempt(Outcome& out, const char* what, Fn&& fn) {
  ++out.attempted;
  std::string problem;
  try {
    problem = fn();
  } catch (const std::exception& e) {
    problem = std::string("threw: ") + e.what();
  }
  if (problem.empty()) return true;
  ++out.failed;
  out.errors.push_back(std::string(what) + ": " + problem);
  return false;
}

/// Measurement window: keeps going until `min_reps` repetitions are done,
/// then while one more repetition, as long as the last one, still ends
/// within `seconds`. Call more() before each repetition; the time between
/// two calls is one repetition.
class Window {
 public:
  Window(double seconds, int min_reps)
      : seconds_(seconds), min_reps_(min_reps),
        t0_(std::chrono::steady_clock::now()), last_(t0_) {}
  bool more(int done) {
    const auto now = std::chrono::steady_clock::now();
    const auto rep = now - last_;
    last_ = now;
    return done < min_reps_ ||
           std::chrono::duration<double>(now + rep - t0_).count() <= seconds_;
  }

 private:
  double seconds_;
  int min_reps_;
  std::chrono::steady_clock::time_point t0_, last_;
};

Outcome run_server_news(const Options& o);
Outcome run_client_music(const Options& o);
Outcome run_fleet_zipf(const Options& o);

}  // namespace dcsrbench
