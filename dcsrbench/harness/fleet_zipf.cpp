// fleet_zipf: one serial stream::run_fleet configured like the first run of
// BENCH_fleet.json (100k sessions, 2000 videos, Zipf 0.8, 16 MiB edge),
// seeded per run. Its 1M-session run has the same client and edge hit rates
// to within 0.2 points but takes about 6 s, so a run's median would rest on
// a handful of operations instead of about eighty.

#include "checks.hpp"
#include "stream/fleet.hpp"
#include "stream/workload.hpp"
#include "workload.hpp"

namespace dcsrbench {

namespace stream = dcsr::stream;

namespace {

stream::FleetConfig fleet_config(std::uint64_t seed) {
  stream::FleetConfig cfg;
  cfg.workload.sessions = 100'000;
  cfg.workload.videos = 2000;
  cfg.workload.video_zipf_skew = 0.8;
  cfg.edge_budget_bytes = 16ull << 20;
  cfg.seed = seed;
  return cfg;
}

std::string sessions_check(const stream::FleetConfig& cfg, std::uint64_t sessions) {
  if (sessions == cfg.workload.sessions) return "";
  return std::to_string(sessions) + " sessions, configured " +
         std::to_string(cfg.workload.sessions);
}

}  // namespace

Outcome run_fleet_zipf(const Options& o) {
  Outcome out;
  const stream::FleetConfig cfg = fleet_config(o.seed);
  // Set-up is input generation: the session list and catalog run_fleet
  // derives from the configuration (run_fleet generates its own copy).
  Window setup(kSetupSeconds, kSetupReps);
  for (int i = 0; setup.more(i); ++i) {
    stream::Workload w;
    out.setup_s.push_back(
        time_s([&] { w = stream::generate_workload(cfg.workload, cfg.seed); }));
    attempt(out, "generate_workload (set-up)",
            [&] { return sessions_check(cfg, w.sessions.size()); });
  }

  // The measurement window starts with the first run: warm-up and the
  // reference every later one must match.
  Window window(o.seconds, o.trace ? 1 : 3);
  stream::FleetSummary ref;
  attempt(out, "run_fleet (reference)", [&] {
    ref = stream::run_fleet(cfg);
    return sessions_check(cfg, ref.sessions);
  });

  std::vector<double> traced_s, untraced_comp_s, generate_s, fleet_s;
  for (int rep = 0; window.more(rep); ++rep) {
    attempt(out, "run_fleet", [&] {
      stream::FleetSummary s;
      out.op_s.push_back(time_s([&] { s = stream::run_fleet(cfg); }));
      return compare(ref, s);
    });
    if (!o.trace) continue;
    for (const bool on : {true, false}) {
      attempt(out, "traced fleet composition", [&] {
        tracer().clear();
        tracer().set_enabled(on);
        stream::FleetSummary s;
        const double t = time_s([&] {
          ScopedSpan root("stream.fleet_composition");
          {
            ScopedSpan g("stream.generate_workload");
            const stream::Workload w = stream::generate_workload(cfg.workload, cfg.seed);
          }
          ScopedSpan f("stream.run_fleet");
          s = stream::run_fleet(cfg);
        });
        tracer().set_enabled(false);
        (on ? traced_s : untraced_comp_s).push_back(t);
        if (on) {
          const auto spans = tracer().snapshot();
          const auto rows = summarize(spans);
          generate_s.push_back(stats_for(rows, "stream.generate_workload").total_s);
          fleet_s.push_back(stats_for(rows, "stream.run_fleet").total_s);
          append_spans(out.trace, spans);
        }
        return compare(ref, s);
      });
    }
  }

  const double sessions_per_s = static_cast<double>(ref.sessions) / median(out.op_s);
  out.report = {{"fleet_sessions_per_s 1/s", sessions_per_s},
                {"fleet_model_bytes_per_session B", ref.model_bytes_per_session()},
                {"fleet_rebuffer_p99_s s", ref.rebuffer_p99_s},
                {"segments count", static_cast<double>(ref.segments)}};
  if (!o.trace) return out;

  out.layers = {
      {"e2e.fleet_sessions_per_s", sessions_per_s},
      {"e2e.fleet_model_bytes_per_session", ref.model_bytes_per_session()},
      {"e2e.fleet_rebuffer_p99_s", ref.rebuffer_p99_s},
      {"stream.generate_workload_s", median(generate_s)},
      {"stream.fleet_s", median(fleet_s)},
      {"stream.segments_per_s", static_cast<double>(ref.segments) / median(fleet_s)},
      {"stream.segments", static_cast<double>(ref.segments)},
      {"stream.client_hit_rate", ref.client_hit_rate()},
      {"stream.edge_hit_rate", ref.edge_hit_rate()},
      {"stream.edge_evictions", static_cast<double>(ref.edge_evictions)},
      {"trace_overhead", median(traced_s) / median(untraced_comp_s)},
  };
  return out;
}

}  // namespace dcsrbench
