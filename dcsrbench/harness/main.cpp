// dcsr_bench: runs one benchmark workload and prints its metrics.
//
//   dcsr_bench --workload server_news|client_music|fleet_zipf --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//   dcsr_bench --list-metrics
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and the per-span table. The last
// line of standard output is one JSON object: correct, attempted, failed and
// metrics. With --out-dir, the run also writes <workload>-seed<N>-trace<T>.json
// (fingerprint plus that object) and, when traced, the Chrome trace-event
// file <workload>-seed<N>.trace.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "host.hpp"
#include "workload.hpp"

namespace {

using namespace dcsrbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dcsr_bench: %s\nusage: dcsr_bench --workload "
               "server_news|client_music|fleet_zipf --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

std::string fmt_json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

void list_metrics() {
  std::printf("{\"end_to_end\": [");
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kEndToEnd[i].name,
                kEndToEnd[i].unit);
  std::printf("], \"per_layer\": [");
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i)
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kPerLayer[i].name,
                kPerLayer[i].unit);
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    list_metrics();
    return 0;
  }
  Options o;
  std::string out_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && o.seconds > 0.0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("bad or missing argument");

  Outcome (*run)(const Options&) = nullptr;
  if (o.workload == "server_news") run = run_server_news;
  if (o.workload == "client_music") run = run_client_music;
  if (o.workload == "fleet_zipf") run = run_fleet_zipf;
  if (!run) usage(("unknown workload '" + o.workload + "'").c_str());

  const Fingerprint fp = host_fingerprint();
  std::printf("fingerprint: %s\n", to_json(fp).c_str());
  const std::string violation =
      dispatch_violation(fp.simd_report, required_simd_families());
  if (!violation.empty()) {
    std::fprintf(stderr, "dcsr_bench: refusing to measure: %s\n", violation.c_str());
    return 3;
  }

  Outcome out;
  try {
    out = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcsr_bench: %s failed outside any operation: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }

  const std::map<std::string, double> e2e = {{"setup_s", median(out.setup_s)},
                                             {"op_s", median(out.op_s)},
                                             {"peak_rss_mb", peak_rss_mb()}};
  const auto& values = o.trace ? out.layers : e2e;
  std::vector<std::pair<MetricSpec, double>> metrics;
  for (const MetricSpec& m : o.trace ? std::span<const MetricSpec>(kPerLayer)
                                     : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = values.find(m.name);
    metrics.emplace_back(m, it == values.end() ? 0.0 : it->second);
  }

  std::printf("workload %s seed %llu: %lld operations, %lld failed, %zu timed\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
              out.op_s.size());
  for (const auto& e : out.errors) std::printf("  FAILED %s\n", e.c_str());
  std::printf("  setup_s samples:");
  for (const double s : out.setup_s) std::printf(" %.4f", s);
  std::printf("\n  op_s samples:");
  for (const double s : out.op_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto& [name, value] : out.report)
    std::printf("  %-36s %.6g\n", name.c_str(), value);
  if (o.trace) std::printf("%s", format_table(summarize(out.trace)).c_str());

  bool finite = true;
  std::ostringstream js;
  js << "{\"correct\": ";
  std::ostringstream ms;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    finite = finite && std::isfinite(value);
    ms << (i ? ", " : "") << "\"" << spec.name << "\": {\"value\": "
       << fmt_json_number(std::isfinite(value) ? value : 0.0) << ", \"unit\": \""
       << spec.unit << "\"}";
    std::printf("  metric %-36s %.6g %s\n", spec.name, value, spec.unit);
  }
  const bool correct = out.failed == 0 && out.attempted > 0 && finite;
  js << (correct ? "true" : "false") << ", \"attempted\": " << out.attempted
     << ", \"failed\": " << out.failed << ", \"metrics\": {" << ms.str() << "}}";

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed);
    const bool ok =
        write_file(stem + "-trace" + (o.trace ? "1" : "0") + ".json",
                   "{\"fingerprint\": " + to_json(fp) + ", \"workload\": \"" +
                       o.workload + "\", \"seed\": " + std::to_string(o.seed) +
                       ", \"trace\": " + (o.trace ? "1" : "0") +
                       ", \"result\": " + js.str() + "}\n") &&
        (!o.trace || write_file(stem + ".trace.json", chrome_trace_json(out.trace)));
    if (!ok) std::fprintf(stderr, "dcsr_bench: could not write under %s\n", out_dir.c_str());
  }
  std::printf("%s\n", js.str().c_str());
  return 0;
}
