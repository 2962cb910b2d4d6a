#include "host.hpp"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "simd/dispatch.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

#ifndef DCSRBENCH_BUILD_TYPE
#define DCSRBENCH_BUILD_TYPE ""
#endif

namespace dcsrbench {

namespace {

// "fam=origin" pairs of a dispatch line, in line order (backend= excluded).
std::vector<std::pair<std::string, std::string>> dispatch_pairs(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || tok.compare(0, eq, "backend") == 0) continue;
    out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return out;
}

#if defined(__x86_64__) || defined(__i386__)
// CPU brand string and SIMD feature flags from cpuid (no file reads).
std::string cpu_model_name() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string simd_flags() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string out;
  auto add = [&](bool on, const char* name) {
    if (on) out += (out.empty() ? "" : " ") + std::string(name);
  };
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    add(d & (1u << 26), "sse2");
    add(c & (1u << 19), "sse4_1");
    add(c & (1u << 20), "sse4_2");
    add(c & (1u << 28), "avx");
    add(c & (1u << 12), "fma");
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    add(b & (1u << 5), "avx2");
    add(b & (1u << 16), "avx512f");
    add(b & (1u << 30), "avx512bw");
    add(b & (1u << 31), "avx512vl");
  }
  return out;
}
#else
std::string cpu_model_name() { return "unknown"; }
std::string simd_flags() {
#if defined(__aarch64__)
  return "asimd";
#else
  return "";
#endif
}
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

Fingerprint host_fingerprint() {
  Fingerprint f;
  f.cpu_model = cpu_model_name();
  f.isa_flags = simd_flags();
  f.nproc = static_cast<int>(std::thread::hardware_concurrency());
  f.pool_threads = dcsr::default_pool().threads();
  const char* env = dcsr::env_raw("DCSR_THREADS");
  f.dcsr_threads = env ? env : "";
  f.simd_report = dcsr::simd::report();
  f.build_type = DCSRBENCH_BUILD_TYPE;
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#else
  f.compiler = std::string("gcc ") + __VERSION__;
#endif
  return f;
}

std::string to_json(const Fingerprint& f) {
  std::ostringstream os;
  os << "{\"cpu_model\":\"" << json_escape(f.cpu_model) << "\",\"isa_flags\":\""
     << json_escape(f.isa_flags) << "\",\"nproc\":" << f.nproc
     << ",\"pool_threads\":" << f.pool_threads << ",\"dcsr_threads\":\""
     << json_escape(f.dcsr_threads) << "\",\"simd_report\":\""
     << json_escape(f.simd_report) << "\",\"build_type\":\""
     << json_escape(f.build_type) << "\",\"compiler\":\""
     << json_escape(f.compiler) << "\"}";
  return os.str();
}

std::vector<std::string> required_simd_families() {
  namespace simd = dcsr::simd;
  const auto pairs = dispatch_pairs(simd::report());
  std::vector<std::string> out;
  if (simd::host_supports(simd::Backend::kAvx2)) {
    for (const auto& p : pairs) out.push_back(p.first);
    return out;
  }
  for (const simd::Backend b : {simd::Backend::kSse2, simd::Backend::kNeon}) {
    const simd::KernelTable* t = simd::table_for(b);
    if (t == nullptr) continue;
    for (std::size_t f = 0; f < pairs.size(); ++f)
      if (t->origin[f] != simd::Backend::kScalar) out.push_back(pairs[f].first);
    break;
  }
  return out;
}

std::string dispatch_violation(const std::string& report_line,
                               const std::vector<std::string>& required) {
  std::string scalar;
  for (const auto& [family, origin] : dispatch_pairs(report_line)) {
    if (origin != "scalar") continue;
    for (const auto& r : required)
      if (r == family) scalar += (scalar.empty() ? "" : ",") + family;
  }
  if (scalar.empty()) return "";
  return "scalar kernels on a host with SIMD support for them: " + scalar +
         " (" + report_line + ")";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

}  // namespace dcsrbench
