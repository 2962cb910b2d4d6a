#pragma once

// Host fingerprint and the SIMD dispatch guard. Every result carries the
// fingerprint; results whose fingerprints differ are never compared, and a
// run whose dispatch line shows a scalar fallback the host could avoid is
// not a data point.

#include <string>
#include <vector>

namespace dcsrbench {

struct Fingerprint {
  std::string cpu_model;
  std::string isa_flags;     // the SIMD-relevant subset of the CPU flags
  int nproc = 0;             // hardware threads the OS reports
  int pool_threads = 0;      // threads in the product's default pool
  std::string dcsr_threads;  // DCSR_THREADS as set ("" when unset)
  std::string simd_report;   // simd::report()
  std::string build_type;
  std::string compiler;
};

Fingerprint host_fingerprint();

/// The fingerprint as one JSON object (keys as in the struct).
std::string to_json(const Fingerprint& f);

/// SIMD kernel families this host must not run on the scalar fallback: every
/// family when the host runs AVX2 and FMA (the AVX2 backend implements all
/// of them), otherwise those the best supported backend implements.
std::vector<std::string> required_simd_families();

/// Checks a dispatch line ("dcsr-simd: backend=... fam=origin ...") against
/// the families that must not be scalar. Returns "" when the line is
/// acceptable, otherwise a message naming the scalar families.
std::string dispatch_violation(const std::string& report_line,
                               const std::vector<std::string>& required);

/// Peak resident set size of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

}  // namespace dcsrbench
