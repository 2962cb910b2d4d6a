#include "checks.hpp"

#include <cstring>
#include <iterator>
#include <utility>

#include "nn/serialize.hpp"

namespace dcsrbench {

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

ServerDigest digest_of(const dcsr::core::ServerResult& r) {
  ServerDigest d;
  d.k = r.k;
  d.labels = r.labels;
  d.train_flops = r.train_flops;
  dcsr::ByteWriter w;
  for (const auto& m : r.micro_models) dcsr::nn::save_params(*m, w);
  d.model_bytes = w.bytes();
  return d;
}

std::string compare(const ServerDigest& want, const ServerDigest& got) {
  if (want.k != got.k)
    return "k " + std::to_string(got.k) + " != " + std::to_string(want.k);
  if (want.labels.size() != got.labels.size()) return "label count differs";
  for (std::size_t s = 0; s < want.labels.size(); ++s)
    if (want.labels[s] != got.labels[s])
      return "label of segment " + std::to_string(s) + " is " +
             std::to_string(got.labels[s]) + ", expected " +
             std::to_string(want.labels[s]);
  if (want.train_flops != got.train_flops) return "train_flops differ";
  if (want.model_bytes != got.model_bytes) return "serialised model bytes differ";
  return "";
}

std::string compare(const PlayDigest& want, const PlayDigest& got) {
  if (!same_bits(want.psnr, got.psnr)) return "per-frame PSNR differs";
  if (!same_bits(want.ssim, got.ssim)) return "per-frame SSIM differs";
  return "";
}

std::string compare(const dcsr::stream::FleetSummary& want,
                    const dcsr::stream::FleetSummary& got) {
  using S = dcsr::stream::FleetSummary;
  static constexpr std::pair<const char*, std::uint64_t S::*> counts[] = {
      {"sessions", &S::sessions},
      {"aborted_dead_network", &S::aborted_dead_network},
      {"segments", &S::segments},
      {"video_bytes", &S::video_bytes},
      {"model_bytes_last_mile", &S::model_bytes_last_mile},
      {"model_bytes_origin", &S::model_bytes_origin},
      {"advance_heap_allocs", &S::advance_heap_allocs},
      {"advance_heap_allocs_sanctioned", &S::advance_heap_allocs_sanctioned},
      {"client_hits", &S::client_hits},
      {"client_misses", &S::client_misses},
      {"edge_hits", &S::edge_hits},
      {"edge_misses", &S::edge_misses},
      {"edge_evictions", &S::edge_evictions},
      {"edge_bypasses", &S::edge_bypasses},
      {"edge_resident_bytes", &S::edge_resident_bytes},
      {"sr_frames", &S::sr_frames},
      {"sr_batches", &S::sr_batches},
  };
  static constexpr std::pair<const char*, double S::*> reals[] = {
      {"fetch_latency_p50_s", &S::fetch_latency_p50_s},
      {"fetch_latency_p99_s", &S::fetch_latency_p99_s},
      {"startup_p50_s", &S::startup_p50_s},
      {"startup_p99_s", &S::startup_p99_s},
      {"rebuffer_p50_s", &S::rebuffer_p50_s},
      {"rebuffer_p99_s", &S::rebuffer_p99_s},
      {"sr_latency_p50_s", &S::sr_latency_p50_s},
      {"sr_latency_p99_s", &S::sr_latency_p99_s},
      {"sr_server_seconds", &S::sr_server_seconds},
      {"mean_quality_db", &S::mean_quality_db},
      {"mean_rung", &S::mean_rung},
  };
  // Every field is 8 bytes wide, so the two tables cover the whole struct.
  static_assert(sizeof(S) == 8 * (std::size(counts) + std::size(reals)),
                "FleetSummary gained a field the check does not compare");
  for (const auto& [name, field] : counts)
    if (want.*field != got.*field)
      return std::string(name) + " is " + std::to_string(got.*field) +
             ", expected " + std::to_string(want.*field);
  for (const auto& [name, field] : reals)
    if (std::memcmp(&(want.*field), &(got.*field), sizeof(double)) != 0)
      return std::string(name) + " differs";
  return "";
}

}  // namespace dcsrbench
