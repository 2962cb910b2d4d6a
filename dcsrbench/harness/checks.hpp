#pragma once

// Output checks. Each workload digests the product's outputs on its first
// repetition and requires every later repetition, and the traced
// composition, to reproduce the digest exactly. A mismatch is a failed
// operation. compare() returns "" on a match, otherwise what differs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/server_pipeline.hpp"
#include "stream/fleet.hpp"

namespace dcsrbench {

struct ServerDigest {
  int k = 0;
  std::vector<int> labels;
  std::uint64_t train_flops = 0;
  std::vector<std::uint8_t> model_bytes;  // every micro model, cluster order
};

ServerDigest digest_of(const dcsr::core::ServerResult& r);
std::string compare(const ServerDigest& want, const ServerDigest& got);

/// Per-frame quality of one playback, compared bit for bit.
struct PlayDigest {
  std::vector<double> psnr;
  std::vector<double> ssim;
};

std::string compare(const PlayDigest& want, const PlayDigest& got);

/// Every field of two fleet summaries, compared exactly; the message names
/// the first field that differs.
std::string compare(const dcsr::stream::FleetSummary& want,
                    const dcsr::stream::FleetSummary& got);

}  // namespace dcsrbench
