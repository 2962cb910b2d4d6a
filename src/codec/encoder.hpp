#pragma once

#include <vector>

#include "codec/types.hpp"
#include "image/frame.hpp"
#include "video/source.hpp"

namespace dcsr::codec {

/// Placement of one variable- or fixed-length segment in a video (display
/// frame indices). Produced by the split module; the encoder opens every
/// segment with an I frame, which is exactly the content-aware I-frame
/// placement the paper adopts from Netflix's shot-based encoding.
struct SegmentPlan {
  int first_frame = 0;
  int frame_count = 0;
};

/// Closed-loop encoder. Stateless across calls; all coding state lives on
/// the stack of encode().
///
/// A segment is a run of closed GOPs: each opens at an I frame (the segment
/// start, or every `intra_period` frames) and references nothing before it.
/// Both entry points code the GOPs concurrently on the default pool and
/// concatenate them in order, so the bytes are those of a serial encode at
/// any thread count.
class Encoder {
 public:
  explicit Encoder(CodecConfig cfg) : cfg_(cfg) {}

  const CodecConfig& config() const noexcept { return cfg_; }

  /// Encodes the given segments of a video. Segments must be contiguous,
  /// non-overlapping, and in order. Fans out over every GOP of every
  /// segment, so `video.frame()` is called from several threads at once.
  EncodedVideo encode(const VideoSource& video,
                      const std::vector<SegmentPlan>& segments) const;

  /// Encodes one segment given its frames in display order. Equal to that
  /// segment of encode(), which rate control relies on.
  EncodedSegment encode_segment(const std::vector<FrameYUV>& frames,
                                int first_frame) const;

 private:
  CodecConfig cfg_;
};

}  // namespace dcsr::codec
