#include "codec/encoder.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "codec/deblock.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "util/function_ref.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::codec {

namespace {

// Display-order type of frame d of an L-frame segment. The segment opens
// with I; extra I frames at intra_period; optionally one B between
// references. A B never ends a segment (it would dangle without a future
// reference) and never precedes an I, so every I frame opens a closed GOP.
FrameType frame_type(const CodecConfig& cfg, int d, int L) noexcept {
  const bool refresh = cfg.intra_period > 0 && d % cfg.intra_period == 0;
  if (d == 0 || refresh) return FrameType::kI;
  if (cfg.use_b_frames && (d & 1) && d != L - 1 &&
      !(cfg.intra_period > 0 && (d + 1) % cfg.intra_period == 0))
    return FrameType::kB;
  return FrameType::kP;
}

// Codes display frames [begin, end) of an L-frame segment — one closed GOP,
// so begin is an I frame — in decode order. frames[i] is display frame
// begin + i.
std::vector<EncodedFrame> encode_gop(const CodecConfig& cfg,
                                     const FrameYUV* frames, int begin,
                                     int end, int L) {
  const Quantizer q(cfg.crf);
  std::vector<EncodedFrame> out;
  FrameYUV prev_ref;  // reconstruction of the previous reference, display order
  std::vector<int> pending_b;

  // Every frame is coded in the sliced format (container v3) — even
  // `slices = 1` — so reconstruction is bit-identical for any slice count
  // and the decoder can always run slices concurrently. Pre-slice (v2)
  // streams remain decodable; this encoder just no longer produces them.
  auto emit = [&](int d, FrameType type, const FrameYUV* past,
                  const FrameYUV* future) -> FrameYUV {
    const FrameYUV& src = frames[d - begin];
    EncodedFrame ef;
    ef.type = type;
    ef.display_index = d;
    FrameYUV recon;
    switch (type) {
      case FrameType::kI:
        recon = encode_intra_frame_sliced(src, q, cfg.slices, ef);
        break;
      case FrameType::kP:
        recon = encode_p_frame_sliced(src, *past, q, cfg.search_range,
                                      cfg.slices, ef);
        break;
      case FrameType::kB:
        recon = encode_b_frame_sliced(src, *past, *future, q, cfg.search_range,
                                      cfg.slices, ef);
        break;
    }
    out.push_back(std::move(ef));
    // Closed loop: references are the *filtered* reconstruction, exactly
    // what the decoder will hold.
    if (cfg.deblock) deblock_frame(recon, q.base_step());
    return recon;
  };

  for (int d = begin; d < end; ++d) {
    const FrameType type = frame_type(cfg, d, L);
    if (type == FrameType::kB) {
      pending_b.push_back(d);
      continue;
    }
    // Reference frame: encode it, then any B frames waiting between the
    // previous reference and this one.
    FrameYUV recon = emit(d, type, &prev_ref, nullptr);
    for (const int b : pending_b) emit(b, FrameType::kB, &prev_ref, &recon);
    pending_b.clear();
    prev_ref = std::move(recon);
  }
  return out;
}

// Source frames [begin, end) of segment s in display order, converted into
// `scratch` when the caller does not already hold them.
using FramesOf =
    FunctionRef<const FrameYUV*(std::size_t, int, int, std::vector<FrameYUV>&)>;

// Codes every closed GOP of segments of the given lengths, one pool task per
// GOP, and returns each segment's frames in decode order. A GOP references
// nothing outside itself, so concatenating the GOPs in display order gives
// the bytes of a serial encode at any thread count.
std::vector<std::vector<EncodedFrame>> encode_gops(
    const CodecConfig& cfg, const std::vector<int>& lengths, FramesOf frames_of) {
  if (cfg.slices < 1) throw std::invalid_argument("encode: slices must be >= 1");
  struct Gop {
    std::size_t segment;
    int begin, end;
  };
  std::vector<Gop> gops;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const int L = lengths[s];
    const int period = cfg.intra_period > 0 ? cfg.intra_period : L;
    for (int begin = 0; begin < L; begin += period)
      gops.push_back({s, begin, std::min(L, begin + period)});
  }

  // Each task claims its own GOPs' slots.
  std::vector<std::vector<EncodedFrame>> coded(gops.size());
  parallel_for_writes(
      0, static_cast<std::int64_t>(gops.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(coded.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t g = lo; g < hi; ++g) {
          const Gop& gop = gops[static_cast<std::size_t>(g)];
          std::vector<FrameYUV> scratch;
          const FrameYUV* frames = frames_of(gop.segment, gop.begin, gop.end, scratch);
          coded[static_cast<std::size_t>(g)] = encode_gop(
              cfg, frames, gop.begin, gop.end, lengths[gop.segment]);
        }
      },
      "codec/encoder.cpp:encode_gops");

  std::vector<std::vector<EncodedFrame>> out(lengths.size());
  for (std::size_t g = 0; g < gops.size(); ++g) {
    auto& dst = out[gops[g].segment];
    dst.insert(dst.end(), std::make_move_iterator(coded[g].begin()),
               std::make_move_iterator(coded[g].end()));
  }
  return out;
}

}  // namespace

EncodedSegment Encoder::encode_segment(const std::vector<FrameYUV>& frames,
                                       int first_frame) const {
  if (frames.empty())
    throw std::invalid_argument("encode_segment: empty segment");
  EncodedSegment seg;
  seg.first_frame = first_frame;
  seg.crf = cfg_.crf;
  seg.frames = std::move(
      encode_gops(cfg_, {static_cast<int>(frames.size())},
                  [&](std::size_t, int begin, int, std::vector<FrameYUV>&) {
                    return frames.data() + begin;
                  })
          .front());
  return seg;
}

EncodedVideo Encoder::encode(const VideoSource& video,
                             const std::vector<SegmentPlan>& segments) const {
  int expected = 0;
  std::vector<int> lengths;
  for (const auto& plan : segments) {
    if (plan.first_frame != expected || plan.frame_count <= 0)
      throw std::invalid_argument("encode: segments must be contiguous");
    expected = plan.first_frame + plan.frame_count;
    lengths.push_back(plan.frame_count);
  }
  if (expected != video.frame_count())
    throw std::invalid_argument("encode: segments must cover the whole video");

  // Each GOP converts only its own frames, so peak memory is a few GOPs of
  // YUV rather than a whole segment.
  std::vector<std::vector<EncodedFrame>> coded = encode_gops(
      cfg_, lengths,
      [&](std::size_t s, int begin, int end, std::vector<FrameYUV>& scratch) {
        scratch.reserve(static_cast<std::size_t>(end - begin));
        for (int d = begin; d < end; ++d)
          scratch.push_back(rgb_to_yuv420(video.frame(segments[s].first_frame + d)));
        return static_cast<const FrameYUV*>(scratch.data());
      });

  EncodedVideo out;
  out.width = video.width();
  out.height = video.height();
  out.fps = video.fps();
  out.crf = cfg_.crf;
  out.deblock = cfg_.deblock;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    EncodedSegment seg;
    seg.first_frame = segments[s].first_frame;
    seg.crf = cfg_.crf;
    seg.frames = std::move(coded[s]);
    out.segments.push_back(std::move(seg));
  }
  return out;
}

}  // namespace dcsr::codec
