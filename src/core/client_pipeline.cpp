#include "core/client_pipeline.hpp"

#include <stdexcept>
#include <string>

#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "util/alloc_check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::core {

namespace {

// Runs `fn` under a hot-path guard once playback is past its warm-up
// segment: the first segment a thread plays legitimately grows frame slots,
// workspace tensors and pool scratch, but every later segment of the same
// resolution must be heap-silent (sanctioned growth aside), and the guard
// makes a regression throw instead of silently costing a malloc per frame.
template <typename Fn>
void guarded_after_warmup(bool warm, const char* site, Fn&& fn) {
  if (warm) {
    HotPathGuard alloc_guard(site);
    fn();
  } else {
    fn();
  }
}

// Quality of one display frame. Playback fills one slot per frame from
// whichever thread decoded it; `inferences` counts the in-loop SR calls
// spent on that frame's reference picture.
struct FrameQuality {
  double psnr = 0.0;
  double ssim = 0.0;
  int inferences = 0;
};

// Measures one frame against the pristine source. Strides are keyed off the
// *display index*, never off how many frames a playback path happened to
// visit: every method must evaluate SSIM on the same frames or the Fig. 9
// comparison is apples to oranges.
void measure_frame(const VideoSource& original, const PlaybackOptions& opts,
                   const FrameRGB& rgb, int display, FrameQuality& q) {
  const FrameRGB ref = original.frame(display);
  q.psnr = psnr(ref, rgb);
  if (display % opts.ssim_stride == 0) q.ssim = ssim(ref, rgb);
}

// Collects every `stride`-th display frame's slot into a PlaybackResult,
// serially and in display order.
PlaybackResult gather(const std::vector<FrameQuality>& quality,
                      const PlaybackOptions& opts, int stride) {
  PlaybackResult r;
  for (std::size_t d = 0; d < quality.size();
       d += static_cast<std::size_t>(stride)) {
    const int display = static_cast<int>(d);
    r.frame_psnr.push_back(quality[d].psnr);
    r.psnr_frame_index.push_back(display);
    if (display % opts.ssim_stride == 0) {
      r.frame_ssim.push_back(quality[d].ssim);
      r.ssim_frame_index.push_back(display);
    }
  }
  r.mean_psnr = mean(r.frame_psnr);
  r.mean_ssim = mean(r.frame_ssim);
  return r;
}

// One model per segment, by cluster label.
std::vector<const sr::Edsr*> models_by_label(
    const codec::EncodedVideo& encoded, const std::vector<int>& labels,
    const std::vector<std::unique_ptr<sr::Edsr>>& models, const char* who) {
  if (labels.size() != encoded.segments.size())
    throw std::invalid_argument(std::string(who) +
                                ": one label per segment required");
  std::vector<const sr::Edsr*> out;
  for (const int l : labels) {
    if (l < 0 || static_cast<std::size_t>(l) >= models.size())
      throw std::invalid_argument(std::string(who) + ": label out of range");
    out.push_back(models[static_cast<std::size_t>(l)].get());
  }
  return out;
}

// The playback driver. `models[s]` enhances segment s's I frames in-loop (no
// models: the stream as-is), and with anchor_period > 0 also each P
// reference whose index within its segment is a multiple of it. With an
// `out_of_loop` model (NAS), only every opts.nas_eval_stride-th display
// frame is converted, and it is enhanced by that model before it is
// measured; the other frames are decoded and skipped.
//
// Every segment opens with an I frame, so segments decode independently of
// one another: one pool region runs over segment indices, and each chunk
// owns its decoders, one segment's decoded frames and an RGB scratch frame,
// all warm after its first segment. Per segment a chunk installs the
// reference hook, decodes, then converts and measures frame by frame into
// the per-display-frame slots [frame_base[lo], frame_base[hi]) it claims,
// so no chunk holds more than one segment of pictures. Decode, SR,
// conversion and metrics are the serial program's arithmetic, and nested
// regions run inline inside a chunk, so the slots are bit-identical for any
// DCSR_THREADS.
std::vector<FrameQuality> play_segments(
    const codec::EncodedVideo& encoded, const VideoSource& original,
    const PlaybackOptions& opts, const std::vector<const sr::Edsr*>& models,
    int anchor_period = 0, const sr::Edsr* out_of_loop = nullptr) {
  const std::size_t count = encoded.segments.size();
  std::vector<int> frame_base(count + 1, 0);
  for (std::size_t s = 0; s < count; ++s)
    frame_base[s + 1] = frame_base[s] + encoded.segments[s].frame_count();
  std::vector<FrameQuality> quality(
      static_cast<std::size_t>(frame_base[count]));
  const bool anchors = !models.empty() && anchor_period > 0;
  const int stride = out_of_loop ? opts.nas_eval_stride : 1;
  const auto slots = [&](std::int64_t s) {
    return quality.data() + frame_base[static_cast<std::size_t>(s)];
  };
  parallel_for_writes(
      0, static_cast<std::int64_t>(count), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(slots(lo),
                       static_cast<std::size_t>(slots(hi) - slots(lo)));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        codec::Decoder decoder(encoded.width, encoded.height, encoded.crf);
        codec::Decoder vanilla_decoder(encoded.width, encoded.height,
                                       encoded.crf);
        decoder.set_deblock(encoded.deblock);
        vanilla_decoder.set_deblock(encoded.deblock);
        std::vector<FrameYUV> frames, vanilla;
        FrameRGB rgb, enhanced;
        for (std::int64_t s = lo; s < hi; ++s) {
          const auto si = static_cast<std::size_t>(s);
          const codec::EncodedSegment& seg = encoded.segments[si];
          FrameQuality* seg_quality = slots(s);
          if (!models.empty()) {
            const sr::Edsr& model = *models[si];
            // Anchors must be enhanced from the *vanilla* decode: the micro
            // model was trained on plainly decoded frames, and re-enhancing
            // an already-enhanced chain compounds the correction until it
            // diverges (this is why NEMO keeps its anchor inputs on the
            // un-enhanced path).
            if (anchors) vanilla_decoder.decode_segment_into(seg, vanilla);
            decoder.set_reference_hook(
                [&, warm = s > lo](FrameYUV& f, codec::FrameType type,
                                   int display_index) {
                  const int local = display_index - seg.first_frame;
                  if (type == codec::FrameType::kP &&
                      local % anchor_period != 0)
                    return;
                  guarded_after_warmup(
                      warm, "core/client_pipeline.cpp:in-loop SR (warm)", [&] {
                        // P anchor: replace the drifted reference with the
                        // enhanced vanilla reconstruction, an I-refresh
                        // that costs an inference instead of bits.
                        if (type == codec::FrameType::kP)
                          f = vanilla[static_cast<std::size_t>(local)];
                        enhance_reference_frame(f, model);
                        ++seg_quality[local].inferences;
                      });
                },
                /*include_p_frames=*/anchors);
          }
          decoder.decode_segment_into(seg, frames);
          for (std::size_t i = 0; i < frames.size(); ++i) {
            const int display = frame_base[si] + static_cast<int>(i);
            if (display % stride != 0) continue;
            yuv420_to_rgb_into(frames[i], rgb);
            if (out_of_loop)
              guarded_after_warmup(
                  s > lo, "core/client_pipeline.cpp:play_nas(warm)",
                  [&] { out_of_loop->enhance_into(rgb, enhanced); });
            measure_frame(original, opts, out_of_loop ? enhanced : rgb,
                          display, seg_quality[i]);
          }
        }
      },
      "core/client_pipeline.cpp:play_segments");
  return quality;
}

}  // namespace

void enhance_reference_frame(FrameYUV& frame, const sr::Edsr& model) {
  if (model.config().scale != 1) {
    // May run under playback's hot-path guard: sanction the message so the
    // real diagnostic is not masked by HotPathAllocError.
    AllocAllowScope allow;
    throw std::invalid_argument(
        "enhance_reference_frame: in-loop enhancement requires a scale-1 model "
        "(the enhanced picture must fit back into the DPB)");
  }
  // Steps 2-5 of Fig. 6. The two RGB intermediates are per-thread and reused
  // across calls — like the model's inference workspace — so steady-state
  // in-loop enhancement stays off the allocator.
  thread_local FrameRGB rgb, enhanced;
  yuv420_to_rgb_into(frame, rgb);
  model.enhance_into(rgb, enhanced);
  rgb_to_yuv420_into(enhanced, frame);
}

PlaybackResult play_dcsr(const codec::EncodedVideo& encoded,
                         const std::vector<int>& labels,
                         const std::vector<std::unique_ptr<sr::Edsr>>& models,
                         const VideoSource& original,
                         const PlaybackOptions& opts) {
  return gather(
      play_segments(encoded, original, opts,
                    models_by_label(encoded, labels, models, "play_dcsr")),
      opts, 1);
}

PlaybackResult play_nemo(const codec::EncodedVideo& encoded, const sr::Edsr& big_model,
                         const VideoSource& original, const PlaybackOptions& opts) {
  const std::vector<const sr::Edsr*> models(encoded.segments.size(), &big_model);
  return gather(play_segments(encoded, original, opts, models), opts, 1);
}

PlaybackResult play_nas(const codec::EncodedVideo& encoded, const sr::Edsr& big_model,
                        const VideoSource& original, const PlaybackOptions& opts) {
  return gather(play_segments(encoded, original, opts, {}, 0, &big_model), opts,
                opts.nas_eval_stride);
}

PlaybackResult play_low(const codec::EncodedVideo& encoded,
                        const VideoSource& original, const PlaybackOptions& opts) {
  return gather(play_segments(encoded, original, opts, {}), opts, 1);
}

AnchorPlaybackResult play_dcsr_anchors(
    const codec::EncodedVideo& encoded, const std::vector<int>& labels,
    const std::vector<std::unique_ptr<sr::Edsr>>& models,
    const VideoSource& original, int anchor_period, const PlaybackOptions& opts) {
  const std::vector<FrameQuality> quality = play_segments(
      encoded, original, opts,
      models_by_label(encoded, labels, models, "play_dcsr_anchors"),
      anchor_period);
  AnchorPlaybackResult result;
  for (const FrameQuality& q : quality) result.inferences += q.inferences;
  result.playback = gather(quality, opts, 1);
  return result;
}

}  // namespace dcsr::core
