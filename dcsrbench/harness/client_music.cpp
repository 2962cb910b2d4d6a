// client_music: play_dcsr and play_low on a music-video stream whose server
// pipeline runs once before the plays. The clip is one fixed music-video edit
// (make_genre_video(kMusicVideo, 408, 96, 64, 60 s, 10 fps): 31 shots, 21 or
// 22 segments), re-textured per seed; k is 2 on most texture seeds and up
// to 5 on some. Music clips of other seeds run from 15 to 43 segments and k
// from 2 to 6, which moves the server pipeline's time by a factor of two.

#include <memory>

#include "checks.hpp"
#include "codec/decoder.hpp"
#include "core/client_pipeline.hpp"
#include "core/server_pipeline.hpp"
#include "frame_store.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "tensor/workspace.hpp"
#include "video/genres.hpp"
#include "workload.hpp"

namespace dcsrbench {

namespace core = dcsr::core;

core::ServerConfig quickstart_server_config();

namespace {

constexpr std::uint64_t kStructureSeed = 408;

PlayDigest digest_of(const core::PlaybackResult& p) {
  return {p.frame_psnr, p.frame_ssim};
}

// play_dcsr / play_low rebuilt from codec::Decoder, serially and without
// lookahead: the reference hook runs the three steps of
// enhance_reference_frame under their own spans, then every decoded segment
// is converted and measured. `models` null means play_low.
PlayDigest traced_play(const dcsr::codec::EncodedVideo& enc,
                       const std::vector<int>& labels,
                       const std::vector<std::unique_ptr<dcsr::sr::Edsr>>* models,
                       const dcsr::VideoSource& original,
                       const core::PlaybackOptions& opts) {
  ScopedSpan root(models ? "core.play_dcsr" : "core.play_low");
  dcsr::codec::Decoder decoder(enc.width, enc.height, enc.crf);
  decoder.set_deblock(enc.deblock);
  dcsr::FrameRGB rgb, enhanced;
  std::vector<dcsr::FrameRGB> seg_rgb;
  PlayDigest out;
  int display = 0;
  for (std::size_t s = 0; s < enc.segments.size(); ++s) {
    if (models) {
      const dcsr::sr::Edsr& model =
          *(*models)[static_cast<std::size_t>(labels[s])];
      decoder.set_reference_hook([&](dcsr::FrameYUV& f, dcsr::codec::FrameType, int) {
        {
          ScopedSpan a("image.yuv2rgb");
          dcsr::yuv420_to_rgb_into(f, rgb);
        }
        {
          ScopedSpan b("sr.enhance");
          model.enhance_into(rgb, enhanced);
        }
        ScopedSpan c("image.rgb2yuv");
        dcsr::rgb_to_yuv420_into(enhanced, f);
      });
    }
    std::vector<dcsr::FrameYUV> frames;
    {
      ScopedSpan d("codec.decode_segment");
      frames = decoder.decode_segment(enc.segments[s]);
    }
    seg_rgb.resize(frames.size());
    {
      ScopedSpan e("image.yuv2rgb");
      for (std::size_t i = 0; i < frames.size(); ++i)
        dcsr::yuv420_to_rgb_into(frames[i], seg_rgb[i]);
    }
    ScopedSpan m("image.metrics");
    for (std::size_t i = 0; i < frames.size(); ++i, ++display) {
      const dcsr::FrameRGB ref = original.frame(display);
      out.psnr.push_back(dcsr::psnr(ref, seg_rgb[i]));
      if (display % opts.ssim_stride == 0) {
        ScopedSpan ss("image.ssim");
        out.ssim.push_back(dcsr::ssim(ref, seg_rgb[i]));
      }
    }
  }
  return out;
}

}  // namespace

Outcome run_client_music(const Options& o) {
  Outcome out;
  const core::ServerConfig cfg = quickstart_server_config();
  std::unique_ptr<FrameStore> video;
  Window setup(kSetupSeconds, kSetupReps);
  for (int i = 0; setup.more(i); ++i) {
    // Release the previous set-up first, so that peak memory does not
    // depend on how many set-ups fit in kSetupSeconds.
    video.reset();
    out.setup_s.push_back(time_s([&] {
      video = std::make_unique<FrameStore>(*retextured_clip(
          dcsr::Genre::kMusicVideo, kStructureSeed, o.seed, 96, 64, 60.0, 10.0));
    }));
  }
  // The stream the client plays. Its server pipeline runs once and is not
  // part of setup_s: server_news measures and checks that pipeline, and on
  // this edit its time follows k, which the texture seed moves from 2 to 5.
  core::ServerResult server;
  attempt(out, "run_server_pipeline (stream)", [&] {
    server = core::run_server_pipeline(*video, cfg);
    if (server.labels.size() != server.encoded.segments.size())
      return std::string("one label per segment required");
    for (const int l : server.labels)
      if (l < 0 || l >= static_cast<int>(server.micro_models.size()))
        return std::string("a segment's label has no model");
    return std::string();
  });
  const auto& enc = server.encoded;
  const core::PlaybackOptions opts;
  const int frames = video->frame_count();

  // The measurement window starts with the first pair: warm-up and the
  // reference every later play must match.
  Window window(o.seconds, 3);
  PlayDigest ref_dcsr, ref_low;
  double gain_db = 0.0;
  attempt(out, "play_dcsr (reference)", [&] {
    const auto p = core::play_dcsr(enc, server.labels, server.micro_models, *video, opts);
    ref_dcsr = digest_of(p);
    gain_db = p.mean_psnr;
    return p.frame_psnr.size() == static_cast<std::size_t>(frames)
               ? std::string()
               : std::string("not every frame measured");
  });
  attempt(out, "play_low (reference)", [&] {
    const auto p = core::play_low(enc, *video, opts);
    ref_low = digest_of(p);
    gain_db -= p.mean_psnr;
    return p.frame_psnr.size() == static_cast<std::size_t>(frames)
               ? std::string()
               : std::string("not every frame measured");
  });

  std::vector<double> dcsr_s, low_s, traced_dcsr_s, traced_low_s, traced_s,
      untraced_comp_s;
  std::vector<std::vector<Span>> traced_reps;
  // Workspace misses over the untraced plays after the reference pair. The
  // registry holds live workspaces only, and each play's lookahead thread
  // (which decodes and enhances every segment after the first) ends with
  // the play, so this covers the caller and the pool workers. The traced
  // play_dcsr compositions run every SR call on the caller: their misses
  // after the first one cover the in-loop SR path.
  std::uint64_t pool_misses = 0, traced_misses = 0;
  auto misses_of = [](auto&& fn) {
    const auto before = dcsr::Workspace::aggregate_stats().misses;
    fn();
    return dcsr::Workspace::aggregate_stats().misses - before;
  };
  auto timed_play = [&](auto&& play) {
    double s = 0.0;
    pool_misses += misses_of([&] { s = time_s(play); });
    return s;
  };
  for (int rep = 0; window.more(rep); ++rep) {
    double pair_s = 0.0;
    attempt(out, "play_dcsr", [&] {
      core::PlaybackResult p;
      dcsr_s.push_back(timed_play([&] {
        p = core::play_dcsr(enc, server.labels, server.micro_models, *video, opts);
      }));
      pair_s += dcsr_s.back();
      return compare(ref_dcsr, digest_of(p));
    });
    attempt(out, "play_low", [&] {
      core::PlaybackResult p;
      low_s.push_back(timed_play([&] { p = core::play_low(enc, *video, opts); }));
      pair_s += low_s.back();
      return compare(ref_low, digest_of(p));
    });
    out.op_s.push_back(pair_s);
    if (!o.trace) continue;
    for (const bool on : {true, false}) {
      tracer().clear();
      tracer().set_enabled(on);
      double comp_s = 0.0;
      attempt(out, "traced play_dcsr composition", [&] {
        PlayDigest d;
        double s = 0.0;
        const std::uint64_t m = misses_of([&] {
          s = time_s([&] {
            d = traced_play(enc, server.labels, &server.micro_models, *video, opts);
          });
        });
        if (rep > 0 || !on) traced_misses += m;
        comp_s += s;
        if (on) traced_dcsr_s.push_back(s);
        return compare(ref_dcsr, d);
      });
      attempt(out, "traced play_low composition", [&] {
        PlayDigest d;
        const double s = time_s([&] {
          d = traced_play(enc, server.labels, nullptr, *video, opts);
        });
        comp_s += s;
        if (on) traced_low_s.push_back(s);
        return compare(ref_low, d);
      });
      tracer().set_enabled(false);
      (on ? traced_s : untraced_comp_s).push_back(comp_s);
      if (on) {
        traced_reps.push_back(tracer().snapshot());
        append_spans(out.trace, traced_reps.back());
      }
    }
  }

  const double dcsr_fps = frames / median(dcsr_s);
  const double low_fps = frames / median(low_s);
  int switches = 0;
  for (std::size_t s = 1; s < server.labels.size(); ++s)
    switches += server.labels[s] != server.labels[s - 1];
  out.report = {{"play_dcsr_fps 1/s", dcsr_fps},
                {"play_low_fps 1/s", low_fps},
                {"dcsr_gain_db dB", gain_db},
                {"segments count", static_cast<double>(enc.segments.size())},
                {"k count", static_cast<double>(server.k)}};
  if (!o.trace) return out;

  // Per-layer figures per traced pair (one play_dcsr + one play_low),
  // median over pairs.
  auto per_rep = [&](auto&& pick) {
    std::vector<double> v;
    for (const auto& spans : traced_reps) v.push_back(pick(summarize(spans)));
    return median(v);
  };
  auto total = [&](const char* name) {
    return per_rep([&](const std::vector<SpanStats>& rows) {
      return stats_for(rows, name).total_s;
    });
  };
  const double decode_s = per_rep([](const std::vector<SpanStats>& rows) {
    return stats_for(rows, "codec.decode_segment").self_s;
  });
  std::vector<double> infer_ms;
  for (const Span& s : out.trace)
    if (std::string(s.name) == "sr.enhance")
      infer_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  out.layers = {
      {"e2e.play_dcsr_fps", dcsr_fps},
      {"e2e.play_low_fps", low_fps},
      {"e2e.dcsr_gain_db", gain_db},
      {"codec.decode_s", decode_s},
      {"codec.decode_ms_per_frame", decode_s * 1e3 / (2.0 * frames)},
      {"sr.infer_s", total("sr.enhance")},
      {"sr.infer_calls", static_cast<double>(infer_ms.size() / traced_reps.size())},
      {"sr.infer_ms_p50", nearest_rank(infer_ms, 50.0)},
      {"sr.infer_ms_p90", nearest_rank(infer_ms, 90.0)},
      {"image.yuv2rgb_s", total("image.yuv2rgb")},
      {"image.rgb2yuv_s", total("image.rgb2yuv")},
      {"image.metrics_s", total("image.metrics")},
      {"image.ssim_calls",
       static_cast<double>(stats_for(summarize(traced_reps.front()), "image.ssim").count)},
      {"core.pipeline_speedup_dcsr", median(traced_dcsr_s) / median(dcsr_s)},
      {"core.pipeline_speedup_low", median(traced_low_s) / median(low_s)},
      {"core.model_switches", static_cast<double>(switches)},
      {"tensor.ws_misses_pool", static_cast<double>(pool_misses)},
      {"tensor.ws_misses_traced", static_cast<double>(traced_misses)},
      {"trace_overhead", median(traced_s) / median(untraced_comp_s)},
  };
  return out;
}

}  // namespace dcsrbench
