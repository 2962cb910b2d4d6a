#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <string>

#include "core/baselines.hpp"
#include "core/client_pipeline.hpp"
#include "core/server_pipeline.hpp"
#include "codec/container.hpp"
#include "fp_exact.hpp"
#include "nn/serialize.hpp"
#include "sr/min_model.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "stream/session.hpp"
#include "tensor/workspace.hpp"
#include "util/thread_pool.hpp"
#include "video/genres.hpp"

namespace dcsr::core {
namespace {

// Small-but-real configuration used across these tests: tiny models and few
// iterations so the full pipeline runs in seconds.
ServerConfig tiny_config() {
  ServerConfig cfg;
  cfg.codec.crf = 51;  // the paper's operating point, where SR gains are large
  cfg.codec.intra_period = 10;
  cfg.vae = {.input_size = 16, .latent_dim = 4, .base_channels = 4, .hidden = 32};
  cfg.vae_epochs = 8;
  cfg.micro = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
  cfg.big = {.n_filters = 32, .n_resblocks = 4, .scale = 1};
  cfg.k_max = 5;
  cfg.training = {.iterations = 400, .patch_size = 24, .batch_size = 2, .lr = 3e-3};
  cfg.seed = 3;
  return cfg;
}

std::unique_ptr<SyntheticVideo> tiny_video(std::uint64_t seed = 11) {
  // Music-video pacing (short shots, strong recurrence) guarantees several
  // segments and shared clusters even in a 30-second clip.
  return make_genre_video(Genre::kMusicVideo, seed, 64, 48, 30.0, 15.0);
}

// The pipeline runs take seconds; share one run across assertions.
struct PipelineFixture : ::testing::Test {
  static void SetUpTestSuite() {
    video = tiny_video().release();
    result = new ServerResult(run_server_pipeline(*video, tiny_config()));
  }
  static void TearDownTestSuite() {
    delete result;
    delete video;
    result = nullptr;
    video = nullptr;
  }
  static SyntheticVideo* video;
  static ServerResult* result;
};
SyntheticVideo* PipelineFixture::video = nullptr;
ServerResult* PipelineFixture::result = nullptr;

TEST_F(PipelineFixture, SegmentsCoverVideo) {
  int total = 0;
  for (const auto& s : result->segments) total += s.frame_count;
  EXPECT_EQ(total, video->frame_count());
  EXPECT_EQ(result->encoded.frame_count(), video->frame_count());
}

TEST_F(PipelineFixture, OneLabelPerSegmentWithinK) {
  ASSERT_EQ(result->labels.size(), result->segments.size());
  for (const int l : result->labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, result->k);
  }
}

TEST_F(PipelineFixture, OneModelPerCluster) {
  EXPECT_EQ(result->micro_models.size(), static_cast<std::size_t>(result->k));
  for (const auto& m : result->micro_models)
    EXPECT_EQ(m->config().n_filters, 8);
  EXPECT_GT(result->micro_model_bytes, 0u);
  EXPECT_GT(result->train_flops, 0u);
}

TEST_F(PipelineFixture, KRespectsBounds) {
  const ServerConfig cfg = tiny_config();
  EXPECT_GE(result->k, 2);
  EXPECT_LE(result->k, cfg.k_max);
  const int size_bound = sr::max_micro_models(cfg.big, cfg.micro);
  EXPECT_LE(result->k, size_bound);
  EXPECT_FALSE(result->silhouette_curve.empty());
}

TEST_F(PipelineFixture, ManifestIsConsistent) {
  const stream::Manifest m = result->manifest();
  EXPECT_EQ(m.segments.size(), result->segments.size());
  EXPECT_EQ(m.model_bytes.size(), static_cast<std::size_t>(result->k));
  for (const auto b : m.model_bytes) EXPECT_EQ(b, result->micro_model_bytes);
  EXPECT_EQ(m.total_video_bytes(), result->encoded.size_bytes());
}

TEST_F(PipelineFixture, DcsrPlaybackBeatsLow) {
  // The headline quality property: in-loop micro-model enhancement must
  // improve PSNR over the degraded stream.
  PlaybackOptions opts;
  const PlaybackResult low = play_low(result->encoded, *video, opts);
  const PlaybackResult dcsr =
      play_dcsr(result->encoded, result->labels, result->micro_models, *video, opts);
  EXPECT_EQ(low.frame_psnr.size(), static_cast<std::size_t>(video->frame_count()));
  EXPECT_GT(dcsr.mean_psnr, low.mean_psnr + 0.15);
  EXPECT_GE(dcsr.mean_ssim, low.mean_ssim - 5e-3);
}

TEST_F(PipelineFixture, RecurringSegmentsShareModels) {
  // News content revisits scenes, so there must be fewer clusters than
  // segments — the redundancy dcSR monetises.
  EXPECT_LT(static_cast<std::size_t>(result->k), result->labels.size());
  // And the session must hit the cache at least once.
  const auto session = stream::simulate_session(result->manifest());
  EXPECT_GT(session.cache_hits, 0);
}

TEST(CollectIFramePairs, PairsMatchSegmentIFrames) {
  const auto video = tiny_video(21);
  ServerConfig cfg = tiny_config();
  const auto segments = split::variable_segments(*video, cfg.segmenter);
  const auto encoded = codec::Encoder(cfg.codec).encode(*video, segments);
  const auto iframes = collect_iframe_pairs(*video, encoded, segments);
  ASSERT_EQ(iframes.size(), segments.size());
  for (std::size_t s = 0; s < iframes.size(); ++s) {
    ASSERT_GE(iframes[s].pairs.size(), 1u);
    const auto& p = iframes[s].pairs.front();
    EXPECT_EQ(p.lo.width(), video->width());
    // The lo frame is the decoded (degraded) I frame; it must resemble but
    // not equal the original.
    const double q = psnr(p.lo, p.hi);
    EXPECT_GT(q, 10.0);
    EXPECT_LT(q, 60.0);
  }
}

TEST(Baselines, BigModelTrainsAndEnhances) {
  const auto video = tiny_video(22);
  ServerConfig scfg = tiny_config();
  const auto segments = split::variable_segments(*video, scfg.segmenter);
  const auto encoded = codec::Encoder(scfg.codec).encode(*video, segments);

  BaselineConfig bcfg;
  bcfg.big = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
  bcfg.training_frames = 6;
  bcfg.training = {.iterations = 500, .patch_size = 24, .batch_size = 2, .lr = 3e-3};
  const BaselineResult base = train_big_model(*video, encoded, bcfg);
  ASSERT_NE(base.model, nullptr);
  EXPECT_EQ(base.model_bytes, sr::edsr_model_bytes(bcfg.big));
  EXPECT_GT(base.train_flops, 0u);

  PlaybackOptions opts;
  opts.nas_eval_stride = 17;
  const PlaybackResult low = play_low(encoded, *video, opts);
  const PlaybackResult nemo = play_nemo(encoded, *base.model, *video, opts);
  const PlaybackResult nas = play_nas(encoded, *base.model, *video, opts);
  EXPECT_GT(nemo.mean_psnr, low.mean_psnr);
  EXPECT_GT(nas.mean_psnr, low.mean_psnr);
  // NAS evaluates a strided subset only.
  EXPECT_LT(nas.frame_psnr.size(), low.frame_psnr.size());
}

TEST(Baselines, CollectWholeVideoPairsSamplesUniformly) {
  const auto video = tiny_video(23);
  ServerConfig scfg = tiny_config();
  const auto segments = split::variable_segments(*video, scfg.segmenter);
  const auto encoded = codec::Encoder(scfg.codec).encode(*video, segments);
  const auto pairs = collect_whole_video_pairs(*video, encoded, 8);
  EXPECT_GE(pairs.size(), 6u);
  EXPECT_LE(pairs.size(), 8u);
}

TEST(ClientPipeline, EnhanceReferenceFrameRejectsUpscalers) {
  Rng rng(1);
  sr::Edsr upscaler({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  FrameYUV frame(32, 32);
  EXPECT_THROW(enhance_reference_frame(frame, upscaler), std::invalid_argument);
}

// Shared setup for the playback-path tests below: a short clip, two fixed
// segments, and untrained (but deterministic) models — quality is irrelevant
// here, only which frames get measured and which bits come out.
struct PlaybackSetup {
  std::unique_ptr<SyntheticVideo> video;
  codec::EncodedVideo encoded;
  std::vector<std::unique_ptr<sr::Edsr>> models;
  std::vector<int> labels;
};

// `segment_frames` = 6 cuts the 40-frame clip into seven segments (the last
// one shorter), enough to give 3 and 4 threads uneven chunk boundaries.
// Segments alternate between two models.
PlaybackSetup make_playback_setup(std::uint64_t seed, int segment_frames = 20) {
  PlaybackSetup s;
  s.video = make_genre_video(Genre::kNews, seed, 48, 32, 4.0, 10.0);
  ServerConfig cfg = tiny_config();
  const auto segments =
      split::fixed_segments(s.video->frame_count(), segment_frames);
  s.encoded = codec::Encoder(cfg.codec).encode(*s.video, segments);
  Rng rng(7);
  for (int m = 0; m < 2; ++m)
    s.models.push_back(std::make_unique<sr::Edsr>(
        sr::EdsrConfig{.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng));
  for (std::size_t i = 0; i < s.encoded.segments.size(); ++i)
    s.labels.push_back(static_cast<int>(i % 2));
  return s;
}

// The four in-loop playback paths (LOW, dcSR, NEMO, dcSR with anchors every
// 4 frames), then NAS, at the current pool size.
std::vector<PlaybackResult> play_every_path(const PlaybackSetup& s,
                                            const PlaybackOptions& opts) {
  std::vector<PlaybackResult> out;
  out.push_back(play_low(s.encoded, *s.video, opts));
  out.push_back(play_dcsr(s.encoded, s.labels, s.models, *s.video, opts));
  out.push_back(play_nemo(s.encoded, *s.models[0], *s.video, opts));
  out.push_back(play_dcsr_anchors(s.encoded, s.labels, s.models, *s.video,
                                  /*anchor_period=*/4, opts)
                    .playback);
  out.push_back(play_nas(s.encoded, *s.models[0], *s.video, opts));
  return out;
}

#if DCSR_FP_EXACT_BUILD
// CRC-32 over the raw bytes of every PSNR and SSIM double of the first
// `paths` results, in order.
std::uint32_t quality_crc(const std::vector<PlaybackResult>& results,
                          std::size_t paths) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t p = 0; p < paths; ++p)
    for (const std::vector<double>* v :
         {&results[p].frame_psnr, &results[p].frame_ssim}) {
      const std::size_t at = bytes.size();
      bytes.resize(at + v->size() * sizeof(double));
      std::memcpy(bytes.data() + at, v->data(), v->size() * sizeof(double));
    }
  return codec::crc32(bytes.data(), bytes.size());
}
#endif

void expect_same_quality(const PlaybackResult& want, const PlaybackResult& got,
                         const std::string& what) {
  ASSERT_EQ(want.frame_psnr.size(), got.frame_psnr.size()) << what;
  for (std::size_t i = 0; i < want.frame_psnr.size(); ++i)
    EXPECT_EQ(want.frame_psnr[i], got.frame_psnr[i]) << what << " frame " << i;
  ASSERT_EQ(want.frame_ssim.size(), got.frame_ssim.size()) << what;
  for (std::size_t i = 0; i < want.frame_ssim.size(); ++i)
    EXPECT_EQ(want.frame_ssim[i], got.frame_ssim[i])
        << what << " ssim sample " << i;
  EXPECT_EQ(want.psnr_frame_index, got.psnr_frame_index) << what;
  EXPECT_EQ(want.ssim_frame_index, got.ssim_frame_index) << what;
  EXPECT_EQ(want.mean_psnr, got.mean_psnr) << what;
  EXPECT_EQ(want.mean_ssim, got.mean_ssim) << what;
}

TEST(ClientPipeline, AllPathsMeasureSsimOnSameFrames) {
  // SSIM striding is keyed off the display index, so every playback path —
  // including NAS, which visits only a sampled subset — must report SSIM for
  // the same set of frames whenever ssim_stride is a multiple of
  // nas_eval_stride. (A visit-count stride used to make NAS's SSIM set drift
  // with its sampling rate.)
  const PlaybackSetup s = make_playback_setup(31);
  PlaybackOptions opts;
  opts.nas_eval_stride = 3;
  opts.ssim_stride = 6;

  const sr::Edsr& model = *s.models[0];
  const PlaybackResult low = play_low(s.encoded, *s.video, opts);
  const PlaybackResult dcsr =
      play_dcsr(s.encoded, s.labels, s.models, *s.video, opts);
  const PlaybackResult nemo = play_nemo(s.encoded, model, *s.video, opts);
  const PlaybackResult nas = play_nas(s.encoded, model, *s.video, opts);
  const AnchorPlaybackResult anchors = play_dcsr_anchors(
      s.encoded, s.labels, s.models, *s.video, /*anchor_period=*/4, opts);

  ASSERT_FALSE(low.ssim_frame_index.empty());
  EXPECT_EQ(low.ssim_frame_index.size(), low.frame_ssim.size());
  for (const int idx : low.ssim_frame_index) EXPECT_EQ(idx % opts.ssim_stride, 0);

  EXPECT_EQ(dcsr.ssim_frame_index, low.ssim_frame_index);
  EXPECT_EQ(nemo.ssim_frame_index, low.ssim_frame_index);
  EXPECT_EQ(nas.ssim_frame_index, low.ssim_frame_index);
  EXPECT_EQ(anchors.playback.ssim_frame_index, low.ssim_frame_index);
}

TEST(ClientPipeline, PlaybackBitIdenticalAcrossThreadCounts) {
  // The client's concurrency (segments spread over the pool, parallel
  // im2col) must never change results: same floats for every DCSR_THREADS.
  // Seven segments over 3 threads split 2/2/3. The PSNR and SSIM doubles of
  // LOW, dcSR, NEMO and dcSR with anchors are also pinned to the values the
  // single-lookahead segment pipeline produced, and NAS's to the values of
  // its own per-frame fan-out (each CRC recorded at that commit), so the
  // segment-parallel driver is held to the old programs' arithmetic, not
  // only to itself.
  const PlaybackSetup s = make_playback_setup(32, /*segment_frames=*/6);
  ASSERT_EQ(s.encoded.segments.size(), 7u);
  PlaybackOptions opts;
  opts.nas_eval_stride = 3;

  const int saved_threads = default_thread_count();
  std::vector<PlaybackResult> serial;
  for (const int threads : {1, 2, 3, 4}) {
    set_default_pool_threads(threads);
    const auto results = play_every_path(s, opts);
    if (threads == 1) serial = results;
    for (std::size_t p = 0; p < serial.size(); ++p)
      expect_same_quality(serial[p], results[p],
                          "threads " + std::to_string(threads) + " path " +
                              std::to_string(p));
#if DCSR_FP_EXACT_BUILD
    EXPECT_EQ(quality_crc(results, 4), 0x5d0e66c1u) << "threads " << threads;
    EXPECT_EQ(quality_crc({results[4]}, 1), 0x35f4e1cdu) << "threads " << threads;
#endif
  }
  set_default_pool_threads(saved_threads);
}

TEST(ClientPipeline, MalformedMiddleSegmentThrowsAtEveryThreadCount) {
  // A P frame before any reference in the middle segment: whichever chunk
  // decodes it, the play throws the decoder's std::invalid_argument, and
  // the pool is left fit for the next play.
  const PlaybackSetup s = make_playback_setup(33, /*segment_frames=*/6);
  codec::EncodedVideo bad = s.encoded;
  codec::EncodedSegment& middle = bad.segments[bad.segments.size() / 2];
  ASSERT_EQ(middle.frames.front().type, codec::FrameType::kI);
  middle.frames.front().type = codec::FrameType::kP;

  const int saved_threads = default_thread_count();
  set_default_pool_threads(1);
  const PlaybackResult ref_low = play_low(s.encoded, *s.video);
  const PlaybackResult ref_dcsr =
      play_dcsr(s.encoded, s.labels, s.models, *s.video);
  for (const int threads : {1, 4}) {
    set_default_pool_threads(threads);
    const std::string where = "threads " + std::to_string(threads);
    for (const bool dcsr : {false, true}) {
      try {
        if (dcsr)
          play_dcsr(bad, s.labels, s.models, *s.video);
        else
          play_low(bad, *s.video);
        ADD_FAILURE() << where << ": malformed segment played through";
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "decode: P frame before any reference") << where;
      }
    }
    expect_same_quality(ref_low, play_low(s.encoded, *s.video), where + " low");
    expect_same_quality(ref_dcsr,
                        play_dcsr(s.encoded, s.labels, s.models, *s.video),
                        where + " dcsr");
  }
  set_default_pool_threads(saved_threads);
}

TEST(ClientPipeline, WarmPoolPlaysDcsrWithoutWorkspaceMisses) {
  // In-loop SR runs on the caller and the pool workers, whose workspaces
  // live as long as the pool. Once every pool thread has enhanced one frame
  // of this size, a whole play_dcsr is served from warm arenas: zero new
  // misses, and every checkout of every I-frame enhancement is a hit on a
  // live workspace (a play that ran SR on a thread of its own would leave
  // hits missing, since a finished thread's workspace leaves the registry).
  const PlaybackSetup s = make_playback_setup(34, /*segment_frames=*/6);
  constexpr int kThreads = 4;
  const int saved_threads = default_thread_count();
  set_default_pool_threads(kThreads);

  const FrameYUV sample = rgb_to_yuv420(s.video->frame(0));
  const auto enhance_sample = [&] {
    FrameYUV f = sample;
    enhance_reference_frame(f, *s.models[0]);
  };
  // Each chunk waits until all four have started, so no thread runs two
  // and every pool thread enhances once.
  std::latch all_started(kThreads);
  parallel_for(0, kThreads, 1, [&](std::int64_t, std::int64_t) {
    all_started.arrive_and_wait();
    enhance_sample();
  });
  // Checkouts per enhancement, counted on this (already warm) thread inside
  // a one-chunk region, so nested regions run inline as they do in a play.
  std::uint64_t hits_per_frame = 0;
  parallel_for(0, 1, 1, [&](std::int64_t, std::int64_t) {
    const std::uint64_t before = Workspace::local().stats().hits;
    enhance_sample();
    hits_per_frame = Workspace::local().stats().hits - before;
  });
  ASSERT_GT(hits_per_frame, 0u);
  std::uint64_t i_frames = 0;
  for (const auto& seg : s.encoded.segments)
    for (const auto& f : seg.frames) i_frames += f.type == codec::FrameType::kI;

  const PlaybackResult first =
      play_dcsr(s.encoded, s.labels, s.models, *s.video);
  for (int play = 0; play < 2; ++play) {
    const Workspace::Stats before = Workspace::aggregate_stats();
    const PlaybackResult again =
        play_dcsr(s.encoded, s.labels, s.models, *s.video);
    const Workspace::Stats after = Workspace::aggregate_stats();
    EXPECT_EQ(after.misses, before.misses) << "play " << play;
    EXPECT_EQ(after.hits - before.hits, i_frames * hits_per_frame)
        << "play " << play;
    expect_same_quality(first, again, "play " + std::to_string(play));
  }
  set_default_pool_threads(saved_threads);
}

TEST(ClientPipeline, PlayDcsrValidatesLabels) {
  const auto video = tiny_video(24);
  ServerConfig cfg = tiny_config();
  // Fixed split guarantees several segments regardless of content.
  const auto segments = split::fixed_segments(video->frame_count(), 40);
  ASSERT_GE(segments.size(), 2u);
  const auto encoded = codec::Encoder(cfg.codec).encode(*video, segments);
  std::vector<std::unique_ptr<sr::Edsr>> models;
  Rng rng(2);
  models.push_back(std::make_unique<sr::Edsr>(cfg.micro, rng));
  // Wrong label count.
  EXPECT_THROW(play_dcsr(encoded, {0}, models, *video), std::invalid_argument);
  // Label out of range.
  std::vector<int> bad(encoded.segments.size(), 5);
  EXPECT_THROW(play_dcsr(encoded, bad, models, *video), std::invalid_argument);
}

TEST(ServerPipeline, MultiClusterBytesPinnedAcrossThreadCounts) {
  // At 4 threads the micro models train in lockstep (one after another at
  // 1 thread) and the encode fans out over closed GOPs. Neither may change
  // a bit with the thread count, and both
  // must reproduce the bytes of the program that trained one cluster per
  // task and encoded one segment at a time (the pinned CRCs).
  ServerConfig cfg = tiny_config();
  cfg.codec.intra_period = 12;
  cfg.training.iterations = 40;
  cfg.training.batch_size = 2;
  const auto video = tiny_video();
  const int saved_threads = default_thread_count();
  std::vector<std::uint8_t> models[2], container[2];
  for (const int t : {1, 4}) {
    set_default_pool_threads(t);
    const ServerResult r = run_server_pipeline(*video, cfg);
    ASSERT_GE(r.k, 2);
    ByteWriter m, c;
    for (const auto& model : r.micro_models) nn::save_params(*model, m);
    codec::write_container(r.encoded, c);
    models[t == 4] = m.bytes();
    container[t == 4] = c.bytes();
  }
  set_default_pool_threads(saved_threads);
  EXPECT_EQ(models[0], models[1]);
  EXPECT_EQ(container[0], container[1]);
#if DCSR_FP_EXACT_BUILD
  EXPECT_EQ(codec::crc32(models[0].data(), models[0].size()), 0x14b59734u);
  // The container's own trailing CRC, which covers every byte before it.
  EXPECT_EQ(codec::crc32(container[0].data(), container[0].size() - 4), 0xc17b2b48u);
#endif
}

}  // namespace
}  // namespace dcsr::core
