// Tests for the sub-pel motion and intra-prediction codec features.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "codec/bits.hpp"
#include "codec/frame_coding.hpp"
#include "codec/motion.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "video/noise.hpp"

namespace dcsr::codec {
namespace {

Plane smooth_plane(int w, int h, std::uint64_t seed) {
  Plane p(w, h);
  const ValueNoise noise(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      p.at(x, y) = noise.fbm(static_cast<float>(x), static_cast<float>(y), 16.0f, 2);
  return p;
}

// ---- half-pel sampling -------------------------------------------------------

TEST(HalfPel, EvenCoordinatesHitIntegerSamples) {
  Plane p(4, 4);
  p.at(2, 1) = 0.75f;
  EXPECT_FLOAT_EQ(sample_halfpel(p, 4, 2), 0.75f);
}

TEST(HalfPel, OddCoordinatesAverageNeighbours) {
  Plane p(4, 4);
  p.at(1, 1) = 0.2f;
  p.at(2, 1) = 0.6f;
  p.at(1, 2) = 0.4f;
  p.at(2, 2) = 0.8f;
  EXPECT_FLOAT_EQ(sample_halfpel(p, 3, 2), 0.4f);   // horizontal midpoint
  EXPECT_FLOAT_EQ(sample_halfpel(p, 2, 3), 0.3f);   // vertical midpoint
  EXPECT_FLOAT_EQ(sample_halfpel(p, 3, 3), 0.5f);   // diagonal midpoint
}

TEST(HalfPel, ClampsAtEdges) {
  Plane p(2, 2);
  p.fill(0.5f);
  EXPECT_FLOAT_EQ(sample_halfpel(p, -3, -3), 0.5f);
  EXPECT_FLOAT_EQ(sample_halfpel(p, 9, 9), 0.5f);
}

TEST(HalfPel, RefinementFindsSubPelShift) {
  // cur is ref shifted by exactly half a pixel horizontally (average of
  // neighbours); the refinement must pick the odd x displacement.
  const Plane ref = smooth_plane(64, 64, 3);
  Plane cur(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      cur.at(x, y) = 0.5f * (ref.at_clamped(x, y) + ref.at_clamped(x + 1, y));
  const PaddedPlane cur_p(cur, 0), ref_p(ref, search_border(8));
  const MotionVector full = motion_search(cur_p, ref_p, 24, 24, 16, 8);
  const MotionVector hp =
      refine_halfpel(cur_p, ref_p, 24, 24, 16, {2 * full.x, 2 * full.y});
  EXPECT_EQ(hp.x, 1);
  EXPECT_EQ(hp.y, 0);
}

TEST(HalfPel, RefinementKeepsZeroOnStaticContent) {
  const Plane p = smooth_plane(48, 48, 5);
  const MotionVector hp = refine_halfpel(
      PaddedPlane(p, 0), PaddedPlane(p, search_border(0)), 16, 16, 16, {0, 0});
  EXPECT_EQ(hp.x, 0);
  EXPECT_EQ(hp.y, 0);
}

TEST(HalfPel, SubPelMotionCodesCheaperThanResidual) {
  // A frame pair displaced by 2.5 px: with half-pel prediction the residual
  // nearly vanishes, so the P frame must be a small fraction of the intra
  // cost of the same frame.
  const Plane base = smooth_plane(80, 64, 7);
  FrameYUV ref(64, 48), cur(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x) {
      ref.y.at(x, y) = base.at_clamped(x + 8, y + 8);
      cur.y.at(x, y) = 0.5f * (base.at_clamped(x + 10, y + 8) +
                               base.at_clamped(x + 11, y + 8));
    }
  ref.u.fill(0.5f);
  ref.v.fill(0.5f);
  cur.u.fill(0.5f);
  cur.v.fill(0.5f);

  const Quantizer q(28);
  BitWriter bw_ref, bw_p, bw_i;
  const FrameYUV ref_recon = encode_intra_frame(ref, q, bw_ref);
  encode_p_frame(cur, ref_recon, q, 8, bw_p);
  encode_intra_frame(cur, q, bw_i);
  // The reference is itself quantised, so the sub-pel prediction is not
  // perfect — but the P frame must still be a small fraction of intra cost.
  EXPECT_LT(bw_p.bit_count() * 2, bw_i.bit_count());
}

// ---- padded motion search against the clamped loops it replaced -------------

// Test-local copies of the per-pixel clamped SADs and searches the encoder ran
// before motion search read edge-padded planes: the oracle the padded
// versions must match bit for bit.
float oracle_sample_halfpel(const Plane& p, int x2, int y2) {
  const int x0 = x2 >> 1, y0 = y2 >> 1;
  const bool fx = x2 & 1, fy = y2 & 1;
  if (!fx && !fy) return p.at_clamped(x0, y0);
  if (fx && !fy)
    return 0.5f * (p.at_clamped(x0, y0) + p.at_clamped(x0 + 1, y0));
  if (!fx && fy)
    return 0.5f * (p.at_clamped(x0, y0) + p.at_clamped(x0, y0 + 1));
  return 0.25f * (p.at_clamped(x0, y0) + p.at_clamped(x0 + 1, y0) +
                  p.at_clamped(x0, y0 + 1) + p.at_clamped(x0 + 1, y0 + 1));
}

float oracle_sad(const Plane& cur, const Plane& ref, int bx, int by, int size,
                 MotionVector mv) {
  float acc = 0.0f;
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      acc += std::abs(cur.at_clamped(bx + x, by + y) -
                      ref.at_clamped(bx + x + mv.x, by + y + mv.y));
  return acc;
}

float oracle_sad_halfpel(const Plane& cur, const Plane& ref, int bx, int by,
                         int size, MotionVector mv) {
  float acc = 0.0f;
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      acc += std::abs(cur.at_clamped(bx + x, by + y) -
                      oracle_sample_halfpel(ref, 2 * (bx + x) + mv.x,
                                            2 * (by + y) + mv.y));
  return acc;
}

MotionVector oracle_motion_search(const Plane& cur, const Plane& ref, int bx,
                                  int by, int size, int range) {
  const float lambda = 0.01f * static_cast<float>(size);
  MotionVector best{0, 0};
  float best_cost = oracle_sad(cur, ref, bx, by, size, best);
  int step = 1;
  while (step * 2 <= range) step *= 2;
  for (; step >= 1; step /= 2) {
    bool improved = true;
    while (improved) {
      improved = false;
      static constexpr int kDx[4] = {1, -1, 0, 0};
      static constexpr int kDy[4] = {0, 0, 1, -1};
      for (int d = 0; d < 4; ++d) {
        MotionVector cand{best.x + kDx[d] * step, best.y + kDy[d] * step};
        if (cand.x < -range || cand.x > range || cand.y < -range || cand.y > range)
          continue;
        const float cost = oracle_sad(cur, ref, bx, by, size, cand) +
                           lambda * (std::abs(static_cast<float>(cand.x)) +
                                     std::abs(static_cast<float>(cand.y)));
        if (cost < best_cost) {
          best_cost = cost;
          best = cand;
          improved = true;
        }
      }
    }
  }
  return best;
}

MotionVector oracle_refine_halfpel(const Plane& cur, const Plane& ref, int bx,
                                   int by, int size, MotionVector mv_halfpel) {
  const float lambda = 0.02f * static_cast<float>(size);
  MotionVector best = mv_halfpel;
  float best_cost = oracle_sad_halfpel(cur, ref, bx, by, size, best);
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const MotionVector cand{mv_halfpel.x + dx, mv_halfpel.y + dy};
      const float cost =
          oracle_sad_halfpel(cur, ref, bx, by, size, cand) + lambda;
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
  return best;
}

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// `ref` is a smooth texture with noise; `cur` is `ref` displaced by `shift`
// (edge-clamped) plus independent noise, so SADs are distinct and the search
// has a real minimum to find.
struct MotionPair {
  Plane cur, ref;
};

MotionPair motion_pair(int w, int h, MotionVector shift, std::uint64_t seed) {
  MotionPair m{smooth_plane(w, h, seed), Plane(w, h)};
  Rng rng(seed + 1);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      m.cur.at(x, y) = m.ref.at_clamped(x + shift.x, y + shift.y);
  for (Plane* p : {&m.cur, &m.ref})
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        p->at(x, y) += static_cast<float>(rng.uniform(-0.05, 0.05));
  return m;
}

// 96x64 is the quickstart frame; 40x24 is not macroblock-aligned, so blocks
// in its last MB column and row reach past the plane and the source reads are
// edge-padded too. The MB grid of each covers every border and corner.
constexpr int kMotionSizes[2][2] = {{96, 64}, {40, 24}};

TEST(MotionPadded, PlaneSamplesEqualClampedReads) {
  for (const auto& wh : kMotionSizes) {
    const MotionPair m = motion_pair(wh[0], wh[1], {0, 0}, 11);
    const PaddedPlane p(m.ref, search_border(8));
    ASSERT_EQ(p.aligned_width(), (wh[0] + 15) / 16 * 16);
    ASSERT_EQ(p.aligned_height(), (wh[1] + 15) / 16 * 16);
    for (int y = -p.border(); y < p.aligned_height() + p.border(); ++y)
      for (int x = -p.border(); x < p.aligned_width() + p.border(); ++x)
        ASSERT_EQ(float_bits(p.row(y)[x]), float_bits(m.ref.at_clamped(x, y)))
            << wh[0] << "x" << wh[1] << " at (" << x << ", " << y << ")";
  }
}

TEST(MotionPadded, SadsMatchClampedOracleBitwise) {
  for (const int range : {8, 3}) {
    for (const auto& wh : kMotionSizes) {
      const int w = wh[0], h = wh[1];
      const MotionPair m = motion_pair(w, h, {2, -1}, 13);
      const PaddedPlane cur(m.cur, 0), ref(m.ref, search_border(range));
      int checked = 0, mismatches = 0;
      std::string first;
      const auto check = [&](const char* kind, int bx, int by, MotionVector v,
                             float got, float want) {
        ++checked;
        if (float_bits(got) == float_bits(want)) return;
        if (mismatches++ == 0)
          first = std::string(kind) + " block (" + std::to_string(bx) + ", " +
                  std::to_string(by) + ") mv (" + std::to_string(v.x) + ", " +
                  std::to_string(v.y) + ")";
      };
      for (int by = 0; by < h; by += 16)
        for (int bx = 0; bx < w; bx += 16) {
          for (int vy = -range; vy <= range; ++vy)
            for (int vx = -range; vx <= range; ++vx)
              check("integer", bx, by, {vx, vy},
                    block_sad(cur, ref, bx, by, 16, {vx, vy}),
                    oracle_sad(m.cur, m.ref, bx, by, 16, {vx, vy}));
          // Every half-pel vector the refinement can test: twice an integer
          // vector plus a step of at most one half-pel in each axis.
          for (int vy = -2 * range - 1; vy <= 2 * range + 1; ++vy)
            for (int vx = -2 * range - 1; vx <= 2 * range + 1; ++vx)
              check("half-pel", bx, by, {vx, vy},
                    block_sad_halfpel(cur, ref, bx, by, 16, {vx, vy}),
                    oracle_sad_halfpel(m.cur, m.ref, bx, by, 16, {vx, vy}));
        }
      const int blocks = ((w + 15) / 16) * ((h + 15) / 16);
      const int per_block = (2 * range + 1) * (2 * range + 1) +
                            (4 * range + 3) * (4 * range + 3);
      EXPECT_EQ(checked, blocks * per_block);
      EXPECT_EQ(mismatches, 0) << w << "x" << h << " range " << range
                               << ", first: " << first;
    }
  }
}

TEST(MotionPadded, SearchPicksClampedOracleVectors) {
  constexpr MotionVector kShifts[] = {
      {0, 0}, {3, -2}, {-7, 5}, {8, -8}, {-5, 9}};
  int moving = 0, subpel = 0;
  for (const int range : {8, 3}) {
    for (const auto& wh : kMotionSizes) {
      const int w = wh[0], h = wh[1];
      for (const MotionVector shift : kShifts) {
        const MotionPair m = motion_pair(w, h, shift, 17);
        const PaddedPlane cur(m.cur, 0), ref(m.ref, search_border(range));
        for (int by = 0; by < h; by += 16)
          for (int bx = 0; bx < w; bx += 16) {
            SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                         " range " + std::to_string(range) + " block (" +
                         std::to_string(bx) + ", " + std::to_string(by) + ")");
            const MotionVector full =
                motion_search(cur, ref, bx, by, 16, range);
            const MotionVector want =
                oracle_motion_search(m.cur, m.ref, bx, by, 16, range);
            ASSERT_EQ(full.x, want.x);
            ASSERT_EQ(full.y, want.y);
            const MotionVector hp = refine_halfpel(cur, ref, bx, by, 16,
                                                   {2 * full.x, 2 * full.y});
            const MotionVector want_hp = oracle_refine_halfpel(
                m.cur, m.ref, bx, by, 16, {2 * want.x, 2 * want.y});
            ASSERT_EQ(hp.x, want_hp.x);
            ASSERT_EQ(hp.y, want_hp.y);
            moving += full.x != 0 || full.y != 0;
            subpel += hp.x != 2 * full.x || hp.y != 2 * full.y;
          }
      }
    }
  }
  // The comparison means something only if the searches leave (0, 0) and
  // the refinements leave the integer position on some blocks.
  EXPECT_GT(moving, 0);
  EXPECT_GT(subpel, 0);
}

// ---- intra prediction -----------------------------------------------------------

TEST(IntraPrediction, VerticallyUniformFrameCodesVeryCompactly) {
  // Columns constant along y: after the first block row, vertical prediction
  // is exact and every residual quantises to zero.
  FrameYUV f(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x)
      f.y.at(x, y) = 0.2f + 0.6f * static_cast<float>(x) / 63.0f;
  f.u.fill(0.5f);
  f.v.fill(0.5f);

  const Quantizer q(23);
  BitWriter bw;
  const FrameYUV recon = encode_intra_frame(f, q, bw);
  EXPECT_GT(psnr(f.y, recon.y), 37.0);
  // 48 luma + 24 chroma blocks; compact means only a few bits per block
  // beyond the mode signalling.
  EXPECT_LT(bw.bit_count(), 72u * 40u);
}

TEST(IntraPrediction, HorizontallyUniformFrameCodesVeryCompactly) {
  FrameYUV f(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x)
      f.y.at(x, y) = 0.2f + 0.6f * static_cast<float>(y) / 47.0f;
  f.u.fill(0.5f);
  f.v.fill(0.5f);

  const Quantizer q(23);
  BitWriter bw;
  const FrameYUV recon = encode_intra_frame(f, q, bw);
  EXPECT_GT(psnr(f.y, recon.y), 37.0);
  EXPECT_LT(bw.bit_count(), 72u * 40u);
}

TEST(IntraPrediction, DirectionalContentBeatsFlatDcAssumption) {
  // A frame of vertical stripes: vertical prediction reconstructs rows below
  // the first block row for free, so total bits must be well below the bits
  // of the first block row scaled to the whole frame.
  FrameYUV f(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x)
      f.y.at(x, y) = (x / 4) % 2 ? 0.8f : 0.2f;
  f.u.fill(0.5f);
  f.v.fill(0.5f);

  const Quantizer q(23);
  BitWriter bw;
  encode_intra_frame(f, q, bw);

  // First block row alone, as its own tiny frame.
  FrameYUV strip(64, 16);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 64; ++x) strip.y.at(x, y) = f.y.at(x, y);
  strip.u.fill(0.5f);
  strip.v.fill(0.5f);
  BitWriter bw_strip;
  encode_intra_frame(strip, q, bw_strip);

  // Whole frame is 3x the strip's rows; with vertical prediction it should
  // cost much less than 3x the strip.
  EXPECT_LT(bw.bit_count(), bw_strip.bit_count() * 2);
}

TEST(IntraPrediction, RoundTripStillBitExact) {
  // The new modes must preserve the encoder/decoder agreement.
  Rng rng(9);
  FrameYUV f(48, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 48; ++x)
      f.y.at(x, y) = static_cast<float>(rng.uniform());
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 24; ++x) {
      f.u.at(x, y) = static_cast<float>(rng.uniform());
      f.v.at(x, y) = static_cast<float>(rng.uniform());
    }
  const Quantizer q(30);
  BitWriter bw;
  const FrameYUV enc = encode_intra_frame(f, q, bw);
  const auto payload = bw.finish();
  BitReader br(payload);
  const FrameYUV dec = decode_intra_frame(48, 32, q, br);
  EXPECT_DOUBLE_EQ(psnr(enc.y, dec.y), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc.u, dec.u), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc.v, dec.v), 100.0);
}

}  // namespace
}  // namespace dcsr::codec
