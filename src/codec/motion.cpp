#include "codec/motion.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "simd/dispatch.hpp"

namespace dcsr::codec {

float sample_halfpel(const Plane& p, int x2, int y2) noexcept {
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

PaddedPlane::PaddedPlane(const Plane& p, int border)
    : border_(border),
      aligned_w_((p.width() + 15) / 16 * 16),
      aligned_h_((p.height() + 15) / 16 * 16),
      stride_(aligned_w_ + 2 * border) {
  data_.resize(static_cast<std::size_t>(stride_) *
               static_cast<std::size_t>(aligned_h_ + 2 * border));
  // Row y repeats the plane's nearest row, and each row its edge samples
  // past either side: at_clamped(x, y) for every (x, y) the buffer holds.
  const int w = p.width();
  for (int y = -border; y < aligned_h_ + border; ++y) {
    const int sy = std::clamp(y, 0, p.height() - 1);
    const float* src = p.data() + static_cast<std::ptrdiff_t>(sy) * w;
    float* dst =
        data_.data() + static_cast<std::ptrdiff_t>(y + border) * stride_;
    std::fill(dst, dst + border, src[0]);
    std::copy(src, src + w, dst + border);
    std::fill(dst + border + w, dst + stride_, src[w - 1]);
  }
}

namespace {

// True when the block at (bx, by) lies inside `cur` and every reference
// sample at offsets [lo, hi] from it, in x and in y, lies inside `ref`.
[[maybe_unused]] bool covers(const PaddedPlane& cur, const PaddedPlane& ref,
                             int bx, int by, int size, int lo_x, int hi_x,
                             int lo_y, int hi_y) noexcept {
  const auto inside = [size](const PaddedPlane& p, int b, int lo, int hi,
                             int aligned) {
    return b + lo >= -p.border() && b + size - 1 + hi < aligned + p.border();
  };
  return inside(cur, bx, 0, 0, cur.aligned_width()) &&
         inside(cur, by, 0, 0, cur.aligned_height()) &&
         inside(ref, bx, lo_x, hi_x, ref.aligned_width()) &&
         inside(ref, by, lo_y, hi_y, ref.aligned_height());
}

// Serial SAD, row-major, of the block of `cur` at (bx, by) against
// `sample(r, x)`, where r points at reference row by + y + oy shifted to
// column bx + ox.
template <typename Sample>
float sad(const PaddedPlane& cur, const PaddedPlane& ref, int bx, int by,
          int size, int ox, int oy, Sample sample) noexcept {
  float acc = 0.0f;
  for (int y = 0; y < size; ++y) {
    const float* c = cur.row(by + y) + bx;
    const float* r = ref.row(by + y + oy) + bx + ox;
    for (int x = 0; x < size; ++x) acc += std::abs(c[x] - sample(r, x));
  }
  return acc;
}

}  // namespace

float block_sad(const PaddedPlane& cur, const PaddedPlane& ref, int bx, int by,
                int size, MotionVector mv) noexcept {
  assert(covers(cur, ref, bx, by, size, mv.x, mv.x, mv.y, mv.y));
  return sad(cur, ref, bx, by, size, mv.x, mv.y,
             [](const float* r, int x) { return r[x]; });
}

float block_sad_halfpel(const PaddedPlane& cur, const PaddedPlane& ref, int bx,
                        int by, int size, MotionVector mv_halfpel) noexcept {
  // Half-pel position 2 * (bx + x) + mv.x has the parity of mv.x for every x,
  // so the sample kind is fixed per block, and its integer part is
  // bx + x + (mv.x >> 1). Each kind keeps sample_halfpel's expression.
  const int ox = mv_halfpel.x >> 1, oy = mv_halfpel.y >> 1;
  const bool fx = mv_halfpel.x & 1, fy = mv_halfpel.y & 1;
  assert(covers(cur, ref, bx, by, size, ox, ox + fx, oy, oy + fy));
  const int s = ref.stride();
  if (!fx && !fy) return block_sad(cur, ref, bx, by, size, {ox, oy});
  if (fx && !fy)
    return sad(cur, ref, bx, by, size, ox, oy, [](const float* r, int x) {
      return 0.5f * (r[x] + r[x + 1]);
    });
  if (!fx && fy)
    return sad(cur, ref, bx, by, size, ox, oy, [s](const float* r, int x) {
      return 0.5f * (r[x] + r[x + s]);
    });
  return sad(cur, ref, bx, by, size, ox, oy, [s](const float* r, int x) {
    return 0.25f * (r[x] + r[x + 1] + r[x + s] + r[x + s + 1]);
  });
}

MotionVector refine_halfpel(const PaddedPlane& cur, const PaddedPlane& ref,
                            int bx, int by, int size,
                            MotionVector mv_halfpel) noexcept {
  // Bias against leaving the integer-pel position: the bilinear half-pel
  // filter slightly denoises quantised references, which would otherwise
  // pull every static block off its (cheap, skippable) zero vector.
  const float lambda = 0.02f * static_cast<float>(size);

  MotionVector best = mv_halfpel;
  float best_cost = block_sad_halfpel(cur, ref, bx, by, size, best);
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const MotionVector cand{mv_halfpel.x + dx, mv_halfpel.y + dy};
      const float cost =
          block_sad_halfpel(cur, ref, bx, by, size, cand) + lambda;
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
  return best;
}

MotionVector motion_search(const PaddedPlane& cur, const PaddedPlane& ref,
                           int bx, int by, int size, int range) noexcept {
  // Rate-ish penalty per pel of displacement, in SAD units. Keeps the search
  // from wandering on flat blocks where many displacements tie.
  const float lambda = 0.01f * static_cast<float>(size);

  MotionVector best{0, 0};
  float best_cost = block_sad(cur, ref, bx, by, size, best);

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
        const float cost =
            block_sad(cur, ref, bx, by, size, cand) +
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

void motion_compensate(const Plane& ref, Plane& dst, int bx, int by, int size,
                       MotionVector mv) noexcept {
  // Fast path: prediction between same-geometry planes (the only case the
  // codec produces) goes through the SIMD block kernel.
  if (ref.width() == dst.width() && ref.height() == dst.height()) {
    simd::active().mc_copy_block(ref.data(), dst.data(), dst.width(),
                                 dst.height(), bx, by, size, mv.x, mv.y);
    return;
  }
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const int px = bx + x, py = by + y;
      if (px < dst.width() && py < dst.height())
        dst.at(px, py) = ref.at_clamped(px + mv.x, py + mv.y);
    }
}

void motion_compensate_bi(const Plane& ref0, MotionVector mv0,
                          const Plane& ref1, MotionVector mv1, Plane& dst,
                          int bx, int by, int size) noexcept {
  if (ref0.width() == dst.width() && ref0.height() == dst.height() &&
      ref1.width() == dst.width() && ref1.height() == dst.height()) {
    simd::active().mc_bi_block(ref0.data(), mv0.x, mv0.y, ref1.data(), mv1.x,
                               mv1.y, dst.data(), dst.width(), dst.height(),
                               bx, by, size);
    return;
  }
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const int px = bx + x, py = by + y;
      if (px < dst.width() && py < dst.height())
        dst.at(px, py) = 0.5f * (ref0.at_clamped(px + mv0.x, py + mv0.y) +
                                 ref1.at_clamped(px + mv1.x, py + mv1.y));
    }
}

}  // namespace dcsr::codec
