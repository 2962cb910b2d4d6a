#pragma once

#include <cstddef>
#include <vector>

#include "image/frame.hpp"

namespace dcsr::codec {

/// Motion vector. Units depend on context: the search functions work in
/// integer pel; the frame coder stores and signals vectors in HALF-pel units
/// (H.264-style sub-pel prediction, one refinement level).
struct MotionVector {
  int x = 0, y = 0;
};

/// Samples a plane at half-pel coordinates (x2, y2 are positions in units of
/// half a pixel): even coordinates hit integer samples, odd ones bilinearly
/// average the neighbours. Edge-clamped.
float sample_halfpel(const Plane& p, int x2, int y2) noexcept;

/// Edge-padded copy of a plane, the form motion estimation reads. It covers
/// the plane rounded up to whole 16x16 macroblocks plus `border` samples on
/// every side, and every sample equals Plane::at_clamped at the same
/// coordinates, so a search reads displaced blocks through plain row
/// pointers. Build one per frame and share it across slices and blocks.
class PaddedPlane {
 public:
  PaddedPlane(const Plane& p, int border);

  /// Pointer to sample (0, y); valid for x in [-border, aligned_width +
  /// border) and y in [-border, aligned_height + border).
  const float* row(int y) const noexcept {
    return data_.data() +
           static_cast<std::ptrdiff_t>(y + border_) * stride_ + border_;
  }
  int border() const noexcept { return border_; }
  int stride() const noexcept { return stride_; }
  int aligned_width() const noexcept { return aligned_w_; }
  int aligned_height() const noexcept { return aligned_h_; }

 private:
  int border_, aligned_w_, aligned_h_, stride_;
  std::vector<float> data_;
};

/// Border a reference needs for motion_search within [-range, range] and
/// refine_halfpel's one half-pel step around its result: every sample either
/// reads lies at most range + 1 samples outside the block's position.
constexpr int search_border(int range) noexcept { return range + 1; }

// The search functions below read the `size`x`size` block of `cur` at
// (bx, by), which must lie inside cur's aligned extent (a border of 0
// suffices), and the displaced block of `ref`, whose border must cover the
// displacement: search_border(range) for a search and its refinement.

/// Sum of absolute differences between the block of `cur` at (bx, by) and
/// the block of `ref` displaced by the integer-pel vector mv.
float block_sad(const PaddedPlane& cur, const PaddedPlane& ref, int bx, int by,
                int size, MotionVector mv) noexcept;

/// Three-step search (log-scale diamond refinement) for the motion of the
/// `size`x`size` block at (bx, by) in `cur` against `ref`, within
/// [-range, range]. A small lambda penalises long vectors so near-static
/// content settles on (0,0) and codes cheaply.
MotionVector motion_search(const PaddedPlane& cur, const PaddedPlane& ref,
                           int bx, int by, int size, int range) noexcept;

/// Half-pel refinement: takes a *half-pel-unit* vector (typically 2x the
/// integer search result) and greedily tests the 8 half-pel neighbours.
/// Returns the refined half-pel vector.
MotionVector refine_halfpel(const PaddedPlane& cur, const PaddedPlane& ref,
                            int bx, int by, int size,
                            MotionVector mv_halfpel) noexcept;

/// SAD against a half-pel displaced reference block, each reference sample
/// computed as sample_halfpel does.
float block_sad_halfpel(const PaddedPlane& cur, const PaddedPlane& ref, int bx,
                        int by, int size, MotionVector mv_halfpel) noexcept;

/// Copies the motion-compensated prediction block from `ref` into `dst` at
/// (bx, by), edge-clamped.
void motion_compensate(const Plane& ref, Plane& dst, int bx, int by, int size,
                       MotionVector mv) noexcept;

/// Bidirectional prediction: averages the two displaced reference blocks.
void motion_compensate_bi(const Plane& ref0, MotionVector mv0,
                          const Plane& ref1, MotionVector mv1, Plane& dst,
                          int bx, int by, int size) noexcept;

}  // namespace dcsr::codec
