#pragma once

// Pre-rendered video: every frame of a source rendered once during set-up
// and served from memory. The procedural generator renders frames on demand
// inside split, encode and every metric call; without this the benchmark
// would partly time its own input generator.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "video/genres.hpp"
#include "video/source.hpp"

namespace dcsrbench {

class FrameStore final : public dcsr::VideoSource {
 public:
  /// Renders every frame of `src`, then renders each again and checks it is
  /// bit-identical to the stored copy (throws std::runtime_error if not).
  explicit FrameStore(const dcsr::VideoSource& src);

  dcsr::FrameRGB frame(int index) const override;
  int frame_count() const noexcept override {
    return static_cast<int>(frames_.size());
  }
  int width() const noexcept override { return width_; }
  int height() const noexcept override { return height_; }
  double fps() const noexcept override { return fps_; }

 private:
  std::vector<dcsr::FrameRGB> frames_;
  int width_, height_;
  double fps_;
};

/// The clip make_genre_video(genre, structure_seed, width, height, seconds,
/// fps) renders: its scene library and shot script, with every scene's
/// texture seed drawn from `texture_seed`. The edit structure decides how
/// much work the server and the client do (segment count, k, cuts), and it
/// varies widely from one structure seed to the next. Keeping it and varying
/// only the texture gives every seed the same amount of work on new pixels.
std::unique_ptr<dcsr::SyntheticVideo> retextured_clip(
    dcsr::Genre genre, std::uint64_t structure_seed, std::uint64_t texture_seed,
    int width, int height, double seconds, double fps);

}  // namespace dcsrbench
