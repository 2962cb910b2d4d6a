#include "frame_store.hpp"

#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"
#include "video/scene.hpp"

namespace dcsrbench {

namespace {

bool same_plane(const dcsr::Plane& a, const dcsr::Plane& b) {
  return a.same_size(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_frame(const dcsr::FrameRGB& a, const dcsr::FrameRGB& b) {
  return same_plane(a.r, b.r) && same_plane(a.g, b.g) && same_plane(a.b, b.b);
}

}  // namespace

FrameStore::FrameStore(const dcsr::VideoSource& src)
    : width_(src.width()), height_(src.height()), fps_(src.fps()) {
  frames_.reserve(static_cast<std::size_t>(src.frame_count()));
  for (int i = 0; i < src.frame_count(); ++i) frames_.push_back(src.frame(i));
  for (int i = 0; i < src.frame_count(); ++i)
    if (!same_frame(frames_[static_cast<std::size_t>(i)], src.frame(i)))
      throw std::runtime_error("FrameStore: frame " + std::to_string(i) +
                               " differs from the synthetic source");
}

dcsr::FrameRGB FrameStore::frame(int index) const {
  if (index < 0 || index >= frame_count())
    throw std::out_of_range("FrameStore: frame index out of range");
  return frames_[static_cast<std::size_t>(index)];
}

std::unique_ptr<dcsr::SyntheticVideo> retextured_clip(
    dcsr::Genre genre, std::uint64_t structure_seed, std::uint64_t texture_seed,
    int width, int height, double seconds, double fps) {
  const auto reference =
      dcsr::make_genre_video(genre, structure_seed, width, height, seconds, fps);
  // make_genre_video's own derivation of the scene library.
  const dcsr::GenreProfile prof = dcsr::profile_for(genre);
  dcsr::Rng scene_rng(structure_seed ^ (static_cast<std::uint64_t>(genre) << 32));
  dcsr::Rng texture_rng(texture_seed);
  std::vector<dcsr::SceneSpec> scenes;
  for (int i = 0; i < prof.scene_library_size; ++i) {
    scenes.push_back(
        dcsr::random_scene(scene_rng, prof.motion_intensity, prof.texture_detail));
    scenes.back().seed = texture_rng.next_u64();
  }
  return std::make_unique<dcsr::SyntheticVideo>(reference->name(), std::move(scenes),
                                                reference->shots(), width, height, fps);
}

}  // namespace dcsrbench
