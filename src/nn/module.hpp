#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/checked.hpp"

namespace dcsr {
class Workspace;
}

namespace dcsr::nn {

class Module;

/// Thrown by FiniteCheckGuard when a layer output contains NaN or Inf in a
/// DCSR_FINITE_CHECK build. Names the offending layer so a poisoned
/// workspace read or a numerically exploding weight is attributed at the
/// layer that produced it, not wherever the NaN finally surfaces.
class NonFiniteError : public std::runtime_error {
 public:
  NonFiniteError(std::string layer, const std::string& what)
      : std::runtime_error(what), layer_(std::move(layer)) {}
  const std::string& layer() const noexcept { return layer_; }

 private:
  std::string layer_;
};

/// Scans a layer output for NaN/Inf in checked builds and throws
/// NonFiniteError naming the layer. Constructed as the last statement of
/// every infer_into/forward implementation:
///
///   FiniteCheckGuard{*this, out};
///
/// A pure observer: it reads the tensor and never alters a value, so the
/// bitwise output pins hold with the guard active. In release builds the
/// constructor is an empty inline — the scan (and the name() call) compiles
/// out entirely.
class FiniteCheckGuard {
 public:
  FiniteCheckGuard(const Module& layer, const Tensor& out) {
#if DCSR_FINITE_CHECK
    verify(layer, out);
#else
    (void)layer;
    (void)out;
#endif
  }

  /// The scan itself (always compiled, for tests and explicit call sites):
  /// throws NonFiniteError on the first non-finite element.
  static void verify(const Module& layer, const Tensor& out);
};

/// A learnable parameter: value plus accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  std::size_t count() const noexcept { return value.size(); }
};

/// Base class for all layers.
///
/// Training uses explicit reverse-mode differentiation: forward() caches
/// whatever the layer needs, backward() consumes dL/d(output) and returns
/// dL/d(input) while accumulating dL/d(param) into each Param::grad. There is
/// no tape/graph machinery — the model topologies in this project (EDSR and a
/// small VAE) are static, and explicit backward keeps every gradient path
/// auditable and unit-testable against finite differences.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Stateless inference, the one virtual inference path: computes the same
  /// function as forward() — bit-identically — but writes the result into
  /// `out` (reshaped in place) and draws every piece of scratch from `ws`.
  /// No layer caches, no train/eval state, no member mutation of any kind,
  /// so one model instance can serve concurrent calls from many threads (the
  /// client pipeline's segment-level parallelism depends on this), and a
  /// warm workspace makes the call allocation-free. `ws` must be the calling
  /// thread's workspace (see Workspace ownership rules in
  /// tensor/workspace.hpp). backward() after inference is a logic error:
  /// nothing was cached.
  virtual void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const = 0;

  /// Allocating spelling of infer_into: a fresh output tensor, scratch from
  /// this thread's workspace. Not virtual — a layer defines inference once.
  Tensor infer(const Tensor& x) const;

  /// Shape of the output this layer produces for an input of shape `in`,
  /// without running it. Containers use it to size workspace checkouts with
  /// the true shapes (sizing with placeholders would mis-count hits and
  /// misses). Default: shape-preserving, which covers activations and
  /// residual blocks. Shapes are inline values (tensor/shape.hpp), so
  /// chaining out_shape calls per frame costs no heap allocation — required
  /// for infer_into to run under a DCSR_ALLOC_CHECK hot-path guard.
  virtual Shape out_shape(const Shape& in) const { return in; }

  /// Learnable parameters; default none.
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Train/eval switch. In eval mode layers may skip caching activations
  /// that only backward() needs (e.g. Conv2d's im2col column matrices, which
  /// dwarf the input itself by a factor of k*k). Containers override this to
  /// propagate to their children. Default is training.
  virtual void set_training(bool training) { training_ = training; }
  bool training() const noexcept { return training_; }

  /// Clears accumulated gradients on all parameters.
  void zero_grad();

  /// Total number of learnable scalars.
  std::size_t param_count();

 private:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

/// RAII train/eval switch: sets the module's mode on construction and
/// restores the mode it found on destruction — including when the scope
/// unwinds through an exception mid-loop, which a manual save/set/restore
/// sequence silently gets wrong.
class TrainingModeGuard {
 public:
  TrainingModeGuard(Module& m, bool training)
      : module_(m), saved_(m.training()) {
    module_.set_training(training);
  }
  ~TrainingModeGuard() { module_.set_training(saved_); }
  TrainingModeGuard(const TrainingModeGuard&) = delete;
  TrainingModeGuard& operator=(const TrainingModeGuard&) = delete;

 private:
  Module& module_;
  bool saved_;
};

}  // namespace dcsr::nn
