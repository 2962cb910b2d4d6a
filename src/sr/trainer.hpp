#pragma once

#include <vector>

#include "image/frame.hpp"
#include "sr/edsr.hpp"
#include "util/rng.hpp"

namespace dcsr::sr {

/// One training pair: the degraded frame the client will actually see
/// (decoded at the streaming CRF) and its pristine original. For scale > 1
/// the lo frame is additionally 1/scale the size of hi.
struct TrainSample {
  FrameRGB lo;
  FrameRGB hi;
};

struct TrainOptions {
  int iterations = 200;
  int patch_size = 32;   // lo-res patch edge; hi patch is patch_size * scale
  int batch_size = 4;
  double lr = 2e-3;
  bool use_l1 = false;   // EDSR's paper prefers L1; MSE matches dcSR's Fig. 11

  /// Step decay: lr x0.3 at 60% and 85% of the iteration budget (the usual
  /// EDSR-style staircase, rescaled to micro budgets). Off by default: at
  /// micro iteration budgets the loss is still descending when the decay
  /// would kick in, so flat lr trains further.
  bool lr_decay = false;

  /// Dihedral-group patch augmentation (flips + 90-degree rotations, applied
  /// consistently to lo and hi), the standard SR trick. Off by default:
  /// dcSR *wants* to overfit its exact frames (§A.1), and augmentation
  /// trades memorisation for generalisation — exposed for the ablation.
  bool augment = false;
};

struct TrainStats {
  std::vector<double> loss_curve;  // per-iteration minibatch loss
  double final_loss = 0.0;         // mean of the last 10 iterations
  std::uint64_t train_flops = 0;   // total forward+backward FLOPs spent
};

/// One model's share of a lockstep training run: the model to train, the
/// pairs it trains on, and the Rng its patches are sampled from.
struct TrainJob {
  Edsr* model = nullptr;
  const std::vector<TrainSample>* samples = nullptr;
  Rng* rng = nullptr;
};

/// Trains every job's model for `opts.iterations` steps. This is the
/// micro-model training loop of §3.1.3 — one job per cluster — and the same
/// code trains the big NAS/NEMO baseline models, just with more data and a
/// larger config. Returns one TrainStats per job.
///
/// Every job and option is validated before step 0, so a bad input throws
/// std::invalid_argument without leaving any model half-trained.
///
/// With more than one pool thread all jobs advance in lockstep; on one
/// thread they train one after another. Each step samples every job's batch
/// serially, in job order, from that job's own Rng. Forward and backward
/// then fan out over all (job, batch item) pairs: each pair runs a batch-1
/// replica of its job's model, with the job's current weights copied in.
/// The loss over each job's whole batch, the gradient reduction and Adam
/// run serially. Jobs share nothing, so the order changes no float.
///
/// Why the floats equal one model trained on the whole batch: every per-item
/// op of Conv2d::forward/backward is already independent of the other items
/// (one im2col and GEMM per item), and the other layers are elementwise. A
/// batched Conv2d::backward reduces its per-item weight and bias partials
/// into the zeroed Param::grad in item order. Here each replica's zeroed
/// grad receives its one item's partial, and the replica grads are added
/// into the zeroed model grad in item order: the same additions in the same
/// order. (A replica grad turns a -0 partial into +0, which changes no sum:
/// an accumulator that starts at +0 never holds -0.) So the weights are
/// bit-identical to the batched loop's, and hence to any thread count.
std::vector<TrainStats> train_sr_models(const std::vector<TrainJob>& jobs,
                                        const TrainOptions& opts);

/// train_sr_models with a single job.
TrainStats train_sr_model(Edsr& model, const std::vector<TrainSample>& samples,
                          const TrainOptions& opts, Rng& rng);

/// Mean PSNR (dB) of model(lo) against hi over the given samples — the
/// "how well does the model enhance its own training I frames" measure used
/// both for evaluation and the minimum-working-model search.
double evaluate_psnr(const Edsr& model, const std::vector<TrainSample>& samples);

/// Mean SSIM over the samples.
double evaluate_ssim(const Edsr& model, const std::vector<TrainSample>& samples);

}  // namespace dcsr::sr
