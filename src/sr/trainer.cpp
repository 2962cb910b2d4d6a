#include "sr/trainer.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "image/metrics.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::sr {

namespace {

// Maps patch coordinates through one of the 8 dihedral transforms (identity,
// three rotations, and their mirrored versions). `size` is the patch edge.
void dihedral_map(int op, int size, int x, int y, int& ox, int& oy) noexcept {
  const int m = size - 1;
  switch (op & 3) {
    case 0: ox = x; oy = y; break;
    case 1: ox = m - y; oy = x; break;      // rot90
    case 2: ox = m - x; oy = m - y; break;  // rot180
    default: ox = y; oy = m - x; break;     // rot270
  }
  if (op & 4) ox = m - ox;  // horizontal mirror
}

// Copies the size x size patch of `src` at (x0, y0) into item b of the NCHW
// tensor `dst`, through dihedral transform `op`.
void fill_patch(const FrameRGB& src, int x0, int y0, int size, int op,
                Tensor& dst, int b) {
  const Plane* planes[3] = {&src.r, &src.g, &src.b};
  int ox = 0, oy = 0;
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < size; ++y)
      for (int x = 0; x < size; ++x) {
        dihedral_map(op, size, x, y, ox, oy);
        dst.at(b, c, oy, ox) = planes[c]->at(x0 + x, y0 + y);
      }
}

void validate(const std::vector<TrainJob>& jobs, const TrainOptions& opts) {
  if (opts.iterations < 0)
    throw std::invalid_argument("train_sr_models: iterations must be >= 0");
  if (opts.batch_size < 1)
    throw std::invalid_argument("train_sr_models: batch_size must be >= 1");
  if (opts.patch_size < 1)
    throw std::invalid_argument("train_sr_models: patch_size must be >= 1");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const TrainJob& job = jobs[j];
    if (!job.model || !job.samples || !job.rng)
      throw std::invalid_argument("train_sr_models: job needs model, samples and rng");
    // A shared Rng would make each job's patches depend on whether the jobs
    // train in lockstep, and so on the thread count.
    for (std::size_t i = 0; i < j; ++i)
      if (jobs[i].model == job.model || jobs[i].rng == job.rng)
        throw std::invalid_argument("train_sr_models: jobs share a model or an rng");
    if (job.samples->empty()) throw std::invalid_argument("train_sr_models: no samples");
    const int scale = job.model->config().scale;
    for (const auto& s : *job.samples) {
      if (s.hi.width() != s.lo.width() * scale || s.hi.height() != s.lo.height() * scale)
        throw std::invalid_argument("train_sr_models: lo/hi size mismatch for scale");
      if (s.lo.width() < opts.patch_size || s.lo.height() < opts.patch_size)
        throw std::invalid_argument("train_sr_models: frame smaller than patch");
    }
  }
}

// One job's model, optimiser and batch targets.
struct JobState {
  std::vector<nn::Param*> params;
  std::unique_ptr<nn::Adam> opt;  // not movable
  Tensor hi;    // batch x 3 x hp x hp targets
  Tensor pred;  // the replicas' outputs, gathered for the batch loss
  TrainStats stats;
};

// One (job, batch item) pair: a batch-1 replica of the job's model and the
// tensors its forward and backward read and write. A pool task owns the
// slots of its pairs.
struct ItemSlot {
  std::unique_ptr<Edsr> replica;
  std::vector<nn::Param*> params;  // in the same order as JobState::params
  Tensor lo;    // 1 x 3 x patch x patch input
  Tensor pred;  // forward output
  Tensor grad;  // this item's slice of the loss gradient
};

// Trains n jobs in lockstep: each step samples every job's batch, then runs
// forward and backward over all (job, item) pairs on the pool, with the loss,
// the gradient reduction and Adam serial in between.
std::vector<TrainStats> train_lockstep(const TrainJob* jobs, std::size_t n,
                                       const TrainOptions& opts) {
  const int batch = opts.batch_size;
  const int patch = opts.patch_size;

  std::vector<JobState> state;
  state.reserve(n);
  std::vector<ItemSlot> slots(n * static_cast<std::size_t>(batch));
  const auto items_of = [&](std::size_t j) {
    return slots.data() + j * static_cast<std::size_t>(batch);
  };
  // Replica weights are overwritten with the job's weights before every
  // forward; this Rng only satisfies the constructor.
  Rng replica_init(0);
  for (std::size_t j = 0; j < n; ++j) {
    Edsr& model = *jobs[j].model;
    const int hp = patch * model.config().scale;
    state.push_back({model.params(), std::make_unique<nn::Adam>(model.params(), opts.lr),
                     Tensor({batch, 3, hp, hp}), Tensor({batch, 3, hp, hp}), {}});
    TrainStats& stats = state.back().stats;
    stats.loss_curve.reserve(static_cast<std::size_t>(opts.iterations));
    stats.train_flops = 3 * model.flops(patch, patch) *
                        static_cast<std::uint64_t>(batch) *
                        static_cast<std::uint64_t>(opts.iterations);
    for (int b = 0; b < batch; ++b) {
      ItemSlot& slot = items_of(j)[b];
      slot.replica = std::make_unique<Edsr>(model.config(), replica_init);
      slot.params = slot.replica->params();
      slot.lo = Tensor({1, 3, patch, patch});
      slot.grad = Tensor({1, 3, hp, hp});
    }
  }

  // Each task's claim is its own item slots.
  const auto claim = [&](std::int64_t lo, std::int64_t hi) {
    return span_of(slots.data() + lo, static_cast<std::size_t>(hi - lo));
  };
  const auto units = static_cast<std::int64_t>(slots.size());
  for (int it = 0; it < opts.iterations; ++it) {
    for (std::size_t j = 0; j < n; ++j) {
      JobState& st = state[j];
      if (opts.lr_decay) {
        const double frac = static_cast<double>(it) / opts.iterations;
        st.opt->set_lr(opts.lr * (frac < 0.6 ? 1.0 : (frac < 0.85 ? 0.3 : 0.09)));
      }
      const std::vector<TrainSample>& samples = *jobs[j].samples;
      Rng& rng = *jobs[j].rng;
      const int scale = jobs[j].model->config().scale;
      for (int b = 0; b < batch; ++b) {
        const auto& s = samples[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(samples.size()) - 1))];
        const int x0 = static_cast<int>(rng.uniform_int(0, s.lo.width() - patch));
        const int y0 = static_cast<int>(rng.uniform_int(0, s.lo.height() - patch));
        const int op = opts.augment ? static_cast<int>(rng.uniform_int(0, 7)) : 0;
        fill_patch(s.lo, x0, y0, patch, op, items_of(j)[b].lo, 0);
        fill_patch(s.hi, x0 * scale, y0 * scale, patch * scale, op, st.hi, b);
      }
    }

    parallel_for_writes(0, units, 1, claim, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t u = lo; u < hi; ++u) {
        ItemSlot& slot = slots[static_cast<std::size_t>(u)];
        const JobState& st = state[static_cast<std::size_t>(u / batch)];
        for (std::size_t i = 0; i < slot.params.size(); ++i)
          slot.params[i]->value = st.params[i]->value;
        slot.pred = slot.replica->forward(slot.lo);
      }
    }, "sr/trainer.cpp:train_lockstep(forward)");

    for (std::size_t j = 0; j < n; ++j) {
      JobState& st = state[j];
      ItemSlot* items = items_of(j);
      for (int b = 0; b < batch; ++b)
        std::copy(items[b].pred.span().begin(), items[b].pred.span().end(),
                  st.pred.slice(b).begin());
      const nn::LossResult loss =
          opts.use_l1 ? nn::l1_loss(st.pred, st.hi) : nn::mse_loss(st.pred, st.hi);
      for (int b = 0; b < batch; ++b) {
        const auto g = loss.grad.slice(b);
        std::copy(g.begin(), g.end(), items[b].grad.data());
      }
      st.stats.loss_curve.push_back(loss.value);
    }

    parallel_for_writes(0, units, 1, claim, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t u = lo; u < hi; ++u) {
        ItemSlot& slot = slots[static_cast<std::size_t>(u)];
        slot.replica->zero_grad();
        slot.replica->backward(slot.grad);
      }
    }, "sr/trainer.cpp:train_lockstep(backward)");

    // Item-order reduction into the zeroed model grads (see trainer.hpp).
    for (std::size_t j = 0; j < n; ++j) {
      JobState& st = state[j];
      const ItemSlot* items = items_of(j);
      for (nn::Param* p : st.params) p->grad.zero();
      for (int b = 0; b < batch; ++b)
        for (std::size_t i = 0; i < st.params.size(); ++i)
          st.params[i]->grad.add_(items[b].params[i]->grad);
      st.opt->step();
    }
  }

  std::vector<TrainStats> out;
  out.reserve(n);
  for (JobState& st : state) {
    const auto& curve = st.stats.loss_curve;
    const auto tail_n = std::min<std::size_t>(10, curve.size());
    double acc = 0.0;
    for (std::size_t i = curve.size() - tail_n; i < curve.size(); ++i) acc += curve[i];
    st.stats.final_loss = tail_n ? acc / static_cast<double>(tail_n) : 0.0;
    out.push_back(std::move(st.stats));
  }
  return out;
}

}  // namespace

std::vector<TrainStats> train_sr_models(const std::vector<TrainJob>& jobs,
                                        const TrainOptions& opts) {
  validate(jobs, opts);
  // With more than one pool thread every job advances in lockstep: that
  // fills the pool when batch_size is below the thread count, with the
  // fewest barriers per step. On one thread nothing fans out, so the jobs
  // train one after another, keeping one job's replicas in cache: lockstep
  // there ran up to a fifth slower. Jobs are independent, so the grouping
  // changes no float.
  const std::size_t group = default_pool().threads() > 1 ? jobs.size() : 1;
  std::vector<TrainStats> out;
  out.reserve(jobs.size());
  for (std::size_t j0 = 0; j0 < jobs.size(); j0 += group)
    for (TrainStats& stats :
         train_lockstep(jobs.data() + j0, std::min(group, jobs.size() - j0), opts))
      out.push_back(std::move(stats));
  return out;
}

TrainStats train_sr_model(Edsr& model, const std::vector<TrainSample>& samples,
                          const TrainOptions& opts, Rng& rng) {
  return std::move(train_sr_models({{&model, &samples, &rng}}, opts).front());
}

double evaluate_psnr(const Edsr& model, const std::vector<TrainSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("evaluate_psnr: no samples");
  double acc = 0.0;
  FrameRGB out;
  for (const auto& s : samples) {
    model.enhance_into(s.lo, out);
    acc += psnr(out, s.hi);
  }
  return acc / static_cast<double>(samples.size());
}

double evaluate_ssim(const Edsr& model, const std::vector<TrainSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("evaluate_ssim: no samples");
  double acc = 0.0;
  FrameRGB out;
  for (const auto& s : samples) {
    model.enhance_into(s.lo, out);
    acc += ssim(out, s.hi);
  }
  return acc / static_cast<double>(samples.size());
}

}  // namespace dcsr::sr
