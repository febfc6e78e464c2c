#include "train/sharded_step.hpp"

#include <algorithm>
#include <cstring>

#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "nn/shard.hpp"

namespace apt::train {

namespace {
int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }
}  // namespace

ShardedStep::ShardedStep(nn::Layer& model, const ShardedStepConfig& cfg)
    : model_(model), cfg_(cfg), params_(model.parameters()) {
  APT_CHECK(cfg_.shard_grain >= 1)
      << "shard_grain must be >= 1, got " << cfg_.shard_grain;
  APT_CHECK(cfg_.num_workers >= 0)
      << "num_workers must be >= 0, got " << cfg_.num_workers;
}

int64_t ShardedStep::shards_for(int64_t batch_size) const {
  if (batch_size <= 0) return 0;
  // Grain rises (never falls) so the count fits kMaxShards: still a pure
  // function of (batch_size, shard_grain).
  const int64_t grain = std::max(
      cfg_.shard_grain, ceil_div(batch_size, nn::kMaxShards));
  return ceil_div(batch_size, grain);
}

void ShardedStep::prepare_sinks(int64_t shards) {
  for (nn::Parameter* p : params_) {
    if (static_cast<int64_t>(p->shard_grads.size()) < shards) {
      p->shard_grads.reserve(static_cast<size_t>(shards));
      while (static_cast<int64_t>(p->shard_grads.size()) < shards)
        p->shard_grads.emplace_back(p->grad.shape());  // zero-initialised
    }
  }
}

void ShardedStep::reduce_grads(int64_t shards) {
  for (nn::Parameter* p : params_) {
    float* grad = p->grad.data();
    const int64_t numel = p->numel();
    // Element-wise sums over the shard buffers in shard order, draining
    // each sink in the same pass (so a following run() accumulates
    // afresh, matching plain backward's "accumulate into grad"
    // semantics, without a second sweep over every buffer). Chunking
    // across elements cannot change any element's summation order, so
    // this is deterministic for any pool size.
    auto reduce_range = [&](int64_t e0, int64_t e1) {
      for (int64_t s = 0; s < shards; ++s) {
        float* sg = p->shard_grads[static_cast<size_t>(s)].data();
        for (int64_t e = e0; e < e1; ++e) {
          grad[e] += sg[e];
          sg[e] = 0.0f;
        }
      }
    };
    // Small parameters (the common case: conv filters, biases) skip the
    // pool dispatch entirely — one queue round-trip per parameter per
    // step costs more than the reduction itself.
    if (numel < (1 << 12)) {
      reduce_range(0, numel);
    } else {
      ThreadPool::global().parallel_for(0, numel, reduce_range, 1 << 12);
    }
  }
}

ShardedStep::Result ShardedStep::run(
    const data::Batch& batch, const std::function<void()>& after_forward) {
  const int64_t n = batch.size();
  APT_CHECK(n > 0) << "empty batch";
  const int64_t shards = shards_for(n);
  const int64_t grain = ceil_div(n, shards);
  const int workers = cfg_.num_workers == 0
                          ? static_cast<int>(ThreadPool::global().size()) + 1
                          : cfg_.num_workers;

  // Advance the stochastic-rounding step counter exactly once per step,
  // here on the coordinator before any shard task exists: every gradient
  // quantiser in this step then keys its counter stream off the same
  // value, regardless of worker count or shard decomposition. The grain
  // is published through the session so layers can recover each shard's
  // batch-global sample offset (s * grain) for element indexing.
  sr_advance_step();
  nn::ShardSession session(static_cast<int>(shards), workers, grain);
  if (shards > 1) prepare_sinks(shards);

  // Slice the batch into contiguous shards. Boundaries depend only on
  // (n, grain); the last shard absorbs the remainder. The single-shard
  // path shares the batch storage outright (Tensor copies are shallow)
  // — no copy on the legacy-equivalent path.
  std::vector<Tensor> xs(static_cast<size_t>(shards));
  std::vector<std::vector<int32_t>> label_slices(
      shards > 1 ? static_cast<size_t>(shards) : 0);
  std::vector<const std::vector<int32_t>*> labels(
      static_cast<size_t>(shards));
  if (shards == 1) {
    xs[0] = batch.inputs;
    labels[0] = &batch.labels;
  } else {
    const int64_t row = batch.inputs.numel() / n;
    std::vector<int64_t> dims = batch.inputs.shape().dims();
    for (int64_t s = 0; s < shards; ++s) {
      const int64_t b = s * grain;
      const int64_t e = std::min(n, b + grain);
      dims[0] = e - b;
      Tensor x = Tensor::uninitialized(Shape(dims));
      std::memcpy(x.data(), batch.inputs.data() + b * row,
                  sizeof(float) * static_cast<size_t>((e - b) * row));
      xs[static_cast<size_t>(s)] = std::move(x);
      label_slices[static_cast<size_t>(s)].assign(batch.labels.begin() + b,
                                                  batch.labels.begin() + e);
      labels[static_cast<size_t>(s)] = &label_slices[static_cast<size_t>(s)];
    }
  }

  const std::vector<Tensor> logits = model_.forward_sharded(xs, true);
  if (after_forward) after_forward();

  // Per-shard loss objects: forward caches softmax state, so shards must
  // not share one. The backward gradient is rescaled from the shard mean
  // to the batch mean (n_s / n) so the reduced gradients equal the
  // whole-batch mean-loss gradient.
  if (losses_.size() < static_cast<size_t>(shards))
    losses_.resize(static_cast<size_t>(shards));
  std::vector<double> shard_loss(static_cast<size_t>(shards), 0.0);
  std::vector<int64_t> shard_hits(static_cast<size_t>(shards), 0);
  std::vector<Tensor> dys(static_cast<size_t>(shards));
  nn::shard_parallel(static_cast<int>(shards), [&](int s) {
    const auto su = static_cast<size_t>(s);
    const std::vector<int32_t>& shard_labels = *labels[su];
    shard_loss[su] = losses_[su].forward(logits[su], shard_labels);
    Tensor dy = losses_[su].backward();
    const auto w =
        static_cast<float>(shard_labels.size()) / static_cast<float>(n);
    if (w != 1.0f) dy.scale(w);
    dys[su] = std::move(dy);
    const auto& preds = losses_[su].predictions();
    int64_t hits = 0;
    for (size_t i = 0; i < shard_labels.size(); ++i)
      if (preds[i] == shard_labels[i]) ++hits;
    shard_hits[su] = hits;
  });

  model_.backward_sharded(dys);
  if (shards > 1) reduce_grads(shards);

  Result r;
  for (int64_t s = 0; s < shards; ++s) {
    const auto su = static_cast<size_t>(s);
    r.mean_loss += shard_loss[su] *
                   (static_cast<double>(labels[su]->size()) /
                    static_cast<double>(n));
    r.hits += shard_hits[su];
  }
  return r;
}

}  // namespace apt::train
