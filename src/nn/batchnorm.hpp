// Batch normalisation (Ioffe & Szegedy [10]) over NCHW or NC inputs.
//
// Training uses batch statistics and maintains running estimates for
// evaluation. γ/β are learnable Parameters (and therefore participate in
// APT's per-layer precision adaptation like any other learnable tensor).
//
// The layer has one implementation, the sharded one; `forward`/`backward`
// are its one-shard case. A training forward is a two-pass reduction:
// every shard first publishes its per-channel sum / sum-of-squares
// (backward: ∂γ/∂β partial sums), the coordinator reduces them in shard
// order to the whole-batch statistics, and a second parallel pass
// normalises (backward: forms dx) against the merged values. Statistics
// therefore always describe the full minibatch — never a shard — and the
// shard-ordered reduction keeps results bit-identical for any worker
// count. An evaluation forward normalises against the running estimates
// and writes no cache.
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "nn/shard.hpp"

namespace apt::nn {

class BatchNorm : public Layer {
 public:
  BatchNorm(std::string name, int64_t channels, double momentum = 0.9,
            double eps = 1e-5);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override;
  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  int64_t channels() const { return channels_; }
  /// Variance floor used in 1/sqrt(var + eps) — a freeze (serve) pass
  /// folding the eval-mode affine needs the exact same epsilon.
  double eps() const { return eps_; }
  /// Test hook: overwrite running statistics.
  void set_running_stats(const Tensor& mean, const Tensor& var);
  /// Whole-batch statistics of the last training forward. Exposed for the
  /// sharded-statistics tests.
  const Tensor& batch_mean() const { return batch_mean_; }
  const Tensor& batch_inv_std() const { return batch_inv_std_; }

 private:
  std::string name_;
  int64_t channels_;
  double momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  // Saved by forward(training=true) for backward: x̂ per shard, and the
  // batch statistics as whole-batch values shared by all shards (written
  // only at serial points).
  PerShard<Tensor> x_hat_;
  Tensor batch_mean_, batch_inv_std_;

  // Two-pass reduction scratch: per-shard [2*C] doubles (sum/sumsq in
  // forward, dgamma/dbeta in backward) plus each shard's element count.
  PerShard<std::vector<double>> stat_sums_;
  PerShard<std::vector<double>> grad_sums_;
  PerShard<int64_t> shard_m_;
};

}  // namespace apt::nn
