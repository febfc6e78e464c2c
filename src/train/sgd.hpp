// SGD with momentum and weight decay, representation-aware.
//
// The optimiser composes the step δ = lr · v in float (velocity and decay
// are training *tricks* the paper explicitly keeps outside the metric and
// the grid), then hands δ to the parameter's Representation, which decides
// how it lands on storage — Eq. 3 grid truncation for APT parameters,
// plain subtraction for fp32, master-copy update for baselines.
#pragma once

#include <functional>
#include <vector>

#include "nn/parameter.hpp"

namespace apt::train {

struct SgdConfig {
  double momentum = 0.9;
  double weight_decay = 1e-4;
};

/// Optional per-parameter gradient transform applied before the velocity
/// update (e.g. TernGrad's ternary gradient quantisation).
using GradTransform = std::function<void(const nn::Parameter&, Tensor& grad)>;

class Sgd {
 public:
  Sgd(std::vector<nn::Parameter*> params, const SgdConfig& cfg,
      GradTransform grad_transform = nullptr);

  void zero_grad();

  /// One optimisation step at learning rate `lr`. Returns aggregate update
  /// statistics (underflow/clamp counters from quantised representations).
  quant::UpdateStats step(double lr);

  const std::vector<nn::Parameter*>& params() const { return params_; }

 private:
  std::vector<nn::Parameter*> params_;
  SgdConfig cfg_;
  GradTransform grad_transform_;
  std::vector<Tensor> velocity_;
  // Per-parameter scratch reused across steps (grad working copy and the
  // composed step δ): steady-state steps allocate nothing.
  std::vector<Tensor> grad_scratch_;
  std::vector<Tensor> step_scratch_;
};

}  // namespace apt::train
