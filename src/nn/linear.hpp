// Fully connected layer: y = x W^T + b.
//
// The quantised-layer state machine (range tracking, int8 eligibility,
// code passing, input-code caching, stochastically rounded dY) lives in
// GemmLayer (gemm_layer.hpp); this file supplies the GEMMs:
//
//   forward:  y  = Xq · Wqᵀ      (kS8 plan, fused bias epilogue; output
//                                 channels are C's columns; written once
//                                 in linear_s8_forward, which
//                                 CompiledModel's serving linear runs too)
//   backward: dX = dYq · Wq      (kS8GradDx plan)
//             dW = dYqᵀ · Xq     (kS8GradDw plan, accumulated into the
//                                 sink)
//
// and their fp32 counterparts on the dequantised weight view.
#pragma once

#include "base/rng.hpp"
#include "nn/gemm_layer.hpp"

namespace apt::nn {

class Linear : public GemmLayer {
 public:
  /// weight: [out_features, in_features]; bias: [out_features].
  Linear(std::string name, int64_t in_features, int64_t out_features,
         Rng& rng, bool bias = true);

  int64_t macs_per_sample() const override { return in_ * out_; }
  int64_t out_elems_per_sample() const override { return out_; }

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }

 private:
  void check_input(const Shape& in_shape) override;
  Tensor forward_fp32(const Tensor& x) override;
  Tensor forward_int8(const uint8_t* x, const quant::QuantParams& xq,
                      const Shape& x_shape, QuantizedActivation* qy,
                      std::pair<float, float>* observed) override;
  Tensor backward_fp32(const Tensor& x, const Tensor& dy) override;
  Tensor backward_int8(const QuantizedActivation& x, const uint8_t* dy,
                       const quant::QuantParams& gq,
                       const Shape& dy_shape) override;
  void backward_bias(const Tensor& dy) override;

  int64_t in_, out_;
};

/// The plan key of a linear layer's int8 forward over a batch of `m`
/// (stamped with the current pool width).
PlanKey linear_s8_plan_key(int64_t m, int64_t in_features,
                           int64_t out_features, int32_t w_max);

/// The int8 forward of one linear layer call: y = Xq · Wqᵀ as one
/// fused-epilogue GEMM (activations as A, weights as B, output channels
/// along C's columns) under `plan`, plan_for(linear_s8_plan_key(...)) or
/// a copy of it. The exact output range goes to *lo / *hi when they are
/// non-null.
void linear_s8_forward(const KernelPlan& plan, const S8ForwardArgs& args,
                       float* lo = nullptr, float* hi = nullptr);

}  // namespace apt::nn
