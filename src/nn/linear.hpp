// Fully connected layer: y = x W^T + b.
//
// Forward has two paths. The fp32 reference path multiplies the
// dequantised weight view. When the int8 backend is selected
// (PlanOptions::backend = GemmBackend::kInt8, plan.hpp) and the weight's
// representation stores <= 8-bit codes, the forward instead quantises
// activations onto an EMA-tracked 8-bit grid and runs the integer GEMM
// (gemm_s8_ex) directly on the code planes.
//
// Backward mirrors that split (DESIGN.md §14): with the int8 backend,
// <= 8-bit weight codes, an initialised gradient range tracker, and the
// forward's input codes cached, the upstream gradient dY is quantised to
// u8 with *stochastic rounding* on a counter-based Philox stream (keyed
// by step / layer / batch-global element index, so the codes — and
// therefore dX and dW — are bit-identical for any worker count or shard
// decomposition), and both gradient GEMMs run on code planes:
//
//   dX = dYq · Wq        (kS8GradDx plan)
//   dW = dYqᵀ · Xq       (kS8GradDw plan, accumulated into the sink)
//
// The bias gradient always reduces the raw fp32 dY. The first backward
// of a run (gradient tracker uninitialised) and any backward without
// cached input codes fall back to the fp32 path while the dY range is
// observed; the gradient grid deliberately lags one step so per-shard
// backwards need no serial point before their GEMMs.
#pragma once

#include <utility>

#include "base/rng.hpp"
#include "nn/layer.hpp"
#include "nn/shard.hpp"
#include "quant/fake_quant.hpp"

namespace apt::nn {

class Linear : public Layer {
 public:
  /// weight: [out_features, in_features]; bias: [out_features].
  Linear(std::string name, int64_t in_features, int64_t out_features,
         Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Default per-shard pass, then one merged activation-range observation
  /// (min/max over the shards' extrema, reduced in shard order).
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override;
  /// Default per-shard backward, then one merged gradient-range
  /// observation (same shard-ordered idiom as forward_sharded).
  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override;
  /// Code-flow entry points (DESIGN.md §11): consumes a
  /// QuantizedActivation input directly and, when asked, emits output
  /// codes through the fused requantising GEMM epilogue (bias folded
  /// in, per-column channels).
  bool accepts_codes() const override;
  Tensor forward_flow(const Tensor& x, const QuantizedActivation* qx,
                      bool training, bool want_codes,
                      QuantizedActivation* qy) override;
  std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  int64_t macs_per_sample() const override { return in_ * out_; }
  int64_t out_elems_per_sample() const override { return out_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  bool has_bias() const { return has_bias_; }

  /// EMA range of the layer's input, feeding the activation quantiser.
  const quant::RangeTracker& activation_range() const { return act_range_; }
  /// EMA range of the pre-requantisation output (epilogue-observed);
  /// chooses the grid the layer emits codes on.
  const quant::RangeTracker& output_range() const { return out_range_; }
  /// EMA range of the upstream gradient dY, feeding the stochastic-
  /// rounding gradient quantiser (uninitialised until the first
  /// backward; the int8 backward engages from the second step).
  const quant::RangeTracker& gradient_range() const { return grad_range_; }
  /// True when the calling shard's last backward ran the integer
  /// gradient GEMMs rather than the fp32 fallback.
  bool last_backward_was_int8() const { return telem_.cur().int8_bwd; }
  /// Int8-path telemetry for the calling shard's last forward (per-shard
  /// slots: the stores never race under forward_sharded).
  bool last_forward_was_int8() const { return telem_.cur().int8_path; }
  bool last_forward_consumed_codes() const { return telem_.cur().consumed; }
  bool last_forward_emitted_codes() const { return telem_.cur().emitted; }
  bool last_forward_was_int8(int shard) const {
    return telem_.at(shard).int8_path;
  }
  bool last_forward_consumed_codes(int shard) const {
    return telem_.at(shard).consumed;
  }
  bool last_forward_emitted_codes(int shard) const {
    return telem_.at(shard).emitted;
  }
  /// True when the last int8 forward resolved its kernel plan from the
  /// process-wide cache (i.e. performed zero cost-model evaluations).
  bool last_forward_plan_cached() const { return telem_.cur().plan_hit; }

 private:
  Tensor forward_int8(const Tensor& x, const QuantizedActivation* qx,
                      bool training, bool emit, QuantizedActivation* qy);
  Tensor backward_int8(const Tensor& grad_out);

  struct Telemetry {
    bool int8_path = false;
    bool consumed = false;
    bool emitted = false;
    bool plan_hit = false;  // kernel plan came from the cache
    bool int8_bwd = false;  // backward ran the integer gradient GEMMs
  };

  // Forward's activation codes kept for the dW gradient GEMM (only the
  // quantise-on-entry path needs this buffer; a consumed-codes input is
  // already cached in input_qa_). n == 0 marks "no codes this pass".
  struct InputCodes {
    std::vector<uint8_t> buf;  // reused quantise buffer
    quant::QuantParams params;
    int64_t n = 0;
  };

  std::string name_;
  int64_t in_, out_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  PerShard<Tensor> input_;  // cached for backward, one slot per shard
  quant::RangeTracker act_range_;
  quant::RangeTracker out_range_;
  // Raw per-shard [min, max] of the input / epilogue-observed output,
  // merged into the trackers at the layer boundary (a serial point) by
  // forward_flow_sharded. NaN marks "nothing observed this pass".
  PerShard<std::pair<float, float>> shard_range_;
  PerShard<std::pair<float, float>> shard_out_range_;
  // Consumed-codes cache for backward (dequantised on demand); the fp32
  // input_ slot is reset while this one is live.
  PerShard<QuantizedActivation> input_qa_;
  // Gradient-range tracking for the stochastic-rounding dY quantiser,
  // same per-shard/merge idiom as the activation trackers above.
  quant::RangeTracker grad_range_;
  PerShard<std::pair<float, float>> shard_grad_range_;
  PerShard<InputCodes> input_codes_;
  PerShard<std::vector<uint8_t>> grad_codes_;  // reused dY code buffers
  PerShard<Telemetry> telem_;
};

}  // namespace apt::nn
