// The quantised-layer core shared by Conv2d and Linear: every layer whose
// work is a weight GEMM runs the same state machine around it, written
// once here.
//
// Forward. The input range is tracked (ShardedRange: direct EMA outside
// a shard session, per-shard extrema merged in shard order at the layer
// boundary inside one). When the int8 backend is selected
// (PlanOptions::backend = GemmBackend::kInt8, plan.hpp) and the weight's
// representation stores <= 8-bit codes, the layer runs the integer GEMM
// on code planes: the input arrives as codes (the code-passing dataflow,
// DESIGN.md §11 — the incoming grid replaces the tracked one) or is
// quantised on entry onto the tracked 8-bit grid. When asked, and once
// the output tracker has warmed up, the fused requantising epilogue
// emits the output as codes on the EMA of the exact pre-requant range
// the epilogue observes. Otherwise the fp32 reference path multiplies
// the dequantised weight view.
//
// Caches. A training forward keeps what backward reads, one slot per
// shard: the fp32 input (or nothing, when it arrived as codes) and the
// input codes the int8 forward consumed. A non-training forward touches
// neither — it quantises into arena scratch — so an evaluation pass
// between a training forward and its backward cannot change the
// gradient.
//
// Backward (DESIGN.md §14). With the int8 backend, <= 8-bit weight
// codes, an initialised gradient range and the forward's input codes
// cached, dY is quantised to u8 with stochastic rounding on a
// counter-based Philox stream (keyed by step / layer / batch-global
// element index, so the codes — and therefore dX and dW — are
// bit-identical for any worker count or shard decomposition) and both
// gradient GEMMs run on code planes. The first backward of a run falls
// back to fp32 while the dY range is observed; the gradient grid lags
// one step, so per-shard backwards need no serial point before their
// GEMMs. The bias gradient always reduces the raw fp32 dY.
//
// A subclass supplies its geometry and the GEMMs: an input shape check,
// fp32 and int8 forwards, fp32 and int8 backwards, and the bias
// gradient.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "nn/plan.hpp"
#include "nn/shard.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qtensor.hpp"

namespace apt::nn {

/// The operands of one quantised layer's fused integer forward. The
/// training layers (forward_int8) and CompiledModel's serving ops both
/// bind one and run it through ConvS8Forward (conv2d.hpp) or
/// linear_s8_forward (linear.hpp), so the integer inference is written
/// once.
struct S8ForwardArgs {
  const uint8_t* x = nullptr;  ///< input codes on x_grid
  quant::QuantParams x_grid;
  const uint8_t* w = nullptr;  ///< weight codes on w_grid, none above w_max
  quant::QuantParams w_grid;
  int32_t w_max = 255;
  /// The layer's epilogue (scale, bias, ReLU, requant grid): per-channel
  /// vectors span all output channels. The forward sets the channel
  /// axis, the per-group offsets and the range probe.
  GemmS8Epilogue epi;
  /// Output: fp32 `y`, or codes on epi's requant grid (exactly one).
  float* y = nullptr;
  uint8_t* y_codes = nullptr;
};

/// Integer GEMM parameters for operand A on grid `a` and B on grid `b`
/// (full-range code ceilings).
GemmS8Params s8_params(const quant::QuantParams& a,
                       const quant::QuantParams& b);

class GemmLayer : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) final;
  Tensor backward(const Tensor& grad_out) final;
  /// Per-shard passes, then one merged observation per tracker.
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) final;
  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) final;
  bool accepts_codes() const final;
  Tensor forward_flow(const Tensor& x, const QuantizedActivation* qx,
                      bool training, bool want_codes,
                      QuantizedActivation* qy) final;
  std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys) final;
  std::vector<Parameter*> parameters() final;
  std::string name() const final { return name_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

  /// EMA range of the layer's input, feeding the activation quantiser.
  const quant::RangeTracker& activation_range() const {
    return act_range_.tracker();
  }
  /// EMA range of the upstream gradient dY, feeding the stochastic-
  /// rounding gradient quantiser (uninitialised until the first
  /// backward; the int8 backward engages from the second step).
  const quant::RangeTracker& gradient_range() const {
    return grad_range_.tracker();
  }
  /// True when the calling shard's last backward ran the integer
  /// gradient GEMMs rather than the fp32 fallback.
  bool last_backward_was_int8() const { return telem_.cur().int8_bwd; }
  /// Int8-path telemetry for the calling shard's last forward (each
  /// shard owns its slot, so the stores never race under
  /// forward_sharded; outside a shard session this is slot 0).
  bool last_forward_was_int8() const { return telem_.cur().int8_path; }
  bool last_forward_consumed_codes() const { return telem_.cur().consumed; }
  bool last_forward_emitted_codes() const { return telem_.cur().emitted; }
  /// Same telemetry for an explicit shard slot (tests).
  bool last_forward_was_int8(int shard) const {
    return telem_.at(shard).int8_path;
  }
  bool last_forward_consumed_codes(int shard) const {
    return telem_.at(shard).consumed;
  }
  bool last_forward_emitted_codes(int shard) const {
    return telem_.at(shard).emitted;
  }

 protected:
  /// weight: `weight_shape`; bias: [out_channels], a parameter only when
  /// `has_bias`.
  GemmLayer(std::string name, Shape weight_shape, int64_t out_channels,
            bool has_bias);

  /// The weight's <= 8-bit code view, or null when the representation
  /// stores none (the layer then always runs fp32).
  const quant::QuantizedTensor* int8_weights() const;
  /// The integer forward's operands over input codes `x` on `xq`:
  /// int8_weights(), the bias, and the output — qy's codes on qy->params
  /// (sized to `out_shape`) when `qy` is non-null, else `*y`, set to a
  /// fresh fp32 tensor of `out_shape`.
  S8ForwardArgs int8_forward_args(const uint8_t* x,
                                  const quant::QuantParams& xq,
                                  const Shape& out_shape,
                                  QuantizedActivation* qy, Tensor* y) const;

  // -- subclass hooks -------------------------------------------------
  /// Rejects an input shape the layer cannot take.
  virtual void check_input(const Shape& in_shape) = 0;
  /// y = f(x) + bias on the fp32 weight view.
  virtual Tensor forward_fp32(const Tensor& x) = 0;
  /// The integer forward over input codes `x` (grid `xq`, shape
  /// `x_shape`) and int8_weights(). With `qy` non-null it emits the
  /// output as codes on qy->params (sizing qy->codes, setting
  /// qy->shape) and returns an undefined Tensor; otherwise it returns
  /// fp32 y. Either way `*observed` receives the epilogue's exact
  /// pre-requant output range.
  virtual Tensor forward_int8(const uint8_t* x, const quant::QuantParams& xq,
                              const Shape& x_shape, QuantizedActivation* qy,
                              std::pair<float, float>* observed) = 0;
  /// Accumulates dW for fp32 input `x` into the weight's grad sink and
  /// returns dX.
  virtual Tensor backward_fp32(const Tensor& x, const Tensor& dy) = 0;
  /// Same on code planes: the cached input codes `x`, and dY's codes
  /// `dy` (grid `gq`, shape `dy_shape`).
  virtual Tensor backward_int8(const QuantizedActivation& x,
                               const uint8_t* dy,
                               const quant::QuantParams& gq,
                               const Shape& dy_shape) = 0;
  /// Accumulates the bias gradient from the raw fp32 dY.
  virtual void backward_bias(const Tensor& dy) = 0;

  std::string name_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;

 private:
  struct Telemetry {
    bool int8_path = false;
    bool consumed = false;  // input arrived as codes
    bool emitted = false;   // output left as codes
    bool int8_bwd = false;  // backward ran the integer gradient GEMMs
  };

  ShardedRange act_range_;
  ShardedRange out_range_;
  ShardedRange grad_range_;
  // Backward's view of the training input, one slot per shard: the fp32
  // tensor (undefined when the input arrived as codes; backward then
  // dequantises on demand) and the codes the int8 forward consumed —
  // the incoming QuantizedActivation, or the input quantised on entry
  // (reset when the forward ran fp32 on an fp32 input).
  PerShard<Tensor> input_;
  PerShard<QuantizedActivation> input_codes_;
  PerShard<std::vector<uint8_t>> grad_codes_;  // reused dY code buffers
  PerShard<Telemetry> telem_;
};

}  // namespace apt::nn
