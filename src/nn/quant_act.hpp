// Activation fake-quantisation layer (optional extension, §III-B).
//
// Forward quantise-dequantises activations onto a k-bit grid over an
// EMA-tracked range; backward uses the straight-through estimator with
// saturation masking. Disabled (bits == 32) layers pass through untouched.
#pragma once

#include <utility>

#include "nn/layer.hpp"
#include "nn/shard.hpp"
#include "quant/fake_quant.hpp"

namespace apt::nn {

class QuantAct : public Layer {
 public:
  QuantAct(std::string name, int bits = 8, double range_momentum = 0.95)
      : name_(std::move(name)), bits_(bits), range_(range_momentum) {}

  void set_bits(int bits) { bits_ = bits; }
  int bits() const { return bits_; }
  const quant::RangeTracker& tracker() const { return range_.tracker(); }

  Tensor forward(const Tensor& x, bool training) override {
    if (bits_ >= 32) return x;
    // Inside a shard session every shard quantises on the same
    // session-entry grid; forward_sharded merges the shards' extrema.
    if (training) range_.record(x.minmax());
    if (!range_.initialized()) return x;
    const float lo = range_.lo(), hi = range_.hi();
    if (training) mask_.cur() = quant::ste_mask(x, lo, hi, bits_);
    return quant::fake_quantize(x, lo, hi, bits_);
  }

  Tensor backward(const Tensor& grad_out) override {
    if (bits_ >= 32 || mask_.cur().numel() == 0) return grad_out;
    return grad_out * mask_.cur();
  }

  /// Default per-shard pass, then one merged range observation.
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override {
    std::vector<Tensor> ys = Layer::forward_sharded(xs, training);
    if (bits_ < 32 && training) range_.merge(static_cast<int>(xs.size()));
    return ys;
  }

  /// A disabled QuantAct (bits >= 32) is a pure identity, so it must
  /// not break a code-passing chain: it forwards codes untouched. An
  /// enabled one re-quantises on its own grid and therefore falls back
  /// to the fp32 path.
  bool accepts_codes() const override { return bits_ >= 32; }
  bool codes_transparent() const override { return bits_ >= 32; }

  Tensor forward_flow(const Tensor& x, const QuantizedActivation* qx,
                      bool training, bool want_codes,
                      QuantizedActivation* qy) override {
    if (qx == nullptr || !qx->valid() || bits_ < 32)
      return Layer::forward_flow(x, qx, training, want_codes, qy);
    if (qy != nullptr) qy->reset();
    if (want_codes && qy != nullptr) {
      *qy = *qx;
      return Tensor();
    }
    return qx->dequantize();
  }

  std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys) override {
    if (bits_ < 32)
      return Layer::forward_flow_sharded(xs, qxs, training, want_codes, qys);
    return flow_shard_each(xs, qxs, training, want_codes, qys);
  }

  std::string name() const override { return name_; }

 private:
  std::string name_;
  int bits_;
  ShardedRange range_;  // EMA range of the input
  // STE saturation mask, one slot per shard: concurrent shard forwards
  // each cache their own mask for the matching backward.
  PerShard<Tensor> mask_;
};

}  // namespace apt::nn
