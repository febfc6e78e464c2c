// Elementwise activation layers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/layer.hpp"
#include "nn/shard.hpp"

namespace apt::nn {

/// ReLU with an optional ceiling (cap = 6 gives MobileNetV2's ReLU6;
/// cap = +inf gives plain ReLU).
///
/// In the code-passing dataflow (DESIGN.md §11) ReLU is a *transparent*
/// layer: an affine code plane v = S(q - Z) with S > 0 satisfies
/// max(v, 0) = S(max(q, Z) - Z) exactly, so the whole forward is one
/// byte clamp on the codes and no fp32 materialisation happens. A
/// finite cap clamps to the largest code not exceeding it — the capped
/// value lands on the grid point at or just below the cap. Backward
/// masks from the cached input codes: v > 0 iff q > Z, v < cap iff
/// q < ceil(cap/S) + Z.
class ReLU : public Layer {
 public:
  explicit ReLU(std::string name,
                float cap = std::numeric_limits<float>::infinity())
      : name_(std::move(name)), cap_(cap) {}

  /// Ceiling (+inf = plain ReLU); the freeze pass folds it into the
  /// fused GEMM epilogue's clamp.
  float cap() const { return cap_; }

  Tensor forward(const Tensor& x, bool training) override {
    Tensor y = Tensor::uninitialized(x.shape());
    clamp_f32(x.data(), x.numel(), cap_, y.data());
    if (training) {
      input_.cur() = x;
      input_qa_.cur().reset();
    }
    return y;
  }

  bool accepts_codes() const override { return true; }
  bool codes_transparent() const override { return true; }

  Tensor forward_flow(const Tensor& x, const QuantizedActivation* qx,
                      bool training, bool want_codes,
                      QuantizedActivation* qy) override {
    if (qy != nullptr) qy->reset();
    if (qx == nullptr || !qx->valid()) return forward(x, training);
    const quant::QuantParams& p = qx->params;
    const auto z = static_cast<uint8_t>(p.zero_point);
    const uint8_t qmax = static_cast<uint8_t>(quant::max_code(p.bits));
    uint8_t hi = qmax;
    if (std::isfinite(cap_)) {
      const double hc =
          std::floor(static_cast<double>(cap_) / p.scale) +
          static_cast<double>(p.zero_point);
      hi = static_cast<uint8_t>(std::min<double>(
          qmax, std::max<double>(static_cast<double>(z), hc)));
    }
    QuantizedActivation out;
    out.params = p;
    out.shape = qx->shape;
    out.codes.resize(qx->codes.size());
    clamp_u8(qx->codes.data(), static_cast<int64_t>(qx->codes.size()), z,
             hi, out.codes.data());
    if (training) {
      input_qa_.cur() = *qx;
      input_.cur() = Tensor();
    }
    if (want_codes && qy != nullptr) {
      *qy = std::move(out);
      return Tensor();
    }
    return out.dequantize();
  }

  std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys) override {
    return flow_shard_each(xs, qxs, training, want_codes, qys);
  }

  Tensor backward(const Tensor& grad_out) override {
    const QuantizedActivation& qa = input_qa_.cur();
    if (qa.valid()) {
      // Code-domain mask (see class comment).
      const quant::QuantParams& p = qa.params;
      const int64_t z = p.zero_point;
      int64_t qhi = quant::max_code(p.bits) + 1;  // exclusive
      if (std::isfinite(cap_))
        qhi = std::min<int64_t>(
            qhi, static_cast<int64_t>(
                     std::ceil(static_cast<double>(cap_) / p.scale)) +
                     p.zero_point);
      Tensor dx = Tensor::uninitialized(grad_out.shape());
      mask_u8(qa.codes.data(), grad_out.data(), grad_out.numel(),
              static_cast<int32_t>(z),
              static_cast<int32_t>(std::clamp<int64_t>(qhi, 0, 256)),
              dx.data());
      return dx;
    }
    const Tensor& input = input_.cur();
    APT_CHECK(input.defined() && input.numel() > 0)
        << name_ << ": backward before forward";
    Tensor dx = Tensor::uninitialized(grad_out.shape());
    mask_f32(input.data(), grad_out.data(), grad_out.numel(), cap_,
             dx.data());
    return dx;
  }

  std::string name() const override { return name_; }

 private:
  // The four elementwise loops, branch-free so they vectorise: the cap
  // is a by-value local (a member read through `this` could alias the
  // output), every operand loads unconditionally, and each result is a
  // select. The formulas are the reference ones, so NaN, +-0 and +-inf
  // produce the same bits as a branchy loop: y = x < 0 ? 0 : min(x, cap)
  // and dx = (0 < x < cap) ? dy : 0, on values or on codes.
  static void clamp_f32(const float* __restrict in, int64_t n, float cap,
                        float* __restrict out) {
    for (int64_t i = 0; i < n; ++i) {
      const float v = in[i];
      const float c = v > cap ? cap : v;
      out[i] = v < 0.0f ? 0.0f : c;
    }
  }
  static void clamp_u8(const uint8_t* __restrict in, int64_t n, uint8_t lo,
                       uint8_t hi, uint8_t* __restrict out) {
    for (int64_t i = 0; i < n; ++i) {
      const uint8_t v = in[i];
      const uint8_t c = v > hi ? hi : v;
      out[i] = v < lo ? lo : c;
    }
  }
  static void mask_f32(const float* __restrict in,
                       const float* __restrict dy, int64_t n, float cap,
                       float* __restrict out) {
    for (int64_t i = 0; i < n; ++i) {
      const float v = in[i];
      const float g = dy[i];
      out[i] = (v > 0.0f) & (v < cap) ? g : 0.0f;
    }
  }
  // Codes pass where lo < q < hi; hi is clamped to [0, 256] by the
  // caller, which keeps every u8 comparison's outcome.
  static void mask_u8(const uint8_t* __restrict in,
                      const float* __restrict dy, int64_t n, int32_t lo,
                      int32_t hi, float* __restrict out) {
    for (int64_t i = 0; i < n; ++i) {
      const int32_t q = in[i];
      const float g = dy[i];
      out[i] = (q > lo) & (q < hi) ? g : 0.0f;
    }
  }

  std::string name_;
  float cap_;
  PerShard<Tensor> input_;
  PerShard<QuantizedActivation> input_qa_;
};

}  // namespace apt::nn
