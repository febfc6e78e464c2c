// 2-D convolution (NCHW) lowered to GEMM, with group support.
//
// groups == in_channels == out_channels gives a depthwise convolution
// (MobileNetV2). The patch (im2col) matrix is never materialised: the
// fp32 forward and weight-gradient GEMMs pack their B operand straight
// from each sample's zero-padded input image (gemm_conv; the input plane
// itself when padding == 0), bit-identical to packing im2col. Backward
// re-stages the image per sample instead of caching column buffers,
// trading a little compute for training-memory — the resource this
// paper is about.
//
// The quantised-layer state machine (range tracking, int8 eligibility,
// code passing, input-code caching, stochastically rounded dY) lives in
// GemmLayer (gemm_layer.hpp); this file supplies the convolution GEMMs.
// The int8 forward runs one fused-epilogue GEMM per (sample, group) with
// weights as A and the patch matrix as an implicit B operand
// (ConvS8Forward, which CompiledModel's serving conv runs too); the int8
// backward runs, per (sample, group),
//
//   dcols = Wqᵀ · dYq   (kConvS8GradCols plan), then fp32 col2im
//   dW_g  = dYq · colsᵀ (kS8GradDw plan, colsᵀ read implicitly from the
//                        cached input codes)
#pragma once

#include <cstdint>
#include <utility>

#include "base/arena.hpp"
#include "base/rng.hpp"
#include "nn/gemm_layer.hpp"
#include "nn/plan.hpp"

namespace apt::nn {

struct Conv2dOptions {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;
  int64_t groups = 1;
  bool bias = false;  // paper's backbones put BatchNorm after every conv
};

class Conv2d : public GemmLayer {
 public:
  Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng);

  int64_t macs_per_sample() const override { return macs_per_sample_; }
  int64_t out_elems_per_sample() const override { return out_elems_; }

  const Conv2dOptions& options() const { return opts_; }

 private:
  int64_t out_size(int64_t in) const {
    return (in + 2 * opts_.padding - opts_.kernel) / opts_.stride + 1;
  }

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

  Conv2dOptions opts_;       // weight_: [OC, IC/G, KH, KW]; bias_: [OC]
  int64_t macs_per_sample_ = 0;
  int64_t out_elems_ = 0;
};

/// The B operand of one int8 conv GEMM — one sample's [icg][h][w] code
/// plane of one group — shared by the int8 forward (ConvS8Forward) and
/// Conv2d's dW GEMMs. Under the planner's direct strategy
/// (1x1, stride 1, no padding) B is the contiguous plane itself;
/// otherwise the patch matrix is never materialised: the GEMM's B
/// packing gathers patches (GemmS8ConvB) straight from the plane
/// (padding == 0) or from a zero-point-padded staging copy (~7x smaller
/// than the im2col matrix and cache-hot for the whole GEMM).
class ConvS8Operand {
 public:
  ConvS8Operand(const KernelPlan& plan, int64_t icg, int64_t h, int64_t w,
                int64_t kernel, int64_t stride, int64_t padding,
                uint8_t pad_code);

  /// Staging space for one bind() in `scope` (null when none is needed).
  uint8_t* alloc_stage(ScratchArena::Scope& scope) const;
  /// Points `ga`'s B operand at `plane`, staging it into `stage` (from
  /// alloc_stage; `pooled` splits the copy across the global pool).
  /// `cb` holds the implicit-operand descriptor and must outlive the
  /// GEMM.
  void bind(const uint8_t* plane, uint8_t* stage, bool pooled,
            GemmS8ConvB& cb, GemmS8Args& ga) const;

 private:
  int64_t icg_, h_, w_, kernel_, stride_, padding_;
  uint8_t pad_code_;
  bool direct_, staged_;
};

/// The int8 forward of one conv layer call over h x w inputs: per
/// (sample, group), one fused-epilogue GEMM C_g = Wq_g · patches(x[n], g)
/// with the weights as A and the patch matrix as the implicit B operand.
/// Conv2d runs the (sample, group) bodies from pool tasks, CompiledModel
/// serially per request; both get the same bits.
class ConvS8Forward {
 public:
  /// The plan key every (sample, group) GEMM of such a call runs
  /// (stamped with the current pool width).
  static PlanKey plan_key(const Conv2dOptions& o, int64_t h, int64_t w,
                          int32_t w_max);

  /// `plan` is plan_for(plan_key(o, h, w, args.w_max)) or a copy of it;
  /// `args` covers the whole batch ([N, C, h, w] input codes,
  /// [N, OC, oh, ow] output) and all OC channels.
  ConvS8Forward(const KernelPlan& plan, const Conv2dOptions& o, int64_t h,
                int64_t w, const S8ForwardArgs& args);

  /// Staging space for one run() in `scope` (null when none is needed).
  uint8_t* alloc_stage(ScratchArena::Scope& scope) const {
    return operand_.alloc_stage(scope);
  }
  /// Sample n, group g, staged in `stage` (`pooled` splits the staging
  /// across the global pool). The exact output range of the group's
  /// GEMM goes to *lo / *hi when they are non-null.
  void run(int64_t n, int64_t g, uint8_t* stage, bool pooled,
           float* lo = nullptr, float* hi = nullptr) const;

 private:
  const KernelPlan& plan_;
  ConvS8Operand operand_;
  S8ForwardArgs args_;
  GemmS8Params params_;
  int64_t c_, icg_, oc_, ocg_, krows_, in_plane_, out_plane_;
};

/// Extracts convolution patches of `x[n]` (group `g`) into `cols`, a
/// row-major [icg*k*k, oh*ow] matrix: the explicit form of the implicit
/// operand the fp32 GEMMs pack from. Exposed for tests (the reference
/// the implicit path is checked against).
void im2col(const Tensor& x, int64_t n, int64_t c_begin, int64_t c_count,
            int64_t kernel, int64_t stride, int64_t padding, int64_t oh,
            int64_t ow, float* cols);

/// Byte-plane im2col over unsigned activation codes (x is [N,C,H,W] dims
/// passed explicitly). Spatial padding is filled with `pad_code` — the
/// activation grid's zero-point, so padding dequantises to exactly 0.
/// Gathers through a per-channel zero-padded staging image, so every
/// output row is one branch-free contiguous copy.
void im2col_u8(const uint8_t* x, int64_t C, int64_t H, int64_t W, int64_t n,
               int64_t c_begin, int64_t c_count, int64_t kernel,
               int64_t stride, int64_t padding, int64_t oh, int64_t ow,
               uint8_t pad_code, uint8_t* cols);

/// Stages `c_count` contiguous channel planes into a
/// [c_count][(H+2p)][(W+2p)] image whose pad border is `pad_code` — the
/// form the integer GEMM's implicit conv B operand (GemmS8ConvB)
/// gathers from. `pooled` splits channels across the global pool
/// (disjoint writes: bit-identical for any pool size).
void stage_padded_u8(const uint8_t* planes, int64_t c_count, int64_t H,
                     int64_t W, int64_t padding, uint8_t pad_code,
                     uint8_t* out, bool pooled);

/// Adds a [icg*k*k, oh*ow] column matrix back into dx[n] (group channel
/// range [c_begin, c_begin+c_count)): the adjoint of im2col. At stride 1
/// on AVX2 hosts it gathers, each dx element adding its taps in
/// register in the scatter's order and storing once; otherwise it runs
/// col2im_reference. Either way the bits equal col2im_reference.
void col2im(const float* cols, int64_t n, int64_t c_begin, int64_t c_count,
            int64_t kernel, int64_t stride, int64_t padding, int64_t oh,
            int64_t ow, Tensor& dx);

/// The scalar scatter that defines col2im: each (c, kh, kw) row, in
/// order, adds into its window of dx. Exposed for tests.
void col2im_reference(const float* cols, int64_t n, int64_t c_begin,
                      int64_t c_count, int64_t kernel, int64_t stride,
                      int64_t padding, int64_t oh, int64_t ow, Tensor& dx);

}  // namespace apt::nn
