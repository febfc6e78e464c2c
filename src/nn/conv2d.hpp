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
// weights as A and the patch matrix as B (ConvS8Forward, which
// CompiledModel's serving conv runs too). B is the sample's group
// staged once as a channel-quad code image (stage_conv_image_u8,
// GemmS8ConvImage) that the quad tiles read in place, and the weight
// codes are reordered once per layer call to the image's k order
// (ConvS8Forward::reorder_weights; serving reorders them at compile and
// load instead). The int8 backward runs, per (sample, group),
//
//   dX_g = the transposed conv over dYq: ConvS8Forward with the weight
//          codes flipped in (kh, kw) and their channels swapped, padding
//          k-1-p (a strided conv reads dYq zero-inserted), so each dX
//          element is one exact integer sum and one float(Sa*Sb*T)
//   dW_g = dYq · colsᵀ (kS8 plan, colsᵀ packed implicitly from
//          the cached input codes' padded NCHW image)
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

/// The int8 forward of one conv layer call over h x w inputs: per
/// (sample, group), one fused-epilogue GEMM C_g = Wq_g · patches(x[n], g)
/// with the weights as A. B is the sample's group plane staged as a
/// channel-quad code image (stage_conv_image_u8, GemmS8ConvImage) that
/// the quad tiles read in place, or, under the direct strategy (1x1,
/// stride 1, no padding), the contiguous plane itself. Conv2d runs the
/// (sample, group) bodies from pool tasks, CompiledModel serially per
/// request; both get the same bits.
class ConvS8Forward {
 public:
  /// The plan key every (sample, group) GEMM of such a call runs
  /// (stamped with the current pool width); w_max and x_max are the
  /// weight and input grids' largest codes.
  static PlanKey plan_key(const Conv2dOptions& o, int64_t h, int64_t w,
                          int32_t w_max, int32_t x_max);

  /// Bytes of the weight operand the forward reads under `plan`: the
  /// [OC][IC/G][K][K] codes reordered to the image's k order
  /// (reorder_weights), or 0 under the direct strategy, which reads the
  /// codes as they are.
  static int64_t weight_bytes(const KernelPlan& plan, const Conv2dOptions& o);
  /// Writes weight_bytes() codes to `dst`: per output channel, the k
  /// order (channel quad, kh, kw, channel % 4), code 0 in the channels
  /// past IC/G that pad the last quad.
  static void reorder_weights(const Conv2dOptions& o, const uint8_t* w,
                              uint8_t* dst);

  /// `plan` is plan_for(plan_key(o, h, w, args.w_max, x_max)), x_max
  /// the largest code of args.x_grid, or a copy of it;
  /// `args` covers the whole batch ([N, C, h, w] input codes,
  /// [N, OC, oh, ow] output) and all OC channels, its weights reordered
  /// by reorder_weights unless weight_bytes(plan, o) is 0.
  ConvS8Forward(const KernelPlan& plan, const Conv2dOptions& o, int64_t h,
                int64_t w, const S8ForwardArgs& args);

  /// Staging space for one run() in `scope` (null when none is needed).
  uint8_t* alloc_stage(ScratchArena::Scope& scope) const;
  /// Sample n, group g, staged in `stage` (`pooled` splits the staging
  /// across the global pool). The exact output range of the group's
  /// GEMM goes to *lo / *hi when they are non-null.
  void run(int64_t n, int64_t g, uint8_t* stage, bool pooled,
           float* lo = nullptr, float* hi = nullptr) const;
  /// run() over sample n's [C, h, w] input codes at `x` instead of in
  /// args.x (staged serially, no range probe).
  void run(const uint8_t* x, int64_t n, int64_t g, uint8_t* stage) const;

 private:
  void run_on(const uint8_t* x, int64_t n, int64_t g, uint8_t* stage,
              bool pooled, float* lo, float* hi) const;

  const KernelPlan& plan_;
  Conv2dOptions o_;
  int64_t h_, w_;
  bool direct_;
  uint8_t flip_ = 0;  // the image flip the plan's in-place tile reads
  S8ForwardArgs args_;
  GemmS8Params params_;
  int64_t c_, icg_, oc_, ocg_, a_row_, in_plane_, out_plane_;
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
/// form the weight gradient's transposed implicit operand (GemmS8ConvB)
/// gathers from. `pooled` splits channels across the global pool
/// (disjoint writes: bit-identical for any pool size).
void stage_padded_u8(const uint8_t* planes, int64_t c_count, int64_t H,
                     int64_t W, int64_t padding, uint8_t pad_code,
                     uint8_t* out, bool pooled);

/// Bytes of scratch stage_conv_image_u8 needs for this geometry.
int64_t conv_image_bytes(int64_t c_count, int64_t H, int64_t W,
                         int64_t kernel, int64_t stride, int64_t padding);

/// Stages `c_count` contiguous [H][W] code planes, padded by `padding`
/// with `pad_code`, as the integer conv forward's channel-quad image
/// (GemmS8ConvImage, gemm_kernel.hpp) in `space` (conv_image_bytes of
/// it, 4-byte aligned), every byte XORed with `flip`, and computes its
/// column code sums there too. Returns the descriptor. `pooled` splits
/// the channel quads across the global pool (disjoint writes:
/// bit-identical for any pool size).
GemmS8ConvImage stage_conv_image_u8(const uint8_t* planes, int64_t c_count,
                                    int64_t H, int64_t W, int64_t kernel,
                                    int64_t stride, int64_t padding,
                                    uint8_t pad_code, uint8_t flip,
                                    void* space, bool pooled);

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
