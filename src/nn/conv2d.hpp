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
// Like Linear, the forward pass can run on the integer kernel: with the
// int8 backend selected and <= 8-bit weight codes attached, the input is
// quantised onto an EMA-tracked 8-bit grid, patches are gathered as raw
// codes (byte im2col, padding = the grid's zero-point code, which
// dequantises to exactly 0), and each group GEMM runs gemm_s8 straight
// on the code planes.
//
// Backward mirrors the split (DESIGN.md §14): once the gradient range
// tracker has initialised and the forward cached input codes, dY is
// quantised to u8 with stochastic rounding on a counter-based Philox
// stream (keyed by step / layer / batch-global element index — codes are
// bit-identical for any worker count or shard decomposition) and both
// gradient GEMMs run on code planes per (sample, group):
//
//   dcols = Wqᵀ · dYq   (kConvS8GradCols plan), then fp32 col2im
//   dW_g  = dYq · colsᵀ (kS8GradDw plan over a byte im2col of the
//                        cached input codes)
//
// The bias gradient always reduces the raw fp32 dY; the first backward
// of a run falls back to fp32 while the dY range is observed (the
// gradient grid lags one step, so per-shard backwards need no serial
// point before their GEMMs).
//
// The layer participates fully in the code-passing dataflow (DESIGN.md
// §11): it consumes a QuantizedActivation input without any fp32
// materialisation (the incoming grid replaces the tracked one, byte
// im2col — or a direct pointer for 1x1/stride-1/no-pad convs — feeds the
// packing), and when asked it emits its output as codes through the
// fused requantising GEMM epilogue (bias folded in, output grid chosen
// from an EMA of the exact pre-requant range the epilogue observes).
// Backward dequantises a cached code input on demand.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "nn/layer.hpp"
#include "nn/shard.hpp"
#include "quant/fake_quant.hpp"

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

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng);

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
  /// Code-flow entry points (see the header comment / DESIGN.md §11).
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
  int64_t macs_per_sample() const override { return macs_per_sample_; }
  int64_t out_elems_per_sample() const override { return out_elems_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Conv2dOptions& options() const { return opts_; }

  /// EMA range of the layer's input, feeding the activation quantiser.
  const quant::RangeTracker& activation_range() const { return act_range_; }
  /// EMA range of the layer's pre-requantisation output (bias folded
  /// in), observed exactly by the fused epilogue on every int8 forward;
  /// it chooses the grid the layer emits codes on.
  const quant::RangeTracker& output_range() const { return out_range_; }
  /// EMA range of the upstream gradient dY, feeding the stochastic-
  /// rounding gradient quantiser (uninitialised until the first
  /// backward; the int8 backward engages from the second step).
  const quant::RangeTracker& gradient_range() const { return grad_range_; }
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
  /// True when the last int8 forward resolved its kernel plan from the
  /// process-wide cache (i.e. performed zero cost-model evaluations).
  bool last_forward_plan_cached() const { return telem_.cur().plan_hit; }

 private:
  int64_t out_size(int64_t in) const {
    return (in + 2 * opts_.padding - opts_.kernel) / opts_.stride + 1;
  }

  // The whole int8 forward: code input (or bulk-quantised fp32 input),
  // byte patch gather, fused-epilogue GEMMs, optional code emission.
  Tensor forward_int8(const Tensor& x, const QuantizedActivation* qx,
                      bool training, bool emit, QuantizedActivation* qy);
  // The int8 backward: stochastically-rounded dY codes, per-(sample,
  // group) dcols/dW gradient GEMMs on code planes, fp32 col2im.
  Tensor backward_int8(const Tensor& grad_out);

  struct Telemetry {
    bool int8_path = false;
    bool consumed = false;  // input arrived as codes
    bool emitted = false;   // output left as codes
    bool plan_hit = false;  // kernel plan came from the cache
    bool int8_bwd = false;  // backward ran the integer gradient GEMMs
  };

  // Grid (and validity: n == 0 means none) of the codes sitting in
  // input_codes_ — the quantise-on-entry path's handoff to backward's
  // dW GEMM. A consumed-codes input is cached in input_qa_ instead.
  struct CodesMeta {
    quant::QuantParams params;
    int64_t n = 0;
  };

  std::string name_;
  Conv2dOptions opts_;
  Parameter weight_;         // [OC, IC/G, KH, KW]
  Parameter bias_;           // [OC]
  PerShard<Tensor> input_;   // cached for backward, one slot per shard
  int64_t macs_per_sample_ = 0;
  int64_t out_elems_ = 0;
  quant::RangeTracker act_range_;
  quant::RangeTracker out_range_;
  // Raw per-shard [min, max] of the input / epilogue-observed output,
  // merged into the trackers at the layer boundary (a serial point) by
  // forward_flow_sharded. NaN marks "nothing observed this pass".
  PerShard<std::pair<float, float>> shard_range_;
  PerShard<std::pair<float, float>> shard_out_range_;
  PerShard<std::vector<uint8_t>> input_codes_;  // reused quantise buffers
  PerShard<CodesMeta> input_codes_meta_;
  // Consumed-codes cache for backward (dequantised on demand); the fp32
  // input_ slot is reset while this one is live.
  PerShard<QuantizedActivation> input_qa_;
  // Gradient-range tracking for the stochastic-rounding dY quantiser,
  // same per-shard/merge idiom as the activation trackers above.
  quant::RangeTracker grad_range_;
  PerShard<std::pair<float, float>> shard_grad_range_;
  PerShard<std::vector<uint8_t>> grad_codes_;  // reused dY code buffers
  PerShard<Telemetry> telem_;
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

/// Pool-parallel im2col_u8: channels split across the global thread pool
/// (each channel's kernel*kernel rows are written by exactly one task,
/// so the output is bit-identical to the serial call for any pool size).
void im2col_u8_pooled(const uint8_t* x, int64_t C, int64_t H, int64_t W,
                      int64_t n, int64_t c_begin, int64_t c_count,
                      int64_t kernel, int64_t stride, int64_t padding,
                      int64_t oh, int64_t ow, uint8_t pad_code,
                      uint8_t* cols);

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
