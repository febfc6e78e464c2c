#include "nn/gemm_layer.hpp"

#include "base/arena.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "nn/gemm.hpp"

namespace apt::nn {

namespace {

// Both quantisers are elementwise (and the SR stream is indexed per
// element from `base`), so pool chunking never changes a code.
constexpr int64_t kQuantGrain = 1 << 14;

void quantize_pooled(const Tensor& x, const quant::QuantParams& q,
                     uint8_t* out) {
  ThreadPool::global().parallel_for(
      0, x.numel(),
      [&](int64_t e0, int64_t e1) {
        quant::quantize_codes_u8(x.data() + e0, e1 - e0, q, out + e0);
      },
      kQuantGrain);
}

void quantize_sr_pooled(const Tensor& x, const quant::QuantParams& q,
                        uint64_t key, uint64_t base, uint8_t* out) {
  ThreadPool::global().parallel_for(
      0, x.numel(),
      [&](int64_t e0, int64_t e1) {
        quant::quantize_codes_u8_sr(x.data() + e0, e1 - e0, q, key,
                                    base + static_cast<uint64_t>(e0),
                                    out + e0);
      },
      kQuantGrain);
}

}  // namespace

GemmS8Params s8_params(const quant::QuantParams& a,
                       const quant::QuantParams& b) {
  return {a.scale, b.scale, static_cast<int32_t>(a.zero_point),
          static_cast<int32_t>(b.zero_point)};
}

GemmLayer::GemmLayer(std::string name, Shape weight_shape,
                     int64_t out_channels, bool has_bias)
    : name_(std::move(name)),
      has_bias_(has_bias),
      weight_(name_ + ".weight", std::move(weight_shape)),
      bias_(name_ + ".bias", Shape{out_channels}, /*decay=*/false) {}

const quant::QuantizedTensor* GemmLayer::int8_weights() const {
  const quant::QuantizedTensor* wq =
      weight_.rep ? weight_.rep->quantized_view() : nullptr;
  return wq != nullptr && wq->bits() <= 8 ? wq : nullptr;
}

S8ForwardArgs GemmLayer::int8_forward_args(const uint8_t* x,
                                           const quant::QuantParams& xq,
                                           const Shape& out_shape,
                                           QuantizedActivation* qy,
                                           Tensor* y) const {
  const quant::QuantizedTensor* wq = int8_weights();
  S8ForwardArgs args;
  args.x = x;
  args.x_grid = xq;
  args.w = wq->codes_u8();
  args.w_grid = wq->params();
  // The weight grid's code ceiling lets <= 6-bit layers take the byte-
  // quad kernels.
  args.w_max = static_cast<int32_t>(quant::max_code(wq->bits()));
  args.epi.bias = has_bias_ ? bias_.value.data() : nullptr;
  if (qy != nullptr) {
    qy->codes.resize(static_cast<size_t>(out_shape.numel()));
    qy->shape = out_shape;
    args.y_codes = qy->codes.data();
    args.epi.out_scale = qy->params.scale;
    args.epi.out_zero = static_cast<int32_t>(qy->params.zero_point);
    args.epi.out_max = static_cast<int32_t>(quant::max_code(qy->params.bits));
  } else {
    *y = Tensor::uninitialized(out_shape);  // the GEMMs write every element
    args.y = y->data();
  }
  return args;
}

bool GemmLayer::accepts_codes() const {
  return resolved_gemm_backend() == GemmBackend::kInt8 &&
         int8_weights() != nullptr;
}

Tensor GemmLayer::forward(const Tensor& x, bool training) {
  return forward_flow(x, nullptr, training, false, nullptr);
}

Tensor GemmLayer::forward_flow(const Tensor& x, const QuantizedActivation* qx,
                               bool training, bool want_codes,
                               QuantizedActivation* qy) {
  if (qy != nullptr) qy->reset();
  const bool has_qx = qx != nullptr && qx->valid();
  const Shape& in_shape = has_qx ? qx->shape : x.shape();
  check_input(in_shape);

  Telemetry& tl = telem_.cur();
  tl = {};
  if (training) {
    // One fused sweep for the range observation (code planes dequantise
    // just their two extreme codes).
    act_range_.record(has_qx ? qx->value_range() : x.minmax());
    if (has_qx) {
      input_codes_.cur() = *qx;
      input_.cur() = Tensor();
    } else {
      input_.cur() = x;  // shallow share; batches are freshly allocated
      input_codes_.cur().reset();
    }
  }

  // Integer path: weight codes stay packed (no dequantised multiply) and
  // the input is quantised onto the tracked 8-bit activation grid — or
  // arrives as codes outright. The weight's float view equals S(q - Z)
  // exactly, so this differs from the fp32 path only by activation
  // rounding and exact-vs-float accumulation order.
  tl.int8_path = resolved_gemm_backend() == GemmBackend::kInt8 &&
                 int8_weights() != nullptr &&
                 (has_qx || act_range_.initialized());
  if (!tl.int8_path) {
    if (!has_qx) return forward_fp32(x);
    // A code input is materialised once, and cached for backward
    // instead of the codes.
    Tensor xin = qx->dequantize();
    if (training) {
      input_.cur() = xin;
      input_codes_.cur().reset();
    }
    return forward_fp32(xin);
  }

  tl.consumed = has_qx;
  tl.emitted = want_codes && qy != nullptr && out_range_.initialized();
  if (tl.emitted)
    qy->params = quant::choose_params(out_range_.lo(), out_range_.hi(), 8);

  ScratchArena::Scope scope(ScratchArena::thread_local_arena());
  const uint8_t* codes = has_qx ? qx->codes.data() : nullptr;
  const quant::QuantParams xq =
      has_qx ? qx->params
             : quant::choose_params(act_range_.lo(), act_range_.hi(), 8);
  if (!has_qx) {
    uint8_t* buf = nullptr;
    if (training) {
      // Backward's integer GEMMs consume these exact codes, so they
      // outlive the forward in the shard's slot (steady state: no
      // reallocation).
      QuantizedActivation& ic = input_codes_.cur();
      ic.codes.resize(static_cast<size_t>(x.numel()));
      ic.params = xq;
      ic.shape = in_shape;
      buf = ic.codes.data();
    } else {
      buf = static_cast<uint8_t*>(
          scope.alloc_bytes(static_cast<size_t>(x.numel())));
    }
    quantize_pooled(x, xq, buf);
    codes = buf;
  }
  std::pair<float, float> observed;
  Tensor y = forward_int8(codes, xq, in_shape, tl.emitted ? qy : nullptr,
                          &observed);
  if (training) out_range_.record(observed);
  return y;
}

Tensor GemmLayer::backward(const Tensor& grad_out) {
  // Raw dY extrema for the gradient tracker, recorded only AFTER the
  // quantiser read the previous state, so the gradient grid lags one
  // step and per-shard backwards need no mid-pass synchronisation.
  const std::pair<float, float> gr = grad_out.minmax();

  const QuantizedActivation& xc = input_codes_.cur();
  const bool int8_bwd = resolved_gemm_backend() == GemmBackend::kInt8 &&
                        int8_weights() != nullptr &&
                        grad_range_.initialized() && xc.valid();
  telem_.cur().int8_bwd = int8_bwd;

  Tensor dx;
  if (int8_bwd) {
    // dY codes on the EMA gradient grid (kGradSrBits wide: every code
    // stays quad-eligible, see gemm.hpp), stochastically rounded on the
    // Philox stream keyed by (step, layer) and indexed by batch-global
    // element — shard s's first sample sits at shard_sample_offset(), so
    // every decomposition draws the same bit for the same element.
    const quant::QuantParams gq = quant::choose_params(
        grad_range_.lo(), grad_range_.hi(), kGradSrBits);
    const uint64_t key = sr_mix_key(fnv1a64(name_), sr_step());
    const int64_t per_sample = grad_out.numel() / grad_out.dim(0);
    const uint64_t base = static_cast<uint64_t>(shard_sample_offset()) *
                          static_cast<uint64_t>(per_sample);
    std::vector<uint8_t>& dyc = grad_codes_.cur();
    dyc.resize(static_cast<size_t>(grad_out.numel()));
    quantize_sr_pooled(grad_out, gq, key, base, dyc.data());
    dx = backward_int8(xc, dyc.data(), gq, grad_out.shape());
  } else {
    const Tensor& x = input_.cur();
    if (x.defined() && x.numel() > 0) {
      dx = backward_fp32(x, grad_out);
    } else {
      // The input arrived as codes: materialise the exact values the
      // integer forward consumed.
      APT_CHECK(xc.valid()) << name_ << ": backward before forward";
      dx = backward_fp32(xc.dequantize(), grad_out);
    }
  }

  if (has_bias_) backward_bias(grad_out);
  grad_range_.record(gr);
  return dx;
}

std::vector<Tensor> GemmLayer::forward_sharded(const std::vector<Tensor>& xs,
                                               bool training) {
  return forward_flow_sharded(xs, nullptr, training, false, nullptr);
}

std::vector<Tensor> GemmLayer::forward_flow_sharded(
    const std::vector<Tensor>& xs, const std::vector<QuantizedActivation>* qxs,
    bool training, bool want_codes, std::vector<QuantizedActivation>* qys) {
  std::vector<Tensor> ys =
      flow_shard_each(xs, qxs, training, want_codes, qys);
  if (training) {
    const int shards = static_cast<int>(xs.size());
    act_range_.merge(shards);
    out_range_.merge(shards);
  }
  return ys;
}

std::vector<Tensor> GemmLayer::backward_sharded(
    const std::vector<Tensor>& grads_out) {
  std::vector<Tensor> dxs = Layer::backward_sharded(grads_out);
  grad_range_.merge(static_cast<int>(grads_out.size()));
  return dxs;
}

std::vector<Parameter*> GemmLayer::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace apt::nn
