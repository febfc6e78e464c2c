#include "serve/compiled_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/arena.hpp"
#include "base/thread_pool.hpp"
#include "io/artifact.hpp"
#include "io/binary_io.hpp"
#include "io/checkpoint.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"

namespace apt::serve {
namespace {

constexpr uint32_t kMagic = 0x4150544D;  // "APTM"
constexpr const char* kSchema = "apt-compiled-model/3";

// -- lowering ---------------------------------------------------------------

struct Builder {
  std::vector<CompiledOp> ops;
  /// Per-register per-sample dims (registers are flat buffers; dims
  /// only drive geometry derivation during lowering).
  std::vector<std::vector<int64_t>> reg_dims;
  std::vector<bool> reg_codes;

  int32_t new_reg(std::vector<int64_t> dims) {
    reg_dims.push_back(std::move(dims));
    reg_codes.push_back(false);
    return static_cast<int32_t>(reg_dims.size() - 1);
  }
};

int64_t dims_numel(const std::vector<int64_t>& dims) {
  int64_t n = 1;
  for (int64_t d : dims) n *= d;
  return n;
}

/// Frozen activation grid: exactly what the training forward's
/// quantise-on-entry path would choose on its next step.
quant::QuantParams frozen_grid(const quant::RangeTracker& tracker,
                               const std::string& who) {
  APT_CHECK(tracker.initialized())
      << who << ": activation range never observed — run calibration "
      << "forwards (or freeze_from_checkpoint) before compiling";
  return quant::choose_params(tracker.lo(), tracker.hi(), 8);
}

const quant::QuantizedTensor* frozen_weights(const nn::Parameter& w,
                                             const std::string& who) {
  const quant::QuantizedTensor* wq =
      w.rep ? w.rep->quantized_view() : nullptr;
  APT_CHECK(wq != nullptr && wq->bits() <= 8)
      << who << ": weights must carry a <= 8-bit quantised "
      << "representation to compile";
  return wq;
}

/// Folds an optional eval-mode BatchNorm (y = s_bn*(x - mean) + beta,
/// s_bn = gamma/sqrt(var + eps)) and the layer's own bias into the
/// epilogue's per-channel scale/bias. `sa_sb` is the uniform product
/// the scale vector replaces.
void fold_bn(nn::BatchNorm* bn, const float* layer_bias, int64_t oc,
             double sa_sb, CompiledOp& op) {
  if (bn == nullptr) {
    if (layer_bias != nullptr)
      op.ch_bias.assign(layer_bias, layer_bias + oc);
    return;
  }
  APT_CHECK(bn->channels() == oc)
      << bn->name() << ": channels " << bn->channels()
      << " != producer's " << oc;
  const float* gamma = bn->gamma().value.data();
  const float* beta = bn->beta().value.data();
  const float* mean = bn->running_mean().data();
  const float* var = bn->running_var().data();
  op.ch_scale.resize(static_cast<size_t>(oc));
  op.ch_bias.resize(static_cast<size_t>(oc));
  for (int64_t c = 0; c < oc; ++c) {
    const double s_bn =
        static_cast<double>(gamma[c]) /
        std::sqrt(static_cast<double>(var[c]) + bn->eps());
    const double b = layer_bias != nullptr ? layer_bias[c] : 0.0;
    op.ch_scale[static_cast<size_t>(c)] = s_bn * sa_sb;
    op.ch_bias[static_cast<size_t>(c)] =
        static_cast<float>(beta[c] + s_bn * (b - mean[c]));
  }
}

int32_t emit_conv(Builder& b, nn::Conv2d& conv, nn::BatchNorm* bn,
                  int32_t in_reg) {
  const auto& dims = b.reg_dims[static_cast<size_t>(in_reg)];
  APT_CHECK(dims.size() == 3 && dims[0] == conv.options().in_channels)
      << conv.name() << ": unexpected input dims";
  const nn::Conv2dOptions& o = conv.options();
  const int64_t H = dims[1], W = dims[2];
  const int64_t OH = (H + 2 * o.padding - o.kernel) / o.stride + 1;
  const int64_t OW = (W + 2 * o.padding - o.kernel) / o.stride + 1;
  const quant::QuantizedTensor* wq = frozen_weights(conv.weight(), conv.name());

  CompiledOp op;
  op.kind = OpKind::kConvS8;
  op.in0 = in_reg;
  op.c = o.in_channels;
  op.h = H;
  op.w = W;
  op.oc = o.out_channels;
  op.oh = OH;
  op.ow = OW;
  op.kernel = o.kernel;
  op.stride = o.stride;
  op.padding = o.padding;
  op.groups = o.groups;
  op.in_grid = frozen_grid(conv.activation_range(), conv.name());
  op.w_grid = wq->params();
  op.w_max = static_cast<int32_t>(quant::max_code(wq->bits()));
  op.wcodes.assign(wq->codes_u8(), wq->codes_u8() + wq->numel());
  // Conv layout: A carries the weights, so Sa is the weight scale.
  fold_bn(bn, o.bias ? conv.bias().value.data() : nullptr, o.out_channels,
          op.w_grid.scale * op.in_grid.scale, op);
  op.out = b.new_reg({o.out_channels, OH, OW});
  b.ops.push_back(std::move(op));
  return b.ops.back().out;
}

int32_t emit_linear(Builder& b, nn::Linear& lin, nn::BatchNorm* bn,
                    int32_t in_reg) {
  const auto& dims = b.reg_dims[static_cast<size_t>(in_reg)];
  APT_CHECK(dims_numel(dims) == lin.in_features())
      << lin.name() << ": unexpected input dims";
  const quant::QuantizedTensor* wq = frozen_weights(lin.weight(), lin.name());

  CompiledOp op;
  op.kind = OpKind::kLinearS8;
  op.in0 = in_reg;
  op.c = lin.in_features();
  op.oc = lin.out_features();
  op.in_grid = frozen_grid(lin.activation_range(), lin.name());
  op.w_grid = wq->params();
  op.w_max = static_cast<int32_t>(quant::max_code(wq->bits()));
  op.wcodes.assign(wq->codes_u8(), wq->codes_u8() + wq->numel());
  // Linear layout: A carries the activations, so Sa is the input scale.
  fold_bn(bn, lin.has_bias() ? lin.bias().value.data() : nullptr,
          lin.out_features(), op.in_grid.scale * op.w_grid.scale, op);
  op.out = b.new_reg({lin.out_features()});
  b.ops.push_back(std::move(op));
  return b.ops.back().out;
}

int32_t emit_add(Builder& b, int32_t a_reg, int32_t b_reg) {
  const auto dims = b.reg_dims[static_cast<size_t>(a_reg)];
  APT_CHECK(dims_numel(dims) ==
            dims_numel(b.reg_dims[static_cast<size_t>(b_reg)]))
      << "residual add over mismatched registers";
  CompiledOp op;
  op.kind = OpKind::kAddF32;
  op.in0 = a_reg;
  op.in1 = b_reg;
  op.out = b.new_reg(dims);
  b.ops.push_back(std::move(op));
  return b.ops.back().out;
}

int32_t lower(Builder& b, nn::Layer& layer, int32_t in_reg);

/// The op a ReLU reading `reg` folds into: the conv/linear/add that
/// wrote `reg`, when it has no ReLU of its own and was emitted at or
/// after `first_op`, i.e. inside the Sequential being lowered, so no
/// other op has read `reg` yet. Null when the ReLU must run as its own
/// kReluF32 op.
CompiledOp* relu_fold_target(Builder& b, size_t first_op, int32_t reg) {
  if (b.ops.size() <= first_op) return nullptr;
  CompiledOp& op = b.ops.back();
  const bool has_epilogue = op.kind == OpKind::kConvS8 ||
                            op.kind == OpKind::kLinearS8 ||
                            op.kind == OpKind::kAddF32;
  return has_epilogue && op.out == reg && !op.relu ? &op : nullptr;
}

/// Conv/linear absorb a directly following BatchNorm; a ReLU folds as
/// relu_fold_target says.
int32_t lower_sequential(Builder& b, nn::Sequential& seq, int32_t in_reg) {
  const size_t first_op = b.ops.size();
  const auto& layers = seq.layers();
  int32_t reg = in_reg;
  for (size_t i = 0; i < layers.size(); ++i) {
    nn::Layer* l = layers[i].get();
    nn::BatchNorm* bn =
        i + 1 < layers.size()
            ? dynamic_cast<nn::BatchNorm*>(layers[i + 1].get())
            : nullptr;
    auto* relu = dynamic_cast<nn::ReLU*>(l);
    CompiledOp* fold =
        relu != nullptr ? relu_fold_target(b, first_op, reg) : nullptr;
    if (fold != nullptr) {
      fold->relu = true;
      fold->relu_cap = relu->cap();
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(l)) {
      reg = emit_conv(b, *conv, bn, reg);
      i += bn != nullptr;
    } else if (auto* lin = dynamic_cast<nn::Linear*>(l)) {
      reg = emit_linear(b, *lin, bn, reg);
      i += bn != nullptr;
    } else {
      reg = lower(b, *l, reg);
    }
  }
  return reg;
}

/// main, then the shortcut (an empty one returns the input register),
/// then the join.
int32_t lower_residual(Builder& b, nn::Residual& res, int32_t in_reg) {
  const int32_t main = lower_sequential(b, res.main(), in_reg);
  const int32_t shortcut = lower_sequential(b, res.shortcut(), in_reg);
  return emit_add(b, main, shortcut);
}

int32_t lower(Builder& b, nn::Layer& layer, int32_t in_reg) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer))
    return lower_sequential(b, *seq, in_reg);
  if (auto* res = dynamic_cast<nn::Residual*>(&layer))
    return lower_residual(b, *res, in_reg);
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer))
    return emit_conv(b, *conv, nullptr, in_reg);
  if (auto* lin = dynamic_cast<nn::Linear*>(&layer))
    return emit_linear(b, *lin, nullptr, in_reg);
  if (auto* relu = dynamic_cast<nn::ReLU*>(&layer)) {
    CompiledOp op;
    op.kind = OpKind::kReluF32;
    op.in0 = in_reg;
    op.relu = true;
    op.relu_cap = relu->cap();
    op.out = b.new_reg(b.reg_dims[static_cast<size_t>(in_reg)]);
    b.ops.push_back(std::move(op));
    return b.ops.back().out;
  }
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
    const auto& dims = b.reg_dims[static_cast<size_t>(in_reg)];
    APT_CHECK(dims.size() == 3) << layer.name() << ": expects CHW input";
    const int64_t win = pool->window();
    CompiledOp op;
    op.kind = OpKind::kMaxPoolF32;
    op.in0 = in_reg;
    op.c = dims[0];
    op.h = dims[1];
    op.w = dims[2];
    op.kernel = win;
    op.oc = dims[0];
    op.oh = dims[1] / win;
    op.ow = dims[2] / win;
    APT_CHECK(op.oh > 0 && op.ow > 0)
        << layer.name() << ": window larger than input";
    op.out = b.new_reg({op.oc, op.oh, op.ow});
    b.ops.push_back(std::move(op));
    return b.ops.back().out;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
    const auto& dims = b.reg_dims[static_cast<size_t>(in_reg)];
    APT_CHECK(dims.size() == 3) << layer.name() << ": expects CHW input";
    CompiledOp op;
    op.kind = OpKind::kGapF32;
    op.in0 = in_reg;
    op.c = dims[0];
    op.h = dims[1];
    op.w = dims[2];
    op.oc = dims[0];
    op.out = b.new_reg({dims[0]});
    b.ops.push_back(std::move(op));
    return b.ops.back().out;
  }
  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
    // Registers are flat buffers; flattening only rewrites the dims.
    auto& dims = b.reg_dims[static_cast<size_t>(in_reg)];
    dims = {dims_numel(dims)};
    return in_reg;
  }
  APT_CHECK(false) << layer.name()
                   << ": layer kind not supported by CompiledModel::compile";
  return -1;
}

/// Static code-passing pass: when a fused op's output feeds exactly one
/// other fused op, the handoff stays in codes — the producer requants
/// onto the consumer's frozen input grid (the same grid training's
/// code-flow would hand over) and the consumer skips its quantise pass.
void resolve_code_handoffs(std::vector<CompiledOp>& ops,
                           std::vector<bool>& reg_codes) {
  for (size_t i = 0; i < ops.size(); ++i) {
    CompiledOp& prod = ops[i];
    if (prod.kind != OpKind::kConvS8 && prod.kind != OpKind::kLinearS8)
      continue;
    size_t reader_count = 0;
    size_t reader = 0;
    for (size_t j = 0; j < ops.size(); ++j) {
      if (ops[j].in0 == prod.out || ops[j].in1 == prod.out) {
        ++reader_count;
        reader = j;
      }
    }
    if (reader_count != 1) continue;
    CompiledOp& cons = ops[reader];
    const bool fused_reader =
        cons.kind == OpKind::kConvS8 || cons.kind == OpKind::kLinearS8;
    if (!fused_reader || cons.in0 != prod.out) continue;
    prod.emit_codes = true;
    prod.out_grid = cons.in_grid;
    cons.in_codes = true;
    reg_codes[static_cast<size_t>(prod.out)] = true;
  }
}

nn::Conv2dOptions conv_options(const CompiledOp& op) {
  return {op.c, op.oc, op.kernel, op.stride, op.padding, op.groups};
}

/// Binds every fused op's plans (threads = 1: a request runs serially):
/// one per conv, plans[b-1] for a batch-b linear, and each conv's
/// weights in the image k order its plan reads. compile() and try_load()
/// both call it, so neither enters the artifact, a request never touches
/// the plan cache and never reorders a weight.
void bind_plans(std::vector<CompiledOp>& ops, int64_t max_batch) {
  auto serial = [](nn::PlanKey key) {
    key.threads = 1;
    return nn::plan_for(key);
  };
  for (CompiledOp& op : ops) {
    op.plans.clear();
    op.wimage.clear();
    if (op.kind == OpKind::kConvS8) {
      const nn::Conv2dOptions o = conv_options(op);
      op.plans.push_back(
          serial(nn::ConvS8Forward::plan_key(
              o, op.h, op.w, op.w_max,
              static_cast<int32_t>(quant::max_code(op.in_grid.bits)))));
      op.wimage.resize(static_cast<size_t>(
          nn::ConvS8Forward::weight_bytes(op.plans.front(), o)));
      if (!op.wimage.empty())
        nn::ConvS8Forward::reorder_weights(o, op.wcodes.data(),
                                           op.wimage.data());
    } else if (op.kind == OpKind::kLinearS8) {
      for (int64_t m = 1; m <= max_batch; ++m)
        op.plans.push_back(
            serial(nn::linear_s8_plan_key(m, op.c, op.oc, op.w_max)));
    }
  }
}

// -- execution --------------------------------------------------------------

/// A fused op's integer-forward operands over `batch` samples of
/// `in_elems`: the input codes (quantised on entry onto in_grid unless
/// the producer handed codes over), the frozen weights, the folded
/// BN/bias/ReLU epilogue and the output register.
nn::S8ForwardArgs s8_args(const CompiledOp& op, int64_t batch,
                          int64_t in_elems, InferenceContext& ctx,
                          ScratchArena::Scope& scope) {
  nn::S8ForwardArgs a;
  if (op.in_codes) {
    a.x = ctx.u8(op.in0);
  } else {
    auto* q = static_cast<uint8_t*>(
        scope.alloc_bytes(static_cast<size_t>(batch * in_elems)));
    quant::quantize_codes_u8(ctx.f32(op.in0), batch * in_elems, op.in_grid,
                             q);
    a.x = q;
  }
  a.x_grid = op.in_grid;
  a.w = op.wcodes.data();
  a.w_grid = op.w_grid;
  a.w_max = op.w_max;
  a.epi.scale = op.ch_scale.empty() ? nullptr : op.ch_scale.data();
  a.epi.bias = op.ch_bias.empty() ? nullptr : op.ch_bias.data();
  a.epi.relu = op.relu;
  a.epi.relu_cap = op.relu_cap;
  if (op.emit_codes) {
    a.y_codes = ctx.u8(op.out);
    a.epi.out_scale = op.out_grid.scale;
    a.epi.out_zero = static_cast<int32_t>(op.out_grid.zero_point);
    a.epi.out_max = static_cast<int32_t>(quant::max_code(op.out_grid.bits));
  } else {
    a.y = ctx.f32(op.out);
  }
  return a;
}

void exec_conv(const CompiledOp& op, int64_t batch, InferenceContext& ctx,
               ScratchArena::Scope& scope) {
  nn::S8ForwardArgs args = s8_args(op, batch, op.c * op.h * op.w, ctx, scope);
  if (!op.wimage.empty()) args.w = op.wimage.data();
  const nn::ConvS8Forward conv(op.plans.front(), conv_options(op), op.h,
                               op.w, args);
  uint8_t* stage = conv.alloc_stage(scope);
  for (int64_t n = 0; n < batch; ++n)
    for (int64_t g = 0; g < op.groups; ++g)
      conv.run(n, g, stage);
}

void exec_linear(const CompiledOp& op, int64_t batch, InferenceContext& ctx,
                 ScratchArena::Scope& scope) {
  nn::linear_s8_forward(op.plans[static_cast<size_t>(batch - 1)],
                        s8_args(op, batch, op.c, ctx, scope));
}

void exec_relu(const CompiledOp& op, int64_t total, InferenceContext& ctx) {
  const float* in = ctx.f32(op.in0);
  float* out = ctx.f32(op.out);
  const float cap = op.relu_cap;
  for (int64_t i = 0; i < total; ++i)
    out[i] = in[i] < 0.0f ? 0.0f : (in[i] > cap ? cap : in[i]);
}

void exec_maxpool(const CompiledOp& op, int64_t batch, InferenceContext& ctx) {
  const int64_t win = op.kernel;
  const float* x = ctx.f32(op.in0);
  float* y = ctx.f32(op.out);
  int64_t oi = 0;
  for (int64_t n = 0; n < batch; ++n)
    for (int64_t c = 0; c < op.c; ++c)
      for (int64_t oy = 0; oy < op.oh; ++oy)
        for (int64_t ox = 0; ox < op.ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          for (int64_t ky = 0; ky < win; ++ky)
            for (int64_t kx = 0; kx < win; ++kx) {
              const int64_t iy = oy * win + ky, ix = ox * win + kx;
              const float v =
                  x[((n * op.c + c) * op.h + iy) * op.w + ix];
              if (v > best) best = v;
            }
          y[oi] = best;
        }
}

void exec_gap(const CompiledOp& op, int64_t batch, InferenceContext& ctx) {
  const int64_t S = op.h * op.w;
  const float* x = ctx.f32(op.in0);
  float* y = ctx.f32(op.out);
  for (int64_t n = 0; n < batch; ++n)
    for (int64_t c = 0; c < op.c; ++c) {
      const float* p = x + (n * op.c + c) * S;
      double acc = 0.0;
      for (int64_t i = 0; i < S; ++i) acc += p[i];
      y[n * op.c + c] = static_cast<float>(acc / S);
    }
}

void exec_add(const CompiledOp& op, int64_t total, InferenceContext& ctx) {
  const float* a = ctx.f32(op.in0);
  const float* b = ctx.f32(op.in1);
  float* out = ctx.f32(op.out);
  const float cap = op.relu_cap;
  if (op.relu) {
    for (int64_t i = 0; i < total; ++i) {
      const float v = a[i] + b[i];
      out[i] = v < 0.0f ? 0.0f : (v > cap ? cap : v);
    }
  } else {
    for (int64_t i = 0; i < total; ++i) out[i] = a[i] + b[i];
  }
}

// -- serialization ----------------------------------------------------------

void write_grid(io::BufWriter& w, const quant::QuantParams& p) {
  w.pod<double>(p.scale);
  w.pod<int64_t>(p.zero_point);
  w.pod<int32_t>(p.bits);
}

quant::QuantParams read_grid(io::BufReader& r) {
  quant::QuantParams p;
  p.scale = r.pod<double>();
  p.zero_point = r.pod<int64_t>();
  p.bits = r.pod<int32_t>();
  return p;
}

// -- load-time semantic validation ------------------------------------------
//
// The container checksums guarantee the bytes are the bytes that were
// saved, but a load must also defend against a *crafted* artifact with
// valid CRCs: every register index, geometry field, and operand size is
// proven consistent here, so `run` (and InferenceContext::bind) cannot
// read or write out of bounds no matter what the file said, and every
// register an op reads was written earlier in the same request.

/// Ceiling on per-register / per-operand element counts (2^28 ≈ 268M):
/// far beyond any real model, small enough that bind() cannot be driven
/// into pathological allocations.
constexpr int64_t kMaxElemsPerReg = int64_t{1} << 28;

bool valid_grid(const quant::QuantParams& g) {
  return g.bits >= 1 && g.bits <= 8 && g.zero_point >= 0 &&
         g.zero_point <= quant::max_code(g.bits) && std::isfinite(g.scale) &&
         g.scale > 0.0;
}

/// a*b, or false when the product is negative or above kMaxElemsPerReg.
bool mul_ok(int64_t a, int64_t b, int64_t* out) {
  if (a < 0 || b < 0) return false;
  if (b != 0 && a > kMaxElemsPerReg / b) return false;
  *out = a * b;
  return true;
}

Status validate_program(const std::string& path, const CompiledModel& cm,
                        int32_t out_reg) {
  auto corrupt = [&](const std::string& why) {
    return Status{StatusCode::kCorrupt, path + ": " + why};
  };
  const std::vector<RegInfo>& regs = cm.regs();
  if (cm.max_batch() < 1 || cm.max_batch() > 4096)
    return corrupt("implausible max_batch");
  if (regs.empty()) return corrupt("no registers");
  int64_t total_elems = 0;
  for (const RegInfo& r : regs) {
    if (r.elems < 1 || r.elems > kMaxElemsPerReg)
      return corrupt("register size out of range");
    total_elems += r.elems;
    if (total_elems > kMaxElemsPerReg) return corrupt("registers too large");
  }
  const auto nregs = static_cast<int32_t>(regs.size());
  auto reg = [&](int32_t r) -> const RegInfo& {
    return regs[static_cast<size_t>(r)];
  };
  auto reg_ok = [&](int32_t r) { return r >= 0 && r < nregs; };
  if (regs[0].codes || regs[0].elems != cm.in_elems())
    return corrupt("input register does not match the sample shape");
  if (!reg_ok(out_reg) || reg(out_reg).codes ||
      reg(out_reg).elems != cm.out_elems())
    return corrupt("bad output register");

  // Single assignment, as compile() emits it: an InferenceContext keeps
  // register contents across requests, so a register read before any op
  // wrote it would serve bytes left by the previous request. Register 0
  // holds the request's input.
  std::vector<bool> written(regs.size(), false);
  written[0] = true;
  for (size_t i = 0; i < cm.ops().size(); ++i) {
    const CompiledOp& op = cm.ops()[i];
    auto bad = [&](const char* why) {
      return corrupt("op " + std::to_string(i) + ": " + why);
    };
    if (!reg_ok(op.in0) || !reg_ok(op.out)) return bad("register out of range");
    const RegInfo& rin = reg(op.in0);
    const RegInfo& rout = reg(op.out);
    if (op.kind == OpKind::kAddF32) {
      if (!reg_ok(op.in1)) return bad("register out of range");
    } else if (op.in1 != -1) {
      return bad("unexpected second input");
    }
    if (written[static_cast<size_t>(op.out)])
      return bad("register written twice");
    if (!written[static_cast<size_t>(op.in0)] ||
        (op.in1 != -1 && !written[static_cast<size_t>(op.in1)]))
      return bad("register read before any op wrote it");
    written[static_cast<size_t>(op.out)] = true;
    const bool fused =
        op.kind == OpKind::kConvS8 || op.kind == OpKind::kLinearS8;
    if (!fused && (rin.codes || rout.codes))
      return bad("code register on a non-fused op");
    if (fused) {
      if (op.in_codes != rin.codes || op.emit_codes != rout.codes)
        return bad("code flags disagree with registers");
      if (!valid_grid(op.in_grid) || !valid_grid(op.w_grid))
        return bad("bad quantisation grid");
      if (op.emit_codes && !valid_grid(op.out_grid))
        return bad("bad requant grid");
      if (op.w_max < 1 || op.w_max > 255) return bad("bad weight ceiling");
      if (!op.ch_scale.empty() &&
          op.ch_scale.size() != static_cast<size_t>(op.oc))
        return bad("epilogue scale length");
      if (!op.ch_bias.empty() &&
          op.ch_bias.size() != static_cast<size_t>(op.oc))
        return bad("epilogue bias length");
    }

    int64_t in_span = 0, out_span = 0, weights = 0;
    switch (op.kind) {
      case OpKind::kConvS8: {
        if (op.c < 1 || op.h < 1 || op.w < 1 || op.oc < 1 ||
            op.kernel < 1 || op.kernel > (1 << 14) || op.stride < 1 ||
            op.stride > (1 << 14) || op.padding < 0 ||
            op.padding > (1 << 14) || op.groups < 1)
          return bad("conv geometry out of range");
        if (op.c % op.groups != 0 || op.oc % op.groups != 0)
          return bad("groups do not divide channels");
        const int64_t ph = op.h + 2 * op.padding, pw = op.w + 2 * op.padding;
        if (op.kernel > ph || op.kernel > pw)
          return bad("kernel larger than padded input");
        if (op.oh != (ph - op.kernel) / op.stride + 1 ||
            op.ow != (pw - op.kernel) / op.stride + 1)
          return bad("output geometry inconsistent");
        const int64_t icg = op.c / op.groups;
        int64_t krows = 0;
        if (!mul_ok(op.c, op.h, &in_span) || !mul_ok(in_span, op.w, &in_span) ||
            !mul_ok(op.oc, op.oh, &out_span) ||
            !mul_ok(out_span, op.ow, &out_span) ||
            !mul_ok(icg, op.kernel * op.kernel, &krows) ||
            !mul_ok(op.oc, krows, &weights))
          return bad("conv geometry overflow");
        break;
      }
      case OpKind::kLinearS8: {
        if (op.c < 1 || op.oc < 1) return bad("linear geometry out of range");
        in_span = op.c;
        out_span = op.oc;
        if (!mul_ok(op.oc, op.c, &weights)) return bad("linear overflow");
        break;
      }
      case OpKind::kReluF32:
        in_span = rin.elems;
        out_span = rin.elems;
        break;
      case OpKind::kMaxPoolF32: {
        if (op.c < 1 || op.h < 1 || op.w < 1 || op.kernel < 1 ||
            op.kernel > op.h || op.kernel > op.w)
          return bad("pool geometry out of range");
        if (op.oc != op.c || op.oh != op.h / op.kernel ||
            op.ow != op.w / op.kernel || op.oh < 1 || op.ow < 1)
          return bad("pool output inconsistent");
        if (!mul_ok(op.c, op.h, &in_span) || !mul_ok(in_span, op.w, &in_span) ||
            !mul_ok(op.oc, op.oh, &out_span) ||
            !mul_ok(out_span, op.ow, &out_span))
          return bad("pool geometry overflow");
        break;
      }
      case OpKind::kGapF32: {
        if (op.c < 1 || op.h < 1 || op.w < 1 || op.oc != op.c)
          return bad("gap geometry out of range");
        if (!mul_ok(op.c, op.h, &in_span) || !mul_ok(in_span, op.w, &in_span))
          return bad("gap geometry overflow");
        out_span = op.c;
        break;
      }
      case OpKind::kAddF32: {
        const RegInfo& rin1 = reg(op.in1);
        if (rin1.codes || rin1.elems != rin.elems)
          return bad("add operands disagree");
        in_span = rin.elems;
        out_span = rin.elems;
        break;
      }
      default:
        return bad("unknown op kind");
    }
    if (rin.elems != in_span || rout.elems != out_span)
      return bad("register sizes disagree with geometry");
    if (op.wcodes.size() != static_cast<size_t>(weights))
      return bad("weight codes do not match geometry");
    // The kernels pick byte quads (and VNNI's operand reading) from the
    // declared ceiling alone: one code above it could saturate a quad
    // pair-sum and make the served bits depend on the host's SIMD level.
    if (std::any_of(op.wcodes.begin(), op.wcodes.end(),
                    [&](uint8_t q) { return q > op.w_max; }))
      return bad("weight code above the ceiling");
  }
  if (!written[static_cast<size_t>(out_reg)])
    return corrupt("output register never written");
  return Status::Ok();
}

}  // namespace

// -- InferenceContext -------------------------------------------------------

void InferenceContext::bind(const CompiledModel& model) {
  const auto& regs = model.regs();
  f32_.resize(regs.size());
  u8_.resize(regs.size());
  for (size_t r = 0; r < regs.size(); ++r) {
    const size_t total =
        static_cast<size_t>(regs[r].elems * model.max_batch());
    f32_[r].resize(regs[r].codes ? 0 : total);
    u8_[r].resize(regs[r].codes ? total : 0);
  }
}

// -- CompiledModel ----------------------------------------------------------

CompiledModel CompiledModel::compile(nn::Layer& model,
                                     const Shape& sample_shape,
                                     const CompileOptions& opts) {
  APT_CHECK(opts.max_batch >= 1) << "max_batch must be >= 1";
  Builder b;
  b.new_reg(sample_shape.dims());
  const int32_t out_reg = lower(b, model, 0);
  resolve_code_handoffs(b.ops, b.reg_codes);
  APT_CHECK(!b.reg_codes[static_cast<size_t>(out_reg)])
      << "model output register must be fp32";

  CompiledModel cm;
  cm.sample_shape_ = sample_shape;
  cm.max_batch_ = opts.max_batch;
  cm.in_elems_ = sample_shape.numel();
  cm.out_reg_ = out_reg;
  cm.out_elems_ = dims_numel(b.reg_dims[static_cast<size_t>(out_reg)]);
  cm.regs_.resize(b.reg_dims.size());
  for (size_t r = 0; r < b.reg_dims.size(); ++r)
    cm.regs_[r] = {dims_numel(b.reg_dims[r]), static_cast<bool>(b.reg_codes[r])};
  cm.ops_ = std::move(b.ops);
  bind_plans(cm.ops_, cm.max_batch_);
  return cm;
}

void CompiledModel::run(const float* in, int64_t batch, float* out,
                        InferenceContext& ctx) const {
  APT_CHECK(batch >= 1 && batch <= max_batch_)
      << "batch " << batch << " outside [1, " << max_batch_ << "]";
  ctx.bind(*this);
  // Serial per request: any nested kernel parallel_for runs inline, so
  // the call neither contends with other serving workers nor allocates
  // pool tasks (steady-state zero allocation).
  ThreadPool::InlineScope inline_scope;
  ScratchArena::Scope scope(ScratchArena::thread_local_arena());
  std::memcpy(ctx.f32(0), in,
              static_cast<size_t>(batch * in_elems_) * sizeof(float));
  for (const CompiledOp& op : ops_) {
    const int64_t total =
        batch * regs_[static_cast<size_t>(op.out)].elems;
    switch (op.kind) {
      case OpKind::kConvS8:
        exec_conv(op, batch, ctx, scope);
        break;
      case OpKind::kLinearS8:
        exec_linear(op, batch, ctx, scope);
        break;
      case OpKind::kReluF32:
        exec_relu(op, total, ctx);
        break;
      case OpKind::kMaxPoolF32:
        exec_maxpool(op, batch, ctx);
        break;
      case OpKind::kGapF32:
        exec_gap(op, batch, ctx);
        break;
      case OpKind::kAddF32:
        exec_add(op, total, ctx);
        break;
    }
  }
  std::memcpy(out, ctx.f32(out_reg_),
              static_cast<size_t>(batch * out_elems_) * sizeof(float));
}

Status CompiledModel::try_save(const std::string& path) const {
  io::ArtifactWriter artifact(kMagic, kSchema);
  {
    io::BufWriter w = artifact.section();
    w.pod<int64_t>(max_batch_);
    w.vec<int64_t>(sample_shape_.dims());
    w.pod<int64_t>(out_elems_);
    w.pod<int32_t>(out_reg_);
    w.pod<uint64_t>(regs_.size());
    for (const RegInfo& r : regs_) {
      w.pod<int64_t>(r.elems);
      w.pod<uint8_t>(r.codes ? 1 : 0);
    }
  }
  for (const CompiledOp& op : ops_) {
    io::BufWriter w = artifact.section();
    w.pod<uint8_t>(static_cast<uint8_t>(op.kind));
    w.pod<int32_t>(op.in0);
    w.pod<int32_t>(op.in1);
    w.pod<int32_t>(op.out);
    for (int64_t v : {op.c, op.h, op.w, op.oc, op.oh, op.ow, op.kernel,
                      op.stride, op.padding, op.groups})
      w.pod<int64_t>(v);
    w.pod<uint8_t>(op.in_codes ? 1 : 0);
    w.pod<uint8_t>(op.emit_codes ? 1 : 0);
    w.pod<uint8_t>(op.relu ? 1 : 0);
    w.pod<float>(op.relu_cap);
    w.pod<int32_t>(op.w_max);
    write_grid(w, op.in_grid);
    write_grid(w, op.w_grid);
    write_grid(w, op.out_grid);
    w.vec<double>(op.ch_scale);
    w.vec<float>(op.ch_bias);
    w.vec<uint8_t>(op.wcodes);
  }
  return artifact.write(path);
}

Status CompiledModel::try_load(const std::string& path, CompiledModel* out) {
  io::ArtifactReader artifact;
  Status st = artifact.open(path, kMagic, kSchema);
  if (!st.ok()) return st;
  auto corrupt = [&](const std::string& why) {
    return Status{StatusCode::kCorrupt, path + ": " + why};
  };
  if (artifact.sections() < 1) return corrupt("missing header section");

  CompiledModel cm;
  {
    io::BufReader r = artifact.section(0);
    cm.max_batch_ = r.pod<int64_t>();
    const std::vector<int64_t> dims = r.vec<int64_t>();
    cm.out_elems_ = r.pod<int64_t>();
    cm.out_reg_ = r.pod<int32_t>();
    const auto reg_count = r.pod<uint64_t>();
    if (!r.ok() || reg_count > r.remaining() / 9)
      return corrupt("truncated header section");
    cm.regs_.resize(static_cast<size_t>(reg_count));
    for (RegInfo& reg : cm.regs_) {
      reg.elems = r.pod<int64_t>();
      reg.codes = r.pod<uint8_t>() != 0;
    }
    if (!r.exhausted()) return corrupt("header section size mismatch");
    // Validate before Shape() — its constructor asserts on negatives.
    int64_t numel = 1;
    for (int64_t d : dims) {
      if (d < 1 || numel > kMaxElemsPerReg / d)
        return corrupt("bad sample shape");
      numel *= d;
    }
    if (dims.empty()) return corrupt("bad sample shape");
    cm.sample_shape_ = Shape(dims);
    cm.in_elems_ = numel;
  }

  cm.ops_.resize(artifact.sections() - 1);
  for (size_t i = 0; i < cm.ops_.size(); ++i) {
    io::BufReader r = artifact.section(i + 1);
    auto bad = [&](const char* why) {
      return corrupt("op " + std::to_string(i) + ": " + why);
    };
    CompiledOp& op = cm.ops_[i];
    const auto kind = r.pod<uint8_t>();
    if (!r.ok() || kind > static_cast<uint8_t>(OpKind::kAddF32))
      return bad("unknown kind");
    op.kind = static_cast<OpKind>(kind);
    op.in0 = r.pod<int32_t>();
    op.in1 = r.pod<int32_t>();
    op.out = r.pod<int32_t>();
    for (int64_t* v : {&op.c, &op.h, &op.w, &op.oc, &op.oh, &op.ow,
                       &op.kernel, &op.stride, &op.padding, &op.groups})
      *v = r.pod<int64_t>();
    op.in_codes = r.pod<uint8_t>() != 0;
    op.emit_codes = r.pod<uint8_t>() != 0;
    op.relu = r.pod<uint8_t>() != 0;
    op.relu_cap = r.pod<float>();
    op.w_max = r.pod<int32_t>();
    op.in_grid = read_grid(r);
    op.w_grid = read_grid(r);
    op.out_grid = read_grid(r);
    op.ch_scale = r.vec<double>();
    op.ch_bias = r.vec<float>();
    op.wcodes = r.vec<uint8_t>();
    if (!r.exhausted()) return bad("section size mismatch");
  }

  st = validate_program(path, cm, cm.out_reg_);
  if (!st.ok()) return st;
  bind_plans(cm.ops_, cm.max_batch_);
  *out = std::move(cm);
  return Status::Ok();
}

Status freeze_from_checkpoint(nn::Layer& model,
                              const std::string& checkpoint_path,
                              const std::vector<Tensor>& calibration,
                              CompiledModel* out, const CompileOptions& opts) {
  APT_CHECK(!calibration.empty())
      << "freeze_from_checkpoint needs calibration batches";
  const Status st = io::try_load_checkpoint(model, checkpoint_path);
  if (!st.ok()) return st;

  // Calibration forwards run in training mode (that is where the range
  // trackers observe), which would also advance BatchNorm's running
  // statistics — snapshot and restore them so the freeze folds exactly
  // the checkpoint's stats.
  std::vector<nn::BatchNorm*> bns;
  std::vector<Tensor> means, vars;
  for (nn::Layer* leaf : nn::leaves_of(model)) {
    if (auto* bn = dynamic_cast<nn::BatchNorm*>(leaf)) {
      Tensor mean(Shape{bn->running_mean().numel()});
      Tensor var(Shape{bn->running_var().numel()});
      std::copy(bn->running_mean().data(),
                bn->running_mean().data() + bn->running_mean().numel(),
                mean.data());
      std::copy(bn->running_var().data(),
                bn->running_var().data() + bn->running_var().numel(),
                var.data());
      bns.push_back(bn);
      means.push_back(std::move(mean));
      vars.push_back(std::move(var));
    }
  }
  for (const Tensor& batch : calibration)
    model.forward(batch, /*training=*/true);
  for (size_t i = 0; i < bns.size(); ++i)
    bns[i]->set_running_stats(means[i], vars[i]);

  const auto& dims = calibration.front().shape().dims();
  Shape sample_shape(
      std::vector<int64_t>(dims.begin() + 1, dims.end()));
  *out = CompiledModel::compile(model, sample_shape, opts);
  return Status::Ok();
}

}  // namespace apt::serve
