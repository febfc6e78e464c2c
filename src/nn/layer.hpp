// Layer interface: explicit forward / backward with cached activations.
//
// There is no general autograd; every layer implements its own backward
// pass (verified against finite differences in tests). `backward` consumes
// the gradient w.r.t. the layer's output, *accumulates* parameter
// gradients into Parameter::grad, and returns the gradient w.r.t. the
// layer's input.
//
// Beyond the plain fp32 forward, layers participate in a code-passing
// dataflow (DESIGN.md §11): an int8-eligible producer can hand its
// output as a `QuantizedActivation` — raw u8 codes plus the affine grid
// they live on — straight to an int8-eligible consumer, eliminating the
// fp32 materialise/re-quantise round-trip between quantised layers.
// Containers drive the handoff through `forward_flow_sharded`; layers
// that know nothing about codes inherit defaults that dequantise on
// demand, so the dataflow is always safe to attempt.
//
// Containers (Sequential, the residual blocks) and BatchNorm implement
// only the sharded passes; their `forward`/`backward` are the one-shard
// call `forward_sharded({x}, t)[0]` / `backward_sharded({g})[0]`. Leaves
// without cross-shard state implement the per-shard `forward`/`backward`
// and inherit sharded defaults that run them under each ShardScope.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/tensor.hpp"
#include "nn/parameter.hpp"
#include "quant/affine.hpp"

namespace apt::nn {

/// A quantised activation plane in flight between layers: unsigned 8-bit
/// codes plus the affine parameters that decode them (value = S(q - Z)).
/// The fp32 view is available on demand — `dequantize()` reproduces the
/// exact values a consumer kernel would compute from the codes.
struct QuantizedActivation {
  std::vector<uint8_t> codes;
  quant::QuantParams params;
  Shape shape{0};

  bool valid() const { return !codes.empty(); }
  void reset() { codes.clear(); }

  Tensor dequantize() const {
    APT_CHECK(valid()) << "dequantize() on an empty QuantizedActivation";
    Tensor t = Tensor::uninitialized(shape);
    quant::dequantize_codes_u8(codes.data(), t.numel(), params, t.data());
    return t;
  }

  /// Exact [min, max] of the dequantised values (one byte sweep).
  std::pair<float, float> value_range() const {
    const auto [lo, hi] =
        quant::minmax_u8(codes.data(), static_cast<int64_t>(codes.size()));
    return {params.dequantize(lo), params.dequantize(hi)};
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x, bool training) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Code-flow capabilities, re-evaluated every forward (they depend on
  /// the backend selection and the weight representation, which the APT
  /// controller moves at runtime). `accepts_codes` means forward_flow
  /// can consume a QuantizedActivation input without materialising
  /// fp32; `codes_transparent` marks cheap code-domain transforms
  /// (ReLU) that only pay off when a downstream sink consumes codes —
  /// containers use it to propagate demand through them.
  virtual bool accepts_codes() const { return false; }
  virtual bool codes_transparent() const { return false; }

  /// Per-shard code-flow forward, the body code-aware leaves implement.
  /// When `qx` is non-null and valid it carries the input instead of `x`
  /// (which may then be undefined). When `want_codes` is set AND the
  /// layer can oblige, it fills `*qy` with its output codes and may
  /// return an undefined Tensor; otherwise it returns the fp32 output as
  /// usual and leaves `*qy` reset. The default dequantises a code input
  /// and delegates to `forward` — correct for every layer, never emits.
  /// Containers do not override it: they chain codes only through
  /// `forward_flow_sharded`.
  virtual Tensor forward_flow(const Tensor& x, const QuantizedActivation* qx,
                              bool training, bool want_codes,
                              QuantizedActivation* qy);

  /// Sharded code-flow forward: `qxs`/`qys` (when non-null) hold one
  /// slot per shard. The default materialises any pending shard codes
  /// and takes the regular `forward_sharded` path (preserving
  /// cross-shard overrides like BatchNorm's), never emits.
  virtual std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys);

  /// Data-parallel entry points: `xs[s]` holds shard s's slice of the
  /// minibatch, and a one-element vector is an unsharded pass. The
  /// default implementations run `forward`/`backward` for every shard
  /// under its ShardScope via shard_parallel (see nn/shard.hpp), which is
  /// correct for any layer whose training caches and gradient
  /// accumulation are shard-slotted. Layers that need a cross-shard
  /// reduction mid-pass (BatchNorm's batch statistics) and containers
  /// that chain children override these as their only implementation;
  /// the chaining happens on the coordinator thread, so every layer
  /// boundary is a synchronisation point and reductions there see all
  /// shards.
  virtual std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                              bool training);
  virtual std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out);

  /// Learnable parameters, if any. Pointers remain valid for the layer's
  /// lifetime (layers own their parameters by value).
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;

  /// Direct sub-layers of composite layers (containers, residual blocks).
  /// Leaf layers return {}.
  virtual std::vector<Layer*> children() { return {}; }

  /// Multiply-accumulate operations per input sample (known after the
  /// first forward pass for shape-dependent layers; 0 before).
  virtual int64_t macs_per_sample() const { return 0; }

  /// Output elements per input sample from the last forward pass (used by
  /// the cost model for activation-traffic accounting; 0 for layers that
  /// do not dominate activation movement).
  virtual int64_t out_elems_per_sample() const { return 0; }

 protected:
  /// Per-shard forward_flow dispatch with the qxs/qys slot plumbing —
  /// the body every code-flow-aware leaf shares. Callers append any
  /// cross-shard merging (tracker EMAs) after it.
  std::vector<Tensor> flow_shard_each(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys);
};

using LayerPtr = std::unique_ptr<Layer>;

/// Depth-first collection of leaf layers (layers with no children).
inline void collect_leaves(Layer& root, std::vector<Layer*>& out) {
  auto kids = root.children();
  if (kids.empty()) {
    out.push_back(&root);
    return;
  }
  for (Layer* k : kids) collect_leaves(*k, out);
}

inline std::vector<Layer*> leaves_of(Layer& root) {
  std::vector<Layer*> out;
  collect_leaves(root, out);
  return out;
}

}  // namespace apt::nn
