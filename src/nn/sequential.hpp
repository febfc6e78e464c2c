// The two containers every paper backbone is built from: Sequential
// chains children, Residual joins a main and a shortcut Sequential with
// an add. A ResNet basic block is Sequential{Residual, ReLU}; a
// MobileNetV2 inverted residual is a Residual (or a plain Sequential
// when its shape changes).
#pragma once

#include <memory>
#include <utility>

#include "nn/layer.hpp"
#include "nn/shard.hpp"

namespace apt::nn {

class Sequential : public Layer {
 public:
  explicit Sequential(std::string name = "net") : name_(std::move(name)) {}

  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void append(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  // One implementation, the sharded one; the unsharded passes are its
  // one-shard case. Children chain on the calling (coordinator) thread;
  // each child call is a synchronisation point, which is what lets
  // BatchNorm reduce whole-batch statistics mid-network.
  Tensor forward(const Tensor& x, bool training) override {
    return forward_sharded({x}, training)[0];
  }

  Tensor backward(const Tensor& grad_out) override {
    return backward_sharded({grad_out})[0];
  }

  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override {
    return forward_flow_sharded(xs, nullptr, training, false, nullptr);
  }

  /// The container does the code-passing (DESIGN.md §11): each child is
  /// asked to emit codes exactly when a downstream sink will consume
  /// them, with transparent layers (ReLU) forwarding the demand. A
  /// child that cannot oblige simply returns fp32 and the chain resumes
  /// at the next opportunity — the plan is advisory, never load-bearing.
  std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<QuantizedActivation>* qys) override {
    const size_t shards = xs.size();
    if (qys != nullptr)
      for (auto& q : *qys) q.reset();
    const std::vector<uint8_t> want = plan_code_flow(want_codes);
    std::vector<Tensor> hs = xs;
    std::vector<QuantizedActivation> qcur(shards);
    bool codes_live = false;
    if (qxs != nullptr)
      for (size_t s = 0; s < shards; ++s)
        if ((*qxs)[s].valid()) {
          qcur[s] = (*qxs)[s];  // copy: the caller keeps its slots
          codes_live = true;
        }
    for (size_t i = 0; i < layers_.size(); ++i) {
      Layer& l = *layers_[i];
      if (codes_live && !l.accepts_codes()) {
        for (size_t s = 0; s < shards; ++s)
          if (qcur[s].valid()) {
            hs[s] = qcur[s].dequantize();
            qcur[s].reset();
          }
        codes_live = false;
      }
      std::vector<QuantizedActivation> qout(shards);
      hs = l.forward_flow_sharded(hs, codes_live ? &qcur : nullptr, training,
                                  want[i] != 0, &qout);
      codes_live = false;
      for (const auto& q : qout) codes_live |= q.valid();
      qcur = std::move(qout);
    }
    if (codes_live) {
      if (want_codes && qys != nullptr) {
        *qys = std::move(qcur);
        return hs;  // undefined tensors for the emitted shards
      }
      for (size_t s = 0; s < shards; ++s)
        if (qcur[s].valid()) hs[s] = qcur[s].dequantize();
    }
    return hs;
  }

  /// The first child decides whether the container can start from codes.
  bool accepts_codes() const override {
    return !layers_.empty() && layers_.front()->accepts_codes();
  }

  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override {
    std::vector<Tensor> gs = grads_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
      gs = (*it)->backward_sharded(gs);
    return gs;
  }

  std::vector<Parameter*> parameters() override {
    std::vector<Parameter*> ps;
    for (auto& l : layers_)
      for (auto* p : l->parameters()) ps.push_back(p);
    return ps;
  }

  std::string name() const override { return name_; }

  std::vector<Layer*> children() override {
    std::vector<Layer*> out;
    out.reserve(layers_.size());
    for (auto& l : layers_) out.push_back(l.get());
    return out;
  }

  int64_t macs_per_sample() const override {
    int64_t total = 0;
    for (const auto& l : layers_) total += l->macs_per_sample();
    return total;
  }

  size_t size() const { return layers_.size(); }
  Layer& operator[](size_t i) { return *layers_[i]; }
  const std::vector<LayerPtr>& layers() const { return layers_; }

 private:
  /// Per-child emit demand, derived back to front: child i should emit
  /// codes iff its successor consumes them — directly (a code-accepting
  /// sink) or by passing them through a transparent layer whose own
  /// successor does. `tail_want` is the demand beyond the last child
  /// (the container's own want_codes).
  std::vector<uint8_t> plan_code_flow(bool tail_want) const {
    std::vector<uint8_t> want(layers_.size(), 0);
    bool next_want = tail_want;
    for (size_t i = layers_.size(); i-- > 0;) {
      want[i] = next_want ? 1 : 0;
      const Layer& l = *layers_[i];
      next_want =
          l.accepts_codes() && (l.codes_transparent() ? want[i] != 0 : true);
    }
    return want;
  }

  std::string name_;
  std::vector<LayerPtr> layers_;
};

/// y = main(x) + shortcut(x); an empty shortcut is the identity. The
/// join is a fp32 add per shard, so Residual never takes part in code
/// flow: each branch starts from fp32 and returns fp32. Backward runs
/// the main branch, then the shortcut, and adds the shortcut's input
/// gradient into the main branch's.
class Residual : public Layer {
 public:
  explicit Residual(std::string name)
      : name_(std::move(name)),
        main_(name_ + ".main"),
        shortcut_(name_ + ".shortcut") {}

  Sequential& main() { return main_; }
  Sequential& shortcut() { return shortcut_; }

  Tensor forward(const Tensor& x, bool training) override {
    return forward_sharded({x}, training)[0];
  }

  Tensor backward(const Tensor& grad_out) override {
    return backward_sharded({grad_out})[0];
  }

  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override {
    const std::vector<Tensor> a = main_.forward_sharded(xs, training);
    const std::vector<Tensor> b = shortcut_.forward_sharded(xs, training);
    std::vector<Tensor> ys(xs.size());
    shard_parallel(static_cast<int>(xs.size()), [&](int s) {
      const auto su = static_cast<size_t>(s);
      ys[su] = a[su] + b[su];
    });
    return ys;
  }

  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override {
    std::vector<Tensor> gs = main_.backward_sharded(grads_out);
    const std::vector<Tensor> g_short = shortcut_.backward_sharded(grads_out);
    shard_parallel(static_cast<int>(gs.size()), [&](int s) {
      const auto su = static_cast<size_t>(s);
      gs[su] += g_short[su];
    });
    return gs;
  }

  std::vector<Parameter*> parameters() override {
    std::vector<Parameter*> ps = main_.parameters();
    for (auto* p : shortcut_.parameters()) ps.push_back(p);
    return ps;
  }

  std::string name() const override { return name_; }

  /// An empty Sequential has no children and would count as a leaf.
  std::vector<Layer*> children() override {
    if (shortcut_.size() == 0) return {&main_};
    return {&main_, &shortcut_};
  }

  int64_t macs_per_sample() const override {
    return main_.macs_per_sample() + shortcut_.macs_per_sample();
  }

 private:
  std::string name_;
  Sequential main_, shortcut_;
};

}  // namespace apt::nn
