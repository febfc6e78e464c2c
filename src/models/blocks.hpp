// Composite blocks: ResNet BasicBlock and MobileNetV2 InvertedResidual.
//
// Blocks are Layers that own their sub-layers and orchestrate the branch
// topology (shortcut add), so every backbone remains a plain Sequential
// at the top level. Only the sharded passes are written out: the branch
// topology stays on the coordinator while the sub-layers run their own
// sharded passes, and `forward`/`backward` are the one-shard case.
#pragma once

#include <memory>

#include "base/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"

namespace apt::models {

/// ResNet v1 basic block: conv-BN-ReLU-conv-BN + shortcut, final ReLU.
/// Downsampling shortcut (1x1 conv + BN) when stride != 1 or channels grow.
class BasicBlock : public nn::Layer {
 public:
  BasicBlock(std::string name, int64_t in_ch, int64_t out_ch, int64_t stride,
             Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override;
  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override;
  std::vector<nn::Parameter*> parameters() override;
  std::vector<nn::Layer*> children() override;
  std::string name() const override { return name_; }
  int64_t macs_per_sample() const override;

 private:
  std::string name_;
  nn::Conv2d conv1_, conv2_;
  nn::BatchNorm bn1_, bn2_;
  nn::ReLU relu1_, relu2_;
  std::unique_ptr<nn::Conv2d> short_conv_;  // null => identity shortcut
  std::unique_ptr<nn::BatchNorm> short_bn_;
};

/// MobileNetV2 inverted residual: 1x1 expand (ReLU6) -> 3x3 depthwise
/// (ReLU6) -> 1x1 project (linear), with identity shortcut when the block
/// preserves shape. `expand == 1` skips the expansion conv (first block).
class InvertedResidual : public nn::Layer {
 public:
  InvertedResidual(std::string name, int64_t in_ch, int64_t out_ch,
                   int64_t stride, int64_t expand, Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override;
  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override;
  std::vector<nn::Parameter*> parameters() override;
  std::vector<nn::Layer*> children() override;
  std::string name() const override { return name_; }
  int64_t macs_per_sample() const override;

 private:
  std::string name_;
  bool use_residual_;
  std::unique_ptr<nn::Conv2d> expand_conv_;  // null when expand == 1
  std::unique_ptr<nn::BatchNorm> expand_bn_;
  std::unique_ptr<nn::ReLU> expand_relu_;
  nn::Conv2d dw_conv_;
  nn::BatchNorm dw_bn_;
  nn::ReLU dw_relu_;
  nn::Conv2d project_conv_;
  nn::BatchNorm project_bn_;
};

}  // namespace apt::models
