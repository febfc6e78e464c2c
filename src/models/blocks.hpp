// Composite blocks: ResNet BasicBlock and MobileNetV2 InvertedResidual,
// built from the nn containers (Sequential + Residual). The containers
// run the passes, so a block is only its topology; compile() lowers it
// like any other Sequential.
#pragma once

#include <string>

#include "base/rng.hpp"
#include "nn/sequential.hpp"

namespace apt::models {

/// ResNet v1 basic block: Sequential{Residual{conv1-bn1-relu1-conv2-bn2,
/// shortcut}, relu2}. The shortcut is a 1x1 conv + BN when stride != 1
/// or channels grow, and the identity otherwise.
std::unique_ptr<nn::Sequential> make_basic_block(const std::string& name,
                                                 int64_t in_ch, int64_t out_ch,
                                                 int64_t stride, Rng& rng);

/// MobileNetV2 inverted residual: 1x1 expand (ReLU6) -> 3x3 depthwise
/// (ReLU6) -> 1x1 project (linear). A Residual with an identity shortcut
/// when the block preserves shape, a plain Sequential otherwise.
/// `expand == 1` skips the expansion conv (first block).
nn::LayerPtr make_inverted_residual(const std::string& name, int64_t in_ch,
                                    int64_t out_ch, int64_t stride,
                                    int64_t expand, Rng& rng);

}  // namespace apt::models
