// Tests for the model zoo: shapes, parameter counts, leaf enumeration,
// and forward/backward plumbing of full backbones.
#include <gtest/gtest.h>

#include "models/blocks.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/softmax_xent.hpp"

namespace apt::models {
namespace {

TEST(ResNet, Resnet20HasExpectedStructure) {
  Rng rng(1);
  auto net = make_resnet20(10, rng);
  EXPECT_EQ(net->name(), "resnet20");
  // stem conv+bn, 9 blocks, fc: leaves = 2 + 1(relu) + block leaves +
  // pool + fc.
  // Weighted units: stem conv + stem bn + 9 blocks x (2 conv + 2 bn [+2 ds])
  // + fc. Two stage transitions add a downsample conv+bn each.
  int64_t weighted = 0;
  for (auto* leaf : nn::leaves_of(*net))
    if (!leaf->parameters().empty()) ++weighted;
  EXPECT_EQ(weighted, 2 + 9 * 4 + 2 * 2 + 1);

  // Parameter count close to the canonical ~0.27M for ResNet-20.
  int64_t params = 0;
  for (auto* p : net->parameters()) params += p->numel();
  EXPECT_GT(params, 260000);
  EXPECT_LT(params, 285000);
}

TEST(ResNet, ForwardShape) {
  Rng rng(1);
  auto net = make_resnet({.n = 1, .base_width = 8, .num_classes = 7}, rng);
  Tensor x(Shape{2, 3, 16, 16});
  const Tensor y = net->forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 7}));
}

TEST(ResNet, Resnet110Constructs) {
  Rng rng(1);
  auto net = make_resnet110(100, rng, /*width=*/4);
  // Each basic block is Sequential{Residual, ReLU}.
  int64_t blocks = 0;
  for (const auto& l : net->layers()) {
    const std::vector<nn::Layer*> kids = l->children();
    if (!kids.empty() && dynamic_cast<nn::Residual*>(kids.front())) ++blocks;
  }
  EXPECT_EQ(blocks, 54);  // 3 stages x 18
}

TEST(ResNet, TrainStepReducesLoss) {
  Rng rng(1);
  auto net = make_resnet({.n = 1, .base_width = 4, .num_classes = 3}, rng);
  Tensor x(Shape{6, 3, 8, 8});
  rng.fill_normal(x, 0, 1);
  const std::vector<int32_t> labels = {0, 1, 2, 0, 1, 2};
  nn::SoftmaxCrossEntropy loss;

  auto step = [&]() {
    for (auto* p : net->parameters()) p->zero_grad();
    const Tensor logits = net->forward(x, true);
    const float l = loss.forward(logits, labels);
    net->backward(loss.backward());
    for (auto* p : net->parameters()) {
      for (int64_t i = 0; i < p->numel(); ++i)
        p->value[i] -= 0.05f * p->grad[i];
    }
    return l;
  };
  const float first = step();
  float last = first;
  for (int i = 0; i < 10; ++i) last = step();
  EXPECT_LT(last, first * 0.8f) << "plain SGD should overfit 6 samples";
}

TEST(MobileNetV2, ForwardShapeAndDepthwisePresence) {
  Rng rng(1);
  auto net = make_mobilenet_v2({.width_mult = 0.5, .num_classes = 10}, rng);
  Tensor x(Shape{2, 3, 16, 16});
  const Tensor y = net->forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));

  bool found_depthwise = false;
  for (auto* leaf : nn::leaves_of(*net))
    if (auto* conv = dynamic_cast<nn::Conv2d*>(leaf))
      if (conv->options().groups > 1) found_depthwise = true;
  EXPECT_TRUE(found_depthwise);
}

TEST(MobileNetV2, WidthMultScalesParams) {
  Rng rng(1);
  auto small = make_mobilenet_v2({.width_mult = 0.25}, rng);
  auto big = make_mobilenet_v2({.width_mult = 1.0}, rng);
  int64_t ps = 0, pb = 0;
  for (auto* p : small->parameters()) ps += p->numel();
  for (auto* p : big->parameters()) pb += p->numel();
  EXPECT_LT(ps * 4, pb);
}

TEST(CifarNet, ForwardShape) {
  Rng rng(1);
  auto net = make_cifarnet({.num_classes = 10}, rng);
  Tensor x(Shape{2, 3, 32, 32});
  const Tensor y = net->forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(Mlp, ForwardShapeAndBackward) {
  Rng rng(1);
  auto net = make_mlp(4, {16, 8}, 3, rng);
  Tensor x(Shape{5, 4});
  rng.fill_normal(x, 0, 1);
  const Tensor y = net->forward(x, true);
  EXPECT_EQ(y.shape(), Shape({5, 3}));
  const Tensor dx = net->backward(Tensor(Shape{5, 3}));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Blocks, BasicBlockIdentityShortcutSharesGradient) {
  Rng rng(1);
  auto block = make_basic_block("b", 4, 4, 1, rng);
  EXPECT_EQ(nn::leaves_of(*block).size(), 6u);  // no downsample layers
  auto down = make_basic_block("d", 4, 8, 2, rng);
  EXPECT_EQ(nn::leaves_of(*down).size(), 8u);  // + shortcut conv/bn
}

TEST(Blocks, MacsAccounting) {
  Rng rng(1);
  auto block = make_basic_block("b", 4, 4, 1, rng);
  Tensor x(Shape{1, 4, 8, 8});
  block->forward(x, false);
  // conv1: 4*8*8*4*9, conv2 same.
  EXPECT_EQ(block->macs_per_sample(), 2 * 4 * 8 * 8 * 4 * 9);
}

TEST(Blocks, InvertedResidualResidualCondition) {
  Rng rng(1);
  // stride 1 and in == out -> residual applies; output differs from the
  // pure branch output by exactly x.
  auto ir = make_inverted_residual("ir", 4, 4, 1, 2, rng);
  EXPECT_NE(dynamic_cast<nn::Residual*>(ir.get()), nullptr);
  Tensor x(Shape{2, 4, 6, 6});
  rng.fill_normal(x, 0, 1);
  const Tensor with = ir->forward(x, false);

  // in != out: no residual
  auto ir2 = make_inverted_residual("ir2", 4, 6, 1, 2, rng);
  EXPECT_EQ(dynamic_cast<nn::Residual*>(ir2.get()), nullptr);
  const Tensor without = ir2->forward(x, false);
  EXPECT_EQ(without.shape(), Shape({2, 6, 6, 6}));
  EXPECT_EQ(with.shape(), x.shape());
}

TEST(Models, UniqueParameterNames) {
  Rng rng(1);
  auto net = make_resnet20(10, rng, 8);
  std::set<std::string> names;
  for (auto* p : net->parameters()) {
    EXPECT_TRUE(names.insert(p->name).second) << "duplicate: " << p->name;
  }
}

}  // namespace
}  // namespace apt::models
