// Finite-difference gradient checks for every hand-written backward pass —
// the correctness backbone of the whole training stack. Each layer's
// analytic input and parameter gradients are compared against central
// differences on a randomly probed scalar loss.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "models/blocks.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/grad_check.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"

namespace apt::nn {
namespace {

constexpr double kTol = 5e-3;  // relative; fp32 forward + h=1e-3 centred diff

Tensor random_tensor(Shape shape, Rng& rng, float stddev = 1.0f) {
  Tensor t(std::move(shape));
  rng.fill_normal(t, 0.0f, stddev);
  return t;
}

// Runs a layer once to discover its output shape, then grad-checks.
GradCheckResult check(Layer& layer, const Tensor& x, Rng& rng) {
  const Tensor y = layer.forward(x, true);
  const Tensor probe = random_tensor(y.shape(), rng);
  return grad_check(layer, x, probe);
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear lin("fc", 6, 4, rng);
  const auto r = check(lin, random_tensor(Shape{5, 6}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, LinearNoBias) {
  Rng rng(2);
  Linear lin("fc", 3, 7, rng, /*bias=*/false);
  const auto r = check(lin, random_tensor(Shape{4, 3}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Conv2dBasic) {
  Rng rng(3);
  Conv2dOptions o;
  o.in_channels = 2;
  o.out_channels = 3;
  Conv2d conv("c", o, rng);
  const auto r = check(conv, random_tensor(Shape{2, 2, 6, 6}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Conv2dStride2) {
  Rng rng(4);
  Conv2dOptions o;
  o.in_channels = 3;
  o.out_channels = 4;
  o.stride = 2;
  Conv2d conv("c", o, rng);
  const auto r = check(conv, random_tensor(Shape{2, 3, 8, 8}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Conv2d1x1) {
  Rng rng(5);
  Conv2dOptions o;
  o.in_channels = 4;
  o.out_channels = 2;
  o.kernel = 1;
  o.padding = 0;
  Conv2d conv("c", o, rng);
  const auto r = check(conv, random_tensor(Shape{2, 4, 5, 5}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Conv2dDepthwise) {
  Rng rng(6);
  Conv2dOptions o;
  o.in_channels = 4;
  o.out_channels = 4;
  o.groups = 4;
  Conv2d conv("dw", o, rng);
  const auto r = check(conv, random_tensor(Shape{2, 4, 6, 6}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Conv2dGrouped) {
  Rng rng(7);
  Conv2dOptions o;
  o.in_channels = 6;
  o.out_channels = 4;
  o.groups = 2;
  Conv2d conv("g", o, rng);
  const auto r = check(conv, random_tensor(Shape{1, 6, 5, 5}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Conv2dWithBias) {
  Rng rng(8);
  Conv2dOptions o;
  o.in_channels = 2;
  o.out_channels = 2;
  o.bias = true;
  Conv2d conv("cb", o, rng);
  const auto r = check(conv, random_tensor(Shape{2, 2, 4, 4}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, BatchNorm2d) {
  Rng rng(9);
  BatchNorm bn("bn", 3);
  // Scale/shift away from the identity so the test is not trivial.
  rng.fill_normal(bn.gamma().value, 1.0f, 0.3f);
  rng.fill_normal(bn.beta().value, 0.0f, 0.3f);
  const auto r = check(bn, random_tensor(Shape{4, 3, 3, 3}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, BatchNorm1d) {
  Rng rng(10);
  BatchNorm bn("bn", 5);
  rng.fill_normal(bn.gamma().value, 1.0f, 0.3f);
  const auto r = check(bn, random_tensor(Shape{16, 5}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, ReLU) {
  Rng rng(11);
  ReLU relu("r");
  // Keep values away from the kink (finite differences break at 0).
  Tensor x = random_tensor(Shape{4, 10}, rng);
  for (float& v : x.span())
    if (std::fabs(v) < 0.05f) v = 0.2f;
  const auto r = check(relu, x, rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, ReLU6) {
  Rng rng(12);
  ReLU relu6("r6", 6.0f);
  Tensor x = random_tensor(Shape{4, 10}, rng, 3.0f);
  for (float& v : x.span()) {
    if (std::fabs(v) < 0.05f) v = 0.2f;
    if (std::fabs(v - 6.0f) < 0.05f) v = 5.5f;
  }
  const auto r = check(relu6, x, rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(13);
  GlobalAvgPool gap("gap");
  const auto r = check(gap, random_tensor(Shape{2, 3, 4, 4}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, MaxPool) {
  Rng rng(14);
  MaxPool2d mp("mp", 2);
  // Spread values so the argmax is stable under the probe step.
  Tensor x(Shape{1, 2, 4, 4});
  for (int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(i % 7) + 0.1f * static_cast<float>(i);
  const auto r = check(mp, x, rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, Flatten) {
  Rng rng(15);
  Flatten f("flat");
  const auto r = check(f, random_tensor(Shape{2, 2, 3, 3}, rng), rng);
  EXPECT_LT(r.max_rel_err, kTol) << "worst: " << r.worst;
}

TEST(GradCheck, ResNetBasicBlockIdentity) {
  Rng rng(16);
  auto block = models::make_basic_block("b", 4, 4, /*stride=*/1, rng);
  const auto r = check(*block, random_tensor(Shape{3, 4, 5, 5}, rng), rng);
  EXPECT_LT(r.max_rel_err, 2 * kTol) << "worst: " << r.worst;
}

TEST(GradCheck, ResNetBasicBlockDownsample) {
  Rng rng(17);
  auto block = models::make_basic_block("b", 4, 8, /*stride=*/2, rng);
  const auto r = check(*block, random_tensor(Shape{3, 4, 6, 6}, rng), rng);
  EXPECT_LT(r.max_rel_err, 2 * kTol) << "worst: " << r.worst;
}

TEST(GradCheck, InvertedResidualWithExpansion) {
  Rng rng(18);
  auto block = models::make_inverted_residual("ir", 4, 4, /*stride=*/1,
                                              /*expand=*/2, rng);
  const auto r = check(*block, random_tensor(Shape{3, 4, 5, 5}, rng), rng);
  EXPECT_LT(r.max_rel_err, 2 * kTol) << "worst: " << r.worst;
}

TEST(GradCheck, InvertedResidualNoExpansionStride2) {
  Rng rng(19);
  auto block = models::make_inverted_residual("ir", 4, 6, /*stride=*/2,
                                              /*expand=*/1, rng);
  const auto r = check(*block, random_tensor(Shape{2, 4, 6, 6}, rng), rng);
  EXPECT_LT(r.max_rel_err, 2 * kTol) << "worst: " << r.worst;
}

TEST(GradCheck, SmallSequentialStack) {
  Rng rng(20);
  Sequential net("net");
  net.emplace<Linear>("fc1", 6, 12, rng);
  net.emplace<BatchNorm>("bn", 12);
  net.emplace<Linear>("fc2", 12, 3, rng);
  const auto r = check(net, random_tensor(Shape{8, 6}, rng), rng);
  EXPECT_LT(r.max_rel_err, 2 * kTol) << "worst: " << r.worst;
}

// Sweep conv configurations as a property test.
struct ConvCfg {
  int64_t in, out, kernel, stride, pad, groups, hw;
};

class ConvGradSweep : public ::testing::TestWithParam<ConvCfg> {};

TEST_P(ConvGradSweep, Gradients) {
  const ConvCfg c = GetParam();
  Rng rng(static_cast<uint64_t>(c.in * 31 + c.out * 7 + c.kernel));
  Conv2dOptions o;
  o.in_channels = c.in;
  o.out_channels = c.out;
  o.kernel = c.kernel;
  o.stride = c.stride;
  o.padding = c.pad;
  o.groups = c.groups;
  Conv2d conv("c", o, rng);
  const auto r =
      check(conv, random_tensor(Shape{2, c.in, c.hw, c.hw}, rng), rng);
  // Wider kernels sum more fp32 terms; allow 2x the single-case budget.
  EXPECT_LT(r.max_rel_err, 2 * kTol) << "worst: " << r.worst;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvGradSweep,
    ::testing::Values(ConvCfg{1, 1, 3, 1, 1, 1, 5},
                      ConvCfg{2, 4, 3, 2, 1, 1, 7},
                      ConvCfg{4, 2, 5, 1, 2, 1, 7},
                      ConvCfg{4, 4, 3, 1, 1, 2, 6},
                      ConvCfg{8, 8, 3, 2, 1, 8, 8},
                      ConvCfg{3, 6, 1, 1, 0, 3, 4}));

}  // namespace
}  // namespace apt::nn
