// Tests for the code-passing activation dataflow (DESIGN.md §11):
// Sequential-driven handoff of QuantizedActivation between int8-eligible
// layers (Conv -> ReLU -> Conv, Linear -> ReLU -> Linear), code-domain
// ReLU semantics, emission/consumption telemetry (per shard), closeness
// to the fp32 reference, bit-determinism across scheduling, backward
// through cached code inputs, and the byte gather helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "backend_guard.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/grid_representation.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "quant/affine.hpp"

namespace apt::nn {
namespace {

void attach_weight_grid(Parameter& p, int bits) {
  core::GridOptions go;
  go.bits = bits;
  p.rep = std::make_shared<core::GridRepresentation>(p, go);
}

struct Chain {
  std::unique_ptr<Sequential> net;
  Conv2d* c1 = nullptr;
  Conv2d* c2 = nullptr;
};

Chain make_conv_chain(uint64_t seed, bool bias = true, float relu_cap =
                          std::numeric_limits<float>::infinity()) {
  Rng rng(seed);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  opts.bias = bias;
  Chain ch;
  ch.net = std::make_unique<Sequential>("chain");
  ch.c1 = ch.net->emplace<Conv2d>("c1", opts, rng);
  ch.net->emplace<ReLU>("relu", relu_cap);
  ch.c2 = ch.net->emplace<Conv2d>("c2", opts, rng);
  attach_weight_grid(ch.c1->weight(), 6);
  attach_weight_grid(ch.c2->weight(), 6);
  return ch;
}

Tensor make_input(uint64_t seed, int64_t n = 2) {
  Rng rng(seed);
  Tensor x(Shape{n, 8, 10, 10});
  rng.fill_normal(x, 0, 1);
  return x;
}

TEST(CodeFlow, ConvChainEmitsAndConsumesAfterWarmup) {
  Chain ch = make_conv_chain(1);
  const Tensor x = make_input(2);
  BackendGuard guard(GemmBackend::kInt8);
  ch.net->forward(x, true);  // warm-up: trackers initialise
  EXPECT_TRUE(ch.c1->last_forward_was_int8());
  EXPECT_FALSE(ch.c1->last_forward_emitted_codes());
  EXPECT_FALSE(ch.c2->last_forward_consumed_codes());
  ch.net->forward(x, true);  // out_range_ is live: codes flow
  EXPECT_TRUE(ch.c1->last_forward_emitted_codes());
  EXPECT_TRUE(ch.c2->last_forward_consumed_codes());
  EXPECT_TRUE(ch.c2->last_forward_was_int8());
  // The tail conv is never asked for codes (nothing consumes them).
  EXPECT_FALSE(ch.c2->last_forward_emitted_codes());
}

TEST(CodeFlow, ChainStaysCloseToFp32Reference) {
  Chain ch = make_conv_chain(3);
  const Tensor x = make_input(4);
  Tensor ref;
  {
    BackendGuard guard(GemmBackend::kPacked);
    ref = ch.net->forward(x, true);
  }
  BackendGuard guard(GemmBackend::kInt8);
  ch.net->forward(x, true);
  const Tensor got = ch.net->forward(x, true);
  ASSERT_TRUE(ch.c2->last_forward_consumed_codes());
  const float spread = ref.max() - ref.min();
  float max_diff = 0.0f;
  for (int64_t i = 0; i < ref.numel(); ++i)
    max_diff = std::max(max_diff, std::fabs(got[i] - ref[i]));
  // Three quantisation points (input 8-bit, intermediate 8-bit, 6-bit
  // weights twice) — a few percent of the output spread bounds it.
  EXPECT_LT(max_diff, 0.05f * spread)
      << "max diff " << max_diff << " spread " << spread;
}

TEST(CodeFlow, ChainForwardBitIdenticalAcrossScheduling) {
  Chain ch = make_conv_chain(5);
  const Tensor x = make_input(6);
  BackendGuard guard(GemmBackend::kInt8);
  ch.net->forward(x, true);
  const Tensor a = ch.net->forward(x, false);  // eval: trackers frozen
  ThreadPool::set_force_serial(true);
  const Tensor b = ch.net->forward(x, false);
  ThreadPool::set_force_serial(false);
  ASSERT_TRUE(ch.c2->last_forward_consumed_codes());
  ASSERT_EQ(a.numel(), b.numel());
  for (int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(CodeFlow, EvalForwardLeavesRangesFrozen) {
  // Evaluation quantises on the grids training chose and never moves
  // them: an eval forward over a wider input leaves every activation
  // tracker bit-identical, while a training forward over it moves them.
  Chain ch = make_conv_chain(21);
  const Tensor x = make_input(22);
  BackendGuard guard(GemmBackend::kInt8);
  ch.net->forward(x, true);
  ch.net->forward(x, true);
  auto ranges = [&] {
    return std::vector<float>{
        ch.c1->activation_range().lo(), ch.c1->activation_range().hi(),
        ch.c2->activation_range().lo(), ch.c2->activation_range().hi()};
  };
  const std::vector<float> trained = ranges();
  Tensor wide = x.clone();
  for (int64_t i = 0; i < wide.numel(); ++i) wide[i] *= 3.0f;
  ch.net->forward(wide, false);
  EXPECT_TRUE(ch.c2->last_forward_consumed_codes());
  EXPECT_EQ(trained, ranges());
  ch.net->forward(wide, true);
  const std::vector<float> moved = ranges();
  EXPECT_LT(moved[0], trained[0]);
  EXPECT_GT(moved[1], trained[1]);
}

TEST(CodeFlow, BackwardRunsThroughCachedCodes) {
  Chain ch = make_conv_chain(7);
  const Tensor x = make_input(8);
  BackendGuard guard(GemmBackend::kInt8);
  ch.net->forward(x, true);
  const Tensor y = ch.net->forward(x, true);
  ASSERT_TRUE(ch.c2->last_forward_consumed_codes());
  Tensor dy(y.shape());
  Rng rng(9);
  rng.fill_normal(dy, 0, 1);
  const Tensor dx = ch.net->backward(dy);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_TRUE(dx.all_finite());
  float dw_norm = 0.0f;
  for (auto* p : ch.net->parameters()) dw_norm += p->grad.norm();
  EXPECT_GT(dw_norm, 0.0f);
}

TEST(CodeFlow, LinearChainPassesCodes) {
  Rng rng(11);
  Sequential net("mlp");
  auto* l1 = net.emplace<Linear>("l1", 12, 16, rng);
  net.emplace<ReLU>("relu");
  auto* l2 = net.emplace<Linear>("l2", 16, 5, rng);
  attach_weight_grid(l1->weight(), 6);
  attach_weight_grid(l2->weight(), 6);
  Tensor x(Shape{4, 12});
  rng.fill_normal(x, 0, 1);
  Tensor ref;
  {
    BackendGuard guard(GemmBackend::kPacked);
    ref = net.forward(x, true);
  }
  BackendGuard guard(GemmBackend::kInt8);
  net.forward(x, true);
  const Tensor got = net.forward(x, true);
  EXPECT_TRUE(l1->last_forward_emitted_codes());
  EXPECT_TRUE(l2->last_forward_consumed_codes());
  const float spread = ref.max() - ref.min();
  for (int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_NEAR(got[i], ref[i], 0.05f * spread) << i;
}

TEST(CodeFlow, BreaksAtNonEligibleLayer) {
  // A BatchNorm between the convs cannot take codes: conv1 must not
  // emit, and everything still works.
  Rng rng(13);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  Sequential net("mixed");
  auto* c1 = net.emplace<Conv2d>("c1", opts, rng);
  net.emplace<BatchNorm>("bn", 8);
  auto* c2 = net.emplace<Conv2d>("c2", opts, rng);
  attach_weight_grid(c1->weight(), 6);
  attach_weight_grid(c2->weight(), 6);
  const Tensor x = make_input(14);
  BackendGuard guard(GemmBackend::kInt8);
  net.forward(x, true);
  net.forward(x, true);
  EXPECT_FALSE(c1->last_forward_emitted_codes());
  EXPECT_FALSE(c2->last_forward_consumed_codes());
  EXPECT_TRUE(c2->last_forward_was_int8());  // still int8, via fp32 hop
}

// ------------------------------------------------- code-domain ReLU

TEST(ReLUCodes, MatchesFp32ReluExactlyForUncappedGrid) {
  quant::QuantParams p = quant::choose_params(-2.0f, 2.0f, 8);
  QuantizedActivation qa;
  qa.params = p;
  qa.shape = Shape{1, 256};
  qa.codes.resize(256);
  for (int i = 0; i < 256; ++i) qa.codes[static_cast<size_t>(i)] =
      static_cast<uint8_t>(i);
  ReLU relu("relu");
  QuantizedActivation qy;
  const Tensor none;
  Tensor out = relu.forward_flow(none, &qa, /*training=*/false,
                                 /*want_codes=*/true, &qy);
  ASSERT_TRUE(qy.valid());
  EXPECT_FALSE(out.defined() && out.numel() > 0);
  const Tensor deq_in = qa.dequantize();
  const Tensor deq_out = qy.dequantize();
  for (int64_t i = 0; i < 256; ++i)
    ASSERT_EQ(std::max(deq_in[i], 0.0f), deq_out[i]) << i;
}

TEST(ReLUCodes, CapClampsToGridFloorAndMasksLikeFp32) {
  quant::QuantParams p = quant::choose_params(-1.0f, 9.0f, 8);
  QuantizedActivation qa;
  qa.params = p;
  qa.shape = Shape{1, 256};
  qa.codes.resize(256);
  for (int i = 0; i < 256; ++i) qa.codes[static_cast<size_t>(i)] =
      static_cast<uint8_t>(i);
  const float cap = 6.0f;
  ReLU relu("relu6", cap);
  QuantizedActivation qy;
  const Tensor none;
  relu.forward_flow(none, &qa, /*training=*/true, true, &qy);
  ASSERT_TRUE(qy.valid());
  const Tensor deq_in = qa.dequantize();
  const Tensor deq_out = qy.dequantize();
  float largest = -1.0f;
  for (int64_t i = 0; i < 256; ++i) {
    ASSERT_LE(deq_out[i], cap) << i;
    ASSERT_GE(deq_out[i], 0.0f) << i;
    if (deq_in[i] <= cap && deq_in[i] >= 0.0f) {
      ASSERT_EQ(deq_in[i], deq_out[i]) << i;  // interior untouched
    }
    largest = std::max(largest, deq_out[i]);
  }
  // The cap lands on the grid point at or just below it.
  EXPECT_GT(largest, cap - static_cast<float>(p.scale) - 1e-6f);
  // Backward mask agrees with the fp32 mask on dequantised values.
  Tensor dy(Shape{1, 256});
  dy.fill(1.0f);
  const Tensor dx = relu.backward(dy);
  for (int64_t i = 0; i < 256; ++i) {
    const bool want = deq_in[i] > 0.0f && deq_in[i] < cap;
    ASSERT_EQ(want ? 1.0f : 0.0f, dx[i]) << "i=" << i << " v=" << deq_in[i];
  }
}

TEST(ReLUCodes, SpecialGradientsMatchReferenceFormulaBitForBit) {
  // Every code (plus a ragged random tail) through the code-domain
  // clamp, and dY full of NaN, +-0, +-inf and subnormals through the
  // code-domain mask: both must memcmp-equal the reference formulas.
  const quant::QuantParams p = quant::choose_params(-1.0f, 9.0f, 8);
  const int64_t n = 300;
  QuantizedActivation qa;
  qa.params = p;
  qa.shape = Shape{1, n};
  qa.codes.resize(static_cast<size_t>(n));
  Rng rng(29);
  for (int64_t i = 0; i < n; ++i)
    qa.codes[static_cast<size_t>(i)] =
        static_cast<uint8_t>(i < 256 ? i : rng.randint(0, 255));
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            0.0f, -0.0f, inf, -inf, den, -den, -1e-39f,
                            1.5f};
  Tensor dy(Shape{1, n});
  for (int64_t i = 0; i < n; ++i) dy.data()[i] = specials[i % 10];

  const int64_t z = p.zero_point, qmax = quant::max_code(p.bits);
  for (const float cap : {inf, 6.0f}) {
    // Reference grid bounds, as the class comment states them.
    int64_t hi = qmax, qhi = qmax + 1;
    if (std::isfinite(cap)) {
      hi = std::min<int64_t>(
          qmax, std::max<int64_t>(
                    z, static_cast<int64_t>(std::floor(cap / p.scale)) + z));
      qhi = std::min<int64_t>(
          qhi, static_cast<int64_t>(std::ceil(cap / p.scale)) + z);
    }
    std::vector<uint8_t> want_q(static_cast<size_t>(n));
    std::vector<float> want_dx(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const int64_t q = qa.codes[static_cast<size_t>(i)];
      want_q[static_cast<size_t>(i)] =
          static_cast<uint8_t>(q < z ? z : (q > hi ? hi : q));
      want_dx[static_cast<size_t>(i)] =
          (q > z && q < qhi) ? dy.data()[i] : 0.0f;
    }
    ReLU relu("r", cap);
    QuantizedActivation qy;
    const Tensor none;
    relu.forward_flow(none, &qa, /*training=*/true, /*want_codes=*/true,
                      &qy);
    ASSERT_TRUE(qy.valid());
    EXPECT_EQ(0, std::memcmp(qy.codes.data(), want_q.data(), want_q.size()))
        << "forward, cap=" << cap;
    const Tensor dx = relu.backward(dy);
    EXPECT_EQ(0, std::memcmp(dx.data(), want_dx.data(),
                             want_dx.size() * sizeof(float)))
        << "backward, cap=" << cap;
  }
}

// ------------------------------------------------- sharded code flow

TEST(CodeFlowSharded, TelemetryIsPerShardSafe) {
  Chain ch = make_conv_chain(17);
  const Tensor x = make_input(18, /*n=*/4);
  BackendGuard guard(GemmBackend::kInt8);
  // Slice the batch into 2 shards by hand.
  auto slice = [&](int64_t b, int64_t e) {
    Tensor t(Shape{e - b, 8, 10, 10});
    std::memcpy(t.data(), x.data() + b * 8 * 10 * 10,
                sizeof(float) * static_cast<size_t>((e - b) * 8 * 10 * 10));
    return t;
  };
  const std::vector<Tensor> xs = {slice(0, 2), slice(2, 4)};
  // Sharded range observation merges AFTER each pass, so engagement
  // lags one step behind the serial path: pass 1 warms act ranges,
  // pass 2 runs int8 and warms out ranges, pass 3 emits codes.
  for (int pass = 0; pass < 3; ++pass) {
    ShardSession session(2, /*worker_cap=*/2);
    ch.net->forward_sharded(xs, true);
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(ch.c1->last_forward_was_int8(s)) << s;
    EXPECT_TRUE(ch.c1->last_forward_emitted_codes(s)) << s;
    EXPECT_TRUE(ch.c2->last_forward_consumed_codes(s)) << s;
  }
}

TEST(CodeFlowSharded, WorkerCountNeverChangesBits) {
  // Same shards, cap 1 (serial reference) vs cap 4: bit-identical
  // outputs and tracker state (codes included).
  const Tensor x = make_input(20, /*n=*/4);
  auto run = [&](int cap) {
    Chain ch = make_conv_chain(19);
    BackendGuard guard(GemmBackend::kInt8);
    auto slice = [&](int64_t b, int64_t e) {
      Tensor t(Shape{e - b, 8, 10, 10});
      std::memcpy(t.data(), x.data() + b * 8 * 10 * 10,
                  sizeof(float) * static_cast<size_t>((e - b) * 8 * 10 * 10));
      return t;
    };
    const std::vector<Tensor> xs = {slice(0, 2), slice(2, 4)};
    std::vector<Tensor> ys;
    for (int pass = 0; pass < 3; ++pass) {
      ShardSession session(2, cap);
      ys = ch.net->forward_sharded(xs, true);
    }
    return ys;
  };
  const std::vector<Tensor> serial = run(1);
  const std::vector<Tensor> pooled = run(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t s = 0; s < serial.size(); ++s)
    for (int64_t i = 0; i < serial[s].numel(); ++i)
      ASSERT_EQ(serial[s][i], pooled[s][i]) << s << ":" << i;
}

// ------------------------------------------------- gather helpers

TEST(StagePaddedU8, PadsEveryChannelPlane) {
  Rng rng(29);
  const int64_t C = 5, H = 4, W = 6, padding = 2;
  const int64_t ph = H + 2 * padding, pw = W + 2 * padding;
  std::vector<uint8_t> planes(static_cast<size_t>(C * H * W));
  for (auto& q : planes) q = static_cast<uint8_t>(rng.randint(1, 255));
  std::vector<uint8_t> a(static_cast<size_t>(C * ph * pw), 0xAA);
  stage_padded_u8(planes.data(), C, H, W, padding, 0, a.data());
  for (int64_t c = 0; c < C; ++c)
    for (int64_t y = 0; y < ph; ++y)
      for (int64_t xx = 0; xx < pw; ++xx) {
        const uint8_t got = a[static_cast<size_t>((c * ph + y) * pw + xx)];
        const bool interior = y >= padding && y < padding + H &&
                              xx >= padding && xx < padding + W;
        const uint8_t want =
            interior ? planes[static_cast<size_t>(
                           (c * H + (y - padding)) * W + (xx - padding))]
                     : 0;
        ASSERT_EQ(want, got) << c << "," << y << "," << xx;
      }
}

}  // namespace
}  // namespace apt::nn
