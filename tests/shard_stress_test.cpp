// Race-stress tier for the sharded execution paths (run under APT_TSAN).
//
// Hammers per-shard Telemetry publication, Linear RangeTracker EMA
// observation (fp32 and integer paths), per-shard ReLU masks, and full
// ShardedStep training steps (fp32 MLP and integer conv net) with
// concurrent shard chunks on a deliberately oversubscribed pool, asserting
// bit-identity against the serial reference (worker cap 1) every
// iteration. Under TSan these runs must produce zero reports; in the
// Release determinism matrix they double as scheduling-independence
// regression tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "backend_guard.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/grid_representation.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/shard.hpp"
#include "train/sgd.hpp"
#include "train/sharded_step.hpp"

namespace apt::nn {
namespace {

// Oversubscribe the global pool before its lazy construction (see
// pool_stress_test.cpp); an explicit APT_NUM_THREADS still wins.
const bool kPoolBootstrap = [] {
  ::setenv("APT_NUM_THREADS", "8", /*overwrite=*/0);
  return true;
}();

std::vector<Tensor> split_rows(const Tensor& x, int64_t shards) {
  const int64_t n = x.dim(0);
  const int64_t grain = (n + shards - 1) / shards;
  const int64_t row = x.numel() / n;
  std::vector<Tensor> out;
  for (int64_t b = 0; b < n; b += grain) {
    const int64_t e = std::min(n, b + grain);
    std::vector<int64_t> dims = x.shape().dims();
    dims[0] = e - b;
    Tensor t{Shape(dims)};
    std::memcpy(t.data(), x.data() + b * row,
                sizeof(float) * static_cast<size_t>((e - b) * row));
    out.push_back(std::move(t));
  }
  return out;
}

void expect_bitwise_equal(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].numel(), b[s].numel()) << what << " shard " << s;
    ASSERT_EQ(0, std::memcmp(a[s].data(), b[s].data(),
                             sizeof(float) * static_cast<size_t>(a[s].numel())))
        << what << " shard " << s;
  }
}

// -------------------------------------------------- Linear telemetry

TEST(ShardStress, LinearTelemetryAndRangePublication) {
  // Per-shard Telemetry slots and the shard-ordered activation-range
  // merge, hammered under concurrent shard chunks. Telemetry must be
  // readable per shard after the (serial-point) return, and the tracker
  // must match the serial reference bit-for-bit.
  ASSERT_TRUE(kPoolBootstrap);
  auto run = [&](int worker_cap, int iters, std::vector<Tensor>* last_ys) {
    Rng rng(11);
    Linear lin("fc", 16, 8, rng);
    for (int it = 0; it < iters; ++it) {
      Tensor x{Shape{24, 16}};
      rng.fill_uniform(x, -1.0f, 1.0f);
      std::vector<Tensor> xs = split_rows(x, 4);
      ShardSession session(4, worker_cap);
      std::vector<Tensor> ys = lin.forward_sharded(xs, /*training=*/true);
      for (int s = 0; s < 4; ++s) {
        // fp32 reference build: the int8 path is off, and no codes were
        // consumed or emitted — per-shard telemetry says exactly that.
        EXPECT_FALSE(lin.last_forward_was_int8(s));
        EXPECT_FALSE(lin.last_forward_consumed_codes(s));
        EXPECT_FALSE(lin.last_forward_emitted_codes(s));
      }
      if (it + 1 == iters && last_ys != nullptr) *last_ys = std::move(ys);
    }
    return std::pair<float, float>{lin.activation_range().lo(),
                                   lin.activation_range().hi()};
  };
  constexpr int kIters = 100;
  std::vector<Tensor> ys_serial, ys_parallel;
  const auto serial = run(1, kIters, &ys_serial);
  const auto parallel = run(8, kIters, &ys_parallel);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  expect_bitwise_equal(ys_serial, ys_parallel, "Linear outputs");
}

TEST(ShardStress, Int8LinearRangeBitIdenticalAcrossWorkerCounts) {
  // The integer forward quantises each shard's input on the grid of the
  // shared activation tracker, which is fed once per batch from the
  // shard-ordered merge of per-shard extrema. A drifting input range
  // moves the tracker every batch, so any shard reading a half-merged
  // tracker, or a merge in completion order, changes the bits.
  ASSERT_TRUE(kPoolBootstrap);
  BackendGuard guard(GemmBackend::kInt8);
  auto run = [&](int worker_cap, int iters,
                 std::vector<std::vector<Tensor>>* outputs) {
    Rng rng(17);
    Linear lin("fc", 16, 8, rng);
    core::GridOptions go;
    go.bits = 6;
    lin.weight().rep =
        std::make_shared<core::GridRepresentation>(lin.weight(), go);
    for (int it = 0; it < iters; ++it) {
      Tensor x{Shape{24, 16}};
      rng.fill_uniform(x, -1.0f - 0.02f * static_cast<float>(it),
                       1.0f + 0.03f * static_cast<float>(it));
      std::vector<Tensor> xs = split_rows(x, 4);
      ShardSession session(4, worker_cap);
      outputs->push_back(lin.forward_sharded(xs, /*training=*/true));
      // The tracker is live from the first batch on, so every later
      // batch must have run the integer path in every shard.
      if (it > 0) {
        for (int s = 0; s < 4; ++s) EXPECT_TRUE(lin.last_forward_was_int8(s));
      }
    }
    return std::pair<float, float>{lin.activation_range().lo(),
                                   lin.activation_range().hi()};
  };
  constexpr int kIters = 60;
  std::vector<std::vector<Tensor>> ys_serial, ys_parallel;
  const auto serial = run(1, kIters, &ys_serial);
  const auto parallel = run(8, kIters, &ys_parallel);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  for (int it = 0; it < kIters; ++it)
    expect_bitwise_equal(ys_serial[static_cast<size_t>(it)],
                         ys_parallel[static_cast<size_t>(it)],
                         "int8 Linear outputs");
}

// ------------------------------------------------------ ReLU masks

TEST(ShardStress, ReluBackwardUsesPerShardMasks) {
  // Each shard's backward must apply the mask its own forward cached,
  // not another shard's: shards see different inputs, so a shared or
  // crossed mask zeroes the wrong gradient entries.
  ASSERT_TRUE(kPoolBootstrap);
  auto run = [&](int worker_cap, uint64_t seed) {
    Rng rng(seed);
    ReLU relu("relu");
    Tensor x{Shape{32, 8}};
    rng.fill_uniform(x, -1.0f, 1.0f);
    Tensor g{Shape{32, 8}};
    rng.fill_uniform(g, -1.0f, 1.0f);
    std::vector<Tensor> xs = split_rows(x, 4);
    std::vector<Tensor> gs = split_rows(g, 4);
    ShardSession session(4, worker_cap);
    relu.forward_sharded(xs, /*training=*/true);
    std::vector<Tensor> dxs = relu.backward_sharded(gs);
    // Reference: dx = g where x > 0, else 0, shard by shard.
    for (size_t s = 0; s < xs.size(); ++s)
      for (int64_t i = 0; i < xs[s].numel(); ++i)
        EXPECT_EQ(dxs[s][i], xs[s][i] > 0.0f ? gs[s][i] : 0.0f)
            << "shard " << s << " element " << i;
    return dxs;
  };
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const std::vector<Tensor> serial = run(1, seed);
    const std::vector<Tensor> parallel = run(8, seed);
    expect_bitwise_equal(serial, parallel, "ReLU backward");
  }
}

// ------------------------------------------------ full training step

TEST(ShardStress, ShardedStepBitIdenticalUnderOversubscription) {
  // End-to-end hammer: an MLP stepped many times with concurrent shard
  // chunks vs the serial reference. Weights must stay bit-identical the
  // whole way (EMA merge + gradient reduction + per-shard ReLU caches
  // all exercised together).
  auto run = [&](int num_workers, int steps) {
    Rng rng(123);
    Sequential net("mlp");
    net.emplace<Linear>("fc1", 12, 16, rng);
    net.emplace<ReLU>("relu");
    net.emplace<Linear>("fc2", 16, 4, rng);

    train::ShardedStepConfig cfg;
    cfg.num_workers = num_workers;
    cfg.shard_grain = 6;  // 24 samples -> 4 shards
    train::ShardedStep step(net, cfg);

    Rng data_rng(9);
    std::vector<double> losses;
    for (int it = 0; it < steps; ++it) {
      data::Batch batch;
      batch.inputs = Tensor{Shape{24, 12}};
      data_rng.fill_uniform(batch.inputs, -1.0f, 1.0f);
      batch.labels.resize(24);
      for (auto& l : batch.labels)
        l = static_cast<int32_t>(data_rng.randint(0, 3));
      for (nn::Parameter* p : net.parameters()) p->grad.fill(0.0f);
      losses.push_back(step.run(batch).mean_loss);
      // SGD-ish update so later steps depend on earlier reductions.
      for (nn::Parameter* p : net.parameters()) {
        float* w = p->value.data();
        const float* g = p->grad.data();
        for (int64_t i = 0; i < p->numel(); ++i) w[i] -= 0.01f * g[i];
      }
    }
    std::vector<std::vector<float>> weights;
    for (nn::Parameter* p : net.parameters())
      weights.emplace_back(p->value.data(), p->value.data() + p->numel());
    return std::pair<std::vector<double>, std::vector<std::vector<float>>>{
        losses, weights};
  };
  constexpr int kSteps = 30;
  const auto serial = run(/*num_workers=*/1, kSteps);
  const auto parallel = run(/*num_workers=*/8, kSteps);
  ASSERT_EQ(serial.first, parallel.first);
  ASSERT_EQ(serial.second, parallel.second);
}

TEST(ShardStress, Int8ConvStepBitIdenticalUnderOversubscription) {
  // The integer training step of a conv net — per-sample GEMM tasks
  // inside concurrent shard chunks, per-shard code caches, the
  // gradient-range merge and the SR-quantised backward — stepped on
  // 6-bit grids with 1 worker and with 8. Losses and every weight code
  // must agree bit for bit the whole way.
  ASSERT_TRUE(kPoolBootstrap);
  BackendGuard guard(GemmBackend::kInt8);
  auto run = [&](int num_workers, int steps) {
    sr_set_step(0);  // the SR stream is keyed by the process-wide step
    Rng rng(321);
    Sequential net("convnet");
    Conv2dOptions o1;
    o1.in_channels = 3;
    o1.out_channels = 8;
    o1.bias = true;
    auto* c1 = net.emplace<Conv2d>("c1", o1, rng);
    net.emplace<ReLU>("relu1");
    Conv2dOptions o2;
    o2.in_channels = 8;
    o2.out_channels = 8;
    auto* c2 = net.emplace<Conv2d>("c2", o2, rng);
    net.emplace<ReLU>("relu2");
    net.emplace<GlobalAvgPool>("gap");
    net.emplace<Flatten>("flat");
    net.emplace<Linear>("fc", 8, 4, rng);
    core::GridOptions go;
    go.bits = 6;
    core::attach_grid(net, go);

    train::ShardedStepConfig cfg;
    cfg.num_workers = num_workers;
    cfg.shard_grain = 4;  // 16 samples -> 4 shards
    train::ShardedStep step(net, cfg);
    train::Sgd sgd(net.parameters(), {});

    Rng data_rng(5);
    std::vector<double> losses;
    for (int it = 0; it < steps; ++it) {
      data::Batch batch;
      batch.inputs = Tensor{Shape{16, 3, 8, 8}};
      data_rng.fill_uniform(batch.inputs, -1.0f, 1.0f);
      batch.labels.resize(16);
      for (auto& l : batch.labels)
        l = static_cast<int32_t>(data_rng.randint(0, 3));
      sgd.zero_grad();
      losses.push_back(step.run(batch).mean_loss);
      sgd.step(0.05);
    }
    // From the second step on both convs run the integer backward.
    EXPECT_TRUE(c1->last_backward_was_int8());
    EXPECT_TRUE(c2->last_backward_was_int8());
    std::vector<std::vector<float>> weights;
    for (nn::Parameter* p : net.parameters())
      weights.emplace_back(p->value.data(), p->value.data() + p->numel());
    return std::pair<std::vector<double>, std::vector<std::vector<float>>>{
        losses, weights};
  };
  constexpr int kSteps = 12;
  const auto serial = run(/*num_workers=*/1, kSteps);
  const auto parallel = run(/*num_workers=*/8, kSteps);
  ASSERT_EQ(serial.first, parallel.first);
  ASSERT_EQ(serial.second, parallel.second);
}

}  // namespace
}  // namespace apt::nn
