// Tests for the intra-step data-parallel engine: bit-identical results
// across worker counts, BatchNorm's two-pass sharded statistics, hook
// firing, odd batch decompositions, and prefetch-loader determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "backend_guard.hpp"
#include "core/grid_representation.hpp"
#include "data/loader.hpp"
#include "data/spiral.hpp"
#include "models/zoo.hpp"
#include "nn/batchnorm.hpp"
#include "nn/gemm_layer.hpp"
#include "nn/shard.hpp"
#include "nn/softmax_xent.hpp"
#include "train/sgd.hpp"
#include "train/sharded_step.hpp"
#include "train/trainer.hpp"

namespace apt::train {
namespace {

// Splits [N, ...] row-major into contiguous sample slices of `sizes`.
std::vector<Tensor> split_rows(const Tensor& x,
                               const std::vector<int64_t>& sizes) {
  std::vector<Tensor> out;
  const int64_t row = x.numel() / x.dim(0);
  int64_t begin = 0;
  for (int64_t n : sizes) {
    std::vector<int64_t> dims = x.shape().dims();
    dims[0] = n;
    Tensor t{Shape(dims)};
    std::memcpy(t.data(), x.data() + begin * row,
                sizeof(float) * static_cast<size_t>(n * row));
    out.push_back(std::move(t));
    begin += n;
  }
  return out;
}

Tensor concat_rows(const std::vector<Tensor>& xs) {
  std::vector<int64_t> dims = xs.front().shape().dims();
  int64_t total = 0;
  for (const auto& x : xs) total += x.dim(0);
  dims[0] = total;
  Tensor out{Shape(dims)};
  int64_t begin = 0;
  const int64_t row = xs.front().numel() / xs.front().dim(0);
  for (const auto& x : xs) {
    std::memcpy(out.data() + begin * row, x.data(),
                sizeof(float) * static_cast<size_t>(x.numel()));
    begin += x.dim(0);
  }
  return out;
}

struct TrainOutcome {
  History history;
  std::vector<std::vector<float>> weights;  // every parameter, raw values
};

TrainOutcome train_mlp(int num_workers, int64_t shard_grain,
                       int64_t batch = 32, int epochs = 3) {
  Rng rng(77);
  auto model = models::make_mlp(2, {24, 24}, 3, rng);
  const data::TabularSet train =
      data::make_spiral({.points_per_class = 40, .noise = 0.15f, .seed = 5});
  const data::TabularSet test =
      data::make_spiral({.points_per_class = 10, .noise = 0.15f, .seed = 6});
  data::DataLoader loader(train.features, train.labels, batch,
                          /*shuffle=*/true, /*seed=*/11);
  TrainerConfig cfg;
  cfg.epochs = epochs;
  cfg.schedule = StepDecaySchedule(0.05, {2});
  cfg.num_workers = num_workers;
  cfg.shard_grain = shard_grain;
  Trainer trainer(*model, loader, test.features, test.labels, cfg);
  TrainOutcome out{trainer.run(), {}};
  for (auto* p : model->parameters())
    out.weights.emplace_back(p->value.data(), p->value.data() + p->numel());
  return out;
}

// ------------------------------------------- bit-identity across workers

TEST(ShardedTrainer, WorkerCountsBitIdentical) {
  const TrainOutcome serial = train_mlp(/*num_workers=*/1, /*grain=*/8);
  for (int workers : {2, 4}) {
    const TrainOutcome parallel = train_mlp(workers, 8);
    ASSERT_EQ(serial.weights.size(), parallel.weights.size());
    for (size_t p = 0; p < serial.weights.size(); ++p)
      ASSERT_EQ(0, std::memcmp(serial.weights[p].data(),
                               parallel.weights[p].data(),
                               serial.weights[p].size() * sizeof(float)))
          << "weights diverged for parameter " << p << " with " << workers
          << " workers";
    ASSERT_EQ(serial.history.epochs.size(), parallel.history.epochs.size());
    for (size_t e = 0; e < serial.history.epochs.size(); ++e) {
      EXPECT_EQ(serial.history.epochs[e].train_loss,
                parallel.history.epochs[e].train_loss);
      EXPECT_EQ(serial.history.epochs[e].train_accuracy,
                parallel.history.epochs[e].train_accuracy);
      EXPECT_EQ(serial.history.epochs[e].test_accuracy,
                parallel.history.epochs[e].test_accuracy);
    }
  }
}

TEST(ShardedTrainer, OddBatchSizesBitIdentical) {
  // 120 samples in batches of 13: every batch is 13 = 4+4+4+1 shards at
  // grain 4, plus a final ragged batch of 3.
  const TrainOutcome serial =
      train_mlp(/*num_workers=*/1, /*grain=*/4, /*batch=*/13, /*epochs=*/2);
  const TrainOutcome parallel =
      train_mlp(/*num_workers=*/4, /*grain=*/4, /*batch=*/13, /*epochs=*/2);
  for (size_t p = 0; p < serial.weights.size(); ++p)
    ASSERT_EQ(0, std::memcmp(serial.weights[p].data(),
                             parallel.weights[p].data(),
                             serial.weights[p].size() * sizeof(float)));
  EXPECT_EQ(serial.history.epochs.back().train_loss,
            parallel.history.epochs.back().train_loss);
}

// ------------------------------------------------- single-shard == legacy

// One model of SingleShardMatchesPlainBackward: a factory (called twice
// with equal seeds, so both copies start identical) and its input batch.
struct SingleShardModel {
  const char* name;
  std::unique_ptr<nn::Sequential> (*make)(Rng&);
  Shape input;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// A one-shard ShardedStep is the plain forward/backward to the bit: every
// parameter gradient, the loss, and the eval forward of the two models
// after each update agree, for fp32 and for 8-bit grids on the int8
// backend (whose integer backward engages from the second step).
TEST(ShardedStepEngine, SingleShardMatchesPlainBackward) {
  constexpr int64_t kBatch = 12;
  constexpr int kSteps = 3;
  const SingleShardModel cases[] = {
      {"mlp", [](Rng& r) { return models::make_mlp(2, {16}, 3, r); },
       Shape{kBatch, 2}},
      {"resnet",
       [](Rng& r) {
         return models::make_resnet(
             {.n = 1, .base_width = 8, .num_classes = 3}, r);
       },
       Shape{kBatch, 3, 8, 8}},
      {"mobilenet_v2",
       [](Rng& r) {
         return models::make_mobilenet_v2(
             {.width_mult = 0.25, .num_classes = 3, .depth_mult = 0.34}, r);
       },
       Shape{kBatch, 3, 8, 8}},
  };
  for (const SingleShardModel& c : cases) {
    for (const bool int8 : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (int8 ? " int8" : " fp32"));
      nn::BackendGuard backend(int8 ? nn::GemmBackend::kInt8
                                    : nn::GemmBackend::kPacked);
      Rng rng(3);
      auto model = c.make(rng);
      Rng rng2(3);
      auto reference = c.make(rng2);
      if (int8) {
        core::GridOptions go;
        go.bits = 8;
        core::attach_grid(*model, go);
        core::attach_grid(*reference, go);
      }
      Sgd model_opt(model->parameters(), {});
      Sgd reference_opt(reference->parameters(), {});

      data::Batch batch;
      batch.inputs = Tensor(c.input);
      Rng data_rng(9);
      data_rng.fill_normal(batch.inputs, 0, 1);
      for (int64_t i = 0; i < kBatch; ++i)
        batch.labels.push_back(static_cast<int32_t>(i % 3));

      // grain >= batch: one shard, which must take the legacy path exactly.
      ShardedStep engine(*model, {.num_workers = 0, .shard_grain = 64});
      ASSERT_EQ(1, engine.shards_for(kBatch));
      for (int step = 0; step < kSteps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        model_opt.zero_grad();
        reference_opt.zero_grad();
        // The engine advances the stochastic-rounding step; the plain
        // backward right after it draws from the same stream.
        const ShardedStep::Result res = engine.run(batch);

        nn::SoftmaxCrossEntropy loss;
        const Tensor logits =
            reference->forward(batch.inputs, /*training=*/true);
        const float ref_loss = loss.forward(logits, batch.labels);
        reference->backward(loss.backward());

        EXPECT_EQ(static_cast<double>(ref_loss), res.mean_loss);
        auto mp = model->parameters();
        auto rp = reference->parameters();
        ASSERT_EQ(mp.size(), rp.size());
        for (size_t i = 0; i < mp.size(); ++i)
          ASSERT_TRUE(same_bits(mp[i]->grad, rp[i]->grad))
              << "gradient mismatch for " << mp[i]->name;
        if (int8 && step > 0) {
          bool int8_backward = false;
          for (nn::Layer* l : nn::leaves_of(*model))
            if (const auto* g = dynamic_cast<const nn::GemmLayer*>(l))
              int8_backward |= g->last_backward_was_int8();
          EXPECT_TRUE(int8_backward) << "the int8 backward never engaged";
        }

        model_opt.step(0.05);
        reference_opt.step(0.05);
        ASSERT_TRUE(same_bits(model->forward(batch.inputs, false),
                              reference->forward(batch.inputs, false)))
            << "eval forward mismatch";
      }
    }
  }
}

// Outside a session, one shard runs on the calling thread under the
// caller's own ShardScope: a serving thread's eval-scratch slot survives
// every unsharded layer call.
TEST(ShardParallel, OneShardKeepsCallerScope) {
  ASSERT_EQ(nn::shard_count(), 1);
  nn::ShardScope scope(5);
  int calls = 0, seen_index = -1, seen_shard = -1;
  std::thread::id seen_thread;
  nn::shard_parallel(1, [&](int s) {
    ++calls;
    seen_index = s;
    seen_shard = nn::current_shard();
    seen_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_index, 0);
  EXPECT_EQ(seen_shard, 5) << "shard_parallel rebound the caller's scope";
  EXPECT_EQ(seen_thread, std::this_thread::get_id());
  EXPECT_EQ(nn::current_shard(), 5);
}

TEST(ShardedStepEngine, ShardCountIsPureFunctionOfBatchAndGrain) {
  Rng rng(3);
  auto model = models::make_mlp(2, {8}, 3, rng);
  for (int workers : {0, 1, 2, 7}) {
    ShardedStep engine(*model, {.num_workers = workers, .shard_grain = 8});
    EXPECT_EQ(4, engine.shards_for(32));
    EXPECT_EQ(2, engine.shards_for(13));
    EXPECT_EQ(1, engine.shards_for(5));
    // Very large batches raise the grain so the count caps at kMaxShards.
    EXPECT_EQ(nn::kMaxShards, engine.shards_for(32 * nn::kMaxShards));
    EXPECT_LE(engine.shards_for(8 * nn::kMaxShards + 1), nn::kMaxShards);
  }
}

// --------------------------------------------- BatchNorm sharded reduction

TEST(ShardedBatchNorm, StatisticsMatchSerialReference) {
  const int64_t C = 5, N = 12;
  Rng rng(21);
  Tensor x(Shape{N, C, 3, 3});
  rng.fill_normal(x, 0.5, 2.0);

  nn::BatchNorm reference("ref.bn", C);
  const Tensor y_ref = reference.forward(x, /*training=*/true);

  nn::BatchNorm sharded("sh.bn", C);
  std::vector<Tensor> ys;
  {
    nn::ShardSession session(3, /*worker_cap=*/3);
    ys = sharded.forward_sharded(split_rows(x, {5, 4, 3}), true);
  }
  const Tensor y_cat = concat_rows(ys);

  // Whole-batch statistics (not per-shard): near the unsharded reference,
  // up to double-summation grouping.
  for (int64_t c = 0; c < C; ++c) {
    EXPECT_NEAR(reference.batch_mean()[c], sharded.batch_mean()[c], 1e-5);
    EXPECT_NEAR(reference.batch_inv_std()[c], sharded.batch_inv_std()[c],
                1e-4);
    EXPECT_NEAR(reference.running_mean()[c], sharded.running_mean()[c], 1e-5);
    EXPECT_NEAR(reference.running_var()[c], sharded.running_var()[c], 1e-4);
  }
  for (int64_t i = 0; i < x.numel(); ++i)
    ASSERT_NEAR(y_ref[i], y_cat[i], 1e-4) << "normalised output " << i;
}

TEST(ShardedBatchNorm, BackwardMatchesSerialReference) {
  const int64_t C = 4, N = 10;
  Rng rng(22);
  Tensor x(Shape{N, C});
  rng.fill_normal(x, 0, 1.5);
  Tensor dy(Shape{N, C});
  rng.fill_normal(dy, 0, 1);

  nn::BatchNorm reference("ref.bn", C);
  reference.forward(x, true);
  const Tensor dx_ref = reference.backward(dy);

  nn::BatchNorm sharded("sh.bn", C);
  std::vector<Tensor> dxs;
  {
    nn::ShardSession session(4, /*worker_cap=*/4);
    sharded.forward_sharded(split_rows(x, {3, 3, 2, 2}), true);
    dxs = sharded.backward_sharded(split_rows(dy, {3, 3, 2, 2}));
  }
  const Tensor dx_cat = concat_rows(dxs);
  for (int64_t i = 0; i < x.numel(); ++i)
    ASSERT_NEAR(dx_ref[i], dx_cat[i], 1e-4);
  for (int64_t c = 0; c < C; ++c) {
    EXPECT_NEAR(reference.gamma().grad[c], sharded.gamma().grad[c], 1e-4);
    EXPECT_NEAR(reference.beta().grad[c], sharded.beta().grad[c], 1e-4);
  }
}

TEST(ShardedBatchNorm, WorkerCapDoesNotChangeBits) {
  const int64_t C = 3, N = 12;
  Rng rng(23);
  Tensor x(Shape{N, C});
  rng.fill_normal(x, 0, 1);

  std::vector<Tensor> serial, parallel;
  nn::BatchNorm bn1("bn1", C), bn2("bn2", C);
  {
    nn::ShardSession session(3, /*worker_cap=*/1);
    serial = bn1.forward_sharded(split_rows(x, {4, 4, 4}), true);
  }
  {
    nn::ShardSession session(3, /*worker_cap=*/3);
    parallel = bn2.forward_sharded(split_rows(x, {4, 4, 4}), true);
  }
  for (size_t s = 0; s < serial.size(); ++s)
    ASSERT_EQ(0, std::memcmp(serial[s].data(), parallel[s].data(),
                             sizeof(float) * static_cast<size_t>(
                                 serial[s].numel())));
}

// ------------------------------------------------------------ hook counts

struct CountingHook : TrainHook {
  int begins = 0, gradients = 0, epoch_ends = 0;
  void on_train_begin(Trainer&) override { ++begins; }
  void on_gradients(Trainer&, int64_t) override { ++gradients; }
  void on_epoch_end(Trainer&, int) override { ++epoch_ends; }
};

TEST(ShardedTrainer, HooksFireOncePerIteration) {
  Rng rng(31);
  auto model = models::make_mlp(2, {12}, 3, rng);
  const data::TabularSet train =
      data::make_spiral({.points_per_class = 20, .noise = 0.1f, .seed = 2});
  data::DataLoader loader(train.features, train.labels, /*batch=*/16,
                          /*shuffle=*/true, /*seed=*/4);
  TrainerConfig cfg;
  cfg.epochs = 2;
  cfg.num_workers = 4;
  cfg.shard_grain = 4;
  Trainer trainer(*model, loader, train.features, train.labels, cfg);
  CountingHook hook;
  trainer.add_hook(&hook);
  trainer.run();
  EXPECT_EQ(1, hook.begins);
  EXPECT_EQ(cfg.epochs * loader.batches_per_epoch(), hook.gradients);
  EXPECT_EQ(cfg.epochs, hook.epoch_ends);
}

// -------------------------------------------------- prefetch determinism

std::vector<std::vector<int32_t>> collect_labels(data::DataLoader& loader,
                                                 std::vector<Tensor>* inputs) {
  std::vector<std::vector<int32_t>> labels;
  loader.for_each_batch([&](int64_t, const data::Batch& b) {
    labels.push_back(b.labels);
    inputs->push_back(b.inputs.clone());
  });
  return labels;
}

TEST(PrefetchLoader, OrderingIdenticalToSynchronous) {
  const data::TabularSet set =
      data::make_spiral({.points_per_class = 30, .noise = 0.1f, .seed = 13});

  data::DataLoader sync_loader(set.features, set.labels, 16, true, 99);
  sync_loader.set_prefetch(false);
  data::DataLoader pre_loader(set.features, set.labels, 16, true, 99);
  ASSERT_TRUE(pre_loader.prefetch());

  // Two epochs: the RNG stream must stay aligned across epoch boundaries.
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<Tensor> sync_inputs, pre_inputs;
    const auto sync_labels = collect_labels(sync_loader, &sync_inputs);
    const auto pre_labels = collect_labels(pre_loader, &pre_inputs);
    ASSERT_EQ(sync_labels, pre_labels);
    ASSERT_EQ(sync_inputs.size(), pre_inputs.size());
    for (size_t b = 0; b < sync_inputs.size(); ++b)
      ASSERT_EQ(0, std::memcmp(sync_inputs[b].data(), pre_inputs[b].data(),
                               sizeof(float) * static_cast<size_t>(
                                   sync_inputs[b].numel())));
  }
}

TEST(PrefetchLoader, AugmentedOrderingIdenticalToSynchronous) {
  Rng rng(41);
  Tensor images(Shape{24, 3, 8, 8});
  rng.fill_normal(images, 0, 1);
  std::vector<int32_t> labels(24);
  std::iota(labels.begin(), labels.end(), 0);

  data::AugmentConfig aug;  // pad-crop + flip, both RNG-driven
  data::DataLoader sync_loader(images, labels, 10, true, 7, aug);
  sync_loader.set_prefetch(false);
  data::DataLoader pre_loader(images.clone(), labels, 10, true, 7, aug);

  std::vector<Tensor> sync_inputs, pre_inputs;
  const auto sync_labels = collect_labels(sync_loader, &sync_inputs);
  const auto pre_labels = collect_labels(pre_loader, &pre_inputs);
  ASSERT_EQ(sync_labels, pre_labels);
  for (size_t b = 0; b < sync_inputs.size(); ++b)
    ASSERT_EQ(0, std::memcmp(sync_inputs[b].data(), pre_inputs[b].data(),
                             sizeof(float) * static_cast<size_t>(
                                 sync_inputs[b].numel())));
}

}  // namespace
}  // namespace apt::train
