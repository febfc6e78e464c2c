// Tests for the training substrate: schedules, SGD + representations,
// baselines (master copy, TernGrad), metrics, and Trainer bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/grid_representation.hpp"
#include "data/loader.hpp"
#include "data/spiral.hpp"
#include "models/zoo.hpp"
#include "nn/linear.hpp"
#include "train/baselines.hpp"
#include "train/metrics.hpp"
#include "train/schedule.hpp"
#include "train/trainer.hpp"

namespace apt::train {
namespace {

// -------------------------------------------------------------- schedule

TEST(Schedule, PaperCifar10Recipe) {
  StepDecaySchedule s(0.1, {100, 150});
  EXPECT_DOUBLE_EQ(s.lr_at(0), 0.1);
  EXPECT_DOUBLE_EQ(s.lr_at(99), 0.1);
  EXPECT_NEAR(s.lr_at(100), 0.01, 1e-12);
  EXPECT_NEAR(s.lr_at(150), 0.001, 1e-12);
  EXPECT_NEAR(s.lr_at(199), 0.001, 1e-12);
}

TEST(Schedule, PaperCifar100WarmupRecipe) {
  StepDecaySchedule s(0.1, {100, 150}, 0.1, /*warmup_epochs=*/2,
                      /*warmup_lr=*/0.01);
  EXPECT_DOUBLE_EQ(s.lr_at(0), 0.01);
  EXPECT_DOUBLE_EQ(s.lr_at(1), 0.01);
  EXPECT_DOUBLE_EQ(s.lr_at(2), 0.1);
}

TEST(Schedule, ScaledPreservesShape) {
  StepDecaySchedule s(0.1, {100, 150});
  StepDecaySchedule half = s.scaled(0.2);  // 200-epoch recipe -> 40 epochs
  EXPECT_DOUBLE_EQ(half.lr_at(19), 0.1);
  EXPECT_NEAR(half.lr_at(20), 0.01, 1e-12);
  EXPECT_NEAR(half.lr_at(30), 0.001, 1e-12);
}

TEST(Schedule, RejectsBadParams) {
  EXPECT_THROW(StepDecaySchedule(0.0, {}), CheckError);
  EXPECT_THROW(StepDecaySchedule(0.1, {}, 0.0), CheckError);
}

// --------------------------------------------------------------- metrics

TEST(MovingAverage, FirstObservationInitialises) {
  MovingAverage ma(0.9);
  EXPECT_FALSE(ma.initialized());
  ma.observe(10.0);
  EXPECT_DOUBLE_EQ(ma.value(), 10.0);
  ma.observe(0.0);
  EXPECT_DOUBLE_EQ(ma.value(), 9.0);
}

TEST(MovingAverage, ZeroMomentumTracksLastValue) {
  MovingAverage ma(0.0);
  ma.observe(1.0);
  ma.observe(7.0);
  EXPECT_DOUBLE_EQ(ma.value(), 7.0);
}

TEST(History, EnergyToReach) {
  History h;
  for (int e = 0; e < 3; ++e) {
    EpochStats s;
    s.epoch = e;
    s.test_accuracy = 0.3 * (e + 1);
    s.cumulative_energy_j = 1.0 * (e + 1);
    h.epochs.push_back(s);
  }
  EXPECT_DOUBLE_EQ(h.energy_to_reach(0.55), 2.0);
  EXPECT_DOUBLE_EQ(h.energy_to_reach(0.1), 1.0);
  EXPECT_LT(h.energy_to_reach(0.99), 0.0);  // never reached
  EXPECT_DOUBLE_EQ(h.best_test_accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(h.final_test_accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(h.total_energy_j(), 3.0);
}

// ------------------------------------------------------------------- SGD

nn::Parameter* single_param(nn::Sequential& net) {
  return net.parameters().front();
}

TEST(Sgd, PlainStepMatchesManual) {
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 2, 1, rng, /*bias=*/false);
  nn::Parameter* w = single_param(net);
  w->value[0] = 1.0f;
  w->value[1] = 2.0f;
  Sgd sgd(net.parameters(), {.momentum = 0.0, .weight_decay = 0.0});
  w->grad[0] = 0.5f;
  w->grad[1] = -0.5f;
  sgd.step(0.1);
  EXPECT_NEAR(w->value[0], 0.95f, 1e-6);
  EXPECT_NEAR(w->value[1], 2.05f, 1e-6);
}

TEST(Sgd, MomentumAccumulates) {
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 1, 1, rng, /*bias=*/false);
  nn::Parameter* w = single_param(net);
  w->value[0] = 0.0f;
  Sgd sgd(net.parameters(), {.momentum = 0.5, .weight_decay = 0.0});
  w->grad[0] = 1.0f;
  sgd.step(1.0);  // v=1, w=-1
  w->grad[0] = 1.0f;
  sgd.step(1.0);  // v=1.5, w=-2.5
  EXPECT_NEAR(w->value[0], -2.5f, 1e-6);
}

TEST(Sgd, WeightDecayOnlyWhereFlagged) {
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 1, 1, rng, /*bias=*/true);
  auto params = net.parameters();
  nn::Parameter* w = params[0];
  nn::Parameter* b = params[1];
  ASSERT_TRUE(w->decay);
  ASSERT_FALSE(b->decay);  // paper recipe: no decay on biases
  w->value[0] = 1.0f;
  b->value[0] = 1.0f;
  Sgd sgd(params, {.momentum = 0.0, .weight_decay = 0.1});
  w->grad[0] = 0.0f;
  b->grad[0] = 0.0f;
  sgd.step(1.0);
  EXPECT_NEAR(w->value[0], 0.9f, 1e-6);   // decayed
  EXPECT_NEAR(b->value[0], 1.0f, 1e-6);   // untouched
}

TEST(Sgd, ZeroGradClears) {
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 2, 2, rng);
  Sgd sgd(net.parameters(), {});
  for (auto* p : net.parameters()) p->grad.fill(3.0f);
  sgd.zero_grad();
  for (auto* p : net.parameters())
    for (float g : p->grad.span()) EXPECT_EQ(g, 0.0f);
}

TEST(Sgd, QuantisedParamsReportUnderflow) {
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 8, 8, rng, /*bias=*/false);
  core::GridOptions go;
  go.bits = 3;  // huge ε
  core::attach_grid(net, go);
  Sgd sgd(net.parameters(), {.momentum = 0.0, .weight_decay = 0.0});
  for (auto* p : net.parameters()) p->grad.fill(1e-6f);
  const quant::UpdateStats s = sgd.step(0.1);
  EXPECT_EQ(s.underflowed, 64);
  EXPECT_EQ(s.moved, 0);
}

TEST(Sgd, GradTransformApplied) {
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 1, 1, rng, /*bias=*/false);
  nn::Parameter* w = single_param(net);
  w->value[0] = 0.0f;
  // Transform that zeroes all gradients: weight must not move.
  Sgd sgd(net.parameters(), {.momentum = 0.0, .weight_decay = 0.0},
          [](const nn::Parameter&, Tensor& g) { g.fill(0.0f); });
  w->grad[0] = 5.0f;
  sgd.step(0.1);
  EXPECT_EQ(w->value[0], 0.0f);
}

TEST(Sgd, StepsLandOnQuantisedGrid) {
  // Momentum and decay compose the step in float; the grid
  // representation decides where it lands, so every value stays a grid
  // point S(q - Z) after each step.
  Rng rng(1);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 4, 4, rng, /*bias=*/false);
  core::GridOptions go;
  go.bits = 5;
  core::attach_grid(net, go);
  Sgd sgd(net.parameters(), {});
  nn::Parameter* w = single_param(net);
  Rng grng(2);
  for (int i = 0; i < 3; ++i) {
    grng.fill_normal(w->grad, 0.0f, 1.0f);
    sgd.step(0.05);
  }
  const auto* rep = dynamic_cast<core::GridRepresentation*>(w->rep.get());
  ASSERT_NE(rep, nullptr);
  const auto& qp = rep->codes().params();
  for (int64_t i = 0; i < w->numel(); ++i) {
    const double steps =
        w->value[i] / qp.scale + static_cast<double>(qp.zero_point);
    EXPECT_NEAR(steps, std::round(steps), 1e-3) << "i=" << i;
  }
}

TEST(Sgd, WeightDecayShrinksQuantisedWeightsOnGrid) {
  // Zero gradient, decay only: δ = lr·wd·w, truncated onto the grid
  // toward zero. Each weight keeps its sign and ends between
  // (1 - lr·wd)·w and w; where |δ| reaches ε it strictly shrinks.
  Rng rng(3);
  nn::Parameter p("w", Shape{64});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  core::GridOptions go;
  go.bits = 6;
  auto rep = std::make_shared<core::GridRepresentation>(p, go);
  p.rep = rep;
  const Tensor before = p.value.clone();
  Sgd sgd({&p}, {.momentum = 0.0, .weight_decay = 0.5});
  sgd.step(1.0);
  const double eps = rep->epsilon();
  const auto& qp = rep->codes().params();
  int shrunk = 0;
  for (int64_t i = 0; i < 64; ++i) {
    const float b = before[i], a = p.value[i];
    EXPECT_LE(std::fabs(a), std::fabs(b)) << "i=" << i;
    EXPECT_GE(std::fabs(a), 0.5f * std::fabs(b) - 1e-6f) << "i=" << i;
    EXPECT_GE(a * b, 0.0f) << "sign flipped at i=" << i;
    if (0.5 * std::fabs(b) >= eps) {
      EXPECT_LT(std::fabs(a), std::fabs(b)) << "i=" << i;
      ++shrunk;
    }
    const double steps = a / qp.scale + static_cast<double>(qp.zero_point);
    EXPECT_NEAR(steps, std::round(steps), 1e-3) << "i=" << i;
  }
  EXPECT_GT(shrunk, 32);
}

TEST(Sgd, VelocityAccumulatesThroughUnderflowedSteps) {
  // The velocity lives outside the grid: a constant gradient whose
  // single step lr·g = 0.2ε underflows still builds velocity
  // v_n = g(1 - 0.9^n)/0.1, and the step lr·v_n first reaches ε at n = 7.
  nn::Parameter p("w", Shape{2});
  p.value[0] = 0.5f;
  p.value[1] = -0.5f;
  core::GridOptions go;
  go.bits = 6;
  auto rep = std::make_shared<core::GridRepresentation>(p, go);
  p.rep = rep;
  const double eps = rep->epsilon();
  const double lr = 0.1;
  Sgd sgd({&p}, {.momentum = 0.9, .weight_decay = 0.0});
  const Tensor start = p.value.clone();
  for (int n = 1; n <= 6; ++n) {
    p.grad.fill(static_cast<float>(0.2 * eps / lr));
    const quant::UpdateStats s = sgd.step(lr);
    EXPECT_EQ(s.underflowed, 2) << "step " << n;
    EXPECT_EQ(s.moved, 0) << "step " << n;
  }
  EXPECT_EQ(p.value[0], start[0]);
  EXPECT_EQ(p.value[1], start[1]);
  p.grad.fill(static_cast<float>(0.2 * eps / lr));
  const quant::UpdateStats s = sgd.step(lr);
  EXPECT_EQ(s.moved, 2);
  EXPECT_NEAR(p.value[0], start[0] - eps, 1e-6);
  EXPECT_NEAR(p.value[1], start[1] - eps, 1e-6);
}

TEST(Sgd, StepLeavesGradientsIntact) {
  // Decay and the gradient transform work on the optimiser's scratch
  // copy: after a step, every parameter's grad holds what backward
  // accumulated, bit for bit.
  Rng rng(4);
  nn::Sequential net("n");
  net.emplace<nn::Linear>("fc", 4, 3, rng);
  std::vector<Tensor> grads;
  for (auto* p : net.parameters()) {
    rng.fill_normal(p->grad, 0.0f, 1.0f);
    grads.push_back(p->grad.clone());
  }
  Sgd sgd(net.parameters(), {.momentum = 0.9, .weight_decay = 0.1},
          make_terngrad_transform(7));
  sgd.step(0.1);
  const auto params = net.parameters();
  for (size_t i = 0; i < params.size(); ++i)
    EXPECT_EQ(0, std::memcmp(params[i]->grad.data(), grads[i].data(),
                             sizeof(float) *
                                 static_cast<size_t>(grads[i].numel())))
        << params[i]->name;
}

TEST(Sgd, RejectsGradShapeMismatch) {
  nn::Parameter p("w", Shape{4});
  p.grad = Tensor(Shape{5});
  EXPECT_THROW(Sgd({&p}, {}), CheckError);
}

// -------------------------------------------------------------- baselines

TEST(MasterCopy, AbsorbsSubEpsilonUpdates) {
  // The defining difference from GridRepresentation: tiny steps accumulate
  // in the fp32 master and eventually surface in the quantised view.
  nn::Parameter p("w", Shape{1});
  p.value[0] = 0.0f;
  auto rep = std::make_shared<MasterCopyRepresentation>(p, 4);
  p.rep = rep;
  Tensor step(Shape{1});
  step.fill(-1e-3f);
  float before = p.value[0];
  bool moved = false;
  for (int i = 0; i < 2000 && !moved; ++i) {
    rep->apply_step(p, step);
    moved = p.value[0] != before;
  }
  EXPECT_TRUE(moved) << "master copy must accumulate sub-ε progress";
}

TEST(MasterCopy, MemoryIncludesMaster) {
  nn::Parameter p("w", Shape{100});
  auto rep = std::make_shared<MasterCopyRepresentation>(p, 8);
  EXPECT_EQ(rep->memory_bits(p), 100 * (32 + 8));
}

TEST(MasterCopy, ViewStaysOnGrid) {
  Rng rng(1);
  nn::Parameter p("w", Shape{32});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  auto rep = std::make_shared<MasterCopyRepresentation>(p, 4);
  p.rep = rep;
  Tensor step(Shape{32});
  rng.fill_normal(step, 0.0f, 0.05f);
  rep->apply_step(p, step);
  // At 4 bits the view can take at most 16 distinct values.
  std::set<float> distinct(p.value.span().begin(), p.value.span().end());
  EXPECT_LE(distinct.size(), 16u);
}

TEST(MasterCopy, AttachHelperCoversModel) {
  Rng rng(1);
  auto net = models::make_mlp(4, {8}, 2, rng);
  attach_master_copy(*net, 8);
  for (auto* p : net->parameters()) {
    ASSERT_TRUE(p->rep);
    EXPECT_EQ(p->rep->bits(), 8);
    EXPECT_GT(p->rep->memory_bits(*p), 32 * p->numel());
  }
}

TEST(TernGrad, OutputIsTernary) {
  GradTransform tg = make_terngrad_transform(7);
  nn::Parameter p("w", Shape{64});
  Rng rng(1);
  Tensor g(Shape{64});
  rng.fill_normal(g, 0.0f, 1.0f);
  const float s = g.abs_max();
  tg(p, g);
  for (float v : g.span()) {
    EXPECT_TRUE(v == 0.0f || std::fabs(std::fabs(v) - s) < 1e-6)
        << "not ternary: " << v;
  }
}

TEST(TernGrad, UnbiasedInExpectation) {
  GradTransform tg = make_terngrad_transform(7);
  nn::Parameter p("w", Shape{1});
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Tensor g(Shape{1}, {0.3f});
    // abs_max == 0.3 -> P(keep) = 1; vary by adding a second element.
    Tensor g2(Shape{2}, {0.3f, 1.0f});
    nn::Parameter p2("w", Shape{2});
    tg(p2, g2);
    sum += g2[0];
  }
  EXPECT_NEAR(sum / n, 0.3, 0.02);
}

TEST(TernGrad, ZeroGradUntouched) {
  GradTransform tg = make_terngrad_transform(7);
  nn::Parameter p("w", Shape{4});
  Tensor g(Shape{4});
  tg(p, g);
  for (float v : g.span()) EXPECT_EQ(v, 0.0f);
}

// ---------------------------------------------------------------- Trainer

TEST(Trainer, UnitsMatchWeightedLeavesAndBitsDefault32) {
  Rng rng(1);
  auto net = models::make_mlp(2, {8}, 2, rng);
  const data::TabularSet set = data::make_spiral({.points_per_class = 8});
  data::DataLoader loader(set.features, set.labels, 8, true, 1);
  TrainerConfig cfg;
  cfg.epochs = 1;
  Trainer trainer(*net, loader, set.features, set.labels, cfg);
  // fc0 (w,b), bn (gamma,beta), head (w,b) -> 3 units.
  EXPECT_EQ(trainer.units().size(), 3u);
  for (const auto& u : trainer.units()) {
    EXPECT_EQ(Trainer::unit_bits(u), 32);
    EXPECT_FALSE(Trainer::unit_has_master(u));
  }
  EXPECT_GT(trainer.model_memory_bits(), 0.0);
}

TEST(Trainer, RunProducesConsistentHistory) {
  Rng rng(1);
  auto net = models::make_mlp(2, {16}, 3, rng);
  const data::TabularSet set = data::make_spiral({.points_per_class = 32});
  data::DataLoader loader(set.features, set.labels, 16, true, 1);
  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.schedule = StepDecaySchedule(0.05, {});
  Trainer trainer(*net, loader, set.features, set.labels, cfg);
  const History h = trainer.run();
  ASSERT_EQ(h.epochs.size(), 3u);
  EXPECT_EQ(h.unit_names.size(), trainer.units().size());
  // Energy strictly accumulates; memory constant for fp32.
  EXPECT_GT(h.epochs[0].cumulative_energy_j, 0.0);
  EXPECT_LT(h.epochs[0].cumulative_energy_j, h.epochs[2].cumulative_energy_j);
  EXPECT_EQ(h.epochs[0].model_memory_bits, h.epochs[2].model_memory_bits);
  // fp32 training never underflows.
  for (const auto& e : h.epochs) EXPECT_EQ(e.underflow_fraction, 0.0);
  // Bits recorded as 32 everywhere.
  for (int b : h.epochs[0].unit_bits) EXPECT_EQ(b, 32);
}

TEST(Trainer, LearnsSpiralFp32) {
  Rng rng(1);
  auto net = models::make_mlp(2, {32, 32}, 3, rng);
  const data::TabularSet train_set =
      data::make_spiral({.points_per_class = 128, .noise = 0.05f, .seed = 3});
  const data::TabularSet test_set =
      data::make_spiral({.points_per_class = 64, .noise = 0.05f, .seed = 4});
  data::DataLoader loader(train_set.features, train_set.labels, 64, true, 1);
  TrainerConfig cfg;
  cfg.epochs = 25;
  cfg.schedule = StepDecaySchedule(0.1, {18});
  Trainer trainer(*net, loader, test_set.features, test_set.labels, cfg);
  const History h = trainer.run();
  EXPECT_GT(h.best_test_accuracy(), 0.9) << "fp32 MLP should solve spiral";
}

TEST(Trainer, HooksFireInOrder) {
  struct Recorder : TrainHook {
    std::vector<std::string> events;
    void on_train_begin(Trainer&) override { events.push_back("begin"); }
    void on_gradients(Trainer&, int64_t) override {
      if (events.empty() || events.back() != "grad") events.push_back("grad");
    }
    void on_epoch_end(Trainer&, int epoch) override {
      events.push_back("epoch" + std::to_string(epoch));
    }
  };
  Rng rng(1);
  auto net = models::make_mlp(2, {4}, 3, rng);
  const data::TabularSet set = data::make_spiral({.points_per_class = 8});
  data::DataLoader loader(set.features, set.labels, 8, true, 1);
  TrainerConfig cfg;
  cfg.epochs = 2;
  Trainer trainer(*net, loader, set.features, set.labels, cfg);
  Recorder rec;
  trainer.add_hook(&rec);
  trainer.run();
  ASSERT_GE(rec.events.size(), 4u);
  EXPECT_EQ(rec.events.front(), "begin");
  EXPECT_EQ(rec.events[1], "grad");
  EXPECT_EQ(rec.events.back(), "epoch1");
}

TEST(Trainer, EvaluateMatchesManualAccuracy) {
  Rng rng(1);
  auto net = models::make_mlp(2, {4}, 2, rng);
  Tensor xs(Shape{4, 2});
  rng.fill_normal(xs, 0, 1);
  const std::vector<int32_t> ys = {0, 1, 0, 1};
  const EvalResult r = evaluate(*net, xs, ys, 2);
  // Recompute by hand.
  const Tensor logits = net->forward(xs, false);
  int hits = 0;
  for (int64_t i = 0; i < 4; ++i) {
    const int32_t pred = logits.at(i, 0) > logits.at(i, 1) ? 0 : 1;
    if (pred == ys[static_cast<size_t>(i)]) ++hits;
  }
  EXPECT_DOUBLE_EQ(r.accuracy, hits / 4.0);
  EXPECT_GT(r.loss, 0.0);
}

TEST(Trainer, MasterCopyUnitsReportMaster) {
  Rng rng(1);
  auto net = models::make_mlp(2, {4}, 2, rng);
  attach_master_copy(*net, 8);
  const data::TabularSet set = data::make_spiral({.points_per_class = 8});
  data::DataLoader loader(set.features, set.labels, 8, true, 1);
  TrainerConfig cfg;
  cfg.epochs = 1;
  Trainer trainer(*net, loader, set.features, set.labels, cfg);
  for (const auto& u : trainer.units()) {
    EXPECT_TRUE(Trainer::unit_has_master(u));
    EXPECT_EQ(Trainer::unit_bits(u), 8);
  }
}

TEST(Trainer, OwnedSgdStepsEveryParameterWithConfiguredRecipe) {
  // The trainer builds its one Sgd over the parameters of its units:
  // one epoch moves every parameter tensor, and the configured
  // momentum/decay reach that optimiser.
  auto train_with = [](const SgdConfig& sgd) {
    Rng rng(1);
    auto net = models::make_mlp(2, {8}, 3, rng);
    std::vector<Tensor> before;
    for (auto* p : net->parameters()) before.push_back(p->value.clone());
    const data::TabularSet set = data::make_spiral({.points_per_class = 16});
    data::DataLoader loader(set.features, set.labels, 16, true, 1);
    TrainerConfig cfg;
    cfg.epochs = 1;
    cfg.sgd = sgd;
    cfg.schedule = StepDecaySchedule(0.05, {});
    Trainer trainer(*net, loader, set.features, set.labels, cfg);
    trainer.run();
    std::vector<Tensor> after;
    for (auto* p : net->parameters()) after.push_back(p->value.clone());
    return std::pair<std::vector<Tensor>, std::vector<Tensor>>{before,
                                                               after};
  };
  auto same = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  };
  const auto plain = train_with({.momentum = 0.0, .weight_decay = 0.0});
  const auto heavy = train_with({.momentum = 0.9, .weight_decay = 0.1});
  ASSERT_EQ(plain.first.size(), 6u);  // fc0, bn, head: weight + bias each
  for (size_t i = 0; i < plain.first.size(); ++i) {
    EXPECT_FALSE(same(plain.first[i], plain.second[i])) << "param " << i;
    EXPECT_TRUE(same(plain.first[i], heavy.first[i])) << "param " << i;
    EXPECT_FALSE(same(plain.second[i], heavy.second[i])) << "param " << i;
  }
}

}  // namespace
}  // namespace apt::train
