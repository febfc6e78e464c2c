// Tests for the paper's core contribution: GridRepresentation (quantised
// storage in both passes, Eq. 3 updates), the Gavg metric (Eq. 4), the
// precision adjustment policy (Algorithm 1), and the AptController wiring.
#include <gtest/gtest.h>

#include <cmath>

#include "core/controller.hpp"
#include "core/gavg.hpp"
#include "core/grid_representation.hpp"
#include "core/policy.hpp"
#include "models/zoo.hpp"

namespace apt::core {
namespace {

nn::Parameter make_param(const std::string& name, std::vector<float> values) {
  nn::Parameter p(name, Shape{static_cast<int64_t>(values.size())});
  for (size_t i = 0; i < values.size(); ++i)
    p.value[static_cast<int64_t>(i)] = values[i];
  return p;
}

// -------------------------------------------------------- GridRepresentation

TEST(GridRepresentation, ValueSnapsToGridOnAttach) {
  nn::Parameter p = make_param("w", {0.1f, -0.2f, 0.37f, 0.0f});
  GridOptions opts;
  opts.bits = 4;
  auto rep = std::make_shared<GridRepresentation>(p, opts);
  p.rep = rep;
  // Every value must now be exactly representable: S(q - Z).
  const auto& qp = rep->codes().params();
  for (int64_t i = 0; i < p.numel(); ++i) {
    const double steps =
        p.value[i] / qp.scale + static_cast<double>(qp.zero_point);
    EXPECT_NEAR(steps, std::round(steps), 1e-3) << "i=" << i;
  }
}

TEST(GridRepresentation, NoMasterCopyMemoryFootprint) {
  nn::Parameter p = make_param("w", std::vector<float>(100, 0.5f));
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  // 100 params x 8 bits (6-bit codes physically live in one byte each)
  // + 64 bits of scale/zero-point metadata: what is actually allocated.
  // The crucial property vs the baselines: NOT 100 x (32 + k).
  EXPECT_EQ(rep.memory_bits(p), 100 * 8 + 64);
  EXPECT_LE(rep.codes().code_storage_bytes(), p.numel());
}

TEST(GridRepresentation, UpdateUnderflowFreezesValue) {
  nn::Parameter p = make_param("w", {0.5f, -0.5f});
  GridOptions opts;
  opts.bits = 3;
  GridRepresentation rep(p, opts);
  const Tensor before = p.value.clone();
  Tensor step(Shape{2});
  step.fill(static_cast<float>(0.4 * rep.epsilon()));
  const quant::UpdateStats s = rep.apply_step(p, step);
  EXPECT_EQ(s.underflowed, 2);
  EXPECT_EQ(p.value[0], before[0]);
  EXPECT_EQ(p.value[1], before[1]);
}

TEST(GridRepresentation, UpdateAboveEpsilonMoves) {
  nn::Parameter p = make_param("w", {0.5f, -0.5f});
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  const float start = p.value[0];  // snapped onto the (padded) grid
  Tensor step(Shape{2});
  step.fill(static_cast<float>(1.6 * rep.epsilon()));
  rep.apply_step(p, step);
  // Moved down by exactly one grid step (⌊1.6⌋ = 1).
  EXPECT_NEAR(p.value[0], start - rep.epsilon(), 1e-5);
}

TEST(GridRepresentation, SetBitsChangesEpsilonAndKeepsValues) {
  Rng rng(1);
  nn::Parameter p("w", Shape{64});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  const double eps6 = rep.epsilon();
  const Tensor before = p.value.clone();
  rep.set_bits(p, 7);
  EXPECT_EQ(rep.bits(), 7);
  EXPECT_LT(rep.epsilon(), eps6);
  for (int64_t i = 0; i < 64; ++i)
    EXPECT_NEAR(p.value[i], before[i], eps6) << "value drifted on requantise";
}

TEST(GridRepresentation, SetBitsUpKeepsValuesWithinHalfNewEps) {
  // A refit onto a finer grid rebuilds the codes from the current
  // values: each lands on its nearest new grid point.
  Rng rng(2);
  nn::Parameter p("w", Shape{64});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  const Tensor before = p.value.clone();
  rep.set_bits(p, 12);
  EXPECT_EQ(rep.bits(), 12);
  for (int64_t i = 0; i < 64; ++i)
    EXPECT_NEAR(p.value[i], before[i], 0.5 * rep.epsilon() + 1e-6)
        << "i=" << i;
}

TEST(GridRepresentation, SetBitsDownLosesAtMostHalfNewEps) {
  Rng rng(2);
  nn::Parameter p("w", Shape{64});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  GridOptions opts;
  opts.bits = 16;
  GridRepresentation rep(p, opts);
  const Tensor before = p.value.clone();
  rep.set_bits(p, 6);
  EXPECT_EQ(rep.bits(), 6);
  for (int64_t i = 0; i < 64; ++i)
    EXPECT_NEAR(p.value[i], before[i], 0.5 * rep.epsilon() + 1e-6)
        << "i=" << i;
}

TEST(GridRepresentation, SetBitsSwitchesStorageWidth) {
  // Codes live in the narrowest width holding k bits, and a refit
  // rebuilds them at the new width: memory follows the bitwidth both
  // ways, and values stay within the coarser grid's ε.
  Rng rng(2);
  nn::Parameter p("w", Shape{64});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  EXPECT_EQ(rep.codes().storage_bits(), 8);
  EXPECT_EQ(rep.memory_bits(p), 64 * 8 + 64);
  const Tensor before = p.value.clone();
  const double eps6 = rep.epsilon();
  rep.set_bits(p, 12);
  EXPECT_EQ(rep.codes().storage_bits(), 16);
  EXPECT_EQ(rep.codes().code_storage_bytes(), 64 * 2);
  EXPECT_EQ(rep.memory_bits(p), 64 * 16 + 64);
  for (int64_t i = 0; i < 64; ++i)
    EXPECT_NEAR(p.value[i], before[i], eps6) << "i=" << i;
  rep.set_bits(p, 20);
  EXPECT_EQ(rep.codes().storage_bits(), 32);
  rep.set_bits(p, 4);  // back down: storage shrinks with the grid
  EXPECT_EQ(rep.bits(), 4);
  EXPECT_EQ(rep.codes().storage_bits(), 8);
  EXPECT_EQ(rep.memory_bits(p), 64 * 8 + 64);
  for (int64_t i = 0; i < 64; ++i)
    EXPECT_NEAR(p.value[i], before[i], rep.epsilon()) << "i=" << i;
}

TEST(GridRepresentation, DegenerateAllZeroTensorGetsUsableGrid) {
  // A fresh all-zero bias must still be able to learn: the range floor
  // gives it a non-trivial ε rather than a ~1e-12 sliver.
  nn::Parameter p = make_param("bias", std::vector<float>(8, 0.0f));
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  EXPECT_GT(rep.epsilon(), 1e-6);
  Tensor step(Shape{8});
  step.fill(-1e-2f);  // bias += 0.01 — must actually move
  rep.apply_step(p, step);
  EXPECT_GT(p.value[0], 0.0f);
}

TEST(GridRepresentation, RefitRangeRecoversFromSaturation) {
  nn::Parameter p = make_param("w", {0.0f, 0.1f});
  GridOptions opts;
  opts.bits = 4;
  GridRepresentation rep(p, opts);
  // Push hard against the grid edge.
  Tensor step(Shape{2});
  step.fill(-10.0f);
  rep.apply_step(p, step);
  EXPECT_GT(rep.saturation(), 0.0);
  const float edge = p.value[0];
  rep.refit_range(p);
  // After refit the padded range extends past the old edge again.
  Tensor more(Shape{2});
  more.fill(-rep.codes().params().range_max());
  rep.apply_step(p, more);
  EXPECT_GT(p.value[0], edge);
}

TEST(GridRepresentation, AttachGridCoversAllParams) {
  Rng rng(1);
  auto net = models::make_mlp(4, {8}, 2, rng);
  GridOptions opts;
  opts.bits = 5;
  attach_grid(*net, opts);
  for (auto* p : net->parameters()) {
    ASSERT_TRUE(p->rep != nullptr) << p->name;
    EXPECT_EQ(p->rep->bits(), 5) << p->name;
  }
}

TEST(GridRepresentation, InvalidBitsRejected) {
  nn::Parameter p = make_param("w", {0.5f});
  GridOptions opts;
  opts.bits = 6;
  GridRepresentation rep(p, opts);
  EXPECT_THROW(rep.set_bits(p, 1), CheckError);
  EXPECT_THROW(rep.set_bits(p, 33), CheckError);
}

// ----------------------------------------------------------------- Gavg

TEST(Gavg, MatchesEq4ByHand) {
  nn::Parameter p = make_param("w", {0.0f, 1.0f, 2.0f, 3.0f});
  GridOptions opts;
  opts.bits = 4;
  auto rep = std::make_shared<GridRepresentation>(p, opts);
  p.rep = rep;
  p.grad = Tensor(Shape{4}, {0.1f, -0.2f, 0.3f, -0.4f});
  const double eps = rep->epsilon();
  const double expected = (0.1 + 0.2 + 0.3 + 0.4) / 4.0 / eps;
  EXPECT_NEAR(tensor_gavg(p), expected, 1e-6 * expected);
}

TEST(Gavg, ZeroGradientsGiveZero) {
  nn::Parameter p = make_param("w", {1.0f, 2.0f});
  GridOptions opts;
  auto rep = std::make_shared<GridRepresentation>(p, opts);
  p.rep = rep;
  EXPECT_DOUBLE_EQ(tensor_gavg(p), 0.0);
}

TEST(Gavg, HigherPrecisionRaisesGavg) {
  // Same gradients, more bits -> smaller ε -> larger Gavg (the mechanism
  // by which the policy lifts an underflowing layer).
  Rng rng(1);
  nn::Parameter p("w", Shape{32});
  rng.fill_normal(p.value, 0.0f, 1.0f);
  rng.fill_normal(p.grad, 0.0f, 0.01f);
  GridOptions opts;
  opts.bits = 4;
  auto rep = std::make_shared<GridRepresentation>(p, opts);
  p.rep = rep;
  const double g4 = tensor_gavg(p);
  rep->set_bits(p, 8);
  const double g8 = tensor_gavg(p);
  EXPECT_GT(g8, g4 * 10.0);
}

TEST(Gavg, FloatParamsUseK32Epsilon) {
  nn::Parameter p = make_param("w", {-1.0f, 1.0f});
  p.grad = Tensor(Shape{2}, {0.001f, 0.001f});
  // ε(k=32) over range 2 is ~4.7e-10 -> Gavg astronomically large.
  EXPECT_GT(tensor_gavg(p), 1e5);
}

TEST(Gavg, UnitPoolingTakesMinimumAcrossTensors) {
  train::Unit unit;
  nn::Parameter w = make_param("w", {0.5f, -0.5f});
  nn::Parameter b = make_param("b", {0.0f, 0.0f});
  GridOptions opts;
  opts.bits = 4;
  w.rep = std::make_shared<GridRepresentation>(w, opts);
  b.rep = std::make_shared<GridRepresentation>(b, opts);
  w.grad.fill(1e-4f);  // weights underflow badly
  b.grad.fill(1.0f);   // bias moves freely
  unit.params = {&w, &b};
  // min-pooling: the frozen weights govern, the easy bias cannot mask them.
  EXPECT_NEAR(unit_gavg(unit), tensor_gavg(w), 1e-9);
  EXPECT_LT(unit_gavg(unit), tensor_gavg(b));
}

// --------------------------------------------------------------- policy

TEST(Policy, RaisesBelowTmin) {
  std::vector<int> bits = {6, 6};
  const auto changes = adjust_precision({0.5, 10.0}, bits, {.t_min = 6.0});
  EXPECT_EQ(bits[0], 7);
  EXPECT_EQ(bits[1], 6);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].unit, 0);
  EXPECT_EQ(changes[0].old_bits, 6);
  EXPECT_EQ(changes[0].new_bits, 7);
}

TEST(Policy, LowersAboveTmax) {
  std::vector<int> bits = {8};
  adjust_precision({500.0}, bits, {.t_min = 1.0, .t_max = 100.0});
  EXPECT_EQ(bits[0], 7);
}

TEST(Policy, ClampsAtKmaxAndKmin) {
  std::vector<int> bits = {32, 2};
  const auto changes = adjust_precision(
      {0.0, 1e9}, bits, {.t_min = 6.0, .t_max = 100.0});
  EXPECT_EQ(bits[0], 32);  // cannot exceed k_max
  EXPECT_EQ(bits[1], 2);   // cannot go below k_min
  EXPECT_TRUE(changes.empty());
}

TEST(Policy, OneStepPerEpochOnly) {
  // Algorithm 1 moves each layer by at most ±1 per invocation.
  std::vector<int> bits = {6};
  adjust_precision({1e-9}, bits, {.t_min = 6.0});
  EXPECT_EQ(bits[0], 7);
}

TEST(Policy, InsideBandIsStable) {
  std::vector<int> bits = {9};
  const auto changes =
      adjust_precision({50.0}, bits, {.t_min = 6.0, .t_max = 100.0});
  EXPECT_TRUE(changes.empty());
  EXPECT_EQ(bits[0], 9);
}

TEST(Policy, CustomClampRange) {
  std::vector<int> bits = {4, 16};
  adjust_precision({0.0, 1e9}, bits,
                   {.t_min = 6.0, .t_max = 10.0, .k_min = 4, .k_max = 4});
  EXPECT_EQ(bits[0], 4);
  EXPECT_EQ(bits[1], 15);
}

TEST(Policy, RejectsBadConfigs) {
  std::vector<int> bits = {6};
  EXPECT_THROW(adjust_precision({1.0, 2.0}, bits, {}), CheckError);
  EXPECT_THROW(adjust_precision({1.0}, bits, {.t_min = 5.0, .t_max = 1.0}),
               CheckError);
  EXPECT_THROW(adjust_precision({1.0}, bits, {.k_min = 1}), CheckError);
}

TEST(Policy, TminTmaxBandSweep) {
  // Property: after applying the policy repeatedly with constant Gavg, the
  // bits settle at a clamp or stop changing once inside the band.
  for (double gavg : {0.01, 3.0, 42.0, 5e4}) {
    std::vector<int> bits = {6};
    PolicyConfig pc{.t_min = 6.0, .t_max = 1000.0};
    for (int i = 0; i < 64; ++i) adjust_precision({gavg}, bits, pc);
    if (gavg < pc.t_min) {
      EXPECT_EQ(bits[0], pc.k_max);
    } else if (gavg > pc.t_max) {
      EXPECT_EQ(bits[0], pc.k_min);
    } else {
      EXPECT_EQ(bits[0], 6);
    }
  }
}

}  // namespace
}  // namespace apt::core
