// Tests for the extension features: the automatic T_min tuner (the
// paper's stated future work) and History CSV export.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/auto_tmin.hpp"
#include "core/controller.hpp"
#include "data/loader.hpp"
#include "data/spiral.hpp"
#include "io/history_csv.hpp"
#include "models/zoo.hpp"
#include "train/trainer.hpp"

namespace apt {
namespace {

// ------------------------------------------------------------- auto T_min

struct TunerFixture {
  // A run engineered to stall: tiny model, very low starting T_min, and a
  // dataset it cannot fit at 2 bits.
  train::History run(core::AutoTminConfig tcfg, double t_min0,
                     std::vector<core::TminAutoTuner::Adjustment>* log,
                     double* final_t_min) {
    Rng rng(11);
    auto model = models::make_mlp(2, {16, 16}, 3, rng);
    const data::TabularSet set =
        data::make_spiral({.points_per_class = 96, .noise = 0.08f, .seed = 3});
    data::DataLoader loader(set.features, set.labels, 32, true, 5);
    train::TrainerConfig cfg;
    cfg.epochs = 12;
    cfg.schedule = train::StepDecaySchedule(0.05, {});
    train::Trainer trainer(*model, loader, set.features, set.labels, cfg);
    core::AptConfig ac;
    ac.initial_bits = 3;
    ac.t_min = t_min0;
    ac.eval_interval = 2;
    core::AptController ctrl(trainer, ac);
    core::TminAutoTuner tuner(ctrl, tcfg);
    trainer.add_hook(&tuner);  // tuner first: controller sees fresh T_min
    trainer.add_hook(&ctrl);
    const train::History h = trainer.run();
    if (log) *log = tuner.adjustments();
    if (final_t_min) *final_t_min = tuner.t_min();
    return h;
  }
};

TEST(AutoTmin, RaisesThresholdOnStall) {
  TunerFixture fx;
  std::vector<core::TminAutoTuner::Adjustment> log;
  double final_t_min = 0;
  fx.run({}, /*t_min0=*/0.1, &log, &final_t_min);
  // A 3-bit model with T_min=0.1 stalls immediately; the tuner must have
  // raised the threshold at least once, for the "stall" reason.
  ASSERT_FALSE(log.empty());
  EXPECT_GT(final_t_min, 0.1);
  bool saw_stall = false;
  for (const auto& a : log)
    if (std::string(a.reason) == "stall") saw_stall = true;
  EXPECT_TRUE(saw_stall);
}

TEST(AutoTmin, BudgetLowersThreshold) {
  TunerFixture fx;
  core::AutoTminConfig tcfg;
  tcfg.energy_budget_j = 1e-12;  // impossible budget: must lower every epoch
  std::vector<core::TminAutoTuner::Adjustment> log;
  double final_t_min = 0;
  fx.run(tcfg, /*t_min0=*/50.0, &log, &final_t_min);
  ASSERT_FALSE(log.empty());
  EXPECT_LT(final_t_min, 50.0);
  for (const auto& a : log) EXPECT_STREQ(a.reason, "budget");
}

TEST(AutoTmin, RespectsCeiling) {
  TunerFixture fx;
  core::AutoTminConfig tcfg;
  tcfg.t_min_ceil = 0.4;
  double final_t_min = 0;
  fx.run(tcfg, /*t_min0=*/0.1, nullptr, &final_t_min);
  EXPECT_LE(final_t_min, 0.4);
}

TEST(AutoTmin, RejectsBadConfig) {
  Rng rng(1);
  auto model = models::make_mlp(2, {4}, 3, rng);
  const data::TabularSet set = data::make_spiral({.points_per_class = 8});
  data::DataLoader loader(set.features, set.labels, 8, true, 1);
  train::TrainerConfig cfg;
  cfg.epochs = 1;
  train::Trainer trainer(*model, loader, set.features, set.labels, cfg);
  core::AptController ctrl(trainer, {});
  core::AutoTminConfig bad;
  bad.raise_factor = 0.9;
  EXPECT_THROW(core::TminAutoTuner(ctrl, bad), CheckError);
  bad = {};
  bad.t_min_floor = -1.0;
  EXPECT_THROW(core::TminAutoTuner(ctrl, bad), CheckError);
}

TEST(Controller, SetTminValidated) {
  Rng rng(1);
  auto model = models::make_mlp(2, {4}, 3, rng);
  const data::TabularSet set = data::make_spiral({.points_per_class = 8});
  data::DataLoader loader(set.features, set.labels, 8, true, 1);
  train::TrainerConfig cfg;
  cfg.epochs = 1;
  train::Trainer trainer(*model, loader, set.features, set.labels, cfg);
  core::AptController ctrl(trainer, {});
  ctrl.set_t_min(12.5);
  EXPECT_DOUBLE_EQ(ctrl.t_min(), 12.5);
  EXPECT_THROW(ctrl.set_t_min(0.0), CheckError);
}

// ------------------------------------------------------------ history CSV

TEST(HistoryCsv, WritesScalarAndUnitColumns) {
  train::History h;
  h.unit_names = {"conv", "fc"};
  for (int e = 0; e < 2; ++e) {
    train::EpochStats s;
    s.epoch = e;
    s.lr = 0.1;
    s.train_loss = 1.0 - 0.1 * e;
    s.test_accuracy = 0.5 + 0.1 * e;
    s.unit_bits = {6 + e, 8};
    s.unit_gavg = {1.5, 22.0};
    h.epochs.push_back(s);
  }
  const auto path =
      (std::filesystem::temp_directory_path() / "apt_hist.csv").string();
  io::write_history_csv(h, path);

  std::ifstream f(path);
  std::string header, row0;
  std::getline(f, header);
  std::getline(f, row0);
  EXPECT_NE(header.find("bits.conv"), std::string::npos);
  EXPECT_NE(header.find("gavg.fc"), std::string::npos);
  EXPECT_NE(row0.find("0.500000"), std::string::npos);  // test_accuracy
  EXPECT_NE(row0.find(",6,"), std::string::npos);       // bits.conv epoch 0
  std::filesystem::remove(path);
}

TEST(HistoryCsv, Fp32HistoryOmitsUnitColumns) {
  train::History h;
  h.unit_names = {"conv"};
  train::EpochStats s;
  s.epoch = 0;
  h.epochs.push_back(s);  // no unit_bits recorded
  const auto path =
      (std::filesystem::temp_directory_path() / "apt_hist2.csv").string();
  io::write_history_csv(h, path);
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header.find("bits."), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace apt
