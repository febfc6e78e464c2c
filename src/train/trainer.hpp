// The training loop (paper Alg. 2's outer structure) with hook points for
// the APT controller, plus energy/memory accounting on every iteration.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cost/energy.hpp"
#include "data/loader.hpp"
#include "nn/sequential.hpp"
#include "nn/softmax_xent.hpp"
#include "train/metrics.hpp"
#include "train/schedule.hpp"
#include "train/sgd.hpp"
#include "train/sharded_step.hpp"

namespace apt::train {

/// A "layer" in the paper's sense: a leaf module with learnable
/// parameters. The APT policy assigns one bitwidth per unit; the cost
/// model charges per unit.
struct Unit {
  std::string name;
  nn::Layer* layer = nullptr;
  std::vector<nn::Parameter*> params;
  cost::LayerProfile profile;
};

class Trainer;

/// Observation points for training extensions (the APT controller).
class TrainHook {
 public:
  virtual ~TrainHook() = default;
  /// After unit profiles exist, before the first iteration.
  virtual void on_train_begin(Trainer&) {}
  /// After backward (fresh gradients in Parameter::grad), before the
  /// optimiser consumes them. `iter` counts iterations within the epoch.
  virtual void on_gradients(Trainer&, int64_t iter) { (void)iter; }
  /// After the epoch's stats are recorded (between epochs — where Alg. 2
  /// adjusts precision). Mutations here affect the next epoch.
  virtual void on_epoch_end(Trainer&, int epoch) { (void)epoch; }
};

struct TrainerConfig {
  int epochs = 200;
  StepDecaySchedule schedule{0.1, {100, 150}};
  SgdConfig sgd{};  // the paper trains with SGD
  int64_t eval_batch = 256;
  bool verbose = false;
  cost::EnergyModel energy{};
  /// Data-parallel step concurrency: 0 = one worker per pool thread
  /// (default), 1 = the serial reference path that walks the same shards
  /// in order on the calling thread. Results are bit-identical for every
  /// value — the shard decomposition below, not the worker count, fixes
  /// all reduction orders.
  int num_workers = 0;
  /// Target samples per gradient shard (see ShardedStepConfig). This is
  /// the knob that changes numerics; set it >= the batch size to recover
  /// the single-shard whole-batch step exactly.
  int64_t shard_grain = 8;
};

/// Result of an evaluation pass.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Runs evaluation (training=false) over a labelled set in mini-batches.
EvalResult evaluate(nn::Layer& model, const Tensor& inputs,
                    const std::vector<int32_t>& labels, int64_t batch);

class Trainer {
 public:
  /// `test_inputs/test_labels` are evaluated once per epoch with no
  /// augmentation (single original view, as in the paper).
  Trainer(nn::Layer& model, data::DataLoader& train_loader,
          Tensor test_inputs, std::vector<int32_t> test_labels,
          const TrainerConfig& cfg, GradTransform grad_transform = nullptr);

  /// Hooks are invoked in registration order. Not owned.
  void add_hook(TrainHook* hook) { hooks_.push_back(hook); }

  History run();

  // ---- accessors for hooks and cost accounting --------------------------
  std::vector<Unit>& units() { return units_; }
  nn::Layer& model() { return model_; }
  int epoch() const { return epoch_; }
  const TrainerConfig& config() const { return cfg_; }
  /// Valid during on_epoch_end: lets hooks annotate the epoch record
  /// (the controller stores per-unit Gavg here).
  EpochStats& current_epoch_stats() { return *current_stats_; }

  /// Current bitwidth of a unit (32 when parameters are plain float).
  static int unit_bits(const Unit& u);
  /// Whether the unit's representation keeps an fp32 master copy.
  static bool unit_has_master(const Unit& u);

  /// Training-time model memory in bits at current bitwidths.
  double model_memory_bits() const;

 private:
  /// Fills units_ and returns their parameters in unit order (sgd_'s
  /// initialiser: units_ is declared, and so constructed, before it).
  std::vector<nn::Parameter*> build_units();
  void fill_profiles();
  double iteration_energy_pj(int64_t batch) const;

  nn::Layer& model_;
  data::DataLoader& loader_;
  Tensor test_inputs_;
  std::vector<int32_t> test_labels_;
  TrainerConfig cfg_;
  std::vector<Unit> units_;
  Sgd sgd_;
  std::unique_ptr<ShardedStep> step_;
  std::vector<TrainHook*> hooks_;

  int epoch_ = 0;
  double lr_ = 0.0;
  double energy_pj_ = 0.0;
  bool profiles_ready_ = false;
  EpochStats* current_stats_ = nullptr;
};

}  // namespace apt::train
