#include "train/trainer.hpp"

#include <cstdio>

namespace apt::train {

EvalResult evaluate(nn::Layer& model, const Tensor& inputs,
                    const std::vector<int32_t>& labels, int64_t batch) {
  const int64_t n = inputs.dim(0);
  APT_CHECK(n == static_cast<int64_t>(labels.size())) << "eval size mismatch";
  nn::SoftmaxCrossEntropy loss;
  double loss_sum = 0.0;
  int64_t hits = 0;
  const int64_t row = inputs.numel() / std::max<int64_t>(n, 1);

  for (int64_t begin = 0; begin < n; begin += batch) {
    const int64_t b = std::min<int64_t>(batch, n - begin);
    std::vector<int64_t> dims = inputs.shape().dims();
    dims[0] = b;
    Tensor chunk{Shape(dims)};
    std::memcpy(chunk.data(), inputs.data() + begin * row,
                sizeof(float) * static_cast<size_t>(b * row));
    std::vector<int32_t> chunk_labels(labels.begin() + begin,
                                      labels.begin() + begin + b);
    const Tensor logits = model.forward(chunk, /*training=*/false);
    loss_sum += static_cast<double>(loss.forward(logits, chunk_labels)) * b;
    for (int64_t i = 0; i < b; ++i)
      if (loss.predictions()[static_cast<size_t>(i)] ==
          chunk_labels[static_cast<size_t>(i)])
        ++hits;
  }
  return {loss_sum / static_cast<double>(n),
          static_cast<double>(hits) / static_cast<double>(n)};
}

Trainer::Trainer(nn::Layer& model, data::DataLoader& loader,
                 Tensor test_inputs, std::vector<int32_t> test_labels,
                 const TrainerConfig& cfg, GradTransform grad_transform)
    : model_(model),
      loader_(loader),
      test_inputs_(std::move(test_inputs)),
      test_labels_(std::move(test_labels)),
      cfg_(cfg),
      sgd_(build_units(), cfg_.sgd, std::move(grad_transform)) {
  step_ = std::make_unique<ShardedStep>(
      model_, ShardedStepConfig{cfg_.num_workers, cfg_.shard_grain});
}

std::vector<nn::Parameter*> Trainer::build_units() {
  for (nn::Layer* leaf : nn::leaves_of(model_)) {
    auto params = leaf->parameters();
    if (params.empty()) continue;
    Unit u;
    u.name = leaf->name();
    u.layer = leaf;
    u.params = std::move(params);
    for (auto* p : u.params) u.profile.params += p->numel();
    units_.push_back(std::move(u));
  }
  APT_CHECK(!units_.empty()) << "model has no learnable parameters";
  std::vector<nn::Parameter*> all;
  for (auto& u : units_)
    for (auto* p : u.params) all.push_back(p);
  return all;
}

void Trainer::fill_profiles() {
  for (auto& u : units_) {
    u.profile.macs_per_sample = u.layer->macs_per_sample();
    u.profile.act_elems_per_sample = u.layer->out_elems_per_sample();
  }
  profiles_ready_ = true;
}

int Trainer::unit_bits(const Unit& u) {
  // All parameters of a unit share one bitwidth (the APT controller
  // enforces this); plain float parameters count as 32-bit.
  return u.params.front()->rep ? u.params.front()->rep->bits() : 32;
}

bool Trainer::unit_has_master(const Unit& u) {
  const auto& rep = u.params.front()->rep;
  return rep && rep->memory_bits(*u.params.front()) >
                    rep->bits() * u.params.front()->numel();
}

double Trainer::iteration_energy_pj(int64_t batch) const {
  double pj = 0.0;
  for (const auto& u : units_) {
    pj += cost::layer_iteration_cost(cfg_.energy, u.profile, unit_bits(u),
                                     batch, unit_has_master(u))
              .total_pj();
  }
  return pj;
}

double Trainer::model_memory_bits() const {
  double bits = 0.0;
  for (const auto& u : units_)
    for (const auto* p : u.params)
      bits += p->rep ? static_cast<double>(p->rep->memory_bits(*p))
                     : 32.0 * static_cast<double>(p->numel());
  return bits;
}

History Trainer::run() {
  History history;
  for (const auto& u : units_) history.unit_names.push_back(u.name);

  bool began = false;
  for (epoch_ = 0; epoch_ < cfg_.epochs; ++epoch_) {
    lr_ = cfg_.schedule.lr_at(epoch_);
    double loss_sum = 0.0;
    int64_t seen = 0, hits = 0;
    quant::UpdateStats epoch_stats;

    loader_.for_each_batch([&](int64_t iter, const data::Batch& batch) {
      sgd_.zero_grad();
      // The sharded step runs forward + loss + backward and reduces the
      // per-shard gradients into Parameter::grad in shard order, so the
      // hooks below observe merged whole-batch gradients exactly once.
      const ShardedStep::Result res = step_->run(batch, [&] {
        if (!profiles_ready_) {
          fill_profiles();  // shapes known after the first forward
        }
        if (!began) {
          for (auto* h : hooks_) h->on_train_begin(*this);
          began = true;
        }
      });

      for (auto* h : hooks_) h->on_gradients(*this, iter);
      epoch_stats.accumulate(sgd_.step(lr_));

      loss_sum += res.mean_loss * static_cast<double>(batch.size());
      seen += batch.size();
      hits += res.hits;
      energy_pj_ += iteration_energy_pj(batch.size());
    });

    EpochStats stats;
    stats.epoch = epoch_;
    stats.lr = lr_;
    stats.train_loss = loss_sum / static_cast<double>(seen);
    stats.train_accuracy =
        static_cast<double>(hits) / static_cast<double>(seen);
    const EvalResult ev =
        evaluate(model_, test_inputs_, test_labels_, cfg_.eval_batch);
    stats.test_accuracy = ev.accuracy;
    stats.cumulative_energy_j = energy_pj_ * 1e-12;
    stats.model_memory_bits = model_memory_bits();
    stats.underflow_fraction = epoch_stats.underflow_fraction();
    for (const auto& u : units_) stats.unit_bits.push_back(unit_bits(u));

    history.epochs.push_back(std::move(stats));
    current_stats_ = &history.epochs.back();
    for (auto* h : hooks_) h->on_epoch_end(*this, epoch_);
    current_stats_ = nullptr;

    if (cfg_.verbose) {
      const auto& e = history.epochs.back();
      std::printf(
          "epoch %3d  lr %.4f  loss %.4f  train %.4f  test %.4f  "
          "E %.3f J  mem %.2f Mb  uf %.3f\n",
          e.epoch, e.lr, e.train_loss, e.train_accuracy, e.test_accuracy,
          e.cumulative_energy_j, e.model_memory_bits / 1e6,
          e.underflow_fraction);
      std::fflush(stdout);
    }
  }
  return history;
}

}  // namespace apt::train
