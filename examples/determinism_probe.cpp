// Determinism probe for the data-parallel training step.
//
//   $ ./examples/determinism_probe [checkpoint-path]
//
// Trains the quickstart MLP twice — once on the serial reference path
// (num_workers=1) and once with four workers — and verifies the final
// weights are bit-identical. Then writes the checkpoint of the parallel
// run to `checkpoint-path` (default: determinism_probe.ckpt).
//
// A second leg repeats this on the integer path: the same MLP on fixed
// 8-bit weight grids under GemmBackend::kInt8, so the forward and both
// gradient GEMMs run on code planes and dY is stochastically rounded.
// Its checkpoint goes to `checkpoint-path.int8`.
//
// CI runs this binary under APT_NUM_THREADS=1/2/8 and diffs the
// checkpoint hashes: both files must be byte-identical for every thread
// count, because the shard decomposition (not the worker or thread
// count) fixes every reduction order and every rounding draw. Exit
// status: 0 when every in-process comparison holds, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "data/loader.hpp"
#include "data/spiral.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "train/trainer.hpp"

using namespace apt;

namespace {

std::unique_ptr<nn::Sequential> train_once(const char* leg, bool int8,
                                           int num_workers,
                                           const data::TabularSet& trainset,
                                           const data::TabularSet& testset) {
  Rng rng(123);
  auto model = models::make_mlp(2, {48, 48}, 3, rng);
  data::DataLoader loader(trainset.features, trainset.labels, /*batch=*/64,
                          /*shuffle=*/true, /*seed=*/99);
  train::TrainerConfig cfg;
  cfg.epochs = 8;
  cfg.schedule = train::StepDecaySchedule(0.1, {6});
  cfg.num_workers = num_workers;
  train::Trainer trainer(*model, loader, testset.features, testset.labels,
                         cfg);
  if (int8) {
    core::GridOptions go;
    go.bits = 8;
    core::attach_grid(*model, go);
    // The stochastic-rounding stream is keyed by a process-wide step
    // counter: restart it so both worker counts draw the same bits.
    sr_set_step(0);
  }
  const train::History history = trainer.run();
  std::printf("%s num_workers=%d  final loss %.6f  test acc %.4f\n", leg,
              num_workers, history.epochs.back().train_loss,
              history.final_test_accuracy());
  return model;
}

// Trains the leg with 1 and 4 workers, memcmps the weights and writes the
// parallel run's checkpoint. Returns the number of diverged parameters
// (or 1 when the checkpoint cannot be written).
int64_t run_leg(const char* leg, bool int8, const std::string& path,
                const data::TabularSet& trainset,
                const data::TabularSet& testset) {
  const nn::PlanOptions prev = nn::plan_options();
  nn::PlanOptions opts = prev;
  if (int8) opts.backend = nn::GemmBackend::kInt8;
  nn::set_plan_options(opts);
  auto serial = train_once(leg, int8, /*num_workers=*/1, trainset, testset);
  auto parallel = train_once(leg, int8, /*num_workers=*/4, trainset, testset);
  nn::set_plan_options(prev);

  const auto sp = serial->parameters();
  const auto pp = parallel->parameters();
  int64_t mismatched = 0;
  for (size_t i = 0; i < sp.size(); ++i) {
    if (std::memcmp(sp[i]->value.data(), pp[i]->value.data(),
                    sizeof(float) * static_cast<size_t>(sp[i]->numel())) !=
        0) {
      std::printf("MISMATCH: %s %s differs between 1 and 4 workers\n", leg,
                  sp[i]->name.c_str());
      ++mismatched;
    }
  }

  if (const Status st = io::try_save_checkpoint(*parallel, path); !st.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 st.to_string().c_str());
    return mismatched + 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return mismatched;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "determinism_probe.ckpt";
  const data::TabularSet trainset =
      data::make_spiral({.points_per_class = 128, .noise = 0.1f, .seed = 7});
  const data::TabularSet testset =
      data::make_spiral({.points_per_class = 64, .noise = 0.1f, .seed = 8});

  const int64_t mismatched =
      run_leg("fp32", /*int8=*/false, path, trainset, testset) +
      run_leg("int8", /*int8=*/true, path + ".int8", trainset, testset);
  if (mismatched == 0) {
    std::printf("determinism probe PASSED: 1-worker and 4-worker runs are "
                "bit-identical (fp32 and int8)\n");
    return 0;
  }
  std::printf("determinism probe FAILED: %lld parameter(s) diverged\n",
              static_cast<long long>(mismatched));
  return 1;
}
