// Determinism probe for the data-parallel training step.
//
//   $ ./examples/determinism_probe [checkpoint-path]
//
// Trains the quickstart MLP twice — once on the serial reference path
// (num_workers=1) and once with four workers — and verifies the final
// weights are bit-identical. Then writes the checkpoint of the parallel
// run to `checkpoint-path` (default: determinism_probe.ckpt).
//
// CI runs this binary under APT_NUM_THREADS=1/2/8 and diffs the
// checkpoint hashes: the file must be byte-identical for every thread
// count, because the shard decomposition (not the worker or thread
// count) fixes every reduction order. Exit status: 0 when the in-process
// comparison holds, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <memory>

#include "data/loader.hpp"
#include "data/spiral.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "train/trainer.hpp"

using namespace apt;

namespace {

std::unique_ptr<nn::Sequential> train_once(int num_workers,
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
  const train::History history = trainer.run();
  std::printf("num_workers=%d  final loss %.6f  test acc %.4f\n", num_workers,
              history.epochs.back().train_loss,
              history.final_test_accuracy());
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "determinism_probe.ckpt";
  const data::TabularSet trainset =
      data::make_spiral({.points_per_class = 128, .noise = 0.1f, .seed = 7});
  const data::TabularSet testset =
      data::make_spiral({.points_per_class = 64, .noise = 0.1f, .seed = 8});

  auto serial = train_once(/*num_workers=*/1, trainset, testset);
  auto parallel = train_once(/*num_workers=*/4, trainset, testset);

  const auto sp = serial->parameters();
  const auto pp = parallel->parameters();
  int64_t mismatched = 0;
  for (size_t i = 0; i < sp.size(); ++i) {
    if (std::memcmp(sp[i]->value.data(), pp[i]->value.data(),
                    sizeof(float) * static_cast<size_t>(sp[i]->numel())) !=
        0) {
      std::printf("MISMATCH: %s differs between 1 and 4 workers\n",
                  sp[i]->name.c_str());
      ++mismatched;
    }
  }

  if (const Status st = io::try_save_checkpoint(*parallel, path); !st.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path);
  if (mismatched == 0) {
    std::printf("determinism probe PASSED: 1-worker and 4-worker runs are "
                "bit-identical\n");
    return 0;
  }
  std::printf("determinism probe FAILED: %lld parameter(s) diverged\n",
              static_cast<long long>(mismatched));
  return 1;
}
