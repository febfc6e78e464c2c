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
// Its checkpoint goes to `checkpoint-path.int8`, and the trained model,
// frozen for serving (serve::CompiledModel), to `checkpoint-path.aptm`.
//
// A third leg trains a small fp32 ResNet (one block per stage, width 4)
// on 16x16 synthetic images, so the conv GEMMs — weights packed once per
// layer call, the implicit patch operand, col2im — and BatchNorm run
// under the same 1-vs-4-worker comparison. Its checkpoint goes to
// `checkpoint-path.conv`.
//
// A fourth leg trains that ResNet again on fixed 8-bit grids under
// GemmBackend::kInt8, so the integer conv forward (the channel-quad
// image, read in place by the quad tiles or packed from it, with 8-bit
// weights taking the recentred VNNI route) and both integer conv
// gradients run. Its checkpoint goes to `checkpoint-path.conv8`; the
// model, set to 6-bit grids and frozen for serving, writes its outputs
// for the first 8 test images to `checkpoint-path.conv8.out` (raw
// little-endian floats).
//
// CI runs this binary under APT_NUM_THREADS=1/2/8 and APT_SIMD=avx2 and
// scalar, and diffs the checkpoint and artifact hashes: every file must
// be byte-identical for every thread count, because the shard
// decomposition (not the worker or thread count) fixes every reduction
// order and every rounding draw, and for every SIMD level, because the
// kernels agree bit for bit and the artifact stores no kernel plan.
// Files that fp32 GEMMs shape are the exception at the scalar level:
// the fp32 and conv checkpoints, and the conv8 files, whose first steps
// run fp32 conv GEMMs until the activation and gradient ranges are live
// (the portable fp32 tile does not fuse multiply-add). Exit status: 0
// when every in-process comparison holds, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "data/loader.hpp"
#include "data/spiral.hpp"
#include "data/synth_images.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "serve/compiled_model.hpp"
#include "train/trainer.hpp"

using namespace apt;

namespace {

// One probe leg: its data, model and schedule.
struct Leg {
  const char* name = "";
  bool int8 = false;
  Tensor train_x, test_x;
  std::vector<int32_t> train_y, test_y;
  std::function<std::unique_ptr<nn::Sequential>(Rng&)> make_model;
  int64_t epochs = 0;
};

std::unique_ptr<nn::Sequential> train_once(const Leg& leg, int num_workers) {
  Rng rng(123);
  auto model = leg.make_model(rng);
  data::DataLoader loader(leg.train_x, leg.train_y, /*batch=*/64,
                          /*shuffle=*/true, /*seed=*/99);
  train::TrainerConfig cfg;
  cfg.epochs = leg.epochs;
  cfg.schedule = train::StepDecaySchedule(0.1, {6});
  cfg.num_workers = num_workers;
  train::Trainer trainer(*model, loader, leg.test_x, leg.test_y, cfg);
  if (leg.int8) {
    core::GridOptions go;
    go.bits = 8;
    core::attach_grid(*model, go);
    // The stochastic-rounding stream is keyed by a process-wide step
    // counter: restart it so both worker counts draw the same bits.
    sr_set_step(0);
  }
  const train::History history = trainer.run();
  std::printf("%s num_workers=%d  final loss %.6f  test acc %.4f\n",
              leg.name, num_workers, history.epochs.back().train_loss,
              history.final_test_accuracy());
  return model;
}

// Sets every grid to 6 bits, freezes the model for serving and writes
// its outputs for the first 8 test images of `leg` to `path`. Returns
// false when the file cannot be written.
bool write_frozen_outputs(nn::Sequential& model, const Leg& leg,
                          const std::string& path) {
  for (nn::Parameter* p : model.parameters())
    if (p->rep != nullptr) p->rep->set_bits(*p, 6);
  const Shape sample{leg.test_x.dim(1), leg.test_x.dim(2), leg.test_x.dim(3)};
  const serve::CompiledModel frozen =
      serve::CompiledModel::compile(model, sample);
  const int64_t batch = 8;
  std::vector<float> out(static_cast<size_t>(batch * frozen.out_elems()));
  serve::InferenceContext ctx;
  frozen.run(leg.test_x.data(), batch, out.data(), ctx);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), sizeof(float), out.size(), f) ==
                  out.size();
  return std::fclose(f) == 0 && ok;
}

// Trains the leg with 1 and 4 workers, memcmps the weights and writes the
// parallel run's checkpoint, and its frozen serving artifact to
// `artifact` when that is not empty, or the frozen 6-bit model's outputs
// to `outputs` when that is not empty. Returns the number of diverged
// parameters (plus 1 when a file cannot be written).
int64_t run_leg(const Leg& leg, const std::string& path,
                const std::string& artifact = "",
                const std::string& outputs = "") {
  const nn::PlanOptions prev = nn::plan_options();
  nn::PlanOptions opts = prev;
  if (leg.int8) opts.backend = nn::GemmBackend::kInt8;
  nn::set_plan_options(opts);
  auto serial = train_once(leg, /*num_workers=*/1);
  auto parallel = train_once(leg, /*num_workers=*/4);
  nn::set_plan_options(prev);

  const auto sp = serial->parameters();
  const auto pp = parallel->parameters();
  int64_t mismatched = 0;
  for (size_t i = 0; i < sp.size(); ++i) {
    if (std::memcmp(sp[i]->value.data(), pp[i]->value.data(),
                    sizeof(float) * static_cast<size_t>(sp[i]->numel())) !=
        0) {
      std::printf("MISMATCH: %s %s differs between 1 and 4 workers\n",
                  leg.name, sp[i]->name.c_str());
      ++mismatched;
    }
  }

  if (const Status st = io::try_save_checkpoint(*parallel, path); !st.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 st.to_string().c_str());
    return mismatched + 1;
  }
  std::printf("wrote %s\n", path.c_str());

  if (!artifact.empty()) {
    const serve::CompiledModel frozen = serve::CompiledModel::compile(
        *parallel, Shape{leg.train_x.dim(1)});
    if (const Status st = frozen.try_save(artifact); !st.ok()) {
      std::fprintf(stderr, "artifact save failed: %s\n",
                   st.to_string().c_str());
      return mismatched + 1;
    }
    std::printf("wrote %s\n", artifact.c_str());
  }
  if (!outputs.empty()) {
    if (!write_frozen_outputs(*parallel, leg, outputs)) {
      std::fprintf(stderr, "writing %s failed\n", outputs.c_str());
      return mismatched + 1;
    }
    std::printf("wrote %s\n", outputs.c_str());
  }
  return mismatched;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "determinism_probe.ckpt";
  const data::TabularSet trainset =
      data::make_spiral({.points_per_class = 128, .noise = 0.1f, .seed = 7});
  const data::TabularSet testset =
      data::make_spiral({.points_per_class = 64, .noise = 0.1f, .seed = 8});

  Leg fp32;
  fp32.name = "fp32";
  fp32.train_x = trainset.features;
  fp32.train_y = trainset.labels;
  fp32.test_x = testset.features;
  fp32.test_y = testset.labels;
  fp32.make_model = [](Rng& rng) {
    return models::make_mlp(2, {48, 48}, 3, rng);
  };
  fp32.epochs = 8;
  Leg int8 = fp32;
  int8.name = "int8";
  int8.int8 = true;

  data::SynthImageConfig ic;
  ic.classes = 4;
  ic.height = 16;
  ic.width = 16;
  const data::SynthImageDataset images(ic, /*n_train=*/128, /*n_test=*/64);
  Leg conv;
  conv.name = "conv";
  conv.train_x = images.train().images;
  conv.train_y = images.train().labels;
  conv.test_x = images.test().images;
  conv.test_y = images.test().labels;
  conv.make_model = [](Rng& rng) {
    return models::make_resnet({.n = 1, .base_width = 4, .num_classes = 4},
                               rng);
  };
  conv.epochs = 6;
  Leg conv8 = conv;
  conv8.name = "conv8";
  conv8.int8 = true;

  const int64_t mismatched =
      run_leg(fp32, path) + run_leg(int8, path + ".int8", path + ".aptm") +
      run_leg(conv, path + ".conv") +
      run_leg(conv8, path + ".conv8", "", path + ".conv8.out");
  if (mismatched == 0) {
    std::printf("determinism probe PASSED: 1-worker and 4-worker runs are "
                "bit-identical (fp32, int8, conv and conv8)\n");
    return 0;
  }
  std::printf("determinism probe FAILED: %lld parameter(s) diverged\n",
              static_cast<long long>(mismatched));
  return 1;
}
