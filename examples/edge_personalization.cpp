// Edge personalisation: the deployment scenario that motivates the paper.
//
// A model is pretrained off-device (fp32, plenty of energy), then shipped
// to an edge device whose sensor sees a drifted version of the same task
// (more noise, stronger jitter). The device must learn in-situ on a tight
// energy/memory budget: we fine-tune with APT starting from the fp32
// checkpoint and compare against (a) not adapting at all and (b) fp32
// fine-tuning, reporting the energy and training-memory cost of each.
//
//   $ ./examples/edge_personalization
#include <cstdio>

#include "base/check.hpp"
#include "core/controller.hpp"
#include "data/loader.hpp"
#include "data/synth_images.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "train/trainer.hpp"

using namespace apt;

namespace {

data::SynthImageConfig base_config() {
  data::SynthImageConfig c;
  c.height = 16;
  c.width = 16;
  return c;
}

data::SynthImageConfig drifted_config() {
  // Same class structure (same seed drives the grating pool and class
  // signatures); harsher sensor: more pixel noise, stronger jitter.
  data::SynthImageConfig c = base_config();
  c.noise = 0.8f;
  c.jitter = 0.5f;
  return c;
}

train::TrainerConfig short_schedule(int epochs) {
  train::TrainerConfig cfg;
  cfg.epochs = epochs;
  cfg.schedule = train::StepDecaySchedule(0.02, {epochs * 2 / 3});
  return cfg;
}

}  // namespace

int main() {
  const std::string ckpt = "pretrained_fp32.ckpt";

  // ---- 1. Pretraining (off-device, fp32) --------------------------------
  data::SynthImageDataset base(base_config(), 768, 384);
  Rng rng(1);
  auto pretrained = models::make_resnet({.n = 1, .base_width = 8}, rng);
  {
    data::DataLoader loader(base.train().images, base.train().labels, 64,
                            true, 5, data::AugmentConfig{});
    train::TrainerConfig cfg;
    cfg.epochs = 25;
    cfg.schedule = train::StepDecaySchedule(0.1, {14, 20});
    train::Trainer trainer(*pretrained, loader, base.test().images,
                           base.test().labels, cfg);
    const train::History h = trainer.run();
    std::printf("[pretrain] fp32 accuracy on base distribution: %.4f\n",
                h.best_test_accuracy());
  }
  if (const Status st = io::try_save_checkpoint(*pretrained, ckpt);
      !st.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }

  // ---- 2. The device's world drifted ------------------------------------
  data::SynthImageDataset drifted(drifted_config(), 512, 384);
  {
    const train::EvalResult no_adapt = train::evaluate(
        *pretrained, drifted.test().images, drifted.test().labels, 256);
    std::printf("[deploy] accuracy on drifted data WITHOUT adaptation: %.4f\n",
                no_adapt.accuracy);
  }

  // ---- 3. On-device fine-tuning: fp32 vs APT ----------------------------
  auto fine_tune = [&](bool use_apt) {
    Rng r2(2);
    auto model = models::make_resnet({.n = 1, .base_width = 8}, r2);
    // The checkpoint was written above, so a failed load is a bug.
    const Status st = io::try_load_checkpoint(*model, ckpt);
    APT_CHECK(st.ok()) << st.to_string();
    data::DataLoader loader(drifted.train().images, drifted.train().labels,
                            64, true, 7, data::AugmentConfig{});
    train::Trainer trainer(*model, loader, drifted.test().images,
                           drifted.test().labels, short_schedule(12));
    std::unique_ptr<core::AptController> ctrl;
    if (use_apt) {
      core::AptConfig ac;
      ac.initial_bits = 6;
      ac.t_min = 6.0;
      ac.eval_interval = 2;
      ac.adjust_every_iters = 4;
      ctrl = std::make_unique<core::AptController>(trainer, ac);
      // Note: the controller quantises the *loaded* fp32 weights onto the
      // 6-bit grid — no fp32 master copy exists on the device.
      trainer.add_hook(ctrl.get());
    }
    return trainer.run();
  };

  std::printf("[adapt] fine-tuning on-device (fp32)...\n");
  const train::History fp32 = fine_tune(false);
  std::printf("[adapt] fine-tuning on-device (APT, k0=6, Tmin=6)...\n");
  const train::History apt = fine_tune(true);

  std::printf("\n%-26s %10s %14s %14s\n", "on-device strategy", "test acc",
              "energy (J)", "train mem (Mb)");
  std::printf("%-26s %10.4f %14.4f %14.3f\n", "fp32 fine-tune",
              fp32.best_test_accuracy(), fp32.total_energy_j(),
              fp32.peak_memory_bits() / 1e6);
  std::printf("%-26s %10.4f %14.4f %14.3f\n", "APT fine-tune",
              apt.best_test_accuracy(), apt.total_energy_j(),
              apt.peak_memory_bits() / 1e6);
  std::printf(
      "\nAPT personalises at %.0f%% of the fp32 fine-tuning energy and "
      "%.0f%% of its training memory.\n",
      100.0 * apt.total_energy_j() / fp32.total_energy_j(),
      100.0 * apt.peak_memory_bits() / fp32.peak_memory_bits());
  std::remove(ckpt.c_str());
  return 0;
}
