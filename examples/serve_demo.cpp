// Train -> freeze -> serve, end to end (DESIGN.md §15).
//
// A small ResNet is calibrated with quantised weights, checkpointed by
// the training side, then frozen into a CompiledModel artifact —
// weights packed in GEMM code layout, BatchNorm/ReLU folded into the
// integer-GEMM epilogue, kernel plans bound in memory (at compile and
// again at load; the artifact stores none). The artifact round-trips
// through save/load and is served by the dynamic-batching Server:
// concurrent clients fire single-sample requests, workers coalesce
// them, and every response is bit-identical to a solo run of the same
// sample (checked below).
//
//   $ ./examples/serve_demo
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"

using namespace apt;

namespace {

constexpr int64_t kC = 3, kH = 16, kW = 16, kClasses = 10;
constexpr int64_t kInElems = kC * kH * kW;

std::unique_ptr<nn::Sequential> make_quantised_resnet(uint64_t seed) {
  Rng rng(seed);
  auto net = models::make_resnet(
      {.n = 1, .base_width = 8, .num_classes = kClasses}, rng);
  core::GridOptions go;
  go.bits = 6;  // the paper's starting precision
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    nn::Parameter* w = nullptr;
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) w = &c->weight();
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) w = &l->weight();
    if (w != nullptr)
      w->rep = std::make_shared<core::GridRepresentation>(*w, go);
  }
  return net;
}

/// Prints a failed step's typed status; true when `st` is OK.
bool report(const Status& st, const char* step) {
  if (!st.ok())
    std::fprintf(stderr, "%s failed: %s\n", step, st.to_string().c_str());
  return st.ok();
}

}  // namespace

int main() {
  // --- training side: calibrate, then checkpoint ----------------------
  auto trained = make_quantised_resnet(/*seed=*/1);
  std::vector<Tensor> calibration;
  Rng data_rng(2);
  for (int i = 0; i < 4; ++i) {
    Tensor batch(Shape{8, kC, kH, kW});
    data_rng.fill_normal(batch, 0, 1);
    calibration.push_back(batch);
    trained->forward(batch, /*training=*/true);  // warms range trackers
  }
  const std::string ckpt = "serve_demo.ckpt";
  if (!report(io::try_save_checkpoint(*trained, ckpt), "checkpoint save"))
    return 1;
  std::printf("checkpointed trained model -> %s\n", ckpt.c_str());

  // --- freeze: the src/train -> src/serve boundary --------------------
  auto fresh = make_quantised_resnet(/*seed=*/99);  // weights overwritten
  serve::CompiledModel compiled;
  if (!report(serve::freeze_from_checkpoint(*fresh, ckpt, calibration,
                                            &compiled),
              "freeze"))
    return 1;
  const std::string artifact = "serve_demo.aptm";
  if (!report(compiled.try_save(artifact), "artifact save")) return 1;
  std::printf("frozen artifact -> %s (%zu ops, max batch %lld)\n",
              artifact.c_str(), compiled.ops().size(),
              static_cast<long long>(compiled.max_batch()));

  // --- serving side: load the artifact, stand up the server -----------
  serve::CompiledModel model;
  if (!report(serve::CompiledModel::try_load(artifact, &model),
              "artifact load"))
    return 1;
  serve::Server server(model, {.workers = 2});

  // Solo-run references for a pool of samples.
  constexpr int64_t kPool = 6;
  Tensor samples(Shape{kPool, kC, kH, kW});
  data_rng.fill_normal(samples, 0, 1);
  serve::InferenceContext ctx;
  std::vector<float> reference(kPool * kClasses);
  for (int64_t i = 0; i < kPool; ++i)
    model.run(samples.data() + i * kInElems, 1,
              reference.data() + i * kClasses, ctx);

  // Concurrent clients: responses must match the solo bits exactly,
  // however the workers coalesced them.
  constexpr int kClients = 4, kPerClient = 25;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> out(kClasses);
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t s = (c + r) % kPool;
        if (!server.infer(samples.data() + s * kInElems, out.data()) ||
            std::memcmp(out.data(), reference.data() + s * kClasses,
                        kClasses * sizeof(float)) != 0)
          ++mismatches[c];
      }
    });
  }
  for (auto& t : clients) t.join();

  // --- overload protection (DESIGN.md §16) ----------------------------
  // Draining flushes the queue and closes admissions: a late request is
  // refused with a typed status instead of hanging, and the refusal
  // shows up in the stats counters below.
  server.drain();
  std::vector<float> late(kClasses);
  const Status refused =
      server.infer(samples.data(), late.data(), serve::InferOptions{});
  std::printf("post-drain request -> %s (healthy=%d, state=%s)\n",
              refused.to_string().c_str(), server.healthy() ? 1 : 0,
              serve::server_state_name(server.state()));
  server.shutdown();

  const serve::Server::Stats stats = server.stats();
  int bad = 0;
  for (int m : mismatches) bad += m;
  std::printf(
      "served %llu requests in %llu batches (mean batch %.2f), "
      "%d response mismatches\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.batches),
      stats.batches ? static_cast<double>(stats.requests) /
                          static_cast<double>(stats.batches)
                    : 0.0,
      bad);
  std::printf(
      "overload counters: rejected=%llu shed=%llu deadline_expired=%llu "
      "degraded_batches=%llu\n",
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.deadline_expired),
      static_cast<unsigned long long>(stats.degraded_batches));
  std::remove(ckpt.c_str());
  std::remove(artifact.c_str());
  if (bad != 0 || stats.requests != kClients * kPerClient ||
      refused.code() != StatusCode::kUnavailable || stats.rejected != 1) {
    std::printf("FAILED: serving diverged from the solo runs\n");
    return 1;
  }
  std::printf("OK: every coalesced response matched its solo run bits\n");
  return 0;
}
