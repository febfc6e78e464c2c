// Self-contained kernel benchmark runner (no Google Benchmark).
//
// Times the hot-path workloads — GEMM across backends, im2col conv
// forward/backward, and a full train step — and writes the results to a
// stable JSON schema ("apt-bench-kernels/1", see README.md) so CI can
// track the repo's perf trajectory. With --check it re-reads a
// previously recorded JSON and fails (exit 1) when any workload ran
// more than --tolerance times slower than the reference.
//
// Usage:
//   bench_runner [--quick] [--out FILE] [--check REF.json]
//                [--tolerance X] [--filter SUBSTR] [--list]
//
// Tolerance may also come from the PERF_GATE_TOLERANCE environment
// variable; the flag wins. Default 2.0 — loose on purpose so shared CI
// runners do not flake the gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/cpu.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/grid_representation.hpp"
#include "data/loader.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/linear.hpp"
#include "nn/plan.hpp"
#include "nn/sequential.hpp"
#include "nn/softmax_xent.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"
#include "train/sharded_step.hpp"

namespace {

using apt::Rng;
using apt::Shape;
using apt::Tensor;

struct BenchResult {
  std::string name;
  double ns_per_iter = 0.0;
  int64_t work_items = 0;  // flops for GEMM/conv, samples for train step
};

struct Config {
  bool quick = false;
  std::string out = "BENCH_kernels.json";
  std::string check;  // reference JSON; empty = no gate
  double tolerance = 2.0;
  // Floor on the derived `*_speedup_*` keys (packed vs the scalar-capped
  // micro-kernel, int8 vs packed). Unlike the absolute ns comparison
  // this is measured on one machine against itself, so it holds on any
  // runner speed; it catches "the packed backend stopped being fast"
  // even when wall-times drift.
  double min_speedup = 1.2;
  // Floor on the data-parallel train step's speedup over the serial
  // reference path (same shards, same numerics, one thread). Also
  // self-relative, but only meaningful with cores to spread over:
  // enforced when the pool has >= 4 participating threads, recorded
  // (ungated) otherwise.
  double min_train_speedup = 1.5;
  // On 2-3-thread pools the same key is held to break-even instead:
  // after the dispatch-overhead work the parallel engine must not LOSE
  // to the serial reference even without real cores to win on. 0
  // disables (like min_train_speedup).
  double min_train_speedup_2t = 0.9;
  // Floors on the int8 conv ratios vs the packed fp32 backend
  // (self-relative like the speedups, so they hold on any runner
  // speed). The chain ratio is the code-passing claim: two quantised
  // convs handing codes through a ReLU with no fp32 round-trip.
  double min_conv_s8_ratio = 1.35;
  double min_chain_ratio = 1.45;
  // Floor on the quantised fwd+bwd step vs the packed fp32 one: the
  // int8-gradient-GEMM claim (stochastically-rounded dY codes feeding
  // dX transposed-conv / dW integer GEMMs) must beat the fp32 backward
  // end to end.
  double min_fwdbwd_s8_ratio = 1.3;
  // Floor on the serving runtime's QPS over the serial single-request
  // baseline (same frozen model, same samples, batch-1 run() calls on
  // one thread). Self-relative, but the win comes from worker
  // concurrency: like min_train_speedup it needs >= 4 participating
  // threads; 2-3-thread pools fall back to the break-even floor.
  double min_serve_speedup = 1.5;
  std::string filter;
  bool list_only = false;
};

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Grows an iteration count until one batch of `fn` fills `min_time_s`
// (warming caches, arenas and the pool along the way).
int64_t calibrate_iters(const std::function<void()>& fn, double min_time_s) {
  fn();  // warm up caches, arenas, pool
  int64_t iters = 1;
  for (;;) {
    const double t0 = now_ns();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double elapsed = now_ns() - t0;
    if (elapsed >= min_time_s * 1e9 || iters >= (1 << 20)) return iters;
    if (elapsed <= 0.0) {
      iters *= 8;
    } else {
      const double target = iters * min_time_s * 1.2e9 / elapsed;
      iters = std::max(iters + 1, static_cast<int64_t>(target));
    }
  }
}

double one_batch_ns(const std::function<void()>& fn, int64_t iters) {
  const double t0 = now_ns();
  for (int64_t i = 0; i < iters; ++i) fn();
  return (now_ns() - t0) / static_cast<double>(iters);
}

// Calibrates an iteration count that fills `min_time_s`, then takes the
// best of three batches (min average) to shed scheduler noise.
double time_ns_per_iter(const std::function<void()>& fn, double min_time_s) {
  const int64_t iters = calibrate_iters(fn, min_time_s);
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch)
    best = std::min(best, one_batch_ns(fn, iters));
  return best;
}

// Times two workloads whose *ratio* is what the gate enforces. Batches
// alternate a/b/a/b so a drift in background load (shared or throttled
// cores) inflates both sides alike instead of whichever one happened to
// run during the burst; each side keeps its own calibrated iteration
// count and takes the min over ten shorter batches, which also gives
// more chances to catch an uncontended window than best-of-three.
std::pair<double, double> time_pair_ns(const std::function<void()>& fa,
                                       const std::function<void()>& fb,
                                       double min_time_s) {
  const int64_t ia = calibrate_iters(fa, min_time_s / 2);
  const int64_t ib = calibrate_iters(fb, min_time_s / 2);
  double best_a = 1e300;
  double best_b = 1e300;
  for (int batch = 0; batch < 10; ++batch) {
    best_a = std::min(best_a, one_batch_ns(fa, ia));
    best_b = std::min(best_b, one_batch_ns(fb, ib));
  }
  return {best_a, best_b};
}

// Scoped GEMM backend override (restores the previous plan options).
class BackendGuard {
 public:
  explicit BackendGuard(apt::nn::GemmBackend b)
      : prev_(apt::nn::plan_options()) {
    apt::nn::PlanOptions opts = prev_;
    opts.backend = b;
    apt::nn::set_plan_options(opts);
  }
  ~BackendGuard() { apt::nn::set_plan_options(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  apt::nn::PlanOptions prev_;
};

struct Workload {
  std::string name;
  int64_t work_items;
  std::function<std::function<void()>()> make;  // builds state + run fn
};

// ---- serving: a frozen ResNet-8 behind the dynamic-batching server ----

// Clients-per-iteration and requests-per-client for the serving
// workloads: one bench iteration is kServeClients * kServeReqs
// single-sample requests, so items_per_sec in the JSON is QPS.
constexpr int kServeClients = 4;
constexpr int kServeReqs = 8;

struct ServeBench {
  static constexpr int64_t kPool = 8;  // distinct samples cycled through
  apt::serve::CompiledModel model;
  std::unique_ptr<apt::serve::Server> server;
  Tensor x;  // [kPool, 3, 16, 16]
};

// Builds, calibrates and freezes the bench ResNet-8 (same topology as
// train_step_resnet8), then stands up a 4-worker server over it.
std::shared_ptr<ServeBench> make_serve_bench() {
  Rng rng(1);
  auto net = apt::models::make_resnet(
      {.n = 1, .base_width = 8, .num_classes = 10}, rng);
  apt::core::GridOptions go;
  go.bits = 6;
  for (apt::nn::Layer* leaf : apt::nn::leaves_of(*net)) {
    apt::nn::Parameter* w = nullptr;
    if (auto* c = dynamic_cast<apt::nn::Conv2d*>(leaf)) w = &c->weight();
    if (auto* l = dynamic_cast<apt::nn::Linear*>(leaf)) w = &l->weight();
    if (w == nullptr) continue;
    w->rep = std::make_shared<apt::core::GridRepresentation>(*w, go);
  }
  for (int i = 0; i < 2; ++i) {  // warm the activation-range trackers
    Tensor calib(Shape{8, 3, 16, 16});
    rng.fill_normal(calib, 0, 1);
    net->forward(calib, /*training=*/true);
  }
  auto sb = std::make_shared<ServeBench>();
  sb->model = apt::serve::CompiledModel::compile(*net, Shape{3, 16, 16});
  // Like the thread pool, size the worker fleet to the machine: extra
  // workers on a small core count only add wakeups and context
  // switches (each worker is serial under its InlineScope).
  const int workers = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  sb->server = std::make_unique<apt::serve::Server>(
      sb->model, apt::serve::ServerOptions{.workers = workers});
  sb->x = Tensor(Shape{ServeBench::kPool, 3, 16, 16});
  rng.fill_normal(sb->x, 0, 1);
  return sb;
}

std::vector<Workload> build_workloads(const Config& cfg) {
  using apt::nn::GemmBackend;
  std::vector<Workload> ws;
  const int64_t conv_batch = cfg.quick ? 2 : 8;
  const int64_t train_batch = cfg.quick ? 8 : 32;

  // fp32 gemm() on the packed backend at the SIMD level `cap` allows
  // (kAvx512 leaves the host's level as it is).
  auto gemm_workload = [](int64_t m, int64_t n, int64_t k, bool tb,
                          apt::SimdLevel cap) {
    return [=]() -> std::function<void()> {
      auto a = std::make_shared<std::vector<float>>(
          static_cast<size_t>(m * k));
      auto b = std::make_shared<std::vector<float>>(
          static_cast<size_t>(k * n));
      auto c = std::make_shared<std::vector<float>>(
          static_cast<size_t>(m * n));
      Rng rng(1);
      for (auto& v : *a) v = rng.uniform(-1, 1);
      for (auto& v : *b) v = rng.uniform(-1, 1);
      return [=] {
        BackendGuard guard(GemmBackend::kPacked);
        apt::SimdCapScope scope(cap);
        apt::nn::gemm(false, tb, m, n, k, 1.0f, a->data(), b->data(), 0.0f,
                      c->data());
      };
    };
  };

  // The acceptance workload: 256^3, packed vs the portable micro-kernel
  // under the scalar SIMD cap (the no-SIMD baseline).
  ws.push_back({"gemm_f32_256_packed", 2 * 256 * 256 * 256,
                gemm_workload(256, 256, 256, false, apt::SimdLevel::kAvx512)});
  ws.push_back({"gemm_f32_256_packed_scalar", 2 * 256 * 256 * 256,
                gemm_workload(256, 256, 256, false, apt::SimdLevel::kScalar)});
  // Linear-layer shape: y = x * W^T exercises trans_b packing.
  ws.push_back({"gemm_f32_128x512x256_nt", 2 * 128 * 512 * 256,
                gemm_workload(128, 512, 256, true, apt::SimdLevel::kAvx512)});
  // Integer kernel on the acceptance shape: full-range u8 activation
  // codes against a 6-bit weight plane (the paper's operating point),
  // which engages the vpmaddubsw quad strategy. Non-trivial zero-points,
  // dequantised fp32 output.
  ws.push_back({"gemm_s8_256", 2 * 256 * 256 * 256, []() {
                  const int64_t m = 256, n = 256, k = 256;
                  auto a = std::make_shared<std::vector<uint8_t>>(
                      static_cast<size_t>(m * k));
                  auto b = std::make_shared<std::vector<uint8_t>>(
                      static_cast<size_t>(k * n));
                  auto c = std::make_shared<std::vector<float>>(
                      static_cast<size_t>(m * n));
                  Rng rng(1);
                  for (auto& v : *a)
                    v = static_cast<uint8_t>(rng.randint(0, 255));
                  for (auto& v : *b)
                    v = static_cast<uint8_t>(rng.randint(0, 63));
                  apt::nn::GemmS8Params qp{0.01, 0.02, 128, 31};
                  qp.max_b = 63;
                  return std::function<void()>([=] {
                    const apt::nn::KernelPlan& plan = apt::nn::plan_for(
                        apt::nn::PlanKey::s8(m, n, k, false, false, 255, 63));
                    apt::nn::GemmS8Args ga;
                    ga.a = a->data();
                    ga.b = b->data();
                    ga.params = qp;
                    ga.out = c->data();
                    apt::nn::gemm_s8_ex(plan, ga);
                  });
                }});
  // Skinny integer GEMM (one MC block tall): the shape whose
  // parallelism comes from the planner's split-N decomposition instead
  // of M partitioning. Runs through the plan-keyed API.
  ws.push_back({"gemm_skinny_s8", 2 * 8 * 1024 * 256, []() {
                  const int64_t m = 8, n = 1024, k = 256;
                  auto a = std::make_shared<std::vector<uint8_t>>(
                      static_cast<size_t>(m * k));
                  auto b = std::make_shared<std::vector<uint8_t>>(
                      static_cast<size_t>(k * n));
                  auto c = std::make_shared<std::vector<float>>(
                      static_cast<size_t>(m * n));
                  Rng rng(1);
                  for (auto& v : *a)
                    v = static_cast<uint8_t>(rng.randint(0, 255));
                  for (auto& v : *b)
                    v = static_cast<uint8_t>(rng.randint(0, 63));
                  apt::nn::GemmS8Params qp{0.01, 0.02, 128, 31};
                  qp.max_b = 63;
                  return std::function<void()>([=] {
                    const apt::nn::KernelPlan& plan = apt::nn::plan_for(
                        apt::nn::PlanKey::s8(m, n, k, false, false, 255, 63));
                    apt::nn::GemmS8Args ga;
                    ga.a = a->data();
                    ga.b = b->data();
                    ga.params = qp;
                    ga.out = c->data();
                    apt::nn::gemm_s8_ex(plan, ga);
                  });
                }});

  auto conv_workload = [conv_batch](bool backward, GemmBackend backend) {
    return [=]() -> std::function<void()> {
      Rng rng(1);
      apt::nn::Conv2dOptions opts;
      opts.in_channels = 64;
      opts.out_channels = 64;
      opts.bias = true;
      auto conv = std::make_shared<apt::nn::Conv2d>("bench", opts, rng);
      auto x = std::make_shared<Tensor>(Shape{conv_batch, 64, 16, 16});
      rng.fill_normal(*x, 0, 1);
      auto dy = std::make_shared<Tensor>(conv->forward(*x, true).shape());
      rng.fill_normal(*dy, 0, 1);
      return [=] {
        BackendGuard guard(backend);
        if (backward) {
          conv->forward(*x, true);
          conv->backward(*dy);
        } else {
          conv->forward(*x, true);
        }
      };
    };
  };
  // MACs: 64 out-ch * 16*16 * (64*3*3) per sample; backward ~3x forward.
  const int64_t conv_macs = 64 * 16 * 16 * 64 * 3 * 3 * conv_batch;
  ws.push_back(
      {"conv3x3_c64_fwd_packed", 2 * conv_macs,
       conv_workload(/*backward=*/false, GemmBackend::kPacked)});
  // Quantised forward: 8-bit weight codes + activation quantiser through
  // gemm_s8 (the training-mode call also feeds the range tracker).
  ws.push_back({"conv3x3_c64_fwd_s8", 2 * conv_macs, [conv_batch]() {
                  Rng rng(1);
                  apt::nn::Conv2dOptions opts;
                  opts.in_channels = 64;
                  opts.out_channels = 64;
                  opts.bias = true;
                  auto conv =
                      std::make_shared<apt::nn::Conv2d>("bench_s8", opts, rng);
                  apt::core::GridOptions go;
                  go.bits = 6;  // APT's starting point; quad-path eligible
                  auto& w = conv->weight();
                  w.rep =
                      std::make_shared<apt::core::GridRepresentation>(w, go);
                  auto x = std::make_shared<Tensor>(
                      Shape{conv_batch, 64, 16, 16});
                  rng.fill_normal(*x, 0, 1);
                  return std::function<void()>([=] {
                    BackendGuard guard(apt::nn::GemmBackend::kInt8);
                    conv->forward(*x, true);
                  });
                }});
  // 1x1 quantised conv: the planner lowers it to a direct code-plane
  // GEMM (kS8ConvDirect — no staging, no implicit gather).
  const int64_t conv1x1_macs = 64 * 16 * 16 * 64 * conv_batch;
  ws.push_back({"conv1x1_c64_s8", 2 * conv1x1_macs, [conv_batch]() {
                  Rng rng(1);
                  apt::nn::Conv2dOptions opts;
                  opts.in_channels = 64;
                  opts.out_channels = 64;
                  opts.kernel = 1;
                  opts.padding = 0;
                  opts.bias = true;
                  auto conv = std::make_shared<apt::nn::Conv2d>("bench_1x1",
                                                                opts, rng);
                  apt::core::GridOptions go;
                  go.bits = 6;
                  auto& w = conv->weight();
                  w.rep =
                      std::make_shared<apt::core::GridRepresentation>(w, go);
                  auto x = std::make_shared<Tensor>(
                      Shape{conv_batch, 64, 16, 16});
                  rng.fill_normal(*x, 0, 1);
                  return std::function<void()>([=] {
                    BackendGuard guard(apt::nn::GemmBackend::kInt8);
                    conv->forward(*x, true);
                  });
                }});
  ws.push_back(
      {"conv3x3_c64_fwdbwd_packed", 6 * conv_macs,
       conv_workload(/*backward=*/true, GemmBackend::kPacked)});
  // Quantised fwd+bwd: two warm-up passes initialise the activation AND
  // gradient range trackers (the gradient grid lags one step), so the
  // timed region runs the stochastically-rounded dY quantiser and both
  // integer gradient GEMMs (dX / dW) every iteration.
  ws.push_back({"conv3x3_c64_fwdbwd_s8", 6 * conv_macs, [conv_batch]() {
                  Rng rng(1);
                  apt::nn::Conv2dOptions opts;
                  opts.in_channels = 64;
                  opts.out_channels = 64;
                  opts.bias = true;
                  auto conv = std::make_shared<apt::nn::Conv2d>(
                      "bench_bwd_s8", opts, rng);
                  apt::core::GridOptions go;
                  go.bits = 6;  // APT's starting point; quad-path eligible
                  auto& w = conv->weight();
                  w.rep =
                      std::make_shared<apt::core::GridRepresentation>(w, go);
                  auto x = std::make_shared<Tensor>(
                      Shape{conv_batch, 64, 16, 16});
                  rng.fill_normal(*x, 0, 1);
                  auto dy = std::make_shared<Tensor>(
                      conv->forward(*x, true).shape());
                  rng.fill_normal(*dy, 0, 1);
                  {
                    BackendGuard guard(apt::nn::GemmBackend::kInt8);
                    for (int i = 0; i < 2; ++i) {
                      conv->forward(*x, true);
                      conv->backward(*dy);
                    }
                  }
                  return std::function<void()>([=] {
                    BackendGuard guard(apt::nn::GemmBackend::kInt8);
                    conv->forward(*x, true);
                    conv->backward(*dy);
                  });
                }});

  // ResNet-8-shaped skinny conv (8 -> 8 channels, 16x16) fwd+bwd in both
  // regimes. Its 8-bit weight grid keeps the forward on the int16 k-pair
  // strategy, so this pair watches the packers and byte-moving loops
  // around thin GEMMs that the 64-channel benches above amortise away.
  // The fp32 forward alone (conv3x3_c8_fwd_packed) is the M = 8 GEMM
  // whose B the vector tiles read in place from the padded image.
  // Recorded, never gated.
  const int64_t c8_batch = 4 * conv_batch;
  auto conv_c8_workload = [c8_batch](bool int8, bool backward) {
    return [=]() -> std::function<void()> {
      Rng rng(1);
      apt::nn::Conv2dOptions opts;
      opts.in_channels = 8;
      opts.out_channels = 8;
      auto conv = std::make_shared<apt::nn::Conv2d>("bench_c8", opts, rng);
      if (int8) {
        apt::core::GridOptions go;
        go.bits = 8;
        auto& w = conv->weight();
        w.rep = std::make_shared<apt::core::GridRepresentation>(w, go);
      }
      auto x = std::make_shared<Tensor>(Shape{c8_batch, 8, 16, 16});
      rng.fill_normal(*x, 0, 1);
      auto dy = std::make_shared<Tensor>(conv->forward(*x, true).shape());
      rng.fill_normal(*dy, 0, 1);
      const GemmBackend backend =
          int8 ? GemmBackend::kInt8 : GemmBackend::kPacked;
      {
        // Two warm-up steps initialise the activation and gradient range
        // trackers, so the int8 timed region runs both integer backward
        // GEMMs.
        BackendGuard guard(backend);
        for (int i = 0; i < 2; ++i) {
          conv->forward(*x, true);
          conv->backward(*dy);
        }
      }
      return std::function<void()>([=] {
        BackendGuard guard(backend);
        conv->forward(*x, true);
        if (backward) conv->backward(*dy);
      });
    };
  };
  const int64_t conv_c8_macs = 8 * 16 * 16 * 8 * 3 * 3 * c8_batch;
  ws.push_back({"conv3x3_c8_fwd_packed", 2 * conv_c8_macs,
                conv_c8_workload(/*int8=*/false, /*backward=*/false)});
  ws.push_back({"conv3x3_c8_fwdbwd_packed", 6 * conv_c8_macs,
                conv_c8_workload(/*int8=*/false, /*backward=*/true)});
  ws.push_back({"conv3x3_c8_fwdbwd_s8", 6 * conv_c8_macs,
                conv_c8_workload(/*int8=*/true, /*backward=*/true)});

  // Two-conv chain (Conv -> ReLU -> Conv) in both regimes. The s8
  // variant exercises the code-passing dataflow: after two warm-up
  // passes (range trackers), conv1 emits u8 codes through the fused
  // requantising epilogue, ReLU clamps the byte plane, and conv2 feeds
  // the codes straight into its byte im2col — no fp32 round-trip
  // between the layers. The packed variant is the same model on the
  // fp32 backend; the derived conv_s8_chain_ratio_vs_packed is the
  // gated claim that the quantised dataflow beats fp32 end to end.
  auto chain_workload = [conv_batch](bool int8) {
    return [=]() -> std::function<void()> {
      Rng rng(1);
      apt::nn::Conv2dOptions opts;
      opts.in_channels = 64;
      opts.out_channels = 64;
      opts.bias = true;
      auto net = std::make_shared<apt::nn::Sequential>("chain");
      auto* c1 = net->emplace<apt::nn::Conv2d>("chain.c1", opts, rng);
      net->emplace<apt::nn::ReLU>("chain.relu");
      auto* c2 = net->emplace<apt::nn::Conv2d>("chain.c2", opts, rng);
      if (int8) {
        apt::core::GridOptions go;
        go.bits = 6;  // APT's starting point; quad-path eligible
        for (auto* c : {c1, c2}) {
          auto& w = c->weight();
          w.rep = std::make_shared<apt::core::GridRepresentation>(w, go);
        }
      }
      auto x = std::make_shared<Tensor>(Shape{conv_batch, 64, 16, 16});
      rng.fill_normal(*x, 0, 1);
      if (int8) {  // warm the range trackers so emission engages
        BackendGuard guard(apt::nn::GemmBackend::kInt8);
        net->forward(*x, true);
        net->forward(*x, true);
      }
      return std::function<void()>([=] {
        BackendGuard guard(int8 ? apt::nn::GemmBackend::kInt8
                                : apt::nn::GemmBackend::kPacked);
        net->forward(*x, true);
      });
    };
  };
  ws.push_back({"conv_chain_packed", 4 * conv_macs,
                chain_workload(/*int8=*/false)});
  ws.push_back({"conv_s8_chain", 4 * conv_macs, chain_workload(true)});

  // Whole train step (ResNet-8 fwd + loss + bwd): on the default fp32
  // backend, the end-to-end number the kernel work is in service of; and
  // with every unit on a fixed 8-bit grid under the int8 backend, where
  // integer kernels run the forward and both gradient GEMMs. Two warm-up
  // steps start the activation and gradient range trackers, so the timed
  // int8 step runs the integer backward. Their quotient,
  // train_step_resnet8_s8_ratio_vs_fp32, is recorded, not gated.
  auto train_step_workload = [train_batch](bool int8) {
    return [=]() -> std::function<void()> {
      Rng rng(1);
      std::shared_ptr<apt::nn::Sequential> net(apt::models::make_resnet(
          {.n = 1, .base_width = 8, .num_classes = 10}, rng));
      auto x = std::make_shared<Tensor>(Shape{train_batch, 3, 16, 16});
      rng.fill_normal(*x, 0, 1);
      auto labels = std::make_shared<std::vector<int32_t>>();
      for (int64_t i = 0; i < train_batch; ++i)
        labels->push_back(static_cast<int32_t>(i % 10));
      auto loss = std::make_shared<apt::nn::SoftmaxCrossEntropy>();
      const GemmBackend backend =
          int8 ? GemmBackend::kInt8 : GemmBackend::kPacked;
      auto step = [=] {
        BackendGuard guard(backend);
        Tensor logits = net->forward(*x, /*training=*/true);
        loss->forward(logits, *labels);
        net->backward(loss->backward());
      };
      if (int8) {
        apt::core::GridOptions go;
        go.bits = 8;
        apt::core::attach_grid(*net, go);
        for (int i = 0; i < 2; ++i) step();
      }
      return std::function<void()>(step);
    };
  };
  ws.push_back({"train_step_resnet8", train_batch,
                train_step_workload(/*int8=*/false)});
  ws.push_back({"train_step_resnet8_s8", train_batch,
                train_step_workload(/*int8=*/true)});

  // Full data-parallel step (shard split, fwd, loss, bwd, shard-ordered
  // gradient reduction) vs the serial reference: the SAME shards in
  // order on ONE thread (the pool is bypassed entirely via
  // force_serial, so inner kernel parallel_fors run inline too). Both
  // produce bit-identical gradients, so the derived speedup measures
  // whole-step multicore utilisation against a true one-thread
  // baseline.
  // Grain keeps both modes at >= 4 shards (quick: batch 8 / grain 2,
  // full: batch 32 / grain 4) so a 4-core runner has parallelism to
  // demonstrate.
  const int64_t step_grain = cfg.quick ? 2 : 4;
  auto sharded_step_workload = [train_batch, step_grain](int num_workers) {
    return [=]() -> std::function<void()> {
      Rng rng(1);
      auto model = apt::models::make_resnet(
          {.n = 1, .base_width = 8, .num_classes = 10}, rng);
      std::shared_ptr<apt::nn::Sequential> net(std::move(model));
      auto batch = std::make_shared<apt::data::Batch>();
      batch->inputs = Tensor(Shape{train_batch, 3, 16, 16});
      rng.fill_normal(batch->inputs, 0, 1);
      for (int64_t i = 0; i < train_batch; ++i)
        batch->labels.push_back(static_cast<int32_t>(i % 10));
      auto engine = std::make_shared<apt::train::ShardedStep>(
          *net, apt::train::ShardedStepConfig{num_workers, step_grain});
      auto params = std::make_shared<std::vector<apt::nn::Parameter*>>(
          net->parameters());
      // net is captured explicitly: the engine holds the model by
      // reference, so the closure must own it to keep it alive.
      const bool serial = num_workers == 1;
      return std::function<void()>([net, batch, engine, params, serial] {
        for (auto* p : *params) p->zero_grad();
        if (serial) apt::ThreadPool::set_force_serial(true);
        engine->run(*batch);
        if (serial) apt::ThreadPool::set_force_serial(false);
      });
    };
  };
  ws.push_back({"train_step_parallel", train_batch,
                sharded_step_workload(/*num_workers=*/0)});
  ws.push_back({"train_step_serial", train_batch,
                sharded_step_workload(/*num_workers=*/1)});

  // Serving QPS: kServeClients concurrent clients fire kServeReqs
  // single-sample requests each at the dynamic-batching server (workers
  // coalesce whatever is queued, up to the model's max_batch), vs the
  // SAME requests as batch-1 run() calls on one thread. The derived
  // serve_resnet8_qps_speedup_vs_serial is the batching + worker-
  // concurrency claim; responses are bit-identical by construction
  // (tests/serve_test.cpp), so the ratio is pure throughput.
  ws.push_back({"serve_resnet8_qps", kServeClients * kServeReqs, []() {
                  auto sb = make_serve_bench();
                  return std::function<void()>([sb] {
                    std::vector<std::thread> clients;
                    const int64_t in_elems = sb->model.in_elems();
                    for (int c = 0; c < kServeClients; ++c) {
                      clients.emplace_back([&sb, in_elems, c] {
                        std::vector<float> out(10);
                        for (int r = 0; r < kServeReqs; ++r) {
                          const int64_t s = (c + r) % ServeBench::kPool;
                          sb->server->infer(sb->x.data() + s * in_elems,
                                            out.data());
                        }
                      });
                    }
                    for (auto& t : clients) t.join();
                  });
                }});
  ws.push_back({"serve_resnet8_serial", kServeClients * kServeReqs, []() {
                  auto sb = make_serve_bench();
                  auto ctx = std::make_shared<apt::serve::InferenceContext>();
                  auto out = std::make_shared<std::vector<float>>(10);
                  return std::function<void()>([sb, ctx, out] {
                    const int64_t in_elems = sb->model.in_elems();
                    for (int i = 0; i < kServeClients * kServeReqs; ++i) {
                      const int64_t s = i % ServeBench::kPool;
                      sb->model.run(sb->x.data() + s * in_elems, 1,
                                    out->data(), *ctx);
                    }
                  });
                }});
  return ws;
}

// ------------------------------------------------------------- reporting

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

double find_ns(const std::vector<BenchResult>& rs, const std::string& name) {
  for (const auto& r : rs)
    if (r.name == name) return r.ns_per_iter;
  return 0.0;
}

void write_json(const Config& cfg, const std::vector<BenchResult>& results,
                const std::map<std::string, double>& derived) {
  std::ofstream out(cfg.out);
  if (!out) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n", cfg.out.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"apt-bench-kernels/1\",\n";
  out << "  \"mode\": \"" << (cfg.quick ? "quick" : "default") << "\",\n";
  out << "  \"pool_threads\": " << apt::ThreadPool::global().size() + 1
      << ",\n";
  out << "  \"avx2_fma\": "
      << (apt::cpu_has_avx2_fma() ? "true" : "false") << ",\n";
  out << "  \"simd\": \"" << apt::simd_level_name(apt::simd_level())
      << "\",\n";
  out << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"ns_per_iter\": %.1f, "
                  "\"work_items\": %lld, \"items_per_sec\": %.4g}%s\n",
                  json_escape(r.name).c_str(), r.ns_per_iter,
                  static_cast<long long>(r.work_items),
                  r.work_items * 1e9 / r.ns_per_iter,
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"derived\": {";
  size_t i = 0;
  for (const auto& [key, value] : derived) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %.3f",
                  i++ ? "," : "", key.c_str(), value);
    out << buf;
  }
  out << "\n  }\n}\n";
  std::printf("wrote %s\n", cfg.out.c_str());
}

// Minimal scanner for the files this tool writes itself: pulls the
// ("name", "ns_per_iter") pairs out of the benchmarks array, plus the
// "mode" field so a gate never compares across workload sizes.
std::map<std::string, double> read_reference(const std::string& path,
                                             std::string* mode) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_runner: cannot read reference %s\n",
                 path.c_str());
    std::exit(1);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const size_t mode_key = text.find("\"mode\"");
  if (mode_key != std::string::npos) {
    const size_t q0 = text.find('"', mode_key + 6 + 1);
    const size_t q1 = text.find('"', q0 + 1);
    if (q0 != std::string::npos && q1 != std::string::npos)
      *mode = text.substr(q0 + 1, q1 - q0 - 1);
  }
  std::map<std::string, double> ref;
  size_t pos = 0;
  for (;;) {
    const size_t name_key = text.find("\"name\"", pos);
    if (name_key == std::string::npos) break;
    const size_t q0 = text.find('"', name_key + 6 + 1);
    const size_t q1 = text.find('"', q0 + 1);
    const size_t ns_key = text.find("\"ns_per_iter\"", q1);
    if (q0 == std::string::npos || q1 == std::string::npos ||
        ns_key == std::string::npos)
      break;
    const size_t colon = text.find(':', ns_key);
    ref[text.substr(q0 + 1, q1 - q0 - 1)] =
        std::strtod(text.c_str() + colon + 1, nullptr);
    pos = ns_key + 1;
  }
  return ref;
}

int run_gate(const Config& cfg, const std::vector<BenchResult>& results,
             const std::map<std::string, double>& derived) {
  std::string ref_mode;
  const auto ref = read_reference(cfg.check, &ref_mode);
  const std::string run_mode = cfg.quick ? "quick" : "default";
  if (!ref_mode.empty() && ref_mode != run_mode) {
    std::fprintf(stderr,
                 "bench_runner: reference %s was recorded in \"%s\" mode but "
                 "this run used \"%s\" — rerun with %s\n",
                 cfg.check.c_str(), ref_mode.c_str(), run_mode.c_str(),
                 ref_mode == "quick" ? "--quick" : "no --quick");
    return 1;
  }
  int failures = 0;
  std::printf(
      "\nperf gate vs %s (tolerance %.2fx, min speedup %.2fx, "
      "min train speedup %.2fx on >= 4 threads)\n",
      cfg.check.c_str(), cfg.tolerance, cfg.min_speedup,
      cfg.min_train_speedup);
  std::printf("%-32s %14s %14s %8s\n", "benchmark", "ref ns/iter",
              "now ns/iter", "ratio");
  for (const auto& r : results) {
    const auto it = ref.find(r.name);
    if (it == ref.end() || it->second <= 0.0) {
      // A benchmark the reference does not know cannot be gated; under
      // --filter that is expected, otherwise it means someone renamed
      // or added a workload without regenerating perf_reference.json —
      // fail rather than silently un-gate it.
      const bool bad = cfg.filter.empty();
      if (bad) ++failures;
      std::printf("%-32s %14s %14.0f %8s%s\n", r.name.c_str(), "-",
                  r.ns_per_iter, "new", bad ? "  << not in reference" : "");
      continue;
    }
    const double ratio = r.ns_per_iter / it->second;
    const bool bad = ratio > cfg.tolerance;
    if (bad) ++failures;
    std::printf("%-32s %14.0f %14.0f %7.2fx%s\n", r.name.c_str(), it->second,
                r.ns_per_iter, ratio, bad ? "  << FAIL" : "");
  }
  if (cfg.filter.empty()) {
    for (const auto& [name, ns] : ref) {
      bool measured = false;
      for (const auto& r : results) measured |= r.name == name;
      if (!measured) {
        ++failures;
        std::printf("%-32s %14.0f %14s %8s  << stale reference entry\n",
                    name.c_str(), ns, "-", "-");
      }
    }
  }
  const unsigned pool_threads = apt::ThreadPool::global().size() + 1;
  for (const auto& [key, value] : derived) {
    if (key == "train_step_parallel_speedup_vs_serial") {
      // Parallel-vs-serial gain needs cores to exist: >= 4 participating
      // threads enforce the full floor; 2-3 threads are held to the
      // break-even floor (the engine must not lose to its own serial
      // reference); a 1-thread pool runs the identical code path and is
      // recorded only.
      double floor = 0.0;
      if (pool_threads >= 4) {
        floor = cfg.min_train_speedup;
      } else if (pool_threads >= 2) {
        floor = cfg.min_train_speedup_2t;
      }
      if (floor > 0.0 && value < floor) {
        ++failures;
        std::printf("%-32s %37.2fx  << below min train speedup (%.2fx)\n",
                    key.c_str(), value, floor);
      }
      continue;
    }
    if (key == "serve_resnet8_qps_speedup_vs_serial") {
      // The serving speedup is worker concurrency: gate like the train
      // step (full floor on >= 4 threads, break-even on 2-3, recorded
      // only on 1).
      double floor = 0.0;
      if (pool_threads >= 4) {
        floor = cfg.min_serve_speedup;
      } else if (pool_threads >= 2) {
        floor = cfg.min_train_speedup_2t;
      }
      if (floor > 0.0 && value < floor) {
        ++failures;
        std::printf("%-32s %37.2fx  << below min serve speedup (%.2fx)\n",
                    key.c_str(), value, floor);
      }
      continue;
    }
    // Latency percentiles are wall-clock, runner-dependent: record only.
    if (key.find("_us") != std::string::npos) continue;
    // Without AVX2+FMA both sides run the scalar micro-kernel: record
    // only.
    if (key == "gemm256_speedup_vs_scalar" &&
        !apt::cpu_has_avx2_fma())
      continue;
    // Int8-vs-packed conv ratios carry their own floors (they are
    // thinner than the pure-GEMM speedups: quantise/gather overhead).
    double floor = 0.0;
    if (key == "conv3x3_c64_fwd_s8_ratio_vs_packed") {
      floor = cfg.min_conv_s8_ratio;
    } else if (key == "conv_s8_chain_ratio_vs_packed") {
      floor = cfg.min_chain_ratio;
    } else if (key == "conv3x3_c64_fwdbwd_s8_ratio_vs_packed") {
      floor = cfg.min_fwdbwd_s8_ratio;
    } else if (key.find("speedup") != std::string::npos) {
      floor = cfg.min_speedup;
    }
    if (floor > 0.0 && value < floor) {
      ++failures;
      std::printf("%-32s %37.2fx  << below floor (%.2fx)\n", key.c_str(),
                  value, floor);
    }
  }
  if (failures > 0) {
    std::printf("perf gate FAILED: %d check(s) out of bounds\n", failures);
    return 1;
  }
  std::printf("perf gate passed\n");
  return 0;
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  if (const char* env = std::getenv("PERF_GATE_TOLERANCE"))
    cfg.tolerance = std::strtod(env, nullptr);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_runner: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--out") {
      cfg.out = next();
    } else if (arg == "--check") {
      cfg.check = next();
    } else if (arg == "--tolerance") {
      cfg.tolerance = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-speedup") {
      cfg.min_speedup = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-train-speedup") {
      cfg.min_train_speedup = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-train-speedup-2t") {
      cfg.min_train_speedup_2t = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-conv-s8-ratio") {
      cfg.min_conv_s8_ratio = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-chain-ratio") {
      cfg.min_chain_ratio = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-fwdbwd-s8-ratio") {
      cfg.min_fwdbwd_s8_ratio = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--min-serve-speedup") {
      cfg.min_serve_speedup = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--filter") {
      cfg.filter = next();
    } else if (arg == "--list") {
      cfg.list_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_runner [--quick] [--out FILE] [--check REF] "
                   "[--tolerance X] [--min-speedup X] [--min-train-speedup X] "
                   "[--min-train-speedup-2t X] [--min-conv-s8-ratio X] "
                   "[--min-chain-ratio X] [--min-fwdbwd-s8-ratio X] "
                   "[--min-serve-speedup X] [--filter SUBSTR] [--list]\n");
      std::exit(arg == "--help" ? 0 : 2);
    }
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  const auto workloads = build_workloads(cfg);
  if (cfg.list_only) {
    for (const auto& w : workloads) std::printf("%s\n", w.name.c_str());
    return 0;
  }

  const double min_time_s = cfg.quick ? 0.05 : 0.25;
  // Workloads whose quotient feeds a gated self-relative ratio are timed
  // together with interleaved batches (time_pair_ns): the ratio floors
  // are meant to be runner-speed-independent, which only holds if both
  // sides see the same background load.
  const std::map<std::string, std::string> ratio_pairs = {
      {"conv3x3_c64_fwd_packed", "conv3x3_c64_fwd_s8"},
      {"conv3x3_c64_fwdbwd_packed", "conv3x3_c64_fwdbwd_s8"},
      {"conv3x3_c8_fwdbwd_packed", "conv3x3_c8_fwdbwd_s8"},
      {"conv_chain_packed", "conv_s8_chain"},
      {"train_step_resnet8", "train_step_resnet8_s8"},
      {"serve_resnet8_serial", "serve_resnet8_qps"},
  };
  const auto passes_filter = [&](const std::string& name) {
    return cfg.filter.empty() || name.find(cfg.filter) != std::string::npos;
  };
  std::vector<BenchResult> results;
  std::map<std::string, double> paired_ns;  // partner timed ahead of turn
  std::printf("%-32s %14s %12s\n", "benchmark", "ns/iter", "Gitems/s");
  for (const auto& w : workloads) {
    if (!passes_filter(w.name)) continue;
    double ns = 0.0;
    if (const auto done = paired_ns.find(w.name); done != paired_ns.end()) {
      ns = done->second;
    } else {
      const Workload* partner = nullptr;
      if (const auto p = ratio_pairs.find(w.name);
          p != ratio_pairs.end() && passes_filter(p->second)) {
        for (const auto& cand : workloads)
          if (cand.name == p->second) partner = &cand;
      }
      if (partner != nullptr) {
        const auto [a, b] = time_pair_ns(w.make(), partner->make(), min_time_s);
        ns = a;
        paired_ns[partner->name] = b;
      } else {
        ns = time_ns_per_iter(w.make(), min_time_s);
      }
    }
    results.push_back({w.name, ns, w.work_items});
    std::printf("%-32s %14.0f %12.3f\n", w.name.c_str(), ns,
                w.work_items / ns);
    std::fflush(stdout);
  }

  std::map<std::string, double> derived;
  const double gemm_packed = find_ns(results, "gemm_f32_256_packed");
  const double gemm_scalar = find_ns(results, "gemm_f32_256_packed_scalar");
  if (gemm_packed > 0 && gemm_scalar > 0)
    derived["gemm256_speedup_vs_scalar"] = gemm_scalar / gemm_packed;
  const double conv_packed = find_ns(results, "conv3x3_c64_fwd_packed");
  const double bwd_packed = find_ns(results, "conv3x3_c64_fwdbwd_packed");
  // Integer vs fp32-packed: like the vs-scalar ratio these are measured on
  // one machine against itself, so the gate's min-speedup floor holds on
  // any runner speed. The conv number is recorded as a "ratio", not a
  // "speedup": the quantised conv forward carries non-GEMM work
  // (activation quantise, byte im2col, bias) that thins its margin to
  // ~1.2x, too close to the floor to gate without flaking; the pure-GEMM
  // key below is the gated claim.
  const double gemm_s8 = find_ns(results, "gemm_s8_256");
  if (gemm_s8 > 0 && gemm_packed > 0)
    derived["gemm256_s8_speedup_vs_packed"] = gemm_packed / gemm_s8;
  const double conv_s8 = find_ns(results, "conv3x3_c64_fwd_s8");
  if (conv_s8 > 0 && conv_packed > 0)
    derived["conv3x3_c64_fwd_s8_ratio_vs_packed"] = conv_packed / conv_s8;
  // Quantised fwd+bwd vs fp32-packed fwd+bwd: the int8 backward claim
  // (SR dY quantise + dX/dW integer GEMMs beat the fp32 backward).
  const double bwd_s8 = find_ns(results, "conv3x3_c64_fwdbwd_s8");
  if (bwd_s8 > 0 && bwd_packed > 0)
    derived["conv3x3_c64_fwdbwd_s8_ratio_vs_packed"] = bwd_packed / bwd_s8;
  // The same claim at ResNet-8's skinny 8-channel shape (pairs forward):
  // recorded, not gated.
  const double c8_s8 = find_ns(results, "conv3x3_c8_fwdbwd_s8");
  const double c8_packed = find_ns(results, "conv3x3_c8_fwdbwd_packed");
  if (c8_s8 > 0 && c8_packed > 0)
    derived["conv3x3_c8_fwdbwd_s8_ratio_vs_packed"] = c8_packed / c8_s8;
  // Code-passing chain vs the same two-conv model on fp32: this is the
  // end-to-end dataflow claim (quantise once, codes all the way down).
  const double chain_s8 = find_ns(results, "conv_s8_chain");
  const double chain_packed = find_ns(results, "conv_chain_packed");
  if (chain_s8 > 0 && chain_packed > 0)
    derived["conv_s8_chain_ratio_vs_packed"] = chain_packed / chain_s8;
  // The int8 ResNet-8 step against the fp32 one: recorded, not gated.
  const double step_s8 = find_ns(results, "train_step_resnet8_s8");
  const double step_f32 = find_ns(results, "train_step_resnet8");
  if (step_s8 > 0 && step_f32 > 0)
    derived["train_step_resnet8_s8_ratio_vs_fp32"] = step_f32 / step_s8;
  // Parallel-vs-serial step: self-relative like the backend speedups, but
  // gated only on machines with enough cores to make the claim (>= 4
  // pool threads); see run_gate.
  const double step_par = find_ns(results, "train_step_parallel");
  const double step_ser = find_ns(results, "train_step_serial");
  if (step_par > 0 && step_ser > 0)
    derived["train_step_parallel_speedup_vs_serial"] = step_ser / step_par;
  // Serving: QPS speedup over the serial batch-1 baseline (gated like
  // the train-step speedup — it needs cores), plus request-latency
  // percentiles under the same concurrent-client load. The percentiles
  // are wall-clock and runner-dependent, so they are recorded in the
  // JSON but never gated.
  const double serve_batched = find_ns(results, "serve_resnet8_qps");
  const double serve_serial = find_ns(results, "serve_resnet8_serial");
  if (serve_batched > 0 && serve_serial > 0)
    derived["serve_resnet8_qps_speedup_vs_serial"] =
        serve_serial / serve_batched;
  if (serve_batched > 0) {
    auto sb = make_serve_bench();
    const int64_t in_elems = sb->model.in_elems();
    const int per_client = cfg.quick ? 100 : 500;
    std::vector<std::vector<double>> lat(kServeClients);
    {  // warm every worker's context + arena before timing requests
      std::vector<float> out(10);
      for (int i = 0; i < 2 * kServeClients; ++i)
        sb->server->infer(sb->x.data(), out.data());
    }
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<float> out(10);
        lat[c].reserve(per_client);
        for (int r = 0; r < per_client; ++r) {
          const int64_t s = (c + r) % ServeBench::kPool;
          const double t0 = now_ns();
          sb->server->infer(sb->x.data() + s * in_elems, out.data());
          lat[c].push_back(now_ns() - t0);
        }
      });
    }
    for (auto& t : clients) t.join();
    std::vector<double> all;
    for (const auto& l : lat) all.insert(all.end(), l.begin(), l.end());
    std::sort(all.begin(), all.end());
    derived["serve_resnet8_p50_us"] = all[all.size() / 2] / 1e3;
    derived["serve_resnet8_p99_us"] = all[all.size() * 99 / 100] / 1e3;
  }
  for (const auto& [key, value] : derived)
    std::printf("%-40s %6.2f%s\n", key.c_str(), value,
                key.find("_us") != std::string::npos ? " us" : "x");

  write_json(cfg, results, derived);
  return cfg.check.empty() ? 0 : run_gate(cfg, results, derived);
}
