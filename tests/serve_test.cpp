// Tests for the frozen serving runtime (DESIGN.md §15): CompiledModel
// lowering (BN/ReLU folding, static code handoffs, plans bound at
// compile and at load), the models it refuses to compile,
// closeness to the training-time fp32 forward, bit-identity of responses
// across batch composition / coalescing / worker counts, byte-stable
// serialization (save -> load -> save), the freeze-from-checkpoint
// boundary, the zero-steady-state-allocation watermark, Server
// shutdown/drain semantics, and the shard-free serving-thread contract
// for evaluation forwards on a shared training model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend_guard.hpp"
#include "base/arena.hpp"
#include "base/cpu.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/grid_representation.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/plan.hpp"
#include "nn/shard.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"

namespace apt::serve {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void attach_weight_grids(nn::Layer& root, int bits) {
  for (nn::Layer* leaf : nn::leaves_of(root)) {
    nn::Parameter* w = nullptr;
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) w = &c->weight();
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) w = &l->weight();
    if (w == nullptr) continue;
    core::GridOptions go;
    go.bits = bits;
    w->rep = std::make_shared<core::GridRepresentation>(*w, go);
  }
}

constexpr int64_t kC = 3, kH = 16, kW = 16, kClasses = 10;
constexpr int64_t kInElems = kC * kH * kW;

std::vector<Tensor> make_calibration(uint64_t seed, int batches = 2,
                                     int64_t n = 4) {
  Rng rng(seed);
  std::vector<Tensor> calib;
  for (int i = 0; i < batches; ++i) {
    Tensor x(Shape{n, kC, kH, kW});
    rng.fill_uniform(x, -1.0f, 1.0f);
    calib.push_back(x);
  }
  return calib;
}

// A small ResNet-8 with 6-bit weight grids whose activation-range
// trackers (and BatchNorm running stats) have been warmed by
// training-mode calibration forwards — the state `compile` freezes.
std::unique_ptr<nn::Sequential> make_calibrated_resnet(
    uint64_t seed, const std::vector<Tensor>& calib, int64_t width = 8) {
  Rng rng(seed);
  auto net = models::make_resnet(
      {.n = 1, .base_width = width, .num_classes = kClasses}, rng);
  attach_weight_grids(*net, 6);
  for (const Tensor& x : calib) net->forward(x, /*training=*/true);
  return net;
}

TEST(Compile, ProgramShapeAndStaticCodeHandoffs) {
  const std::vector<Tensor> calib = make_calibration(11);
  auto net = make_calibrated_resnet(1, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});
  EXPECT_EQ(cm.in_elems(), kInElems);
  EXPECT_EQ(cm.out_elems(), kClasses);
  EXPECT_EQ(cm.max_batch(), 8);
  ASSERT_FALSE(cm.ops().empty());
  // ResNet-8: stem + 3 blocks x 2 convs + 2 shortcut projections = 9
  // convs, plus the classifier linear.
  int convs = 0, linears = 0, handoffs = 0, adds = 0;
  for (const CompiledOp& op : cm.ops()) {
    convs += op.kind == OpKind::kConvS8;
    linears += op.kind == OpKind::kLinearS8;
    handoffs += op.emit_codes;
    adds += op.kind == OpKind::kAddF32;
    // Each block's final ReLU folds into its residual add, so no ReLU
    // runs as an op of its own.
    EXPECT_NE(op.kind, OpKind::kReluF32);
    if (op.kind == OpKind::kAddF32) {
      EXPECT_TRUE(op.relu);
    }
    if (op.kind == OpKind::kConvS8 || op.kind == OpKind::kLinearS8) {
      EXPECT_FALSE(op.wcodes.empty());
    }
    if (op.kind == OpKind::kConvS8) {
      // Every conv in this net is followed by BatchNorm: the fold must
      // yield a per-channel epilogue scale and bias.
      EXPECT_EQ(static_cast<int64_t>(op.ch_scale.size()), op.oc);
      EXPECT_EQ(static_cast<int64_t>(op.ch_bias.size()), op.oc);
    }
  }
  EXPECT_EQ(convs, 9);
  EXPECT_EQ(linears, 1);
  EXPECT_EQ(adds, 3);
  // conv1 -> conv2 inside each basic block is a single-reader edge, so
  // at least those hand codes across statically.
  EXPECT_GE(handoffs, 3);

  // Plans are bound in memory by compile and again by load (the
  // artifact stores none): one serial plan per conv, one per batch size
  // per linear.
  const std::string path = temp_path("apt_serve_plans.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  CompiledModel loaded;
  ASSERT_TRUE(CompiledModel::try_load(path, &loaded).ok());
  std::filesystem::remove(path);
  const CompiledModel* const models[] = {&cm, &loaded};
  for (const CompiledModel* m : models) {
    for (const CompiledOp& op : m->ops()) {
      size_t want = 0;
      if (op.kind == OpKind::kConvS8) want = 1;
      if (op.kind == OpKind::kLinearS8)
        want = static_cast<size_t>(m->max_batch());
      ASSERT_EQ(op.plans.size(), want);
      for (const nn::KernelPlan& plan : op.plans)
        EXPECT_EQ(plan.key.threads, 1);
    }
  }
}

// Runs `fn` and expects a CheckError whose message contains `needle`.
template <typename Fn>
void expect_check_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected a CheckError mentioning \"" << needle << "\"";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// A 2-8-3 MLP with `bits`-bit weight grids (none when bits is 0),
// calibrated by `calib_batches` training-mode forwards.
std::unique_ptr<nn::Sequential> make_mlp_for_compile(int bits,
                                                     int calib_batches) {
  Rng rng(31);
  auto net = models::make_mlp(2, {8}, 3, rng);
  if (bits > 0) attach_weight_grids(*net, bits);
  for (int i = 0; i < calib_batches; ++i) {
    Tensor x(Shape{4, 2});
    rng.fill_uniform(x, -1.0f, 1.0f);
    net->forward(x, /*training=*/true);
  }
  return net;
}

TEST(Compile, RejectsUncalibratedActivationRange) {
  auto net = make_mlp_for_compile(/*bits=*/6, /*calib_batches=*/0);
  expect_check_error([&] { CompiledModel::compile(*net, Shape{2}); },
                     "activation range never observed");
  // The same model compiles once a calibration forward has run.
  auto calibrated = make_mlp_for_compile(/*bits=*/6, /*calib_batches=*/1);
  EXPECT_EQ(CompiledModel::compile(*calibrated, Shape{2}).out_elems(), 3);
}

TEST(Compile, RejectsWeightsWithoutEightBitGrid) {
  for (int bits : {0, 9, 12}) {
    auto net = make_mlp_for_compile(bits, /*calib_batches=*/2);
    expect_check_error([&] { CompiledModel::compile(*net, Shape{2}); },
                       "<= 8-bit quantised representation");
  }
}

TEST(Compile, RejectsLayerKindItCannotLower) {
  // BatchNorm folds into the conv/linear before it; one with no such
  // producer has no op to lower to.
  Rng rng(32);
  nn::Sequential net("bn-first");
  net.emplace<nn::BatchNorm>("bn", 2);
  auto* fc = net.emplace<nn::Linear>("fc", 2, 3, rng);
  attach_weight_grids(net, 6);
  Tensor x(Shape{4, 2});
  rng.fill_uniform(x, -1.0f, 1.0f);
  net.forward(x, /*training=*/true);
  ASSERT_TRUE(fc->activation_range().initialized());
  expect_check_error([&] { CompiledModel::compile(net, Shape{2}); },
                     "layer kind not supported");
}

TEST(Compile, MatchesInt8EvalForward) {
  const std::vector<Tensor> calib = make_calibration(12);
  auto net = make_calibrated_resnet(2, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});

  Tensor x(Shape{4, kC, kH, kW});
  Rng rng(21);
  rng.fill_uniform(x, -1.0f, 1.0f);
  // The reference is the *int8* eval forward: same weight codes, same
  // frozen activation grids. The compiled program folds BN/ReLU into
  // the double-arithmetic epilogue instead of running them as fp32
  // layers, and requantises handoffs straight from the epilogue's
  // double — in practice bit-identical (the ulp between float(y) and y
  // is absorbed by code rounding), but exact rounding ties aren't
  // guaranteed, so the assertion leaves a small margin.
  Tensor ref;
  {
    nn::BackendGuard guard(nn::GemmBackend::kInt8);
    ref = net->forward(x, /*training=*/false);
  }

  InferenceContext ctx;
  std::vector<float> out(4 * kClasses);
  cm.run(x.data(), 4, out.data(), ctx);

  const float spread = ref.max() - ref.min();
  float max_diff = 0.0f;
  for (int64_t i = 0; i < ref.numel(); ++i)
    max_diff = std::max(max_diff, std::fabs(out[static_cast<size_t>(i)] -
                                            ref[i]));
  EXPECT_LT(max_diff, 0.02f * spread)
      << "max diff " << max_diff << " spread " << spread;
}

TEST(Compile, MobileNetV2MatchesInt8EvalForward) {
  // A reduced MobileNetV2 whose stack still holds plain inverted
  // residuals (shape changes) and one with an identity shortcut, and
  // depthwise convs throughout: compile lowers it through the same
  // Sequential/Residual rules as ResNet.
  const std::vector<Tensor> calib = make_calibration(22);
  Rng init(3);
  auto net = models::make_mobilenet_v2(
      {.width_mult = 0.25, .num_classes = kClasses, .depth_mult = 0.5},
      init);
  attach_weight_grids(*net, 6);
  for (const Tensor& x : calib) net->forward(x, /*training=*/true);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});
  int adds = 0, depthwise = 0;
  for (const CompiledOp& op : cm.ops()) {
    adds += op.kind == OpKind::kAddF32;
    depthwise += op.kind == OpKind::kConvS8 && op.groups > 1;
  }
  EXPECT_GE(adds, 1);
  EXPECT_GE(depthwise, 1);

  Tensor x(Shape{4, kC, kH, kW});
  Rng rng(23);
  rng.fill_uniform(x, -1.0f, 1.0f);
  Tensor ref;
  {
    nn::BackendGuard guard(nn::GemmBackend::kInt8);
    ref = net->forward(x, /*training=*/false);
  }
  InferenceContext ctx;
  std::vector<float> out(4 * kClasses);
  cm.run(x.data(), 4, out.data(), ctx);
  const float spread = ref.max() - ref.min();
  float max_diff = 0.0f;
  for (int64_t i = 0; i < ref.numel(); ++i)
    max_diff = std::max(max_diff, std::fabs(out[static_cast<size_t>(i)] -
                                            ref[i]));
  EXPECT_LT(max_diff, 0.02f * spread)
      << "max diff " << max_diff << " spread " << spread;

  const std::string p1 = temp_path("apt_serve_mbv2_rt1.aptm");
  const std::string p2 = temp_path("apt_serve_mbv2_rt2.aptm");
  ASSERT_TRUE(cm.try_save(p1).ok());
  CompiledModel loaded;
  ASSERT_TRUE(CompiledModel::try_load(p1, &loaded).ok());
  ASSERT_TRUE(loaded.try_save(p2).ok());
  const std::string b1 = read_file(p1), b2 = read_file(p2);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2) << "save -> load -> save is not byte-stable";
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST(Compile, ResponsesBitIdenticalAcrossBatchComposition) {
  const std::vector<Tensor> calib = make_calibration(13);
  auto net = make_calibrated_resnet(3, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});

  constexpr int64_t kN = 5;
  Tensor x(Shape{kN, kC, kH, kW});
  Rng rng(31);
  rng.fill_uniform(x, -1.0f, 1.0f);

  InferenceContext ctx;
  // Reference: every sample served alone.
  std::vector<float> solo(kN * kClasses);
  for (int64_t i = 0; i < kN; ++i)
    cm.run(x.data() + i * kInElems, 1, solo.data() + i * kClasses, ctx);

  // Any coalescing of the same samples must reproduce the solo bits.
  const std::vector<std::vector<int64_t>> splits = {
      {5}, {1, 4}, {2, 3}, {3, 2}, {4, 1}, {1, 1, 3}, {2, 2, 1}};
  for (const auto& split : splits) {
    std::vector<float> got(kN * kClasses);
    int64_t at = 0;
    for (int64_t b : split) {
      cm.run(x.data() + at * kInElems, b, got.data() + at * kClasses, ctx);
      at += b;
    }
    EXPECT_EQ(std::memcmp(got.data(), solo.data(),
                          got.size() * sizeof(float)),
              0)
        << "coalescing pattern changed response bits";
  }
}

TEST(Serialize, SaveLoadSaveIsByteStable) {
  const std::vector<Tensor> calib = make_calibration(14);
  auto net = make_calibrated_resnet(4, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});

  const std::string p1 = temp_path("apt_serve_rt1.bin");
  const std::string p2 = temp_path("apt_serve_rt2.bin");
  ASSERT_TRUE(cm.try_save(p1).ok());
  CompiledModel loaded;
  ASSERT_TRUE(CompiledModel::try_load(p1, &loaded).ok());
  ASSERT_TRUE(loaded.try_save(p2).ok());
  const std::string b1 = read_file(p1), b2 = read_file(p2);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2) << "save -> load -> save is not byte-stable";

  // And the loaded program answers with the original's exact bits.
  Tensor x(Shape{2, kC, kH, kW});
  Rng rng(41);
  rng.fill_uniform(x, -1.0f, 1.0f);
  InferenceContext c1, c2;
  std::vector<float> o1(2 * kClasses), o2(2 * kClasses);
  cm.run(x.data(), 2, o1.data(), c1);
  loaded.run(x.data(), 2, o2.data(), c2);
  EXPECT_EQ(std::memcmp(o1.data(), o2.data(), o1.size() * sizeof(float)), 0);
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST(Serialize, ArtifactBytesIndependentOfSimdLevel) {
  // Plans are derived state, bound at load: the artifact must not record
  // the SIMD level of the process that compiled it. Each compile starts
  // from an empty plan cache, so it resolves its plans at its own level.
  const std::vector<Tensor> calib = make_calibration(16);
  auto net = make_calibrated_resnet(6, calib);
  const std::string path = temp_path("apt_serve_simd.aptm");
  auto frozen_bytes = [&] {
    nn::plan_cache_clear();
    const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});
    EXPECT_TRUE(cm.try_save(path).ok());
    return read_file(path);
  };
  std::string scalar;
  {
    SimdCapScope cap(SimdLevel::kScalar);
    scalar = frozen_bytes();
  }
  const std::string host = frozen_bytes();
  std::filesystem::remove(path);
  ASSERT_FALSE(host.empty());
  EXPECT_EQ(scalar, host) << "artifact bytes depend on the SIMD level";
}

TEST(FreezeFromCheckpoint, DeterministicArtifactAcrossFreshModels) {
  const std::vector<Tensor> calib = make_calibration(15);
  auto trained = make_calibrated_resnet(5, calib);
  const std::string ckpt = temp_path("apt_serve_ckpt.bin");
  ASSERT_TRUE(io::try_save_checkpoint(*trained, ckpt).ok());

  // Two fresh models (different init seeds — the checkpoint overwrites
  // the weights) frozen from the same checkpoint + calibration set must
  // produce byte-identical artifacts.
  std::string frozen[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(100 + static_cast<uint64_t>(i));
    auto fresh = models::make_resnet(
        {.n = 1, .base_width = 8, .num_classes = kClasses}, rng);
    attach_weight_grids(*fresh, 6);
    CompiledModel cm;
    ASSERT_TRUE(freeze_from_checkpoint(*fresh, ckpt, calib, &cm).ok());
    const std::string path =
        temp_path("apt_serve_frozen" + std::to_string(i) + ".bin");
    ASSERT_TRUE(cm.try_save(path).ok());
    frozen[i] = read_file(path);
    std::filesystem::remove(path);
  }
  ASSERT_FALSE(frozen[0].empty());
  EXPECT_EQ(frozen[0], frozen[1])
      << "freeze_from_checkpoint is not deterministic";
  std::filesystem::remove(ckpt);
}

TEST(FreezeFromCheckpoint, DamagedCheckpointReturnsTypedStatus) {
  const std::vector<Tensor> calib = make_calibration(15);
  auto trained = make_calibrated_resnet(5, calib);
  const std::string ckpt = temp_path("apt_serve_ckpt_damaged.bin");
  ASSERT_TRUE(io::try_save_checkpoint(*trained, ckpt).ok());
  const std::string bytes = read_file(ckpt);
  ASSERT_GT(bytes.size(), 64u);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x5A;  // inside a section payload
  const std::pair<std::string, StatusCode> damaged[] = {
      {bytes.substr(0, bytes.size() / 2), StatusCode::kTruncated},
      {flipped, StatusCode::kCorrupt}};
  for (const auto& [contents, code] : damaged) {
    std::ofstream(ckpt, std::ios::binary | std::ios::trunc) << contents;
    Rng rng(100);
    auto fresh = models::make_resnet(
        {.n = 1, .base_width = 8, .num_classes = kClasses}, rng);
    attach_weight_grids(*fresh, 6);
    CompiledModel out;
    const Status st = freeze_from_checkpoint(*fresh, ckpt, calib, &out);
    EXPECT_EQ(st.code(), code) << st.to_string();
    EXPECT_TRUE(out.ops().empty()) << "failed freeze wrote *out";
    EXPECT_EQ(out.max_batch(), 0);
  }
  std::filesystem::remove(ckpt);
}

TEST(Serve, ServerMatchesDirectRunUnderCoalescing) {
  const std::vector<Tensor> calib = make_calibration(16);
  auto net = make_calibrated_resnet(6, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});

  // A pool of distinct samples with precomputed solo-run references.
  constexpr int64_t kPool = 4;
  Tensor x(Shape{kPool, kC, kH, kW});
  Rng rng(61);
  rng.fill_uniform(x, -1.0f, 1.0f);
  InferenceContext ctx;
  std::vector<float> ref(kPool * kClasses);
  for (int64_t i = 0; i < kPool; ++i)
    cm.run(x.data() + i * kInElems, 1, ref.data() + i * kClasses, ctx);

  Server server(cm, {.workers = 3});
  constexpr int kClients = 8, kPerClient = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> out(kClasses);
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t s = (c + r) % kPool;
        ASSERT_TRUE(server.infer(x.data() + s * kInElems, out.data()));
        if (std::memcmp(out.data(), ref.data() + s * kClasses,
                        kClasses * sizeof(float)) != 0)
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "dynamic batching changed response bits";
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
}

TEST(Serve, ZeroSteadyStateAllocationWatermark) {
  const std::vector<Tensor> calib = make_calibration(17);
  auto net = make_calibrated_resnet(7, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});

  // Model level: after one pass at every batch size the calling
  // thread's arena has reached its high-water capacity; further runs of
  // any batch size allocate nothing.
  Tensor x(Shape{cm.max_batch(), kC, kH, kW});
  Rng rng(71);
  rng.fill_uniform(x, -1.0f, 1.0f);
  InferenceContext ctx;
  std::vector<float> out(static_cast<size_t>(cm.max_batch() * kClasses));
  for (int64_t b = 1; b <= cm.max_batch(); ++b)
    cm.run(x.data(), b, out.data(), ctx);
  const size_t watermark = ScratchArena::thread_local_arena().capacity();
  for (int iter = 0; iter < 20; ++iter)
    cm.run(x.data(), 1 + iter % cm.max_batch(), out.data(), ctx);
  EXPECT_EQ(ScratchArena::thread_local_arena().capacity(), watermark)
      << "steady-state run() allocated arena memory";
  EXPECT_EQ(ScratchArena::thread_local_arena().in_use(), 0u);

  // Server level: with max_batch pinned to 1 a single request is the
  // worker's high-water mark — a later hammer must not move any
  // worker's arena capacity.
  Server server(cm, {.workers = 2, .max_batch = 1});
  auto hammer = [&](int requests) {
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
      clients.emplace_back([&] {
        std::vector<float> o(kClasses);
        for (int r = 0; r < requests; ++r)
          ASSERT_TRUE(server.infer(x.data(), o.data()));
      });
    for (std::thread& t : clients) t.join();
  };
  hammer(10);
  const Server::Stats warm = server.stats();
  hammer(20);
  const Server::Stats after = server.stats();
  EXPECT_EQ(after.arena_capacity, warm.arena_capacity)
      << "steady-state serving allocated arena memory";
  EXPECT_EQ(after.requests, warm.requests + 80);
}

TEST(Serve, ContextFollowsModelReassignedInPlace) {
  // One context serves a CompiledModel that is recompiled and then
  // reloaded in place, each time with larger registers than it was
  // bound for; it must answer with the bits a fresh context gives.
  const std::vector<Tensor> calib = make_calibration(24);
  auto net = make_calibrated_resnet(10, calib);
  auto wide = make_calibrated_resnet(11, calib, /*width=*/16);
  Tensor x(Shape{8, kC, kH, kW});
  Rng rng(91);
  rng.fill_uniform(x, -1.0f, 1.0f);
  std::vector<float> got(8 * kClasses), want(8 * kClasses);

  CompiledModel cm =
      CompiledModel::compile(*net, Shape{kC, kH, kW}, {.max_batch = 1});
  InferenceContext reused;
  cm.run(x.data(), 1, got.data(), reused);
  auto expect_fresh_bits = [&](const char* what) {
    InferenceContext fresh;
    cm.run(x.data(), 8, want.data(), fresh);
    cm.run(x.data(), 8, got.data(), reused);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << what;
  };

  cm = CompiledModel::compile(*net, Shape{kC, kH, kW}, {.max_batch = 8});
  expect_fresh_bits("after a recompile into the same object");

  const std::string path = temp_path("apt_serve_reassign.aptm");
  ASSERT_TRUE(
      CompiledModel::compile(*wide, Shape{kC, kH, kW}).try_save(path).ok());
  ASSERT_TRUE(CompiledModel::try_load(path, &cm).ok());
  std::filesystem::remove(path);
  expect_fresh_bits("after a try_load into the same object");
}

TEST(Serve, ShutdownDrainsThenRejects) {
  const std::vector<Tensor> calib = make_calibration(18);
  auto net = make_calibrated_resnet(8, calib);
  const CompiledModel cm = CompiledModel::compile(*net, Shape{kC, kH, kW});

  Tensor x(Shape{1, kC, kH, kW});
  Rng rng(81);
  rng.fill_uniform(x, -1.0f, 1.0f);

  Server server(cm, {.workers = 2});
  std::vector<float> out(kClasses);
  EXPECT_TRUE(server.infer(x.data(), out.data()));
  server.shutdown();
  EXPECT_FALSE(server.infer(x.data(), out.data()))
      << "infer after shutdown must be rejected";
  server.shutdown();  // idempotent
  EXPECT_EQ(server.stats().requests, 1u);
}

// Satellite regression: evaluation-mode forwards on a *shared training
// model* from plain serving threads — no ShardSession — must work when
// each thread binds a distinct ShardScope slot, leave the session
// globals untouched, and reproduce the serial forward bit-for-bit
// (ShardScope is purely thread-local; eval observes no ranges).
TEST(Sharding, EvalForwardFromShardFreeServingThreads) {
  const std::vector<Tensor> calib = make_calibration(19);
  auto net = make_calibrated_resnet(9, calib);

  Tensor x(Shape{2, kC, kH, kW});
  Rng rng(91);
  rng.fill_uniform(x, -1.0f, 1.0f);

  nn::BackendGuard guard(nn::GemmBackend::kInt8);
  Tensor ref;
  {
    ThreadPool::InlineScope inline_scope;
    ref = net->forward(x, /*training=*/false);
  }

  ASSERT_EQ(nn::shard_count(), 1);
  constexpr int kThreads = 4;
  std::vector<Tensor> got(kThreads);
  std::vector<int> observed_shard_count(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadPool::InlineScope inline_scope;
      nn::ShardScope slot(t);  // distinct PerShard eval-scratch slot
      got[static_cast<size_t>(t)] = net->forward(x, /*training=*/false);
      observed_shard_count[static_cast<size_t>(t)] = nn::shard_count();
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(observed_shard_count[static_cast<size_t>(t)], 1)
        << "serving thread saw a shard session";
    ASSERT_EQ(got[static_cast<size_t>(t)].numel(), ref.numel());
    EXPECT_EQ(std::memcmp(got[static_cast<size_t>(t)].data(), ref.data(),
                          static_cast<size_t>(ref.numel()) * sizeof(float)),
              0)
        << "thread " << t << " diverged from the serial eval forward";
  }
  EXPECT_EQ(nn::shard_count(), 1) << "serving threads mutated shard globals";
}

}  // namespace
}  // namespace apt::serve
