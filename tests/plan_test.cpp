// Tests for the kernel planner (DESIGN.md §13): plan-cache hit/miss
// accounting, key equality across equivalent shapes, bit-identity of
// every candidate plan against the reference on prime/degenerate
// shapes, deterministic selection and bit-identical execution across
// thread counts, the 1x1 conv direct-GEMM strategy (including its
// zero-staging ScratchArena watermark), the zero-resolution steady
// state of the layer forwards, and the pool width a batched integer
// conv forward plans for.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "backend_guard.hpp"
#include "base/arena.hpp"
#include "base/cpu.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/grid_representation.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/linear.hpp"
#include "nn/plan.hpp"
#include "quant/affine.hpp"

namespace apt::nn {
namespace {

class SerialGuard {
 public:
  SerialGuard() { ThreadPool::set_force_serial(true); }
  ~SerialGuard() { ThreadPool::set_force_serial(false); }
};

void fill_codes(std::vector<uint8_t>& v, uint64_t seed, int lo, int hi) {
  Rng rng(seed);
  for (auto& q : v) q = static_cast<uint8_t>(rng.randint(lo, hi));
}

// All-integer reference (one int64 code-product sum, one double scale,
// one float rounding) — the bits every integer plan must reproduce.
void s8_reference(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                  const uint8_t* a, const uint8_t* b,
                  const GemmS8Params& qp, float* c) {
  const double sab = qp.scale_a * qp.scale_b;
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        const int64_t qa = ta ? a[p * m + i] : a[i * k + p];
        const int64_t qb = tb ? b[j * k + p] : b[p * n + j];
        acc += (qa - qp.zero_a) * (qb - qp.zero_b);
      }
      c[i * n + j] = static_cast<float>(sab * static_cast<double>(acc));
    }
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(float)))
      << what;
}

void attach_weight_grid(Parameter& p, int bits) {
  core::GridOptions go;
  go.bits = bits;
  p.rep = std::make_shared<core::GridRepresentation>(p, go);
}

// ---------------------------------------------------------------- keys

TEST(PlanKey, EquivalentShapesProduceEqualKeysAndOneCacheEntry) {
  plan_cache_clear();
  // Two independent call sites with the same problem: equal keys, one
  // resolution, identical (address-stable) plan.
  const PlanKey k1 = PlanKey::s8(16, 32, 64, false, true, 255, 63);
  const PlanKey k2 = PlanKey::s8(16, 32, 64, false, true, 255, 63);
  EXPECT_EQ(k1, k2);
  const KernelPlan& p1 = plan_for(k1);
  const KernelPlan& p2 = plan_for(k2);
  EXPECT_EQ(plan_cache_stats().misses, 1u);
  EXPECT_EQ(plan_cache_stats().hits, 1u);
  EXPECT_EQ(&p1, &p2);
  EXPECT_EQ(plan_cache_stats().entries, 1u);

  // Different ceilings are a different problem (quad eligibility).
  const PlanKey k3 = PlanKey::s8(16, 32, 64, false, true, 255, 255);
  EXPECT_FALSE(k1 == k3);
  plan_for(k3);
  EXPECT_EQ(plan_cache_stats().entries, 2u);
}

TEST(PlanKey, FactoriesStampThePoolWidth) {
  EXPECT_EQ(PlanKey::f32(8, 8, 8, false, false).threads, plan_threads());
  EXPECT_EQ(PlanKey::conv_s8(8, 9, 8, 3, 1, 1, 255, 255).threads,
            plan_threads());
  EXPECT_GE(plan_threads(), 1);
}

// --------------------------------------------------------------- cache

TEST(PlanCache, CountsHitsMissesAndResets) {
  plan_cache_clear();
  const PlanKey key = PlanKey::f32(64, 64, 64, false, false);
  plan_for(key);
  plan_for(key);
  plan_for(key);
  PlanCacheStats s = plan_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 1u);
  plan_cache_reset_stats();
  s = plan_cache_stats();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);  // entries survive a stats reset
}

TEST(PlanCache, ReferencesStayStableAcrossRehash) {
  // Layers hold the plan reference plan_for returns; the cache stores
  // plans by value, so growing it (and rehashing) must neither move nor
  // change an entry.
  plan_cache_clear();
  const PlanKey key = PlanKey::s8(8, 8, 128, false, false, 255, 255);
  const KernelPlan& ref = plan_for(key);
  const KernelPlan want = ref;
  for (int64_t m = 1; m <= 300; ++m)
    plan_for(PlanKey::f32(m, 17, 9, false, false));
  EXPECT_EQ(plan_cache_stats().entries, 301u);
  const uint64_t misses = plan_cache_stats().misses;
  const KernelPlan& again = plan_for(key);
  EXPECT_EQ(plan_cache_stats().misses, misses);
  EXPECT_EQ(&ref, &again);
  EXPECT_EQ(ref.strategy, want.strategy);
  EXPECT_EQ(ref.kc, want.kc);
  EXPECT_EQ(ref.mc, want.mc);
  EXPECT_EQ(ref.nc, want.nc);
  EXPECT_EQ(ref.split_n, want.split_n);
  plan_cache_clear();
}

// -------------------------------------------------- candidate identity

TEST(PlanBitIdentity, EveryF32CandidateMatchesTheChosenPlan) {
  // Prime-heavy and degenerate shapes; all above the small-work cutoff
  // except the last, whose candidate set is the pinned direct loop.
  const struct {
    int64_t m, n, k;
    bool ta, tb;
  } shapes[] = {
      {37, 53, 17, false, false},
      {3, 257, 31, false, true},
      {61, 43, 29, true, false},
      {1, 1, 1, false, false},
  };
  for (const auto& sh : shapes) {
    const PlanKey key = PlanKey::f32(sh.m, sh.n, sh.k, sh.ta, sh.tb);
    std::vector<float> a(static_cast<size_t>(sh.m * sh.k)),
        b(static_cast<size_t>(sh.k * sh.n));
    Rng rng(11);
    for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
    const std::vector<KernelPlan> cands = plan_candidates(key);
    ASSERT_FALSE(cands.empty());
    std::vector<float> want(static_cast<size_t>(sh.m * sh.n), -7.0f);
    {
      KernelPlan chosen = plan_for(key);
      gemm_ex(chosen, 1.0f, a.data(), b.data(), 0.0f, want.data());
    }
    for (const KernelPlan& cand : cands) {
      std::vector<float> got(static_cast<size_t>(sh.m * sh.n), 3.0f);
      gemm_ex(cand, 1.0f, a.data(), b.data(), 0.0f, got.data());
      expect_bits_equal(got, want, plan_strategy_name(cand.strategy));
    }
  }
}

TEST(PlanBitIdentity, EveryS8CandidateIsExactOnPrimeAndDegenerateShapes) {
  const struct {
    int64_t m, n, k;
    bool ta, tb;
    int32_t max_a, max_b;
  } shapes[] = {
      {23, 37, 97, false, false, 255, 255},   // pairs only
      {29, 31, 64, false, true, 255, 63},     // quad eligible via B
      {5, 1027, 67, false, false, 63, 255},   // skinny M: split-N plans
      {6, 16, 300, true, false, 255, 255},    // k > kGemmKC: kc variants
      {1, 1, 1, false, false, 255, 255},      // degenerate
  };
  for (const auto& sh : shapes) {
    const PlanKey key =
        PlanKey::s8(sh.m, sh.n, sh.k, sh.ta, sh.tb, sh.max_a, sh.max_b);
    std::vector<uint8_t> a(static_cast<size_t>(sh.m * sh.k)),
        b(static_cast<size_t>(sh.k * sh.n));
    fill_codes(a, 17, 0, sh.max_a);
    fill_codes(b, 23, 0, sh.max_b);
    GemmS8Params qp{0.02, 0.005, 7, 3, sh.max_a, sh.max_b};
    std::vector<float> want(static_cast<size_t>(sh.m * sh.n), -1.0f);
    s8_reference(sh.ta, sh.tb, sh.m, sh.n, sh.k, a.data(), b.data(), qp,
                 want.data());
    for (const KernelPlan& cand : plan_candidates(key)) {
      std::vector<float> got(static_cast<size_t>(sh.m * sh.n), 2.0f);
      GemmS8Args ga;
      ga.a = a.data();
      ga.b = b.data();
      ga.params = qp;
      ga.out = got.data();
      gemm_s8_ex(cand, ga);
      expect_bits_equal(got, want, plan_strategy_name(cand.strategy));
    }
  }
}

TEST(PlanBitIdentity, FusedEpilogueCodesAgreeAcrossCandidates) {
  // The requantising epilogue must also be plan-invariant: identical
  // floats in, identical codes out, for every candidate.
  const int64_t m = 19, n = 41, k = 83;
  const PlanKey key = PlanKey::s8(m, n, k, false, false, 63, 255);
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 31, 0, 63);
  fill_codes(b, 37, 0, 255);
  GemmS8Params qp{0.03, 0.004, 31, 128, 63, 255};
  std::vector<float> bias(static_cast<size_t>(m));
  Rng rng(41);
  for (auto& v : bias) v = rng.uniform(-0.5f, 0.5f);
  GemmS8Epilogue epi;
  epi.channel_is_row = true;
  epi.bias = bias.data();
  epi.out_scale = 0.01;
  epi.out_zero = 100;
  epi.out_max = 255;

  std::vector<uint8_t> want;
  bool first = true;
  for (const KernelPlan& cand : plan_candidates(key)) {
    std::vector<uint8_t> got(static_cast<size_t>(m * n), 9);
    float lo = 0.0f, hi = 0.0f;
    epi.observe_lo = &lo;
    epi.observe_hi = &hi;
    GemmS8Args ga;
    ga.a = a.data();
    ga.b = b.data();
    ga.params = qp;
    ga.epilogue = &epi;
    ga.out_codes = got.data();
    gemm_s8_ex(cand, ga);
    if (first) {
      want = got;
      first = false;
    } else {
      EXPECT_EQ(got, want) << plan_strategy_name(cand.strategy);
    }
  }
  EXPECT_FALSE(first);
}

// ------------------------------------------------------- thread counts

TEST(PlanDeterminism, SelectionAndBitsStableAcrossThreadCounts) {
  // Keys stamped for 1/2/8 participating threads (the APT_NUM_THREADS
  // values the acceptance matrix runs) must all execute to the
  // reference bits, with the pool live and with dispatch forced serial.
  const int64_t m = 7, n = 513, k = 129;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 43, 0, 255);
  fill_codes(b, 47, 0, 63);
  GemmS8Params qp{0.015, 0.007, 128, 31, 255, 63};
  std::vector<float> want(static_cast<size_t>(m * n), -1.0f);
  s8_reference(false, false, m, n, k, a.data(), b.data(), qp, want.data());

  for (const int32_t threads : {1, 2, 8}) {
    PlanKey key = PlanKey::s8(m, n, k, false, false, 255, 63);
    key.threads = threads;
    // Resolution is a pure function of the key: re-resolving after a
    // clear lands on the same plan.
    plan_cache_clear();
    const KernelPlan first = plan_for(key);
    plan_cache_clear();
    const KernelPlan second = plan_for(key);
    EXPECT_EQ(first.strategy, second.strategy);
    EXPECT_EQ(first.kc, second.kc);
    EXPECT_EQ(first.mc, second.mc);
    EXPECT_EQ(first.nc, second.nc);
    EXPECT_EQ(first.split_n, second.split_n);

    for (const bool serial : {false, true}) {
      ThreadPool::set_force_serial(serial);
      std::vector<float> got(static_cast<size_t>(m * n), 5.0f);
      GemmS8Args ga;
      ga.a = a.data();
      ga.b = b.data();
      ga.params = qp;
      ga.out = got.data();
      gemm_s8_ex(first, ga);
      ThreadPool::set_force_serial(false);
      expect_bits_equal(got, want, serial ? "serial" : "pooled");
    }
  }
}

// ------------------------------------------------------- 1x1 conv plan

TEST(PlanConv, OneByOneStrideOnePadZeroSelectsDirectGemm) {
  // 1x1/s1/p0 lowers to a plain GEMM; anything else keeps the implicit
  // conv operand.
  const KernelPlan d = plan_for(PlanKey::conv_s8(16, 64, 16, 1, 1, 0, 255, 255));
  EXPECT_EQ(d.strategy, PlanStrategy::kS8ConvDirect);
  const KernelPlan k3 = plan_for(PlanKey::conv_s8(16, 64, 144, 3, 1, 1, 255, 255));
  EXPECT_NE(k3.strategy, PlanStrategy::kS8ConvDirect);
  const KernelPlan p1 = plan_for(PlanKey::conv_s8(16, 100, 16, 1, 1, 1, 255, 255));
  EXPECT_NE(p1.strategy, PlanStrategy::kS8ConvDirect);
  const KernelPlan s2 = plan_for(PlanKey::conv_s8(16, 25, 16, 1, 2, 0, 255, 255));
  EXPECT_NE(s2.strategy, PlanStrategy::kS8ConvDirect);
}

TEST(PlanConv, QuadPlanDoesNotDependOnTheSimdLevel) {
  // The cache key carries no SIMD level, so the plan a key resolves to
  // must not either: first resolved under a scalar cap, a quad-eligible
  // key keeps its quad plan after the cap lifts (the scalar kernels run
  // it as pairs, with the same bits).
  plan_cache_clear();
  const PlanKey key = PlanKey::conv_s8(16, 256, 144, 3, 1, 1, 63, 255);
  {
    SimdCapScope scalar(SimdLevel::kScalar);
    EXPECT_EQ(plan_for(key).strategy, PlanStrategy::kS8Quad);
  }
  EXPECT_EQ(plan_for(key).strategy, PlanStrategy::kS8Quad);
  plan_cache_clear();
}

TEST(PlanConv, OneByOneForwardStagesNothing) {
  // Satellite regression: the 1x1 int8 conv forward's scratch high-water
  // mark must equal the bare plan-keyed GEMM of the same shape plus the
  // layer's output-range probe — i.e. the layer adds zero staging/im2col
  // allocations on top of packing.
  Rng rng(53);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  opts.kernel = 1;
  opts.stride = 1;
  opts.padding = 0;
  Conv2d conv("c1x1", opts, rng);
  attach_weight_grid(conv.weight(), 6);
  Tensor x(Shape{1, 8, 10, 10});
  rng.fill_normal(x, 0, 1);

  BackendGuard guard(GemmBackend::kInt8);
  SerialGuard serial;  // everything lands on this thread's arena
  conv.forward(x, /*training=*/true);  // warm-up (plan + arena growth)
  ASSERT_TRUE(conv.last_forward_was_int8());

  auto& arena = ScratchArena::thread_local_arena();
  arena.reset_peak();
  conv.forward(x, /*training=*/true);
  const size_t conv_peak = arena.peak_in_use();

  // The bare GEMM the plan describes: same key (A = the 6-bit weight
  // codes, ceiling 63, planned for one thread like every per-sample
  // conv GEMM), same plan, dummy codes.
  PlanKey key = PlanKey::conv_s8(8, 100, 8, 1, 1, 0, /*max_a=*/63, 255);
  key.threads = 1;
  const KernelPlan& plan = plan_for(key);
  ASSERT_EQ(plan.strategy, PlanStrategy::kS8ConvDirect);
  std::vector<uint8_t> a(8 * 8, 1), b(8 * 100, 2);
  std::vector<float> out(8 * 100);
  GemmS8Params qp;
  qp.max_a = 63;
  GemmS8Epilogue epi;
  float lo = 0.0f, hi = 0.0f;
  epi.observe_lo = &lo;
  epi.observe_hi = &hi;
  GemmS8Args ga;
  ga.a = a.data();
  ga.b = b.data();
  ga.params = qp;
  ga.epilogue = &epi;
  ga.out = out.data();
  arena.reset_peak();
  gemm_s8_ex(plan, ga);
  const size_t gemm_peak = arena.peak_in_use();

  // The output-range probe: one lo/hi float pair per (sample, group),
  // 2 * 1 * 1 floats in one aligned arena slot.
  EXPECT_EQ(conv_peak, gemm_peak + ScratchArena::kAlignment);
  EXPECT_GT(gemm_peak, 0u);  // the probe actually measured something
}

// ---------------------------------------------- layer steady-state hits

TEST(PlanLayers, SecondForwardPerformsZeroPlanResolutions) {
  Rng rng(59);
  Conv2dOptions copts;
  copts.in_channels = 4;
  copts.out_channels = 4;
  Conv2d conv("conv", copts, rng);
  attach_weight_grid(conv.weight(), 6);
  Linear lin("lin", 36, 10, rng);
  attach_weight_grid(lin.weight(), 6);

  Tensor xc(Shape{2, 4, 5, 5});
  rng.fill_normal(xc, 0, 1);
  Tensor xl(Shape{3, 36});
  rng.fill_normal(xl, 0, 1);

  BackendGuard guard(GemmBackend::kInt8);
  conv.forward(xc, /*training=*/true);
  lin.forward(xl, /*training=*/true);
  ASSERT_TRUE(conv.last_forward_was_int8());
  ASSERT_TRUE(lin.last_forward_was_int8());

  plan_cache_reset_stats();
  const uint64_t entries = plan_cache_stats().entries;
  conv.forward(xc, /*training=*/true);
  lin.forward(xl, /*training=*/true);
  const PlanCacheStats s = plan_cache_stats();
  EXPECT_EQ(s.misses, 0u) << "steady-state forward re-resolved a plan";
  EXPECT_GE(s.hits, 2u);
  EXPECT_EQ(s.entries, entries);
}

TEST(PlanLayers, BatchedIntegerConvForwardPlansForOneThread) {
  // Every (sample, group) GEMM runs in a per-sample pool task, so each
  // is planned for one thread, a lone GEMM included.
  Rng rng(67);
  BackendGuard guard(GemmBackend::kInt8);
  struct Case {
    int64_t n, groups;
  };
  for (const Case& c : {Case{2, 1}, Case{1, 2}, Case{1, 1}}) {
    Conv2dOptions opts;
    opts.in_channels = 4;
    opts.out_channels = 4;
    opts.groups = c.groups;
    Conv2d conv("conv", opts, rng);
    attach_weight_grid(conv.weight(), 6);
    Tensor x(Shape{c.n, 4, 6, 6});
    rng.fill_normal(x, 0, 1);
    plan_cache_clear();
    conv.forward(x, /*training=*/true);
    ASSERT_TRUE(conv.last_forward_was_int8());
    EXPECT_EQ(plan_cache_stats().entries, 1u);
    PlanKey key = ConvS8Forward::plan_key(opts, 6, 6, /*w_max=*/63,
                                          /*x_max=*/255);
    key.threads = 1;
    const PlanCacheStats before = plan_cache_stats();
    plan_for(key);
    const PlanCacheStats after = plan_cache_stats();
    EXPECT_EQ(after.hits, before.hits + 1)
        << "n " << c.n << ", groups " << c.groups << ": no one-thread plan";
    EXPECT_EQ(after.entries, before.entries);
  }
  plan_cache_clear();
}

}  // namespace
}  // namespace apt::nn
