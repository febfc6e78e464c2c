// Tests for the kernel planner (DESIGN.md §13): plan-cache hit/miss
// accounting, key equality across equivalent shapes, bit-identity of
// every candidate plan against the reference on prime/degenerate
// shapes, JSON persistence round-trips, deterministic selection and
// bit-identical execution across thread counts, the 1x1 conv
// direct-GEMM strategy (including its zero-staging ScratchArena
// watermark), and the zero-resolution steady state of the layer
// forwards.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "backend_guard.hpp"
#include "base/arena.hpp"
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
  bool hit1 = true, hit2 = false;
  const KernelPlan& p1 = plan_for(k1, &hit1);
  const KernelPlan& p2 = plan_for(k2, &hit2);
  EXPECT_FALSE(hit1);
  EXPECT_TRUE(hit2);
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
  EXPECT_EQ(s.autotuned, 0u);
  plan_cache_reset_stats();
  s = plan_cache_stats();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);  // entries survive a stats reset
}

TEST(PlanCache, AdoptOverwritesInPlaceKeepingReferencesStable) {
  plan_cache_clear();
  const PlanKey key = PlanKey::s8(8, 8, 128, false, false, 255, 255);
  const KernelPlan& ref = plan_for(key);
  EXPECT_FALSE(ref.autotuned);
  KernelPlan tuned = ref;
  tuned.mc = 48;
  tuned.nc = 1024;
  plan_cache_adopt(tuned);
  // Same node, updated fields: callers holding the reference see the
  // adopted plan without re-resolving.
  const KernelPlan& again = plan_for(key);
  EXPECT_EQ(&ref, &again);
  EXPECT_TRUE(ref.autotuned);
  EXPECT_EQ(ref.mc, 48);
  EXPECT_EQ(ref.nc, 1024);
  EXPECT_EQ(plan_cache_stats().autotuned, 1u);
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

// ----------------------------------------------------- json round-trip

TEST(PlanPersistence, SaveClearLoadRoundTripsEveryPlan) {
  plan_cache_clear();
  const PlanKey kf = PlanKey::f32(37, 53, 17, false, false);
  const PlanKey ks = PlanKey::s8(5, 1027, 67, false, true, 63, 255);
  const PlanKey kc = PlanKey::conv_s8(8, 100, 8, 1, 1, 0, 255, 255);
  const KernelPlan pf = plan_for(kf);
  const KernelPlan ps = plan_for(ks);
  const KernelPlan pc = plan_for(kc);

  const std::string path = ::testing::TempDir() + "apt_plan_cache.json";
  ASSERT_TRUE(plan_cache_save(path));

  plan_cache_clear();
  EXPECT_EQ(plan_cache_stats().entries, 0u);
  EXPECT_EQ(plan_cache_load(path), 3);
  PlanCacheStats s = plan_cache_stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.autotuned, 3u);  // loaded entries count as adopted

  // Reloaded plans are cache hits carrying the persisted recipe.
  plan_cache_reset_stats();
  bool hit = false;
  const KernelPlan& rf = plan_for(kf, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(rf.autotuned);
  EXPECT_EQ(rf.strategy, pf.strategy);
  EXPECT_EQ(rf.kc, pf.kc);
  EXPECT_EQ(rf.mc, pf.mc);
  EXPECT_EQ(rf.nc, pf.nc);
  const KernelPlan& rs = plan_for(ks, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(rs.strategy, ps.strategy);
  EXPECT_EQ(rs.split_n, ps.split_n);
  const KernelPlan& rc = plan_for(kc, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(rc.strategy, pc.strategy);
  EXPECT_EQ(plan_cache_stats().misses, 0u);

  // A second save of the reloaded cache is byte-stable (deterministic,
  // sorted serialisation).
  const std::string path2 = ::testing::TempDir() + "apt_plan_cache2.json";
  ASSERT_TRUE(plan_cache_save(path2));
  std::ifstream f1(path), f2(path2);
  const std::string t1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string t2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(t1, t2);
  plan_cache_clear();
}

TEST(PlanPersistence, LoadReportsUnreadableFileAndIgnoresGarbage) {
  EXPECT_EQ(plan_cache_load("/nonexistent/apt_plan.json"), -1);
  const std::string path = ::testing::TempDir() + "apt_plan_garbage.json";
  {
    std::ofstream f(path);
    f << "{\"schema\": \"other/9\", \"plans\": [{\"op\": 1}]}";
  }
  EXPECT_EQ(plan_cache_load(path), 0);
}

TEST(PlanPersistence, LoadRejectsStrategiesThePlannerDoesNotOffer) {
  // Two well-formed entries whose strategy the candidate set excludes:
  // f32-packed for a problem pinned to f32-direct (the two round
  // differently), and s8-conv-direct for a 3x3 conv (it would bind the
  // input plane as a taps x positions matrix and read past it).
  const PlanKey kf = PlanKey::f32(8, 8, 8, false, false);
  const PlanKey kc = PlanKey::conv_s8(16, 64, 144, 3, 1, 1, 255, 255);
  plan_cache_clear();
  const KernelPlan pf = plan_for(kf);
  const KernelPlan pc = plan_for(kc);
  ASSERT_EQ(pf.strategy, PlanStrategy::kF32Direct);
  ASSERT_NE(pc.strategy, PlanStrategy::kS8ConvDirect);
  plan_cache_clear();

  const std::string threads = std::to_string(plan_threads());
  const std::string path = ::testing::TempDir() + "apt_plan_foreign.json";
  {
    std::ofstream f(path);
    f << "{\"schema\": \"apt-plan-cache/1\", \"plans\": [\n"
      << "  {\"op\": 0, \"m\": 8, \"n\": 8, \"k\": 8, \"threads\": "
      << threads << ", \"strategy\": 1},\n"
      << "  {\"op\": 2, \"m\": 16, \"n\": 64, \"k\": 144, \"kernel\": 3, "
         "\"stride\": 1, \"padding\": 1, \"threads\": "
      << threads << ", \"strategy\": 4}\n]}\n";
  }
  EXPECT_EQ(plan_cache_load(path), 0);
  EXPECT_EQ(plan_cache_stats().entries, 0u);

  // The model's plans stand.
  const KernelPlan& rf = plan_for(kf);
  const KernelPlan& rc = plan_for(kc);
  EXPECT_EQ(rf.strategy, pf.strategy);
  EXPECT_EQ(rc.strategy, pc.strategy);
  EXPECT_EQ(rc.kc, pc.kc);
  EXPECT_FALSE(rf.autotuned);
  EXPECT_FALSE(rc.autotuned);
  plan_cache_clear();
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

TEST(PlanConv, OneByOneForwardStagesNothing) {
  // Satellite regression: the 1x1 int8 conv forward's scratch high-water
  // mark must equal the bare plan-keyed GEMM of the same shape — i.e.
  // the layer adds zero staging/im2col allocations on top of packing.
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
  // codes, ceiling 63), same plan, dummy codes.
  const KernelPlan& plan = plan_for(
      PlanKey::conv_s8(8, 100, 8, 1, 1, 0, /*max_a=*/63, 255));
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

  EXPECT_EQ(conv_peak, gemm_peak);
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
  conv.forward(xc, /*training=*/true);
  lin.forward(xl, /*training=*/true);
  const PlanCacheStats s = plan_cache_stats();
  EXPECT_EQ(s.misses, 0u) << "steady-state forward re-resolved a plan";
  EXPECT_GE(s.hits, 2u);
  EXPECT_TRUE(conv.last_forward_plan_cached());
  EXPECT_TRUE(lin.last_forward_plan_cached());
}

}  // namespace
}  // namespace apt::nn
