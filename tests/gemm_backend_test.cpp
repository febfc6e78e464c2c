// Tests for the packed register-blocked GEMM backend: parity with the
// naive reference across transpose combinations / odd shapes / alpha-beta
// edge cases, NaN and Inf propagation (no element-level zero shortcuts),
// packing layout, bit-identical determinism regardless of threading, and
// the scratch arena the kernels draw their workspaces from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "backend_guard.hpp"
#include "base/arena.hpp"
#include "base/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/plan.hpp"

namespace apt::nn {
namespace {

struct BackendCase {
  bool ta, tb;
  int64_t m, n, k;
  float alpha, beta;
};

void fill_operands(const BackendCase& c, std::vector<float>& a,
                   std::vector<float>& b, std::vector<float>& out,
                   std::vector<float>& ref) {
  Rng rng(7);
  a.resize(static_cast<size_t>(c.m * c.k));
  b.resize(static_cast<size_t>(c.k * c.n));
  out.resize(static_cast<size_t>(c.m * c.n));
  ref.resize(static_cast<size_t>(c.m * c.n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (size_t i = 0; i < out.size(); ++i) out[i] = ref[i] = rng.uniform(-1, 1);
}

// A packed fp32 plan for the shape whatever its size (plan_for pins
// problems of <= 16k MACs to the direct loop), with the given MC/NC
// blocking and pool dispatch.
KernelPlan packed_plan(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                       int64_t mc = 0, int64_t nc = 0, bool parallel = true) {
  KernelPlan plan;
  plan.key = PlanKey::f32(m, n, k, ta, tb);
  plan.strategy = PlanStrategy::kF32Packed;
  plan.mc = mc;
  plan.nc = nc;
  plan.parallel = parallel;
  return plan;
}

// Relative-ish tolerance: the packed kernel accumulates in float (the
// reference in double), so error grows with k.
float tol_for(const BackendCase& c) {
  return 1e-4f * std::max<float>(1.0f, static_cast<float>(c.k) / 16.0f);
}

class PackedVsNaive : public ::testing::TestWithParam<BackendCase> {};

TEST_P(PackedVsNaive, AutoKernelMatches) {
  const BackendCase c = GetParam();
  std::vector<float> a, b, out, ref;
  fill_operands(c, a, b, out, ref);
  gemm_ex(packed_plan(c.ta, c.tb, c.m, c.n, c.k), c.alpha, a.data(), b.data(),
          c.beta, out.data());
  gemm_naive(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), b.data(), c.beta,
             ref.data());
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_NEAR(out[i], ref[i], tol_for(c)) << "i=" << i;
}

TEST_P(PackedVsNaive, ScalarKernelMatches) {
  const BackendCase c = GetParam();
  std::vector<float> a, b, out, ref;
  fill_operands(c, a, b, out, ref);
  {
    SimdCapScope scalar(SimdLevel::kScalar);
    gemm_ex(packed_plan(c.ta, c.tb, c.m, c.n, c.k), c.alpha, a.data(),
            b.data(), c.beta, out.data());
  }
  gemm_naive(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), b.data(), c.beta,
             ref.data());
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_NEAR(out[i], ref[i], tol_for(c)) << "i=" << i;
}

TEST_P(PackedVsNaive, DispatcherMatches) {
  // The public gemm() entry point (small-path or packed, whichever the
  // size selects) must agree with the reference too.
  const BackendCase c = GetParam();
  std::vector<float> a, b, out, ref;
  fill_operands(c, a, b, out, ref);
  gemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), b.data(), c.beta,
       out.data());
  gemm_naive(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), b.data(), c.beta,
             ref.data());
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_NEAR(out[i], ref[i], tol_for(c)) << "i=" << i;
}

// The cases sit in static arrays rather than ::testing::Values
// temporaries: gtest names each instance by the bytes of its parameter,
// padding included, and only static storage guarantees zeroed padding —
// so the instance names are the same on every build and run.
constexpr BackendCase kAllTransposes[] = {
    {false, false, 37, 41, 29, 1.0f, 0.0f},
    {true, false, 37, 41, 29, 1.0f, 0.0f},
    {false, true, 37, 41, 29, 1.0f, 0.0f},
    {true, true, 37, 41, 29, 1.0f, 0.0f},
    // Larger than one MC x NC x KC block in every dim would be too
    // slow; cross MC and KC at least.
    {false, false, 200, 50, 300, 1.0f, 0.0f},
    {true, true, 101, 33, 270, 1.0f, 0.0f}};

constexpr BackendCase kDegenerateShapes[] = {
    {false, false, 1, 1, 1, 1.0f, 0.0f},
    {false, true, 1, 1, 1, 2.0f, 0.5f},
    {false, false, 1, 128, 300, 1.0f, 0.0f},
    {true, false, 128, 1, 64, 1.0f, 1.0f},
    {false, true, 64, 64, 1, 1.0f, 0.0f},
    {true, true, 1, 97, 13, 1.0f, 0.0f},
    // Prime sizes straddling the MR/NR tile edges.
    {false, false, 7, 17, 257, 1.0f, 0.0f},
    {false, false, 5, 15, 3, 1.0f, 0.0f},
    {true, false, 6, 16, 11, 1.0f, 0.0f}};

constexpr BackendCase kAlphaBetaEdges[] = {
    {false, false, 23, 19, 31, 0.7f, 0.3f},
    {false, false, 23, 19, 31, -1.3f, 2.0f},
    {true, false, 23, 19, 31, 0.0f, 0.5f},
    {false, true, 23, 19, 31, 0.0f, 0.0f},
    {false, false, 23, 19, 31, 1.0f, 1.0f},
    {true, true, 23, 19, 31, 0.5f, -0.5f}};

INSTANTIATE_TEST_SUITE_P(AllTransposes, PackedVsNaive,
                         ::testing::ValuesIn(kAllTransposes));
INSTANTIATE_TEST_SUITE_P(DegenerateShapes, PackedVsNaive,
                         ::testing::ValuesIn(kDegenerateShapes));
INSTANTIATE_TEST_SUITE_P(AlphaBetaEdges, PackedVsNaive,
                         ::testing::ValuesIn(kAlphaBetaEdges));

// ------------------------------------------------------- special values

TEST(PackedGemm, NanInBPropagatesThroughZeroA) {
  // Regression for the legacy kernel's `alpha * a == 0` shortcut: a zero
  // A element must still multiply B (0 * NaN == NaN).
  const int64_t n = 8;
  std::vector<float> a(n, 0.0f), b(n * n, 1.0f), c(n * n, 0.0f);
  b[3] = std::numeric_limits<float>::quiet_NaN();  // B[0,3]
  gemm(false, false, 1, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_TRUE(std::isnan(c[3]));
  EXPECT_FLOAT_EQ(c[0], 0.0f);  // columns away from the NaN stay clean
}

TEST(PackedGemm, InfInAPropagates) {
  const int64_t n = 40;  // large enough for the packed path via gemm()
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n, 0.0f);
  a[0] = std::numeric_limits<float>::infinity();
  gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (int64_t j = 0; j < n; ++j) EXPECT_TRUE(std::isinf(c[j])) << "j=" << j;
  EXPECT_FALSE(std::isinf(c[n]));  // second row untouched by the Inf
}

TEST(PackedGemm, BetaZeroOverwritesNanGarbage) {
  const int64_t m = 24, n = 33, k = 40;
  std::vector<float> a(m * k, 0.25f), b(k * n, 0.5f);
  std::vector<float> c(m * n, std::numeric_limits<float>::quiet_NaN());
  gemm_ex(packed_plan(false, false, m, n, k), 1.0f, a.data(), b.data(), 0.0f,
          c.data());
  for (float v : c) ASSERT_FLOAT_EQ(v, 0.25f * 0.5f * k);
}

TEST(PackedGemm, AlphaZeroSkipsProductPerBlas) {
  // With alpha == 0 BLAS leaves A and B unread, so NaN there must not
  // reach C; beta still applies.
  const int64_t m = 9, n = 11, k = 7;
  std::vector<float> a(m * k, std::numeric_limits<float>::quiet_NaN());
  std::vector<float> b(k * n, std::numeric_limits<float>::quiet_NaN());
  std::vector<float> c(m * n, 2.0f);
  gemm_ex(packed_plan(false, false, m, n, k), 0.0f, a.data(), b.data(), 0.5f,
          c.data());
  for (float v : c) ASSERT_FLOAT_EQ(v, 1.0f);
}

TEST(PackedGemm, AlphaZeroHonouredOnEveryBackend) {
  // gemm() enforces the alpha == 0 contract before backend dispatch, so
  // no backend at any SIMD level may read the NaN operands.
  const int64_t m = 5, n = 6, k = 4;
  std::vector<float> a(m * k, std::numeric_limits<float>::quiet_NaN());
  std::vector<float> b(k * n, std::numeric_limits<float>::quiet_NaN());
  for (GemmBackend backend : {GemmBackend::kPacked, GemmBackend::kInt8})
    for (SimdLevel level : host_simd_levels()) {
      BackendGuard guard(backend);
      SimdCapScope cap(level);
      std::vector<float> c(m * n, 2.0f);
      gemm(false, false, m, n, k, 0.0f, a.data(), b.data(), 0.5f, c.data());
      for (float v : c)
        ASSERT_FLOAT_EQ(v, 1.0f) << "backend=" << static_cast<int>(backend)
                                 << " simd=" << simd_level_name(level);
    }
}

// --------------------------------------------------------- determinism

TEST(PackedGemm, BitIdenticalAcrossThreadCounts) {
  // Parallelism partitions whole MC row panels, so the serial run and
  // any pool-split run must produce the same bits. Sizes cross several
  // MC panels and KC blocks to exercise the partitioning.
  const int64_t m = 3 * kGemmMC + 5, n = 70, k = 2 * kGemmKC + 17;
  Rng rng(11);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<float> serial(static_cast<size_t>(m * n), 0.0f),
      parallel(static_cast<size_t>(m * n), 0.0f);

  gemm_ex(packed_plan(false, false, m, n, k, 0, 0, /*parallel=*/false), 1.0f,
          a.data(), b.data(), 0.0f, serial.data());
  gemm_ex(packed_plan(false, false, m, n, k), 1.0f, a.data(), b.data(), 0.0f,
          parallel.data());

  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           serial.size() * sizeof(float)));
}

TEST(PackedGemm, RepeatedRunsBitIdentical) {
  const int64_t m = 150, n = 90, k = 120;
  Rng rng(3);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f),
      c2(static_cast<size_t>(m * n), 0.0f);
  gemm(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
  gemm(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c2.data());
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ------------------------------------------------------------- packing

TEST(GemmPacking, PackALayoutAndZeroPadding) {
  // 7 rows pack into two MR=6 strips, the second padded with 5 zero rows.
  const int64_t m = 7, k = 5;
  std::vector<float> a(static_cast<size_t>(m * k));
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i + 1);
  std::vector<float> packed(static_cast<size_t>(2 * kGemmMR * k), -1.0f);
  gemm_pack_a(false, a.data(), m, k, 0, m, 0, k, packed.data());
  for (int64_t p = 0; p < k; ++p)
    for (int64_t r = 0; r < kGemmMR; ++r)
      EXPECT_FLOAT_EQ(packed[static_cast<size_t>(p * kGemmMR + r)],
                      a[static_cast<size_t>(r * k + p)]);
  const float* strip1 = packed.data() + kGemmMR * k;
  for (int64_t p = 0; p < k; ++p) {
    EXPECT_FLOAT_EQ(strip1[p * kGemmMR], a[static_cast<size_t>(6 * k + p)]);
    for (int64_t r = 1; r < kGemmMR; ++r)
      EXPECT_FLOAT_EQ(strip1[p * kGemmMR + r], 0.0f);
  }
}

TEST(GemmPacking, PackBFoldsTranspose) {
  // Packing op_b(B) with trans_b must equal packing the materialised
  // transpose without it.
  const int64_t k = 9, n = 21;
  Rng rng(5);
  std::vector<float> bt(static_cast<size_t>(n * k));  // stored n x k
  for (auto& v : bt) v = rng.uniform(-1, 1);
  std::vector<float> b(static_cast<size_t>(k * n));  // materialised k x n
  for (int64_t p = 0; p < k; ++p)
    for (int64_t j = 0; j < n; ++j)
      b[static_cast<size_t>(p * n + j)] = bt[static_cast<size_t>(j * k + p)];

  const int64_t strips = (n + kGemmNR - 1) / kGemmNR;
  std::vector<float> p1(static_cast<size_t>(strips * kGemmNR * k));
  std::vector<float> p2(static_cast<size_t>(strips * kGemmNR * k));
  gemm_pack_b(true, bt.data(), k, n, 0, k, 0, n, p1.data());
  gemm_pack_b(false, b.data(), k, n, 0, k, 0, n, p2.data());
  EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(float)));
}

// ------------------------------------------------- direct strided path

TEST(GemmStridedDirect, VectorLoopMatchesScalarLoopBitForBit) {
  // The planner pins problems of <= 16k MACs to this loop. Its AVX2 form
  // must keep every element's scalar op sequence (multiply, then add, p
  // ascending; then alpha, beta), so the bits equal the scalar loop for
  // every transpose, beta and ragged column count.
  if (!cpu_has_avx2_fma())
    GTEST_SKIP() << "no AVX2+FMA on this CPU (or APT_SIMD caps it)";
  Rng rng(17);
  const int64_t m = 5;
  for (bool ta : {false, true})
    for (bool tb : {false, true})
      for (float beta : {0.0f, 1.0f, 0.5f})
        for (int64_t n : {1, 5, 8, 10, 16, 31, 32, 45, 64})
          for (int64_t k : {1, 7, 64}) {
            std::vector<float> a(static_cast<size_t>(m * k));
            std::vector<float> b(static_cast<size_t>(k * n));
            std::vector<float> c(static_cast<size_t>(m * n));
            for (auto& v : a) v = rng.uniform(-1, 1);
            for (auto& v : b) v = rng.uniform(-1, 1);
            for (auto& v : c) v = rng.uniform(-1, 1);
            if (beta == 0.0f) c[0] = std::numeric_limits<float>::quiet_NaN();
            std::vector<float> vec = c, scalar = c;
            KernelPlan plan;
            plan.key = PlanKey::f32(m, n, k, ta, tb);
            plan.strategy = PlanStrategy::kF32Direct;
            gemm_ex(plan, 0.75f, a.data(), b.data(), beta, vec.data());
            {
              SimdCapScope scalar_cap(SimdLevel::kScalar);
              gemm_ex(plan, 0.75f, a.data(), b.data(), beta, scalar.data());
            }
            ASSERT_EQ(0, std::memcmp(vec.data(), scalar.data(),
                                     vec.size() * sizeof(float)))
                << "ta=" << ta << " tb=" << tb << " beta=" << beta
                << " n=" << n << " k=" << k;
          }
}

// ------------------------------------------- AVX-512 vs AVX2 micro-kernel

// The 6x32 zmm tile runs each C element's AVX2 FMA chain, so the
// AVX-512 level must write the bytes of the AVX2 level (a SimdCapScope)
// for every shape: ragged m/n/k, a single strip (n = 16), odd strip
// counts (the last strip falls back to the ymm tile), several NC
// panels, and k past KC (several k panels).
TEST(GemmKernelDiff, Avx512TileMatchesAvx2BitForBit) {
  if (!cpu_has_avx512())
    GTEST_SKIP() << "no AVX-512 F/VL/VNNI on this CPU (or APT_SIMD caps it)";
  struct Shape {
    bool ta, tb;
    int64_t m, n, k;
    int64_t nc;  // NC override (0 = default)
  };
  constexpr Shape kShapes[] = {
      {false, false, 37, 41, 29, 0},   // ragged, 3 strips
      {true, false, 6, 16, 5, 0},      // one strip
      {false, true, 13, 48, 300, 0},   // 3 full strips, 2 k panels
      {true, true, 101, 80, 530, 0},   // 5 strips, 3 k panels
      {false, false, 1, 1, 1, 0},
      {false, false, 200, 33, 257, 0}, // k = KC + 1
      {false, true, 7, 2100, 5, 0},    // two NC panels
      {true, false, 29, 150, 70, 40},  // 3-strip panels, ragged last
  };
  Rng rng(31);
  for (const Shape& s : kShapes)
    for (float beta : {0.0f, 1.0f, -0.75f})
      for (float alpha : {1.0f, -1.5f}) {
        std::vector<float> a(static_cast<size_t>(s.m * s.k));
        std::vector<float> b(static_cast<size_t>(s.k * s.n));
        std::vector<float> c(static_cast<size_t>(s.m * s.n));
        for (auto& v : a) v = rng.uniform(-1, 1);
        for (auto& v : b) v = rng.uniform(-1, 1);
        for (auto& v : c) v = rng.uniform(-1, 1);
        if (beta == 0.0f) c[0] = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> avx2 = c, avx512 = c;
        const KernelPlan plan = packed_plan(s.ta, s.tb, s.m, s.n, s.k, 0, s.nc);
        {
          SimdCapScope cap(SimdLevel::kAvx2);
          gemm_ex(plan, alpha, a.data(), b.data(), beta, avx2.data());
        }
        gemm_ex(plan, alpha, a.data(), b.data(), beta, avx512.data());
        ASSERT_EQ(0, std::memcmp(avx2.data(), avx512.data(),
                                 avx2.size() * sizeof(float)))
            << "ta=" << s.ta << " tb=" << s.tb << " m=" << s.m
            << " n=" << s.n << " k=" << s.k << " beta=" << beta
            << " alpha=" << alpha;
      }
}

// ------------------------------------------------ A packed once, up front

// gemm_pack_a_panels + the packed-A driver must write the bytes of the
// driver packing A per MC block itself: several KC panels (k up to 600),
// ragged strips (m = 1, 5, 37), every plan-offered mc plus an off-strip
// 50 (the driver rounds it down to 48, so every MC block starts on a
// packed strip), both transposes, and beta 0 (over NaN), 1 and -0.75.
void expect_packed_a_matches_raw(SimdLevel level) {
  SimdCapScope cap(level);
  Rng rng(41);
  const int64_t n = 37;
  for (int64_t m : {1, 5, 8, 37, 200})
    for (int64_t k : {27, 256, 288, 600}) {
      std::vector<float> a(static_cast<size_t>(m * k));
      std::vector<float> b(static_cast<size_t>(k * n));
      for (auto& v : a) v = rng.uniform(-1, 1);
      for (auto& v : b) v = rng.uniform(-1, 1);
      std::vector<float> panels(
          static_cast<size_t>(gemm_pack_a_panels_size(m, k)));
      for (bool ta : {false, true}) {
        gemm_pack_a_panels(ta, a.data(), m, k, panels.data());
        for (int64_t mc : {48, 50, 96, 192})
          for (float beta : {0.0f, 1.0f, -0.75f}) {
            std::vector<float> c(static_cast<size_t>(m * n));
            for (auto& v : c)
              v = beta == 0.0f ? std::numeric_limits<float>::quiet_NaN()
                               : rng.uniform(-1, 1);
            std::vector<float> raw = c, packed = c;
            const KernelPlan plan = packed_plan(ta, false, m, n, k, mc);
            gemm_ex(plan, 0.5f, a.data(), b.data(), beta, raw.data());
            gemm_ex(plan, 0.5f, GemmF32PackedA{panels.data()}, b.data(), beta,
                    packed.data());
            ASSERT_EQ(0, std::memcmp(raw.data(), packed.data(),
                                     raw.size() * sizeof(float)))
                << "m=" << m << " k=" << k << " ta=" << ta << " mc=" << mc
                << " beta=" << beta;
          }
      }
    }
}

TEST(GemmPackedA, ScalarKernelMatchesPerBlockPack) {
  expect_packed_a_matches_raw(SimdLevel::kScalar);
}

TEST(GemmPackedA, Avx2KernelMatchesPerBlockPack) {
  if (!cpu_has_avx2_fma())
    GTEST_SKIP() << "no AVX2+FMA on this CPU (or APT_SIMD caps it)";
  expect_packed_a_matches_raw(SimdLevel::kAvx2);
}

TEST(GemmPackedA, Avx512KernelMatchesPerBlockPack) {
  if (!cpu_has_avx512())
    GTEST_SKIP() << "no AVX-512 F/VL/VNNI on this CPU (or APT_SIMD caps it)";
  expect_packed_a_matches_raw(SimdLevel::kAvx512);
}

// ------------------------------------------------------ tile write-back

// The vector levels' ymm store must write the portable loop's bytes for
// every ragged corner, on first and later panels, over C holding NaN
// and -0.0 — and leave C past the corner alone. With beta == 0 the
// first panel never reads C, so the NaN there cannot reach the output.
TEST(GemmStoreTile, VectorStoreMatchesPortableBitForBit) {
  if (!cpu_has_avx2_fma())
    GTEST_SKIP() << "no AVX2+FMA on this CPU (or APT_SIMD caps it)";
  constexpr int64_t kLdc = kGemmNR + 3;
  Rng rng(43);
  std::vector<float> acc(static_cast<size_t>(kGemmMR * kGemmNR));
  std::vector<float> c0(static_cast<size_t>(kGemmMR * kLdc));
  for (auto& v : acc) v = rng.uniform(-2, 2);
  acc[5] = -0.0f;
  for (auto& v : c0) v = rng.uniform(-2, 2);
  for (size_t i = 0; i < c0.size(); i += 7)
    c0[i] = std::numeric_limits<float>::quiet_NaN();
  for (size_t i = 3; i < c0.size(); i += 11) c0[i] = -0.0f;
  for (SimdLevel level : host_simd_levels())
    for (int64_t mr = 1; mr <= kGemmMR; ++mr)
      for (int64_t nr = 1; nr <= kGemmNR; ++nr)
        for (bool first : {true, false})
          for (float alpha : {1.0f, 0.5f})
            for (float beta : {0.0f, 1.0f, -0.75f}) {
              if (level == SimdLevel::kScalar) continue;
              std::vector<float> want = c0, got = c0;
              {
                SimdCapScope scalar(SimdLevel::kScalar);
                gemm_store_tile(want.data(), kLdc, mr, nr, acc.data(), alpha,
                                beta, first);
              }
              {
                SimdCapScope cap(level);
                gemm_store_tile(got.data(), kLdc, mr, nr, acc.data(), alpha,
                                beta, first);
              }
              ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                       want.size() * sizeof(float)))
                  << "simd=" << simd_level_name(level) << " mr=" << mr
                  << " nr=" << nr << " first=" << first
                  << " alpha=" << alpha << " beta=" << beta;
            }
}

// ---------------------------------------------- implicit conv operand

// The zero-padded [c_count][H+2p][W+2p] image of channels [c_begin,
// c_begin + c_count) of sample n: what Conv2d stages for gemm_conv.
std::vector<float> padded_image(const Tensor& x, int64_t n, int64_t c_begin,
                                int64_t c_count, int64_t padding) {
  const int64_t C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int64_t ph = H + 2 * padding, pw = W + 2 * padding;
  std::vector<float> img(static_cast<size_t>(c_count * ph * pw), 0.0f);
  for (int64_t c = 0; c < c_count; ++c)
    for (int64_t y = 0; y < H; ++y)
      for (int64_t xx = 0; xx < W; ++xx)
        img[static_cast<size_t>((c * ph + y + padding) * pw + xx + padding)] =
            x.data()[((n * C + c_begin + c) * H + y) * W + xx];
  return img;
}

// The transposed (dW) operand's k rows are output positions, which the
// packer moves through 8x8 transposes in blocks of 8 (ow a multiple of
// 8), 4x4 ones in blocks of 4 and one float at a time past them: panels
// 12 deep (one block of each on an aligned start, none of 8 on p0 = 4)
// and 256 deep, 5 and 13 columns (a zero half, a ragged one), at every
// level, against im2col then gemm_pack_b.
void expect_transposed_blocks_match() {
  Rng rng(29);
  const int64_t icg = 2, kernel = 3, padding = 1;
  for (int64_t ow : {8, 16, 24}) {
    const int64_t oh = 256 / ow + 2;  // k over one whole 256-deep panel
    Tensor x(Shape{1, icg, oh, ow});
    rng.fill_uniform(x, -2.0f, 2.0f);
    x[5] = -0.0f;
    x[x.numel() - 3] = std::numeric_limits<float>::quiet_NaN();
    const int64_t krows = icg * kernel * kernel, npos = oh * ow;
    std::vector<float> cols(static_cast<size_t>(krows * npos));
    im2col(x, 0, 0, icg, kernel, 1, padding, oh, ow, cols.data());
    const std::vector<float> img = padded_image(x, 0, 0, icg, padding);
    GemmF32ConvB cb;
    cb.padded = img.data();
    cb.ph = oh + 2 * padding;
    cb.pw = ow + 2 * padding;
    cb.kernel = kernel;
    cb.oh = oh;
    cb.ow = ow;
    for (SimdLevel level : host_simd_levels()) {
      SimdCapScope cap(level);
      for (int64_t kc : {12, 256})
        for (int64_t p0 : {int64_t{0}, int64_t{4}})
          for (int64_t nc : {5, 13})
            for (int64_t j0 : {int64_t{0}, krows - nc}) {
              const size_t len = static_cast<size_t>(kGemmNR * kc);
              std::vector<float> want(len, -1.0f), got(len, -2.0f);
              gemm_pack_b(true, cols.data(), npos, krows, p0, kc, j0, nc,
                          want.data());
              gemm_pack_b_conv(cb, true, p0, kc, j0, nc, got.data());
              ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                       len * sizeof(float)))
                  << "simd=" << simd_level_name(level) << " ow=" << ow
                  << " kc=" << kc << " p0=" << p0 << " nc=" << nc
                  << " j0=" << j0;
            }
    }
  }
}

TEST(GemmConvOperand, PackMatchesIm2colThenPackBBitForBit) {
  // Both operand orientations (forward B, and the dW GEMM's transposed
  // B), whole and ragged kc/nc panels, group 1 of 2, with -0.0 and NaN
  // in the input.
  Rng rng(23);
  const int64_t groups = 2, icg = 3, oh = 3;
  for (int64_t kernel : {1, 3, 5})
    for (int64_t stride : {1, 2})
      for (int64_t padding : {0, 1, 2})
        for (int64_t ow : {4, 7, 8, 16}) {
          const int64_t W = (ow - 1) * stride + kernel - 2 * padding;
          const int64_t H = (oh - 1) * stride + kernel - 2 * padding;
          if (W < 1 || H < 1) continue;
          Tensor x(Shape{2, groups * icg, H, W});
          rng.fill_uniform(x, -2.0f, 2.0f);
          x[3] = -0.0f;
          x[x.numel() - 2] = std::numeric_limits<float>::quiet_NaN();
          const int64_t krows = icg * kernel * kernel, npos = oh * ow;
          std::vector<float> cols(static_cast<size_t>(krows * npos));
          im2col(x, 1, icg, icg, kernel, stride, padding, oh, ow,
                 cols.data());
          const std::vector<float> img = padded_image(x, 1, icg, icg, padding);
          GemmF32ConvB cb;
          cb.padded = img.data();
          cb.ph = H + 2 * padding;
          cb.pw = W + 2 * padding;
          cb.kernel = kernel;
          cb.stride = stride;
          cb.oh = oh;
          cb.ow = ow;
          for (bool tb : {false, true}) {
            const int64_t k = tb ? npos : krows, n = tb ? krows : npos;
            for (int64_t kc_blk : {k, int64_t{7}})
              for (int64_t nc_blk : {n, int64_t{19}})
                for (int64_t p0 = 0; p0 < k; p0 += kc_blk)
                  for (int64_t j0 = 0; j0 < n; j0 += nc_blk) {
                    const int64_t kc = std::min(kc_blk, k - p0);
                    const int64_t nc = std::min(nc_blk, n - j0);
                    const size_t len = static_cast<size_t>(
                        (nc + kGemmNR - 1) / kGemmNR * kGemmNR * kc);
                    std::vector<float> want(len, -1.0f), got(len, -2.0f);
                    gemm_pack_b(tb, cols.data(), k, n, p0, kc, j0, nc,
                                want.data());
                    gemm_pack_b_conv(cb, tb, p0, kc, j0, nc, got.data());
                    ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                             len * sizeof(float)))
                        << "kernel=" << kernel << " stride=" << stride
                        << " padding=" << padding << " ow=" << ow
                        << " trans_b=" << tb << " p0=" << p0
                        << " j0=" << j0;
                  }
          }
        }

  expect_transposed_blocks_match();
}

// The forward GEMM over the implicit operand — whose full stride-1
// strips the vector tiles read in place from the padded image, as one
// run of 16 or two of 8 within output rows, and whose other strips they
// pack — against the same plan over the explicit im2col matrix: kernel
// 1/3/5, stride 1/2, padding 0-2, ow 4/7/8/16/24/32 (24 mixes run kinds
// in one tile pair; oh = 3 leaves ragged last strips), M 1-13 (one
// strip, two, a ragged MR), K in one KC panel or two (icg * k^2 > 256),
// -0.0 and NaN in the input, the weight raw or packed whole, at every
// level.
TEST(GemmConvOperand, InPlaceMatchesIm2colGemmBitForBit) {
  Rng rng(31);
  const int64_t oh = 3;
  for (int64_t kernel : {1, 3, 5})
    for (int64_t icg : {int64_t{3}, 260 / (kernel * kernel) + 1})
      for (int64_t stride : {1, 2})
        for (int64_t padding : {0, 1, 2})
          for (int64_t ow : {4, 7, 8, 16, 24, 32}) {
            const int64_t W = (ow - 1) * stride + kernel - 2 * padding;
            const int64_t H = (oh - 1) * stride + kernel - 2 * padding;
            if (W < 1 || H < 1) continue;
            Tensor x(Shape{1, icg, H, W});
            rng.fill_uniform(x, -2.0f, 2.0f);
            x[1] = -0.0f;
            x[x.numel() / 2] = std::numeric_limits<float>::quiet_NaN();
            const int64_t k = icg * kernel * kernel, n = oh * ow;
            std::vector<float> cols(static_cast<size_t>(k * n));
            im2col(x, 0, 0, icg, kernel, stride, padding, oh, ow,
                   cols.data());
            const std::vector<float> img = padded_image(x, 0, 0, icg, padding);
            GemmF32ConvB cb;
            cb.padded = img.data();
            cb.ph = H + 2 * padding;
            cb.pw = W + 2 * padding;
            cb.kernel = kernel;
            cb.stride = stride;
            cb.oh = oh;
            cb.ow = ow;
            for (int64_t m = 1; m <= 13; ++m) {
              std::vector<float> a(static_cast<size_t>(m * k));
              for (auto& v : a) v = rng.uniform(-1, 1);
              a[0] = -0.0f;
              std::vector<float> panels(
                  static_cast<size_t>(gemm_pack_a_panels_size(m, k)));
              gemm_pack_a_panels(false, a.data(), m, k, panels.data());
              const KernelPlan plan = packed_plan(false, false, m, n, k);
              for (SimdLevel level : host_simd_levels()) {
                SimdCapScope cap(level);
                const size_t len = static_cast<size_t>(m * n);
                std::vector<float> want(len, 7.0f), got(len, -7.0f),
                    got_packed(len, 3.0f);
                gemm_ex(plan, 1.0f, a.data(), cols.data(), 0.0f, want.data());
                gemm_conv_ex(plan, 1.0f, a.data(), cb, 0.0f, got.data());
                gemm_conv_ex(plan, 1.0f, GemmF32PackedA{panels.data()}, cb,
                             0.0f, got_packed.data());
                ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                         len * sizeof(float)))
                    << "simd=" << simd_level_name(level)
                    << " kernel=" << kernel << " icg=" << icg
                    << " stride=" << stride << " padding=" << padding
                    << " ow=" << ow << " m=" << m;
                ASSERT_EQ(0, std::memcmp(want.data(), got_packed.data(),
                                         len * sizeof(float)))
                    << "packed A: simd=" << simd_level_name(level)
                    << " kernel=" << kernel << " icg=" << icg
                    << " stride=" << stride << " padding=" << padding
                    << " ow=" << ow << " m=" << m;
              }
            }
          }
}

// The fp32 twin of GemmS8ConvImage.ClosedFormBorderSums (popart's
// test_convolution closed form): every input and weight 1, a 3x3 kernel
// with pad 1, so each output is (valid taps) x icg, exact in fp32 —
// 4/6/9 x icg at corners/edges/interior for stride 1. ow 4, 8, 16 and 32
// give packed, two-run and one-run strips; stride 2 packs. Every level.
TEST(GemmConvOperand, ClosedFormBorderSums) {
  for (const int64_t icg : {2, 3, 5})
    for (const int64_t ow : {4, 8, 16, 32})
      for (const int64_t stride : {1, 2}) {
        const int64_t hw = ow * stride, oc = 7, padding = 1;
        Tensor x = Tensor::full(Shape{1, icg, hw, hw}, 1.0f);
        const std::vector<float> img = padded_image(x, 0, 0, icg, padding);
        const std::vector<float> w(static_cast<size_t>(oc * icg * 9), 1.0f);
        GemmF32ConvB cb;
        cb.padded = img.data();
        cb.ph = cb.pw = hw + 2 * padding;
        cb.kernel = 3;
        cb.stride = stride;
        cb.oh = cb.ow = ow;
        auto valid = [&](int64_t y) {
          int64_t v = 0;
          for (int64_t kh = 0; kh < 3; ++kh) {
            const int64_t r = y * stride - 1 + kh;
            v += r >= 0 && r < hw;
          }
          return v;
        };
        const KernelPlan plan = packed_plan(false, false, oc, ow * ow, icg * 9);
        for (SimdLevel level : host_simd_levels()) {
          SimdCapScope cap(level);
          std::vector<float> out(static_cast<size_t>(oc * ow * ow));
          gemm_conv_ex(plan, 1.0f, w.data(), cb, 0.0f, out.data());
          for (int64_t o = 0; o < oc; ++o)
            for (int64_t y = 0; y < ow; ++y)
              for (int64_t xo = 0; xo < ow; ++xo)
                ASSERT_EQ(out[static_cast<size_t>((o * ow + y) * ow + xo)],
                          static_cast<float>(valid(y) * valid(xo) * icg))
                    << "icg=" << icg << " ow=" << ow << " stride=" << stride
                    << " level=" << simd_level_name(level) << " o=" << o
                    << " y=" << y << " x=" << xo;
        }
      }
}

// ----------------------------------------------------- backend selector

TEST(GemmBackendSelector, RoundTripsAndDispatches) {
  // Large enough for the packed strategy: a plain float gemm() runs the
  // packed fp32 plan under every backend, at every SIMD level.
  const int64_t m = 31, n = 37, k = 23;
  Rng rng(5);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (GemmBackend backend : {GemmBackend::kInt8, GemmBackend::kPacked})
    for (SimdLevel level : host_simd_levels()) {
      BackendGuard guard(backend);
      SimdCapScope cap(level);
      EXPECT_EQ(plan_options().backend, backend);
      EXPECT_EQ(resolved_gemm_backend(), backend);
      std::vector<float> got(static_cast<size_t>(m * n)), want(got.size());
      gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data());
      gemm_ex(packed_plan(false, false, m, n, k), 1.0f, a.data(), b.data(),
              0.0f, want.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(float)))
          << "backend=" << static_cast<int>(backend)
          << " simd=" << simd_level_name(level);
    }
  EXPECT_EQ(resolved_gemm_backend(), GemmBackend::kPacked);
}

}  // namespace
}  // namespace apt::nn
