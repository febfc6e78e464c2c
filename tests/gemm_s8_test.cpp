// Tests for the integer GEMM path: exact agreement of gemm_s8 with an
// all-integer affine reference across transpose combinations, zero-point
// edge cases (Z at both code-range limits), saturation-free accumulation
// at worst-case codes, bit-identical parallel-vs-serial and
// scalar-vs-AVX2 determinism, s8 packing layout with row/column code
// sums, the bulk activation quantiser, and the Linear/Conv2d quantised
// forward wiring (mirrors tests/gemm_backend_test.cpp for fp32).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "backend_guard.hpp"
#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/linear.hpp"
#include "nn/plan.hpp"
#include "quant/affine.hpp"

namespace apt::nn {
namespace {

// All-integer reference: the contract gemm_s8 promises bit-for-bit —
// one int64 code-product sum per element, one double scale, one float
// rounding.
void gemm_s8_reference(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
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

struct S8Case {
  bool ta, tb;
  int64_t m, n, k;
  int32_t za, zb;
  // Code ceilings: both the fill range and the GemmS8Params hint, so
  // cases with a ceiling <= kGemmS8QuadMaxCode run the vpmaddubsw quad
  // strategy instead of the int16-pair one.
  int32_t max_a = 255;
  int32_t max_b = 255;
};

void fill_codes(std::vector<uint8_t>& v, uint64_t seed, int lo = 0,
                int hi = 255) {
  Rng rng(seed);
  for (auto& q : v) q = static_cast<uint8_t>(rng.randint(lo, hi));
}

// A default-blocked integer plan for the shape: kc/mc/nc at the kernel
// defaults, pool dispatch on, no split-N, and a strategy that takes
// byte quads exactly when an operand ceiling allows (every integer
// strategy but kS8Pairs does).
KernelPlan s8_plan(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                   PlanStrategy strategy = PlanStrategy::kS8Quad) {
  KernelPlan plan;
  plan.key = PlanKey::s8(m, n, k, ta, tb, 255, 255);
  plan.strategy = strategy;
  return plan;
}

// gemm_s8_ex over `plan` with its operands spelled out.
void run_s8(const KernelPlan& plan, const uint8_t* a, const uint8_t* b,
            const GemmS8ConvB* conv_b, const GemmS8Params& qp,
            const GemmS8Epilogue* epi, float* out, uint8_t* out_codes,
            const GemmS8ConvImage* conv_image = nullptr) {
  GemmS8Args args;
  args.a = a;
  args.b = b;
  args.conv_b = conv_b;
  args.conv_image = conv_image;
  args.params = qp;
  args.epilogue = epi;
  args.out = out;
  args.out_codes = out_codes;
  gemm_s8_ex(plan, args);
}

class S8VsReference : public ::testing::TestWithParam<S8Case> {};

TEST_P(S8VsReference, AutoKernelExact) {
  const S8Case c = GetParam();
  std::vector<uint8_t> a(static_cast<size_t>(c.m * c.k)),
      b(static_cast<size_t>(c.k * c.n));
  fill_codes(a, 7, 0, c.max_a);
  fill_codes(b, 13, 0, c.max_b);
  const GemmS8Params qp{0.02, 0.005, c.za, c.zb, c.max_a, c.max_b};
  std::vector<float> out(static_cast<size_t>(c.m * c.n), -1.0f),
      ref(static_cast<size_t>(c.m * c.n), -2.0f);
  run_s8(s8_plan(c.ta, c.tb, c.m, c.n, c.k), a.data(), b.data(), nullptr, qp,
         nullptr, out.data(), nullptr);
  gemm_s8_reference(c.ta, c.tb, c.m, c.n, c.k, a.data(), b.data(), qp,
                    ref.data());
  // Integer accumulation: not merely close — identical bits.
  ASSERT_EQ(0,
            std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)));
}

TEST_P(S8VsReference, ScalarKernelExact) {
  const S8Case c = GetParam();
  std::vector<uint8_t> a(static_cast<size_t>(c.m * c.k)),
      b(static_cast<size_t>(c.k * c.n));
  fill_codes(a, 17, 0, c.max_a);
  fill_codes(b, 19, 0, c.max_b);
  const GemmS8Params qp{0.5, 0.25, c.za, c.zb, c.max_a, c.max_b};
  SimdCapScope scalar(SimdLevel::kScalar);
  std::vector<float> out(static_cast<size_t>(c.m * c.n)),
      ref(static_cast<size_t>(c.m * c.n));
  run_s8(s8_plan(c.ta, c.tb, c.m, c.n, c.k), a.data(), b.data(), nullptr, qp,
         nullptr, out.data(), nullptr);
  gemm_s8_reference(c.ta, c.tb, c.m, c.n, c.k, a.data(), b.data(), qp,
                    ref.data());
  ASSERT_EQ(0,
            std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)));
}

// Static arrays rather than ::testing::Values temporaries: gtest names
// each instance by the bytes of its parameter, padding included, and
// only static storage guarantees zeroed padding, so the instance names
// are the same on every build and run.
constexpr S8Case kAllTransposes[] = {
    {false, false, 37, 41, 29, 10, 100},
    {true, false, 37, 41, 29, 10, 100},
    {false, true, 37, 41, 29, 10, 100},
    {true, true, 37, 41, 29, 10, 100},
    // Cross MC and KC panel boundaries.
    {false, false, 200, 50, 300, 3, 7},
    {true, true, 101, 33, 270, 128, 128}};

// Z pinned at both ends of the code range; the correction terms are
// maximal there.
constexpr S8Case kZeroPointEdges[] = {
    {false, false, 23, 19, 31, 0, 0},
    {false, true, 23, 19, 31, 255, 255},
    {true, false, 23, 19, 31, 0, 255},
    {false, false, 23, 19, 31, 255, 0},
    // Odd k exercises the zero-padded second pair slot.
    {false, false, 7, 17, 1, 255, 1},
    {true, true, 6, 16, 11, 200, 55},
    {false, false, 1, 1, 1, 255, 255}};

// Small-code operands engage the vpmaddubsw strategy (B-signed, then
// A-signed variant); results must stay exact, including at the
// worst-case 255 x 64 pair products and at every k-quad padding
// remainder (k mod 4 = 0..3).
constexpr S8Case kQuadFastPath[] = {
    {false, true, 37, 41, 29, 10, 31, 255, 63},
    {false, false, 100, 50, 300, 128, 0, 255, 64},
    {true, false, 33, 47, 64, 255, 64, 255, 64},
    {false, false, 64, 64, 256, 0, 0, 63, 255},
    {true, true, 101, 33, 270, 7, 200, 64, 255},
    {false, false, 23, 19, 31, 64, 255, 64, 255},
    {false, false, 9, 18, 5, 1, 1, 255, 63},
    {false, false, 9, 18, 6, 1, 1, 255, 63},
    {false, false, 9, 18, 7, 1, 1, 255, 63},
    // Both small: the B-signed variant wins the tie.
    {false, false, 40, 40, 40, 30, 30, 63, 63}};

INSTANTIATE_TEST_SUITE_P(AllTransposes, S8VsReference,
                         ::testing::ValuesIn(kAllTransposes));
INSTANTIATE_TEST_SUITE_P(ZeroPointEdges, S8VsReference,
                         ::testing::ValuesIn(kZeroPointEdges));
INSTANTIATE_TEST_SUITE_P(QuadFastPath, S8VsReference,
                         ::testing::ValuesIn(kQuadFastPath));

TEST(GemmS8, WorstCaseCodesDoNotSaturate) {
  // All codes at 255 with Z = 0 maximises every intermediate; with k
  // deep enough to cross many KC panels the int32 raw accumulator
  // approaches but never crosses its exact bound.
  const int64_t m = 3, n = 17, k = 20000;
  ASSERT_LE(k, kGemmS8MaxK);
  std::vector<uint8_t> a(static_cast<size_t>(m * k), 255),
      b(static_cast<size_t>(k * n), 255);
  const GemmS8Params qp{1.0, 1.0, 0, 0};
  std::vector<float> out(static_cast<size_t>(m * n));
  run_s8(s8_plan(false, false, m, n, k), a.data(), b.data(), nullptr, qp,
         nullptr, out.data(), nullptr);
  const float expect =
      static_cast<float>(static_cast<double>(k) * 255.0 * 255.0);
  for (float v : out) ASSERT_EQ(v, expect);
}

TEST(GemmS8, WorstCaseNegativeSumsDoNotSaturate) {
  // Codes 0 against Z = 255 drives the corrected sum to its most
  // negative value (-k * 255^2).
  const int64_t m = 2, n = 9, k = 20000;
  std::vector<uint8_t> a(static_cast<size_t>(m * k), 0),
      b(static_cast<size_t>(k * n), 255);
  const GemmS8Params qp{1.0, 1.0, 255, 0};
  std::vector<float> out(static_cast<size_t>(m * n));
  run_s8(s8_plan(false, false, m, n, k), a.data(), b.data(), nullptr, qp,
         nullptr, out.data(), nullptr);
  const float expect =
      static_cast<float>(-static_cast<double>(k) * 255.0 * 255.0);
  for (float v : out) ASSERT_EQ(v, expect);
}

TEST(GemmS8, QuadPathWorstCasePairProductsStayExact) {
  // The quad strategy's vpmaddubsw headroom proof at its boundary:
  // 255 x 64 + 255 x 64 = 32640, one shy of int16 saturation. Every
  // element must still be exact.
  const int64_t m = 8, n = 24, k = 1000;
  std::vector<uint8_t> a(static_cast<size_t>(m * k), 255),
      b(static_cast<size_t>(k * n), 64);
  GemmS8Params qp{1.0, 1.0, 0, 0};
  qp.max_b = 64;
  std::vector<float> out(static_cast<size_t>(m * n));
  run_s8(s8_plan(false, false, m, n, k), a.data(), b.data(), nullptr, qp,
         nullptr, out.data(), nullptr);
  const float expect =
      static_cast<float>(static_cast<double>(k) * 255.0 * 64.0);
  for (float v : out) ASSERT_EQ(v, expect);
}

TEST(GemmS8, QuadAndPairStrategiesBitIdentical) {
  // Same inputs with and without the small-code declaration: the quad
  // and pair strategies must agree to the bit (scalar ties them both to
  // the integer reference).
  const int64_t m = 52, n = 39, k = 77;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 31);
  fill_codes(b, 32, 0, 63);
  GemmS8Params quad{0.04, 0.3, 200, 17};
  quad.max_b = 63;
  const GemmS8Params pair{0.04, 0.3, 200, 17};  // max_b left at 255
  std::vector<float> via_quad(static_cast<size_t>(m * n)),
      via_pair(static_cast<size_t>(m * n));
  run_s8(s8_plan(false, false, m, n, k), a.data(), b.data(), nullptr, quad,
         nullptr, via_quad.data(), nullptr);
  run_s8(s8_plan(false, false, m, n, k), a.data(), b.data(), nullptr, pair,
         nullptr, via_pair.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(via_quad.data(), via_pair.data(),
                           via_quad.size() * sizeof(float)));
}

TEST(GemmS8, KBeyondExactBoundRejected) {
  std::vector<uint8_t> a(4), b(4);
  std::vector<float> c(1);
  EXPECT_THROW(run_s8(s8_plan(false, false, 1, 1, kGemmS8MaxK + 1), a.data(),
                      b.data(), nullptr, GemmS8Params{}, nullptr, c.data(),
                      nullptr),
               CheckError);
}

TEST(GemmS8, EmptyReductionYieldsZero) {
  std::vector<float> c(6, 42.0f);
  run_s8(s8_plan(false, false, 2, 3, 0), nullptr, nullptr, nullptr,
         GemmS8Params{}, nullptr, c.data(), nullptr);
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(GemmS8, MatchesFakeQuantReferenceClosely) {
  // Dequantise both code planes and run the double-accumulator float
  // reference: the integer path must land within float rounding of it
  // (it is *exactly* the affine product; the float path accumulates
  // rounded fp32 operands).
  const int64_t m = 24, n = 31, k = 57;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 3);
  fill_codes(b, 5, 0, 63);  // 6-bit weight codes
  const GemmS8Params qp{0.01, 0.02, 128, 31};
  std::vector<float> af(a.size()), bf(b.size());
  for (size_t i = 0; i < a.size(); ++i)
    af[i] = static_cast<float>(qp.scale_a * (a[i] - qp.zero_a));
  for (size_t i = 0; i < b.size(); ++i)
    bf[i] = static_cast<float>(qp.scale_b * (b[i] - qp.zero_b));
  std::vector<float> out(static_cast<size_t>(m * n)),
      ref(static_cast<size_t>(m * n), 0.0f);
  run_s8(s8_plan(false, false, m, n, k), a.data(), b.data(), nullptr, qp,
         nullptr, out.data(), nullptr);
  gemm_naive(false, false, m, n, k, 1.0f, af.data(), bf.data(), 0.0f,
             ref.data());
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_NEAR(out[i], ref[i], 1e-4f) << "i=" << i;
}

// --------------------------------------------------------- determinism

TEST(GemmS8, BitIdenticalAcrossThreadCounts) {
  const int64_t m = 3 * kGemmMC + 5, n = 70, k = 2 * kGemmKC + 17;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 11);
  fill_codes(b, 12);
  const GemmS8Params qp{0.1, 0.2, 77, 33};
  std::vector<float> serial(static_cast<size_t>(m * n)),
      parallel(static_cast<size_t>(m * n));
  KernelPlan plan = s8_plan(false, false, m, n, k);
  plan.parallel = false;
  run_s8(plan, a.data(), b.data(), nullptr, qp, nullptr, serial.data(),
         nullptr);
  plan.parallel = true;
  run_s8(plan, a.data(), b.data(), nullptr, qp, nullptr, parallel.data(),
         nullptr);
  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           serial.size() * sizeof(float)));
}

TEST(GemmS8, ScalarAndAutoKernelsBitIdentical) {
  // Integer accumulation has one right answer: the AVX2 and scalar
  // micro-kernels must agree to the bit, not within a tolerance.
  const int64_t m = 100, n = 47, k = 123;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 21);
  fill_codes(b, 22);
  const GemmS8Params qp{0.3, 0.7, 5, 250};
  std::vector<float> via_auto(static_cast<size_t>(m * n)),
      via_scalar(static_cast<size_t>(m * n));
  run_s8(s8_plan(false, true, m, n, k), a.data(), b.data(), nullptr, qp,
         nullptr, via_auto.data(), nullptr);
  SimdCapScope scalar(SimdLevel::kScalar);
  run_s8(s8_plan(false, true, m, n, k), a.data(), b.data(), nullptr, qp,
         nullptr, via_scalar.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(via_auto.data(), via_scalar.data(),
                           via_auto.size() * sizeof(float)));
}

// ------------------------------------------------------------- packing

TEST(GemmS8Packing, PackAInterleavesPairsAndSumsRows) {
  // 7 rows x 5 k: two MR strips (second padded), 3 k-pairs (last padded).
  const int64_t m = 7, k = 5;
  std::vector<uint8_t> a(static_cast<size_t>(m * k));
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<uint8_t>(i + 1);
  const int64_t kp = (k + 1) / 2;
  std::vector<int16_t> packed(static_cast<size_t>(2 * kGemmMR * 2 * kp), -1);
  std::vector<int32_t> rowsum(static_cast<size_t>(m), 0);
  gemm_s8_pack_a(false, a.data(), m, k, 0, m, 0, k, packed.data(),
                 rowsum.data());
  for (int64_t r = 0; r < kGemmMR; ++r)
    for (int64_t p = 0; p < k; ++p) {
      const int64_t idx = ((p / 2) * kGemmMR + r) * 2 + (p % 2);
      EXPECT_EQ(packed[static_cast<size_t>(idx)], a[r * k + p])
          << "r=" << r << " p=" << p;
    }
  // Odd-k pad slot and tail rows are zero.
  EXPECT_EQ(packed[static_cast<size_t>((2 * kGemmMR + 0) * 2 + 1)], 0);
  const int16_t* strip1 = packed.data() + kGemmMR * 2 * kp;
  for (int64_t p = 0; p < k; ++p) {
    EXPECT_EQ(strip1[((p / 2) * kGemmMR) * 2 + (p % 2)], a[6 * k + p]);
    for (int64_t r = 1; r < kGemmMR; ++r)
      EXPECT_EQ(strip1[((p / 2) * kGemmMR + r) * 2 + (p % 2)], 0);
  }
  for (int64_t r = 0; r < m; ++r) {
    int32_t expect = 0;
    for (int64_t p = 0; p < k; ++p) expect += a[r * k + p];
    EXPECT_EQ(rowsum[static_cast<size_t>(r)], expect);
  }
}

TEST(GemmS8Packing, PackBFoldsTransposeAndSumsColumns) {
  const int64_t k = 9, n = 21;
  std::vector<uint8_t> bt(static_cast<size_t>(n * k));  // stored n x k
  fill_codes(bt, 5);
  std::vector<uint8_t> b(static_cast<size_t>(k * n));  // materialised k x n
  for (int64_t p = 0; p < k; ++p)
    for (int64_t j = 0; j < n; ++j)
      b[static_cast<size_t>(p * n + j)] = bt[static_cast<size_t>(j * k + p)];

  const int64_t kp = (k + 1) / 2;
  const int64_t strips = (n + kGemmNR - 1) / kGemmNR;
  std::vector<int16_t> p1(static_cast<size_t>(strips * kGemmNR * 2 * kp));
  std::vector<int16_t> p2(static_cast<size_t>(strips * kGemmNR * 2 * kp));
  std::vector<int32_t> s1(static_cast<size_t>(n), 0),
      s2(static_cast<size_t>(n), 0);
  gemm_s8_pack_b(true, bt.data(), k, n, 0, k, 0, n, p1.data(), s1.data());
  gemm_s8_pack_b(false, b.data(), k, n, 0, k, 0, n, p2.data(), s2.data());
  EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(int16_t)));
  EXPECT_EQ(s1, s2);
  for (int64_t j = 0; j < n; ++j) {
    int32_t expect = 0;
    for (int64_t p = 0; p < k; ++p) expect += b[static_cast<size_t>(p * n + j)];
    EXPECT_EQ(s1[static_cast<size_t>(j)], expect);
  }
}

// Reference packing straight from the layout formulas in gemm_kernel.hpp:
// strip s of `width` lines holds, per k-group g, word (g, l) = the kG
// codes at(p0 + g*kG + t, l0 + s*width + l), zero past kc and past nl.
// Sums start at a nonzero seed: every packer must ADD into them.
struct Packed {
  std::vector<uint8_t> bytes;
  std::vector<int32_t> sums;
};

template <typename T, int kG, typename At>
Packed reference_pack(At at, int64_t l0, int64_t nl, int64_t width,
                      int64_t p0, int64_t kc) {
  const int64_t groups = (kc + kG - 1) / kG;
  const int64_t strips = (nl + width - 1) / width;
  std::vector<T> dst(static_cast<size_t>(strips * width * kG * groups));
  Packed r;
  r.sums.assign(static_cast<size_t>(nl), 7);
  for (int64_t s = 0; s < strips; ++s)
    for (int64_t g = 0; g < groups; ++g)
      for (int64_t l = 0; l < width; ++l)
        for (int64_t t = 0; t < kG; ++t) {
          const int64_t i = g * kG + t, line = s * width + l;
          const bool real = line < nl && i < kc;
          const int32_t q = real ? at(p0 + i, l0 + line) : 0;
          dst[static_cast<size_t>(((s * groups + g) * width + l) * kG + t)] =
              static_cast<T>(q);
          if (real) r.sums[static_cast<size_t>(line)] += q;
        }
  r.bytes.resize(dst.size() * sizeof(T));
  std::memcpy(r.bytes.data(), dst.data(), r.bytes.size());
  return r;
}

// Runs `pack(dst, sums)` over garbage-filled buffers shaped like `want`.
template <typename T, typename Pack>
Packed run_pack(const Packed& want, Pack pack) {
  std::vector<T> dst(want.bytes.size() / sizeof(T));
  std::memset(dst.data(), 0xAB, want.bytes.size());
  Packed got;
  got.sums.assign(want.sums.size(), 7);
  pack(dst.data(), got.sums.data());
  got.bytes.resize(want.bytes.size());
  std::memcpy(got.bytes.data(), dst.data(), got.bytes.size());
  return got;
}

void expect_same_pack(const Packed& want, const Packed& got,
                      const std::string& what) {
  EXPECT_EQ(0, std::memcmp(want.bytes.data(), got.bytes.data(),
                           want.bytes.size()))
      << what << ": packed bytes differ";
  EXPECT_EQ(want.sums, got.sums) << what << ": code sums differ";
}

TEST(GemmS8Packing, ExplicitPackersMatchReference) {
  // Panels cover full and tail strips (cols < 16, rows < MR), odd and
  // quad-ragged kc, and p0 / line offsets != 0, for both transposes.
  const int64_t m = 19, n = 37, k = 75;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  fill_codes(a, 91);
  fill_codes(b, 92);
  struct Panel {
    int64_t l0, nl, p0, kc;
  };
  const Panel panels[] = {{0, 19, 0, 75}, {3, 13, 5, 33}, {6, 7, 16, 17},
                          {0, 16, 1, 1},  {2, 4, 40, 35}};
  for (const bool trans : {false, true})
    for (const Panel& pn : panels) {
      const std::string tag = std::string(trans ? "T" : "N") +
                              " l0=" + std::to_string(pn.l0) +
                              " nl=" + std::to_string(pn.nl) +
                              " p0=" + std::to_string(pn.p0) +
                              " kc=" + std::to_string(pn.kc);
      // A is m x k (op_a(A)[i, p]); stored k x m when transposed.
      auto at_a = [&](int64_t p, int64_t i) -> int32_t {
        return trans ? a[static_cast<size_t>(p * m + i)]
                     : a[static_cast<size_t>(i * k + p)];
      };
      // B is k x n (op_b(B)[p, j]); stored n x k when transposed.
      auto at_b = [&](int64_t p, int64_t j) -> int32_t {
        return trans ? b[static_cast<size_t>(j * k + p)]
                     : b[static_cast<size_t>(p * n + j)];
      };
      const int64_t nl_b = std::min<int64_t>(pn.nl + 9, n - pn.l0);
      const Packed ap = reference_pack<int16_t, 2>(at_a, pn.l0, pn.nl,
                                                   kGemmMR, pn.p0, pn.kc);
      expect_same_pack(ap, run_pack<int16_t>(ap, [&](int16_t* d, int32_t* s) {
                         gemm_s8_pack_a(trans, a.data(), m, k, pn.l0, pn.nl,
                                        pn.p0, pn.kc, d, s);
                       }),
                       "pack_a " + tag);
      const Packed aq = reference_pack<uint8_t, 4>(at_a, pn.l0, pn.nl,
                                                   kGemmMR, pn.p0, pn.kc);
      expect_same_pack(aq, run_pack<uint8_t>(aq, [&](uint8_t* d, int32_t* s) {
                         gemm_s8_pack_a_quads(trans, a.data(), m, k, pn.l0,
                                              pn.nl, pn.p0, pn.kc, d, s);
                       }),
                       "pack_a_quads " + tag);
      const Packed bp = reference_pack<int16_t, 2>(at_b, pn.l0, nl_b,
                                                   kGemmNR, pn.p0, pn.kc);
      expect_same_pack(bp, run_pack<int16_t>(bp, [&](int16_t* d, int32_t* s) {
                         gemm_s8_pack_b(trans, b.data(), k, n, pn.p0, pn.kc,
                                        pn.l0, nl_b, d, s);
                       }),
                       "pack_b " + tag);
      const Packed bq = reference_pack<uint8_t, 4>(at_b, pn.l0, nl_b,
                                                   kGemmNR, pn.p0, pn.kc);
      expect_same_pack(bq, run_pack<uint8_t>(bq, [&](uint8_t* d, int32_t* s) {
                         gemm_s8_pack_b_quads(trans, b.data(), k, n, pn.p0,
                                              pn.kc, pn.l0, nl_b, d, s);
                       }),
                       "pack_b_quads " + tag);
    }
}

TEST(GemmS8Packing, ConvPackersMatchReference) {
  // The transposed implicit operand (the weight gradient's B), against
  // the formula over a materialised im2col: kernel 1/3, stride 1/2,
  // padding 0/1 and ow in {4, 7, 8, 12, 16} (every run width plus the
  // gather), with aligned and ragged panels.
  const int64_t C = 3;
  for (const int64_t kernel : {1, 3})
    for (const int64_t stride : {1, 2})
      for (const int64_t padding : {0, 1})
        for (const int64_t ow : {4, 7, 8, 12, 16}) {
          const int64_t W = (ow - 1) * stride + kernel - 2 * padding;
          const int64_t H = W + 1;
          const int64_t oh = (H + 2 * padding - kernel) / stride + 1;
          const int64_t taps = C * kernel * kernel, pos = oh * ow;
          std::vector<uint8_t> codes(static_cast<size_t>(C * H * W));
          fill_codes(codes, static_cast<uint64_t>(100 + ow + 7 * kernel));
          const uint8_t pad_code = 201;
          std::vector<uint8_t> cols(static_cast<size_t>(taps * pos));
          im2col_u8(codes.data(), C, H, W, 0, 0, C, kernel, stride, padding,
                    oh, ow, pad_code, cols.data());
          GemmS8ConvB cb;
          cb.kernel = kernel;
          cb.stride = stride;
          cb.oh = oh;
          cb.ow = ow;
          cb.ph = H + 2 * padding;
          cb.pw = W + 2 * padding;
          std::vector<uint8_t> stage(static_cast<size_t>(C * cb.ph * cb.pw));
          stage_padded_u8(codes.data(), C, H, W, padding, pad_code,
                          stage.data(), /*pooled=*/false);
          cb.padded = stage.data();
          const std::string geo = "k=" + std::to_string(kernel) +
                                  " s=" + std::to_string(stride) +
                                  " p=" + std::to_string(padding) +
                                  " ow=" + std::to_string(ow);
          {
            // op_b(B) is the transpose of [taps, pos] = cols.
            const int64_t k = pos, n = taps;
            auto at = [&](int64_t p, int64_t j) -> int32_t {
              return cols[static_cast<size_t>(j * pos + p)];
            };
            struct Panel {
              int64_t p0, kc, j0, nc;
            };
            const Panel panels[] = {
                {0, k, 0, n},
                {k > 16 ? 16 : 0, k > 16 ? k - 16 : k, n > 16 ? 16 : 0,
                 n > 16 ? n - 16 : n},
                {k / 3, k - k / 3, n / 5, n - n / 5},
                {1, std::max<int64_t>(1, (k - 1) / 2 | 1), 3,
                 std::min<int64_t>(n - 3, 13)}};
            for (const Panel& pn : panels) {
              if (pn.kc <= 0 || pn.nc <= 0 || pn.p0 + pn.kc > k) continue;
              const std::string tag =
                  geo + " p0=" +
                  std::to_string(pn.p0) + " kc=" + std::to_string(pn.kc) +
                  " j0=" + std::to_string(pn.j0) +
                  " nc=" + std::to_string(pn.nc);
              const Packed wp = reference_pack<int16_t, 2>(
                  at, pn.j0, pn.nc, kGemmNR, pn.p0, pn.kc);
              expect_same_pack(
                  wp, run_pack<int16_t>(wp, [&](int16_t* d, int32_t* s) {
                    gemm_s8_pack_b_conv(cb, pn.p0, pn.kc, pn.j0, pn.nc, d,
                                        s);
                  }),
                  "pack_b_conv " + tag);
              const Packed wq = reference_pack<uint8_t, 4>(
                  at, pn.j0, pn.nc, kGemmNR, pn.p0, pn.kc);
              expect_same_pack(
                  wq, run_pack<uint8_t>(wq, [&](uint8_t* d, int32_t* s) {
                    gemm_s8_pack_b_quads_conv(cb, pn.p0, pn.kc, pn.j0,
                                              pn.nc, d, s);
                  }),
                  "pack_b_quads_conv " + tag);
            }
          }
          // The weight-gradient operand: the implicit transpose packs
          // byte for byte like im2col_u8 + the transposed quad pack
          // (the reference only sizes the buffers here).
          const Packed shape = reference_pack<uint8_t, 4>(
              [&](int64_t p, int64_t j) -> int32_t {
                return cols[static_cast<size_t>(j * pos + p)];
              },
              0, taps, kGemmNR, 0, pos);
          const Packed explicit_t =
              run_pack<uint8_t>(shape, [&](uint8_t* d, int32_t* s) {
                gemm_s8_pack_b_quads(true, cols.data(), pos, taps, 0, pos, 0,
                                     taps, d, s);
              });
          const Packed implicit_t =
              run_pack<uint8_t>(shape, [&](uint8_t* d, int32_t* s) {
                gemm_s8_pack_b_quads_conv(cb, 0, pos, 0, taps, d, s);
              });
          expect_same_pack(explicit_t, implicit_t, "dW operand " + geo);
        }
}

// ------------------------------------------------- activation quantiser

TEST(QuantizeCodesU8, MatchesQuantizeValueWithinOneCode) {
  Rng rng(9);
  const quant::QuantParams p = quant::choose_params(-1.3f, 2.1f, 8);
  std::vector<float> v(512);
  for (auto& x : v) x = rng.uniform(-2.0f, 3.0f);
  std::vector<uint8_t> codes(v.size());
  quant::quantize_codes_u8(v.data(), static_cast<int64_t>(v.size()), p,
                           codes.data());
  for (size_t i = 0; i < v.size(); ++i) {
    // Float-precision bulk path vs double-precision scalar path: a value
    // sitting on a rounding knife edge may land one code apart, never
    // more.
    const int64_t expect = quant::quantize_value(v[i], p);
    EXPECT_NEAR(static_cast<double>(codes[i]), static_cast<double>(expect),
                1.0)
        << "v=" << v[i];
  }
}

TEST(QuantizeCodesU8, SpecialValuesSaturate) {
  const quant::QuantParams p = quant::choose_params(-1.0f, 1.0f, 8);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float v[5] = {0.0f, -100.0f, 100.0f, inf, -inf};
  uint8_t codes[5];
  quant::quantize_codes_u8(v, 5, p, codes);
  EXPECT_EQ(codes[0], p.zero_point);  // exact zero lands on Z
  EXPECT_EQ(codes[1], 0);
  EXPECT_EQ(codes[2], quant::max_code(8));
  EXPECT_EQ(codes[3], quant::max_code(8));
  EXPECT_EQ(codes[4], 0);
  const float just_nan[1] = {nan};
  uint8_t nan_code[1];
  quant::quantize_codes_u8(just_nan, 1, p, nan_code);
  EXPECT_EQ(nan_code[0], 0);  // defined, not UB
}

// ---------------------------------------------------- layer-level wiring

void attach_weight_grid(Parameter& p, int bits) {
  core::GridOptions go;
  go.bits = bits;
  p.rep = std::make_shared<core::GridRepresentation>(p, go);
}

TEST(LinearInt8, EngagesOnlyWithCodesAndBackend) {
  Rng rng(1);
  Linear lin("fc", 16, 8, rng);
  Tensor x(Shape{4, 16});
  rng.fill_normal(x, 0, 1);
  {
    BackendGuard guard(GemmBackend::kInt8);
    lin.forward(x, true);  // no representation attached yet
    EXPECT_FALSE(lin.last_forward_was_int8());
    attach_weight_grid(lin.weight(), 6);
    lin.forward(x, true);
    EXPECT_TRUE(lin.last_forward_was_int8());
    lin.weight().rep->set_bits(lin.weight(), 12);  // too wide for int8
    lin.forward(x, true);
    EXPECT_FALSE(lin.last_forward_was_int8());
  }
  BackendGuard guard(GemmBackend::kPacked);
  lin.weight().rep->set_bits(lin.weight(), 6);
  lin.forward(x, true);  // backend not int8
  EXPECT_FALSE(lin.last_forward_was_int8());
}

TEST(LinearInt8, MatchesFp32PathWithinActivationRounding) {
  Rng rng(2);
  Linear lin("fc", 32, 12, rng);
  attach_weight_grid(lin.weight(), 8);
  Tensor x(Shape{8, 32});
  rng.fill_normal(x, 0, 1);

  BackendGuard fp32_guard(GemmBackend::kPacked);
  const Tensor y_fp32 = lin.forward(x, true);  // also primes the tracker
  BackendGuard int8_guard(GemmBackend::kInt8);
  const Tensor y_int8 = lin.forward(x, true);
  ASSERT_TRUE(lin.last_forward_was_int8());

  // The weight view is identical (S(q-Z) both paths); the difference is
  // bounded by 8-bit activation rounding folded through the weights.
  const quant::QuantParams aq = quant::choose_params(
      lin.activation_range().lo(), lin.activation_range().hi(), 8);
  float wmax = 0.0f;
  for (float w : lin.weight().value.span()) wmax = std::max(wmax, std::fabs(w));
  const float bound =
      static_cast<float>(32 * wmax * (0.51 * aq.epsilon()) + 1e-4);
  for (int64_t i = 0; i < y_fp32.numel(); ++i)
    ASSERT_NEAR(y_fp32[i], y_int8[i], bound) << "i=" << i;
}

TEST(LinearInt8, ForwardBitIdenticalAcrossRuns) {
  Rng rng(3);
  Linear lin("fc", 64, 24, rng, /*bias=*/false);
  attach_weight_grid(lin.weight(), 6);
  Tensor x(Shape{16, 64});
  rng.fill_normal(x, 0, 1);
  BackendGuard guard(GemmBackend::kInt8);
  lin.forward(x, true);  // prime the tracker
  const Tensor y1 = lin.forward(x, false);
  const Tensor y2 = lin.forward(x, false);
  ASSERT_TRUE(lin.last_forward_was_int8());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           static_cast<size_t>(y1.numel()) * sizeof(float)));
}

TEST(Conv2dInt8, MatchesFp32PathWithinActivationRounding) {
  Rng rng(4);
  Conv2dOptions opts;
  opts.in_channels = 5;
  opts.out_channels = 7;
  opts.kernel = 3;
  opts.padding = 1;
  opts.bias = true;
  Conv2d conv("conv", opts, rng);
  attach_weight_grid(conv.weight(), 8);
  Tensor x(Shape{2, 5, 9, 9});
  // Asymmetric input range: the padding code is a non-trivial zero-point.
  rng.fill_normal(x, 0.7f, 0.8f);

  BackendGuard fp32_guard(GemmBackend::kPacked);
  const Tensor y_fp32 = conv.forward(x, true);
  BackendGuard int8_guard(GemmBackend::kInt8);
  const Tensor y_int8 = conv.forward(x, true);
  ASSERT_TRUE(conv.last_forward_was_int8());

  const quant::QuantParams aq = quant::choose_params(
      conv.activation_range().lo(), conv.activation_range().hi(), 8);
  float wmax = 0.0f;
  for (float w : conv.weight().value.span())
    wmax = std::max(wmax, std::fabs(w));
  const float bound = static_cast<float>(
      5 * 3 * 3 * wmax * (0.51 * aq.epsilon()) + 1e-4);
  for (int64_t i = 0; i < y_fp32.numel(); ++i)
    ASSERT_NEAR(y_fp32[i], y_int8[i], bound) << "i=" << i;
}

TEST(Conv2dInt8, GroupedConvolutionStaysExact) {
  Rng rng(5);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  opts.kernel = 3;
  opts.padding = 1;
  opts.groups = 4;
  Conv2d conv("gconv", opts, rng);
  attach_weight_grid(conv.weight(), 6);
  Tensor x(Shape{3, 8, 6, 6});
  rng.fill_normal(x, 0, 1);
  BackendGuard fp32_guard(GemmBackend::kPacked);
  const Tensor y_fp32 = conv.forward(x, true);  // also primes the tracker
  EXPECT_FALSE(conv.last_forward_was_int8());
  BackendGuard int8_guard(GemmBackend::kInt8);
  const Tensor y_int8 = conv.forward(x, true);
  ASSERT_TRUE(conv.last_forward_was_int8());
  const quant::QuantParams aq = quant::choose_params(
      conv.activation_range().lo(), conv.activation_range().hi(), 8);
  float wmax = 0.0f;
  for (float w : conv.weight().value.span())
    wmax = std::max(wmax, std::fabs(w));
  const float bound = static_cast<float>(
      2 * 3 * 3 * wmax * (0.51 * aq.epsilon()) + 1e-4);  // icg = 2
  for (int64_t i = 0; i < y_fp32.numel(); ++i)
    ASSERT_NEAR(y_fp32[i], y_int8[i], bound) << "i=" << i;
}

TEST(Im2colU8, MatchesFloatGatherOnCodes) {
  Rng rng(6);
  const int64_t C = 3, H = 7, W = 5, kernel = 3, stride = 2, padding = 1;
  const int64_t oh = (H + 2 * padding - kernel) / stride + 1;
  const int64_t ow = (W + 2 * padding - kernel) / stride + 1;
  std::vector<uint8_t> codes(static_cast<size_t>(2 * C * H * W));
  fill_codes(codes, 8);
  // Float mirror with pad 0 vs byte gather with pad 0 must agree cell
  // for cell.
  Tensor xf(Shape{2, C, H, W});
  for (int64_t i = 0; i < xf.numel(); ++i)
    xf.data()[i] = static_cast<float>(codes[static_cast<size_t>(i)]);
  std::vector<float> cols_f(static_cast<size_t>(C * kernel * kernel * oh * ow));
  std::vector<uint8_t> cols_q(cols_f.size());
  im2col(xf, 1, 0, C, kernel, stride, padding, oh, ow, cols_f.data());
  im2col_u8(codes.data(), C, H, W, 1, 0, C, kernel, stride, padding, oh, ow,
            /*pad_code=*/0, cols_q.data());
  for (size_t i = 0; i < cols_f.size(); ++i)
    ASSERT_EQ(cols_f[i], static_cast<float>(cols_q[i])) << "i=" << i;
}

// ------------------------------------------------------ fused epilogues
//
// The epilogue contract: per element, y = S_c * t + bias[c] (t the exact
// int64 code sum), optional clamp to [0, cap], then either float(y) or
// the half-up requantised code — all double arithmetic, bit-identical to
// this reference for any kernel, thread count, or panel split.
struct EpiRef {
  std::vector<double> scale;  // per-channel; empty -> Sa*Sb
  std::vector<float> bias;    // per-channel; empty -> 0
  bool channel_is_row = true;
  bool relu = false;
  float cap = std::numeric_limits<float>::infinity();
  double out_scale = 0.004;
  int32_t out_zero = 30;
  int32_t out_max = 255;
};

void epilogue_reference(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                        const uint8_t* a, const uint8_t* b,
                        const GemmS8Params& qp, const EpiRef& er,
                        float* cf, uint8_t* cu, float* lo_out,
                        float* hi_out) {
  const double sab = qp.scale_a * qp.scale_b;
  double lo = std::numeric_limits<double>::infinity(), hi = -lo;
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        const int64_t qa = ta ? a[p * m + i] : a[i * k + p];
        const int64_t qb = tb ? b[j * k + p] : b[p * n + j];
        acc += (qa - qp.zero_a) * (qb - qp.zero_b);
      }
      const int64_t c = er.channel_is_row ? i : j;
      double y = (er.scale.empty() ? sab : er.scale[static_cast<size_t>(c)]) *
                 static_cast<double>(acc);
      if (!er.bias.empty())
        y += static_cast<double>(er.bias[static_cast<size_t>(c)]);
      if (er.relu) y = std::min(std::max(y, 0.0), static_cast<double>(er.cap));
      lo = std::min(lo, y);
      hi = std::max(hi, y);
      if (cf != nullptr) cf[i * n + j] = static_cast<float>(y);
      if (cu != nullptr) {
        double q = y * (1.0 / er.out_scale) + static_cast<double>(er.out_zero);
        q = q >= 0.0 ? std::floor(q + 0.5) : 0.0;
        if (q > er.out_max) q = er.out_max;
        cu[i * n + j] = static_cast<uint8_t>(q);
      }
    }
  if (lo_out != nullptr) {
    *lo_out = static_cast<float>(lo);
    *hi_out = static_cast<float>(hi);
  }
}

GemmS8Epilogue to_epilogue(const EpiRef& er, float* lo, float* hi) {
  GemmS8Epilogue epi;
  epi.scale = er.scale.empty() ? nullptr : er.scale.data();
  epi.bias = er.bias.empty() ? nullptr : er.bias.data();
  epi.channel_is_row = er.channel_is_row;
  epi.relu = er.relu;
  epi.relu_cap = er.cap;
  epi.out_scale = er.out_scale;
  epi.out_zero = er.out_zero;
  epi.out_max = er.out_max;
  epi.observe_lo = lo;
  epi.observe_hi = hi;
  return epi;
}

class EpilogueExact : public ::testing::TestWithParam<S8Case> {};

TEST_P(EpilogueExact, FusedAndRequantMatchReference) {
  const S8Case tc = GetParam();
  std::vector<uint8_t> a(static_cast<size_t>(tc.m * tc.k));
  std::vector<uint8_t> b(static_cast<size_t>(tc.k * tc.n));
  fill_codes(a, 11, 0, tc.max_a);
  fill_codes(b, 12, 0, tc.max_b);
  GemmS8Params qp{0.013, 0.021, tc.za, tc.zb};
  qp.max_a = tc.max_a;
  qp.max_b = tc.max_b;
  for (const bool row_ch : {true, false}) {
    for (const bool relu : {false, true}) {
      EpiRef er;
      er.channel_is_row = row_ch;
      er.relu = relu;
      er.cap = 3.0f;
      const int64_t ch = row_ch ? tc.m : tc.n;
      Rng rng(13);
      er.scale.resize(static_cast<size_t>(ch));
      er.bias.resize(static_cast<size_t>(ch));
      for (auto& s : er.scale) s = rng.uniform(0.001, 0.05);
      for (auto& v : er.bias) v = static_cast<float>(rng.uniform(-2, 2));
      std::vector<float> want_f(static_cast<size_t>(tc.m * tc.n));
      std::vector<uint8_t> want_u(want_f.size());
      float want_lo, want_hi;
      epilogue_reference(tc.ta, tc.tb, tc.m, tc.n, tc.k, a.data(), b.data(),
                         qp, er, want_f.data(), want_u.data(), &want_lo,
                         &want_hi);
      std::vector<float> got_f(want_f.size(), -1e30f);
      std::vector<uint8_t> got_u(want_f.size(), 77);
      float lo = 0, hi = 0;
      GemmS8Epilogue epi = to_epilogue(er, &lo, &hi);
      run_s8(s8_plan(tc.ta, tc.tb, tc.m, tc.n, tc.k), a.data(), b.data(),
             nullptr, qp, &epi, got_f.data(), nullptr);
      for (size_t i = 0; i < want_f.size(); ++i)
        ASSERT_EQ(want_f[i], got_f[i]) << "fused i=" << i;
      EXPECT_EQ(want_lo, lo);
      EXPECT_EQ(want_hi, hi);
      run_s8(s8_plan(tc.ta, tc.tb, tc.m, tc.n, tc.k), a.data(), b.data(),
             nullptr, qp, &epi, nullptr, got_u.data());
      for (size_t i = 0; i < want_u.size(); ++i)
        ASSERT_EQ(want_u[i], got_u[i]) << "requant i=" << i;
    }
  }
}

constexpr S8Case kEpilogueShapes[] = {
    // Four transpose combos on an odd shape (both strategies).
    {false, false, 13, 29, 37, 17, 9},
    {true, false, 13, 29, 37, 3, 250},
    {false, true, 13, 29, 37, 128, 31, 255, 63},
    {true, true, 13, 29, 37, 255, 0},
    // Conv shape: single quad panel (k=576 <= kGemmS8KCQuad).
    {false, false, 64, 256, 576, 31, 128, 63, 255},
    // Multi-panel on both strategies (quads: k > 768; pairs: k > 256).
    {false, false, 7, 40, 900, 11, 200, 63, 255},
    {false, true, 7, 40, 300, 11, 200}};

INSTANTIATE_TEST_SUITE_P(Shapes, EpilogueExact,
                         ::testing::ValuesIn(kEpilogueShapes));

TEST(EpilogueExact, ReluClampEdges) {
  // One-element products engineered to land exactly at 0, at the cap,
  // and beyond it: the clamp is [0, cap] inclusive on doubles.
  const GemmS8Params qp{1.0, 1.0, 0, 0};
  const uint8_t a[3] = {0, 2, 6};   // column vector (m=3, k=1)
  const uint8_t b[1] = {1};         // 1 x 1
  EpiRef er;
  er.relu = true;
  er.cap = 4.0f;
  er.bias = {-1.0f, -1.0f, -1.0f};  // y = q - 1 -> {-1, 1, 5}
  std::vector<float> want(3);
  std::vector<uint8_t> want_u(3);
  float want_lo, want_hi;
  epilogue_reference(false, false, 3, 1, 1, a, b, qp, er, want.data(),
                     want_u.data(), &want_lo, &want_hi);
  EXPECT_EQ(want[0], 0.0f);  // clamped up
  EXPECT_EQ(want[1], 1.0f);  // untouched
  EXPECT_EQ(want[2], 4.0f);  // clamped to the cap
  float got[3], lo, hi;
  GemmS8Epilogue epi = to_epilogue(er, &lo, &hi);
  run_s8(s8_plan(false, false, 3, 1, 1), a, b, nullptr, qp, &epi, got, nullptr);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(want[i], got[i]);
  EXPECT_EQ(0.0f, lo);
  EXPECT_EQ(4.0f, hi);
}

TEST(EpilogueExact, PerChannelScaleExtremes) {
  // Tiny, huge, and zero per-channel scales must flow through the double
  // path unharmed (zero scale zeroes the product but keeps the bias).
  std::vector<uint8_t> a(static_cast<size_t>(4 * 16));
  std::vector<uint8_t> b(static_cast<size_t>(16 * 5));
  fill_codes(a, 21);
  fill_codes(b, 22);
  GemmS8Params qp{1.0, 1.0, 7, 13};
  EpiRef er;
  er.scale = {1e-30, 1e+20, 0.0, 1.0};
  er.bias = {0.5f, -0.5f, 2.0f, 0.0f};
  std::vector<float> want(4 * 5);
  std::vector<uint8_t> want_u(4 * 5);
  epilogue_reference(false, false, 4, 5, 16, a.data(), b.data(), qp, er,
                     want.data(), want_u.data(), nullptr, nullptr);
  std::vector<float> got(want.size());
  std::vector<uint8_t> got_u(want.size());
  GemmS8Epilogue epi = to_epilogue(er, nullptr, nullptr);
  run_s8(s8_plan(false, false, 4, 5, 16), a.data(), b.data(), nullptr, qp, &epi,
         got.data(), nullptr);
  run_s8(s8_plan(false, false, 4, 5, 16), a.data(), b.data(), nullptr, qp, &epi,
         nullptr, got_u.data());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << i;
    ASSERT_EQ(want_u[i], got_u[i]) << i;
  }
  // Row 2 (zero scale): every element is exactly the bias.
  for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(2.0f, got[2 * 5 + j]);
}

TEST(EpilogueExact, RequantSaturatesToOutputGrid) {
  // A 6-bit output grid: codes clamp to [0, 63].
  std::vector<uint8_t> a(static_cast<size_t>(2 * 8));
  std::vector<uint8_t> b(static_cast<size_t>(8 * 3));
  fill_codes(a, 31);
  fill_codes(b, 32);
  GemmS8Params qp{0.5, 0.5, 0, 255};
  EpiRef er;
  er.out_scale = 0.01;
  er.out_zero = 32;
  er.out_max = 63;
  std::vector<uint8_t> want_u(2 * 3), got_u(2 * 3);
  epilogue_reference(false, false, 2, 3, 8, a.data(), b.data(), qp, er,
                     nullptr, want_u.data(), nullptr, nullptr);
  GemmS8Epilogue epi = to_epilogue(er, nullptr, nullptr);
  run_s8(s8_plan(false, false, 2, 3, 8), a.data(), b.data(), nullptr, qp, &epi,
         nullptr, got_u.data());
  for (size_t i = 0; i < want_u.size(); ++i) {
    ASSERT_EQ(want_u[i], got_u[i]) << i;
    ASSERT_LE(got_u[i], 63);
  }
}

TEST(EpilogueExact, Avx2AndScalarStoresBitIdentical) {
  // The fused store is specialised per flag set — raw plane (several k
  // panels), column channel vectors (the linear layout), ReLU, range
  // probe, requant — and, within a set, with or without channel
  // vectors. Every variant must write the scalar store's bytes on the
  // AVX2 store, over a ragged n (37: the last tile has 5 columns, one in
  // the scalar tail) and channel values that include NaN and ±0.
  if (!cpu_has_avx2_fma()) GTEST_SKIP() << "no AVX2 on this machine";
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const int64_t m = 23, n = 37, k = 300;
  std::vector<uint8_t> a(static_cast<size_t>(m * k));
  std::vector<uint8_t> b(static_cast<size_t>(k * n));
  fill_codes(a, 41);
  fill_codes(b, 42, 0, 63);
  GemmS8Params qp{0.02, 0.01, 100, 20};
  qp.max_b = 63;
  for (int flags = 0; flags < 32; ++flags)
    for (const bool vectors : {true, false}) {
      const bool raw = (flags & 1) != 0, col = (flags & 2) != 0;
      const bool relu = (flags & 4) != 0, observe = (flags & 8) != 0;
      const bool requant = (flags & 16) != 0;
      EpiRef er;
      er.channel_is_row = !col;
      er.relu = relu;
      er.cap = 6.0f;
      if (vectors) {
        Rng rng(43 + static_cast<uint64_t>(flags));
        const size_t ch = static_cast<size_t>(col ? n : m);
        er.scale.resize(ch);
        er.bias.resize(ch);
        for (auto& v : er.scale) v = rng.uniform(-0.002, 0.01);
        for (auto& v : er.bias) v = static_cast<float>(rng.uniform(-1, 1));
        er.scale[1] = 0.0;
        er.scale[2] = -0.0;
        er.bias[3] = kNaN;
        er.bias[4] = -0.0f;
        er.bias[5] = 0.0f;
        er.bias[ch - 1] = kNaN;  // in the last, ragged tile
      }
      KernelPlan plan = s8_plan(false, false, m, n, k);
      if (raw) plan.kc = 64;
      std::vector<float> f[2];
      std::vector<uint8_t> u[2];
      float lo[2] = {kNaN, kNaN}, hi[2] = {kNaN, kNaN};
      for (int v = 0; v < 2; ++v) {
        SimdCapScope cap(v == 0 ? SimdLevel::kScalar : SimdLevel::kAvx2);
        GemmS8Epilogue epi = observe ? to_epilogue(er, &lo[v], &hi[v])
                                     : to_epilogue(er, nullptr, nullptr);
        f[v].assign(static_cast<size_t>(m * n), -1.0f);
        u[v].assign(static_cast<size_t>(m * n), 7);
        run_s8(plan, a.data(), b.data(), nullptr, qp, &epi,
               requant ? nullptr : f[v].data(),
               requant ? u[v].data() : nullptr);
      }
      const std::string at = "flags=" + std::to_string(flags) +
                             " vectors=" + std::to_string(vectors);
      EXPECT_EQ(0, std::memcmp(f[0].data(), f[1].data(),
                               f[0].size() * sizeof(float)))
          << at;
      EXPECT_EQ(0, std::memcmp(u[0].data(), u[1].data(), u[0].size())) << at;
      if (observe) {
        EXPECT_EQ(0, std::memcmp(&lo[0], &lo[1], sizeof(float))) << at;
        EXPECT_EQ(0, std::memcmp(&hi[0], &hi[1], sizeof(float))) << at;
      }
    }
}

TEST(GemmS8FinalStore, Avx2MatchesScalarOnGradientGemmShapes) {
  // The plain dequantising store behind the int8 gradient GEMMs: the
  // AVX2 twin must write the scalar store's bits, from one k panel and
  // across several (the int32 raw-plane path). The scalar SIMD cap forces
  // the scalar store (and the scalar micro-kernel, exact either way).
  struct GradShape {
    bool dw;  // the dW GEMM (B transposed) vs the dX GEMM
    int64_t m, n, k;
    int32_t max_a, max_b;
  };
  constexpr GradShape kShapes[] = {
      {false, 72, 256, 8, 255, 63},   {false, 144, 64, 16, 63, 63},
      {false, 288, 16, 32, 255, 63},  {false, 27, 37, 5, 63, 63},
      {true, 8, 72, 256, 63, 255},    {true, 16, 144, 64, 63, 255},
      {true, 32, 288, 1024, 63, 255}, {true, 5, 27, 300, 63, 255}};
  for (const GradShape& c : kShapes)
    for (int64_t kc : {int64_t{0}, int64_t{64}}) {
      KernelPlan plan = plan_for(PlanKey::s8(c.m, c.n, c.k, false,
                                             /*trans_b=*/c.dw, c.max_a,
                                             c.max_b));
      if (kc > 0) plan.kc = kc;  // force the multi-panel path
      std::vector<uint8_t> a(static_cast<size_t>(c.m * c.k));
      std::vector<uint8_t> b(static_cast<size_t>(c.k * c.n));
      fill_codes(a, 71 + c.m, 0, c.max_a);
      fill_codes(b, 72 + c.n, 0, c.max_b);
      GemmS8Args args;
      args.a = a.data();
      args.b = b.data();
      args.params = GemmS8Params{0.013, 0.021, 7, 31};
      args.params.max_a = c.max_a;
      args.params.max_b = c.max_b;
      std::vector<float> scalar(static_cast<size_t>(c.m * c.n));
      std::vector<float> simd(scalar.size());
      args.out = scalar.data();
      {
        SimdCapScope scalar_cap(SimdLevel::kScalar);
        gemm_s8_ex(plan, args);
      }
      args.out = simd.data();
      gemm_s8_ex(plan, args);
      ASSERT_EQ(0, std::memcmp(scalar.data(), simd.data(),
                               scalar.size() * sizeof(float)))
          << "dw=" << c.dw << " m=" << c.m << " n=" << c.n << " k=" << c.k
          << " kc=" << kc;
    }
}

TEST(EpilogueExact, NanBiasFlowsIdenticallyThroughBothStores) {
  // A NaN bias (a diverging step) must behave the same on the scalar
  // and AVX2 stores, including across a tile's vector-body/scalar-tail
  // column split: the ReLU clamp keeps NaN (std::min/std::max operand
  // semantics), the fp32 output is NaN, requantisation saturates it to
  // code 0 (q >= 0 fails), and the range observation drops it.
  std::vector<uint8_t> a(static_cast<size_t>(3 * 20));
  std::vector<uint8_t> b(static_cast<size_t>(20 * 37));  // 5-wide tail tile
  fill_codes(a, 61);
  fill_codes(b, 62);
  GemmS8Params qp{0.1, 0.1, 5, 9};
  EpiRef er;
  er.relu = true;
  er.cap = 6.0f;
  er.bias = {0.5f, std::numeric_limits<float>::quiet_NaN(), -0.5f};
  std::vector<float> f_scalar(3 * 37), f_auto(3 * 37);
  std::vector<uint8_t> u_scalar(3 * 37), u_auto(3 * 37);
  float lo_s, hi_s, lo_a, hi_a;
  GemmS8Epilogue epi = to_epilogue(er, &lo_s, &hi_s);
  {
    SimdCapScope scalar(SimdLevel::kScalar);
    run_s8(s8_plan(false, false, 3, 37, 20), a.data(), b.data(), nullptr, qp,
           &epi, f_scalar.data(), nullptr);
    run_s8(s8_plan(false, false, 3, 37, 20), a.data(), b.data(), nullptr, qp,
           &epi, nullptr, u_scalar.data());
  }
  epi.observe_lo = &lo_a;
  epi.observe_hi = &hi_a;
  run_s8(s8_plan(false, false, 3, 37, 20), a.data(), b.data(), nullptr, qp,
         &epi, f_auto.data(), nullptr);
  run_s8(s8_plan(false, false, 3, 37, 20), a.data(), b.data(), nullptr, qp,
         &epi, nullptr, u_auto.data());
  EXPECT_EQ(0, std::memcmp(f_scalar.data(), f_auto.data(),
                           f_scalar.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(u_scalar.data(), u_auto.data(), u_scalar.size()));
  EXPECT_EQ(lo_s, lo_a);
  EXPECT_EQ(hi_s, hi_a);
  for (int64_t j = 0; j < 37; ++j) {
    EXPECT_TRUE(std::isnan(f_auto[static_cast<size_t>(37 + j)])) << j;
    EXPECT_EQ(0, u_auto[static_cast<size_t>(37 + j)]) << j;
  }
  // The NaN row was dropped from the observation: both bounds finite.
  EXPECT_TRUE(std::isfinite(lo_a) && std::isfinite(hi_a));
}

TEST(EpilogueExact, ParallelAndSerialBitIdentical) {
  // Tall m forces several MC panels so the parallel driver really
  // partitions; the observed range must also come out identical.
  std::vector<uint8_t> a(static_cast<size_t>(300 * 64));
  std::vector<uint8_t> b(static_cast<size_t>(64 * 48));
  fill_codes(a, 51);
  fill_codes(b, 52);
  GemmS8Params qp{0.01, 0.03, 50, 60};
  EpiRef er;
  er.bias.assign(300, 0.25f);
  std::vector<uint8_t> u_par(300 * 48), u_ser(300 * 48);
  float lo_p, hi_p, lo_s, hi_s;
  GemmS8Epilogue epi = to_epilogue(er, &lo_p, &hi_p);
  run_s8(s8_plan(false, false, 300, 48, 64), a.data(), b.data(), nullptr, qp,
         &epi, nullptr, u_par.data());
  KernelPlan serial = s8_plan(false, false, 300, 48, 64);
  serial.parallel = false;
  epi.observe_lo = &lo_s;
  epi.observe_hi = &hi_s;
  run_s8(serial, a.data(), b.data(), nullptr, qp, &epi, nullptr,
         u_ser.data());
  EXPECT_EQ(0, std::memcmp(u_par.data(), u_ser.data(), u_par.size()));
  EXPECT_EQ(lo_p, lo_s);
  EXPECT_EQ(hi_p, hi_s);
}

// ------------------------------------------- conv forward image operand

// One group's input planes and conv geometry: the forward's B operand
// before staging.
struct ConvSrc {
  const uint8_t* planes = nullptr;  // icg contiguous [H][W] code planes
  int64_t icg = 0, H = 0, W = 0, kernel = 3, stride = 1, padding = 1;
  uint8_t pad_code = 0;
  int64_t oh() const { return (H + 2 * padding - kernel) / stride + 1; }
  int64_t ow() const { return (W + 2 * padding - kernel) / stride + 1; }
  int64_t taps() const { return icg * kernel * kernel; }
};

// `src` staged as the channel-quad image with `flip`. `space` holds it
// at exactly conv_image_bytes, the image last, so a tile that reads
// past the image reads past the allocation (an ASan error).
GemmS8ConvImage stage_image(const ConvSrc& src, uint8_t flip,
                            std::vector<uint8_t>& space) {
  space.assign(static_cast<size_t>(conv_image_bytes(
                   src.icg, src.H, src.W, src.kernel, src.stride,
                   src.padding)),
               0xA5);
  return stage_conv_image_u8(src.planes, src.icg, src.H, src.W, src.kernel,
                             src.stride, src.padding, src.pad_code, flip,
                             space.data(), /*pooled=*/false);
}

// Every byte of the staged image against the layout's definition:
// [ceil(icg/4)][phase_y][phase_x][php][pwp][4], byte (cq, a, b, r, c, t)
// the code of channel 4cq + t at source pixel (r*stride + a - padding,
// c*stride + b - padding), or pad_code outside the planes, XOR flip.
void expect_image_layout(const ConvSrc& src, const GemmS8ConvImage& ci,
                         const std::string& at) {
  const int64_t phases = conv_image_phases(src.kernel, src.stride);
  const uint8_t* img = ci.img;
  for (int64_t cq = 0; cq < (src.icg + 3) / 4; ++cq)
    for (int64_t a = 0; a < phases; ++a)
      for (int64_t b = 0; b < phases; ++b)
        for (int64_t r = 0; r < ci.php; ++r)
          for (int64_t c = 0; c < ci.pwp; ++c)
            for (int64_t t = 0; t < 4; ++t, ++img) {
              const int64_t ch = 4 * cq + t;
              const int64_t y = r * src.stride + a - src.padding;
              const int64_t x = c * src.stride + b - src.padding;
              const bool in = ch < src.icg && y >= 0 && y < src.H && x >= 0 &&
                              x < src.W;
              const uint8_t want =
                  in ? src.planes[(ch * src.H + y) * src.W + x] : src.pad_code;
              ASSERT_EQ(static_cast<uint8_t>(want ^ ci.flip), *img)
                  << at << " cq=" << cq << " a=" << a << " b=" << b
                  << " r=" << r << " c=" << c << " t=" << t;
            }
}

// [oc][icg*k*k] weight codes reordered to the image's k order.
std::vector<uint8_t> image_weights(const uint8_t* w, int64_t oc, int64_t icg,
                                   int64_t kernel) {
  Conv2dOptions o;
  o.in_channels = icg;
  o.out_channels = oc;
  o.kernel = kernel;
  std::vector<uint8_t> out(
      static_cast<size_t>(oc * (icg + 3) / 4 * 4 * kernel * kernel));
  ConvS8Forward::reorder_weights(o, w, out.data());
  return out;
}

TEST(GemmS8ConvImage, ClosedFormBorderSums) {
  // popart's test_convolution closed form, on integer codes: every input
  // code one above its zero-point and every weight code one above its,
  // a 3x3 kernel with pad 1, so each output's raw sum is (valid taps) x
  // icg — 4/6/9 x icg at corners/edges/interior for stride 1 (8/12/18
  // at icg = 2). icg 2, 3 and 5 pad the last channel quad; ow 4, 8, 16
  // and 32 read strips as 4, 2 and 1 runs; stride 2 reads phase planes.
  // Scales are 1, so the fp32 output is the raw sum itself. Every host
  // SIMD level, both ceiling routes (quad and recentred), and both image
  // flips (read in place, or packed from an image of the other flip).
  for (const int64_t icg : {2, 3, 5})
    for (const int64_t ow : {4, 8, 16, 32})
      for (const int64_t stride : {1, 2}) {
        const int64_t hw = ow * stride, oc = 7;
        const uint8_t za = 9, zb = 200;
        std::vector<uint8_t> codes(static_cast<size_t>(icg * hw * hw),
                                   static_cast<uint8_t>(zb + 1));
        std::vector<uint8_t> w(static_cast<size_t>(oc * icg * 9),
                               static_cast<uint8_t>(za + 1));
        const std::vector<uint8_t> wi = image_weights(w.data(), oc, icg, 3);
        ConvSrc src;
        src.planes = codes.data();
        src.icg = icg;
        src.H = src.W = hw;
        src.stride = stride;
        src.pad_code = zb;
        ASSERT_EQ(src.ow(), ow);
        // Valid taps of output row (or column) y: input rows
        // y*stride - 1 + kh inside [0, hw).
        auto valid = [&](int64_t y) {
          int64_t v = 0;
          for (int64_t kh = 0; kh < 3; ++kh) {
            const int64_t r = y * stride - 1 + kh;
            v += r >= 0 && r < hw;
          }
          return v;
        };
        for (const int32_t max_a : {63, 255})
          for (SimdLevel level : host_simd_levels()) {
            SimdCapScope cap(level);
            const GemmS8Params qp{1.0, 1.0, za, zb, max_a, 255};
            const KernelPlan plan =
                s8_plan(false, false, oc, ow * ow, src.taps());
            const uint8_t want_flip = gemm_s8_conv_image_flip(plan, qp);
            for (const uint8_t flip :
                 {want_flip, static_cast<uint8_t>(want_flip ^ 0x80)}) {
              std::vector<uint8_t> space;
              const GemmS8ConvImage ci = stage_image(src, flip, space);
              std::vector<float> out(static_cast<size_t>(oc * ow * ow));
              run_s8(plan, wi.data(), nullptr, nullptr, qp, nullptr,
                     out.data(), nullptr, &ci);
              for (int64_t o = 0; o < oc; ++o)
                for (int64_t y = 0; y < ow; ++y)
                  for (int64_t x = 0; x < ow; ++x)
                    ASSERT_EQ(out[static_cast<size_t>((o * ow + y) * ow + x)],
                              static_cast<float>(valid(y) * valid(x) * icg))
                        << "icg=" << icg << " ow=" << ow << " stride="
                        << stride << " max_a=" << max_a << " level="
                        << simd_level_name(level) << " flip=" << int{flip}
                        << " o=" << o << " y=" << y << " x=" << x;
            }
          }
      }
}

TEST(GemmS8ConvBOperand, MatchesExplicitIm2colBitForBit) {
  // The forward's channel-quad image operand must reproduce the explicit
  // im2col + fused-epilogue pipeline's int64/double reference exactly:
  // at every host SIMD level, in one k panel and several, read in place
  // (the image flip the level's tile wants) and packed from an image of
  // the other flip; staged serially or split across the pool, every
  // staged byte as the layout defines it. The cases
  // cover every run width and the per-column gather (odd ow), strip
  // tails (n % 16 != 0), stride 2 with an odd padded width and with
  // source rows of 16, 32 and 33 columns, partial
  // channel quads, a second group's planes, zero-points 0 and 255, and
  // ceilings for each VNNI signedness (a-small, b-small, and recentred
  // full range).
  struct ConvCase {
    int64_t groups, icg, H, W, ocg, kernel, stride, padding;
    int32_t za, zb, max_a, max_b;
  };
  const ConvCase cases[] = {
      {1, 8, 16, 16, 10, 3, 1, 1, 31, 37, 63, 255},  // ow 16, one run
      {1, 4, 9, 7, 6, 3, 1, 1, 31, 37, 63, 255},     // odd ow: gathered
      {1, 4, 8, 8, 6, 3, 2, 1, 31, 37, 63, 255},     // stride 2, ow 4
      {1, 3, 10, 10, 5, 5, 1, 2, 31, 37, 63, 255},   // big kernel
      {1, 6, 12, 12, 8, 3, 1, 0, 31, 37, 63, 255},   // padding 0
      {1, 8, 6, 6, 4, 1, 1, 0, 31, 37, 63, 255},     // 1x1
      {1, 8, 8, 8, 4, 1, 2, 0, 31, 37, 63, 255},     // 1x1 stride 2
      {2, 5, 8, 8, 7, 3, 1, 1, 0, 255, 255, 255},    // groups, recentred
      {1, 4, 7, 5, 9, 3, 1, 1, 255, 0, 255, 40},     // b-small, n = 35
      {1, 3, 9, 9, 6, 3, 2, 1, 12, 200, 255, 255},   // pw 11, ow 5
      {1, 2, 16, 16, 4, 3, 2, 1, 7, 9, 63, 255},     // stride 2, ow 8
      {1, 8, 32, 32, 3, 3, 1, 1, 128, 128, 255, 255},  // ow 32
      {1, 5, 16, 16, 6, 3, 2, 1, 31, 37, 63, 255},     // stride 2, W 16
      {1, 4, 12, 32, 6, 3, 2, 1, 31, 37, 63, 255},     // stride 2, W 32
      {1, 3, 9, 33, 6, 3, 2, 1, 31, 37, 63, 255},      // stride 2, W 33
      {1, 4, 7, 33, 5, 3, 2, 0, 31, 37, 63, 255},      // ... padding 0
  };
  for (const auto& cc : cases) {
    const int64_t C = cc.groups * cc.icg, oc = cc.groups * cc.ocg;
    std::vector<uint8_t> codes(static_cast<size_t>(C * cc.H * cc.W));
    fill_codes(codes, 61, 0, cc.max_b);
    ConvSrc src;
    src.icg = cc.icg;
    src.H = cc.H;
    src.W = cc.W;
    src.kernel = cc.kernel;
    src.stride = cc.stride;
    src.padding = cc.padding;
    src.pad_code = static_cast<uint8_t>(cc.zb);
    const int64_t oh = src.oh(), ow = src.ow(), krows = src.taps();
    std::vector<uint8_t> w(static_cast<size_t>(oc * krows));
    fill_codes(w, 62, 0, cc.max_a);
    const GemmS8Params qp{0.01, 0.02, cc.za, cc.zb, cc.max_a, cc.max_b};
    EpiRef er;
    er.bias.assign(static_cast<size_t>(cc.ocg), -0.125f);
    er.relu = true;
    er.cap = 3.0f;
    for (int64_t g = 0; g < cc.groups; ++g) {
      const std::string at =
          "icg=" + std::to_string(cc.icg) + " H=" + std::to_string(cc.H) +
          " W=" + std::to_string(cc.W) + " k=" + std::to_string(cc.kernel) +
          " s=" + std::to_string(cc.stride) +
          " p=" + std::to_string(cc.padding) + " g=" + std::to_string(g);
      std::vector<uint8_t> cols(static_cast<size_t>(krows * oh * ow));
      im2col_u8(codes.data(), C, cc.H, cc.W, 0, g * cc.icg, cc.icg,
                cc.kernel, cc.stride, cc.padding, oh, ow, src.pad_code,
                cols.data());
      const uint8_t* wg = w.data() + g * cc.ocg * krows;
      std::vector<float> want(static_cast<size_t>(cc.ocg * oh * ow));
      std::vector<uint8_t> want_u(want.size());
      float want_lo, want_hi;
      epilogue_reference(false, false, cc.ocg, oh * ow, krows, wg,
                         cols.data(), qp, er, want.data(), want_u.data(),
                         &want_lo, &want_hi);
      src.planes = codes.data() + g * cc.icg * cc.H * cc.W;
      const std::vector<uint8_t> wi =
          image_weights(wg, cc.ocg, cc.icg, cc.kernel);
      for (SimdLevel level : host_simd_levels())
        for (const int64_t kc : {int64_t{0}, int64_t{12}}) {
          SimdCapScope cap(level);
          KernelPlan plan = s8_plan(false, false, cc.ocg, oh * ow, krows);
          plan.kc = kc;
          const uint8_t want_flip = gemm_s8_conv_image_flip(plan, qp);
          for (const uint8_t flip :
               {want_flip, static_cast<uint8_t>(want_flip ^ 0x80)}) {
            const std::string run = at + " level=" + simd_level_name(level) +
                                    " kc=" + std::to_string(kc) +
                                    " flip=" + std::to_string(flip);
            std::vector<uint8_t> space;
            const GemmS8ConvImage ci = stage_image(src, flip, space);
            // The pool-split staging writes the same bytes.
            std::vector<uint8_t> pooled(space.size(), 0xA5);
            stage_conv_image_u8(src.planes, src.icg, src.H, src.W,
                                src.kernel, src.stride, src.padding,
                                src.pad_code, flip, pooled.data(),
                                /*pooled=*/true);
            ASSERT_EQ(0, std::memcmp(space.data(), pooled.data(),
                                     space.size()))
                << run;
            expect_image_layout(src, ci, run);
            if (HasFatalFailure()) return;
            std::vector<float> got(want.size(), -1e30f);
            std::vector<uint8_t> got_u(want.size(), 7);
            float lo, hi;
            GemmS8Epilogue epi = to_epilogue(er, &lo, &hi);
            run_s8(plan, wi.data(), nullptr, nullptr, qp, &epi, got.data(),
                   nullptr, &ci);
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                     want.size() * sizeof(float)))
                << run;
            EXPECT_EQ(want_lo, lo) << run;
            EXPECT_EQ(want_hi, hi) << run;
            run_s8(plan, wi.data(), nullptr, nullptr, qp, &epi, nullptr,
                   got_u.data(), &ci);
            EXPECT_EQ(0, std::memcmp(want_u.data(), got_u.data(),
                                     want_u.size()))
                << run;
          }
        }
    }
  }
}

TEST(GemmS8ConvBOperand, PairStrategyAlsoMatches) {
  // Full-range weight codes keep the quad tiles away, so the AVX2 level
  // packs int16 pairs from the image (and VNNI reads it recentred).
  const int64_t C = 8, H = 16, W = 16, OC = 10, kernel = 3;
  const int64_t oh = H, ow = W, krows = C * kernel * kernel;
  std::vector<uint8_t> codes(static_cast<size_t>(C * H * W));
  std::vector<uint8_t> w(static_cast<size_t>(OC * krows));
  fill_codes(codes, 71);
  fill_codes(w, 72);  // 0..255: pair strategy
  const uint8_t pad_code = 9;
  GemmS8Params qp{0.01, 0.02, 100, pad_code};
  std::vector<uint8_t> cols(static_cast<size_t>(krows * oh * ow));
  im2col_u8(codes.data(), C, H, W, 0, 0, C, kernel, 1, 1, oh, ow, pad_code,
            cols.data());
  std::vector<float> want(static_cast<size_t>(OC * oh * ow));
  gemm_s8_reference(false, false, OC, oh * ow, krows, w.data(), cols.data(),
                    qp, want.data());
  ConvSrc src;
  src.planes = codes.data();
  src.icg = C;
  src.H = H;
  src.W = W;
  src.pad_code = pad_code;
  const std::vector<uint8_t> wi = image_weights(w.data(), OC, C, kernel);
  for (SimdLevel level : host_simd_levels()) {
    SimdCapScope cap(level);
    const KernelPlan plan = s8_plan(false, false, OC, oh * ow, krows);
    std::vector<uint8_t> space;
    const GemmS8ConvImage ci =
        stage_image(src, gemm_s8_conv_image_flip(plan, qp), space);
    std::vector<float> got(want.size());
    GemmS8Epilogue epi;  // plain dequantising epilogue (no bias/relu)
    run_s8(plan, wi.data(), nullptr, nullptr, qp, &epi, got.data(), nullptr,
           &ci);
    for (size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(want[i], got[i]) << simd_level_name(level) << " " << i;
  }
}

// ------------------------------------ kernel differential (VNNI tile)
//
// The integer kernels are exact, so the AVX-512 level (the vpdpbusd
// tile, including the 0x80-recentred full-range form) must write the
// bytes of the scalar and AVX2 levels (SimdCapScope) for every operand
// form, strategy and output mode. Each run is compared against the
// scalar level's bytes.

// One problem's operands and the plan fields every level runs it with.
struct S8DiffRun {
  bool ta = false, tb = false;
  int64_t m = 0, n = 0, k = 0;
  const uint8_t* a = nullptr;
  const uint8_t* b = nullptr;
  const GemmS8ConvB* conv_b = nullptr;
  // The conv forward's input, staged per run as the image each level
  // reads in place and as one of the other flip (a packed from it).
  const ConvSrc* conv_src = nullptr;
  GemmS8Params qp;
  int64_t kc = 0;
  bool split_n = false;
};

// Runs `r` at every SIMD level, both strategy families and three output
// modes — the raw dequantised product, the fused fp32 epilogue and the
// requantising one, the latter two with the observe probe — and expects
// every result to equal the scalar kernel's bytes.
void expect_kernels_agree(const S8DiffRun& r, const std::string& what) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const size_t len = static_cast<size_t>(r.m * r.n);
  EpiRef er;
  er.relu = true;
  er.cap = 4.0f;
  er.channel_is_row = !r.tb;
  Rng rng(static_cast<uint64_t>(r.m * 131 + r.n * 7 + r.k));
  const int64_t ch = er.channel_is_row ? r.m : r.n;
  er.scale.resize(static_cast<size_t>(ch));
  er.bias.resize(static_cast<size_t>(ch));
  for (auto& s : er.scale) s = rng.uniform(0.0002, 0.004);
  for (auto& v : er.bias) v = static_cast<float>(rng.uniform(-1, 1));

  struct Out {
    std::vector<float> raw, fused;
    std::vector<uint8_t> codes;
    // NaN until the probe writes them: a missed write fails the compare.
    float lo[2] = {kNaN, kNaN}, hi[2] = {kNaN, kNaN};
  };
  std::vector<Out> outs;
  for (SimdLevel level : host_simd_levels())
    for (PlanStrategy strategy :
         {PlanStrategy::kS8Quad, PlanStrategy::kS8Pairs})
      for (const bool other_flip : {false, true}) {
        if (other_flip && r.conv_src == nullptr) continue;
        SimdCapScope cap(level);
        KernelPlan plan = s8_plan(r.ta, r.tb, r.m, r.n, r.k, strategy);
        plan.kc = r.kc;
        plan.split_n = r.split_n;
        std::vector<uint8_t> space;
        GemmS8ConvImage ci;
        const GemmS8ConvImage* image = nullptr;
        if (r.conv_src != nullptr) {
          const uint8_t flip = gemm_s8_conv_image_flip(plan, r.qp);
          ci = stage_image(*r.conv_src,
                           other_flip ? static_cast<uint8_t>(flip ^ 0x80)
                                      : flip,
                           space);
          image = &ci;
        }
        Out o;
        o.raw.assign(len, -1.0f);
        o.fused.assign(len, -2.0f);
        o.codes.assign(len, 7);
        run_s8(plan, r.a, r.b, r.conv_b, r.qp, nullptr, o.raw.data(), nullptr,
               image);
        GemmS8Epilogue epi = to_epilogue(er, &o.lo[0], &o.hi[0]);
        run_s8(plan, r.a, r.b, r.conv_b, r.qp, &epi, o.fused.data(), nullptr,
               image);
        epi.observe_lo = &o.lo[1];
        epi.observe_hi = &o.hi[1];
        run_s8(plan, r.a, r.b, r.conv_b, r.qp, &epi, nullptr, o.codes.data(),
               image);
        outs.push_back(std::move(o));
      }
  const Out& want = outs[0];
  for (size_t i = 1; i < outs.size(); ++i) {
    const Out& got = outs[i];
    const std::string at = what + " run=" + std::to_string(i);
    EXPECT_EQ(0, std::memcmp(want.raw.data(), got.raw.data(),
                             len * sizeof(float)))
        << at;
    EXPECT_EQ(0, std::memcmp(want.fused.data(), got.fused.data(),
                             len * sizeof(float)))
        << at;
    EXPECT_EQ(0, std::memcmp(want.codes.data(), got.codes.data(), len))
        << at;
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(want.lo[t], got.lo[t]) << at;
      EXPECT_EQ(want.hi[t], got.hi[t]) << at;
    }
  }
}

TEST(GemmS8KernelDiff, ExplicitOperandsBitIdenticalAcrossKernels) {
  if (!cpu_has_avx512())
    GTEST_SKIP() << "no AVX-512 F/VL/VNNI on this CPU (or APT_SIMD caps it)";
  struct Case {
    bool ta, tb;
    int64_t m, n, k;
    int32_t za, zb, max_a, max_b;
    int64_t kc;  // k panel override (0 = the layout's default)
    bool split_n;
  };
  constexpr Case kCases[] = {
      // Full-range codes (the recentred quads), zero points 0/128/255.
      {false, false, 13, 37, 29, 0, 0, 255, 255, 0, false},
      {false, true, 13, 37, 29, 128, 128, 255, 255, 0, false},
      {true, false, 13, 37, 29, 255, 255, 255, 255, 0, false},
      {true, true, 7, 16, 31, 0, 255, 255, 255, 0, false},     // n = 16
      {false, false, 25, 48, 67, 255, 0, 255, 255, 0, false},  // 3 strips
      {false, false, 1, 1, 1, 128, 255, 255, 255, 0, false},
      // Quad ceilings on either operand, and on both.
      {false, false, 19, 53, 45, 128, 3, 63, 255, 0, false},
      {false, true, 19, 53, 45, 7, 128, 255, 63, 0, false},
      {true, false, 19, 53, 45, 255, 255, 64, 64, 0, false},
      // k beyond the quad panel, and forced shallow panels: the int32
      // raw plane carries the earlier panels.
      {false, false, 9, 40, 900, 128, 128, 255, 255, 0, false},
      {true, false, 9, 40, 301, 3, 250, 255, 255, 64, false},
      {false, true, 9, 40, 301, 3, 250, 63, 255, 36, false},
      // Split-N: one MC panel over many column strips.
      {false, false, 5, 300, 96, 128, 17, 255, 255, 0, true},
      {false, true, 6, 260, 200, 0, 255, 255, 63, 0, true},
  };
  for (const Case& c : kCases) {
    std::vector<uint8_t> a(static_cast<size_t>(c.m * c.k));
    std::vector<uint8_t> b(static_cast<size_t>(c.k * c.n));
    fill_codes(a, 91 + c.k, 0, c.max_a);
    fill_codes(b, 92 + c.n, 0, c.max_b);
    // Pin the extreme codes so the recentring sees 0 and 255 (or the
    // ceiling) in both operands.
    a[0] = 0;
    a[a.size() - 1] = static_cast<uint8_t>(c.max_a);
    b[0] = static_cast<uint8_t>(c.max_b);
    b[b.size() - 1] = 0;
    S8DiffRun r;
    r.ta = c.ta;
    r.tb = c.tb;
    r.m = c.m;
    r.n = c.n;
    r.k = c.k;
    r.a = a.data();
    r.b = b.data();
    r.qp = GemmS8Params{0.013, 0.021, c.za, c.zb, c.max_a, c.max_b};
    r.kc = c.kc;
    r.split_n = c.split_n;
    expect_kernels_agree(r, "m=" + std::to_string(c.m) + " n=" +
                                std::to_string(c.n) + " k=" +
                                std::to_string(c.k) + " ta=" +
                                std::to_string(c.ta) + " tb=" +
                                std::to_string(c.tb));
  }
}

TEST(GemmS8KernelDiff, ImplicitConvOperandBitIdenticalAcrossKernels) {
  // Both conv operands: the forward's channel-quad image (each level's
  // in-place or packing route, and the packing route from an image of
  // the other flip) and the weight gradient's transposed B over the
  // padded NCHW image.
  if (!cpu_has_avx512())
    GTEST_SKIP() << "no AVX-512 F/VL/VNNI on this CPU (or APT_SIMD caps it)";
  struct ConvCase {
    int64_t groups, C, H, W, OC, kernel, stride, padding;
    int32_t max_w;  // weight (A) code ceiling
    int32_t max_x;  // input (B) code ceiling
    int32_t za, zb;
  };
  constexpr ConvCase kCases[] = {
      {1, 8, 16, 16, 10, 3, 1, 1, 255, 255, 128, 0},   // full range, ow 16
      {1, 4, 9, 7, 6, 3, 1, 1, 63, 255, 0, 255},       // odd ow, a-small
      {1, 4, 8, 8, 6, 3, 2, 1, 255, 255, 255, 128},    // strided
      {1, 3, 10, 10, 5, 5, 1, 2, 255, 255, 17, 200},   // big kernel
      {1, 64, 8, 8, 16, 3, 1, 1, 255, 255, 128, 128},  // k = 576 taps
      {2, 5, 8, 8, 6, 3, 1, 1, 63, 255, 0, 255},       // groups, icg 5
      {1, 4, 7, 5, 9, 3, 1, 1, 255, 40, 255, 0},       // b-small, n = 35
      {1, 3, 9, 9, 6, 3, 2, 1, 255, 255, 0, 255},      // stride 2, pw 11
  };
  for (const ConvCase& cc : kCases) {
    const int64_t icg = cc.C / cc.groups, ocg = cc.OC / cc.groups;
    const int64_t oh = (cc.H + 2 * cc.padding - cc.kernel) / cc.stride + 1;
    const int64_t ow = (cc.W + 2 * cc.padding - cc.kernel) / cc.stride + 1;
    const int64_t taps = icg * cc.kernel * cc.kernel, npos = oh * ow;
    std::vector<uint8_t> codes(static_cast<size_t>(cc.C * cc.H * cc.W));
    fill_codes(codes, 81 + cc.C, 0, cc.max_x);
    for (int64_t g = 0; g < cc.groups; ++g) {
      const uint8_t* plane = codes.data() + g * icg * cc.H * cc.W;
      const std::string geo =
          "C=" + std::to_string(cc.C) + " kernel=" + std::to_string(cc.kernel) +
          " stride=" + std::to_string(cc.stride) + " g=" + std::to_string(g);
      ConvSrc src;
      src.planes = plane;
      src.icg = icg;
      src.H = cc.H;
      src.W = cc.W;
      src.kernel = cc.kernel;
      src.stride = cc.stride;
      src.padding = cc.padding;
      src.pad_code = static_cast<uint8_t>(cc.zb);
      GemmS8ConvB cb;
      cb.kernel = cc.kernel;
      cb.stride = cc.stride;
      cb.oh = oh;
      cb.ow = ow;
      cb.ph = cc.H + 2 * cc.padding;
      cb.pw = cc.W + 2 * cc.padding;
      std::vector<uint8_t> stage(static_cast<size_t>(icg * cb.ph * cb.pw));
      stage_padded_u8(plane, icg, cc.H, cc.W, cc.padding,
                      static_cast<uint8_t>(cc.zb), stage.data(),
                      /*pooled=*/false);
      cb.padded = stage.data();
      for (bool tb : {false, true}) {
        // Forward: W [ocg x taps] x cols, the weights in the image's k
        // order. Weight gradient: dY [ocg x npos] x colsᵀ.
        const int64_t k = tb ? npos : taps, n = tb ? taps : npos;
        const int32_t max_a = tb ? 255 : cc.max_w;
        std::vector<uint8_t> a(static_cast<size_t>(ocg * k));
        fill_codes(a, 82 + k, 0, max_a);
        if (!tb) a = image_weights(a.data(), ocg, icg, cc.kernel);
        for (int64_t kc : {int64_t{0}, int64_t{40}}) {
          S8DiffRun r;
          r.tb = tb;
          r.m = ocg;
          r.n = n;
          r.k = k;
          r.a = a.data();
          if (tb) {
            r.conv_b = &cb;
          } else {
            r.conv_src = &src;
          }
          r.qp = GemmS8Params{0.01, 0.02, cc.za, cc.zb, max_a,
                              tb ? 255 : cc.max_x};
          r.kc = kc;
          expect_kernels_agree(r, geo + " tb=" + std::to_string(tb) +
                                      " kc=" + std::to_string(kc));
        }
      }
    }
  }
}

TEST(GemmS8Packing, QuadBPackerFlipsBytesButSumsOriginalCodes) {
  // The VNNI full-range form packs B with every byte XORed with 0x80;
  // the column sums feeding the zero-point correction stay those of the
  // original codes. Explicit (both orientations) and the transposed
  // implicit operand.
  const int64_t k = 37, n = 29;
  std::vector<uint8_t> b(static_cast<size_t>(k * n));
  fill_codes(b, 95);
  for (bool tb : {false, true}) {
    const size_t len = static_cast<size_t>((n + kGemmNR - 1) / kGemmNR *
                                           kGemmNR * 4 * ((k + 3) / 4));
    std::vector<uint8_t> plain(len), flipped(len);
    std::vector<int32_t> sum_plain(static_cast<size_t>(n), 0);
    std::vector<int32_t> sum_flipped(static_cast<size_t>(n), 0);
    gemm_s8_pack_b_quads(tb, b.data(), k, n, 0, k, 0, n, plain.data(),
                         sum_plain.data());
    gemm_s8_pack_b_quads(tb, b.data(), k, n, 0, k, 0, n, flipped.data(),
                         sum_flipped.data(), 0x80);
    for (size_t i = 0; i < len; ++i)
      ASSERT_EQ(plain[i] ^ 0x80, flipped[i]) << "tb=" << tb << " i=" << i;
    EXPECT_EQ(sum_plain, sum_flipped);
  }
  const int64_t C = 3, H = 9, W = 7;
  std::vector<uint8_t> img(static_cast<size_t>(C * H * W));
  fill_codes(img, 96);
  GemmS8ConvB cb;
  cb.padded = img.data();
  cb.ph = H;
  cb.pw = W;
  cb.kernel = 3;
  cb.oh = H - 2;
  cb.ow = W - 2;
  const int64_t taps = C * 9, npos = cb.oh * cb.ow;
  {
    const int64_t kk = npos, nn = taps;
    const size_t len = static_cast<size_t>((nn + kGemmNR - 1) / kGemmNR *
                                           kGemmNR * 4 * ((kk + 3) / 4));
    std::vector<uint8_t> plain(len), flipped(len);
    std::vector<int32_t> sum_plain(static_cast<size_t>(nn), 0);
    std::vector<int32_t> sum_flipped(static_cast<size_t>(nn), 0);
    gemm_s8_pack_b_quads_conv(cb, 0, kk, 0, nn, plain.data(),
                              sum_plain.data());
    gemm_s8_pack_b_quads_conv(cb, 0, kk, 0, nn, flipped.data(),
                              sum_flipped.data(), 0x80);
    for (size_t i = 0; i < len; ++i)
      ASSERT_EQ(plain[i] ^ 0x80, flipped[i]) << "conv i=" << i;
    EXPECT_EQ(sum_plain, sum_flipped);
  }
}

// -------------------------------------- bulk quantiser / dequantiser

TEST(QuantizeCodesU8, DispatchBitIdenticalToScalar) {
  const quant::QuantParams p = quant::choose_params(-1.7f, 2.3f, 8);
  Rng rng(81);
  std::vector<float> v(4099);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-3.0, 4.0));
  // Knife edges and specials in the tail (also exercises the remainder
  // loop of the vector kernel).
  v.push_back(0.0f);
  v.push_back(std::numeric_limits<float>::quiet_NaN());
  v.push_back(std::numeric_limits<float>::infinity());
  v.push_back(-std::numeric_limits<float>::infinity());
  for (int q = 0; q < 16; ++q)
    v.push_back(static_cast<float>((q - 4.5) * p.scale));
  std::vector<uint8_t> got(v.size()), want(v.size());
  quant::quantize_codes_u8(v.data(), static_cast<int64_t>(v.size()), p,
                           got.data());
  quant::quantize_codes_u8_scalar(v.data(), static_cast<int64_t>(v.size()),
                                  p, want.data());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size()));
}

TEST(DequantizeCodesU8, MatchesDoubleReference) {
  const quant::QuantParams p = quant::choose_params(-0.9f, 1.4f, 8);
  std::vector<uint8_t> codes(1031);
  fill_codes(codes, 91);
  std::vector<float> out(codes.size());
  quant::dequantize_codes_u8(codes.data(), static_cast<int64_t>(codes.size()),
                             p, out.data());
  for (size_t i = 0; i < codes.size(); ++i)
    ASSERT_EQ(out[i],
              static_cast<float>(
                  p.scale * static_cast<double>(codes[i] - p.zero_point)))
        << i;
}

TEST(MinmaxU8, MatchesScalarSweep) {
  Rng rng(101);
  for (const int64_t n : {1, 7, 31, 32, 33, 1000}) {
    std::vector<uint8_t> v(static_cast<size_t>(n));
    fill_codes(v, static_cast<uint64_t>(200 + n), 3, 200);
    uint8_t lo = 255, hi = 0;
    for (uint8_t q : v) {
      lo = std::min(lo, q);
      hi = std::max(hi, q);
    }
    const auto [glo, ghi] = quant::minmax_u8(v.data(), n);
    EXPECT_EQ(lo, glo) << n;
    EXPECT_EQ(hi, ghi) << n;
  }
}

}  // namespace
}  // namespace apt::nn
