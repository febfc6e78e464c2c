// Unit tests for the base substrate: Shape, Tensor, Rng, ThreadPool,
// ScratchArena and the SIMD level.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <random>
#include <set>

#include "base/arena.hpp"
#include "base/cpu.hpp"
#include "base/rng.hpp"
#include "base/tensor.hpp"
#include "base/thread_pool.hpp"

namespace apt {
namespace {

// ---------------------------------------------------------------- Shape

TEST(Shape, NumelAndRank) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
}

TEST(Shape, ScalarShapeHasOneElement) {
  Shape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, ZeroDimGivesZeroNumel) {
  Shape s{0, 5};
  EXPECT_EQ(s.numel(), 0);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

TEST(Shape, NegativeDimRejected) {
  EXPECT_THROW(Shape({2, -1}), CheckError);
}

TEST(Shape, OutOfRangeAxisRejected) {
  Shape s{2, 3};
  EXPECT_THROW(s[2], CheckError);
  EXPECT_THROW(s[-1], CheckError);
}

TEST(Shape, Str) { EXPECT_EQ(Shape({2, 3}).str(), "[2, 3]"); }

// ---------------------------------------------------------------- Tensor

TEST(Tensor, ZeroInitialised) {
  Tensor t(Shape{4, 4});
  for (float v : t.span()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillAndSum) {
  Tensor t(Shape{10});
  t.fill(0.5f);
  EXPECT_FLOAT_EQ(t.sum(), 5.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.5f);
}

TEST(Tensor, FromValuesChecksCount) {
  EXPECT_NO_THROW(Tensor(Shape{3}, {1.f, 2.f, 3.f}));
  EXPECT_THROW(Tensor(Shape{3}, {1.f, 2.f}), CheckError);
}

TEST(Tensor, CopyIsShallowCloneIsDeep) {
  Tensor a(Shape{3});
  Tensor b = a;          // shares storage
  Tensor c = a.clone();  // own storage
  a[0] = 7.0f;
  EXPECT_EQ(b[0], 7.0f);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FALSE(a.shares_storage_with(c));
}

TEST(Tensor, ReshapeSharesStorageAndChecksNumel) {
  Tensor a(Shape{2, 6});
  Tensor b = a.reshape(Shape{3, 4});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.shape(), Shape({3, 4}));
  EXPECT_THROW(a.reshape(Shape{5}), CheckError);
}

TEST(Tensor, Rank2Accessor) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 9.0f;
  EXPECT_EQ(t[5], 9.0f);
}

TEST(Tensor, Rank4Accessor) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 3.5f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 3.5f);
}

TEST(Tensor, ArithmeticElementwise) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {4, 5, 6});
  Tensor sum = a + b;
  Tensor diff = b - a;
  Tensor prod = a * b;
  EXPECT_EQ(sum[2], 9.0f);
  EXPECT_EQ(diff[0], 3.0f);
  EXPECT_EQ(prod[1], 10.0f);
}

TEST(Tensor, ArithmeticShapeMismatchRejected) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(a + b, CheckError);
  EXPECT_THROW(a -= b, CheckError);
}

TEST(Tensor, InplaceOps) {
  Tensor a(Shape{2}, {1, 2});
  Tensor b(Shape{2}, {3, 4});
  a += b;
  EXPECT_EQ(a[0], 4.0f);
  a -= b;
  EXPECT_EQ(a[1], 2.0f);
  a.scale(2.0f);
  EXPECT_EQ(a[0], 2.0f);
}

TEST(Tensor, MinMaxAbsMaxNorm) {
  Tensor t(Shape{4}, {-3, 1, 2, -0.5f});
  EXPECT_EQ(t.min(), -3.0f);
  EXPECT_EQ(t.max(), 2.0f);
  EXPECT_EQ(t.abs_max(), 3.0f);
  EXPECT_NEAR(t.norm(), std::sqrt(9 + 1 + 4 + 0.25), 1e-6);
}

TEST(Tensor, AllFinite) {
  Tensor t(Shape{2}, {1.0f, 2.0f});
  EXPECT_TRUE(t.all_finite());
  t[1] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.all_finite());
  t[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, MinOnEmptyRejected) {
  Tensor t(Shape{0});
  EXPECT_THROW(t.min(), CheckError);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng child = a.fork();
  // The child stream differs from the parent's continuation.
  EXPECT_NE(child.next_u64(), Rng(42).next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, RandintInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.randint(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0f, 2.0f);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  auto p = rng.permutation(100);
  std::set<int64_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(Rng, FillNormalFillsEveryElement) {
  Rng rng(3);
  Tensor t(Shape{128});
  rng.fill_normal(t, 5.0f, 0.01f);
  for (float v : t.span()) EXPECT_NEAR(v, 5.0f, 0.2f);
}

TEST(Rng, ZeroStddevIsThePointMassAndKeepsTheStream) {
  // std::normal_distribution requires stddev > 0; stddev == 0 must give
  // `mean` exactly and leave the engine where a unit-spread draw would.
  Rng zero(11), unit(11);
  EXPECT_EQ(zero.normal(2.5f, 0.0f), 2.5f);
  unit.normal(2.5f, 1.0f);
  EXPECT_EQ(zero.next_u64(), unit.next_u64());

  Tensor t(Shape{7});
  Tensor u(Shape{7});
  zero.fill_normal(t, -1.5f, 0.0f);
  unit.fill_normal(u, -1.5f, 1.0f);
  for (float v : t.span()) EXPECT_EQ(v, -1.5f);
  EXPECT_EQ(zero.next_u64(), unit.next_u64());
}

TEST(Rng, PositiveStddevStreamMatchesTheStandardDistribution) {
  Rng rng(13);
  std::mt19937_64 engine(13);
  for (int i = 0; i < 16; ++i) {
    std::normal_distribution<float> d(0.5f, 3.0f);  // one per call, as Rng
    EXPECT_EQ(rng.normal(0.5f, 3.0f), d(engine));
  }
  Tensor t(Shape{9});
  rng.fill_normal(t, -2.0f, 0.25f);
  std::normal_distribution<float> f(-2.0f, 0.25f);
  for (float v : t.span()) EXPECT_EQ(v, f(engine));
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 3, [&](int64_t b, int64_t e) {
    count += static_cast<int>(e - b);
  },
                    /*grain=*/100);
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.parallel_for(0, 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ThreadPool::global().parallel_for(0, 100, [&](int64_t b2, int64_t e2) {
        total += (e2 - b2);
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<double> xs(100000);
  std::iota(xs.begin(), xs.end(), 0.0);
  std::atomic<long long> sum{0};
  ThreadPool::global().parallel_for(0, static_cast<int64_t>(xs.size()),
                                    [&](int64_t b, int64_t e) {
                                      long long local = 0;
                                      for (int64_t i = b; i < e; ++i)
                                        local += static_cast<long long>(xs[i]);
                                      sum += local;
                                    });
  EXPECT_EQ(sum.load(), 100000LL * 99999 / 2);
}

// ---------------------------------------------------------------- Check

TEST(Check, ThrowsWithMessage) {
  try {
    APT_CHECK(1 == 2) << "custom " << 42;
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  auto passes = [] { APT_CHECK(true) << "never evaluated"; };
  EXPECT_NO_THROW(passes());
}

// -------------------------------------------------------- ScratchArena

TEST(ScratchArena, AllocationsAreAlignedAndDisjoint) {
  ScratchArena arena;
  ScratchArena::Scope scope(arena);
  float* a = scope.alloc_floats(100);
  float* b = scope.alloc_floats(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % ScratchArena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % ScratchArena::kAlignment, 0u);
  // Writing one buffer end-to-end must not touch the other.
  for (int i = 0; i < 100; ++i) a[i] = 1.0f;
  for (int i = 0; i < 100; ++i) b[i] = 2.0f;
  for (int i = 0; i < 100; ++i) ASSERT_FLOAT_EQ(a[i], 1.0f);
}

TEST(ScratchArena, ScopeReleasesAndCapacityIsReused) {
  ScratchArena arena;
  {
    ScratchArena::Scope scope(arena);
    scope.alloc_floats(1 << 16);
    EXPECT_GT(arena.in_use(), 0u);
  }
  EXPECT_EQ(arena.in_use(), 0u);
  const size_t cap = arena.capacity();
  EXPECT_GE(cap, (1u << 16) * sizeof(float));
  {
    ScratchArena::Scope scope(arena);
    scope.alloc_floats(1 << 16);
  }
  EXPECT_EQ(arena.capacity(), cap);  // no regrowth on the second pass
}

TEST(ScratchArena, NestedScopesKeepOuterPointersValid) {
  ScratchArena arena;
  ScratchArena::Scope outer(arena);
  float* a = outer.alloc_floats(64);
  a[0] = 42.0f;
  {
    // Force growth from the inner scope: existing blocks must not move.
    ScratchArena::Scope inner(arena);
    float* big = inner.alloc_floats(1 << 20);
    big[0] = 1.0f;
    EXPECT_FLOAT_EQ(a[0], 42.0f);
  }
  EXPECT_FLOAT_EQ(a[0], 42.0f);
  // The inner scope's block is released but still reserved.
  EXPECT_GE(arena.capacity(), (1u << 20) * sizeof(float));
}

TEST(ScratchArena, ThreadLocalArenasAreIndependent) {
  float* main_ptr = nullptr;
  float* worker_ptr = nullptr;
  {
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    main_ptr = scope.alloc_floats(16);
    std::thread t([&] {
      ScratchArena::Scope ws(ScratchArena::thread_local_arena());
      worker_ptr = ws.alloc_floats(16);
    });
    t.join();
  }
  EXPECT_NE(main_ptr, worker_ptr);
}

// ------------------------------------------------------------ SIMD level

TEST(SimdLevel, ParsesTheThreeLevelsAndNothingElse) {
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("avx512"), SimdLevel::kAvx512);
  for (const char* bad : {"", "AVX2", "avx", "avx512f", "sse2", "avx2 "})
    EXPECT_FALSE(parse_simd_level(bad).has_value()) << '"' << bad << '"';
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    EXPECT_EQ(parse_simd_level(simd_level_name(l)), l);
}

TEST(SimdLevel, CapNeverExceedsTheCpuAndPredicatesFollowIt) {
  EXPECT_LE(simd_level(), cpu_simd_level());
  EXPECT_EQ(cpu_has_avx2_fma(), simd_level() >= SimdLevel::kAvx2);
  EXPECT_EQ(cpu_has_avx512(), simd_level() >= SimdLevel::kAvx512);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("APT_SIMD")) {
    const SimdLevel cap = *parse_simd_level(env);
    EXPECT_EQ(simd_level(), cap < cpu_simd_level() ? cap : cpu_simd_level());
  } else {
    EXPECT_EQ(simd_level(), cpu_simd_level());
  }
}

TEST(SimdLevel, ScopeNarrowsThePredicates) {
  const SimdLevel outside = simd_level();
  {
    SimdCapScope scalar(SimdLevel::kScalar);
    EXPECT_EQ(simd_level(), SimdLevel::kScalar);
    EXPECT_FALSE(cpu_has_avx2_fma());
    EXPECT_FALSE(cpu_has_avx512());
  }
  {
    SimdCapScope avx2(SimdLevel::kAvx2);
    EXPECT_EQ(simd_level(), std::min(outside, SimdLevel::kAvx2));
    EXPECT_EQ(cpu_has_avx2_fma(), outside >= SimdLevel::kAvx2);
    EXPECT_FALSE(cpu_has_avx512());
  }
  EXPECT_EQ(simd_level(), outside);
}

TEST(SimdLevel, NestedScopesNarrowFurtherAndRestoreOnExit) {
  const SimdLevel outside = simd_level();
  {
    SimdCapScope avx2(SimdLevel::kAvx2);
    const SimdLevel mid = simd_level();
    EXPECT_EQ(mid, std::min(outside, SimdLevel::kAvx2));
    {
      SimdCapScope scalar(SimdLevel::kScalar);
      EXPECT_EQ(simd_level(), SimdLevel::kScalar);
    }
    EXPECT_EQ(simd_level(), mid);
  }
  EXPECT_EQ(simd_level(), outside);
}

TEST(SimdLevel, ScopeNeverRisesAboveTheCpuOrTheEnvCap) {
  // The level outside any scope is min(CPU, APT_SIMD); a scope asking
  // for more keeps it, and a scope inside a narrower one keeps that.
  const SimdLevel outside = simd_level();
  {
    SimdCapScope wide(SimdLevel::kAvx512);
    EXPECT_EQ(simd_level(), outside);
    EXPECT_LE(simd_level(), cpu_simd_level());
  }
  {
    SimdCapScope scalar(SimdLevel::kScalar);
    SimdCapScope wide(SimdLevel::kAvx512);
    EXPECT_EQ(simd_level(), SimdLevel::kScalar);
    EXPECT_FALSE(cpu_has_avx2_fma());
  }
  EXPECT_EQ(simd_level(), outside);
}

TEST(SimdLevelDeathTest, UnknownCapAbortsNamingTheLegalValues) {
  // The threadsafe style re-executes the binary for the death statement,
  // so the child resolves its level afresh under the bad value.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        setenv("APT_SIMD", "avx3", 1);
        (void)simd_level();
      },
      "APT_SIMD=\"avx3\" is not a SIMD level; use scalar, avx2 or avx512");
}

}  // namespace
}  // namespace apt
