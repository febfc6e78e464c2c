// Unit + property tests for the quantisation substrate: the affine scheme
// r = S(q - Z), the paper's ε (Eq. 2), rounding modes, the grid update
// (Eq. 3) with quantisation underflow, and range management.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "quant/affine.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qtensor.hpp"

namespace apt::quant {
namespace {

// ---------------------------------------------------------- choose_params

TEST(Affine, EpsilonMatchesEq2) {
  // ε = (max - min) / (2^k - 1) for a range already containing 0.
  const QuantParams p = choose_params(-1.0f, 3.0f, 4);
  EXPECT_NEAR(p.epsilon(), 4.0 / 15.0, 1e-9);
}

TEST(Affine, ZeroAlwaysRepresentable) {
  for (float lo : {0.5f, -2.0f}) {
    const QuantParams p = choose_params(lo, lo + 1.0f, 6);
    // Some code must dequantise to exactly zero.
    bool has_zero = false;
    for (int64_t q = 0; q <= max_code(6); ++q)
      if (p.dequantize(q) == 0.0f) has_zero = true;
    EXPECT_TRUE(has_zero) << "lo=" << lo;
  }
}

TEST(Affine, DegenerateRangeGetsPositiveScale) {
  const QuantParams p = choose_params(0.0f, 0.0f, 8);
  EXPECT_GT(p.scale, 0.0);
}

TEST(Affine, BadInputsRejected) {
  EXPECT_THROW(choose_params(1.0f, 0.0f, 8), CheckError);   // lo > hi
  EXPECT_THROW(choose_params(0.0f, 1.0f, 1), CheckError);   // k < 2
  EXPECT_THROW(choose_params(0.0f, 1.0f, 33), CheckError);  // k > 32
  EXPECT_THROW(choose_params(0.0f, std::numeric_limits<float>::infinity(), 8),
               CheckError);
}

TEST(Affine, ZeroPointInsideCodeRange) {
  const QuantParams p = choose_params(-10.0f, 0.5f, 3);
  EXPECT_GE(p.zero_point, 0);
  EXPECT_LE(p.zero_point, max_code(3));
}

// Property sweep: round-trip error bounded by ε/2 for in-range values.
class AffineBitwidth : public ::testing::TestWithParam<int> {};

TEST_P(AffineBitwidth, RoundTripErrorBounded) {
  const int bits = GetParam();
  Rng rng(bits);
  Tensor t(Shape{256});
  rng.fill_normal(t, 0.0f, 1.0f);
  const QuantParams p = choose_params(t, bits);
  for (float v : t.span()) {
    const float back = p.dequantize(quantize_value(v, p));
    // 0.5ε quantisation bound plus float32 representation error (which
    // dominates once ε approaches float's own resolution at k >= 24).
    const double bound = 0.5001 * p.epsilon() + 2e-6 * std::fabs(v);
    EXPECT_LE(std::fabs(back - v), bound) << "bits=" << bits << " v=" << v;
  }
}

TEST_P(AffineBitwidth, EpsilonShrinksWithBits) {
  const int bits = GetParam();
  if (bits >= 32) return;
  const QuantParams lo = choose_params(-1.0f, 1.0f, bits);
  const QuantParams hi = choose_params(-1.0f, 1.0f, bits + 1);
  // One more bit halves ε exactly as (2^(k+1)-1)/(2^k-1).
  const double expected =
      (num_states(bits + 1) - 1.0) / (num_states(bits) - 1.0);
  EXPECT_NEAR(lo.epsilon() / hi.epsilon(), expected, 1e-6);
}

TEST_P(AffineBitwidth, OutOfRangeSaturates) {
  const int bits = GetParam();
  const QuantParams p = choose_params(-1.0f, 1.0f, bits);
  EXPECT_EQ(quantize_value(100.0f, p), max_code(bits));
  EXPECT_EQ(quantize_value(-100.0f, p), 0);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, AffineBitwidth,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16, 24, 31, 32));

// -------------------------------------------------------------- rounding

TEST(Rounding, TruncTowardZero) {
  EXPECT_EQ(round_steps(2.9, RoundMode::kTrunc), 2);
  EXPECT_EQ(round_steps(-2.9, RoundMode::kTrunc), -2);
  EXPECT_EQ(round_steps(0.99, RoundMode::kTrunc), 0);
  EXPECT_EQ(round_steps(-0.99, RoundMode::kTrunc), 0);
}

TEST(Rounding, Nearest) {
  EXPECT_EQ(round_steps(2.5, RoundMode::kNearest), 3);
  EXPECT_EQ(round_steps(2.4, RoundMode::kNearest), 2);
  EXPECT_EQ(round_steps(-2.5, RoundMode::kNearest), -3);
}

TEST(Rounding, StochasticBracketsValue) {
  // u < frac rounds up, else down.
  EXPECT_EQ(round_steps(2.3, RoundMode::kStochastic, 0.2), 3);
  EXPECT_EQ(round_steps(2.3, RoundMode::kStochastic, 0.9), 2);
  EXPECT_EQ(round_steps(-2.3, RoundMode::kStochastic, 0.9), -3);
  EXPECT_EQ(round_steps(-2.3, RoundMode::kStochastic, 0.2), -2);
}

TEST(Rounding, StochasticUnbiasedInExpectation) {
  Rng rng(5);
  const double x = 1.75;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(round_steps(x, RoundMode::kStochastic,
                                           rng.uniform()));
  EXPECT_NEAR(sum / n, x, 0.02);
}

// ------------------------------------------------------- QuantizedTensor

TEST(QuantizedTensor, DequantizeMatchesOriginalWithinEps) {
  Rng rng(1);
  Tensor t(Shape{64});
  rng.fill_normal(t, 0.0f, 0.5f);
  QuantizedTensor q(t, 8);
  const Tensor back = q.dequantize();
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_NEAR(back[i], t[i], 0.51 * q.epsilon());
}

TEST(QuantizedTensor, AllValuesOnGrid) {
  Rng rng(1);
  Tensor t(Shape{64});
  rng.fill_normal(t, 0.0f, 0.5f);
  QuantizedTensor q(t, 5);
  const Tensor back = q.dequantize();
  const auto& p = q.params();
  for (int64_t i = 0; i < back.numel(); ++i) {
    const double steps = back[i] / p.scale + static_cast<double>(p.zero_point);
    EXPECT_NEAR(steps, std::round(steps), 1e-4) << "value off-grid";
  }
}

TEST(QuantizedTensor, UpdateMovesByGridSteps) {
  Tensor t(Shape{1}, {0.0f});
  QuantizedTensor q(t, 8, -1.0f, 1.0f);
  const double eps = q.epsilon();
  Tensor delta(Shape{1}, {static_cast<float>(3.4 * eps)});
  const UpdateStats s = q.apply_update(delta, RoundMode::kTrunc);
  EXPECT_EQ(s.moved, 1);
  EXPECT_EQ(s.underflowed, 0);
  // w := w - trunc(3.4)·ε = -3ε
  EXPECT_NEAR(q.dequantize()[0], -3.0 * eps, 1e-6);
}

TEST(QuantizedTensor, UnderflowWhenStepBelowEpsilon) {
  // The paper's Eq. 3: lr·g < ε leaves the weight unchanged.
  Tensor t(Shape{4}, {0.1f, -0.2f, 0.3f, 0.0f});
  QuantizedTensor q(t, 4);
  const Tensor before = q.dequantize();
  Tensor delta(Shape{4});
  delta.fill(static_cast<float>(0.49 * q.epsilon()));
  const UpdateStats s = q.apply_update(delta, RoundMode::kTrunc);
  EXPECT_EQ(s.underflowed, 4);
  EXPECT_EQ(s.moved, 0);
  const Tensor after = q.dequantize();
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(after[i], before[i]);
}

TEST(QuantizedTensor, LowerPrecisionUnderflowsMore) {
  // Same update, two precisions: the lower-precision tensor underflows.
  Rng rng(9);
  Tensor t(Shape{128});
  rng.fill_normal(t, 0.0f, 1.0f);
  Tensor delta(Shape{128});
  delta.fill(1e-3f);
  QuantizedTensor q4(t, 4), q16(t, 16);
  const UpdateStats s4 = q4.apply_update(delta, RoundMode::kTrunc);
  const UpdateStats s16 = q16.apply_update(delta, RoundMode::kTrunc);
  EXPECT_GT(s4.underflow_fraction(), 0.99);
  EXPECT_LT(s16.underflow_fraction(), 0.01);
}

TEST(QuantizedTensor, ClampAtGridEdges) {
  Tensor t(Shape{1}, {1.0f});
  QuantizedTensor q(t, 4, 0.0f, 1.0f);
  Tensor big(Shape{1}, {-100.0f});  // w := w + 100 -> clamps at max code
  const UpdateStats s = q.apply_update(big, RoundMode::kTrunc);
  EXPECT_EQ(s.clamped, 1);
  EXPECT_NEAR(q.dequantize()[0], q.params().range_max(), 1e-6);
  EXPECT_NEAR(q.saturation_fraction(), 1.0, 1e-9);
}

// ---------------------------------------------- width-adaptive storage

TEST(QuantizedTensor, StorageWidthTracksBitwidth) {
  Rng rng(4);
  Tensor t(Shape{64});
  rng.fill_normal(t, 0.0f, 1.0f);
  const struct {
    int bits, storage;
  } cases[] = {{2, 8}, {6, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {32, 32}};
  for (const auto& c : cases) {
    QuantizedTensor q(t, c.bits);
    EXPECT_EQ(q.storage_bits(), c.storage) << "bits=" << c.bits;
    EXPECT_EQ(q.code_storage_bytes(), 64 * (c.storage / 8))
        << "bits=" << c.bits;
  }
}

TEST(QuantizedTensor, SixBitTensorAllocatesAtMostNumelBytes) {
  // The paper's pitch made physical: a low-precision tensor must be
  // small, not an int64 plane behind a k-bit label.
  Rng rng(4);
  Tensor t(Shape{1000});
  rng.fill_normal(t, 0.0f, 1.0f);
  QuantizedTensor q(t, 6);
  EXPECT_LE(q.code_storage_bytes(), t.numel());
}

TEST(QuantizedTensor, CodeViewsMatchGenericAccessor) {
  Rng rng(8);
  Tensor t(Shape{33});
  rng.fill_normal(t, 0.0f, 1.0f);
  QuantizedTensor q8(t, 7);
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_EQ(static_cast<int64_t>(q8.codes_u8()[i]), q8.code(i));
  QuantizedTensor q12(t, 12);
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_EQ(static_cast<int64_t>(q12.codes_u16()[i]), q12.code(i));
  QuantizedTensor q20(t, 20);
  for (int64_t i = 0; i < t.numel(); ++i)
    EXPECT_EQ(static_cast<int64_t>(q20.codes_u32()[i]), q20.code(i));
  // The wrong-width view is a hard error, not a reinterpretation.
  EXPECT_THROW(q12.codes_u8(), CheckError);
  EXPECT_THROW(q8.codes_u16(), CheckError);
}

TEST(QuantizedTensor, RangedConstructorSpansRequestedRange) {
  // The explicit-range constructor (what every grid refit builds) puts
  // the grid over [lo, hi] whatever the values span: values outside
  // saturate to the edge codes, values inside land within ε/2, and zero
  // stays exact.
  Tensor t(Shape{5}, {-3.0f, -1.0f, 0.0f, 0.25f, 3.0f});
  QuantizedTensor q(t, 8, -1.0f, 1.0f);
  const QuantParams& p = q.params();
  const double eps = q.epsilon();
  EXPECT_NEAR(p.range_min(), -1.0, eps);
  EXPECT_NEAR(p.range_max(), 1.0, eps);
  EXPECT_EQ(q.code(0), 0);
  EXPECT_EQ(q.code(4), max_code(8));
  const Tensor d = q.dequantize();
  EXPECT_NEAR(d[1], -1.0f, eps);
  EXPECT_EQ(d[2], 0.0f);
  EXPECT_NEAR(d[3], 0.25f, 0.5 * eps + 1e-7);
  // The fitted constructor over the same values spans [-3, 3] instead.
  QuantizedTensor fitted(t, 8);
  EXPECT_GT(fitted.epsilon(), 2.5 * eps);
}

TEST(QuantizedTensor, RangedConstructorRejectsEmptyTensor) {
  EXPECT_THROW(QuantizedTensor(Tensor(Shape{0}), 8, -1.0f, 1.0f),
               CheckError);
}

TEST(QuantizedTensor, EightBitUpdateClampsWithinByteRange) {
  // Worst-case update arithmetic through the narrow storage: pushing far
  // past both grid edges must clamp to [0, 255], never wrap the byte.
  Tensor t(Shape{2}, {0.0f, 1.0f});
  QuantizedTensor q(t, 8, 0.0f, 1.0f);
  Tensor down(Shape{2});
  down.fill(1e6f);  // w -= 1e6: huge negative move in code space
  q.apply_update(down, RoundMode::kTrunc);
  EXPECT_EQ(q.code(0), 0);
  EXPECT_EQ(q.code(1), 0);
  Tensor up(Shape{2});
  up.fill(-1e6f);
  q.apply_update(up, RoundMode::kTrunc);
  EXPECT_EQ(q.code(0), max_code(8));
  EXPECT_EQ(q.code(1), max_code(8));
}

TEST(QuantizedTensor, StochasticUpdateRequiresRng) {
  Tensor t(Shape{2});
  QuantizedTensor q(t, 8);
  Tensor delta(Shape{2});
  EXPECT_THROW(q.apply_update(delta, RoundMode::kStochastic, nullptr),
               CheckError);
}

TEST(QuantizedTensor, StochasticUpdateEscapesUnderflow) {
  // With stochastic rounding a sub-ε step still moves in expectation.
  Rng rng(11);
  Tensor t(Shape{4096});
  t.fill(0.0f);
  QuantizedTensor q(t, 8, -1.0f, 1.0f);
  Tensor delta(Shape{4096});
  delta.fill(static_cast<float>(0.25 * q.epsilon()));
  const UpdateStats s = q.apply_update(delta, RoundMode::kStochastic, &rng);
  EXPECT_NEAR(static_cast<double>(s.moved) / s.total, 0.25, 0.05);
}

TEST(QuantizedTensor, ShapeMismatchRejected) {
  Tensor t(Shape{4});
  QuantizedTensor q(t, 8);
  Tensor delta(Shape{5});
  EXPECT_THROW(q.apply_update(delta, RoundMode::kTrunc), CheckError);
}

// Property sweep over bitwidths for update arithmetic.
class GridUpdateBits : public ::testing::TestWithParam<int> {};

TEST_P(GridUpdateBits, StepsTruncateOntoGrid) {
  // A 2.5ε step must move exactly 2ε under truncation. (Exact multiples of
  // ε are deliberately not tested: ⌊δ/ε⌋ sits on a knife edge there and
  // fp32 representation of δ decides the side — inherent to Eq. 3, not a
  // library property.)
  const int bits = GetParam();
  Tensor t(Shape{1}, {0.0f});
  QuantizedTensor q(t, bits, -1.0f, 1.0f);
  const double eps = q.epsilon();
  const float start = q.dequantize()[0];
  Tensor delta(Shape{1}, {static_cast<float>(-2.5 * eps)});  // w += 2.5ε
  q.apply_update(delta, RoundMode::kTrunc);
  EXPECT_NEAR(q.dequantize()[0], start + 2.0 * eps, 1e-4 * eps + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, GridUpdateBits,
                         ::testing::Values(3, 4, 6, 8, 12, 16));

TEST(RangeTracker, TracksEma) {
  RangeTracker rt(0.5);
  Tensor a(Shape{2}, {-1.0f, 1.0f});
  Tensor b(Shape{2}, {-3.0f, 3.0f});
  rt.observe(a);
  EXPECT_FLOAT_EQ(rt.lo(), -1.0f);
  rt.observe(b);
  EXPECT_FLOAT_EQ(rt.lo(), -2.0f);  // 0.5·(-1) + 0.5·(-3)
  EXPECT_FLOAT_EQ(rt.hi(), 2.0f);
}

TEST(RangeTracker, NonFiniteBatchesAreSkipped) {
  // Regression: one diverged batch must not poison the EMA range forever.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  RangeTracker rt(0.5);
  Tensor good(Shape{2}, {-1.0f, 1.0f});
  rt.observe(good);
  Tensor all_nan(Shape{2}, {nan, nan});
  Tensor has_inf(Shape{3}, {-inf, 0.0f, inf});
  rt.observe(all_nan);
  rt.observe(has_inf);
  EXPECT_FLOAT_EQ(rt.lo(), -1.0f);  // unchanged by the bad batches
  EXPECT_FLOAT_EQ(rt.hi(), 1.0f);
  // And a leading bad batch must not fake initialisation either.
  RangeTracker fresh(0.5);
  fresh.observe(all_nan);
  EXPECT_FALSE(fresh.initialized());
  fresh.observe(good);
  EXPECT_TRUE(fresh.initialized());
  EXPECT_FLOAT_EQ(fresh.lo(), -1.0f);
}


TEST(RangeTracker, ObserveMergedMatchesWholeBatch) {
  // The sharded layers feed the tracker the shard-ordered merge of
  // per-shard extrema; over any split that must land on the same bits
  // as observing the whole batch.
  Rng rng(6);
  RangeTracker whole(0.7), merged(0.7);
  for (int it = 0; it < 20; ++it) {
    Tensor x(Shape{30});
    rng.fill_uniform(x, -1.0f - 0.1f * static_cast<float>(it),
                     0.5f + 0.05f * static_cast<float>(it));
    whole.observe(x);
    const int64_t cuts[] = {0, 7, 8, 19, 30};  // uneven shards
    merged.observe_merged(4, [&](int s) {
      float lo = x[cuts[s]], hi = x[cuts[s]];
      for (int64_t i = cuts[s]; i < cuts[s + 1]; ++i) {
        lo = std::min(lo, x[i]);
        hi = std::max(hi, x[i]);
      }
      return std::pair<float, float>{lo, hi};
    });
    ASSERT_EQ(whole.lo(), merged.lo()) << "batch " << it;
    ASSERT_EQ(whole.hi(), merged.hi()) << "batch " << it;
  }
}

TEST(RangeTracker, ObserveMergedSkipsNonFiniteShard) {
  // One non-finite shard skips the whole batch, wherever it sits: a
  // NaN must not be dropped by std::min/std::max ordering.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  RangeTracker rt(0.5);
  rt.observe(-1.0f, 1.0f);
  const std::pair<float, float> bad_shards[][3] = {
      {{-2.0f, 2.0f}, {nan, 0.5f}, {-0.5f, 0.5f}},
      {{-2.0f, 2.0f}, {-0.5f, 0.5f}, {-0.5f, nan}},
      {{nan, nan}, {-2.0f, 2.0f}, {-0.5f, 0.5f}},
      {{-2.0f, 2.0f}, {-0.5f, inf}, {-0.5f, 0.5f}},
  };
  for (const auto& shards : bad_shards) {
    rt.observe_merged(3, [&](int s) { return shards[s]; });
    EXPECT_FLOAT_EQ(rt.lo(), -1.0f);
    EXPECT_FLOAT_EQ(rt.hi(), 1.0f);
  }
  RangeTracker fresh(0.5);
  fresh.observe_merged(3, [&](int s) { return bad_shards[1][s]; });
  EXPECT_FALSE(fresh.initialized());
  // A clean merge still moves the EMA: lo -> 0.5*-1 + 0.5*-2.
  rt.observe_merged(2, [&](int s) { return bad_shards[0][s == 0 ? 0 : 2]; });
  EXPECT_FLOAT_EQ(rt.lo(), -1.5f);
  EXPECT_FLOAT_EQ(rt.hi(), 1.5f);
}


// ------------------------------------------------- stochastic rounding

// The SR quantiser draws its rounding bits from the counter-based Philox
// stream (base/rng.hpp): code[i] is a pure function of (key, base + i),
// which is what every property below leans on.

TEST(StochasticRound, MeanUnbiasedOverCounterStream) {
  // Quantising the same value across many counter offsets must round up
  // with probability equal to the fractional grid position, so the mean
  // dequantised value converges to the input (the whole point of SR:
  // gradient error is zero-mean, Sec. III-C of the paper).
  const QuantParams p = choose_params(-2.0f, 2.0f, 8);
  const uint64_t key = sr_mix_key(fnv1a64("sr-mean"), 7);
  constexpr int64_t kDraws = 1 << 16;
  // Values strictly inside the representable grid (zero-point
  // rounding shifts the endpoints): saturation is deterministic,
  // not stochastic.
  for (float v : {0.3f, -1.234f, 0.0f, 1.9f, -0.001f}) {
    std::vector<float> src(static_cast<size_t>(kDraws), v);
    std::vector<uint8_t> codes(static_cast<size_t>(kDraws));
    quantize_codes_u8_sr(src.data(), kDraws, p, key, /*base=*/0,
                         codes.data());
    double mean = 0.0;
    for (uint8_t c : codes) mean += p.dequantize(c);
    mean /= static_cast<double>(kDraws);
    // Binomial std-dev of the mean is eps/2/sqrt(kDraws) ~ 3e-5; allow 6
    // sigma plus the fp32 dequantise noise.
    EXPECT_NEAR(mean, v, 6.0 * p.epsilon() / std::sqrt((double)kDraws) + 1e-5)
        << "v=" << v;
  }
}

TEST(StochasticRound, RoundsToNeighbouringCodesOnly) {
  const QuantParams p = choose_params(-1.0f, 1.0f, 8);
  const uint64_t key = sr_mix_key(fnv1a64("sr-neigh"), 3);
  Rng rng(11);
  std::vector<float> src(4096);
  for (float& v : src) v = rng.uniform(-1.0f, 1.0f);
  std::vector<uint8_t> codes(src.size());
  quantize_codes_u8_sr(src.data(), static_cast<int64_t>(src.size()), p, key,
                       0, codes.data());
  for (size_t i = 0; i < src.size(); ++i) {
    const double q = (src[i] - p.dequantize(0)) / p.scale;
    const auto floor_code = static_cast<int64_t>(std::floor(q));
    EXPECT_GE(codes[i], std::max<int64_t>(0, floor_code));
    EXPECT_LE(codes[i], std::min<int64_t>(max_code(8), floor_code + 1));
  }
}

TEST(StochasticRound, ScalarAndDispatchedBitIdentical) {
  // The AVX2 kernel must reproduce the scalar path bit-for-bit, NaN and
  // saturation semantics included — the determinism matrix runs the same
  // binaries on machines with and without AVX2.
  const QuantParams p = choose_params(-0.75f, 1.5f, 8);
  const uint64_t key = sr_mix_key(fnv1a64("sr-simd"), 12345);
  Rng rng(5);
  std::vector<float> src(10007);  // odd size: exercises every tail lane
  for (float& v : src) v = rng.uniform(-1.2f, 2.0f);
  src[3] = std::numeric_limits<float>::quiet_NaN();
  src[100] = std::numeric_limits<float>::infinity();
  src[200] = -std::numeric_limits<float>::infinity();
  src[500] = -50.0f;   // far below range
  src[600] = 50.0f;    // far above range
  std::vector<uint8_t> a(src.size()), b(src.size());
  quantize_codes_u8_sr(src.data(), static_cast<int64_t>(src.size()), p, key,
                       77, a.data());
  quantize_codes_u8_sr_scalar(src.data(), static_cast<int64_t>(src.size()),
                              p, key, 77, b.data());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size()));
  EXPECT_EQ(a[3], 0);    // NaN -> code 0 (defined, matches round-nearest)
  EXPECT_EQ(a[100], max_code(8));
  EXPECT_EQ(a[200], 0);
  EXPECT_EQ(a[500], 0);
  EXPECT_EQ(a[600], max_code(8));
}

TEST(StochasticRound, SlicingInvariantForAnyDecomposition) {
  // Quantising a plane in one call or in arbitrary contiguous slices
  // (each passing its batch-global base) yields identical bytes — the
  // property that makes dY codes independent of thread count and shard
  // decomposition.
  const QuantParams p = choose_params(-1.0f, 1.0f, 8);
  const uint64_t key = sr_mix_key(fnv1a64("sr-slice"), 99);
  Rng rng(7);
  std::vector<float> src(2053);
  for (float& v : src) v = rng.uniform(-1.0f, 1.0f);
  const auto n = static_cast<int64_t>(src.size());
  std::vector<uint8_t> whole(src.size()), sliced(src.size());
  quantize_codes_u8_sr(src.data(), n, p, key, 0, whole.data());
  for (int64_t slice : {1, 7, 64, 300, 1024}) {
    std::fill(sliced.begin(), sliced.end(), uint8_t{0xAA});
    for (int64_t b = 0; b < n; b += slice) {
      const int64_t e = std::min(n, b + slice);
      quantize_codes_u8_sr(src.data() + b, e - b, p, key,
                           static_cast<uint64_t>(b), sliced.data() + b);
    }
    EXPECT_EQ(0, std::memcmp(whole.data(), sliced.data(), whole.size()))
        << "slice=" << slice;
  }
}

TEST(PhiloxRng, CounterStreamIsPureAndWordStable) {
  // Same (key, index) -> same word, forever: the counters are the whole
  // reproducibility story, so pin a few values as a regression anchor.
  const uint64_t key = 0x0123456789abcdefull;
  for (uint64_t i : {0ull, 1ull, 4ull, 1000ull}) {
    EXPECT_EQ(philox_u32(key, i), philox_u32(key, i));
  }
  uint32_t seq[8];
  philox_fill_u32(key, 2, 8, seq);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(seq[i], philox_u32(key, 2 + static_cast<uint64_t>(i))) << i;
  // Distinct keys / steps decorrelate the streams.
  EXPECT_NE(sr_mix_key(fnv1a64("a"), 1), sr_mix_key(fnv1a64("b"), 1));
  EXPECT_NE(sr_mix_key(fnv1a64("a"), 1), sr_mix_key(fnv1a64("a"), 2));
  // u01 maps a 32-bit word into [0, 1) with 24-bit resolution.
  EXPECT_EQ(philox_u01(0), 0.0f);
  EXPECT_LT(philox_u01(0xffffffffu), 1.0f);
}

}  // namespace
}  // namespace apt::quant
