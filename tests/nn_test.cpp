// Unit tests for the NN substrate: GEMM vs the naive reference, im2col /
// col2im inverses, layer forward semantics, and BatchNorm statistics.
// (Gradient correctness is covered exhaustively in nn_gradcheck_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "backend_guard.hpp"
#include "base/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/shard.hpp"
#include "nn/sequential.hpp"
#include "nn/softmax_xent.hpp"

namespace apt::nn {
namespace {

// ------------------------------------------------------------------ GEMM

struct GemmCase {
  bool ta, tb;
  int64_t m, n, k;
};

class GemmVsNaive : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsNaive, Matches) {
  const GemmCase c = GetParam();
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(c.m * c.k)),
      b(static_cast<size_t>(c.k * c.n)), out(static_cast<size_t>(c.m * c.n)),
      ref(static_cast<size_t>(c.m * c.n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (size_t i = 0; i < out.size(); ++i) out[i] = ref[i] = rng.uniform(-1, 1);

  gemm(c.ta, c.tb, c.m, c.n, c.k, 0.7f, a.data(), b.data(), 0.3f, out.data());
  gemm_naive(c.ta, c.tb, c.m, c.n, c.k, 0.7f, a.data(), b.data(), 0.3f,
             ref.data());
  for (size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], ref[i], 1e-3f) << "i=" << i;
}

// A static array rather than ::testing::Values temporaries: gtest names
// each instance by the bytes of its parameter, padding included, and
// only static storage guarantees zeroed padding.
constexpr GemmCase kGemmShapes[] = {
    {false, false, 7, 9, 5},   {false, false, 64, 64, 64},
    {true, false, 17, 13, 31}, {false, true, 17, 13, 31},
    {true, true, 8, 24, 16},   {false, false, 1, 1, 1},
    {false, false, 1, 128, 300},
    {true, true, 33, 1, 65}};

INSTANTIATE_TEST_SUITE_P(Shapes, GemmVsNaive, ::testing::ValuesIn(kGemmShapes));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  std::vector<float> a{1, 2}, b{3, 4};
  std::vector<float> c{std::numeric_limits<float>::quiet_NaN()};
  gemm(false, false, 1, 1, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 11.0f);
}

// ------------------------------------------------------- im2col / col2im

TEST(Im2col, IdentityKernelExtractsPixels) {
  Tensor x(Shape{1, 1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  std::vector<float> cols(9);
  im2col(x, 0, 0, 1, /*kernel=*/1, /*stride=*/1, /*pad=*/0, 3, 3, cols.data());
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(cols[static_cast<size_t>(i)], x[i]);
}

TEST(Im2col, PaddingWiderThanOutputStaysInBounds) {
  // kernel 7, pad 3 on a 2x2 input: some kernel columns have no valid
  // output x at all (the fast path's valid range must clamp to empty
  // instead of writing past the row).
  const int64_t kernel = 7, pad = 3, W = 2;
  Tensor x(Shape{1, 1, W, W});
  for (int64_t i = 0; i < W * W; ++i) x[i] = static_cast<float>(i + 1);
  const int64_t ow = (W + 2 * pad - kernel) / 1 + 1;  // == 2
  std::vector<float> cols(static_cast<size_t>(kernel * kernel * ow * ow),
                          -7.0f);
  im2col(x, 0, 0, 1, kernel, /*stride=*/1, pad, ow, ow, cols.data());
  // Every element must match the per-element definition of im2col.
  int64_t row = 0;
  for (int64_t kh = 0; kh < kernel; ++kh)
    for (int64_t kw = 0; kw < kernel; ++kw, ++row)
      for (int64_t y = 0; y < ow; ++y)
        for (int64_t xo = 0; xo < ow; ++xo) {
          const int64_t in_y = y - pad + kh, in_x = xo - pad + kw;
          const bool in = in_y >= 0 && in_y < W && in_x >= 0 && in_x < W;
          ASSERT_FLOAT_EQ(
              cols[static_cast<size_t>(row * ow * ow + y * ow + xo)],
              in ? x[in_y * W + in_x] : 0.0f)
              << "kh=" << kh << " kw=" << kw << " y=" << y << " xo=" << xo;
        }
}

TEST(Col2im, PaddingWiderThanOutputStaysInBounds) {
  const int64_t kernel = 7, pad = 3, W = 2;
  const int64_t ow = (W + 2 * pad - kernel) / 1 + 1;
  std::vector<float> cols(static_cast<size_t>(kernel * kernel * ow * ow),
                          1.0f);
  Tensor dx(Shape{1, 1, W, W});
  col2im(cols.data(), 0, 0, 1, kernel, /*stride=*/1, pad, ow, ow, dx);
  // Each input pixel receives one unit per (kh, kw, y, xo) that maps to
  // it; cross-check against the per-element definition.
  for (int64_t iy = 0; iy < W; ++iy)
    for (int64_t ix = 0; ix < W; ++ix) {
      float expect = 0.0f;
      for (int64_t kh = 0; kh < kernel; ++kh)
        for (int64_t kw = 0; kw < kernel; ++kw)
          for (int64_t y = 0; y < ow; ++y)
            for (int64_t xo = 0; xo < ow; ++xo)
              if (y - pad + kh == iy && xo - pad + kw == ix) expect += 1.0f;
      EXPECT_FLOAT_EQ(dx[iy * W + ix], expect) << iy << "," << ix;
    }
}

TEST(Im2col, PaddingYieldsZeros) {
  Tensor x(Shape{1, 1, 2, 2});
  x.fill(5.0f);
  // 3x3 kernel, pad 1 -> output 2x2; the (0,0) patch's top-left is padding.
  std::vector<float> cols(9 * 4);
  im2col(x, 0, 0, 1, 3, 1, 1, 2, 2, cols.data());
  EXPECT_EQ(cols[0], 0.0f);        // row 0 (kh=0,kw=0), out (0,0)
  EXPECT_EQ(cols[4 * 4 + 0], 5.0f);  // centre tap sees the image
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
  // which is exactly what backward relies on.
  Rng rng(3);
  Tensor x(Shape{1, 2, 5, 5});
  rng.fill_normal(x, 0, 1);
  const int64_t oh = 3, ow = 3;  // kernel 3, stride 1, pad 0
  const int64_t rows = 2 * 3 * 3;
  std::vector<float> cols(static_cast<size_t>(rows * oh * ow));
  im2col(x, 0, 0, 2, 3, 1, 0, oh, ow, cols.data());

  std::vector<float> y(cols.size());
  for (auto& v : y) v = rng.uniform(-1, 1);
  Tensor back(Shape{1, 2, 5, 5});
  col2im(y.data(), 0, 0, 2, 3, 1, 0, oh, ow, back);

  double lhs = 0, rhs = 0;
  for (size_t i = 0; i < cols.size(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  for (int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// x86's default NaN: every NaN an add can produce (inf + -inf, or any
// add with a NaN operand) carries these bits, so a memcmp cannot depend
// on which operand an add propagated.
float default_nan() {
  const uint32_t bits = 0xFFC00000u;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

TEST(Col2im, MatchesReferenceScatterBitForBit) {
  // col2im (the register-accumulated gather at stride 1 on AVX2 hosts,
  // the scatter otherwise — stride 2 always) against the scatter that
  // defines it: NaN/±inf/-0.0 in cols, -0.0-prefilled or random dx, one
  // group of a two-group channel range.
  Rng rng(29);
  for (int64_t kernel : {1, 3, 5})
    for (int64_t stride : {1, 2})
      for (int64_t padding : {0, 1, 2})
        for (int64_t W : {4, 7, 8, 16, 19}) {
          const int64_t H = W > 4 ? W - 3 : W;
          const int64_t oh = (H + 2 * padding - kernel) / stride + 1;
          const int64_t ow = (W + 2 * padding - kernel) / stride + 1;
          if (H + 2 * padding < kernel || W + 2 * padding < kernel) continue;
          const int64_t icg = 3;
          std::vector<float> cols(
              static_cast<size_t>(icg * kernel * kernel * oh * ow));
          for (size_t i = 0; i < cols.size(); ++i) {
            cols[i] = rng.uniform(-1.0f, 1.0f);
            if (i % 13 == 5) cols[i] = -0.0f;
            if (i % 29 == 7) cols[i] = std::numeric_limits<float>::infinity();
            if (i % 31 == 3) cols[i] = -std::numeric_limits<float>::infinity();
            if (i % 37 == 11) cols[i] = default_nan();
          }
          for (bool negative_zero : {true, false}) {
            Tensor got(Shape{2, 2 * icg, H, W});
            if (negative_zero) {
              got.fill(-0.0f);
            } else {
              rng.fill_uniform(got, -1.0f, 1.0f);
            }
            Tensor want = got.clone();
            col2im(cols.data(), 1, icg, icg, kernel, stride, padding, oh, ow,
                   got);
            col2im_reference(cols.data(), 1, icg, icg, kernel, stride,
                             padding, oh, ow, want);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     static_cast<size_t>(got.numel()) *
                                         sizeof(float)))
                << "kernel=" << kernel << " stride=" << stride
                << " padding=" << padding << " W=" << W
                << " -0.0 prefill=" << negative_zero;
          }
        }
}

// ------------------------------------------------------------------ Conv

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2dOptions o;
  o.in_channels = 3;
  o.out_channels = 8;
  o.stride = 2;
  Conv2d conv("c", o, rng);
  Tensor x(Shape{2, 3, 16, 16});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 8, 8, 8}));
  EXPECT_EQ(conv.macs_per_sample(), 8 * 8 * 8 * 3 * 9);
  EXPECT_EQ(conv.out_elems_per_sample(), 8 * 8 * 8);
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(1);
  Conv2dOptions o;
  o.in_channels = 2;
  o.out_channels = 3;
  Conv2d conv("c", o, rng);
  Tensor x(Shape{1, 2, 5, 5});
  rng.fill_normal(x, 0, 1);
  const Tensor y = conv.forward(x, false);

  // Direct triple-loop reference.
  const Tensor& w = conv.weight().value;  // [3, 2, 3, 3]
  for (int64_t oc = 0; oc < 3; ++oc)
    for (int64_t oy = 0; oy < 5; ++oy)
      for (int64_t ox = 0; ox < 5; ++ox) {
        double acc = 0;
        for (int64_t ic = 0; ic < 2; ++ic)
          for (int64_t ky = 0; ky < 3; ++ky)
            for (int64_t kx = 0; kx < 3; ++kx) {
              const int64_t iy = oy + ky - 1, ix = ox + kx - 1;
              if (iy < 0 || iy >= 5 || ix < 0 || ix >= 5) continue;
              acc += static_cast<double>(
                         w[((oc * 2 + ic) * 3 + ky) * 3 + kx]) *
                     x.at(0, ic, iy, ix);
            }
        EXPECT_NEAR(y.at(0, oc, oy, ox), acc, 1e-4)
            << oc << "," << oy << "," << ox;
      }
}

TEST(Conv2d, DepthwiseKeepsChannelsSeparate) {
  Rng rng(1);
  Conv2dOptions o;
  o.in_channels = 4;
  o.out_channels = 4;
  o.groups = 4;
  Conv2d conv("dw", o, rng);
  // Zero all weights except channel 2's filter: only channel 2 responds.
  conv.weight().value.fill(0.0f);
  for (int64_t i = 0; i < 9; ++i)
    conv.weight().value[2 * 9 + i] = 1.0f;
  Tensor x(Shape{1, 4, 4, 4});
  x.fill(1.0f);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.at(0, 2, 1, 1), 9.0f);  // interior: full 3x3 of ones
  EXPECT_EQ(y.at(0, 0, 1, 1), 0.0f);
  EXPECT_EQ(y.at(0, 3, 2, 2), 0.0f);
}

TEST(Conv2d, GroupsMustDivideChannels) {
  Rng rng(1);
  Conv2dOptions o;
  o.in_channels = 3;
  o.out_channels = 4;
  o.groups = 2;
  EXPECT_THROW(Conv2d("bad", o, rng), CheckError);
}

TEST(Conv2d, BackwardBeforeForwardRejected) {
  Rng rng(1);
  Conv2dOptions o;
  o.in_channels = 1;
  o.out_channels = 1;
  Conv2d conv("c", o, rng);
  Tensor g(Shape{1, 1, 4, 4});
  EXPECT_THROW(conv.backward(g), CheckError);
}

// The fp32 Conv2d, whose GEMMs pack the patch matrix straight from the
// padded input, against a pipeline built from the explicit im2col +
// gemm and the reference col2im scatter: forward, dX and dW bit for bit
// at every SIMD level (SimdCapScope), for direct-size (1x1) and packed
// GEMMs. The last case packs each group's weight once per call over two
// KC panels (krows = 288) at stride 2, where col2im takes the reference
// scatter.
struct ConvRefCase {
  int64_t cin, cout, kernel, stride, padding, groups, h, w;
  bool bias;
};

constexpr ConvRefCase kConvRefCases[] = {
    {3, 8, 3, 1, 1, 1, 16, 16, false},  {8, 16, 3, 2, 1, 1, 16, 16, false},
    {8, 16, 1, 2, 0, 1, 16, 16, false}, {4, 4, 5, 1, 2, 2, 7, 9, true},
    {6, 6, 3, 1, 1, 6, 8, 8, false},    {16, 32, 3, 2, 1, 1, 8, 8, true},
    {8, 8, 1, 1, 0, 1, 8, 8, false},   {64, 16, 3, 2, 1, 2, 9, 9, true}};

class Conv2dVsExplicit : public ::testing::TestWithParam<ConvRefCase> {};

TEST_P(Conv2dVsExplicit, ForwardAndGradientsBitForBit) {
  const ConvRefCase c = GetParam();
  for (SimdLevel level : host_simd_levels()) {
    SimdCapScope cap(level);
    Rng rng(31);
    Conv2dOptions o;
    o.in_channels = c.cin;
    o.out_channels = c.cout;
    o.kernel = c.kernel;
    o.stride = c.stride;
    o.padding = c.padding;
    o.groups = c.groups;
    o.bias = c.bias;
    Conv2d conv("conv", o, rng);
    if (c.bias) rng.fill_uniform(conv.bias().value, -0.5f, 0.5f);
    const int64_t N = 3;  // <= 16: backward runs one dW chunk per sample
    Tensor x(Shape{N, c.cin, c.h, c.w});
    rng.fill_uniform(x, -1.0f, 1.0f);
    const Tensor y = conv.forward(x, /*training=*/true);
    Tensor dy(y.shape());
    rng.fill_uniform(dy, -1.0f, 1.0f);
    const Tensor dx = conv.backward(dy);

    const int64_t OH = y.dim(2), OW = y.dim(3), plane = OH * OW;
    const int64_t icg = c.cin / c.groups, ocg = c.cout / c.groups;
    const int64_t krows = icg * c.kernel * c.kernel;
    const int64_t wn = conv.weight().numel();
    const float* w = conv.weight().value.data();
    Tensor y_ref(y.shape()), dx_ref(x.shape());
    std::vector<float> dw_ref(static_cast<size_t>(wn), 0.0f);
    std::vector<float> cols(static_cast<size_t>(krows * plane));
    std::vector<float> dcols(cols.size());
    std::vector<float> dw_n(dw_ref.size());
    for (int64_t n = 0; n < N; ++n) {
      std::fill(dw_n.begin(), dw_n.end(), 0.0f);
      for (int64_t g = 0; g < c.groups; ++g) {
        im2col(x, n, g * icg, icg, c.kernel, c.stride, c.padding, OH, OW,
               cols.data());
        const int64_t off = (n * c.cout + g * ocg) * plane;
        gemm(false, false, ocg, plane, krows, 1.0f, w + g * ocg * krows,
             cols.data(), 0.0f, y_ref.data() + off);
        gemm(false, true, ocg, krows, plane, 1.0f, dy.data() + off,
             cols.data(), 1.0f, dw_n.data() + g * ocg * krows);
        gemm(true, false, krows, plane, ocg, 1.0f, w + g * ocg * krows,
             dy.data() + off, 0.0f, dcols.data());
        col2im_reference(dcols.data(), n, g * icg, icg, c.kernel, c.stride,
                         c.padding, OH, OW, dx_ref);
      }
      for (int64_t i = 0; i < wn; ++i)
        dw_ref[static_cast<size_t>(i)] += dw_n[static_cast<size_t>(i)];
    }
    if (c.bias)
      for (int64_t pc = 0; pc < N * c.cout; ++pc)
        for (int64_t i = 0; i < plane; ++i)
          y_ref.data()[pc * plane + i] += conv.bias().value[pc % c.cout];

    const auto same = [](const float* a, const float* b, int64_t count) {
      return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(float)) ==
             0;
    };
    const char* which = simd_level_name(level);
    EXPECT_TRUE(same(y.data(), y_ref.data(), y.numel())) << "simd " << which;
    EXPECT_TRUE(same(dx.data(), dx_ref.data(), dx.numel())) << "simd " << which;
    EXPECT_TRUE(same(conv.weight().grad.data(), dw_ref.data(), wn))
        << "simd " << which;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv2dVsExplicit,
                         ::testing::ValuesIn(kConvRefCases));

// ---------------------------------------------------------------- Linear

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear lin("fc", 3, 2, rng);
  lin.weight().value = Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  lin.bias().value = Tensor(Shape{2}, {0.5f, -0.5f});
  Tensor x(Shape{1, 3}, {1, 1, 1});
  const Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 6.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 14.5f);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(1);
  Linear lin("fc", 4, 4, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear lin("fc", 4, 2, rng);
  Tensor x(Shape{1, 5});
  EXPECT_THROW(lin.forward(x, false), CheckError);
}

TEST(Linear, PooledBiasAddMatchesManual) {
  // Bias add runs through the thread pool; rows are independent, so the
  // result must equal the serial row-by-row computation bit for bit.
  Rng rng(7);
  const int64_t n = 257, in = 33, out = 65;  // big enough to split tasks
  Linear lin("fc", in, out, rng);
  Tensor x(Shape{n, in});
  rng.fill_normal(x, 0, 1);
  const Tensor y = lin.forward(x, false);
  std::vector<float> expect(static_cast<size_t>(n * out), 0.0f);
  gemm_naive(false, true, n, out, in, 1.0f, x.data(),
             lin.weight().value.data(), 0.0f, expect.data());
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < out; ++j) {
      const float want =
          expect[static_cast<size_t>(i * out + j)] + lin.bias().value[j];
      ASSERT_NEAR(y.at(i, j), want, 1e-4f) << i << "," << j;
    }
}

TEST(Linear, PooledBiasGradDeterministicAndCorrect) {
  // Each output feature's gradient is owned by one task and accumulated
  // in fixed sample order: identical bits to the serial loop, any pool.
  Rng rng(8);
  const int64_t n = 300, in = 17, out = 129;
  Linear lin("fc", in, out, rng);
  Tensor x(Shape{n, in});
  rng.fill_normal(x, 0, 1);
  Tensor dy(Shape{n, out});
  rng.fill_normal(dy, 0, 1);

  lin.forward(x, true);
  lin.backward(dy);
  std::vector<float> run1(lin.bias().grad.span().begin(),
                          lin.bias().grad.span().end());
  // Serial reference in the same per-feature, fixed-sample order.
  for (int64_t j = 0; j < out; ++j) {
    float acc = 0.0f;
    for (int64_t i = 0; i < n; ++i) acc += dy.at(i, j);
    ASSERT_EQ(run1[static_cast<size_t>(j)], acc) << "j=" << j;
  }
  // And a second backward accumulates the identical bits again.
  lin.backward(dy);
  for (int64_t j = 0; j < out; ++j)
    ASSERT_EQ(lin.bias().grad[j], 2.0f * run1[static_cast<size_t>(j)])
        << "j=" << j;
}

// ------------------------------------------------------------- BatchNorm

TEST(BatchNorm, NormalisesBatchInTraining) {
  Rng rng(1);
  BatchNorm bn("bn", 2);
  Tensor x(Shape{64, 2});
  rng.fill_normal(x, 3.0f, 2.0f);
  const Tensor y = bn.forward(x, true);
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0, sq = 0;
    for (int64_t n = 0; n < 64; ++n) {
      sum += y.at(n, c);
      sq += static_cast<double>(y.at(n, c)) * y.at(n, c);
    }
    EXPECT_NEAR(sum / 64, 0.0, 1e-4);
    EXPECT_NEAR(sq / 64, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GammaBetaApplied) {
  BatchNorm bn("bn", 1);
  bn.gamma().value[0] = 2.0f;
  bn.beta().value[0] = 1.0f;
  Tensor x(Shape{4, 1}, {-1, -1, 1, 1});
  const Tensor y = bn.forward(x, true);
  // x̂ = ±1 -> y = ±2 + 1
  EXPECT_NEAR(y.at(0, 0), -1.0f, 1e-3);
  EXPECT_NEAR(y.at(2, 0), 3.0f, 1e-3);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm bn("bn", 1, /*momentum=*/0.0);  // running = last batch stats
  Tensor x(Shape{4, 1}, {0, 0, 2, 2});      // mean 1, var 1
  bn.forward(x, true);
  Tensor probe(Shape{1, 1}, {1.0f});
  const Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 1e-3);  // (1 - mean)/std = 0
}

TEST(BatchNorm, Supports4d) {
  Rng rng(1);
  BatchNorm bn("bn", 3);
  Tensor x(Shape{2, 3, 4, 4});
  rng.fill_normal(x, 1.0f, 2.0f);
  const Tensor y = bn.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  double sum = 0;
  for (int64_t n = 0; n < 2; ++n)
    for (int64_t i = 0; i < 16; ++i) sum += y.at(n, 0, i / 4, i % 4);
  EXPECT_NEAR(sum / 32.0, 0.0, 1e-4);
}

TEST(BatchNorm, RejectsTinyBatchInTraining) {
  BatchNorm bn("bn", 2);
  Tensor x(Shape{1, 2});
  EXPECT_THROW(bn.forward(x, true), CheckError);
  EXPECT_NO_THROW(bn.forward(x, false));  // eval is fine
}

TEST(BatchNorm, RejectsWrongChannelCount) {
  BatchNorm bn("bn", 2);
  Tensor x(Shape{4, 3});
  EXPECT_THROW(bn.forward(x, true), CheckError);
}

// Per-channel reference of BatchNorm's training forward + backward: the
// layer's formulas, with every channel's Σx, Σx², Σdy and Σdy·x̂ reduced
// on its own in (sample, element) order — the order the four-channel
// block reductions must keep.
struct BnReference {
  Tensor y, dx;
  std::vector<float> dgamma, dbeta, running_mean, running_var;
};

BnReference bn_reference(const Tensor& x, const Tensor& dy, BatchNorm& bn) {
  const int64_t N = x.dim(0), C = x.dim(1);
  const int64_t S = x.numel() / (N * C), m = N * S;
  const double momentum = 0.9;  // the layer's default
  BnReference r{Tensor(x.shape()), Tensor(x.shape()), {}, {}, {}, {}};
  Tensor x_hat(x.shape());
  for (int64_t c = 0; c < C; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int64_t n = 0; n < N; ++n)
      for (int64_t i = 0; i < S; ++i) {
        const float v = x.data()[(n * C + c) * S + i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    const double mu = sum / m;
    const double var = std::max(0.0, sq / m - mu * mu);
    const auto muf = static_cast<float>(mu);
    const auto is = static_cast<float>(1.0 / std::sqrt(var + bn.eps()));
    r.running_mean.push_back(static_cast<float>(
        momentum * bn.running_mean()[c] + (1.0 - momentum) * mu));
    r.running_var.push_back(static_cast<float>(
        momentum * bn.running_var()[c] + (1.0 - momentum) * var));
    const float g = bn.gamma().value[c], b = bn.beta().value[c];
    double dgamma = 0.0, dbeta = 0.0;
    for (int64_t n = 0; n < N; ++n)
      for (int64_t i = 0; i < S; ++i) {
        const int64_t e = (n * C + c) * S + i;
        x_hat.data()[e] = (x.data()[e] - muf) * is;
        r.y.data()[e] = g * x_hat.data()[e] + b;
        dgamma += static_cast<double>(dy.data()[e]) * x_hat.data()[e];
        dbeta += dy.data()[e];
      }
    r.dgamma.push_back(static_cast<float>(dgamma));
    r.dbeta.push_back(static_cast<float>(dbeta));
    const float scale = g * is / static_cast<float>(m);
    for (int64_t n = 0; n < N; ++n)
      for (int64_t i = 0; i < S; ++i) {
        const int64_t e = (n * C + c) * S + i;
        r.dx.data()[e] =
            scale * (static_cast<float>(m) * dy.data()[e] -
                     static_cast<float>(dbeta) -
                     x_hat.data()[e] * static_cast<float>(dgamma));
      }
  }
  return r;
}

bool same_bits(const float* a, const float* b, int64_t count) {
  return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(float)) == 0;
}

constexpr int64_t kBnChannels[] = {1, 3, 4, 5, 8, 13};

TEST(BatchNorm, BlockReductionsMatchPerChannelReference) {
  for (int64_t C : kBnChannels) {
    Rng rng(37);
    BatchNorm bn("bn", C);
    rng.fill_uniform(bn.gamma().value, 0.5f, 1.5f);
    rng.fill_uniform(bn.beta().value, -0.5f, 0.5f);
    Tensor x(Shape{5, C, 3, 7});
    rng.fill_normal(x, 0.7f, 1.3f);
    // A +2^40 / -2^40 pair in every (sample, channel) row: the double
    // sums then round differently under any other add order, and the
    // difference survives into the float outputs.
    for (int64_t row = 0; row < 5 * C; ++row) {
      x.data()[row * 21 + 2] = 0x1p40f;
      x.data()[row * 21 + 13] = -0x1p40f;
    }
    Tensor dy(x.shape());
    rng.fill_normal(dy, 0.0f, 1.0f);
    const BnReference want = bn_reference(x, dy, bn);
    const Tensor y = bn.forward(x, /*training=*/true);
    const Tensor dx = bn.backward(dy);
    EXPECT_TRUE(same_bits(y.data(), want.y.data(), y.numel())) << C;
    EXPECT_TRUE(same_bits(dx.data(), want.dx.data(), dx.numel())) << C;
    EXPECT_TRUE(same_bits(bn.gamma().grad.data(), want.dgamma.data(), C)) << C;
    EXPECT_TRUE(same_bits(bn.beta().grad.data(), want.dbeta.data(), C)) << C;
    EXPECT_TRUE(
        same_bits(bn.running_mean().data(), want.running_mean.data(), C))
        << C;
    EXPECT_TRUE(same_bits(bn.running_var().data(), want.running_var.data(), C))
        << C;
  }
}

TEST(BatchNorm, ShardedMatchesUnshardedOnExactSums) {
  // Dyadic inputs whose per-channel mean is exact and whose deviations
  // are ±1/4, ±1/2: every Σ is exact in double, so the shard-ordered
  // merge and the single pass must agree to the bit, and any channel
  // mix-up in the block reductions shows.
  for (int64_t C : kBnChannels) {
    const int64_t N = 8, S = 4;
    const float dev[4] = {-0.5f, -0.25f, 0.25f, 0.5f};
    Tensor x(Shape{N, C, 2, 2});
    Tensor dy(x.shape());
    for (int64_t n = 0; n < N; ++n)
      for (int64_t c = 0; c < C; ++c)
        for (int64_t i = 0; i < S; ++i) {
          const int64_t e = (n * C + c) * S + i;
          x.data()[e] = 0.5f * static_cast<float>(c) + dev[(n * S + i) % 4];
          dy.data()[e] = 0.25f * static_cast<float>((e * 7 + c) % 9 - 4);
        }
    auto make = [C] {
      auto bn = std::make_unique<BatchNorm>("bn", C);
      for (int64_t c = 0; c < C; ++c) {
        bn->gamma().value[c] = 1.0f + 0.125f * static_cast<float>(c);
        bn->beta().value[c] = -0.25f * static_cast<float>(c);
      }
      return bn;
    };
    auto whole = make();
    const Tensor y = whole->forward(x, /*training=*/true);
    const Tensor dx = whole->backward(dy);

    auto sharded = make();
    const int64_t half = N / 2 * C * S;
    std::vector<Tensor> xs{Tensor(Shape{N / 2, C, 2, 2}),
                           Tensor(Shape{N / 2, C, 2, 2})};
    std::vector<Tensor> dys{Tensor(xs[0].shape()), Tensor(xs[0].shape())};
    for (size_t s = 0; s < 2; ++s) {
      std::memcpy(xs[s].data(), x.data() + s * half, half * sizeof(float));
      std::memcpy(dys[s].data(), dy.data() + s * half, half * sizeof(float));
    }
    std::vector<Tensor> ys, dxs;
    {
      ShardSession session(2, /*worker_cap=*/2);
      ys = sharded->forward_sharded(xs, /*training=*/true);
      dxs = sharded->backward_sharded(dys);
    }
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(same_bits(ys[s].data(), y.data() + s * half, half)) << C;
      EXPECT_TRUE(same_bits(dxs[s].data(), dx.data() + s * half, half)) << C;
    }
    EXPECT_TRUE(same_bits(sharded->gamma().grad.data(),
                          whole->gamma().grad.data(), C))
        << C;
    EXPECT_TRUE(same_bits(sharded->beta().grad.data(),
                          whole->beta().grad.data(), C))
        << C;
    EXPECT_TRUE(same_bits(sharded->running_mean().data(),
                          whole->running_mean().data(), C))
        << C;
    EXPECT_TRUE(same_bits(sharded->running_var().data(),
                          whole->running_var().data(), C))
        << C;
  }
}

// ----------------------------------------------------------- activations

TEST(ReLU, ForwardClampsNegative) {
  ReLU relu("r");
  Tensor x(Shape{4}, {-1, 0, 2, 5});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(ReLU, Relu6Caps) {
  ReLU relu6("r6", 6.0f);
  Tensor x(Shape{3}, {-1, 3, 10});
  const Tensor y = relu6.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 3.0f);
  EXPECT_EQ(y[2], 6.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu6("r6", 6.0f);
  Tensor x(Shape{3}, {-1, 3, 10});
  relu6.forward(x, true);
  Tensor g(Shape{3}, {1, 1, 1});
  const Tensor dx = relu6.backward(g);
  EXPECT_EQ(dx[0], 0.0f);  // below zero
  EXPECT_EQ(dx[1], 1.0f);  // pass
  EXPECT_EQ(dx[2], 0.0f);  // above cap
}

// Values a branch-free ReLU must treat exactly like the reference
// formula: NaN of both signs (one with a payload), +-0, +-inf,
// subnormals and the neighbours of the cap; padded with random values to
// a length with a vector body and a ragged tail.
std::vector<float> relu_specials() {
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float big = std::numeric_limits<float>::max();
  const uint32_t payload_bits = 0x7fc01234u;
  float payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  std::vector<float> v = {std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          payload_nan,
                          0.0f,
                          -0.0f,
                          inf,
                          -inf,
                          den,
                          -den,
                          1e-39f,
                          -1e-39f,
                          6.0f,
                          std::nextafter(6.0f, 0.0f),
                          std::nextafter(6.0f, 7.0f),
                          big,
                          -big};
  Rng rng(3);
  while (v.size() < 67) v.push_back(static_cast<float>(rng.uniform(-8, 8)));
  return v;
}

TEST(ReLU, SpecialValuesMatchReferenceFormulaBitForBit) {
  const std::vector<float> xs = relu_specials();
  const int64_t n = static_cast<int64_t>(xs.size());
  // dY carries the specials too, rotated so each meets pass and block.
  std::vector<float> dys(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) dys[i] = xs[(i + 5) % xs.size()];
  for (const float cap : {std::numeric_limits<float>::infinity(), 6.0f}) {
    ReLU relu("r", cap);
    Tensor x(Shape{n});
    Tensor dy(Shape{n});
    std::memcpy(x.data(), xs.data(), xs.size() * sizeof(float));
    std::memcpy(dy.data(), dys.data(), dys.size() * sizeof(float));
    std::vector<float> want_y(xs.size()), want_dx(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      const float v = xs[i];
      want_y[i] = v < 0.0f ? 0.0f : (v > cap ? cap : v);
      want_dx[i] = (v > 0.0f && v < cap) ? dys[i] : 0.0f;
    }
    const Tensor y = relu.forward(x, /*training=*/true);
    EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(),
                             want_y.size() * sizeof(float)))
        << "forward, cap=" << cap;
    const Tensor dx = relu.backward(dy);
    EXPECT_EQ(0, std::memcmp(dx.data(), want_dx.data(),
                             want_dx.size() * sizeof(float)))
        << "backward, cap=" << cap;
  }
}

// ----------------------------------------------------------------- pools

TEST(GlobalAvgPool, AveragesSpatial) {
  GlobalAvgPool gap("gap");
  Tensor x(Shape{1, 2, 2, 2});
  for (int64_t i = 0; i < 4; ++i) x[i] = static_cast<float>(i);  // ch 0
  for (int64_t i = 4; i < 8; ++i) x[i] = 10.0f;                  // ch 1
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 10.0f);
}

TEST(GlobalAvgPool, BackwardSpreadsUniformly) {
  GlobalAvgPool gap("gap");
  Tensor x(Shape{1, 1, 2, 2});
  gap.forward(x, true);
  Tensor g(Shape{1, 1}, {4.0f});
  const Tensor dx = gap.backward(g);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

TEST(MaxPool2d, PicksMaxAndRoutesGradient) {
  MaxPool2d mp("mp", 2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = mp.forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g(Shape{1, 1, 1, 1}, {2.0f});
  const Tensor dx = mp.backward(g);
  EXPECT_FLOAT_EQ(dx[1], 2.0f);  // gradient lands on argmax only
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(Flatten, RoundTrips) {
  Flatten f("flat");
  Tensor x(Shape{2, 3, 4, 4});
  const Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  const Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

// --------------------------------------------------------------- softmax

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 4});
  const float l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0f), 1e-5);
}

TEST(SoftmaxXent, PerfectPredictionNearZeroLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 3}, {100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(loss.forward(logits, {0}), 0.0f, 1e-5);
}

TEST(SoftmaxXent, GradientIsSoftmaxMinusOnehotOverN) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 2});
  loss.forward(logits, {0, 1});
  const Tensor g = loss.backward();
  EXPECT_NEAR(g.at(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(g.at(0, 1), 0.5 / 2.0, 1e-6);
  // Gradient rows sum to zero.
  EXPECT_NEAR(g.at(1, 0) + g.at(1, 1), 0.0, 1e-6);
}

TEST(SoftmaxXent, NumericallyStableForHugeLogits) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 2}, {10000.0f, -10000.0f});
  const float l = loss.forward(logits, {1});
  EXPECT_TRUE(std::isfinite(l));
  EXPECT_GT(l, 1000.0f);
}

TEST(SoftmaxXent, LabelOutOfRangeRejected) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 3});
  EXPECT_THROW(loss.forward(logits, {3}), CheckError);
  EXPECT_THROW(loss.forward(logits, {-1}), CheckError);
}

TEST(SoftmaxXent, PredictionsAreArgmax) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 3}, {0, 5, 1, 9, 2, 3});
  loss.forward(logits, {0, 0});
  EXPECT_EQ(loss.predictions()[0], 1);
  EXPECT_EQ(loss.predictions()[1], 0);
}

TEST(Accuracy, CountsMatches) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 0, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
}

// ------------------------------------------------------------ Sequential

TEST(Sequential, ComposesAndExposesParams) {
  Rng rng(1);
  Sequential net("net");
  net.emplace<Linear>("fc1", 4, 8, rng);
  net.emplace<ReLU>("r");
  net.emplace<Linear>("fc2", 8, 2, rng);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.parameters().size(), 4u);  // 2x (weight + bias)
  Tensor x(Shape{5, 4});
  const Tensor y = net.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({5, 2}));
  const Tensor dx = net.backward(Tensor(Shape{5, 2}));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Sequential, LeafCollection) {
  Rng rng(1);
  Sequential net("net");
  net.emplace<Linear>("fc1", 4, 8, rng);
  net.emplace<ReLU>("r");
  auto leaves = leaves_of(net);
  EXPECT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0]->name(), "fc1");
}

}  // namespace
}  // namespace apt::nn
