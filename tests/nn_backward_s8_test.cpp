// Tests for the quantized backward pass (DESIGN.md §14): engagement
// gating, STE-aware agreement of the int8 gradient GEMMs with the fp32
// analytic backward (error bounded by the gradient / activation grid
// steps), bit-identity of the integer backward across thread
// decompositions and worker counts, and the backward path's steady-state
// scratch watermark.
#include <gtest/gtest.h>

#include <cmath>
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
#include "data/loader.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "quant/affine.hpp"
#include "train/sharded_step.hpp"

namespace apt::nn {
namespace {

// Scoped force-serial override for the global pool.
class SerialGuard {
 public:
  explicit SerialGuard(bool on) : prev_(ThreadPool::force_serial()) {
    ThreadPool::set_force_serial(on);
  }
  ~SerialGuard() { ThreadPool::set_force_serial(prev_); }

 private:
  bool prev_;
};

void attach_weight_grid(Parameter& p, int bits) {
  core::GridOptions go;
  go.bits = bits;
  p.rep = std::make_shared<core::GridRepresentation>(p, go);
}

Tensor random_tensor(Shape shape, Rng& rng, float stddev = 1.0f) {
  Tensor t(std::move(shape));
  rng.fill_normal(t, 0.0f, stddev);
  return t;
}

void zero_grads(Layer& layer) {
  for (Parameter* p : layer.parameters())
    std::fill(p->grad.data(), p->grad.data() + p->numel(), 0.0f);
}

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (float v : t.span()) m = std::max(m, std::fabs(v));
  return m;
}

// The int8-gating and cache claims below hold for every GemmLayer: one
// typed suite runs them on a Conv2d and a Linear.
template <typename L>
struct GemmCase;

template <>
struct GemmCase<Linear> {
  static std::unique_ptr<Linear> make(uint64_t seed) {
    Rng rng(seed);
    return std::make_unique<Linear>("fc", 16, 8, rng);
  }
  static Shape input(int64_t n) { return Shape{n, 16}; }
  static Shape output(int64_t n) { return Shape{n, 8}; }
};

template <>
struct GemmCase<Conv2d> {
  static std::unique_ptr<Conv2d> make(uint64_t seed) {
    Conv2dOptions o;
    o.in_channels = 3;
    o.out_channels = 4;
    o.kernel = 3;
    o.padding = 1;
    o.bias = true;
    Rng rng(seed);
    return std::make_unique<Conv2d>("conv", o, rng);
  }
  static Shape input(int64_t n) { return Shape{n, 3, 6, 6}; }
  static Shape output(int64_t n) { return Shape{n, 4, 6, 6}; }
};

template <typename L>
class GemmLayerInt8Bwd : public ::testing::Test {};
using GemmLayerTypes = ::testing::Types<Conv2d, Linear>;
TYPED_TEST_SUITE(GemmLayerInt8Bwd, GemmLayerTypes);

TYPED_TEST(GemmLayerInt8Bwd, EngagesFromSecondBackwardOnly) {
  using Case = GemmCase<TypeParam>;
  auto layer = Case::make(1);
  attach_weight_grid(layer->weight(), 6);
  Rng rng(2);
  Tensor x = random_tensor(Case::input(4), rng);
  Tensor dy = random_tensor(Case::output(4), rng);

  BackendGuard guard(GemmBackend::kInt8);
  layer->forward(x, true);
  layer->backward(dy);
  // First backward: the gradient tracker was uninitialised when the
  // quantiser would have read it — fp32 fallback, range observed.
  EXPECT_FALSE(layer->last_backward_was_int8());
  EXPECT_TRUE(layer->gradient_range().initialized());

  layer->forward(x, true);
  layer->backward(dy);
  EXPECT_TRUE(layer->last_backward_was_int8());

  // Backward honours the backend switch even with the tracker primed.
  BackendGuard fp32(GemmBackend::kPacked);
  layer->forward(x, true);
  layer->backward(dy);
  EXPECT_FALSE(layer->last_backward_was_int8());
}

// An evaluation forward between a training forward and its backward
// (a mid-epoch accuracy probe) must not change the gradient: the int8
// backward reads the training forward's input codes, never the eval
// pass's. Two identical layers, one with an eval forward in between,
// must produce bit-identical dX, dW and db.
TYPED_TEST(GemmLayerInt8Bwd, EvalForwardBetweenForwardAndBackward) {
  using Case = GemmCase<TypeParam>;
  auto a = Case::make(3);
  auto b = Case::make(3);
  attach_weight_grid(a->weight(), 8);
  attach_weight_grid(b->weight(), 8);
  Rng rng(4);
  Tensor x = random_tensor(Case::input(4), rng);
  Tensor x_eval = random_tensor(Case::input(8), rng, 3.0f);
  Tensor dy = random_tensor(Case::output(4), rng, 0.5f);

  BackendGuard g8(GemmBackend::kInt8);
  // Prime both: the first backward runs fp32 and observes the dY range.
  for (auto* l : {a.get(), b.get()}) {
    l->forward(x, true);
    l->backward(dy);
    zero_grads(*l);
  }

  a->forward(x, true);
  a->forward(x_eval, false);
  ASSERT_TRUE(a->last_forward_was_int8());
  const Tensor dx_a = a->backward(dy);
  b->forward(x, true);
  const Tensor dx_b = b->backward(dy);
  ASSERT_TRUE(a->last_backward_was_int8());
  ASSERT_TRUE(b->last_backward_was_int8());

  EXPECT_EQ(0, std::memcmp(dx_a.data(), dx_b.data(),
                           sizeof(float) * static_cast<size_t>(dx_a.numel())));
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(0, std::memcmp(pa[i]->grad.data(), pb[i]->grad.data(),
                             sizeof(float) *
                                 static_cast<size_t>(pa[i]->numel())))
        << pa[i]->name;
}

TEST(LinearInt8Bwd, MatchesFp32WithinQuantBound) {
  const int64_t n = 8, in = 16, out = 12;
  Rng rng_a(2), rng_b(2);  // identical weights in both layers
  Linear a("fc", in, out, rng_a);
  Linear b("fc", in, out, rng_b);
  attach_weight_grid(a.weight(), 8);
  attach_weight_grid(b.weight(), 8);

  Rng rng(3);
  Tensor x = random_tensor(Shape{n, in}, rng);
  Tensor dy1 = random_tensor(Shape{n, out}, rng, 0.5f);
  Tensor dy2 = random_tensor(Shape{n, out}, rng, 0.5f);

  // Prime both: step 1 runs the fp32 backward everywhere (and observes
  // the dY range), so both layers enter step 2 in the same grad state.
  {
    BackendGuard g8(GemmBackend::kInt8);
    a.forward(x, true);
    a.backward(dy1);
  }
  {
    BackendGuard gf(GemmBackend::kPacked);
    b.forward(x, true);
    b.backward(dy1);
  }
  zero_grads(a);
  zero_grads(b);

  Tensor dx_a, dx_b;
  {
    BackendGuard g8(GemmBackend::kInt8);
    a.forward(x, true);
    dx_a = a.backward(dy2);
    ASSERT_TRUE(a.last_backward_was_int8());
  }
  {
    BackendGuard gf(GemmBackend::kPacked);
    b.forward(x, true);
    dx_b = b.backward(dy2);
    ASSERT_FALSE(b.last_backward_was_int8());
  }

  // Both backwards see identical fp32 dY and identical (dequantised)
  // weight values, so the difference is bounded by the quantisation
  // steps: SR perturbs each dY element by < eps_g (on the kGradSrBits
  // grid), round-nearest perturbs each X element by <= 0.51*eps_x.
  const quant::QuantParams gq = quant::choose_params(
      a.gradient_range().lo(), a.gradient_range().hi(), nn::kGradSrBits);
  const quant::QuantParams xq = quant::choose_params(
      a.activation_range().lo(), a.activation_range().hi(), 8);
  const auto eps_g = static_cast<float>(gq.epsilon());
  const auto eps_x = static_cast<float>(xq.epsilon());
  const float wmax = max_abs(a.weight().value);
  const float xmax = max_abs(x) + eps_x;
  const float dymax = max_abs(dy2) + eps_g;

  const float dx_bound = static_cast<float>(out) * eps_g * wmax + 1e-4f;
  for (int64_t i = 0; i < dx_a.numel(); ++i)
    ASSERT_NEAR(dx_a[i], dx_b[i], dx_bound) << "dx i=" << i;

  const float dw_bound =
      static_cast<float>(n) * (eps_g * xmax + dymax * 0.51f * eps_x) + 1e-4f;
  for (int64_t i = 0; i < a.weight().numel(); ++i)
    ASSERT_NEAR(a.weight().grad[i], b.weight().grad[i], dw_bound)
        << "dw i=" << i;

  // The bias gradient reduces the raw fp32 dY on both paths: bit-equal.
  EXPECT_EQ(0, std::memcmp(a.parameters()[1]->grad.data(),
                           b.parameters()[1]->grad.data(),
                           sizeof(float) * static_cast<size_t>(out)));
}

TEST(Conv2dInt8Bwd, MatchesFp32WithinQuantBound) {
  Conv2dOptions o;
  o.in_channels = 4;
  o.out_channels = 6;
  o.kernel = 3;
  o.padding = 1;
  o.bias = true;
  const int64_t N = 3, HW = 8;
  Rng rng_a(4), rng_b(4);
  Conv2d a("conv", o, rng_a);
  Conv2d b("conv", o, rng_b);
  attach_weight_grid(a.weight(), 8);
  attach_weight_grid(b.weight(), 8);

  Rng rng(5);
  Tensor x = random_tensor(Shape{N, o.in_channels, HW, HW}, rng);
  Tensor dy1 = random_tensor(Shape{N, o.out_channels, HW, HW}, rng, 0.5f);
  Tensor dy2 = random_tensor(Shape{N, o.out_channels, HW, HW}, rng, 0.5f);

  {
    BackendGuard g8(GemmBackend::kInt8);
    a.forward(x, true);
    a.backward(dy1);
    EXPECT_FALSE(a.last_backward_was_int8());
  }
  {
    BackendGuard gf(GemmBackend::kPacked);
    b.forward(x, true);
    b.backward(dy1);
  }
  zero_grads(a);
  zero_grads(b);

  Tensor dx_a, dx_b;
  {
    BackendGuard g8(GemmBackend::kInt8);
    a.forward(x, true);
    dx_a = a.backward(dy2);
    ASSERT_TRUE(a.last_backward_was_int8());
  }
  {
    BackendGuard gf(GemmBackend::kPacked);
    b.forward(x, true);
    dx_b = b.backward(dy2);
  }

  const quant::QuantParams gq = quant::choose_params(
      a.gradient_range().lo(), a.gradient_range().hi(), nn::kGradSrBits);
  const quant::QuantParams xq = quant::choose_params(
      a.activation_range().lo(), a.activation_range().hi(), 8);
  const auto eps_g = static_cast<float>(gq.epsilon());
  const auto eps_x = static_cast<float>(xq.epsilon());
  const float wmax = max_abs(a.weight().value);
  const float xmax = max_abs(x) + eps_x;
  const float dymax = max_abs(dy2) + eps_g;
  const int64_t kk = o.kernel * o.kernel;

  // Each dx element sums at most kernel^2 dcols entries, each off by at
  // most ocg * eps_g * wmax; each dW element sums N*OH*OW products.
  const float dx_bound = static_cast<float>(kk * o.out_channels) * eps_g *
                             wmax + 1e-4f;
  for (int64_t i = 0; i < dx_a.numel(); ++i)
    ASSERT_NEAR(dx_a[i], dx_b[i], dx_bound) << "dx i=" << i;

  const float dw_bound = static_cast<float>(N * HW * HW) *
                             (eps_g * xmax + dymax * 0.51f * eps_x) + 1e-4f;
  for (int64_t i = 0; i < a.weight().numel(); ++i)
    ASSERT_NEAR(a.weight().grad[i], b.weight().grad[i], dw_bound)
        << "dw i=" << i;

  EXPECT_EQ(0, std::memcmp(a.parameters()[1]->grad.data(),
                           b.parameters()[1]->grad.data(),
                           sizeof(float) * static_cast<size_t>(
                               o.out_channels)));
}

// -- exactness differential for the integer conv ------------------------
//
// One seed is one case: a counter-keyed Philox stream (base/rng.hpp)
// draws the geometry (groups 1, 2 or depthwise; channel counts that are
// not multiples of 4; odd H x W; kernel 1/3/5, stride 1/2, padding
// 0..kernel), the batch, the weight bits (4-8, so every integer route
// runs somewhere in the forward or backward), force-serial or pooled
// dispatch and the SIMD cap. The case runs one integer Conv2d training
// forward and backward and checks their bits against references built
// here from the codes the layer consumed:
//  * y is float(Sa*Sb*T + bias), T the int64 sum of the forward conv
//    (the n = 1, groups = 1 cases run the lone GEMM of a one-sample
//    batch);
//  * dX is float(Sa*Sb*T), T the int64 sum of the transposed conv;
//  * dW is the per-sample formulation: each (sample, group) exact sum
//    dequantised once, summed in fp32 within each of min(N, 16) sample
//    chunks, the chunks added in order;
//  * db is each channel's fp32 sum of the raw dY, samples in order;
//  * a 1x1 conv's dX also equals the dcols + col2im formulation.
// The pool's width is fixed per process; ctest's APT_NUM_THREADS runs
// cover the other widths.

struct DiffCase {
  uint64_t seed;
  Conv2dOptions o;
  int64_t n, h, w;
  int bits;
  bool serial;
  SimdLevel level;

  explicit DiffCase(uint64_t s) : seed(s) {
    uint64_t counter = 0;
    auto draw = [&](int64_t lo, int64_t hi) {
      const uint32_t word = philox_u32(0xd1ffc0deULL ^ s, counter++);
      return lo + static_cast<int64_t>(word % static_cast<uint32_t>(hi - lo + 1));
    };
    const int64_t kind = draw(0, 2);  // groups 1, 2, depthwise
    const int64_t icg = kind == 2 ? 1 : draw(1, 9);
    const int64_t ocg = kind == 2 ? 1 : draw(1, 9);
    o.groups = kind == 0 ? 1 : kind == 1 ? 2 : draw(2, 6);
    o.in_channels = icg * o.groups;
    o.out_channels = ocg * o.groups;
    o.kernel = 2 * draw(0, 2) + 1;
    o.stride = draw(1, 2);
    o.padding = draw(0, o.kernel);
    o.bias = true;
    const int64_t batches[] = {1, 2, 3, 5, 17};
    n = batches[draw(0, 4)];
    h = 2 * draw(2, 6) + 1;
    w = 2 * draw(2, 6) + 1;
    bits = static_cast<int>(draw(4, 8));
    serial = draw(0, 2) == 0;  // one of "threads" 1 / 2 / 8
    const std::vector<SimdLevel> levels = host_simd_levels();
    level = levels[static_cast<size_t>(
        draw(0, static_cast<int64_t>(levels.size()) - 1))];
  }

  std::string str() const {
    return "repro: seed " + std::to_string(seed) + " (ic=" +
           std::to_string(o.in_channels) + " oc=" +
           std::to_string(o.out_channels) + " g=" + std::to_string(o.groups) +
           " k=" + std::to_string(o.kernel) + " s=" +
           std::to_string(o.stride) + " p=" + std::to_string(o.padding) +
           " n=" + std::to_string(n) + " " + std::to_string(h) + "x" +
           std::to_string(w) + " bits=" + std::to_string(bits) +
           (serial ? " serial" : " pooled") + " " + simd_level_name(level) +
           ")";
  }
};

// Int64 reference sums over one case's codes: the conv's geometry, the
// input codes x [N, IC, H, W] (grid xq), the weight codes w (grid wq),
// and dY's codes dy [N, OC, OH, OW] (grid gq).
struct ConvCodes {
  const Conv2dOptions& o;
  int64_t n, h, w, oh, ow;
  const uint8_t* x;
  const uint8_t* wc;
  const uint8_t* dy;
  int64_t zx, zw, zg;

  int64_t icg() const { return o.in_channels / o.groups; }
  int64_t ocg() const { return o.out_channels / o.groups; }
  int64_t wv(int64_t oc, int64_t c, int64_t kh, int64_t kw) const {
    return wc[((oc * icg() + c) * o.kernel + kh) * o.kernel + kw] - zw;
  }
  int64_t gv(int64_t s, int64_t oc, int64_t y, int64_t xo) const {
    return dy[((s * o.out_channels + oc) * oh + y) * ow + xo] - zg;
  }
  // y[s][oc][yo][xo] before scale and bias; padding reads the
  // zero-point (adds 0).
  int64_t y_sum(int64_t s, int64_t oc, int64_t yo, int64_t xo) const {
    const int64_t ic0 = oc / ocg() * icg();
    int64_t t = 0;
    for (int64_t c = 0; c < icg(); ++c)
      for (int64_t kh = 0; kh < o.kernel; ++kh)
        for (int64_t kw = 0; kw < o.kernel; ++kw) {
          const int64_t yi = yo * o.stride - o.padding + kh;
          const int64_t xi = xo * o.stride - o.padding + kw;
          if (yi < 0 || yi >= h || xi < 0 || xi >= w) continue;
          t += wv(oc, c, kh, kw) *
               (x[((s * o.in_channels + ic0 + c) * h + yi) * w + xi] - zx);
        }
    return t;
  }
  // dX[s][c][y][xi]: every (oc, kh, kw) whose output position lands.
  int64_t dx_sum(int64_t s, int64_t c, int64_t y, int64_t xi) const {
    const int64_t g = c / icg();
    int64_t t = 0;
    for (int64_t r = 0; r < ocg(); ++r)
      for (int64_t kh = 0; kh < o.kernel; ++kh)
        for (int64_t kw = 0; kw < o.kernel; ++kw) {
          const int64_t yy = y + o.padding - kh, xx = xi + o.padding - kw;
          if (yy < 0 || xx < 0 || yy % o.stride != 0 || xx % o.stride != 0)
            continue;
          if (yy / o.stride >= oh || xx / o.stride >= ow) continue;
          const int64_t oc = g * ocg() + r;
          t += wv(oc, c % icg(), kh, kw) *
               gv(s, oc, yy / o.stride, xx / o.stride);
        }
    return t;
  }
  // Sample s's dW[oc][c][kh][kw]; padding reads the zero-point (adds 0).
  int64_t dw_sum(int64_t s, int64_t oc, int64_t c, int64_t kh,
                 int64_t kw) const {
    const int64_t ic = oc / ocg() * icg() + c;
    int64_t t = 0;
    for (int64_t y = 0; y < oh; ++y)
      for (int64_t xo = 0; xo < ow; ++xo) {
        const int64_t yi = y * o.stride - o.padding + kh;
        const int64_t xi = xo * o.stride - o.padding + kw;
        if (yi < 0 || yi >= h || xi < 0 || xi >= w) continue;
        t += gv(s, oc, y, xo) *
             (x[((s * o.in_channels + ic) * h + yi) * w + xi] - zx);
      }
    return t;
  }
};

void run_diff_case(const DiffCase& dc) {
  SCOPED_TRACE(dc.str());
  const Conv2dOptions& o = dc.o;
  Rng rng(dc.seed);
  Conv2d conv("diff", o, rng);
  attach_weight_grid(conv.weight(), dc.bits);
  rng.fill_normal(conv.bias().value, 0.0f, 0.1f);
  const int64_t oh = (dc.h + 2 * o.padding - o.kernel) / o.stride + 1;
  const int64_t ow = (dc.w + 2 * o.padding - o.kernel) / o.stride + 1;
  const int64_t oc_n = dc.n * o.out_channels * oh * ow;

  QuantizedActivation qx;
  qx.shape = Shape{dc.n, o.in_channels, dc.h, dc.w};
  qx.params.scale = 0.02;
  qx.params.zero_point = static_cast<int64_t>(rng.randint(0, 255));
  qx.codes.resize(static_cast<size_t>(qx.shape.numel()));
  for (uint8_t& c : qx.codes) c = static_cast<uint8_t>(rng.randint(0, 255));
  Tensor dy1 = random_tensor(Shape{dc.n, o.out_channels, oh, ow}, rng, 0.5f);
  Tensor dy2 = random_tensor(Shape{dc.n, o.out_channels, oh, ow}, rng, 0.5f);

  BackendGuard g8(GemmBackend::kInt8);
  SimdCapScope cap(dc.level);
  // The first backward runs fp32 and starts the gradient range.
  conv.forward_flow(Tensor(), &qx, true, false, nullptr);
  conv.backward(dy1);
  zero_grads(conv);

  // The codes the integer backward will consume.
  sr_set_step(dc.seed);
  const quant::QuantParams gq =
      quant::choose_params(conv.gradient_range().lo(),
                           conv.gradient_range().hi(), kGradSrBits);
  std::vector<uint8_t> dyc(static_cast<size_t>(oc_n));
  quant::quantize_codes_u8_sr(dy2.data(), oc_n, gq,
                              sr_mix_key(fnv1a64("diff"), sr_step()), 0,
                              dyc.data());

  Tensor y, dx;
  {
    SerialGuard serial(dc.serial);
    y = conv.forward_flow(Tensor(), &qx, true, false, nullptr);
    dx = conv.backward(dy2);
  }
  ASSERT_TRUE(conv.last_forward_was_int8());
  ASSERT_TRUE(conv.last_backward_was_int8());

  const quant::QuantizedTensor* wq = conv.weight().rep->quantized_view();
  const ConvCodes cc{o,
                     dc.n,
                     dc.h,
                     dc.w,
                     oh,
                     ow,
                     qx.codes.data(),
                     wq->codes_u8(),
                     dyc.data(),
                     qx.params.zero_point,
                     wq->params().zero_point,
                     gq.zero_point};

  // y: one rounding per element, the bias added in double.
  const double sab_y = wq->params().scale * qx.params.scale;
  std::vector<float> y_want(static_cast<size_t>(y.numel()));
  for (int64_t s = 0; s < dc.n; ++s)
    for (int64_t oc = 0; oc < o.out_channels; ++oc)
      for (int64_t p = 0; p < oh * ow; ++p)
        y_want[static_cast<size_t>((s * o.out_channels + oc) * oh * ow + p)] =
            static_cast<float>(
                sab_y * static_cast<double>(cc.y_sum(s, oc, p / ow, p % ow)) +
                static_cast<double>(conv.bias().value[oc]));
  ASSERT_EQ(0, std::memcmp(y_want.data(), y.data(),
                           y_want.size() * sizeof(float)))
      << "y";

  // dX: one rounding per element.
  const double sab_x = wq->params().scale * gq.scale;
  std::vector<float> want(static_cast<size_t>(dx.numel()));
  for (int64_t s = 0; s < dc.n; ++s)
    for (int64_t c = 0; c < o.in_channels; ++c)
      for (int64_t y = 0; y < dc.h; ++y)
        for (int64_t xi = 0; xi < dc.w; ++xi)
          want[static_cast<size_t>(((s * o.in_channels + c) * dc.h + y) *
                                       dc.w +
                                   xi)] = static_cast<float>(
              sab_x * static_cast<double>(cc.dx_sum(s, c, y, xi)));
  ASSERT_EQ(0, std::memcmp(want.data(), dx.data(),
                           want.size() * sizeof(float)))
      << "dX";

  // A 1x1 conv's dX is also the old dcols + col2im result.
  if (o.kernel == 1) {
    Tensor old(dx.shape());
    std::vector<float> dcols(static_cast<size_t>(cc.icg() * oh * ow));
    for (int64_t s = 0; s < dc.n; ++s)
      for (int64_t g = 0; g < o.groups; ++g) {
        for (int64_t c = 0; c < cc.icg(); ++c)
          for (int64_t p = 0; p < oh * ow; ++p) {
            int64_t t = 0;
            for (int64_t r = 0; r < cc.ocg(); ++r) {
              const int64_t oc = g * cc.ocg() + r;
              t += cc.wv(oc, c, 0, 0) * cc.gv(s, oc, p / ow, p % ow);
            }
            dcols[static_cast<size_t>(c * oh * ow + p)] =
                static_cast<float>(sab_x * static_cast<double>(t));
          }
        col2im_reference(dcols.data(), s, g * cc.icg(), cc.icg(), 1,
                         o.stride, o.padding, oh, ow, old);
      }
    ASSERT_EQ(0, std::memcmp(old.data(), dx.data(),
                             want.size() * sizeof(float)))
        << "1x1 dX vs dcols + col2im";
  }

  // dW: per (sample, group) float(Sa*Sb*T), summed per sample chunk.
  const double sab_w = gq.scale * qx.params.scale;
  const int64_t wn = conv.weight().numel();
  const int64_t kk = o.kernel * o.kernel;
  const int64_t chunks = std::min<int64_t>(dc.n, 16);
  const int64_t step = (dc.n + chunks - 1) / chunks;
  std::vector<float> dw_want(static_cast<size_t>(wn), 0.0f);
  for (int64_t chunk = 0; chunk < chunks; ++chunk) {
    std::vector<float> acc(static_cast<size_t>(wn), 0.0f);
    for (int64_t s = chunk * step; s < std::min(dc.n, (chunk + 1) * step);
         ++s)
      for (int64_t oc = 0; oc < o.out_channels; ++oc)
        for (int64_t c = 0; c < cc.icg(); ++c)
          for (int64_t tap = 0; tap < kk; ++tap)
            acc[static_cast<size_t>((oc * cc.icg() + c) * kk + tap)] +=
                static_cast<float>(
                    sab_w * static_cast<double>(cc.dw_sum(
                                s, oc, c, tap / o.kernel, tap % o.kernel)));
    for (int64_t i = 0; i < wn; ++i)
      dw_want[static_cast<size_t>(i)] += acc[static_cast<size_t>(i)];
  }
  ASSERT_EQ(0, std::memcmp(dw_want.data(), conv.weight().grad.data(),
                           dw_want.size() * sizeof(float)))
      << "dW";

  // db: the raw fp32 dY, per channel, samples then positions in order.
  std::vector<float> db_want(static_cast<size_t>(o.out_channels));
  for (int64_t oc = 0; oc < o.out_channels; ++oc) {
    float acc = 0.0f;
    for (int64_t s = 0; s < dc.n; ++s)
      for (int64_t p = 0; p < oh * ow; ++p)
        acc += dy2[((s * o.out_channels + oc) * oh * ow) + p];
    db_want[static_cast<size_t>(oc)] = 0.0f + acc;
  }
  ASSERT_EQ(0, std::memcmp(db_want.data(), conv.bias().grad.data(),
                           db_want.size() * sizeof(float)))
      << "db";
}

TEST(Conv2dInt8Bwd, ExactDifferentialOverRandomCases) {
  // A failure names its seed; to rerun only it, set kFirstSeed to it and
  // kCases to 1.
  constexpr uint64_t kFirstSeed = 1;
  constexpr uint64_t kCases = 200;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kCases; ++seed) {
    run_diff_case(DiffCase(seed));
    if (HasFatalFailure()) return;
  }
}

// The integer backward's bits must not depend on how the pool splits the
// work: prime two identical layers, then run one backward force-serial
// and one pooled, and require bit-identical dX / dW / db.
TEST(LinearInt8Bwd, BitIdenticalSerialVsPooled) {
  const int64_t n = 32, in = 48, out = 24;
  Rng rng_a(6), rng_b(6);
  Linear a("fc", in, out, rng_a);
  Linear b("fc", in, out, rng_b);
  attach_weight_grid(a.weight(), 6);
  attach_weight_grid(b.weight(), 6);

  Rng rng(7);
  Tensor x = random_tensor(Shape{n, in}, rng);
  Tensor dy = random_tensor(Shape{n, out}, rng, 0.5f);

  BackendGuard g8(GemmBackend::kInt8);
  a.forward(x, true);
  a.backward(dy);
  b.forward(x, true);
  b.backward(dy);
  zero_grads(a);
  zero_grads(b);

  a.forward(x, true);
  b.forward(x, true);
  Tensor dx_a, dx_b;
  {
    SerialGuard serial(true);
    dx_a = a.backward(dy);
  }
  dx_b = b.backward(dy);
  ASSERT_TRUE(a.last_backward_was_int8());
  ASSERT_TRUE(b.last_backward_was_int8());

  EXPECT_EQ(0, std::memcmp(dx_a.data(), dx_b.data(),
                           sizeof(float) * static_cast<size_t>(n * in)));
  EXPECT_EQ(0, std::memcmp(a.weight().grad.data(), b.weight().grad.data(),
                           sizeof(float) * static_cast<size_t>(in * out)));
}

TEST(Conv2dInt8Bwd, BitIdenticalSerialVsPooled) {
  Conv2dOptions o;
  o.in_channels = 8;
  o.out_channels = 8;
  o.kernel = 3;
  o.padding = 1;
  const int64_t N = 6, HW = 10;
  Rng rng_a(8), rng_b(8);
  Conv2d a("conv", o, rng_a);
  Conv2d b("conv", o, rng_b);
  attach_weight_grid(a.weight(), 6);
  attach_weight_grid(b.weight(), 6);

  Rng rng(9);
  Tensor x = random_tensor(Shape{N, o.in_channels, HW, HW}, rng);
  Tensor dy = random_tensor(Shape{N, o.out_channels, HW, HW}, rng, 0.5f);

  BackendGuard g8(GemmBackend::kInt8);
  a.forward(x, true);
  a.backward(dy);
  b.forward(x, true);
  b.backward(dy);
  zero_grads(a);
  zero_grads(b);

  a.forward(x, true);
  b.forward(x, true);
  Tensor dx_a, dx_b;
  {
    SerialGuard serial(true);
    dx_a = a.backward(dy);
  }
  dx_b = b.backward(dy);
  ASSERT_TRUE(a.last_backward_was_int8());
  ASSERT_TRUE(b.last_backward_was_int8());

  EXPECT_EQ(0, std::memcmp(dx_a.data(), dx_b.data(),
                           sizeof(float) * static_cast<size_t>(dx_a.numel())));
  EXPECT_EQ(0, std::memcmp(a.weight().grad.data(), b.weight().grad.data(),
                           sizeof(float) *
                               static_cast<size_t>(a.weight().numel())));
}

// Full training steps through ShardedStep must produce bit-identical
// gradients for any worker count: the shard decomposition is fixed by
// (batch, grain), the SR counter streams are indexed by batch-global
// element, and every reduction runs in shard order.
TEST(Int8Bwd, ShardedStepBitIdenticalAcrossWorkerCounts) {
  auto build = [](uint64_t seed) {
    auto net = std::make_unique<Sequential>("net");
    Rng rng(seed);
    Conv2dOptions o;
    o.in_channels = 2;
    o.out_channels = 4;
    o.kernel = 3;
    o.padding = 1;
    net->emplace<Conv2d>("c1", o, rng);
    net->emplace<ReLU>("r1");
    net->emplace<Flatten>("flat");
    net->emplace<Linear>("fc", 4 * 6 * 6, 5, rng);
    return net;
  };

  Rng rng(10);
  data::Batch batch;
  batch.inputs = random_tensor(Shape{8, 2, 6, 6}, rng);
  batch.labels = {0, 1, 2, 3, 4, 0, 1, 2};

  BackendGuard g8(GemmBackend::kInt8);
  auto run = [&](int workers) {
    auto net = build(42);
    for (Layer* leaf : leaves_of(*net))
      for (Parameter* p : leaf->parameters())
        if (p->name.find("weight") != std::string::npos)
          attach_weight_grid(*p, 6);
    train::ShardedStepConfig cfg;
    cfg.num_workers = workers;
    cfg.shard_grain = 2;  // 4 shards, independent of the worker count
    train::ShardedStep step(*net, cfg);
    sr_set_step(1000);  // process-global counter: pin for comparability
    for (int it = 0; it < 3; ++it) step.run(batch, nullptr);
    std::vector<std::vector<float>> grads;
    for (Parameter* p : net->parameters())
      grads.emplace_back(p->grad.data(), p->grad.data() + p->numel());
    return grads;
  };

  const auto g1 = run(1);
  const auto g8w = run(8);
  ASSERT_EQ(g1.size(), g8w.size());
  for (size_t i = 0; i < g1.size(); ++i) {
    ASSERT_EQ(g1[i].size(), g8w[i].size());
    EXPECT_EQ(0, std::memcmp(g1[i].data(), g8w[i].data(),
                             g1[i].size() * sizeof(float)))
        << "param " << i;
  }
}

// Steady-state scratch watermark: after the first quantized backward has
// sized the arena, further fwd+bwd steps allocate nothing new (satellite
// of DESIGN.md §14 — training memory is the paper's budget).
TEST(Int8Bwd, NoSteadyStateScratchGrowthAfterFirstStep) {
  Conv2dOptions o;
  o.in_channels = 4;
  o.out_channels = 4;
  o.kernel = 3;
  o.padding = 1;
  Rng rng(11);
  Conv2d conv("conv", o, rng);
  attach_weight_grid(conv.weight(), 6);
  Tensor x = random_tensor(Shape{2, 4, 8, 8}, rng);
  Tensor dy = random_tensor(Shape{2, 4, 8, 8}, rng, 0.5f);

  BackendGuard g8(GemmBackend::kInt8);
  // Keep every allocation on this thread so one arena sees the path.
  ThreadPool::InlineScope inline_scope;
  ScratchArena& arena = ScratchArena::thread_local_arena();

  conv.forward(x, true);
  conv.backward(dy);  // fp32 fallback step
  conv.forward(x, true);
  conv.backward(dy);  // first int8 backward: sizes the arena
  ASSERT_TRUE(conv.last_backward_was_int8());

  const size_t cap = arena.capacity();
  arena.reset_peak();
  conv.forward(x, true);
  conv.backward(dy);
  const size_t peak = arena.peak_in_use();
  EXPECT_EQ(arena.capacity(), cap) << "backward grew the arena after step 1";

  arena.reset_peak();
  conv.forward(x, true);
  conv.backward(dy);
  EXPECT_EQ(arena.peak_in_use(), peak) << "backward watermark not stable";
  EXPECT_EQ(arena.capacity(), cap);
}

}  // namespace
}  // namespace apt::nn
