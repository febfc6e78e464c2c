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
