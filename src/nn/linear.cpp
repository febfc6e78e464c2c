#include "nn/linear.hpp"

#include <algorithm>

#include "base/arena.hpp"
#include "base/thread_pool.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/init.hpp"
#include "nn/plan.hpp"

namespace apt::nn {

Linear::Linear(std::string name, int64_t in_features, int64_t out_features,
               Rng& rng, bool bias)
    : GemmLayer(std::move(name), Shape{out_features, in_features},
                out_features, bias),
      in_(in_features),
      out_(out_features) {
  he_normal(weight_.value, in_, rng);
}

void Linear::check_input(const Shape& in_shape) {
  APT_CHECK(in_shape.rank() == 2 && in_shape[1] == in_)
      << name_ << ": bad input " << in_shape.str();
}

Tensor Linear::forward_fp32(const Tensor& x) {
  const int64_t n = x.dim(0);
  Tensor y = Tensor::uninitialized(Shape{n, out_});
  // y[N,out] = x[N,in] * W^T[in,out]
  gemm(false, true, n, out_, in_, 1.0f, x.data(), weight_.value.data(), 0.0f,
       y.data());

  if (has_bias_) {
    // Rows are independent; batch them through the pool with a grain that
    // keeps small layers from fragmenting into tiny tasks.
    const float* b = bias_.value.data();
    ThreadPool::global().parallel_for(
        0, n,
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            float* row = y.data() + i * out_;
            for (int64_t j = 0; j < out_; ++j) row[j] += b[j];
          }
        },
        std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, out_)));
  }
  return y;
}

Tensor Linear::forward_int8(const uint8_t* x, const quant::QuantParams& xq,
                            const Shape& x_shape, QuantizedActivation* qy,
                            std::pair<float, float>* observed) {
  const int64_t n = x_shape[0];
  Tensor y;
  const S8ForwardArgs args =
      int8_forward_args(x, xq, Shape{n, out_}, qy, &y);
  // One plan per (batch, layer shape, weight ceiling); a cache hit after
  // the first forward.
  linear_s8_forward(
      plan_for(linear_s8_plan_key(n, in_, out_, args.w_max)),
      args, &observed->first, &observed->second);
  return y;
}

Tensor Linear::backward_fp32(const Tensor& x, const Tensor& dy) {
  const int64_t n = dy.dim(0);
  // dW[out,in] += dY^T[out,N] * X[N,in]
  gemm(true, false, out_, in_, n, 1.0f, dy.data(), x.data(), 1.0f,
       grad_sink(weight_).data());
  // dX[N,in] = dY[N,out] * W[out,in]
  Tensor dx = Tensor::uninitialized(Shape{n, in_});
  gemm(false, false, n, in_, out_, 1.0f, dy.data(), weight_.value.data(),
       0.0f, dx.data());
  return dx;
}

Tensor Linear::backward_int8(const QuantizedActivation& x, const uint8_t* dy,
                             const quant::QuantParams& gq,
                             const Shape& dy_shape) {
  const int64_t n = dy_shape[0];
  const quant::QuantizedTensor* wq = int8_weights();
  const quant::QuantParams& xq = x.params;

  // dW[out,in] += dYq^T[out,N] · Xq[N,in] — exact integer product of the
  // two code planes (zero-point corrections from the packing sums), one
  // float scale per element; gemm_s8 overwrites, so stage in scratch and
  // accumulate into the sink (element-wise: deterministic for any
  // chunking).
  GemmS8Params pw = s8_params(gq, xq);
  pw.max_a = static_cast<int32_t>(quant::max_code(kGradSrBits));
  pw.max_b = static_cast<int32_t>(quant::max_code(xq.bits));
  const KernelPlan& plan_dw = plan_for(
      PlanKey::s8(out_, in_, n, /*trans_a=*/true, /*trans_b=*/false,
                  pw.max_a, pw.max_b));
  ScratchArena::Scope scope(ScratchArena::thread_local_arena());
  float* dw = scope.alloc_floats(static_cast<size_t>(out_ * in_));
  GemmS8Args gw;
  gw.a = dy;
  gw.b = x.codes.data();
  gw.params = pw;
  gw.out = dw;
  gemm_s8_ex(plan_dw, gw);
  float* sink = grad_sink(weight_).data();
  const int64_t wn = out_ * in_;
  auto add_range = [&](int64_t e0, int64_t e1) {
    for (int64_t e = e0; e < e1; ++e) sink[e] += dw[e];
  };
  if (wn < (1 << 14)) {
    add_range(0, wn);
  } else {
    ThreadPool::global().parallel_for(0, wn, add_range, 1 << 12);
  }

  // dX[N,in] = dYq[N,out] · Wq[out,in]; a <= 6-bit weight ceiling lets
  // the planner pick the byte-quad strategy here, exactly like forward.
  GemmS8Params px = s8_params(gq, wq->params());
  px.max_a = static_cast<int32_t>(quant::max_code(kGradSrBits));
  px.max_b = static_cast<int32_t>(quant::max_code(wq->bits()));
  const KernelPlan& plan_dx = plan_for(
      PlanKey::s8(n, in_, out_, /*trans_a=*/false, /*trans_b=*/false,
                  px.max_a, px.max_b));
  Tensor dx = Tensor::uninitialized(Shape{n, in_});
  GemmS8Args gx;
  gx.a = dy;
  gx.b = wq->codes_u8();
  gx.params = px;
  gx.out = dx.data();
  gemm_s8_ex(plan_dx, gx);
  return dx;
}

PlanKey linear_s8_plan_key(int64_t m, int64_t in_features,
                           int64_t out_features, int32_t w_max) {
  return PlanKey::s8(m, out_features, in_features, /*trans_a=*/false,
                     /*trans_b=*/true, /*max_a=*/255, w_max);
}

void linear_s8_forward(const KernelPlan& plan, const S8ForwardArgs& args,
                       float* lo, float* hi) {
  // Activations are A here, so B carries the weight grid and ceiling.
  GemmS8Params qp = s8_params(args.x_grid, args.w_grid);
  qp.max_b = args.w_max;
  GemmS8Epilogue epi = args.epi;
  epi.channel_is_row = false;
  epi.observe_lo = lo;
  epi.observe_hi = hi;
  GemmS8Args ga;
  ga.a = args.x;
  ga.b = args.w;
  ga.params = qp;
  ga.epilogue = &epi;
  ga.out = args.y;
  ga.out_codes = args.y_codes;
  gemm_s8_ex(plan, ga);
}

void Linear::backward_bias(const Tensor& dy) {
  // Each feature j is owned by one task and accumulated in a fixed
  // sample order, so the reduction is deterministic for any pool size.
  const int64_t n = dy.dim(0);
  float* db = grad_sink(bias_).data();
  ThreadPool::global().parallel_for(
      0, out_,
      [&](int64_t j0, int64_t j1) {
        for (int64_t j = j0; j < j1; ++j) {
          float acc = 0.0f;
          for (int64_t i = 0; i < n; ++i) acc += dy.data()[i * out_ + j];
          db[j] += acc;
        }
      },
      std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, n)));
}

}  // namespace apt::nn
