#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>

#include "base/cpu.hpp"

#if APT_X86
#include <immintrin.h>
#endif

namespace apt::nn {
namespace {

// Dimensions of an NC or NCHW input as seen by per-channel normalisation.
struct Dims {
  int64_t n, c, spatial;  // spatial = H*W (1 for rank-2 inputs)
};

Dims dims_of(const Tensor& x, int64_t channels, const std::string& name) {
  APT_CHECK(x.shape().rank() == 2 || x.shape().rank() == 4)
      << name << ": BatchNorm expects NC or NCHW, got " << x.shape().str();
  APT_CHECK(x.dim(1) == channels)
      << name << ": expected " << channels << " channels, got "
      << x.shape().str();
  const int64_t spatial = x.shape().rank() == 4 ? x.dim(2) * x.dim(3) : 1;
  return {x.dim(0), x.dim(1), spatial};
}

// Channels [c0, c0 + kBlock) of channel_dot_sums. The block's chains
// are independent, so running them side by side hides the double add's
// latency without reordering any one channel's sum.
template <int kBlock>
void dot_sums_block(const float* u, const float* v, const Dims& d, int64_t c0,
                    double* sum_u, double* sum_uv) {
  double su[kBlock] = {}, suv[kBlock] = {};
  for (int64_t n = 0; n < d.n; ++n) {
    const int64_t base = (n * d.c + c0) * d.spatial;
    const float* pu = u + base;
    const float* pv = v + base;
    for (int64_t i = 0; i < d.spatial; ++i)
      for (int b = 0; b < kBlock; ++b) {
        const float x = pu[b * d.spatial + i];
        su[b] += x;
        suv[b] += static_cast<double>(x) * pv[b * d.spatial + i];
      }
  }
  for (int b = 0; b < kBlock; ++b) {
    sum_u[c0 + b] = su[b];
    sum_uv[c0 + b] = suv[b];
  }
}

#if APT_X86
// Eight channels of dot_sums_block in two 4-lane double vectors, lane b
// holding channel c0 + 4h + b: each lane runs its channel's exact scalar
// chain, and the two vectors per sum keep the add latency hidden. A 4x4
// transpose turns four channels' runs of four elements into four
// vectors of one element each.
__attribute__((target("avx2"))) void dot_sums_block8_avx2(
    const float* u, const float* v, const Dims& d, int64_t c0, double* sum_u,
    double* sum_uv) {
  const int64_t S = d.spatial;
  __m256d su[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d suv[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
  for (int64_t n = 0; n < d.n; ++n) {
    const float* pu = u + (n * d.c + c0) * S;
    const float* pv = v + (n * d.c + c0) * S;
    int64_t i = 0;
    for (; i + 4 <= S; i += 4)
      for (int h = 0; h < 2; ++h) {
        __m128 ru[4], rv[4];
        for (int b = 0; b < 4; ++b) {
          ru[b] = _mm_loadu_ps(pu + (4 * h + b) * S + i);
          rv[b] = _mm_loadu_ps(pv + (4 * h + b) * S + i);
        }
        _MM_TRANSPOSE4_PS(ru[0], ru[1], ru[2], ru[3]);
        _MM_TRANSPOSE4_PS(rv[0], rv[1], rv[2], rv[3]);
        for (int t = 0; t < 4; ++t) {
          const __m256d x = _mm256_cvtps_pd(ru[t]);
          su[h] = _mm256_add_pd(su[h], x);
          suv[h] = _mm256_add_pd(
              suv[h], _mm256_mul_pd(x, _mm256_cvtps_pd(rv[t])));
        }
      }
    for (; i < S; ++i)
      for (int h = 0; h < 2; ++h) {
        const float* qu = pu + 4 * h * S + i;
        const float* qv = pv + 4 * h * S + i;
        const __m256d x = _mm256_cvtps_pd(
            _mm_setr_ps(qu[0], qu[S], qu[2 * S], qu[3 * S]));
        const __m256d y = _mm256_cvtps_pd(
            _mm_setr_ps(qv[0], qv[S], qv[2 * S], qv[3 * S]));
        su[h] = _mm256_add_pd(su[h], x);
        suv[h] = _mm256_add_pd(suv[h], _mm256_mul_pd(x, y));
      }
  }
  for (int h = 0; h < 2; ++h) {
    _mm256_storeu_pd(sum_u + c0 + 4 * h, su[h]);
    _mm256_storeu_pd(sum_uv + c0 + 4 * h, suv[h]);
  }
}
#endif  // APT_X86

// Per-channel Σu and Σu·v of two same-shaped tensors, accumulated in
// doubles in sample-then-element order (the order every BatchNorm
// reduction has always used), eight (AVX2) or four channels at a time.
void channel_dot_sums(const float* u, const float* v, const Dims& d,
                      double* sum_u, double* sum_uv) {
  int64_t c = 0;
#if APT_X86
  if (cpu_has_avx2_fma())
    for (; c + 8 <= d.c; c += 8)
      dot_sums_block8_avx2(u, v, d, c, sum_u, sum_uv);
#endif
  for (; c + 4 <= d.c; c += 4) dot_sums_block<4>(u, v, d, c, sum_u, sum_uv);
  for (; c < d.c; ++c) dot_sums_block<1>(u, v, d, c, sum_u, sum_uv);
}

// Per-channel Σx and Σx² of one tensor: out = [Σx per channel, Σx² per
// channel].
void channel_sums(const Tensor& x, const Dims& d, std::vector<double>* out) {
  out->assign(static_cast<size_t>(2 * d.c), 0.0);
  channel_dot_sums(x.data(), x.data(), d, out->data(), out->data() + d.c);
}

// Per-channel Σ dY·x̂ and Σ dY (∂γ and ∂β, and the whole-batch terms of
// the dx formula): out = [Σ dY·x̂ per channel, Σ dY per channel].
void channel_grad_sums(const Tensor& dy, const Tensor& x_hat, const Dims& d,
                       std::vector<double>* out) {
  out->assign(static_cast<size_t>(2 * d.c), 0.0);
  channel_dot_sums(dy.data(), x_hat.data(), d, out->data() + d.c,
                   out->data());
}

}  // namespace

BatchNorm::BatchNorm(std::string name, int64_t channels, double momentum,
                     double eps)
    : name_(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name_ + ".gamma", Shape{channels}, /*decay=*/false),
      beta_(name_ + ".beta", Shape{channels}, /*decay=*/false),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}) {
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  return forward_sharded({x}, training)[0];
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  return backward_sharded({grad_out})[0];
}

std::vector<Tensor> BatchNorm::forward_sharded(const std::vector<Tensor>& xs,
                                               bool training) {
  const int shards = static_cast<int>(xs.size());
  Tensor mean(Shape{channels_}), inv_std(Shape{channels_});
  if (training) {
    // Pass 1: every shard publishes its per-channel Σx / Σx² (doubles,
    // sample order within the shard).
    shard_parallel(shards, [&](int s) {
      const Tensor& x = xs[static_cast<size_t>(s)];
      const Dims d = dims_of(x, channels_, name_);
      shard_m_.at(s) = d.n * d.spatial;
      channel_sums(x, d, &stat_sums_.at(s));
    });

    // Serial point: reduce in shard order to whole-batch statistics; the
    // running estimates update once, from the merged values.
    int64_t m = 0;
    for (int s = 0; s < shards; ++s) m += shard_m_.at(s);
    APT_CHECK(m > 1) << name_ << ": batch too small for BN stats";
    for (int64_t c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (int s = 0; s < shards; ++s) {
        sum += stat_sums_.at(s)[static_cast<size_t>(c)];
        sq += stat_sums_.at(s)[static_cast<size_t>(channels_ + c)];
      }
      const double mu = sum / static_cast<double>(m);
      const double var = std::max(0.0, sq / static_cast<double>(m) - mu * mu);
      mean[c] = static_cast<float>(mu);
      inv_std[c] = static_cast<float>(1.0 / std::sqrt(var + eps_));
      running_mean_[c] = static_cast<float>(momentum_ * running_mean_[c] +
                                            (1.0 - momentum_) * mu);
      running_var_[c] = static_cast<float>(momentum_ * running_var_[c] +
                                           (1.0 - momentum_) * var);
    }
    batch_mean_ = mean;
    batch_inv_std_ = inv_std;
  } else {
    for (int64_t c = 0; c < channels_; ++c) {
      mean[c] = running_mean_[c];
      inv_std[c] =
          static_cast<float>(1.0 / std::sqrt(running_var_[c] + eps_));
    }
  }

  // Pass 2: normalise every shard against the merged (or running)
  // statistics. Only training keeps x̂, for backward.
  std::vector<Tensor> ys(xs.size());
  shard_parallel(shards, [&](int s) {
    const Tensor& x = xs[static_cast<size_t>(s)];
    const Dims d = dims_of(x, channels_, name_);
    Tensor y = Tensor::uninitialized(x.shape());
    Tensor x_hat = training ? Tensor::uninitialized(x.shape()) : Tensor();
    for (int64_t c = 0; c < channels_; ++c) {
      const float mu = mean[c], is = inv_std[c];
      const float g = gamma_.value[c], b = beta_.value[c];
      for (int64_t n = 0; n < d.n; ++n) {
        const int64_t base = (n * channels_ + c) * d.spatial;
        const float* px = x.data() + base;
        float* ph = training ? x_hat.data() + base : nullptr;
        float* py = y.data() + base;
        for (int64_t i = 0; i < d.spatial; ++i) {
          const float h = (px[i] - mu) * is;
          if (ph != nullptr) ph[i] = h;
          py[i] = g * h + b;
        }
      }
    }
    if (training) x_hat_.at(s) = std::move(x_hat);
    ys[static_cast<size_t>(s)] = std::move(y);
  });
  return ys;
}

std::vector<Tensor> BatchNorm::backward_sharded(
    const std::vector<Tensor>& grads_out) {
  const int shards = static_cast<int>(grads_out.size());

  // Pass 1: per-shard partial Σ(dY·x̂) and Σ dY per channel. These are
  // the whole-batch reduction terms of the dx formula AND ∂γ/∂β.
  shard_parallel(shards, [&](int s) {
    const Tensor& dy = grads_out[static_cast<size_t>(s)];
    const Dims d = dims_of(dy, channels_, name_);
    const Tensor& x_hat = x_hat_.at(s);
    APT_CHECK(x_hat.defined() && x_hat.numel() == dy.numel())
        << name_ << ": backward before forward(training=true)";
    channel_grad_sums(dy, x_hat, d, &grad_sums_.at(s));
  });

  // Serial point: shard-ordered reduction. γ/β gradients land directly on
  // Parameter::grad — this runs once on the coordinator, so routing them
  // through a shard sink would only defer the same ordered sum.
  int64_t m = 0;
  for (int s = 0; s < shards; ++s) m += shard_m_.at(s);
  std::vector<double> dgamma_total(static_cast<size_t>(channels_), 0.0);
  std::vector<double> dbeta_total(static_cast<size_t>(channels_), 0.0);
  for (int64_t c = 0; c < channels_; ++c) {
    for (int s = 0; s < shards; ++s) {
      dgamma_total[static_cast<size_t>(c)] +=
          grad_sums_.at(s)[static_cast<size_t>(c)];
      dbeta_total[static_cast<size_t>(c)] +=
          grad_sums_.at(s)[static_cast<size_t>(channels_ + c)];
    }
    gamma_.grad[c] += static_cast<float>(dgamma_total[static_cast<size_t>(c)]);
    beta_.grad[c] += static_cast<float>(dbeta_total[static_cast<size_t>(c)]);
  }

  // Pass 2: dx per shard against the whole-batch terms:
  // dx = γ·inv_std/m · (m·dY − Σ dY − x̂ · Σ(dY·x̂)).
  std::vector<Tensor> dxs(grads_out.size());
  shard_parallel(shards, [&](int s) {
    const Tensor& dy = grads_out[static_cast<size_t>(s)];
    const Dims d = dims_of(dy, channels_, name_);
    const Tensor& x_hat = x_hat_.at(s);
    Tensor dx = Tensor::uninitialized(dy.shape());
    for (int64_t c = 0; c < channels_; ++c) {
      const float scale =
          gamma_.value[c] * batch_inv_std_[c] / static_cast<float>(m);
      const auto dgamma =
          static_cast<float>(dgamma_total[static_cast<size_t>(c)]);
      const auto dbeta =
          static_cast<float>(dbeta_total[static_cast<size_t>(c)]);
      for (int64_t n = 0; n < d.n; ++n) {
        const int64_t base = (n * channels_ + c) * d.spatial;
        const float* pdy = dy.data() + base;
        const float* ph = x_hat.data() + base;
        float* pdx = dx.data() + base;
        for (int64_t i = 0; i < d.spatial; ++i) {
          pdx[i] = scale * (static_cast<float>(m) * pdy[i] - dbeta -
                            ph[i] * dgamma);
        }
      }
    }
    dxs[static_cast<size_t>(s)] = std::move(dx);
  });
  return dxs;
}

std::vector<Parameter*> BatchNorm::parameters() { return {&gamma_, &beta_}; }

void BatchNorm::set_running_stats(const Tensor& mean, const Tensor& var) {
  APT_CHECK(mean.numel() == channels_ && var.numel() == channels_)
      << name_ << ": bad running stats size";
  running_mean_ = mean.clone();
  running_var_ = var.clone();
}

}  // namespace apt::nn
