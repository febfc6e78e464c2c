// Pooling layers and shape adapters.
#pragma once

#include <limits>

#include "nn/layer.hpp"
#include "nn/shard.hpp"

namespace apt::nn {

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& x, bool training) override {
    APT_CHECK(x.shape().rank() == 4) << name_ << ": expects NCHW";
    const int64_t N = x.dim(0), C = x.dim(1), S = x.dim(2) * x.dim(3);
    if (training) in_shape_.cur() = x.shape();
    Tensor y = Tensor::uninitialized(Shape{N, C});
    for (int64_t n = 0; n < N; ++n)
      for (int64_t c = 0; c < C; ++c) {
        const float* p = x.data() + (n * C + c) * S;
        double acc = 0.0;
        for (int64_t i = 0; i < S; ++i) acc += p[i];
        y.at(n, c) = static_cast<float>(acc / S);
      }
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const Shape& in_shape = in_shape_.cur();
    const int64_t N = in_shape[0], C = in_shape[1],
                  S = in_shape[2] * in_shape[3];
    Tensor dx = Tensor::uninitialized(in_shape);
    for (int64_t n = 0; n < N; ++n)
      for (int64_t c = 0; c < C; ++c) {
        const float g = grad_out.at(n, c) / static_cast<float>(S);
        float* p = dx.data() + (n * C + c) * S;
        for (int64_t i = 0; i < S; ++i) p[i] = g;
      }
    return dx;
  }

  std::string name() const override { return name_; }

 private:
  std::string name_;
  PerShard<Shape> in_shape_;
};

/// Max pooling with square window == stride (non-overlapping).
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, int64_t window)
      : name_(std::move(name)), window_(window) {}

  int64_t window() const { return window_; }

  Tensor forward(const Tensor& x, bool training) override {
    APT_CHECK(x.shape().rank() == 4) << name_ << ": expects NCHW";
    const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
    const int64_t OH = H / window_, OW = W / window_;
    APT_CHECK(OH > 0 && OW > 0) << name_ << ": window larger than input";
    Tensor y = Tensor::uninitialized(Shape{N, C, OH, OW});
    std::vector<int64_t>& argmax = argmax_.cur();
    argmax.assign(static_cast<size_t>(y.numel()), 0);
    if (training) in_shape_.cur() = x.shape();
    int64_t oi = 0;
    for (int64_t n = 0; n < N; ++n)
      for (int64_t c = 0; c < C; ++c)
        for (int64_t oy = 0; oy < OH; ++oy)
          for (int64_t ox = 0; ox < OW; ++ox, ++oi) {
            float best = -std::numeric_limits<float>::infinity();
            int64_t best_idx = 0;
            for (int64_t ky = 0; ky < window_; ++ky)
              for (int64_t kx = 0; kx < window_; ++kx) {
                const int64_t iy = oy * window_ + ky, ix = ox * window_ + kx;
                const int64_t idx = ((n * C + c) * H + iy) * W + ix;
                if (x[idx] > best) {
                  best = x[idx];
                  best_idx = idx;
                }
              }
            y[oi] = best;
            argmax[static_cast<size_t>(oi)] = best_idx;
          }
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const std::vector<int64_t>& argmax = argmax_.cur();
    Tensor dx(in_shape_.cur());
    for (int64_t i = 0; i < grad_out.numel(); ++i)
      dx[argmax[static_cast<size_t>(i)]] += grad_out[i];
    return dx;
  }

  std::string name() const override { return name_; }

 private:
  std::string name_;
  int64_t window_;
  PerShard<Shape> in_shape_;
  PerShard<std::vector<int64_t>> argmax_;
};

/// [N, C, H, W] -> [N, C*H*W] (shares storage both ways).
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& x, bool training) override {
    if (training) in_shape_.cur() = x.shape();
    return x.reshape(Shape{x.dim(0), x.numel() / x.dim(0)});
  }
  Tensor backward(const Tensor& grad_out) override {
    return grad_out.reshape(in_shape_.cur());
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  PerShard<Shape> in_shape_;
};

}  // namespace apt::nn
