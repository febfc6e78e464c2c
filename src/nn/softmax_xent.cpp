#include "nn/softmax_xent.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"

namespace apt::nn {

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<int32_t>& labels) {
  APT_CHECK(logits.shape().rank() == 2)
      << "logits must be [N, classes], got " << logits.shape().str();
  const int64_t n = logits.dim(0), c = logits.dim(1);
  APT_CHECK(static_cast<int64_t>(labels.size()) == n)
      << "label count " << labels.size() << " != batch " << n;

  probs_ = Tensor::uninitialized(logits.shape());
  labels_ = labels;
  predictions_.resize(static_cast<size_t>(n));

  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* prow = probs_.data() + i * c;
    const float m = *std::max_element(row, row + c);
    double denom = 0.0;
    int32_t argmax = 0;
    for (int64_t j = 0; j < c; ++j) {
      denom += std::exp(static_cast<double>(row[j] - m));
      if (row[j] > row[argmax]) argmax = static_cast<int32_t>(j);
    }
    predictions_[static_cast<size_t>(i)] = argmax;
    const double log_denom = std::log(denom);
    for (int64_t j = 0; j < c; ++j)
      prow[j] = static_cast<float>(
          std::exp(static_cast<double>(row[j] - m) - log_denom));
    const int32_t y = labels[static_cast<size_t>(i)];
    APT_CHECK(y >= 0 && y < c) << "label " << y << " out of range " << c;
    loss -= static_cast<double>(row[y] - m) - log_denom;
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

Tensor SoftmaxCrossEntropy::backward() const {
  APT_CHECK(probs_.numel() > 0) << "backward before forward";
  const int64_t n = probs_.dim(0), c = probs_.dim(1);
  Tensor dx = probs_.clone();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    float* row = dx.data() + i * c;
    row[labels_[static_cast<size_t>(i)]] -= 1.0f;
    for (int64_t j = 0; j < c; ++j) row[j] *= inv_n;
  }
  return dx;
}

double accuracy(const std::vector<int32_t>& predictions,
                const std::vector<int32_t>& labels) {
  APT_CHECK(predictions.size() == labels.size()) << "size mismatch";
  if (predictions.empty()) return 0.0;
  int64_t hit = 0;
  for (size_t i = 0; i < labels.size(); ++i)
    if (predictions[i] == labels[i]) ++hit;
  return static_cast<double>(hit) / static_cast<double>(labels.size());
}

}  // namespace apt::nn
