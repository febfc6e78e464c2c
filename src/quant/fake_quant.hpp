// Activation and gradient range tracking.
//
// The paper's experiments quantise *weights* in both passes. The integer
// layers also quantise their inputs and upstream gradients, each onto a
// grid chosen from a tracked range: `RangeTracker` keeps an exponential
// moving average of observed min/max, as is standard for activation
// ranges.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/tensor.hpp"

namespace apt::quant {

/// EMA tracker of a tensor's dynamic range.
class RangeTracker {
 public:
  explicit RangeTracker(double momentum = 0.95) : momentum_(momentum) {}

  void observe(const Tensor& t) {
    if (t.numel() == 0) return;
    observe(t.min(), t.max());
  }

  /// Observe a precomputed [lo, hi] — the sharded step merges per-shard
  /// extrema in shard order and feeds the tracker exactly once per batch.
  void observe(float lo, float hi) {
    // One batch with a NaN/Inf (a diverging step, a bad sensor frame)
    // must not poison the EMA forever: skip non-finite observations
    // entirely — including for initialisation.
    if (!std::isfinite(lo) || !std::isfinite(hi)) return;
    if (!initialized_) {
      lo_ = lo;
      hi_ = hi;
      initialized_ = true;
    } else {
      lo_ = momentum_ * lo_ + (1.0 - momentum_) * lo;
      hi_ = momentum_ * hi_ + (1.0 - momentum_) * hi;
    }
  }

  /// Merges `count` per-shard extrema — `range_of(s)` returns shard s's
  /// raw [lo, hi] pair — in index order and observes the result once.
  /// Any non-finite shard skips the whole observation, matching the
  /// whole-batch semantics (NaN must not be silently dropped by
  /// std::min's ordering).
  template <typename GetRange>
  void observe_merged(int count, GetRange&& range_of) {
    float lo = 0.0f, hi = 0.0f;
    for (int s = 0; s < count; ++s) {
      const std::pair<float, float> r = range_of(s);
      if (!std::isfinite(r.first) || !std::isfinite(r.second)) return;
      lo = s == 0 ? r.first : std::min(lo, r.first);
      hi = s == 0 ? r.second : std::max(hi, r.second);
    }
    observe(lo, hi);
  }

  bool initialized() const { return initialized_; }
  float lo() const { return static_cast<float>(lo_); }
  float hi() const { return static_cast<float>(hi_); }

 private:
  double momentum_;
  double lo_ = 0.0, hi_ = 0.0;
  bool initialized_ = false;
};

}  // namespace apt::quant
