#include "quant/qtensor.hpp"

#include <algorithm>
#include <cmath>

// Dispatches a generic lambda over whichever width vector is active, so
// each per-element loop is instantiated monomorphically per width.
#define APT_QT_DISPATCH(fn)   \
  switch (storage_bits()) {   \
    case 8:                   \
      fn(codes8_);            \
      break;                  \
    case 16:                  \
      fn(codes16_);           \
      break;                  \
    default:                  \
      fn(codes32_);           \
      break;                  \
  }

namespace apt::quant {

QuantizedTensor::QuantizedTensor(const Tensor& values, int bits,
                                 RoundMode mode)
    : QuantizedTensor(values, bits, values.min(), values.max(), mode) {}

QuantizedTensor::QuantizedTensor(const Tensor& values, int bits, float lo,
                                 float hi, RoundMode mode)
    : shape_(values.shape()) {
  APT_CHECK(values.numel() > 0) << "cannot quantise an empty tensor";
  params_ = choose_params(lo, hi, bits);
  encode(values, mode);
}

void QuantizedTensor::encode(const Tensor& values, RoundMode mode) {
  const size_t n = static_cast<size_t>(values.numel());
  const float* v = values.data();
  codes8_.clear();
  codes16_.clear();
  codes32_.clear();
  auto fill = [&](auto& codes) {
    using T = typename std::decay_t<decltype(codes)>::value_type;
    codes.resize(n);
    for (size_t i = 0; i < n; ++i)
      codes[i] = static_cast<T>(quantize_value(v[i], params_, mode));
  };
  APT_QT_DISPATCH(fill);
}

int64_t QuantizedTensor::code(int64_t i) const {
  int64_t out = 0;
  auto get = [&](const auto& codes) {
    out = static_cast<int64_t>(codes[static_cast<size_t>(i)]);
  };
  APT_QT_DISPATCH(get);
  return out;
}

const uint8_t* QuantizedTensor::codes_u8() const {
  APT_CHECK(storage_bits() == 8)
      << "codes_u8() on a " << params_.bits << "-bit tensor";
  return codes8_.data();
}

const uint16_t* QuantizedTensor::codes_u16() const {
  APT_CHECK(storage_bits() == 16)
      << "codes_u16() on a " << params_.bits << "-bit tensor";
  return codes16_.data();
}

const uint32_t* QuantizedTensor::codes_u32() const {
  APT_CHECK(storage_bits() == 32)
      << "codes_u32() on a " << params_.bits << "-bit tensor";
  return codes32_.data();
}

Tensor QuantizedTensor::dequantize() const {
  Tensor out = Tensor::uninitialized(shape_);
  dequantize_into(out);
  return out;
}

void QuantizedTensor::dequantize_into(Tensor& out) const {
  APT_CHECK(out.shape() == shape_)
      << "dequantize_into shape mismatch: " << out.shape().str() << " vs "
      << shape_.str();
  float* o = out.data();
  const double s = params_.scale;
  const int64_t z = params_.zero_point;
  if (storage_bits() == 8) {
    // Byte-stored codes take the vectorised bulk path (identical bits:
    // same one-float-rounding-per-element double math).
    dequantize_codes_u8(codes8_.data(), numel(), params_, o);
    return;
  }
  auto run = [&](const auto& codes) {
    for (size_t i = 0; i < codes.size(); ++i)
      o[i] = static_cast<float>(
          s * static_cast<double>(static_cast<int64_t>(codes[i]) - z));
  };
  APT_QT_DISPATCH(run);
}

UpdateStats QuantizedTensor::apply_update(const Tensor& delta, RoundMode mode,
                                          Rng* rng) {
  APT_CHECK(delta.shape() == shape_)
      << "update shape mismatch: " << delta.shape().str() << " vs "
      << shape_.str();
  APT_CHECK(mode != RoundMode::kStochastic || rng != nullptr)
      << "stochastic rounding requires an Rng";

  UpdateStats stats;
  stats.total = numel();
  const float* d = delta.data();
  const double eps = params_.epsilon();
  const int64_t qmax = max_code(params_.bits);
  auto run = [&](auto& codes) {
    using T = typename std::decay_t<decltype(codes)>::value_type;
    for (size_t i = 0; i < codes.size(); ++i) {
      const double x = static_cast<double>(d[i]) / eps;
      const double u = (mode == RoundMode::kStochastic) ? rng->uniform() : 0.0;
      const int64_t steps = round_steps(x, mode, u);
      if (steps == 0) {
        if (d[i] != 0.0f) ++stats.underflowed;
        continue;
      }
      const int64_t q =
          static_cast<int64_t>(codes[i]) - steps;  // w -= ⌊δ/ε⌋·ε, code space
      const int64_t clamped = std::clamp<int64_t>(q, 0, qmax);
      if (clamped != q) ++stats.clamped;
      if (clamped != static_cast<int64_t>(codes[i])) ++stats.moved;
      codes[i] = static_cast<T>(clamped);
    }
  };
  APT_QT_DISPATCH(run);
  return stats;
}

double QuantizedTensor::saturation_fraction() const {
  if (numel() == 0) return 0.0;
  const int64_t qmax = max_code(params_.bits);
  int64_t sat = 0;
  auto run = [&](const auto& codes) {
    for (auto q : codes)
      if (q == 0 || static_cast<int64_t>(q) == qmax) ++sat;
  };
  APT_QT_DISPATCH(run);
  return static_cast<double>(sat) / static_cast<double>(numel());
}

}  // namespace apt::quant

#undef APT_QT_DISPATCH
