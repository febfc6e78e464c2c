// QuantizedTensor: integer codes + per-tensor affine parameters.
//
// This is the representation that lives in BOTH the forward and backward
// pass under APT — there is no fp32 master copy. Compute kernels receive
// the dequantised float view (exactly S(q - Z) for every element); updates
// are applied to the codes through `apply_update`, which realises the
// paper's Eq. 3 grid update including quantisation underflow.
//
// Codes are physically stored at the narrowest unsigned width that holds
// the k-bit range: one byte for k <= 8, two for k <= 16, four above. A
// 6-bit tensor therefore really allocates numel bytes, and integer
// kernels can consume the 8-bit code plane directly via `codes_u8()`
// without a widening copy.
#pragma once

#include <cstdint>
#include <vector>

#include "base/rng.hpp"
#include "base/tensor.hpp"
#include "quant/affine.hpp"

namespace apt::quant {

/// Counters describing what happened during one grid update call.
struct UpdateStats {
  int64_t total = 0;       ///< elements visited
  int64_t underflowed = 0; ///< |delta| > 0 but the grid step rounded to 0
  int64_t moved = 0;       ///< elements whose code changed
  int64_t clamped = 0;     ///< elements that hit the code range limits

  void accumulate(const UpdateStats& o) {
    total += o.total;
    underflowed += o.underflowed;
    moved += o.moved;
    clamped += o.clamped;
  }
  double underflow_fraction() const {
    return total ? static_cast<double>(underflowed) / total : 0.0;
  }
  double clamp_fraction() const {
    return total ? static_cast<double>(clamped) / total : 0.0;
  }
};

/// Physical storage width (bits) for k-bit codes: 8 / 16 / 32.
inline int storage_bits_for(int bits) {
  return bits <= 8 ? 8 : (bits <= 16 ? 16 : 32);
}

class QuantizedTensor {
 public:
  QuantizedTensor() = default;

  /// Quantises `values` onto a fresh k-bit grid fitted to their range.
  QuantizedTensor(const Tensor& values, int bits,
                  RoundMode mode = RoundMode::kNearest);

  /// Quantises `values` onto a k-bit grid over an explicit [lo, hi] range
  /// (values outside saturate).
  QuantizedTensor(const Tensor& values, int bits, float lo, float hi,
                  RoundMode mode = RoundMode::kNearest);

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return shape_.numel(); }
  const QuantParams& params() const { return params_; }
  int bits() const { return params_.bits; }
  /// The paper's ε (Eq. 2) for this tensor.
  double epsilon() const { return params_.epsilon(); }

  /// Physical bits per stored code (8, 16, or 32; >= bits()).
  int storage_bits() const { return storage_bits_for(params_.bits); }
  /// Bytes actually allocated for the code plane (numel * storage width).
  int64_t code_storage_bytes() const {
    return numel() * (storage_bits() / 8);
  }

  /// Single-code access, width-independent (for tests and tooling; kernels
  /// use the contiguous views below).
  int64_t code(int64_t i) const;

  /// Contiguous unsigned 8-bit code plane; only valid while bits() <= 8.
  /// This is the operand format of the integer GEMM (`gemm_s8`).
  const uint8_t* codes_u8() const;
  /// Contiguous 16-bit code plane; only valid while 8 < bits() <= 16.
  const uint16_t* codes_u16() const;
  /// Contiguous 32-bit code plane; only valid while bits() > 16.
  const uint32_t* codes_u32() const;

  /// Dequantised float view: out[i] = S * (q[i] - Z).
  Tensor dequantize() const;

  /// In-place dequantise into a caller-owned tensor (avoids allocation in
  /// the training hot loop). `out` must already have the right shape.
  void dequantize_into(Tensor& out) const;

  /// Applies the paper's Eq. 3: q := q - round(delta/ε) with the given
  /// rounding (kTrunc reproduces ⌊·⌋ semantics), clamping codes to the
  /// k-bit range. `delta` is the real-valued step to subtract (lr·g or the
  /// optimiser's composed step). `rng` is only consulted for kStochastic.
  UpdateStats apply_update(const Tensor& delta, RoundMode mode,
                           Rng* rng = nullptr);

  /// Fraction of codes currently pinned at 0 or 2^k - 1.
  double saturation_fraction() const;

 private:
  // Quantises `values` into the width-appropriate code vector (resizing
  // it and clearing the other widths).
  void encode(const Tensor& values, RoundMode mode);

  Shape shape_;
  QuantParams params_;
  // Exactly one of these is populated, chosen by storage_bits(). Codes
  // are raw unsigned grid indices in [0, 2^k - 1].
  std::vector<uint8_t> codes8_;
  std::vector<uint16_t> codes16_;
  std::vector<uint32_t> codes32_;
};

}  // namespace apt::quant
