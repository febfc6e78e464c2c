// Single-precision matrix multiply used by Linear and Conv2d.
//
// C[M,N] (+)= op_a(A) * op_b(B), where op transposes when the flag is set.
// `gemm` resolves the problem's plan (plan.hpp) and runs it on the
// packed register-blocked backend in gemm_kernel.hpp, with the widest
// micro-kernel the SIMD level of base/cpu.hpp allows: AVX-512, AVX2+FMA
// or portable scalar (APT_SIMD or a SimdCapScope narrows it). Tiny
// problems take a direct strided loop to skip packing overhead.
#pragma once

#include <cstdint>

namespace apt::nn {

/// Backend selection for `gemm`, set through PlanOptions::backend
/// (plan.hpp).
enum class GemmBackend {
  kPacked,  // packed fp32 backend, micro-kernel chosen by simd_level()
  /// Packed fp32 for plain float GEMMs, PLUS: layers whose weights live
  /// in 8-bit-or-narrower QuantizedTensor codes run their forward pass
  /// through the integer gemm_s8 kernel on quantised activations, and
  /// their backward dX/dW GEMMs on stochastically-rounded gradient codes
  /// once the gradient range tracker has initialised (DESIGN.md §14).
  kInt8,
};

/// Bit-width of the stochastically-rounded upstream-gradient grid. 6
/// bits keeps every gradient code <= kGemmS8QuadMaxCode, so BOTH
/// gradient GEMMs (dX against 8-bit activation codes, dW against <= 8
/// bit weight codes) stay on the byte-quad kernel — at 8-bit dY the dW
/// product (255 x 255) would fall back to the pair strategy, which only
/// matches fp32 MAC density. Stochastic rounding keeps the coarser grid
/// unbiased: E[dYq] = dY exactly, the variance washes out over SGD
/// steps (DESIGN.md section 14).
inline constexpr int kGradSrBits = 6;

/// C = alpha * op_a(A) * op_b(B) + beta * C.
/// A is M x K after op_a; B is K x N after op_b; C is M x N, row-major.
/// Per BLAS convention alpha == 0 skips the product (A/B unread) and
/// beta == 0 overwrites C without reading it; otherwise NaN/Inf in A or
/// B propagate normally (no element-level zero shortcuts).
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// Reference implementation (triple loop, double accumulator) for tests.
void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, const float* b, float beta,
                float* c);

}  // namespace apt::nn
