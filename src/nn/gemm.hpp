// Single-precision matrix multiply used by Linear and Conv2d.
//
// C[M,N] (+)= op_a(A) * op_b(B), where op transposes when the flag is set.
// `gemm` runs the packed register-blocked backend in gemm_kernel.hpp
// (the widest micro-kernel the SIMD level of base/cpu.hpp allows: AVX-512,
// AVX2+FMA or portable scalar; PlanOptions::backend in plan.hpp can
// force the scalar one). Tiny
// problems take a direct strided loop to skip packing overhead.
#pragma once

#include <cstdint>

namespace apt::nn {

template <typename T>
struct GemmConvB;  // implicit conv operand (gemm_kernel.hpp)

/// Backend selection for `gemm`, set through PlanOptions::backend
/// (plan.hpp).
enum class GemmBackend {
  kPacked,        // packed backend, micro-kernel chosen via CPUID
  kPackedScalar,  // packed backend, portable micro-kernel forced
  /// Packed fp32 for plain float GEMMs, PLUS: layers whose weights live
  /// in 8-bit-or-narrower QuantizedTensor codes run their forward pass
  /// through the integer gemm_s8 kernel on quantised activations, and
  /// their backward dX/dW GEMMs on stochastically-rounded gradient codes
  /// once the gradient range tracker has initialised (DESIGN.md §14).
  kInt8,
};

/// True when the resolved backend asks layers to attempt the integer
/// (quantised-code) forward path. Layers still fall back to fp32 per
/// call when their weights are not stored as <= 8-bit codes or no
/// activation range has been observed yet.
bool gemm_int8_forward_enabled();

/// True when the resolved backend asks layers to attempt the integer
/// gradient GEMMs (quantised dY with stochastic rounding). Currently the
/// same backend switch as the forward path; layers still fall back to
/// fp32 per call until their gradient tracker initialises (first
/// backward) or when no input codes were cached by the forward.
bool gemm_int8_backward_enabled();

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

/// `gemm` with B given implicitly as a convolution's patch matrix: C =
/// alpha * A * op_b(B) + beta * C, where op_b(B) is the virtual im2col
/// matrix of the padded image `b` describes (its transpose when
/// trans_b; see GemmConvB in gemm_kernel.hpp). Same backend dispatch
/// and plan key (PlanKey::f32) as `gemm`, and the same bits as `gemm`
/// over the materialised matrix.
void gemm_conv(bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
               const float* a, const GemmConvB<float>& b, float beta,
               float* c);

/// Reference implementation (triple loop, double accumulator) for tests.
void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, const float* b, float beta,
                float* c);

}  // namespace apt::nn
