#include "nn/gemm.hpp"

#include <algorithm>
#include <vector>

#include "base/arena.hpp"
#include "base/thread_pool.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/plan.hpp"

namespace apt::nn {
namespace {

// Transpose src (rows x cols, row-major) into dst (cols x rows, row-major).
void transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  constexpr int64_t kBlock = 32;
  for (int64_t rb = 0; rb < rows; rb += kBlock)
    for (int64_t cb = 0; cb < cols; cb += kBlock) {
      const int64_t rmax = std::min(rows, rb + kBlock);
      const int64_t cmax = std::min(cols, cb + kBlock);
      for (int64_t r = rb; r < rmax; ++r)
        for (int64_t c = cb; c < cmax; ++c)
          dst[c * rows + r] = src[r * cols + c];
    }
}

// Legacy row-major kernel: "ikj" ordering so the inner loop is a
// vectorisable axpy over N. No element-level zero shortcut: 0 * NaN
// must stay NaN, so every A element's row of B is accumulated.
void ikj_kernel(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                const float* b, float beta, float* c) {
  auto run_rows = [&](int64_t row_begin, int64_t row_end) {
    constexpr int64_t kKBlock = 256;
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* ci = c + i * n;
      if (beta == 0.0f) {
        for (int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
      } else if (beta != 1.0f) {
        for (int64_t j = 0; j < n; ++j) ci[j] *= beta;
      }
      for (int64_t kb = 0; kb < k; kb += kKBlock) {
        const int64_t kmax = std::min(k, kb + kKBlock);
        for (int64_t p = kb; p < kmax; ++p) {
          const float av = alpha * a[i * k + p];
          const float* bp = b + p * n;
          for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
        }
      }
    }
  };
  // Parallelise across C's rows; each task writes a disjoint row range.
  const int64_t work = m * n * k;
  if (work > (1 << 16)) {
    ThreadPool::global().parallel_for(
        0, m, run_rows, std::max<int64_t>(1, (1 << 16) / (n * k)));
  } else {
    run_rows(0, m);
  }
}

}  // namespace

void set_gemm_backend(GemmBackend backend) {
  // Deprecated shim over the planner's PlanOptions (see plan.hpp).
  PlanOptions opts = plan_options();
  opts.backend = backend;
  set_plan_options(opts);
}

GemmBackend gemm_backend() { return plan_options().backend; }

bool gemm_int8_forward_enabled() {
  return resolved_gemm_backend() == GemmBackend::kInt8;
}

bool gemm_int8_backward_enabled() {
  return resolved_gemm_backend() == GemmBackend::kInt8;
}

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  if (gemm_blas_edge(m, n, k, alpha, beta, c)) return;
  const GemmBackend backend = resolved_gemm_backend();
  if (backend == GemmBackend::kIkj) {
    // Legacy perf baseline; never planned.
    gemm_ikj(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
    return;
  }
  const KernelPlan& plan = plan_for(PlanKey::f32(m, n, k, trans_a, trans_b));
  GemmOptions opts;
  // The forced-scalar backend stays an execution-time override: the
  // plan is backend-independent, but fp32 bits depend on the
  // micro-kernel, so the kernel choice rides on opts rather than the
  // cached plan.
  if (backend == GemmBackend::kPackedScalar) opts.kernel = GemmKernel::kScalar;
  gemm_ex(plan, alpha, a, b, beta, c, opts);
}

void gemm_conv(bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
               const float* a, const GemmF32ConvB& b, float beta,
               float* c) {
  if (gemm_blas_edge(m, n, k, alpha, beta, c)) return;
  const GemmBackend backend = resolved_gemm_backend();
  if (backend == GemmBackend::kIkj) {
    // Legacy perf baseline: multiplies the materialised patch matrix.
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    float* bk = scope.alloc_floats(static_cast<size_t>(k * n));
    gemm_unpack_conv_b(b, trans_b, k, n, bk);
    gemm_ikj(false, false, m, n, k, alpha, a, bk, beta, c);
    return;
  }
  GemmOptions opts;
  if (backend == GemmBackend::kPackedScalar) opts.kernel = GemmKernel::kScalar;
  gemm_conv_ex(plan_for(PlanKey::f32(m, n, k, false, trans_b)), alpha, a, b,
               beta, c, opts);
}

void gemm_ikj(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
              float alpha, const float* a, const float* b, float beta,
              float* c) {
  // Materialise transposed operands; the copy is O(MK + KN), negligible
  // next to the O(MNK) multiply for the shapes this library uses.
  std::vector<float> a_buf, b_buf;
  const float* ap = a;
  const float* bp = b;
  if (trans_a) {
    a_buf.resize(static_cast<size_t>(m * k));
    transpose(a, k, m, a_buf.data());  // stored as k x m; want m x k
    ap = a_buf.data();
  }
  if (trans_b) {
    b_buf.resize(static_cast<size_t>(k * n));
    transpose(b, n, k, b_buf.data());  // stored as n x k; want k x n
    bp = b_buf.data();
  }
  ikj_kernel(m, n, k, alpha, ap, bp, beta, c);
}

void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, const float* b, float beta,
                float* c) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
}

}  // namespace apt::nn
