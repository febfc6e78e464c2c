#include "nn/gemm.hpp"

#include "nn/gemm_kernel.hpp"
#include "nn/plan.hpp"

namespace apt::nn {

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  if (gemm_blas_edge(m, n, k, alpha, beta, c)) return;
  gemm_ex(plan_for(PlanKey::f32(m, n, k, trans_a, trans_b)), alpha, a, b,
          beta, c);
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
