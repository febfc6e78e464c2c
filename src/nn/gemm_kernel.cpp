#include "nn/gemm_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "base/arena.hpp"
#include "base/check.hpp"
#include "base/cpu.hpp"
#include "base/thread_pool.hpp"

#define APT_GEMM_X86 APT_X86
#if APT_GEMM_X86
#include <immintrin.h>
#endif

namespace apt::nn {
namespace {

// ---------------------------------------------------------- micro-kernels
//
// Both kernels compute acc[MR][NR] = sum_p pa[p*MR + i] * pb[p*NR + j]
// over one packed A strip and one packed B strip. alpha/beta handling
// happens in the write-back so the inner loop is pure FMA.

// One output row at a time: its NR accumulators fit the baseline
// vector register file (4 xmm on SSE2), so the p-loop vectorises and
// stays out of memory; B strips are L1-hot across the MR rows.
void micro_kernel_scalar(int64_t kc, const float* __restrict pa,
                         const float* __restrict pb, float* __restrict acc) {
  for (int64_t i = 0; i < kGemmMR; ++i) {
    float row[kGemmNR] = {};
    const float* __restrict b = pb;
    for (int64_t p = 0; p < kc; ++p, b += kGemmNR) {
      const float ai = pa[p * kGemmMR + i];
      for (int64_t j = 0; j < kGemmNR; ++j) row[j] += ai * b[j];
    }
    std::copy(row, row + kGemmNR, acc + i * kGemmNR);
  }
}

#if APT_GEMM_X86
// 6x16 tile: 12 ymm accumulators + 2 B vectors + 1 broadcast register.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(int64_t kc,
                                                           const float* pa,
                                                           const float* pb,
                                                           float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p, pa += kGemmMR, pb += kGemmNR) {
    const __m256 b0 = _mm256_loadu_ps(pb);
    const __m256 b1 = _mm256_loadu_ps(pb + 8);
    __m256 a;
    a = _mm256_broadcast_ss(pa + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(pa + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(pa + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(pa + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(pa + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(pa + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  _mm256_storeu_ps(acc + 0 * kGemmNR, c00);
  _mm256_storeu_ps(acc + 0 * kGemmNR + 8, c01);
  _mm256_storeu_ps(acc + 1 * kGemmNR, c10);
  _mm256_storeu_ps(acc + 1 * kGemmNR + 8, c11);
  _mm256_storeu_ps(acc + 2 * kGemmNR, c20);
  _mm256_storeu_ps(acc + 2 * kGemmNR + 8, c21);
  _mm256_storeu_ps(acc + 3 * kGemmNR, c30);
  _mm256_storeu_ps(acc + 3 * kGemmNR + 8, c31);
  _mm256_storeu_ps(acc + 4 * kGemmNR, c40);
  _mm256_storeu_ps(acc + 4 * kGemmNR + 8, c41);
  _mm256_storeu_ps(acc + 5 * kGemmNR, c50);
  _mm256_storeu_ps(acc + 5 * kGemmNR + 8, c51);
}

// 6x32 tile over two adjacent packed B strips (pb1 = the strip after
// pb0): 12 zmm accumulators + 2 B vectors + 1 broadcast register. Lane j
// of every accumulator runs micro_kernel_avx2's chain for its (i, j) —
// start at zero, one FMA per p ascending — so each 6x16 half is that
// kernel's tile bit for bit. The halves are written as two consecutive
// MR x NR tiles for the shared write-back; no arithmetic happens outside
// the intrinsics, so nothing here is open to FMA contraction.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    int64_t kc, const float* pa, const float* pb0, const float* pb1,
    float* acc) {
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
  __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
  for (int64_t p = 0; p < kc;
       ++p, pa += kGemmMR, pb0 += kGemmNR, pb1 += kGemmNR) {
    const __m512 b0 = _mm512_loadu_ps(pb0);
    const __m512 b1 = _mm512_loadu_ps(pb1);
    __m512 a;
    a = _mm512_set1_ps(pa[0]);
    c00 = _mm512_fmadd_ps(a, b0, c00);
    c01 = _mm512_fmadd_ps(a, b1, c01);
    a = _mm512_set1_ps(pa[1]);
    c10 = _mm512_fmadd_ps(a, b0, c10);
    c11 = _mm512_fmadd_ps(a, b1, c11);
    a = _mm512_set1_ps(pa[2]);
    c20 = _mm512_fmadd_ps(a, b0, c20);
    c21 = _mm512_fmadd_ps(a, b1, c21);
    a = _mm512_set1_ps(pa[3]);
    c30 = _mm512_fmadd_ps(a, b0, c30);
    c31 = _mm512_fmadd_ps(a, b1, c31);
    a = _mm512_set1_ps(pa[4]);
    c40 = _mm512_fmadd_ps(a, b0, c40);
    c41 = _mm512_fmadd_ps(a, b1, c41);
    a = _mm512_set1_ps(pa[5]);
    c50 = _mm512_fmadd_ps(a, b0, c50);
    c51 = _mm512_fmadd_ps(a, b1, c51);
  }
  float* acc1 = acc + kGemmMR * kGemmNR;
  _mm512_storeu_ps(acc + 0 * kGemmNR, c00);
  _mm512_storeu_ps(acc1 + 0 * kGemmNR, c01);
  _mm512_storeu_ps(acc + 1 * kGemmNR, c10);
  _mm512_storeu_ps(acc1 + 1 * kGemmNR, c11);
  _mm512_storeu_ps(acc + 2 * kGemmNR, c20);
  _mm512_storeu_ps(acc1 + 2 * kGemmNR, c21);
  _mm512_storeu_ps(acc + 3 * kGemmNR, c30);
  _mm512_storeu_ps(acc1 + 3 * kGemmNR, c31);
  _mm512_storeu_ps(acc + 4 * kGemmNR, c40);
  _mm512_storeu_ps(acc1 + 4 * kGemmNR, c41);
  _mm512_storeu_ps(acc + 5 * kGemmNR, c50);
  _mm512_storeu_ps(acc1 + 5 * kGemmNR, c51);
}
#endif  // APT_GEMM_X86

// The SIMD level a kernel request runs at: kAuto follows the host's
// level (base/cpu.hpp, APT_SIMD included); a forced level must be
// available.
SimdLevel resolve_level(GemmKernel which) {
  switch (which) {
    case GemmKernel::kScalar:
      return SimdLevel::kScalar;
    case GemmKernel::kAvx2:
      APT_CHECK(gemm_cpu_has_avx2_fma())
          << "AVX2 kernel forced on a CPU (or APT_SIMD cap) without AVX2+FMA";
      return SimdLevel::kAvx2;
    case GemmKernel::kAvx512:
      APT_CHECK(gemm_cpu_has_avx512())
          << "AVX-512 kernel forced on a CPU (or APT_SIMD cap) without "
             "AVX-512 F/VL/VNNI";
      return SimdLevel::kAvx512;
    case GemmKernel::kAuto:
    default:
      return simd_level();
  }
}

// The fp32 tile kernels of one level: `one` covers a single NR strip;
// `two`, when set, covers two adjacent strips in one pass (writing two
// MR x NR tiles) and `one` takes an odd last strip.
struct F32Kernels {
  void (*one)(int64_t, const float*, const float*, float*);
  void (*two)(int64_t, const float*, const float*, const float*, float*);
};

F32Kernels resolve_kernel(GemmKernel which) {
  switch (resolve_level(which)) {
#if APT_GEMM_X86
    case SimdLevel::kAvx512:
      return {micro_kernel_avx2, micro_kernel_avx512};
    case SimdLevel::kAvx2:
      return {micro_kernel_avx2, nullptr};
#endif
    default:
      return {micro_kernel_scalar, nullptr};
  }
}

// ------------------------------------------------------ s8 micro-kernels
//
// Both kernels compute acc[MR][NR] = sum_kp (pa0*pb0 + pa1*pb1) over
// int16-widened unsigned codes packed as k-pairs (see gemm_kernel.hpp).
// All arithmetic is int32 and exact, so the scalar and AVX2 variants are
// bit-identical by construction.

void micro_kernel_s8_scalar(int64_t kp_count, const int16_t* __restrict pa,
                            const int16_t* __restrict pb,
                            int32_t* __restrict acc) {
  for (int64_t i = 0; i < kGemmMR; ++i) {
    int32_t row[kGemmNR] = {};
    const int16_t* __restrict b = pb;
    for (int64_t kp = 0; kp < kp_count; ++kp, b += 2 * kGemmNR) {
      const int32_t a0 = pa[(kp * kGemmMR + i) * 2 + 0];
      const int32_t a1 = pa[(kp * kGemmMR + i) * 2 + 1];
      for (int64_t j = 0; j < kGemmNR; ++j)
        row[j] += a0 * b[2 * j] + a1 * b[2 * j + 1];
    }
    std::copy(row, row + kGemmNR, acc + i * kGemmNR);
  }
}

#if APT_GEMM_X86
// 6x16 int32 tile via vpmaddwd: each madd consumes one k-pair for 8
// columns. This is the always-exact fallback — for full-range codes,
// vpmaddubsw's int16 pair-sum could saturate (2*255*128 > 32767), so
// both operands are pre-widened to int16 and every intermediate stays
// well inside int32.
__attribute__((target("avx2"))) void micro_kernel_s8_avx2(int64_t kp_count,
                                                          const int16_t* pa,
                                                          const int16_t* pb,
                                                          int32_t* acc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  // One broadcast grabs a whole (a[i,p], a[i,p+1]) int16 pair as 32 bits;
  // memcpy keeps the type-punned load defined (it compiles to vpbroadcastd).
  auto pair_at = [](const int16_t* p) {
    int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  for (int64_t kp = 0; kp < kp_count;
       ++kp, pa += 2 * kGemmMR, pb += 2 * kGemmNR) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kGemmNR));
    __m256i a;
    a = _mm256_set1_epi32(pair_at(pa + 0));
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(a, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(a, b1));
    a = _mm256_set1_epi32(pair_at(pa + 2));
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(a, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(a, b1));
    a = _mm256_set1_epi32(pair_at(pa + 4));
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(a, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(a, b1));
    a = _mm256_set1_epi32(pair_at(pa + 6));
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(a, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(a, b1));
    a = _mm256_set1_epi32(pair_at(pa + 8));
    c40 = _mm256_add_epi32(c40, _mm256_madd_epi16(a, b0));
    c41 = _mm256_add_epi32(c41, _mm256_madd_epi16(a, b1));
    a = _mm256_set1_epi32(pair_at(pa + 10));
    c50 = _mm256_add_epi32(c50, _mm256_madd_epi16(a, b0));
    c51 = _mm256_add_epi32(c51, _mm256_madd_epi16(a, b1));
  }
  // Plain statements, not a helper lambda: a lambda would not inherit
  // the enclosing function's target("avx2") and fails to inline.
  __m256i* out = reinterpret_cast<__m256i*>(acc);
  _mm256_storeu_si256(out + 0, c00);
  _mm256_storeu_si256(out + 1, c01);
  _mm256_storeu_si256(out + 2, c10);
  _mm256_storeu_si256(out + 3, c11);
  _mm256_storeu_si256(out + 4, c20);
  _mm256_storeu_si256(out + 5, c21);
  _mm256_storeu_si256(out + 6, c30);
  _mm256_storeu_si256(out + 7, c31);
  _mm256_storeu_si256(out + 8, c40);
  _mm256_storeu_si256(out + 9, c41);
  _mm256_storeu_si256(out + 10, c50);
  _mm256_storeu_si256(out + 11, c51);
}
#endif  // APT_GEMM_X86

#if APT_GEMM_X86
// ------------------------------------------------- s8 quad fast path
//
// When one operand's codes provably fit the vpmaddubsw headroom
// (<= kGemmS8QuadMaxCode, see gemm_kernel.hpp), the operands stay raw
// bytes packed as k-QUADS and each column's quad collapses via
// vpmaddubsw (u8 x s8 -> i16 pair-sums) + vpmaddwd(·, 1) (-> i32 quad
// sum): three ops retire 4 k steps for 8 columns, 1.33x the pair path's
// MAC density. The two variants differ only in which operand is the
// signed (small-code) one: vpmaddubsw's first argument must be the
// unsigned full-range operand.

// The 6x16 quad tile, templated over the vpmaddubsw argument order:
// kBSmall means B carries the small (signed-safe) codes and A is the
// unsigned full-range operand — vpmaddubsw's first argument must be the
// unsigned one. Plain ternaries on the constexpr flag keep every
// intrinsic lexically inside this target("avx2") function (a helper
// lambda would not inherit the attribute and fail to inline).
template <bool kBSmall>
__attribute__((target("avx2"))) void micro_kernel_s8_quads(
    int64_t kq_count, const uint8_t* pa, const uint8_t* pb, int32_t* acc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  auto quad_at = [](const uint8_t* p) {
    int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  for (int64_t kq = 0; kq < kq_count;
       ++kq, pa += 4 * kGemmMR, pb += 4 * kGemmNR) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + 4 * 8));
    __m256i aq, t;
      aq = _mm256_set1_epi32(quad_at(pa + 0));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b0) : _mm256_maddubs_epi16(b0, aq);
      c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(t, ones));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b1) : _mm256_maddubs_epi16(b1, aq);
      c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(t, ones));
      aq = _mm256_set1_epi32(quad_at(pa + 4));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b0) : _mm256_maddubs_epi16(b0, aq);
      c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(t, ones));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b1) : _mm256_maddubs_epi16(b1, aq);
      c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(t, ones));
      aq = _mm256_set1_epi32(quad_at(pa + 8));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b0) : _mm256_maddubs_epi16(b0, aq);
      c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(t, ones));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b1) : _mm256_maddubs_epi16(b1, aq);
      c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(t, ones));
      aq = _mm256_set1_epi32(quad_at(pa + 12));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b0) : _mm256_maddubs_epi16(b0, aq);
      c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(t, ones));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b1) : _mm256_maddubs_epi16(b1, aq);
      c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(t, ones));
      aq = _mm256_set1_epi32(quad_at(pa + 16));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b0) : _mm256_maddubs_epi16(b0, aq);
      c40 = _mm256_add_epi32(c40, _mm256_madd_epi16(t, ones));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b1) : _mm256_maddubs_epi16(b1, aq);
      c41 = _mm256_add_epi32(c41, _mm256_madd_epi16(t, ones));
      aq = _mm256_set1_epi32(quad_at(pa + 20));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b0) : _mm256_maddubs_epi16(b0, aq);
      c50 = _mm256_add_epi32(c50, _mm256_madd_epi16(t, ones));
      t = kBSmall ? _mm256_maddubs_epi16(aq, b1) : _mm256_maddubs_epi16(b1, aq);
      c51 = _mm256_add_epi32(c51, _mm256_madd_epi16(t, ones));
  }
  __m256i* out = reinterpret_cast<__m256i*>(acc);
  _mm256_storeu_si256(out + 0, c00);
  _mm256_storeu_si256(out + 1, c01);
  _mm256_storeu_si256(out + 2, c10);
  _mm256_storeu_si256(out + 3, c11);
  _mm256_storeu_si256(out + 4, c20);
  _mm256_storeu_si256(out + 5, c21);
  _mm256_storeu_si256(out + 6, c30);
  _mm256_storeu_si256(out + 7, c31);
  _mm256_storeu_si256(out + 8, c40);
  _mm256_storeu_si256(out + 9, c41);
  _mm256_storeu_si256(out + 10, c50);
  _mm256_storeu_si256(out + 11, c51);
}

// ------------------------------------------------- s8 VNNI tile
//
// The same 6x16 quad tile on AVX512-VNNI+VL: one vpdpbusd folds a whole
// byte quad (u8 x s8, four products summed straight into the int32 lane,
// no intermediate saturation) where the AVX2 tile needs maddubs + madd +
// add. kBSigned means B's bytes are the signed operand — codes <=
// kGemmS8QuadMaxCode, or full-range codes the packer recentred to
// qb - 128 — and A is the unsigned one; otherwise A carries the small
// codes and B the full-range unsigned ones.
template <bool kBSigned>
__attribute__((target("avx2,avx512f,avx512vl,avx512vnni"))) void
micro_kernel_s8_vnni(int64_t kq_count, const uint8_t* pa, const uint8_t* pb,
                     int32_t* acc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  auto quad_at = [](const uint8_t* p) {
    int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  for (int64_t kq = 0; kq < kq_count;
       ++kq, pa += 4 * kGemmMR, pb += 4 * kGemmNR) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + 4 * 8));
    __m256i aq;
    aq = _mm256_set1_epi32(quad_at(pa + 0));
    c00 = kBSigned ? _mm256_dpbusd_epi32(c00, aq, b0)
                   : _mm256_dpbusd_epi32(c00, b0, aq);
    c01 = kBSigned ? _mm256_dpbusd_epi32(c01, aq, b1)
                   : _mm256_dpbusd_epi32(c01, b1, aq);
    aq = _mm256_set1_epi32(quad_at(pa + 4));
    c10 = kBSigned ? _mm256_dpbusd_epi32(c10, aq, b0)
                   : _mm256_dpbusd_epi32(c10, b0, aq);
    c11 = kBSigned ? _mm256_dpbusd_epi32(c11, aq, b1)
                   : _mm256_dpbusd_epi32(c11, b1, aq);
    aq = _mm256_set1_epi32(quad_at(pa + 8));
    c20 = kBSigned ? _mm256_dpbusd_epi32(c20, aq, b0)
                   : _mm256_dpbusd_epi32(c20, b0, aq);
    c21 = kBSigned ? _mm256_dpbusd_epi32(c21, aq, b1)
                   : _mm256_dpbusd_epi32(c21, b1, aq);
    aq = _mm256_set1_epi32(quad_at(pa + 12));
    c30 = kBSigned ? _mm256_dpbusd_epi32(c30, aq, b0)
                   : _mm256_dpbusd_epi32(c30, b0, aq);
    c31 = kBSigned ? _mm256_dpbusd_epi32(c31, aq, b1)
                   : _mm256_dpbusd_epi32(c31, b1, aq);
    aq = _mm256_set1_epi32(quad_at(pa + 16));
    c40 = kBSigned ? _mm256_dpbusd_epi32(c40, aq, b0)
                   : _mm256_dpbusd_epi32(c40, b0, aq);
    c41 = kBSigned ? _mm256_dpbusd_epi32(c41, aq, b1)
                   : _mm256_dpbusd_epi32(c41, b1, aq);
    aq = _mm256_set1_epi32(quad_at(pa + 20));
    c50 = kBSigned ? _mm256_dpbusd_epi32(c50, aq, b0)
                   : _mm256_dpbusd_epi32(c50, b0, aq);
    c51 = kBSigned ? _mm256_dpbusd_epi32(c51, aq, b1)
                   : _mm256_dpbusd_epi32(c51, b1, aq);
  }
  __m256i* out = reinterpret_cast<__m256i*>(acc);
  _mm256_storeu_si256(out + 0, c00);
  _mm256_storeu_si256(out + 1, c01);
  _mm256_storeu_si256(out + 2, c10);
  _mm256_storeu_si256(out + 3, c11);
  _mm256_storeu_si256(out + 4, c20);
  _mm256_storeu_si256(out + 5, c21);
  _mm256_storeu_si256(out + 6, c30);
  _mm256_storeu_si256(out + 7, c31);
  _mm256_storeu_si256(out + 8, c40);
  _mm256_storeu_si256(out + 9, c41);
  _mm256_storeu_si256(out + 10, c50);
  _mm256_storeu_si256(out + 11, c51);
}
#endif  // APT_GEMM_X86

// ------------------------------------------------------------ s8 packing
//
// Both integer layouts store one 32-bit word per row (A) or column (B)
// per k-group: a k-pair widened to two int16 (pairs, see gemm_kernel.hpp)
// or a raw byte k-quad (quads). Every operand the driver packs has one
// of two source shapes, and each shape has one SSE2 fast path (baseline
// x86-64, so no target attribute) that also folds the code sums in:
//  * LINES, k contiguous within a row/column: non-transposed A,
//    transposed B and the transposed implicit conv operand. Four lines'
//    words for four consecutive groups are one 4x4 word transpose, and
//    psadbw on the loaded bytes sums each line.
//  * ROWS of NR contiguous codes per k: non-transposed B and the
//    implicit conv operand. k rows interleave bytewise into NR words,
//    and madd (pairs) or widening adds (quads) sum each column.
// The scalar loop remains for group tails, transposed A and non-x86
// builds. Packed bytes and sums are identical on every path. Quad
// packers take a `flip` byte XORed into every stored byte (the VNNI
// tile's 0x80 recentring of full-range B, see gemm_kernel.hpp); sums are
// always taken on the codes before the XOR. Pair packers pass 0.

static_assert(kGemmMR % 2 == 0 && kGemmNR == 16,
              "SSE2 packers store 2- or 4-word line groups and 16-code rows");

// Scalar packing of groups [g_begin, ceil(kc/kGroup)) of one strip of
// `width` lines: word (g, l) holds the codes at(i, l) for k index
// i = g*kGroup + t, with 0 past kc and for lines l >= nlines. Adds each
// real line's codes into sums[l] when sums is non-null. Stores q ^ flip.
template <typename T, int kGroup, typename At>
void pack_groups_scalar(At at, int64_t nlines, int64_t width, int64_t kc,
                        int64_t g_begin, T* dst, int32_t* sums,
                        uint8_t flip) {
  const int64_t groups = (kc + kGroup - 1) / kGroup;
  for (int64_t g = g_begin; g < groups; ++g) {
    T* out = dst + g * width * kGroup;
    for (int64_t l = 0; l < width; ++l)
      for (int64_t t = 0; t < kGroup; ++t) {
        const int64_t i = g * kGroup + t;
        const int32_t q = l < nlines && i < kc ? at(i, l) : 0;
        out[l * kGroup + t] = static_cast<T>(q ^ flip);
        if (sums != nullptr && l < nlines) sums[l] += q;
      }
  }
}

#if APT_GEMM_X86
inline __m128i load_u32(const uint8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm_cvtsi32_si128(v);
}

// The n <= 16 codes base[off[0]], ..., base[off[n-1]] as one vector
// (zero beyond n), given that every aligned kRun-chunk of off is
// consecutive, so each chunk is one load. kRun == 1 gathers bytewise.
template <int kRun>
inline __m128i load_runs(const uint8_t* base, const int64_t* off, int64_t n) {
  if constexpr (kRun == 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + off[0]));
  } else if constexpr (kRun == 8) {
    const __m128i lo =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base + off[0]));
    if (n <= 8) return lo;
    return _mm_unpacklo_epi64(
        lo, _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base + off[8])));
  } else if constexpr (kRun == 4) {
    const __m128i lo = _mm_unpacklo_epi32(load_u32(base + off[0]),
                                          load_u32(base + off[4]));
    if (n <= 8) return lo;
    return _mm_unpacklo_epi64(
        lo, _mm_unpacklo_epi32(load_u32(base + off[8]),
                               load_u32(base + off[12])));
  } else {
    alignas(16) uint8_t buf[16] = {};
    for (int64_t i = 0; i < n; ++i) buf[i] = base[off[i]];
    return _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
  }
}

// Calls f(std::integral_constant<int, run>{}) for a run from
// contiguous_run, so each run width gets its own load_runs loop.
template <typename F>
void with_run(int64_t run, F&& f) {
  switch (run) {
    case 16:
      f(std::integral_constant<int, 16>{});
      break;
    case 8:
      f(std::integral_constant<int, 8>{});
      break;
    case 4:
      f(std::integral_constant<int, 4>{});
      break;
    default:
      f(std::integral_constant<int, 1>{});
      break;
  }
}

// LINES shape. load(l, b) returns line l's codes of groups [4b, 4b+4):
// the low 8 bytes for pairs, all 16 for quads. Packs `blocks` such
// blocks for `width` lines (lines in [nlines, width) as zero words) and
// adds each real line's code sum into sums[l] when sums is non-null.
template <int kGroup, typename Load>
void pack_lines_sse2(Load load, int64_t nlines, int64_t width,
                     int64_t blocks, std::byte* dst, int32_t* sums,
                     uint8_t flip) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i vflip = _mm_set1_epi8(static_cast<char>(flip));
  for (int64_t l0 = 0; l0 < width; l0 += 4) {
    __m128i sum[4] = {zero, zero, zero, zero};
    for (int64_t b = 0; b < blocks; ++b) {
      __m128i x[4];
      for (int64_t i = 0; i < 4; ++i) {
        x[i] = zero;
        if (l0 + i >= nlines) continue;
        x[i] = load(l0 + i, b);
        sum[i] = _mm_add_epi32(sum[i], _mm_sad_epu8(x[i], zero));
        if constexpr (kGroup == 2) x[i] = _mm_unpacklo_epi8(x[i], zero);
      }
      // 4x4 word transpose: word g of x[i] becomes word i of t[g].
      const __m128i a = _mm_unpacklo_epi32(x[0], x[1]);
      const __m128i c = _mm_unpackhi_epi32(x[0], x[1]);
      const __m128i e = _mm_unpacklo_epi32(x[2], x[3]);
      const __m128i f = _mm_unpackhi_epi32(x[2], x[3]);
      __m128i t[4] = {
          _mm_unpacklo_epi64(a, e), _mm_unpackhi_epi64(a, e),
          _mm_unpacklo_epi64(c, f), _mm_unpackhi_epi64(c, f)};
      if constexpr (kGroup == 4)
        for (__m128i& v : t) v = _mm_xor_si128(v, vflip);
      std::byte* out = dst + (4 * b * width + l0) * 4;
      for (int64_t g = 0; g < 4; ++g, out += width * 4) {
        if (l0 + 4 <= width) {
          _mm_storeu_si128(reinterpret_cast<__m128i*>(out), t[g]);
        } else {
          _mm_storel_epi64(reinterpret_cast<__m128i*>(out), t[g]);
        }
      }
    }
    if (sums != nullptr)
      for (int64_t i = 0; i < 4 && l0 + i < nlines; ++i)
        sums[l0 + i] += _mm_cvtsi128_si32(sum[i]) +
                        _mm_cvtsi128_si32(_mm_unpackhi_epi64(sum[i], sum[i]));
  }
}

// ROWS shape. load(i) returns the NR codes of k row i < kc (zero past
// `cols`). Packs all ceil(kc/kGroup) groups, rows past kc as zeros, and
// adds the first `cols` column sums into sums[c] when sums is non-null.
template <int kGroup, typename Load>
void pack_rows_sse2(Load load, int64_t kc, int64_t cols, std::byte* dst,
                    int32_t* sums, uint8_t flip) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i vflip = _mm_set1_epi8(static_cast<char>(flip));
  __m128i sum[4] = {zero, zero, zero, zero};  // int32, columns 4i..4i+3
  for (int64_t p = 0; p < kc; p += kGroup, dst += 4 * kGemmNR) {
    __m128i x[kGroup];
    for (int64_t t = 0; t < kGroup; ++t)
      x[t] = p + t < kc ? load(p + t) : zero;
    __m128i* out = reinterpret_cast<__m128i*>(dst);
    const __m128i lo = _mm_unpacklo_epi8(x[0], x[1]);  // columns 0..7
    const __m128i hi = _mm_unpackhi_epi8(x[0], x[1]);  // columns 8..15
    if constexpr (kGroup == 2) {
      const __m128i ones = _mm_set1_epi16(1);
      const __m128i w[4] = {
          _mm_unpacklo_epi8(lo, zero), _mm_unpackhi_epi8(lo, zero),
          _mm_unpacklo_epi8(hi, zero), _mm_unpackhi_epi8(hi, zero)};
      for (int i = 0; i < 4; ++i) {
        _mm_storeu_si128(out + i, w[i]);
        sum[i] = _mm_add_epi32(sum[i], _mm_madd_epi16(w[i], ones));
      }
    } else {
      const __m128i lo23 = _mm_unpacklo_epi8(x[2], x[3]);
      const __m128i hi23 = _mm_unpackhi_epi8(x[2], x[3]);
      _mm_storeu_si128(out + 0,
                       _mm_xor_si128(_mm_unpacklo_epi16(lo, lo23), vflip));
      _mm_storeu_si128(out + 1,
                       _mm_xor_si128(_mm_unpackhi_epi16(lo, lo23), vflip));
      _mm_storeu_si128(out + 2,
                       _mm_xor_si128(_mm_unpacklo_epi16(hi, hi23), vflip));
      _mm_storeu_si128(out + 3,
                       _mm_xor_si128(_mm_unpackhi_epi16(hi, hi23), vflip));
      // Four rows' codes per column (<= 1020, an int16 lane), then int32.
      const __m128i s_lo = _mm_add_epi16(
          _mm_add_epi16(_mm_unpacklo_epi8(x[0], zero),
                        _mm_unpacklo_epi8(x[1], zero)),
          _mm_add_epi16(_mm_unpacklo_epi8(x[2], zero),
                        _mm_unpacklo_epi8(x[3], zero)));
      const __m128i s_hi = _mm_add_epi16(
          _mm_add_epi16(_mm_unpackhi_epi8(x[0], zero),
                        _mm_unpackhi_epi8(x[1], zero)),
          _mm_add_epi16(_mm_unpackhi_epi8(x[2], zero),
                        _mm_unpackhi_epi8(x[3], zero)));
      sum[0] = _mm_add_epi32(sum[0], _mm_unpacklo_epi16(s_lo, zero));
      sum[1] = _mm_add_epi32(sum[1], _mm_unpackhi_epi16(s_lo, zero));
      sum[2] = _mm_add_epi32(sum[2], _mm_unpacklo_epi16(s_hi, zero));
      sum[3] = _mm_add_epi32(sum[3], _mm_unpackhi_epi16(s_hi, zero));
    }
  }
  if (sums != nullptr) {
    alignas(16) int32_t s[kGemmNR];
    for (int i = 0; i < 4; ++i)
      _mm_store_si128(reinterpret_cast<__m128i*>(s + 4 * i), sum[i]);
    for (int64_t c = 0; c < cols; ++c) sums[c] += s[c];
  }
}

// Offsets 0..NR-1: the load_runs table of an explicit operand's
// contiguous codes.
constexpr int64_t kIota[kGemmNR] = {0, 1, 2,  3,  4,  5,  6,  7,
                                    8, 9, 10, 11, 12, 13, 14, 15};
#endif  // APT_GEMM_X86

// Explicit operand, element (k index p, line j) at
// x[p*k_stride + j*l_stride]: packs k-range [p0, p0+kc) x lines
// [l0, l0+nl) (rows of A, columns of B) into `width`-line strips of
// kGroup-code groups.
template <typename T, int kGroup>
void pack_explicit(const uint8_t* x, int64_t k_stride, int64_t l_stride,
                   int64_t l0, int64_t nl, int64_t width, int64_t p0,
                   int64_t kc, T* dst, int32_t* sums, uint8_t flip) {
  const int64_t groups = (kc + kGroup - 1) / kGroup;
  for (int64_t s = 0; s < nl; s += width, dst += width * kGroup * groups) {
    const int64_t lines = std::min(width, nl - s);
    const uint8_t* src = x + p0 * k_stride + (l0 + s) * l_stride;
    int32_t* ssum = sums != nullptr ? sums + s : nullptr;
    int64_t g_begin = 0;
#if APT_GEMM_X86
    auto* out = reinterpret_cast<std::byte*>(dst);
    if (k_stride == 1) {
      constexpr int kBlock = 4 * kGroup;
      const int64_t blocks = kc / kBlock;
      pack_lines_sse2<kGroup>(
          [&](int64_t l, int64_t b) {
            return load_runs<kBlock>(src + l * l_stride + b * kBlock, kIota,
                                     kBlock);
          },
          lines, width, blocks, out, ssum, flip);
      g_begin = 4 * blocks;
    } else if (l_stride == 1 && width == kGemmNR) {
      with_run(lines == kGemmNR ? kGemmNR : 1, [&](auto r) {
        pack_rows_sse2<kGroup>(
            [&](int64_t i) {
              return load_runs<decltype(r)::value>(src + i * k_stride, kIota,
                                                   lines);
            },
            kc, lines, out, ssum, flip);
      });
      g_begin = groups;
    }
#endif
    pack_groups_scalar<T, kGroup>(
        [&](int64_t i, int64_t l) {
          return src[i * k_stride + l * l_stride];
        },
        lines, width, kc, g_begin, dst, ssum, flip);
  }
}

// --------------------------------------------- implicit conv B packing
//
// The implicit conv operand (GemmS8ConvB in the header) is the virtual
// im2col matrix X[t, q] = img[tap(t) + pos(q)], where tap(t) is the
// image offset of kernel tap t = (c, kh, kw) and pos(q) that of output
// position q = (y, xo). Forward B is X (k = taps, columns = positions);
// the weight gradient's B is Xᵀ (k = positions, columns = taps). Either
// way every packed element is img[koff[i] + coff[c]] for a per-k and a
// per-column offset table, so one packer serves both. The packed bytes
// are identical to packing the materialised matrix; only its round
// trip through memory disappears.

// Image offsets of taps [t0, t0 + count), walked incrementally (the
// kernel size is runtime, so divisions would not strength-reduce).
template <typename T>
void conv_tap_offsets(const GemmConvB<T>& cb, int64_t t0, int64_t count,
                      int64_t* out) {
  const int64_t kk = cb.kernel * cb.kernel;
  int64_t c = t0 / kk, kh = (t0 % kk) / cb.kernel, kw = t0 % cb.kernel;
  for (int64_t i = 0; i < count; ++i) {
    out[i] = (c * cb.ph + kh) * cb.pw + kw;
    if (++kw == cb.kernel) {
      kw = 0;
      if (++kh == cb.kernel) {
        kh = 0;
        ++c;
      }
    }
  }
}

// Image offsets of output positions [q0, q0 + count).
template <typename T>
void conv_pos_offsets(const GemmConvB<T>& cb, int64_t q0, int64_t count,
                      int64_t* out) {
  int64_t y = q0 / cb.ow, x = q0 % cb.ow;
  for (int64_t i = 0; i < count; ++i) {
    out[i] = (y * cb.pw + x) * cb.stride;
    if (++x == cb.ow) {
      x = 0;
      ++y;
    }
  }
}

// Largest w in {16, 8, 4}, capped at wmax, such that every aligned
// w-chunk of off[0, n) is consecutive offsets (one load per chunk);
// 1 when no width qualifies. Stride-1 rows whose ow is a multiple of w
// qualify; strided or ragged ones gather.
int64_t contiguous_run(const int64_t* off, int64_t n, int64_t wmax) {
  int64_t w = wmax;
  for (int64_t i = 0; i < n && w >= 4; ++i)
    while (w >= 4 && off[i] != off[i - i % w] + i % w) w /= 2;
  return w >= 4 ? w : 1;
}

template <typename T, int kGroup>
void pack_conv(const GemmS8ConvB& cb, bool trans_b, int64_t p0, int64_t kc,
               int64_t j0, int64_t nc, T* dst, int32_t* colsum,
               uint8_t flip) {
  const int64_t groups = (kc + kGroup - 1) / kGroup;
  const uint8_t* img = cb.padded;
  // Sized for the deepest runtime k panel either strategy plans
  // (GemmOptions::kc is clamped to kGemmS8KCQuad).
  int64_t koff[kGemmS8KCQuad];
  int64_t coff[kGemmNR];
  if (trans_b) {
    conv_pos_offsets(cb, p0, kc, koff);
  } else {
    conv_tap_offsets(cb, p0, kc, koff);
  }
#if APT_GEMM_X86
  // The transposed operand is LINES: one block load covers 4 groups of k
  // positions, as wide runs as the positions allow.
  constexpr int64_t kBlock = 4 * kGroup;
  const int64_t blocks = trans_b ? kc / kBlock : 0;
  const int64_t krun = contiguous_run(koff, blocks * kBlock, kBlock);
#endif
  for (int64_t s = 0; s < nc; s += kGemmNR, dst += kGemmNR * kGroup * groups) {
    const int64_t cols = std::min(kGemmNR, nc - s);
    if (trans_b) {
      conv_tap_offsets(cb, j0 + s, cols, coff);
    } else {
      conv_pos_offsets(cb, j0 + s, cols, coff);
    }
    int32_t* sums = colsum != nullptr ? colsum + s : nullptr;
    int64_t g_begin = 0;
#if APT_GEMM_X86
    auto* out = reinterpret_cast<std::byte*>(dst);
    if (!trans_b) {
      const int64_t run =
          cols == kGemmNR ? contiguous_run(coff, kGemmNR, kGemmNR) : 1;
      with_run(run, [&](auto r) {
        pack_rows_sse2<kGroup>(
            [&](int64_t i) {
              return load_runs<decltype(r)::value>(img + koff[i], coff, cols);
            },
            kc, cols, out, sums, flip);
      });
      g_begin = groups;
    } else {
      with_run(krun, [&](auto r) {
        pack_lines_sse2<kGroup>(
            [&](int64_t l, int64_t b) {
              return load_runs<decltype(r)::value>(img + coff[l],
                                                   koff + b * kBlock, kBlock);
            },
            cols, kGemmNR, blocks, out, sums, flip);
      });
      g_begin = 4 * blocks;
    }
#endif
    pack_groups_scalar<T, kGroup>(
        [&](int64_t i, int64_t c) { return img[koff[i] + coff[c]]; }, cols,
        kGemmNR, kc, g_begin, dst, sums, flip);
  }
}

// The (taps or positions) x (positions or taps) extents of an implicit
// conv operand must describe the descriptor's geometry.
template <typename T>
void check_conv_b(const GemmConvB<T>& cb, bool trans_b, int64_t k,
                  int64_t n) {
  const int64_t taps = trans_b ? n : k, positions = trans_b ? k : n;
  APT_CHECK(positions == cb.oh * cb.ow && cb.kernel > 0 &&
            taps % (cb.kernel * cb.kernel) == 0)
      << "gemm: inconsistent implicit conv B descriptor";
}

// One fp32 strip of the implicit operand: dst[p*NR + c] = img[koff[p] +
// coff[c]] for c < cols, 0.0f beyond. Full strips whose columns run
// contiguously in kRun-chunks (the forward operand at stride 1) copy
// straight from the image.
template <int kRun>
void pack_f32_rows(const float* img, const int64_t* koff, int64_t kc,
                   const int64_t* coff, float* dst) {
  for (int64_t p = 0; p < kc; ++p, dst += kGemmNR) {
    const float* src = img + koff[p];
    for (int64_t q = 0; q < kGemmNR; q += kRun)
      std::memcpy(dst + q, src + coff[q], kRun * sizeof(float));
  }
}

void pack_f32_strip(const float* img, const int64_t* koff, int64_t kc,
                    const int64_t* coff, int64_t cols, float* dst) {
  switch (cols == kGemmNR ? contiguous_run(coff, kGemmNR, kGemmNR) : 1) {
    case 16:
      return pack_f32_rows<16>(img, koff, kc, coff, dst);
    case 8:
      return pack_f32_rows<8>(img, koff, kc, coff, dst);
    case 4:
      return pack_f32_rows<4>(img, koff, kc, coff, dst);
    default:
      break;
  }
  int64_t p_begin = 0;
#if APT_GEMM_X86
  // The transposed operand at stride 1: every aligned 4-chunk of k is 4
  // consecutive floats of each column, so one load per column and a 4x4
  // transpose yield 4 packed rows.
  const int64_t kc4 = kc & ~int64_t{3};
  if (kc4 > 0 && contiguous_run(koff, kc4, 4) == 4) {
    for (int64_t p = 0; p < kc4; p += 4) {
      for (int64_t c = 0; c < kGemmNR; c += 4) {
        __m128 r[4];
        for (int64_t i = 0; i < 4; ++i)
          r[i] = c + i < cols ? _mm_loadu_ps(img + coff[c + i] + koff[p])
                              : _mm_setzero_ps();
        _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]);
        for (int64_t t = 0; t < 4; ++t)
          _mm_storeu_ps(dst + (p + t) * kGemmNR + c, r[t]);
      }
    }
    p_begin = kc4;
  }
#endif
  for (int64_t p = p_begin; p < kc; ++p) {
    float* out = dst + p * kGemmNR;
    const float* src = img + koff[p];
    for (int64_t c = 0; c < cols; ++c) out[c] = src[coff[c]];
    for (int64_t c = cols; c < kGemmNR; ++c) out[c] = 0.0f;
  }
}

// Unified byte-typed plumbing so one driver loop serves both layouts.
// Both pack 4 bytes per row/column per k-group (pairs: 2 int16 per 2 k;
// quads: 4 bytes per 4 k), so buffer sizing is layout-independent.
struct S8Path {
  int64_t group;  // k steps per packed group: 2 (pairs) or 4 (quads)
  void (*pack_a)(bool, const uint8_t*, int64_t, int64_t, int64_t, int64_t,
                 int64_t, int64_t, void*, int32_t*);
  void (*pack_b)(bool, const uint8_t*, int64_t, int64_t, int64_t, int64_t,
                 int64_t, int64_t, void*, int32_t*, uint8_t);
  void (*kernel)(int64_t, const void*, const void*, int32_t*);
  /// XOR applied to B's packed quad bytes: 0x80 recentres full-range
  /// codes to the s8 values qb - 128 for the VNNI tile, whose raw sums
  /// then fall short of sum qa*qb by 128 * rowsum_a (see gemm_kernel.hpp).
  uint8_t b_flip = 0;
  /// The offset the packed B values carry: 128 when b_flip recentres.
  int32_t b_offset() const { return b_flip != 0 ? 128 : 0; }
};

void pack_a_pairs_adapter(bool ta, const uint8_t* a, int64_t m, int64_t k,
                          int64_t i0, int64_t mc, int64_t p0, int64_t kc,
                          void* dst, int32_t* rowsum) {
  gemm_s8_pack_a(ta, a, m, k, i0, mc, p0, kc, static_cast<int16_t*>(dst),
                 rowsum);
}
void pack_b_pairs_adapter(bool tb, const uint8_t* b, int64_t k, int64_t n,
                          int64_t p0, int64_t kc, int64_t j0, int64_t nc,
                          void* dst, int32_t* colsum, uint8_t /*flip*/) {
  gemm_s8_pack_b(tb, b, k, n, p0, kc, j0, nc, static_cast<int16_t*>(dst),
                 colsum);
}
void kern_pairs_scalar(int64_t groups, const void* pa, const void* pb,
                       int32_t* acc) {
  micro_kernel_s8_scalar(groups, static_cast<const int16_t*>(pa),
                         static_cast<const int16_t*>(pb), acc);
}
#if APT_GEMM_X86
void kern_pairs_avx2(int64_t groups, const void* pa, const void* pb,
                     int32_t* acc) {
  micro_kernel_s8_avx2(groups, static_cast<const int16_t*>(pa),
                       static_cast<const int16_t*>(pb), acc);
}
void pack_a_quads_adapter(bool ta, const uint8_t* a, int64_t m, int64_t k,
                          int64_t i0, int64_t mc, int64_t p0, int64_t kc,
                          void* dst, int32_t* rowsum) {
  gemm_s8_pack_a_quads(ta, a, m, k, i0, mc, p0, kc,
                       static_cast<uint8_t*>(dst), rowsum);
}
void pack_b_quads_adapter(bool tb, const uint8_t* b, int64_t k, int64_t n,
                          int64_t p0, int64_t kc, int64_t j0, int64_t nc,
                          void* dst, int32_t* colsum, uint8_t flip) {
  gemm_s8_pack_b_quads(tb, b, k, n, p0, kc, j0, nc,
                       static_cast<uint8_t*>(dst), colsum, flip);
}
void kern_quads_b_small(int64_t groups, const void* pa, const void* pb,
                        int32_t* acc) {
  micro_kernel_s8_quads<true>(groups, static_cast<const uint8_t*>(pa),
                              static_cast<const uint8_t*>(pb), acc);
}
void kern_quads_a_small(int64_t groups, const void* pa, const void* pb,
                        int32_t* acc) {
  micro_kernel_s8_quads<false>(groups, static_cast<const uint8_t*>(pa),
                               static_cast<const uint8_t*>(pb), acc);
}
void kern_vnni_b_signed(int64_t groups, const void* pa, const void* pb,
                        int32_t* acc) {
  micro_kernel_s8_vnni<true>(groups, static_cast<const uint8_t*>(pa),
                             static_cast<const uint8_t*>(pb), acc);
}
void kern_vnni_a_signed(int64_t groups, const void* pa, const void* pb,
                        int32_t* acc) {
  micro_kernel_s8_vnni<false>(groups, static_cast<const uint8_t*>(pa),
                              static_cast<const uint8_t*>(pb), acc);
}
#endif  // APT_GEMM_X86

S8Path resolve_s8_path(GemmKernel which, const GemmS8Params& params,
                       GemmS8Strategy force) {
  const SimdLevel level = resolve_level(which);
#if APT_GEMM_X86
  // A strategy request never overrides the saturation proof: kQuad is
  // honoured only under the same operand-ceiling check as kAuto, and
  // an ineligible request silently falls back to the exact full-range
  // form (int16 pairs on AVX2, recentred quads on VNNI).
  const bool allow_quad = force != GemmS8Strategy::kPairs;
  const bool b_small = allow_quad && params.max_b <= kGemmS8QuadMaxCode;
  const bool a_small = allow_quad && params.max_a <= kGemmS8QuadMaxCode;
  if (level == SimdLevel::kAvx512) {
    if (b_small)
      return {4, pack_a_quads_adapter, pack_b_quads_adapter,
              kern_vnni_b_signed};
    if (a_small)
      return {4, pack_a_quads_adapter, pack_b_quads_adapter,
              kern_vnni_a_signed};
    return {4, pack_a_quads_adapter, pack_b_quads_adapter,
            kern_vnni_b_signed, 0x80};
  }
  if (level == SimdLevel::kAvx2) {
    if (b_small)
      return {4, pack_a_quads_adapter, pack_b_quads_adapter,
              kern_quads_b_small};
    if (a_small)
      return {4, pack_a_quads_adapter, pack_b_quads_adapter,
              kern_quads_a_small};
    return {2, pack_a_pairs_adapter, pack_b_pairs_adapter, kern_pairs_avx2};
  }
#else
  (void)level;
  (void)params;
  (void)force;
#endif
  return {2, pack_a_pairs_adapter, pack_b_pairs_adapter, kern_pairs_scalar};
}

// Adds one k-panel's raw-product tile into the int32 accumulator plane.
// The first panel overwrites so the plane needs no zero-fill pass.
void store_tile_s8(int32_t* c, int64_t ldc, int64_t mr, int64_t nr,
                   const int32_t* acc, bool first_panel) {
  for (int64_t i = 0; i < mr; ++i) {
    int32_t* ci = c + i * ldc;
    const int32_t* ai = acc + i * kGemmNR;
    if (first_panel) {
      for (int64_t j = 0; j < nr; ++j) ci[j] = ai[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) ci[j] += ai[j];
    }
  }
}

// Final-k-panel store: folds the zero-point corrections and the Sa*Sb
// scale into the tile write, so the int32 plane never needs a separate
// requantisation sweep. All terms are integer-valued doubles well below
// 2^53, so the arithmetic is exact — bit-identical to an int64
// formulation. `raw` carries the earlier panels' contribution (null when
// this is the only panel).
void store_tile_s8_final(float* c, int64_t ldc, const int32_t* raw,
                         int64_t ldraw, int64_t mr, int64_t nr,
                         const int32_t* acc, const double* row_corr,
                         const double* col_corr, double sab) {
  for (int64_t i = 0; i < mr; ++i) {
    float* ci = c + i * ldc;
    const int32_t* ri = raw ? raw + i * ldraw : nullptr;
    const int32_t* ai = acc + i * kGemmNR;
    const double rc = row_corr[i];
    for (int64_t j = 0; j < nr; ++j) {
      const double t =
          static_cast<double>(ai[j]) + (ri ? ri[j] : 0) + rc - col_corr[j];
      ci[j] = static_cast<float>(sab * t);
    }
  }
}

#if APT_GEMM_X86
// store_tile_s8_final, 4 doubles per step: the same per-element double
// sequence (add raw, add row correction, subtract column correction,
// scale, round to float), so the bits match the scalar store.
__attribute__((target("avx2"))) void store_tile_s8_final_avx2(
    float* c, int64_t ldc, const int32_t* raw, int64_t ldraw, int64_t mr,
    int64_t nr, const int32_t* acc, const double* row_corr,
    const double* col_corr, double sab) {
  const int64_t nr4 = nr & ~int64_t{3};
  const __m256d vsab = _mm256_set1_pd(sab);
  for (int64_t i = 0; i < mr; ++i) {
    float* ci = c + i * ldc;
    const int32_t* ri = raw ? raw + i * ldraw : nullptr;
    const int32_t* ai = acc + i * kGemmNR;
    const double rc_s = row_corr[i];
    const __m256d rc = _mm256_set1_pd(rc_s);
    int64_t j = 0;
    for (; j < nr4; j += 4) {
      __m256d t = _mm256_cvtepi32_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ai + j)));
      if (ri) {
        t = _mm256_add_pd(t, _mm256_cvtepi32_pd(_mm_loadu_si128(
                                 reinterpret_cast<const __m128i*>(ri + j))));
      }
      t = _mm256_sub_pd(_mm256_add_pd(t, rc), _mm256_loadu_pd(col_corr + j));
      _mm_storeu_ps(ci + j, _mm256_cvtpd_ps(_mm256_mul_pd(vsab, t)));
    }
    for (; j < nr; ++j) {  // scalar tail: same op sequence
      const double t =
          static_cast<double>(ai[j]) + (ri ? ri[j] : 0) + rc_s - col_corr[j];
      ci[j] = static_cast<float>(sab * t);
    }
  }
}
#endif  // APT_GEMM_X86

using FinalStoreFn = void (*)(float*, int64_t, const int32_t*, int64_t,
                              int64_t, int64_t, const int32_t*,
                              const double*, const double*, double);

// The AVX2 stores serve the AVX-512 level too: the tile is 16 columns
// of doubles, which the ymm loop already covers in four steps.
FinalStoreFn resolve_final_store(GemmKernel which) {
#if APT_GEMM_X86
  if (resolve_level(which) >= SimdLevel::kAvx2)
    return store_tile_s8_final_avx2;
#else
  (void)which;
#endif
  return store_tile_s8_final;
}

// ------------------------------------------------ fused epilogue stores
//
// Per-tile arguments of the fused final store: channel vectors already
// sliced to the tile's rows/columns, plus the scalar knobs. The scalar
// and AVX2 variants run the identical IEEE double op sequence per
// element — mul, add-bias, relu clamp, (requant: mul, add, floor(q+.5)
// behind a >= 0 mask, min) — so their outputs are bit-identical, and
// both match an int64/double reference (t is an exact integer < 2^53).
struct EpiStoreArgs {
  const double* scale_r = nullptr;  // [mr] per-row channel scale
  const double* scale_c = nullptr;  // [nr] per-col channel scale
  const float* bias_r = nullptr;    // [mr]
  const float* bias_c = nullptr;    // [nr]
  double sab = 1.0;                 // uniform scale when no channel vector
  bool relu = false;
  double cap = 0.0;
  bool requant = false;  // write u8 codes instead of fp32
  double inv_out = 1.0;
  double zout = 0.0;
  double qmax = 255.0;
  double* lo = nullptr;  // optional y-range accumulators (task slot)
  double* hi = nullptr;
};

void store_tile_s8_epi_scalar(float* cf, uint8_t* cu, int64_t ldc,
                              const int32_t* raw, int64_t ldraw, int64_t mr,
                              int64_t nr, const int32_t* acc,
                              const double* row_corr, const double* col_corr,
                              const EpiStoreArgs& ea) {
  double lo = ea.lo ? *ea.lo : 0.0, hi = ea.hi ? *ea.hi : 0.0;
  for (int64_t i = 0; i < mr; ++i) {
    const int32_t* ri = raw ? raw + i * ldraw : nullptr;
    const int32_t* ai = acc + i * kGemmNR;
    const double rc = row_corr[i];
    const double sr = ea.scale_r ? ea.scale_r[i] : ea.sab;
    const double br = ea.bias_r ? static_cast<double>(ea.bias_r[i]) : 0.0;
    for (int64_t j = 0; j < nr; ++j) {
      const double t =
          static_cast<double>(ai[j]) + (ri ? ri[j] : 0) + rc - col_corr[j];
      double y = (ea.scale_c ? ea.scale_c[j] : sr) * t;
      y += ea.bias_c ? static_cast<double>(ea.bias_c[j]) : br;
      if (ea.relu) y = std::min(std::max(y, 0.0), ea.cap);
      if (ea.lo) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
      }
      if (!ea.requant) {
        cf[i * ldc + j] = static_cast<float>(y);
      } else {
        double q = y * ea.inv_out + ea.zout;
        q = q >= 0.0 ? std::floor(q + 0.5) : 0.0;
        if (q > ea.qmax) q = ea.qmax;
        cu[i * ldc + j] = static_cast<uint8_t>(q);
      }
    }
  }
  if (ea.lo) {
    *ea.lo = lo;
    *ea.hi = hi;
  }
}

#if APT_GEMM_X86
// Same math, 4 doubles per step. Min/max are order-independent, so the
// lane-then-horizontal observation reduces to the same values the
// scalar loop sees; every other op is element-independent.
__attribute__((target("avx2"))) void store_tile_s8_epi_avx2(
    float* cf, uint8_t* cu, int64_t ldc, const int32_t* raw, int64_t ldraw,
    int64_t mr, int64_t nr, const int32_t* acc, const double* row_corr,
    const double* col_corr, const EpiStoreArgs& ea) {
  const int64_t nr4 = nr & ~int64_t{3};
  __m256d vlo = _mm256_set1_pd(ea.lo ? *ea.lo : 0.0);
  __m256d vhi = _mm256_set1_pd(ea.hi ? *ea.hi : 0.0);
  double lo = ea.lo ? *ea.lo : 0.0, hi = ea.hi ? *ea.hi : 0.0;
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vcap = _mm256_set1_pd(ea.cap);
  const __m256d vinv = _mm256_set1_pd(ea.inv_out);
  const __m256d vzout = _mm256_set1_pd(ea.zout);
  const __m256d vqmax = _mm256_set1_pd(ea.qmax);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  for (int64_t i = 0; i < mr; ++i) {
    const int32_t* ri = raw ? raw + i * ldraw : nullptr;
    const int32_t* ai = acc + i * kGemmNR;
    const double rc_s = row_corr[i];
    const double sr_s = ea.scale_r ? ea.scale_r[i] : ea.sab;
    const double br_s = ea.bias_r ? static_cast<double>(ea.bias_r[i]) : 0.0;
    const __m256d rc = _mm256_set1_pd(rc_s);
    const __m256d sr = _mm256_set1_pd(sr_s);
    const __m256d br = _mm256_set1_pd(br_s);
    int64_t j = 0;
    for (; j < nr4; j += 4) {
      __m256d t = _mm256_cvtepi32_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ai + j)));
      if (ri) {
        t = _mm256_add_pd(t, _mm256_cvtepi32_pd(_mm_loadu_si128(
                                 reinterpret_cast<const __m128i*>(ri + j))));
      }
      t = _mm256_sub_pd(_mm256_add_pd(t, rc), _mm256_loadu_pd(col_corr + j));
      const __m256d sc =
          ea.scale_c ? _mm256_loadu_pd(ea.scale_c + j) : sr;
      __m256d y = _mm256_mul_pd(sc, t);
      const __m256d bc =
          ea.bias_c ? _mm256_cvtps_pd(_mm_loadu_ps(ea.bias_c + j)) : br;
      y = _mm256_add_pd(y, bc);
      // Operand order matters for NaN agreement with the scalar store:
      // min/maxpd return the SECOND operand on NaN, so max(0, y) /
      // min(cap, ·) keep a NaN y exactly like std::max(y,0)/std::min
      // do, and the observation's min(y, acc) drops it like
      // std::min(acc, y) does.
      if (ea.relu) y = _mm256_min_pd(vcap, _mm256_max_pd(vzero, y));
      if (ea.lo) {
        vlo = _mm256_min_pd(y, vlo);
        vhi = _mm256_max_pd(y, vhi);
      }
      if (!ea.requant) {
        _mm_storeu_ps(cf + i * ldc + j, _mm256_cvtpd_ps(y));
      } else {
        __m256d q = _mm256_add_pd(_mm256_mul_pd(y, vinv), vzout);
        const __m256d ge = _mm256_cmp_pd(q, vzero, _CMP_GE_OQ);
        q = _mm256_and_pd(ge, _mm256_floor_pd(_mm256_add_pd(q, vhalf)));
        q = _mm256_min_pd(q, vqmax);
        const __m128i qi = _mm256_cvttpd_epi32(q);
        const __m128i w = _mm_packus_epi32(qi, qi);
        const __m128i bytes = _mm_packus_epi16(w, w);
        const int32_t quad = _mm_cvtsi128_si32(bytes);
        std::memcpy(cu + i * ldc + j, &quad, sizeof(quad));
      }
    }
    for (; j < nr; ++j) {  // scalar tail: same op sequence
      const double t =
          static_cast<double>(ai[j]) + (ri ? ri[j] : 0) + rc_s - col_corr[j];
      double y = (ea.scale_c ? ea.scale_c[j] : sr_s) * t;
      y += ea.bias_c ? static_cast<double>(ea.bias_c[j]) : br_s;
      if (ea.relu) y = std::min(std::max(y, 0.0), ea.cap);
      if (ea.lo) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
      }
      if (!ea.requant) {
        cf[i * ldc + j] = static_cast<float>(y);
      } else {
        double q = y * ea.inv_out + ea.zout;
        q = q >= 0.0 ? std::floor(q + 0.5) : 0.0;
        if (q > ea.qmax) q = ea.qmax;
        cu[i * ldc + j] = static_cast<uint8_t>(q);
      }
    }
  }
  if (ea.lo) {
    alignas(32) double l4[4], h4[4];
    _mm256_store_pd(l4, vlo);
    _mm256_store_pd(h4, vhi);
    for (int t = 0; t < 4; ++t) {
      lo = std::min(lo, l4[t]);
      hi = std::max(hi, h4[t]);
    }
    *ea.lo = lo;
    *ea.hi = hi;
  }
}
#endif  // APT_GEMM_X86

using EpiStoreFn = void (*)(float*, uint8_t*, int64_t, const int32_t*,
                            int64_t, int64_t, int64_t, const int32_t*,
                            const double*, const double*,
                            const EpiStoreArgs&);

EpiStoreFn resolve_epi_store(GemmKernel which) {
#if APT_GEMM_X86
  if (resolve_level(which) >= SimdLevel::kAvx2)
    return store_tile_s8_epi_avx2;
#else
  (void)which;
#endif
  return store_tile_s8_epi_scalar;
}

// Applies one k-panel's contribution to an mr x nr corner of C. The
// first panel owns beta: beta == 0 overwrites without reading C (so
// garbage, including NaN, in the output buffer cannot leak through).
void store_tile(float* c, int64_t ldc, int64_t mr, int64_t nr,
                const float* acc, float alpha, float beta, bool first_panel) {
  for (int64_t i = 0; i < mr; ++i) {
    float* ci = c + i * ldc;
    const float* ai = acc + i * kGemmNR;
    if (!first_panel) {
      for (int64_t j = 0; j < nr; ++j) ci[j] += alpha * ai[j];
    } else if (beta == 0.0f) {
      for (int64_t j = 0; j < nr; ++j) ci[j] = alpha * ai[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) ci[j] = beta * ci[j] + alpha * ai[j];
    }
  }
}

// Effective blocking from a plan-threaded override: 0 keeps `def`, a
// request is clamped to [lo, hi].
int64_t eff_block(int64_t req, int64_t def, int64_t lo, int64_t hi) {
  if (req <= 0) return def;
  return std::clamp(req, lo, hi);
}

}  // namespace

bool gemm_cpu_has_avx2_fma() { return cpu_has_avx2_fma(); }
bool gemm_cpu_has_avx512() { return cpu_has_avx512(); }

bool gemm_blas_edge(int64_t m, int64_t n, int64_t k, float alpha, float beta,
                    float* c) {
  if (m <= 0 || n <= 0) return true;
  if (alpha != 0.0f && k > 0) return false;
  if (beta == 0.0f) {
    std::fill(c, c + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  return true;
}

void gemm_pack_a(bool trans_a, const float* a, int64_t m, int64_t k,
                 int64_t i0, int64_t mc, int64_t p0, int64_t kc, float* dst) {
  // op_a(A)[i, p] = trans_a ? a[p*m + i] : a[i*k + p].
  const int64_t row_stride = trans_a ? 1 : k;
  const int64_t col_stride = trans_a ? m : 1;
  for (int64_t s = 0; s < mc; s += kGemmMR, dst += kGemmMR * kc) {
    const int64_t rows = std::min(kGemmMR, mc - s);
    const float* src = a + (i0 + s) * row_stride + p0 * col_stride;
    for (int64_t p = 0; p < kc; ++p) {
      float* out = dst + p * kGemmMR;
      const float* col = src + p * col_stride;
      for (int64_t r = 0; r < rows; ++r) out[r] = col[r * row_stride];
      for (int64_t r = rows; r < kGemmMR; ++r) out[r] = 0.0f;
    }
  }
}

void gemm_pack_b(bool trans_b, const float* b, int64_t k, int64_t n,
                 int64_t p0, int64_t kc, int64_t j0, int64_t nc, float* dst) {
  // op_b(B)[p, j] = trans_b ? b[j*k + p] : b[p*n + j].
  const int64_t row_stride = trans_b ? 1 : n;
  const int64_t col_stride = trans_b ? k : 1;
  for (int64_t s = 0; s < nc; s += kGemmNR, dst += kGemmNR * kc) {
    const int64_t cols = std::min(kGemmNR, nc - s);
    const float* src = b + p0 * row_stride + (j0 + s) * col_stride;
    if (cols == kGemmNR && col_stride == 1) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* row = src + p * row_stride;
        std::copy(row, row + kGemmNR, dst + p * kGemmNR);
      }
      continue;
    }
    for (int64_t p = 0; p < kc; ++p) {
      float* out = dst + p * kGemmNR;
      const float* row = src + p * row_stride;
      for (int64_t c = 0; c < cols; ++c) out[c] = row[c * col_stride];
      for (int64_t c = cols; c < kGemmNR; ++c) out[c] = 0.0f;
    }
  }
}

namespace {

void direct_scalar(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, float alpha, const float* a, const float* b,
                   float beta, float* c) {
  const int64_t a_rs = trans_a ? 1 : k, a_cs = trans_a ? m : 1;
  const int64_t b_rs = trans_b ? 1 : n, b_cs = trans_b ? k : 1;
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      const float* ai = a + i * a_rs;
      const float* bj = b + j * b_cs;
      for (int64_t p = 0; p < k; ++p) acc += ai[p * a_cs] * bj[p * b_rs];
      float* cij = c + i * n + j;
      *cij = beta == 0.0f ? alpha * acc : alpha * acc + beta * *cij;
    }
}

#if APT_GEMM_X86
// The write-back of one 8-column accumulator, as the scalar loop does it.
__attribute__((target("avx2"))) inline void direct_store_avx2(
    float* c, __m256 acc, __m256 alpha, __m256 beta, bool overwrite) {
  const __m256 y = _mm256_mul_ps(alpha, acc);
  _mm256_storeu_ps(c, overwrite ? y
                                : _mm256_add_ps(y, _mm256_mul_ps(
                                                       beta,
                                                       _mm256_loadu_ps(c))));
}

// 8 output columns per vector over a row-major k x n B. Every lane runs
// the scalar loop's exact sequence — a multiply, then an add, p
// ascending — and this target has no FMA to contract them.
__attribute__((target("avx2"))) void direct_avx2(bool trans_a, int64_t m,
                                                 int64_t n, int64_t k,
                                                 float alpha, const float* a,
                                                 const float* b, float beta,
                                                 float* c) {
  const int64_t a_rs = trans_a ? 1 : k, a_cs = trans_a ? m : 1;
  const __m256 valpha = _mm256_set1_ps(alpha), vbeta = _mm256_set1_ps(beta);
  const bool overwrite = beta == 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_rs;
    float* ci = c + i * n;
    int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      const float* bp = b + j;
      for (int64_t p = 0; p < k; ++p, bp += n) {
        const __m256 av = _mm256_set1_ps(ai[p * a_cs]);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
        acc2 =
            _mm256_add_ps(acc2, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 16)));
        acc3 =
            _mm256_add_ps(acc3, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 24)));
      }
      direct_store_avx2(ci + j, acc0, valpha, vbeta, overwrite);
      direct_store_avx2(ci + j + 8, acc1, valpha, vbeta, overwrite);
      direct_store_avx2(ci + j + 16, acc2, valpha, vbeta, overwrite);
      direct_store_avx2(ci + j + 24, acc3, valpha, vbeta, overwrite);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      const float* bp = b + j;
      for (int64_t p = 0; p < k; ++p, bp += n)
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(ai[p * a_cs]),
                               _mm256_loadu_ps(bp)));
      direct_store_avx2(ci + j, acc, valpha, vbeta, overwrite);
    }
    for (; j < n; ++j) {  // ragged columns: the scalar loop itself
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += ai[p * a_cs] * b[p * n + j];
      ci[j] = overwrite ? alpha * acc : alpha * acc + beta * ci[j];
    }
  }
}
#endif  // APT_GEMM_X86

}  // namespace

void gemm_strided_direct(bool trans_a, bool trans_b, int64_t m, int64_t n,
                         int64_t k, float alpha, const float* a,
                         const float* b, float beta, float* c,
                         GemmKernel kernel) {
#if APT_GEMM_X86
  if (kernel != GemmKernel::kScalar && gemm_cpu_has_avx2_fma()) {
    // The vector loop reads B rows; a transposed B (at most a few
    // thousand floats on this path) is staged row-major first.
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    const float* bk = b;
    if (trans_b) {
      float* t = scope.alloc_floats(static_cast<size_t>(k * n));
      for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j) t[p * n + j] = b[j * k + p];
      bk = t;
    }
    direct_avx2(trans_a, m, n, k, alpha, a, bk, beta, c);
    return;
  }
#else
  (void)kernel;
#endif
  direct_scalar(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void gemm_pack_b_conv(const GemmF32ConvB& cb, bool trans_b, int64_t p0,
                      int64_t kc, int64_t j0, int64_t nc, float* dst) {
  APT_CHECK(kc <= kGemmKC) << "gemm_pack_b_conv: kc " << kc
                           << " exceeds kGemmKC";
  int64_t koff[kGemmKC];
  int64_t coff[kGemmNR];
  if (trans_b) {
    conv_pos_offsets(cb, p0, kc, koff);
  } else {
    conv_tap_offsets(cb, p0, kc, koff);
  }
  for (int64_t s = 0; s < nc; s += kGemmNR, dst += kGemmNR * kc) {
    const int64_t cols = std::min(kGemmNR, nc - s);
    if (trans_b) {
      conv_tap_offsets(cb, j0 + s, cols, coff);
    } else {
      conv_pos_offsets(cb, j0 + s, cols, coff);
    }
    pack_f32_strip(cb.padded, koff, kc, coff, cols, dst);
  }
}

void gemm_unpack_conv_b(const GemmF32ConvB& cb, bool trans_b, int64_t k,
                        int64_t n, float* dst) {
  check_conv_b(cb, trans_b, k, n);
  ScratchArena::Scope scope(ScratchArena::thread_local_arena());
  auto* koff = static_cast<int64_t*>(
      scope.alloc_bytes(static_cast<size_t>(k + n) * sizeof(int64_t)));
  int64_t* noff = koff + k;
  if (trans_b) {
    conv_pos_offsets(cb, 0, k, koff);
    conv_tap_offsets(cb, 0, n, noff);
  } else {
    conv_tap_offsets(cb, 0, k, koff);
    conv_pos_offsets(cb, 0, n, noff);
  }
  for (int64_t p = 0; p < k; ++p)
    for (int64_t j = 0; j < n; ++j)
      dst[p * n + j] = cb.padded[koff[p] + noff[j]];
}

namespace {

// The packed fp32 driver; pack_b(p0, kc, j0, nc, dst) packs one B panel
// (explicit or implicit operand alike).
template <typename PackB>
void gemm_packed_driver(bool trans_a, int64_t m, int64_t n, int64_t k,
                        float alpha, const float* a, PackB&& pack_b,
                        float beta, float* c, const GemmOptions& opts) {
  if (gemm_blas_edge(m, n, k, alpha, beta, c)) return;
  const F32Kernels kernels = resolve_kernel(opts.kernel);
  // Runtime blocking (plan-threaded). fp32 callers must leave kc at the
  // default — a different k-panel split changes the float accumulation
  // order — so the planner only ever varies mc/nc here (see plan.hpp).
  const int64_t kc_blk = eff_block(opts.kc, kGemmKC, 4, kGemmKC);
  const int64_t mc_blk = eff_block(opts.mc, kGemmMC, kGemmMR, kGemmMaxMC);
  const int64_t nc_blk = eff_block(opts.nc, kGemmNC, kGemmNR, kGemmNC);
  const int64_t mc_pad = (mc_blk + kGemmMR - 1) / kGemmMR * kGemmMR;

  for (int64_t j0 = 0; j0 < n; j0 += nc_blk) {
    const int64_t nc = std::min(nc_blk, n - j0);
    const int64_t n_strips = (nc + kGemmNR - 1) / kGemmNR;
    for (int64_t p0 = 0; p0 < k; p0 += kc_blk) {
      const int64_t kc = std::min(kc_blk, k - p0);
      const bool first_panel = p0 == 0;

      // B panel packed once per (j0, p0) by the calling thread; the
      // parallel M tasks below only read it.
      ScratchArena::Scope panel_scope(ScratchArena::thread_local_arena());
      float* packb = panel_scope.alloc_floats(
          static_cast<size_t>(n_strips * kGemmNR * kc));
      pack_b(p0, kc, j0, nc, packb);

      const int64_t m_blocks = (m + mc_blk - 1) / mc_blk;
      auto run_blocks = [&](int64_t mb_begin, int64_t mb_end) {
        ScratchArena::Scope scope(ScratchArena::thread_local_arena());
        float* packa =
            scope.alloc_floats(static_cast<size_t>(mc_pad * kc));
        alignas(64) float acc[2 * kGemmMR * kGemmNR];
        for (int64_t mb = mb_begin; mb < mb_end; ++mb) {
          const int64_t i0 = mb * mc_blk;
          const int64_t mc = std::min(mc_blk, m - i0);
          gemm_pack_a(trans_a, a, m, k, i0, mc, p0, kc, packa);
          // Strips go two at a time through the wide tile when the level
          // has one; an odd last strip (or every strip, otherwise) takes
          // the one-strip kernel. Either way each tile is the same bits.
          for (int64_t sj = 0; sj < n_strips;) {
            const int64_t width =
                kernels.two != nullptr && sj + 1 < n_strips ? 2 : 1;
            const float* pb = packb + sj * kGemmNR * kc;
            for (int64_t si = 0; si * kGemmMR < mc; ++si) {
              const int64_t mr = std::min(kGemmMR, mc - si * kGemmMR);
              const float* pa = packa + si * kGemmMR * kc;
              if (width == 2) {
                kernels.two(kc, pa, pb, pb + kGemmNR * kc, acc);
              } else {
                kernels.one(kc, pa, pb, acc);
              }
              for (int64_t t = 0; t < width; ++t) {
                const int64_t col = (sj + t) * kGemmNR;
                store_tile(c + (i0 + si * kGemmMR) * n + j0 + col, n, mr,
                           std::min(kGemmNR, nc - col),
                           acc + t * kGemmMR * kGemmNR, alpha, beta,
                           first_panel);
              }
            }
            sj += width;
          }
        }
      };

      // Partitioning whole MC panels keeps every C element's k-order
      // accumulation on a single task: bit-identical for any pool size.
      const int64_t work = m * nc * kc;
      if (opts.parallel && m_blocks > 1 && work > (1 << 16)) {
        ThreadPool::global().parallel_for(0, m_blocks, run_blocks, 1);
      } else {
        run_blocks(0, m_blocks);
      }
    }
  }
}

}  // namespace

void gemm_packed(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, const float* b, float beta,
                 float* c, const GemmOptions& opts) {
  gemm_packed_driver(
      trans_a, m, n, k, alpha, a,
      [&](int64_t p0, int64_t kc, int64_t j0, int64_t nc, float* dst) {
        gemm_pack_b(trans_b, b, k, n, p0, kc, j0, nc, dst);
      },
      beta, c, opts);
}

void gemm_packed_conv(bool trans_b, int64_t m, int64_t n, int64_t k,
                      float alpha, const float* a, const GemmF32ConvB& b,
                      float beta, float* c, const GemmOptions& opts) {
  check_conv_b(b, trans_b, k, n);
  gemm_packed_driver(
      false, m, n, k, alpha, a,
      [&](int64_t p0, int64_t kc, int64_t j0, int64_t nc, float* dst) {
        gemm_pack_b_conv(b, trans_b, p0, kc, j0, nc, dst);
      },
      beta, c, opts);
}

void gemm_s8_pack_a(bool trans_a, const uint8_t* a, int64_t m, int64_t k,
                    int64_t i0, int64_t mc, int64_t p0, int64_t kc,
                    int16_t* dst, int32_t* rowsum) {
  // op_a(A)[i, p] = trans_a ? a[p*m + i] : a[i*k + p].
  pack_explicit<int16_t, 2>(a, trans_a ? m : 1, trans_a ? 1 : k, i0, mc,
                            kGemmMR, p0, kc, dst, rowsum, 0);
}

void gemm_s8_pack_b(bool trans_b, const uint8_t* b, int64_t k, int64_t n,
                    int64_t p0, int64_t kc, int64_t j0, int64_t nc,
                    int16_t* dst, int32_t* colsum) {
  // op_b(B)[p, j] = trans_b ? b[j*k + p] : b[p*n + j].
  pack_explicit<int16_t, 2>(b, trans_b ? 1 : n, trans_b ? k : 1, j0, nc,
                            kGemmNR, p0, kc, dst, colsum, 0);
}

void gemm_s8_pack_a_quads(bool trans_a, const uint8_t* a, int64_t m,
                          int64_t k, int64_t i0, int64_t mc, int64_t p0,
                          int64_t kc, uint8_t* dst, int32_t* rowsum) {
  pack_explicit<uint8_t, 4>(a, trans_a ? m : 1, trans_a ? 1 : k, i0, mc,
                            kGemmMR, p0, kc, dst, rowsum, 0);
}

void gemm_s8_pack_b_quads(bool trans_b, const uint8_t* b, int64_t k,
                          int64_t n, int64_t p0, int64_t kc, int64_t j0,
                          int64_t nc, uint8_t* dst, int32_t* colsum,
                          uint8_t flip) {
  pack_explicit<uint8_t, 4>(b, trans_b ? 1 : n, trans_b ? k : 1, j0, nc,
                            kGemmNR, p0, kc, dst, colsum, flip);
}

void gemm_s8_pack_b_conv(const GemmS8ConvB& cb, bool trans_b, int64_t p0,
                         int64_t kc, int64_t j0, int64_t nc, int16_t* dst,
                         int32_t* colsum) {
  pack_conv<int16_t, 2>(cb, trans_b, p0, kc, j0, nc, dst, colsum, 0);
}

void gemm_s8_pack_b_quads_conv(const GemmS8ConvB& cb, bool trans_b,
                               int64_t p0, int64_t kc, int64_t j0,
                               int64_t nc, uint8_t* dst, int32_t* colsum,
                               uint8_t flip) {
  pack_conv<uint8_t, 4>(cb, trans_b, p0, kc, j0, nc, dst, colsum, flip);
}

namespace {

// Shared gemm_s8 driver. With `epi == nullptr` it reproduces the plain
// dequantising store (`cf` output) bit for bit; with an epilogue it
// routes the final-panel tiles through the fused store, writing either
// fp32 (`cf`) or requantised u8 codes (`cu`).
void gemm_s8_driver(bool trans_a, bool trans_b, int64_t m, int64_t n,
                    int64_t k, const uint8_t* a, const uint8_t* b,
                    const GemmS8ConvB* convb, const GemmS8Params& params,
                    const GemmS8Epilogue* epi, float* cf, uint8_t* cu,
                    const GemmOptions& opts) {
  if (m <= 0 || n <= 0) return;
  // B is the virtual im2col matrix [taps, positions], or its transpose.
  if (convb != nullptr) check_conv_b(*convb, trans_b, k, n);
  const double sab = params.scale_a * params.scale_b;

  EpiStoreArgs ea;
  const EpiStoreFn epi_store = resolve_epi_store(opts.kernel);
  const FinalStoreFn final_store = resolve_final_store(opts.kernel);
  if (epi != nullptr) {
    APT_CHECK(epi->observe_lo == nullptr || epi->observe_hi != nullptr)
        << "gemm_s8: observe_lo and observe_hi come as a pair";
    ea.sab = sab;
    ea.relu = epi->relu;
    ea.cap = static_cast<double>(epi->relu_cap);
    ea.requant = cu != nullptr;
    if (ea.requant) {
      APT_CHECK(epi->out_scale > 0.0 && epi->out_zero >= 0 &&
                epi->out_max >= epi->out_zero && epi->out_max <= 255)
          << "gemm_s8: bad requant output grid";
      ea.inv_out = 1.0 / epi->out_scale;
      ea.zout = static_cast<double>(epi->out_zero);
      ea.qmax = static_cast<double>(epi->out_max);
    }
  }

  if (k <= 0) {
    // Empty reduction: every exact code sum t is 0; the epilogue still
    // applies (bias, relu, requantisation of y = bias[c]).
    if (epi == nullptr) {
      std::fill(cf, cf + m * n, 0.0f);
      return;
    }
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    alignas(64) int32_t zacc[kGemmMR * kGemmNR] = {};
    const double zero_corr[kGemmNR] = {};
    double row_zero[kGemmMR] = {};
    ea.lo = epi->observe_lo ? &lo : nullptr;
    ea.hi = epi->observe_lo ? &hi : nullptr;
    for (int64_t i0 = 0; i0 < m; i0 += kGemmMR)
      for (int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
        const int64_t mr = std::min(kGemmMR, m - i0);
        const int64_t nr = std::min(kGemmNR, n - j0);
        EpiStoreArgs tile = ea;
        if (epi->channel_is_row) {
          tile.scale_r = epi->scale ? epi->scale + i0 : nullptr;
          tile.bias_r = epi->bias ? epi->bias + i0 : nullptr;
        } else {
          tile.scale_c = epi->scale ? epi->scale + j0 : nullptr;
          tile.bias_c = epi->bias ? epi->bias + j0 : nullptr;
        }
        epi_store(cf ? cf + i0 * n + j0 : nullptr,
                  cu ? cu + i0 * n + j0 : nullptr, n, nullptr, 0, mr, nr,
                  zacc, row_zero, zero_corr, tile);
      }
    if (epi->observe_lo) {
      *epi->observe_lo = static_cast<float>(lo);
      *epi->observe_hi = static_cast<float>(hi);
    }
    return;
  }
  APT_CHECK(k <= kGemmS8MaxK)
      << "gemm_s8: k=" << k << " exceeds the int32-exact bound "
      << kGemmS8MaxK;
  APT_CHECK(params.zero_a >= 0 && params.zero_a <= 255 &&
            params.zero_b >= 0 && params.zero_b <= 255)
      << "gemm_s8: zero-points must be 8-bit codes";
  const S8Path path = resolve_s8_path(opts.kernel, params, opts.s8);
  const int64_t za = params.zero_a, zb = params.zero_b;
  // Row correction factor: Zb, less the offset of recentred B bytes
  // (sum qa*qb = kernel sum + 128 * rowsum_a; gemm_kernel.hpp).
  const double zb_row = static_cast<double>(zb - path.b_offset());
  // The byte-quad layout packs quarter-width strips, so it affords a
  // deeper k panel (one panel for a 3x3 conv over 64 channels). A plan
  // may override kc freely — integer arithmetic is exact, so the panel
  // split never changes bits — up to the conv row-table bound.
  const int64_t kc_max =
      eff_block(opts.kc, path.group == 4 ? kGemmS8KCQuad : kGemmKC,
                path.group, kGemmS8KCQuad);
  const int64_t mc_blk = eff_block(opts.mc, kGemmMC, kGemmMR, kGemmMaxMC);
  const int64_t nc_blk = eff_block(opts.nc, kGemmNC, kGemmNR, kGemmNC);
  const int64_t mc_pad = (mc_blk + kGemmMR - 1) / kGemmMR * kGemmMR;

  ScratchArena::Scope outer(ScratchArena::thread_local_arena());
  // Raw code-product plane (int32, only touched when k spans several
  // panels), the zero-point correction sums, and the per-column
  // correction staged as doubles for the fused final store.
  const bool multi_panel = k > kc_max;
  auto* raw =
      multi_panel ? static_cast<int32_t*>(outer.alloc_bytes(
                        static_cast<size_t>(m * n) * sizeof(int32_t)))
                  : nullptr;
  auto* rowsum = static_cast<int32_t*>(
      outer.alloc_bytes(static_cast<size_t>(m) * sizeof(int32_t)));
  auto* colsum = static_cast<int32_t*>(
      outer.alloc_bytes(static_cast<size_t>(n) * sizeof(int32_t)));
  auto* col_corr = static_cast<double*>(
      outer.alloc_bytes(static_cast<size_t>(n) * sizeof(double)));
  std::fill(rowsum, rowsum + m, 0);
  std::fill(colsum, colsum + n, 0);
  const double kzazb = static_cast<double>(k * za * zb);

  // Per-task observation slots for the epilogue's exact y-range probe:
  // each MC panel owns its pair (tasks write disjoint slots; a panel
  // revisited across column panels runs serially) — or, under the
  // split-N decomposition, each column strip owns one — and the final
  // merge is a min/max sweep over every slot: order-independent, so the
  // observed range is identical for any pool size or decomposition.
  const int64_t m_blocks_total = (m + mc_blk - 1) / mc_blk;
  int64_t obs_slots = m_blocks_total;
  if (opts.split_n) {
    const int64_t max_strips =
        (std::min(n, nc_blk) + kGemmNR - 1) / kGemmNR;
    obs_slots = std::max(obs_slots, max_strips);
  }
  double* obs = nullptr;
  const bool observing = epi != nullptr && epi->observe_lo != nullptr;
  if (observing) {
    obs = static_cast<double*>(outer.alloc_bytes(
        static_cast<size_t>(2 * obs_slots) * sizeof(double)));
    for (int64_t slot = 0; slot < obs_slots; ++slot) {
      obs[2 * slot] = std::numeric_limits<double>::infinity();
      obs[2 * slot + 1] = -std::numeric_limits<double>::infinity();
    }
  }

  for (int64_t j0 = 0; j0 < n; j0 += nc_blk) {
    const int64_t nc = std::min(nc_blk, n - j0);
    const int64_t n_strips = (nc + kGemmNR - 1) / kGemmNR;
    for (int64_t p0 = 0; p0 < k; p0 += kc_max) {
      const int64_t kc = std::min(kc_max, k - p0);
      // Both layouts pack 4 bytes per row/column per k-group.
      const int64_t groups = (kc + path.group - 1) / path.group;
      const bool first_panel = p0 == 0;
      const bool last_panel = p0 + kc_max >= k;

      ScratchArena::Scope panel_scope(ScratchArena::thread_local_arena());
      auto* packb = static_cast<std::byte*>(panel_scope.alloc_bytes(
          static_cast<size_t>(n_strips * kGemmNR * 4 * groups)));
      // Column sums span all p0 panels of this j0 panel; B is packed
      // exactly once per (j0, p0), so accumulating here counts each code
      // once. Rows are packed once per (p0, MC panel) only while j0 == 0,
      // giving the same once-per-code guarantee for rowsum below.
      if (convb != nullptr) {
        if (path.group == 4) {
          gemm_s8_pack_b_quads_conv(*convb, trans_b, p0, kc, j0, nc,
                                    reinterpret_cast<uint8_t*>(packb),
                                    colsum + j0, path.b_flip);
        } else {
          gemm_s8_pack_b_conv(*convb, trans_b, p0, kc, j0, nc,
                              reinterpret_cast<int16_t*>(packb),
                              colsum + j0);
        }
      } else {
        path.pack_b(trans_b, b, k, n, p0, kc, j0, nc, packb, colsum + j0,
                    path.b_flip);
      }
      if (last_panel)  // column sums for this panel are now complete
        for (int64_t j = 0; j < nc; ++j)
          col_corr[j0 + j] = static_cast<double>(za) * colsum[j0 + j];

      // One tile's output write, shared by both decompositions below.
      // `obs_slot` indexes the task's disjoint observation pair: the MC
      // panel index under the row dispatch, the strip index under
      // split-N.
      auto store_out = [&](int64_t tile_i, int64_t tile_j, int64_t mr,
                           int64_t nr, const int32_t* acc, const double* rc,
                           int64_t obs_slot) {
        if (last_panel) {
          const int32_t* raw_tile =
              first_panel ? nullptr : raw + tile_i * n + tile_j;
          if (epi == nullptr) {
            final_store(cf + tile_i * n + tile_j, n, raw_tile, n, mr, nr,
                        acc, rc, col_corr + tile_j, sab);
          } else {
            EpiStoreArgs tile = ea;
            if (epi->channel_is_row) {
              tile.scale_r = epi->scale ? epi->scale + tile_i : nullptr;
              tile.bias_r = epi->bias ? epi->bias + tile_i : nullptr;
            } else {
              tile.scale_c = epi->scale ? epi->scale + tile_j : nullptr;
              tile.bias_c = epi->bias ? epi->bias + tile_j : nullptr;
            }
            if (observing) {
              tile.lo = obs + 2 * obs_slot;
              tile.hi = obs + 2 * obs_slot + 1;
            }
            epi_store(cf ? cf + tile_i * n + tile_j : nullptr,
                      cu ? cu + tile_i * n + tile_j : nullptr, n, raw_tile,
                      n, mr, nr, acc, rc, col_corr + tile_j, tile);
          }
        } else {
          store_tile_s8(raw + tile_i * n + tile_j, n, mr, nr, acc,
                        first_panel);
        }
      };

      const int64_t m_blocks = (m + mc_blk - 1) / mc_blk;
      auto run_blocks = [&](int64_t mb_begin, int64_t mb_end) {
        ScratchArena::Scope scope(ScratchArena::thread_local_arena());
        auto* packa = static_cast<std::byte*>(scope.alloc_bytes(
            static_cast<size_t>(mc_pad * 4 * groups)));
        alignas(64) int32_t acc[kGemmMR * kGemmNR];
        double row_corr[kGemmMaxMC];
        for (int64_t mb = mb_begin; mb < mb_end; ++mb) {
          const int64_t i0 = mb * mc_blk;
          const int64_t mc = std::min(mc_blk, m - i0);
          path.pack_a(trans_a, a, m, k, i0, mc, p0, kc, packa,
                      j0 == 0 ? rowsum + i0 : nullptr);
          if (last_panel)  // row sums for these rows are now complete
            for (int64_t r = 0; r < mc; ++r)
              row_corr[r] = kzazb - zb_row * rowsum[i0 + r];
          for (int64_t sj = 0; sj < n_strips; ++sj) {
            const std::byte* pb = packb + sj * kGemmNR * 4 * groups;
            const int64_t nr = std::min(kGemmNR, nc - sj * kGemmNR);
            for (int64_t si = 0; si * kGemmMR < mc; ++si) {
              const int64_t mr = std::min(kGemmMR, mc - si * kGemmMR);
              path.kernel(groups, packa + si * kGemmMR * 4 * groups, pb,
                          acc);
              store_out(i0 + si * kGemmMR, j0 + sj * kGemmNR, mr, nr, acc,
                        row_corr + si * kGemmMR, mb);
            }
          }
        }
      };

      const int64_t work = m * nc * kc;
      const bool pool_worthwhile = opts.parallel && work > (1 << 16);
      if (pool_worthwhile && m_blocks > 1) {
        ThreadPool::global().parallel_for(0, m_blocks, run_blocks, 1);
      } else if (pool_worthwhile && opts.split_n && m_blocks == 1 &&
                 n_strips > 1) {
        // Skinny-M decomposition: one MC panel covers all of M, so the
        // row dispatch has nothing to split. Pack A once on the calling
        // thread, then give each task a disjoint range of B's column
        // strips. Every C element still accumulates its k-sum in panel
        // order on exactly one task, so the bits match the row dispatch
        // exactly (all integer arithmetic up to the final store).
        ScratchArena::Scope scope(ScratchArena::thread_local_arena());
        auto* packa = static_cast<std::byte*>(scope.alloc_bytes(
            static_cast<size_t>(mc_pad * 4 * groups)));
        path.pack_a(trans_a, a, m, k, 0, m, p0, kc, packa,
                    j0 == 0 ? rowsum : nullptr);
        double row_corr[kGemmMaxMC];
        if (last_panel)
          for (int64_t r = 0; r < m; ++r)
            row_corr[r] = kzazb - zb_row * rowsum[r];
        ThreadPool::global().parallel_for(
            0, n_strips,
            [&](int64_t s_begin, int64_t s_end) {
              alignas(64) int32_t acc[kGemmMR * kGemmNR];
              for (int64_t sj = s_begin; sj < s_end; ++sj) {
                const std::byte* pb = packb + sj * kGemmNR * 4 * groups;
                const int64_t nr = std::min(kGemmNR, nc - sj * kGemmNR);
                for (int64_t si = 0; si * kGemmMR < m; ++si) {
                  const int64_t mr = std::min(kGemmMR, m - si * kGemmMR);
                  path.kernel(groups, packa + si * kGemmMR * 4 * groups,
                              pb, acc);
                  store_out(si * kGemmMR, j0 + sj * kGemmNR, mr, nr, acc,
                            row_corr + si * kGemmMR, sj);
                }
              }
            },
            1);
      } else {
        run_blocks(0, m_blocks);
      }
    }
  }

  if (observing) {
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (int64_t slot = 0; slot < obs_slots; ++slot) {
      lo = std::min(lo, obs[2 * slot]);
      hi = std::max(hi, obs[2 * slot + 1]);
    }
    // double->float nearest is monotone, so these equal the min/max of
    // the float-cast outputs the fused store would have written.
    *epi->observe_lo = static_cast<float>(lo);
    *epi->observe_hi = static_cast<float>(hi);
  }
}

}  // namespace

void gemm_s8_exec(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                  const uint8_t* a, const uint8_t* b,
                  const GemmS8ConvB* conv_b, const GemmS8Params& params,
                  const GemmS8Epilogue* epi, float* cf, uint8_t* cu,
                  const GemmOptions& opts) {
  APT_CHECK((cf != nullptr) != (cu != nullptr))
      << "gemm_s8_exec: exactly one of cf/cu must be set";
  APT_CHECK(cu == nullptr || epi != nullptr)
      << "gemm_s8_exec: requantised output needs an epilogue grid";
  gemm_s8_driver(trans_a, trans_b, m, n, k, a, b, conv_b, params, epi, cf,
                 cu, opts);
}

}  // namespace apt::nn
