// Packed, register-blocked SGEMM backend (BLIS-style three-level tiling).
//
// The driver walks C in NC-wide column panels and KC-deep k panels,
// packing the corresponding B panel once into NR-column strips; inside,
// M is walked in MC-tall panels whose A sub-panel is packed into MR-row
// strips, and an MR x NR micro-kernel runs over the packed operands.
// Transposition is folded into the packing gathers, so `gemm(trans_a,
// trans_b, ...)` never materialises a full transposed copy. Packing
// buffers come from the per-thread ScratchArena, so steady-state
// training does no kernel-side allocation.
//
// Three fp32 micro-kernels are provided, picked per host through the
// one SIMD level of base/cpu.hpp (capped by APT_SIMD): a portable scalar
// one (the fixed MR x NR accumulator block auto-vectorises on any
// target), an AVX2+FMA 6x16 ymm tile, and on AVX-512 hosts a 6x32 zmm
// tile that reads two adjacent NR-wide packed B strips at once. The pack
// layout and KC are shared, and the ymm and zmm tiles run the same
// single FMA chain per C element over ascending k, so their bits are
// identical. Results are bit-identical for a fixed micro-kernel
// regardless of thread count: every C element is accumulated in a fixed
// k-order by exactly one task (parallelism only partitions whole MC row
// panels).
#pragma once

#include <cstdint>
#include <limits>

namespace apt::nn {

// Default register/cache blocking constants (see DESIGN.md §8). Since
// the planner (plan.hpp) these are per-plan parameters — GemmOptions
// below carries kc/mc/nc overrides — and the constants are the values a
// zero override falls back to.
inline constexpr int64_t kGemmMR = 6;     // rows per register tile
inline constexpr int64_t kGemmNR = 16;    // cols per register tile (2 ymm)
inline constexpr int64_t kGemmKC = 256;   // k panel depth (B strip in L1)
inline constexpr int64_t kGemmMC = 96;    // m panel height (packed A in L2)
inline constexpr int64_t kGemmNC = 2048;  // n panel width (packed B in L3)
/// Hard ceiling a runtime mc override is clamped to (sizes the driver's
/// per-panel stack scratch).
inline constexpr int64_t kGemmMaxMC = 192;

/// Implicit (im2col-free) conv B operand; defined with the integer
/// GEMM below, shared by the fp32 one.
template <typename T>
struct GemmConvB;
using GemmS8ConvB = GemmConvB<uint8_t>;
using GemmF32ConvB = GemmConvB<float>;

/// Micro-kernel selection for the fp32 and integer drivers. Plans never
/// carry it: the kernel is a property of the host (and of tests forcing
/// one), never of a problem, so every choice below yields the same bits
/// for the same plan.
enum class GemmKernel {
  kAuto,    // the widest kernel the SIMD level allows (base/cpu.hpp)
  kScalar,  // force the portable kernels
  kAvx2,    // force the AVX2 kernels (caller must check support)
  kAvx512,  // force the AVX-512 kernels: the 6x32 zmm fp32 tile and the
            // vpdpbusd integer tile (caller must check support)
};

/// True when the AVX2+FMA micro-kernels may run (CPU and APT_SIMD).
bool gemm_cpu_has_avx2_fma();
/// True when the AVX-512 F/VL/VNNI micro-kernels may run.
bool gemm_cpu_has_avx512();

/// Integer-kernel strategy request (see the strategy notes above
/// kGemmS8MaxK). kQuad engages only when the operand ceilings prove the
/// byte-quad pair-sum cannot saturate; otherwise the driver falls back
/// to the always-exact pair strategy — a request never trades bits.
enum class GemmS8Strategy : uint8_t {
  kAuto,   // quad when a ceiling allows it, pairs otherwise
  kPairs,  // force the int16 k-pair strategy
  kQuad,   // prefer the byte k-quad strategy (ceiling still checked)
};

struct GemmOptions {
  GemmKernel kernel = GemmKernel::kAuto;
  /// Split MC row panels across the global thread pool when the problem
  /// is large enough. Output bits do not depend on this flag.
  bool parallel = true;
  /// Cache-blocking overrides; 0 keeps the compile-time default
  /// (kGemmKC/kGemmMC/kGemmNC, or kGemmS8KCQuad for the s8 quad
  /// strategy). The integer drivers honour any kc — their arithmetic is
  /// exact, so the k-panel split never changes bits — but fp32 callers
  /// must keep kc = 0: a different float k-panel split changes the
  /// accumulation order (the planner pins this; see plan.hpp).
  int64_t kc = 0;
  int64_t mc = 0;  ///< clamped to kGemmMaxMC
  int64_t nc = 0;
  GemmS8Strategy s8 = GemmS8Strategy::kAuto;
  /// Decompose a single-MC-panel (skinny-M) integer GEMM across column
  /// strips instead of row panels. Bits are unaffected: strips partition
  /// outputs, never an element's k-sum.
  bool split_n = false;
};

/// The BLAS edge cases every fp32 entry point shares: an empty C, or
/// alpha == 0 / k <= 0, where A and B are not referenced (so NaN/Inf
/// there cannot leak into C through 0 * x) and C is only scaled by beta
/// (overwritten unread when beta == 0). Returns true when it handled the
/// call.
bool gemm_blas_edge(int64_t m, int64_t n, int64_t k, float alpha, float beta,
                    float* c);

/// Direct strided fp32 loop for problems too small to amortise packing
/// (the planner's kF32Direct strategy). Single-threaded, fixed k-order
/// accumulation per element: acc += a*b for p ascending (a separate
/// multiply and add, never an FMA), then alpha*acc (+ beta*c). On AVX2
/// hosts the loop runs 8 output columns per vector, each lane with
/// exactly that op sequence, so the bits equal the scalar loop that
/// kScalar forces. trans_b stages op_b(B) row-major first.
void gemm_strided_direct(bool trans_a, bool trans_b, int64_t m, int64_t n,
                         int64_t k, float alpha, const float* a,
                         const float* b, float beta, float* c,
                         GemmKernel kernel = GemmKernel::kAuto);

/// C = alpha * op_a(A) * op_b(B) + beta * C, all row-major.
/// op_a(A) is m x k, op_b(B) is k x n, C is m x n. Per BLAS convention,
/// alpha == 0 skips the product entirely (A and B are not read) and
/// beta == 0 overwrites C without reading it.
void gemm_packed(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, const float* b, float beta,
                 float* c, const GemmOptions& opts = {});

// -- packing primitives, exposed for tests and micro-benches ---------------

/// Packs rows [i0, i0+mc) x k-range [p0, p0+kc) of op_a(A) into MR-row
/// strips: strip s holds rows i0+s*MR..+MR-1 as kc consecutive groups of
/// MR floats (column-major within the strip). The tail strip is
/// zero-padded to a full MR rows. `dst` needs ceil(mc/MR)*MR*kc floats.
void gemm_pack_a(bool trans_a, const float* a, int64_t m, int64_t k,
                 int64_t i0, int64_t mc, int64_t p0, int64_t kc, float* dst);

/// Packs k-range [p0, p0+kc) x cols [j0, j0+nc) of op_b(B) into NR-column
/// strips: strip s holds cols j0+s*NR..+NR-1 as kc consecutive groups of
/// NR floats (row-major within the strip), zero-padded to a full NR
/// columns. `dst` needs ceil(nc/NR)*NR*kc floats.
void gemm_pack_b(bool trans_b, const float* b, int64_t k, int64_t n,
                 int64_t p0, int64_t kc, int64_t j0, int64_t nc, float* dst);

// -- implicit conv B operand, fp32 ------------------------------------------

/// gemm_pack_b over the implicit conv operand (GemmF32ConvB below):
/// op_b(B) is the virtual im2col matrix of `cb`, or its transpose when
/// trans_b. The packed floats are byte-identical to im2col followed by
/// gemm_pack_b. Requires kc <= kGemmKC.
void gemm_pack_b_conv(const GemmF32ConvB& cb, bool trans_b, int64_t p0,
                      int64_t kc, int64_t j0, int64_t nc, float* dst);

/// Writes op_b(B) of the implicit conv operand row-major into `dst`
/// (k x n floats): the small materialised form the direct strategy
/// multiplies.
void gemm_unpack_conv_b(const GemmF32ConvB& cb, bool trans_b, int64_t k,
                        int64_t n, float* dst);

/// gemm_packed with B given implicitly (A non-transposed). Packs the same
/// panels as gemm_packed over the materialised matrix, so the bits are
/// identical for the same options.
void gemm_packed_conv(bool trans_b, int64_t m, int64_t n, int64_t k,
                      float alpha, const float* a,
                      const GemmF32ConvB& b, float beta, float* c,
                      const GemmOptions& opts = {});

// -- integer (quantised-code) GEMM ------------------------------------------
//
// The integer GEMM multiplies two planes of *unsigned* affine codes (the
// storage format of QuantizedTensor for bits <= 8 and of the 8-bit
// activation quantiser) and produces a dequantised fp32 result:
//
//   C[i,j] = Sa*Sb * sum_p (op_a(A)[i,p] - Za) * (op_b(B)[p,j] - Zb)
//
// The kernel accumulates the RAW code products sum_p qa*qb in int32 and
// folds the zero-points in afterwards via per-row / per-column code sums
// gathered during packing:
//
//   sum (qa-Za)(qb-Zb) = sum qa*qb - Zb*rowsum_a[i] - Za*colsum_b[j]
//                        + k*Za*Zb
//
// Every step up to the final scale-by-Sa*Sb is integer arithmetic, so the
// result is exact (one float rounding per output element) and bit-identical
// for any thread count or micro-kernel. The int32 accumulator never
// saturates: codes are <= 255, so |sum| <= k * 255^2, which bounds exact
// operation to k <= kGemmS8MaxK (checked).
//
// Two AVX2 execution strategies, chosen by the declared code ranges:
//  * vpmaddwd on int16-widened k-pairs — always exact, but only matches
//    fp32 FMA MAC density (one op per 8 MACs);
//  * vpmaddubsw/vpmaddwd on raw byte k-quads — 1.33x the MAC density,
//    engaged only when one operand's codes are <= kGemmS8QuadMaxCode so
//    the u8 x s8 pair-sum provably cannot hit vpmaddubsw's int16
//    saturation (2 * 255 * 64 = 32640 < 32767). Weight grids at the
//    paper's k <= 6 qualify; both strategies produce identical bits.
//
// On AVX512-VNNI+VL hosts one vpdpbusd tile (u8 x s8 quads straight into
// int32, no intermediate saturation) replaces both. Quad problems keep
// their layout and swap maddubs + madd + add for the one instruction.
// Full-range problems are packed as quads too, with B's codes XORed with
// 0x80 so its bytes read as the s8 values qb - 128; the kernel then sums
// qa*(qb - 128), and since
//
//   sum qa*qb = sum qa*(qb - 128) + 128 * rowsum_a
//
// exactly, the row correction uses (Zb - 128) where it used Zb. Code sums
// are still taken on the original codes. The int16-pair and maddubs
// layouts, the kernel choice and the recentring are invisible to plans
// (no PlanStrategy names them), so plans, the plan cache and compiled
// artifacts are the same on every host.
inline constexpr int64_t kGemmS8MaxK = INT32_MAX / (255 * 255);
inline constexpr int32_t kGemmS8QuadMaxCode = 64;

/// Deeper k panel for the byte-quad strategy: its packed strips are raw
/// bytes (quarter the fp32 footprint), so a 768-deep B strip still fits
/// L1 — and a 3x3 conv over 64 channels (k = 576) then runs in a single
/// panel, skipping the int32 raw-plane round-trip entirely. The int16
/// pair strategy keeps kGemmKC. Exactness is unaffected: the int32
/// accumulator bound depends on total k, not the panel split.
inline constexpr int64_t kGemmS8KCQuad = 768;

struct GemmS8Params {
  double scale_a = 1.0;  ///< Sa
  double scale_b = 1.0;  ///< Sb
  int32_t zero_a = 0;    ///< Za, in [0, 255]
  int32_t zero_b = 0;    ///< Zb, in [0, 255]
  /// Largest code that can occur in each operand (e.g. max_code(bits) of
  /// the weight grid). Purely a kernel-selection hint: declaring a value
  /// <= kGemmS8QuadMaxCode unlocks the faster quad strategy, and every
  /// code in that operand MUST respect it or products may saturate.
  int32_t max_a = 255;
  int32_t max_b = 255;
};

struct GemmS8Epilogue;

/// The unified integer GEMM driver (the execution primitive behind
/// plan.hpp's gemm_s8_ex). Exactly one of `cf` (fp32 output) / `cu`
/// (requantised codes; requires `epi`) is non-null. `conv_b` describes B
/// implicitly for the conv layout (its transpose when trans_b); when
/// null, `b` is a plain code plane. `epi` null means the raw dequantised
/// product: C (fp32, m x n row-major, overwritten) =
/// Sa*Sb * (op_a(A)-Za)(op_b(B)-Zb). Requires k <= kGemmS8MaxK.
void gemm_s8_exec(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                  const uint8_t* a, const uint8_t* b,
                  const GemmS8ConvB* conv_b, const GemmS8Params& params,
                  const GemmS8Epilogue* epi, float* cf, uint8_t* cu,
                  const GemmOptions& opts = {});

// -- fused epilogues --------------------------------------------------------
//
// A non-null epilogue applies, per output element inside the final
// k-panel's tile store (so the int32 accumulator plane never takes an
// extra sweep):
//
//   y[i,j] = S_c * t[i,j] + bias[c]        t = exact corrected code sum
//   y      = clamp(y, 0, relu_cap)         when relu is set
//
// where c is the element's output channel — the C row for the conv
// layout (A carries the weight grid) or the C column for the linear
// layout (B carries it) — and S_c is the per-channel scale (Sa*Sb when
// no per-channel vector is given). Everything runs in double: t is an
// exact integer < 2^53, so the arithmetic is reproducible to the bit on
// the scalar and AVX2 stores for any thread count, and tests pin it
// against an int64/double reference.
//
// With fp32 output it writes float(y) — a dequantised fp32 plane with
// the bias/ReLU already folded in. With code output it instead emits
// unsigned output CODES on a caller-chosen affine grid:
//
//   q = y / S_out + Z_out,  rounded half-up on doubles
//   q < 0 saturates to 0, q > out_max saturates to out_max
//
// which is what lets one quantised layer hand its activation stream to
// the next with no fp32 round-trip. The optional observe_lo/observe_hi
// pointers receive the exact min/max of y over the whole output (after
// bias/ReLU, before requantisation) — min/max is order-independent, so
// the probe is deterministic for any pool size; it feeds the producing
// layer's output RangeTracker so the requant grid can follow the data.
struct GemmS8Epilogue {
  /// Per-channel output scale, length = m (channel_is_row) or n. Null
  /// means the uniform Sa*Sb from GemmS8Params.
  const double* scale = nullptr;
  /// Per-channel bias added after scaling; null means 0.
  const float* bias = nullptr;
  /// Whether the output channel axis is C's rows (conv: C = W x cols)
  /// or its columns (linear: C = X x W^T).
  bool channel_is_row = true;
  bool relu = false;
  float relu_cap = std::numeric_limits<float>::infinity();
  /// Requantisation grid for code output: S_out, Z_out and the
  /// largest valid code (2^bits - 1 of the output grid).
  double out_scale = 1.0;
  int32_t out_zero = 0;
  int32_t out_max = 255;
  /// Optional exact output-range probe (see above); both or neither.
  float* observe_lo = nullptr;
  float* observe_hi = nullptr;
};

// -- implicit (im2col-free) conv B operand ----------------------------------
//
// For the conv forward, the B operand is the im2col patch matrix
// B[p, j] with p = (c, kh, kw) and j = (y, xo) — every element of which
// is just a byte of the (padding-staged) input image. Materialising it
// costs a k*oh*ow write plus an immediate re-read by the packing; conv
// callers instead hand the driver this descriptor and the packing
// gathers B's strips STRAIGHT from the staged image:
//
//   B[(c*kernel + kh)*kernel + kw, y*ow + xo]
//     = padded[c][y*stride + kh][xo*stride + kw]
//
// The image (channels * ph * pw bytes, pad rows/columns pre-filled with
// the activation zero-point code) is ~7x smaller than the column matrix
// for a 3x3 conv and stays cache-hot across the whole GEMM. The packed
// strips are byte-identical to packing a materialised im2col matrix, so
// results are bit-identical to the explicit path. Stride-1 strips whose
// ow is a multiple of 4, 8 or 16 load image runs directly; others gather
// into a 16-byte row first.
//
// With trans_b set, the same descriptor names the TRANSPOSED matrix
// (k = oh*ow positions, n = channels * kernel^2 taps): the conv weight
// gradient dW = dY · colsᵀ reads its B operand this way, straight from
// each sample's staged input codes.
//
// The fp32 GEMM takes the same descriptor over a float image whose pad
// is 0.0f (GemmF32ConvB; gemm_pack_b_conv / gemm_packed_conv above).
template <typename T>
struct GemmConvB {
  const T* padded = nullptr;  ///< [channels][ph][pw], pad pre-filled
  int64_t ph = 0, pw = 0;     ///< staged spatial dims (H+2p, W+2p)
  int64_t kernel = 0, stride = 1;
  int64_t oh = 0, ow = 0;     ///< output spatial dims (n = oh*ow)
};

// -- s8 packing primitives, exposed for tests -------------------------------
//
// The integer micro-kernel consumes k-PAIRS (two k steps per iteration,
// the shape of AVX2's vpmaddwd), so both packers widen codes to int16 and
// interleave consecutive k values. Odd kc pads the second slot of the
// last pair with code 0, which contributes 0 to the raw product sum.

/// Packs op_a(A) rows [i0, i0+mc) x k-range [p0, p0+kc) into MR-row strips
/// of k-pairs: dst[(kp*MR + r)*2 + s] = op_a(A)[i0+strip+r, p0+2*kp+s].
/// `dst` needs ceil(mc/MR)*MR*2*ceil(kc/2) int16. When `rowsum` is
/// non-null, rowsum[r] (r in [0, mc)) is incremented by the row's code sum
/// over the real [p0, p0+kc) range.
void gemm_s8_pack_a(bool trans_a, const uint8_t* a, int64_t m, int64_t k,
                    int64_t i0, int64_t mc, int64_t p0, int64_t kc,
                    int16_t* dst, int32_t* rowsum);

/// Packs op_b(B) k-range [p0, p0+kc) x cols [j0, j0+nc) into NR-column
/// strips of k-pairs: dst[(kp*NR + c)*2 + s] = op_b(B)[p0+2*kp+s, j0+strip+c].
/// `dst` needs ceil(nc/NR)*NR*2*ceil(kc/2) int16. When `colsum` is
/// non-null, colsum[c] (c in [0, nc)) is incremented by the column's code
/// sum over the real range.
void gemm_s8_pack_b(bool trans_b, const uint8_t* b, int64_t k, int64_t n,
                    int64_t p0, int64_t kc, int64_t j0, int64_t nc,
                    int16_t* dst, int32_t* colsum);

/// Byte k-quad layouts of the two packers above (the vpmaddubsw and
/// vpdpbusd strategies): dst[(kq*MR + r)*4 + t] = op_a(A)[i0+strip+r,
/// p0+4*kq+t] and dst[(kq*NR + c)*4 + t] = op_b(B)[p0+4*kq+t, j0+strip+c],
/// zero-padded like the pair layouts; sums as above. The B packer XORs
/// every stored byte with `flip` (0x80 recentres full-range codes for
/// the VNNI tile; 0 stores them as they are) while the column sums stay
/// those of the original codes.
void gemm_s8_pack_a_quads(bool trans_a, const uint8_t* a, int64_t m,
                          int64_t k, int64_t i0, int64_t mc, int64_t p0,
                          int64_t kc, uint8_t* dst, int32_t* rowsum);
void gemm_s8_pack_b_quads(bool trans_b, const uint8_t* b, int64_t k,
                          int64_t n, int64_t p0, int64_t kc, int64_t j0,
                          int64_t nc, uint8_t* dst, int32_t* colsum,
                          uint8_t flip = 0);

/// gemm_s8_pack_b / gemm_s8_pack_b_quads over the implicit conv operand
/// (op_b(B) = the virtual im2col matrix, or its transpose when trans_b).
/// The packed bytes and sums equal packing the materialised matrix.
void gemm_s8_pack_b_conv(const GemmS8ConvB& cb, bool trans_b, int64_t p0,
                         int64_t kc, int64_t j0, int64_t nc, int16_t* dst,
                         int32_t* colsum);
void gemm_s8_pack_b_quads_conv(const GemmS8ConvB& cb, bool trans_b,
                               int64_t p0, int64_t kc, int64_t j0,
                               int64_t nc, uint8_t* dst, int32_t* colsum,
                               uint8_t flip = 0);

}  // namespace apt::nn
