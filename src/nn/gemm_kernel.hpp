// Packed, register-blocked SGEMM backend (BLIS-style three-level tiling).
//
// The drivers themselves are private to gemm_kernel.cpp: every GEMM runs
// through the plan-keyed entry points of plan.hpp (gemm_ex,
// gemm_conv_ex, gemm_s8_ex), so a KernelPlan is the one description of a
// call's strategy, blocking and thread decomposition, and simd_level()
// (base/cpu.hpp) the one selector of its micro-kernels. This header
// holds what those entry points share with layers and tests: the
// blocking constants, the operand descriptors, and the packing and
// write-back primitives.
//
// The fp32 driver walks C in NC-wide column panels and KC-deep k panels,
// packing the corresponding B panel once into NR-column strips; inside,
// M is walked in MC-tall panels whose A sub-panel is packed into MR-row
// strips, and an MR x NR micro-kernel runs over the packed operands.
// Transposition is folded into the packing gathers, so `gemm(trans_a,
// trans_b, ...)` never materialises a full transposed copy. Packing
// buffers come from the per-thread ScratchArena, so steady-state
// training does no kernel-side allocation.
//
// An A operand that many GEMMs share — a conv layer's weight, multiplied
// once per sample — can instead be packed whole up front
// (gemm_pack_a_panels) and handed over as a GemmF32PackedA: every MC
// block starts on an MR boundary, so the driver reads each block's
// strips straight out of the panels, the same bytes its own pack would
// have written.
//
// Three fp32 micro-kernels are provided, picked per call from the one
// SIMD level of base/cpu.hpp (capped by APT_SIMD and SimdCapScope, read
// once at the driver's entry): a portable scalar one (the fixed MR x NR
// accumulator block auto-vectorises on any target), an AVX2+FMA 6x16
// ymm tile, and on AVX-512 hosts a 6x32 zmm tile that reads two
// adjacent NR-wide packed B strips at once. The pack
// layout and KC are shared, and the ymm and zmm tiles run the same
// single FMA chain per C element over ascending k, so their bits are
// identical. The tile write-back (alpha, beta, and the later k panels'
// accumulate) runs at ymm width on both vector levels and as a portable
// loop at the scalar level, with the same separate multiply and add per
// element either way. Results are bit-identical for a fixed micro-kernel
// regardless of thread count: every C element is accumulated in a fixed
// k-order by exactly one task (parallelism only partitions whole MC row
// panels).
#pragma once

#include <cstdint>
#include <limits>

namespace apt::nn {

// Default register/cache blocking constants (see DESIGN.md §8). Since
// the planner (plan.hpp) these are per-plan parameters — KernelPlan
// carries kc/mc/nc — and the constants are the values a zero plan
// field falls back to.
inline constexpr int64_t kGemmMR = 6;     // rows per register tile
inline constexpr int64_t kGemmNR = 16;    // cols per register tile (2 ymm)
inline constexpr int64_t kGemmKC = 256;   // k panel depth (B strip in L1)
inline constexpr int64_t kGemmMC = 96;    // m panel height (packed A in L2)
inline constexpr int64_t kGemmNC = 2048;  // n panel width (packed B in L3)
/// Hard ceiling a plan's mc is clamped to (sizes the driver's per-panel
/// stack scratch). The drivers round a plan's mc down to a multiple of
/// kGemmMR, so every MC block starts on a strip boundary.
inline constexpr int64_t kGemmMaxMC = 192;

/// Implicit (im2col-free) conv B operand; defined with the integer
/// GEMM below, shared by the fp32 one.
template <typename T>
struct GemmConvB;
using GemmS8ConvB = GemmConvB<uint8_t>;
using GemmF32ConvB = GemmConvB<float>;

/// True when the AVX2+FMA micro-kernels may run: an alias of
/// cpu_has_avx2_fma() (base/cpu.hpp), which library code calls directly,
/// kept for the end-to-end benchmark harness (benchmark/src/main.cpp).
bool gemm_cpu_has_avx2_fma();

/// The BLAS edge cases every fp32 entry point shares: an empty C, or
/// alpha == 0 / k <= 0, where A and B are not referenced (so NaN/Inf
/// there cannot leak into C through 0 * x) and C is only scaled by beta
/// (overwritten unread when beta == 0). Returns true when it handled the
/// call.
bool gemm_blas_edge(int64_t m, int64_t n, int64_t k, float alpha, float beta,
                    float* c);

/// op_a(A) packed whole by gemm_pack_a_panels, as the A operand of
/// gemm_ex / gemm_conv_ex under a packed plan. The transpose is folded
/// into the pack; the panels assume the default k panel depth (a plan's
/// kc is 0, as for every fp32 plan).
struct GemmF32PackedA {
  const float* panels = nullptr;
};

/// Floats gemm_pack_a_panels writes for an m x k op_a(A).
int64_t gemm_pack_a_panels_size(int64_t m, int64_t k);

/// Packs all of op_a(A) (m x k): for each kGemmKC-deep k panel p0 in
/// ascending order, all ceil(m/MR) strips as gemm_pack_a(trans_a, a, m,
/// k, 0, m, p0, kc, ·) lays them out. Panel p0 starts at float
/// ceil(m/MR)*MR*p0, and the MR-aligned block at row i0 i0*kc floats
/// into it — byte for byte what the driver's per-block pack writes.
void gemm_pack_a_panels(bool trans_a, const float* a, int64_t m, int64_t k,
                        float* dst);

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

/// The packed driver's tile write-back at the current simd_level(): applies
/// one k panel's MR x NR accumulator tile (`acc`, row stride kGemmNR) to
/// the mr x nr corner of C at `c` (row stride ldc). On the first panel C
/// becomes alpha*acc when beta == 0 (C unread) and beta*c + alpha*acc
/// otherwise; on later panels c + alpha*acc.
void gemm_store_tile(float* c, int64_t ldc, int64_t mr, int64_t nr,
                     const float* acc, float alpha, float beta,
                     bool first_panel);

// -- implicit conv B operand, fp32 ------------------------------------------

/// gemm_pack_b over the implicit conv operand (GemmF32ConvB below):
/// op_b(B) is the virtual im2col matrix of `cb`, or its transpose when
/// trans_b. The packed floats are byte-identical to im2col followed by
/// gemm_pack_b. Requires kc <= kGemmKC.
void gemm_pack_b_conv(const GemmF32ConvB& cb, bool trans_b, int64_t p0,
                      int64_t kc, int64_t j0, int64_t nc, float* dst);

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
// Full-range problems are packed as quads too (or, for a conv image,
// staged so), with B's codes XORed with 0x80 so its bytes read as the s8
// values qb - 128; the kernel then sums qa*(qb - 128), and since
//
//   sum qa*qb = sum qa*(qb - 128) + 128 * rowsum_a
//
// exactly, the row correction uses (Zb - 128) where it used Zb. Code sums
// are still taken on the original codes. The int16-pair and maddubs
// layouts, the kernel choice and the recentring are invisible to plans
// (no PlanStrategy names them), so plans, the plan cache and compiled
// artifacts are the same on every host. A kS8Pairs plan forces the
// full-range form; every other integer strategy takes quads exactly
// when a ceiling allows, so no plan can trade bits for speed.
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

// -- implicit (im2col-free) conv B operands ---------------------------------
//
// A conv's patch (im2col) matrix B[p, j], p = (c, kh, kw) a tap and
// j = (y, xo) an output position, is never materialised: every element
// is one code of the (padding-staged) input image. The GEMMs read it
// through one of two descriptors.
//
// GemmConvB names it over a zero-padded NCHW image:
//
//   B[(c*kernel + kh)*kernel + kw, y*ow + xo]
//     = padded[c][y*stride + kh][xo*stride + kw]
//
// and with trans_b set, its TRANSPOSE (k = oh*ow positions, n = channels
// * kernel^2 taps). The fp32 GEMMs take it both ways (GemmF32ConvB, pad
// 0.0f; gemm_pack_b_conv above, gemm_conv_ex in plan.hpp); the integer
// GEMM takes it only transposed, as the weight gradient dW = dY · colsᵀ,
// packed straight from each sample's staged input codes. The packed
// values are byte-identical to packing a materialised matrix.
template <typename T>
struct GemmConvB {
  const T* padded = nullptr;  ///< [channels][ph][pw], pad pre-filled
  int64_t ph = 0, pw = 0;     ///< staged spatial dims (H+2p, W+2p)
  int64_t kernel = 0, stride = 1;
  int64_t oh = 0, ow = 0;     ///< output spatial dims (n = oh*ow)
};

// GemmS8ConvImage is the integer conv FORWARD's B: the codes of one
// (sample, group) input staged once as a channel-quad image whose
// layout makes every micro-kernel load of B contiguous (Dukhan's
// indirect convolution, with the indirection folded into a tap table):
//
//   img[cq][a][b][Y][X][t] = padded[4*cq + t][Y*stride + a][X*stride + b]
//
// Channel quads outermost; then the stride x stride phase planes, of
// which only phases < min(kernel, stride) per axis exist (no tap reads
// another); then php x pwp pixels of 4 interleaved channel bytes. Pad
// pixels, pixels past the padded image's edge and channels past the real
// count hold the activation zero-point code. The GEMM's k order becomes
// (cq, kh, kw, t), so the 4 codes of one k-group are one 4-byte word,
// and tap (kh, kw)'s word for output (y, xo) sits in phase
// (kh % stride, kw % stride) at pixel (y + kh / stride, xo + kw /
// stride): consecutive xo are consecutive words, and 16 output columns
// are one 64-byte run (ow a multiple of 16), two (ow = 8) or four
// (ow = 4). The weights come reordered to the same k order, with code 0
// in the padded channels, which adds nothing to any sum.
//
// The VNNI and AVX2 byte-quad tiles read such strips straight from the
// image; other strips, and every strip at the levels whose tiles take
// int16 pairs (AVX2 full-range and scalar), are packed from it. The
// staging XORs `flip` into every byte (0x80 when the VNNI tile wants
// recentred codes; gemm_s8_conv_image_flip in plan.hpp names the flip a
// call's in-place tile reads) and takes the column code sums on the
// codes before the flip, as K x K window sums of per-pixel channel sums.
// A strip packed from an image of another flip undoes it while packing.
// Integer sums are exact in any k order, so every route writes the bits
// of the explicit im2col GEMM.
struct GemmS8ConvImage {
  const uint8_t* img = nullptr;     ///< the layout above
  const int32_t* colsum = nullptr;  ///< [oh*ow] column code sums (unflipped)
  int64_t channels = 0;             ///< real channels: k = channels*kernel^2
  int64_t kernel = 0, stride = 1;
  int64_t oh = 0, ow = 0;           ///< output spatial dims (n = oh*ow)
  int64_t php = 0, pwp = 0;         ///< one phase plane's rows and columns
  uint8_t flip = 0;                 ///< XOR the staging applied to each byte
};

/// Phase planes per axis of a conv image: a tap (kh, kw) reads phase
/// (kh % stride, kw % stride), so only min(kernel, stride) exist.
inline int64_t conv_image_phases(int64_t kernel, int64_t stride) {
  return kernel < stride ? kernel : stride;
}

/// The k extent of the weight rows that multiply a conv image: whole
/// channel quads times kernel^2 taps.
inline int64_t conv_image_k(const GemmS8ConvImage& ci) {
  return (ci.channels + 3) / 4 * 4 * ci.kernel * ci.kernel;
}

// -- s8 packing primitives, exposed for tests -------------------------------
//
// The int16 pair layout (the vpmaddwd tile's, and the scalar tile's)
// widens codes to int16 and interleaves consecutive k values. Odd kc
// pads the second slot of the last pair with code 0, which contributes 0
// to the raw product sum.

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

/// gemm_s8_pack_b / gemm_s8_pack_b_quads over the TRANSPOSED implicit
/// conv operand (op_b(B) = the virtual im2col matrix's transpose, the
/// weight gradient's B). The packed bytes and sums equal packing the
/// materialised matrix.
void gemm_s8_pack_b_conv(const GemmS8ConvB& cb, int64_t p0, int64_t kc,
                         int64_t j0, int64_t nc, int16_t* dst,
                         int32_t* colsum);
void gemm_s8_pack_b_quads_conv(const GemmS8ConvB& cb, int64_t p0, int64_t kc,
                               int64_t j0, int64_t nc, uint8_t* dst,
                               int32_t* colsum, uint8_t flip = 0);

}  // namespace apt::nn
