// Shape-specialised kernel planning (DESIGN.md §13).
//
// Every GEMM-shaped problem the library runs — fp32 packed GEMM, the
// integer code-plane GEMM, the implicit-operand convolution — is first
// resolved to a KernelPlan: the strategy, cache blocking, and thread
// decomposition a small deterministic cost model picks for the problem's
// PlanKey {op, M/N/K or conv geometry, operand code ceilings, transpose
// flags, thread count}. The model is the only source of plans, so a plan
// is a pure function of its key. Plans are cached process-wide (resolve
// once per shape, reuse for the life of the process) and executed
// through the plan-keyed entry points below — the only way any GEMM
// runs:
//
//   const KernelPlan& plan = plan_for(PlanKey::s8(m, n, k, ...));
//   gemm_s8_ex(plan, args);            // or gemm_ex(plan, ...) for fp32
//
// A plan fixes everything about a call but its micro-kernels, which the
// entry points take from simd_level() (base/cpu.hpp) at their start: a
// property of the host, narrowed only by APT_SIMD or a SimdCapScope. A
// plan therefore means the same, and gives the same bits, at every level.
// The entry points are defined beside the drivers in gemm_kernel.cpp;
// plan.cpp only plans and caches.
//
// Invariants the planner preserves:
//  * Bit-identity: every candidate plan for a key produces bit-identical
//    output. Integer kernels are exact for any {kc, mc, nc, split}
//    choice; fp32 plans pin the k panel depth (kGemmKC) so float
//    accumulation order never changes, and only vary {mc, nc} / thread
//    decomposition, which partition work without reordering any
//    element's k-sum.
//  * Deterministic selection: the cost model is a pure function of the
//    key — no SIMD level, no wall-clock, no sampling (the apt_lint
//    `clock` rule applies to this file like any other). Every host, at
//    every APT_SIMD level or SimdCapScope, resolves a key to the same
//    plan, so the cache (keyed without a level) never hands one level
//    another level's choice.
//  * Exactness: the byte-quad strategy is only planned when the key's
//    operand ceilings prove vpmaddubsw cannot saturate, mirroring the
//    kernel-level rule.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"

namespace apt::nn {

/// Problem family a plan is resolved for. Backward GEMMs are plain
/// kGemmS8 problems (the transpose flags say which operand is read
/// transposed), and a conv's dX is a forward conv over dY (its
/// transposed conv), so it runs kConvS8 plans (DESIGN.md §14).
enum class PlanOp : uint8_t {
  kGemmF32 = 0,  ///< fp32 GEMM (gemm, gemm_ex, gemm_conv_ex)
  kGemmS8 = 1,   ///< integer code-plane GEMM (linear layout)
  kConvS8 = 2,   ///< integer conv: B is the implicit im2col operand
};

/// Execution strategy. Conv plans use kS8Pairs/kS8Quad with the implicit
/// operand; kS8ConvDirect lowers a 1x1/stride-1/pad-0 conv to a plain
/// code-plane GEMM (B = the contiguous input plane, no staging, no
/// im2col bookkeeping). Strategies name what a problem allows, never an
/// ISA: the micro-kernel behind each is the host's (gemm_kernel.hpp), so
/// a plan means the same on every host and gives the same bits.
enum class PlanStrategy : uint8_t {
  kF32Direct = 0,    ///< small-strided loop, no packing (tiny problems)
  kF32Packed = 1,    ///< BLIS-style packed fp32
  kS8Pairs = 2,      ///< full-range codes: int16 k-pair vpmaddwd on AVX2,
                     ///< recentred vpdpbusd quads on VNNI, scalar else
  kS8Quad = 3,       ///< a ceiling allows byte k-quads: vpmaddubsw on
                     ///< AVX2, vpdpbusd on VNNI
  kS8ConvDirect = 4, ///< 1x1 conv as a plain GEMM over the code plane
};

const char* plan_strategy_name(PlanStrategy s);

/// Everything plan resolution depends on. Keys are value types with
/// full equality — two call sites with equivalent shapes produce equal
/// keys and share one cached plan.
struct PlanKey {
  PlanOp op = PlanOp::kGemmF32;
  int64_t m = 0, n = 0, k = 0;
  bool trans_a = false, trans_b = false;
  /// Largest code either operand can carry (s8 ops; 255 = full range).
  /// Gates the quad strategy exactly like GemmS8Params::max_a/max_b.
  int32_t max_a = 255, max_b = 255;
  /// Conv geometry (kConvS8 only; zero otherwise). n == oh*ow and
  /// k == channels * kernel^2 of the lowered GEMM.
  int32_t kernel = 0, stride = 0, padding = 0;
  /// Participating pool threads the decomposition targets.
  int32_t threads = 1;

  bool operator==(const PlanKey&) const = default;

  /// Factories normalise fields that do not apply to the op (so
  /// equivalent problems always compare equal) and stamp the current
  /// pool width. `threads` can be overridden afterwards (tests).
  static PlanKey f32(int64_t m, int64_t n, int64_t k, bool trans_a,
                     bool trans_b);
  static PlanKey s8(int64_t m, int64_t n, int64_t k, bool trans_a,
                    bool trans_b, int32_t max_a, int32_t max_b);
  static PlanKey conv_s8(int64_t m, int64_t n, int64_t k, int32_t kernel,
                         int32_t stride, int32_t padding, int32_t max_a,
                         int32_t max_b);
};

/// A resolved execution recipe: the drivers read the strategy, blocking
/// and decomposition straight from it. Blocking fields of 0 keep the
/// kernel layer's compile-time default (gemm_kernel.hpp); an integer kc
/// is clamped to [group, kGemmS8KCQuad], an fp32 kc must stay 0 (float
/// accumulation order), mc is clamped to [kGemmMR, kGemmMaxMC] and
/// rounded down to whole MR strips, nc to [kGemmNR, kGemmNC].
struct KernelPlan {
  PlanKey key;
  PlanStrategy strategy = PlanStrategy::kF32Packed;
  int64_t kc = 0, mc = 0, nc = 0;
  bool parallel = true;  ///< allow pool dispatch at all
  bool split_n = false;  ///< decompose over column strips (skinny M)
};

/// Participating threads (pool workers + the calling thread); the value
/// PlanKey factories stamp.
int32_t plan_threads();

// -- plan cache -------------------------------------------------------------

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  ///< cost-model resolutions (cold lookups)
  uint64_t entries = 0;
};

/// Resolves (or returns the cached) plan for `key`. Thread-safe: readers
/// share a shared_mutex, a miss upgrades to exclusive and resolves via
/// the cost model exactly once. The returned reference is stable until
/// plan_cache_clear.
const KernelPlan& plan_for(const PlanKey& key);

/// The deterministic candidate set the cost model scores for `key`,
/// best-first is NOT implied — `plan_for` picks the min-cost entry.
/// Exposed for the bit-identity tests (every candidate must produce
/// identical bits).
std::vector<KernelPlan> plan_candidates(const PlanKey& key);

PlanCacheStats plan_cache_stats();
void plan_cache_reset_stats();
/// Drops every entry AND the stats (tests, benchmark cold starts).
void plan_cache_clear();

// -- options ----------------------------------------------------------------

/// Process-wide planner configuration.
struct PlanOptions {
  GemmBackend backend = GemmBackend::kPacked;
};

void set_plan_options(const PlanOptions& opts);
PlanOptions plan_options();

/// PlanOptions::backend, the backend `gemm` dispatches on: one relaxed
/// atomic load, cheap on every call.
GemmBackend resolved_gemm_backend();

// -- plan-keyed execution ---------------------------------------------------

/// C = alpha * op_a(A) * op_b(B) + beta * C, all row-major, with the
/// plan's strategy, blocking and decomposition (dimensions and transpose
/// flags from plan.key). Per BLAS convention alpha == 0 skips the
/// product (A and B are not read) and beta == 0 overwrites C unread.
void gemm_ex(const KernelPlan& plan, float alpha, const float* a,
             const float* b, float beta, float* c);

/// gemm_ex with B given implicitly as a convolution's patch matrix
/// (op_b(B) = the virtual im2col matrix of `b`, or its transpose when
/// plan.key.trans_b; A non-transposed). Packed plans pack the panels
/// gemm_ex would pack from the materialised matrix and the direct
/// strategy gathers op_b(B) once, so the bits equal gemm_ex over im2col.
void gemm_conv_ex(const KernelPlan& plan, float alpha, const float* a,
                  const GemmF32ConvB& b, float beta, float* c);

/// gemm_ex / gemm_conv_ex with A already packed (gemm_pack_a_panels of
/// op_a(A), so plan.key.trans_a is in the panels): the same bits, minus
/// the per-block A pack. The plan must be kF32Packed — a direct plan
/// reads the raw matrix, so its callers pass that instead.
void gemm_ex(const KernelPlan& plan, float alpha, const GemmF32PackedA& a,
             const float* b, float beta, float* c);
void gemm_conv_ex(const KernelPlan& plan, float alpha,
                  const GemmF32PackedA& a, const GemmF32ConvB& b, float beta,
                  float* c);

/// Operand bundle for the unified integer entry point. Exactly one of
/// `out` / `out_codes` is set; `out_codes` requires an epilogue with a
/// requant grid. B is one of: `b`, a plain code matrix (kS8ConvDirect
/// conv plans pass the contiguous input plane); `conv_image`, the conv
/// forward's channel-quad image for kS8Pairs/kS8Quad conv plans (A then
/// holds the weights in the image's k order); `conv_b`, the transposed
/// implicit operand of a trans_b weight-gradient plan.
struct GemmS8Args {
  const uint8_t* a = nullptr;
  const uint8_t* b = nullptr;
  const GemmS8ConvImage* conv_image = nullptr;
  const GemmS8ConvB* conv_b = nullptr;
  GemmS8Params params;
  const GemmS8Epilogue* epilogue = nullptr;
  float* out = nullptr;
  uint8_t* out_codes = nullptr;
};

/// Unified integer GEMM: the raw dequantised product, the fused fp32
/// epilogue and the requantising epilogue, over a plain or implicit conv
/// B operand, behind one plan-keyed signature. Dimensions and transpose
/// flags come from plan.key. With no epilogue, `out` (m x n, row-major,
/// overwritten) = Sa*Sb * (op_a(A)-Za)(op_b(B)-Zb). Requires
/// k <= kGemmS8MaxK.
void gemm_s8_ex(const KernelPlan& plan, const GemmS8Args& args);

/// The flip (0 or 0x80, GemmS8ConvImage::flip) a conv image must be
/// staged with for gemm_s8_ex under `plan` and `params` to read it in
/// place at the current simd_level(): 0x80 where the VNNI tile takes
/// recentred full-range codes. Any other flip gives the same bits, from
/// strips packed out of the image instead.
uint8_t gemm_s8_conv_image_flip(const KernelPlan& plan,
                                const GemmS8Params& params);

}  // namespace apt::nn
