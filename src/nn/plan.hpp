// Shape-specialised kernel planning (DESIGN.md §13).
//
// Every GEMM-shaped problem the library runs — fp32 packed GEMM, the
// integer code-plane GEMM, the implicit-operand convolution — is first
// resolved to a KernelPlan: the strategy, cache blocking, and thread
// decomposition a small deterministic cost model picks for the problem's
// PlanKey {op, M/N/K or conv geometry, operand code ceilings, transpose
// flags, thread count}. Plans are cached process-wide (resolve once per
// shape, reuse for the life of the process) and executed through the
// plan-keyed entry points below — the only way any GEMM runs:
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
//
// Autotuning is optional and lives OUTSIDE library code (timing is
// banned in src/ by the `clock` lint rule): `bench_runner --autotune`
// times `plan_candidates(key)` with the bench harness, adopts each
// winner via `plan_cache_adopt`, and persists the result with
// `plan_cache_save`. A persisted cache is reloaded at startup — lazily,
// on the first `plan_for` — from PlanOptions::cache_file or the
// APT_PLAN_CACHE environment variable, so autotuned plans survive a
// process restart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"

namespace apt::nn {

/// Problem family a plan is resolved for. The two gradient ops run on
/// the same exact integer kernels as kGemmS8, but carry their own op
/// tag: backward shapes get their own cost-model buckets, autotune
/// entries, and plan-cache rows instead of aliasing a forward key with
/// the same M/N/K (DESIGN.md §14). A conv's dX is a forward conv over
/// dY (its transposed conv), so it runs kConvS8 plans.
enum class PlanOp : uint8_t {
  kGemmF32 = 0,        ///< fp32 GEMM (gemm, gemm_ex, gemm_conv_ex)
  kGemmS8 = 1,         ///< integer code-plane GEMM (linear layout)
  kConvS8 = 2,         ///< integer conv: B is the implicit im2col operand
  kS8GradDx = 3,       ///< backward data gradient: dX = dY · W
  kS8GradDw = 4,       ///< backward weight gradient: dW = dYᵀ · X
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
  /// Gradient GEMMs (op = kS8GradDx / kS8GradDw): same normalisation as
  /// s8(), distinct op tag so backward shapes resolve independently.
  static PlanKey s8_grad_dx(int64_t m, int64_t n, int64_t k, bool trans_a,
                            bool trans_b, int32_t max_a, int32_t max_b);
  static PlanKey s8_grad_dw(int64_t m, int64_t n, int64_t k, bool trans_a,
                            bool trans_b, int32_t max_a, int32_t max_b);
};

/// A resolved execution recipe: the drivers read the strategy, blocking
/// and decomposition straight from it. Blocking fields of 0 keep the
/// kernel layer's compile-time default (gemm_kernel.hpp); an integer kc
/// is clamped to [group, kGemmS8KCQuad], an fp32 kc must stay 0 (float
/// accumulation order), mc is clamped to [kGemmMR, kGemmMaxMC] and
/// rounded down to whole MR strips, nc to [kGemmNR, kGemmNC]. mr/nr
/// record the register tile (one micro-kernel shape exists today; the
/// field keeps plans self-describing for the JSON cache and future
/// kernels).
struct KernelPlan {
  PlanKey key;
  PlanStrategy strategy = PlanStrategy::kF32Packed;
  int64_t mr = kGemmMR, nr = kGemmNR;
  int64_t kc = 0, mc = 0, nc = 0;
  bool parallel = true;   ///< allow pool dispatch at all
  bool split_n = false;   ///< decompose over column strips (skinny M)
  bool autotuned = false; ///< came from an adopted / persisted plan
};

/// Participating threads (pool workers + the calling thread); the value
/// PlanKey factories stamp.
int32_t plan_threads();

// -- plan cache -------------------------------------------------------------

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;    ///< cost-model resolutions (cold lookups)
  uint64_t entries = 0;
  uint64_t autotuned = 0; ///< entries adopted rather than modelled
};

/// Resolves (or returns the cached) plan for `key`. Thread-safe: readers
/// share a shared_mutex, a miss upgrades to exclusive and resolves via
/// the cost model exactly once. The returned reference is stable for
/// the life of the process. `cache_hit`, when non-null, reports whether
/// the plan came from the cache (layer telemetry).
const KernelPlan& plan_for(const PlanKey& key, bool* cache_hit = nullptr);

/// The deterministic candidate set the cost model scores for `key`,
/// best-first is NOT implied — `plan_for` picks the min-cost entry.
/// Exposed for the autotuner and the bit-identity tests (every candidate
/// must produce identical bits).
std::vector<KernelPlan> plan_candidates(const PlanKey& key);

PlanCacheStats plan_cache_stats();
void plan_cache_reset_stats();
/// Drops every entry AND the stats (tests, autotune round-trips).
void plan_cache_clear();
/// Inserts (or overwrites) a plan for plan.key, marking it autotuned.
void plan_cache_adopt(const KernelPlan& plan);
/// Persists every cached plan as JSON (schema apt-plan-cache/1).
/// Returns false on I/O failure. Entries are written in a sorted,
/// deterministic order.
bool plan_cache_save(const std::string& path);
/// Loads a JSON plan cache, adopting every well-formed entry. Returns
/// the number of plans adopted, or -1 when the file cannot be read.
int plan_cache_load(const std::string& path);

// -- options ----------------------------------------------------------------

/// Process-wide planner configuration.
struct PlanOptions {
  GemmBackend backend = GemmBackend::kPacked;
  /// JSON plan cache loaded lazily at the first plan_for. Empty defers
  /// to the APT_PLAN_CACHE environment variable (if set).
  std::string cache_file;
};

void set_plan_options(const PlanOptions& opts);
PlanOptions plan_options();

/// PlanOptions::backend, the backend `gemm` dispatches on. A lock-free
/// load (plan_options() takes a mutex), so it is cheap on every call.
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
