// Runtime CPU-feature detection shared by the vectorised kernels.
//
// Every SIMD fast path in the repo (GEMM micro-kernels, the bulk
// activation quantiser, tensor reductions, the BN and col2im loops)
// dispatches through the one level resolved here, so "has AVX2+FMA"
// means the same thing everywhere. Non-x86 builds compile the scalar
// fallbacks only and report kScalar.
//
// The APT_SIMD environment variable (scalar | avx2 | avx512) caps the
// level once per process: the resolved level is the lower of the cap
// and what the CPU supports, so a run can be pinned to the AVX2 kernels
// on an AVX-512 host (or to the portable loops anywhere). An unknown
// value is a configuration error, reported before any kernel runs.
//
// SimdCapScope narrows the level further for a stretch of code (the
// cross-level differential tests, the forced-scalar bench). It is the
// only way to pick narrower kernels: nothing takes a kernel argument,
// and a scope can never raise the level above the CPU or APT_SIMD.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace apt {

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define APT_X86 1
#else
#define APT_X86 0
#endif

/// Vector ISA tiers the kernels are written for, narrowest first.
///  * kAvx2   — AVX2 + FMA (the ymm micro-kernels and bulk loops).
///  * kAvx512 — kAvx2 plus AVX-512 F/VL and VNNI: the 6x32 zmm fp32 tile
///              and the vpdpbusd integer tile.
enum class SimdLevel : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

/// Parses an APT_SIMD value: "scalar", "avx2" or "avx512". Returns
/// nullopt for anything else.
inline std::optional<SimdLevel> parse_simd_level(const char* text) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (std::strcmp(text, simd_level_name(level)) == 0) return level;
  return std::nullopt;
}

/// The widest level the running CPU (and OS) supports, ignoring APT_SIMD.
inline SimdLevel cpu_simd_level() {
#if APT_X86
  static const SimdLevel level = [] {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
      return SimdLevel::kScalar;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni"))
      return SimdLevel::kAvx512;
    return SimdLevel::kAvx2;
  }();
  return level;
#else
  return SimdLevel::kScalar;
#endif
}

namespace detail {

/// cpu_simd_level() capped by APT_SIMD (read once). An unknown APT_SIMD
/// value aborts with a message naming the legal values — a mistyped cap
/// must not silently run other kernels than the ones asked for.
inline SimdLevel env_simd_level() {
  static const SimdLevel level = [] {
    const SimdLevel hw = cpu_simd_level();
    // Read once, before the result is cached; getenv is mt-unsafe only
    // against a concurrent setenv.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("APT_SIMD");
    if (env == nullptr || *env == '\0') return hw;
    const std::optional<SimdLevel> cap = parse_simd_level(env);
    if (!cap) {
      std::fprintf(stderr,
                   "apt: APT_SIMD=\"%s\" is not a SIMD level; use scalar, "
                   "avx2 or avx512\n",
                   env);
      std::abort();
    }
    return *cap < hw ? *cap : hw;
  }();
  return level;
}

/// The cap of the innermost live SimdCapScope (kAvx512 when none).
inline std::atomic<SimdLevel>& scope_simd_cap() {
  static std::atomic<SimdLevel> cap{SimdLevel::kAvx512};
  return cap;
}

}  // namespace detail

/// The level every dispatch site uses: the lowest of the CPU's level,
/// APT_SIMD and the innermost SimdCapScope. The GEMM drivers read it
/// once per call and run every tile of that call on the kernels it
/// names.
inline SimdLevel simd_level() {
  const SimdLevel env = detail::env_simd_level();
  const SimdLevel scope = detail::scope_simd_cap().load();
  return scope < env ? scope : env;
}

/// Caps simd_level() at `cap` until the scope ends, then restores the
/// previous cap. Scopes only narrow: a nested scope asking for a wider
/// level keeps the enclosing one's. The cap is process-wide, so pool
/// workers running on a capped caller's behalf see it too; scopes must
/// therefore nest (open and close them from one thread at a time, as a
/// test body or a bench section does).
class SimdCapScope {
 public:
  explicit SimdCapScope(SimdLevel cap)
      : prev_(detail::scope_simd_cap().load()) {
    detail::scope_simd_cap().store(cap < prev_ ? cap : prev_);
  }
  ~SimdCapScope() { detail::scope_simd_cap().store(prev_); }
  SimdCapScope(const SimdCapScope&) = delete;
  SimdCapScope& operator=(const SimdCapScope&) = delete;

 private:
  SimdLevel prev_;
};

/// True when the AVX2+FMA kernels may run (CPU support and APT_SIMD).
inline bool cpu_has_avx2_fma() { return simd_level() >= SimdLevel::kAvx2; }

/// True when the AVX-512 (F/VL/VNNI) kernels may run.
inline bool cpu_has_avx512() { return simd_level() >= SimdLevel::kAvx512; }

}  // namespace apt
