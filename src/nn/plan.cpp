#include "nn/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "base/check.hpp"
#include "base/thread_pool.hpp"

namespace apt::nn {
namespace {

// ------------------------------------------------------------- options

std::atomic<GemmBackend> g_backend{GemmBackend::kPacked};

// ---------------------------------------------------------- cost model
//
// A pure function of the candidate — not of the host or its SIMD level,
// so a key resolves to one plan wherever and whenever it is first asked
// for (the cache key carries no level). Approximate "cost units" = MAC
// count divided by the strategy's relative MAC density and the
// effective task width, plus a weighted packing / raw-plane traffic
// term. The absolute scale is meaningless; only the
// deterministic ordering of candidates matters. No measurement happens
// here or anywhere else: the model's pick is the plan.

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

bool is_s8_op(PlanOp op) { return op != PlanOp::kGemmF32; }

// The scalar kernels run a quad plan as pairs (resolve_s8_path), with
// the same bits, so eligibility reads only the ceilings.
bool quad_eligible(const PlanKey& key) {
  return key.max_a <= kGemmS8QuadMaxCode || key.max_b <= kGemmS8QuadMaxCode;
}

// Effective blocking the kernel layer would use for this candidate.
int64_t plan_kc(const KernelPlan& p) {
  const bool quad_layout = p.strategy == PlanStrategy::kS8Quad ||
                           (p.strategy == PlanStrategy::kS8ConvDirect &&
                            quad_eligible(p.key));
  const int64_t def = quad_layout ? kGemmS8KCQuad : kGemmKC;
  return p.kc > 0 ? std::min<int64_t>(p.kc, kGemmS8KCQuad) : def;
}
int64_t plan_mc(const KernelPlan& p) {
  if (p.mc <= 0) return kGemmMC;
  return std::clamp<int64_t>(p.mc, kGemmMR, kGemmMaxMC) / kGemmMR * kGemmMR;
}
int64_t plan_nc(const KernelPlan& p) {
  return p.nc > 0 ? p.nc : kGemmNC;
}

double model_cost(const KernelPlan& p) {
  const PlanKey& key = p.key;
  const double macs = static_cast<double>(key.m) *
                      static_cast<double>(key.n) *
                      static_cast<double>(key.k);

  // Relative MAC density vs the packed fp32 FMA baseline.
  double density = 1.0;
  bool pairs_bytes = false;  // packed element width: int16 pairs vs bytes
  switch (p.strategy) {
    case PlanStrategy::kF32Direct:
      density = 0.25;  // unpacked strided loads, no tile
      break;
    case PlanStrategy::kF32Packed:
      density = 1.0;
      break;
    case PlanStrategy::kS8Pairs:
      density = 1.0;
      pairs_bytes = true;
      break;
    case PlanStrategy::kS8Quad:
      density = 4.0 / 3.0;
      break;
    case PlanStrategy::kS8ConvDirect:
      density = quad_eligible(key) ? 4.0 / 3.0 : 1.0;
      pairs_bytes = !quad_eligible(key);
      break;
  }

  const int64_t kc = plan_kc(p);
  const int64_t mc = plan_mc(p);
  const int64_t nc = plan_nc(p);
  const int64_t m_blocks = ceil_div(key.m, mc);
  const int64_t strips = ceil_div(std::min<int64_t>(key.n, nc), kGemmNR);

  // Thread decomposition mirrors the drivers' dispatch conditions.
  double tasks = 1.0;
  if (p.parallel && macs > static_cast<double>(1 << 16)) {
    if (m_blocks > 1) {
      tasks = std::min<double>(key.threads, m_blocks);
    } else if (p.split_n && strips > 1) {
      tasks = std::min<double>(key.threads, strips);
    }
  }

  if (p.strategy == PlanStrategy::kF32Direct) {
    return macs / (density * tasks);  // no packing, no panels
  }

  // Packing traffic: A is repacked once per column panel, B once per
  // (j, k) panel pair; a k that spans several panels round-trips the
  // int32 raw plane once per extra panel. The implicit conv gather
  // walks a row table per element instead of streaming contiguous
  // bytes — modelled as a 1.5x factor on B's packing traffic, which is
  // exactly what the 1x1 direct-GEMM strategy saves.
  const double elem = is_s8_op(key.op) ? (pairs_bytes ? 2.0 : 1.0) : 4.0;
  const double j_panels = static_cast<double>(ceil_div(key.n, nc));
  const double k_panels = static_cast<double>(ceil_div(key.k, kc));
  double bytes_a = elem * static_cast<double>(key.m) * key.k * j_panels;
  double bytes_b = elem * static_cast<double>(key.k) * key.n;
  if (key.op == PlanOp::kConvS8 && p.strategy != PlanStrategy::kS8ConvDirect)
    bytes_b *= 1.5;
  const double raw_plane =
      k_panels > 1.0
          ? 8.0 * static_cast<double>(key.m) * key.n * (k_panels - 1.0)
          : 0.0;
  return macs / (density * tasks) + 0.25 * (bytes_a + bytes_b + raw_plane);
}

// Below this M*N*K the packed backend's pack/dispatch overhead exceeds
// the multiply itself; the planner pins the direct strategy so small
// problems keep the seed behaviour (and its bits) exactly.
constexpr int64_t kSmallWork = 1 << 14;

bool conv_is_direct_eligible(const PlanKey& key) {
  return key.op == PlanOp::kConvS8 && key.kernel == 1 && key.stride == 1 &&
         key.padding == 0;
}

KernelPlan make_candidate(const PlanKey& key, PlanStrategy strategy,
                          int64_t kc, int64_t mc, int64_t nc) {
  KernelPlan p;
  p.key = key;
  p.strategy = strategy;
  p.kc = kc;
  p.mc = mc;
  p.nc = nc;
  p.parallel = true;
  // The split-N decomposition is derived, not searched: it only exists
  // for single-row-panel (skinny M) problems with enough strips to
  // share. Bits are unaffected either way.
  const int64_t mc_eff = plan_mc(p);
  const int64_t nc_eff = plan_nc(p);
  const int64_t strips = ceil_div(std::min<int64_t>(key.n, nc_eff), kGemmNR);
  p.split_n = is_s8_op(key.op) && ceil_div(key.m, mc_eff) == 1 &&
              key.threads > 1 && strips > 1;
  return p;
}

}  // namespace

const char* plan_strategy_name(PlanStrategy s) {
  switch (s) {
    case PlanStrategy::kF32Direct: return "f32-direct";
    case PlanStrategy::kF32Packed: return "f32-packed";
    case PlanStrategy::kS8Pairs: return "s8-pairs";
    case PlanStrategy::kS8Quad: return "s8-quad";
    case PlanStrategy::kS8ConvDirect: return "s8-conv-direct";
  }
  return "?";
}

int32_t plan_threads() {
  return static_cast<int32_t>(ThreadPool::global().size()) + 1;
}

PlanKey PlanKey::f32(int64_t m, int64_t n, int64_t k, bool trans_a,
                     bool trans_b) {
  PlanKey key;
  key.op = PlanOp::kGemmF32;
  key.m = m;
  key.n = n;
  key.k = k;
  key.trans_a = trans_a;
  key.trans_b = trans_b;
  key.threads = plan_threads();
  return key;
}

PlanKey PlanKey::s8(int64_t m, int64_t n, int64_t k, bool trans_a,
                    bool trans_b, int32_t max_a, int32_t max_b) {
  PlanKey key;
  key.op = PlanOp::kGemmS8;
  key.m = m;
  key.n = n;
  key.k = k;
  key.trans_a = trans_a;
  key.trans_b = trans_b;
  key.max_a = max_a;
  key.max_b = max_b;
  key.threads = plan_threads();
  return key;
}

PlanKey PlanKey::conv_s8(int64_t m, int64_t n, int64_t k, int32_t kernel,
                         int32_t stride, int32_t padding, int32_t max_a,
                         int32_t max_b) {
  PlanKey key;
  key.op = PlanOp::kConvS8;
  key.m = m;
  key.n = n;
  key.k = k;
  key.max_a = max_a;
  key.max_b = max_b;
  key.kernel = kernel;
  key.stride = stride;
  key.padding = padding;
  key.threads = plan_threads();
  return key;
}

std::vector<KernelPlan> plan_candidates(const PlanKey& key) {
  std::vector<KernelPlan> out;
  if (key.op == PlanOp::kGemmF32) {
    if (key.m * key.n * key.k <= kSmallWork) {
      // Pinned, not scored: keeps the historical small-problem cutoff
      // (and the exact bits of the strided loop) stable.
      out.push_back(make_candidate(key, PlanStrategy::kF32Direct, 0, 0, 0));
      return out;
    }
    // fp32 candidates never vary kc: a different float k-panel split
    // changes the accumulation order, and plans must be bit-equivalent.
    for (int64_t mc : {int64_t{0}, int64_t{48}, kGemmMaxMC})
      for (int64_t nc : {int64_t{0}, int64_t{1024}})
        out.push_back(
            make_candidate(key, PlanStrategy::kF32Packed, 0, mc, nc));
    return out;
  }

  // Integer ops: every combination below is exact, so candidates may
  // vary kc/mc/nc/split freely without touching bits. The quad strategy
  // appears only when an operand ceiling proves no saturation.
  std::vector<PlanStrategy> strategies;
  if (conv_is_direct_eligible(key))
    strategies.push_back(PlanStrategy::kS8ConvDirect);
  strategies.push_back(PlanStrategy::kS8Pairs);
  if (quad_eligible(key)) strategies.push_back(PlanStrategy::kS8Quad);

  for (PlanStrategy s : strategies) {
    std::vector<int64_t> kcs = {0};
    // Single-panel variant for the pair strategy when the default would
    // split k: skips the int32 raw-plane round trip at the price of a
    // deeper (colder) B strip.
    if (s == PlanStrategy::kS8Pairs && key.k > kGemmKC &&
        key.k <= kGemmS8KCQuad)
      kcs.push_back(kGemmS8KCQuad);
    for (int64_t kc : kcs)
      for (int64_t mc : {int64_t{0}, int64_t{48}, kGemmMaxMC})
        for (int64_t nc : {int64_t{0}, int64_t{1024}})
          out.push_back(make_candidate(key, s, kc, mc, nc));
  }
  return out;
}

namespace {

KernelPlan resolve_plan(const PlanKey& key) {
  const std::vector<KernelPlan> cands = plan_candidates(key);
  APT_CHECK(!cands.empty()) << "plan_for: empty candidate set";
  const KernelPlan* best = &cands[0];
  double best_cost = model_cost(cands[0]);
  for (size_t i = 1; i < cands.size(); ++i) {
    const double cost = model_cost(cands[i]);
    // Strict less: ties keep the earlier (more default) candidate, so
    // selection is deterministic for any candidate ordering-preserving
    // change.
    if (cost < best_cost) {
      best = &cands[i];
      best_cost = cost;
    }
  }
  return *best;
}

// ----------------------------------------------------------- the cache

struct PlanCache {
  struct KeyHash {
    size_t operator()(const PlanKey& k) const {
      uint64_t h = 1469598103934665603ull;  // FNV-1a
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      mix(static_cast<uint64_t>(k.op));
      mix(static_cast<uint64_t>(k.m));
      mix(static_cast<uint64_t>(k.n));
      mix(static_cast<uint64_t>(k.k));
      mix(static_cast<uint64_t>(k.trans_a) | uint64_t{k.trans_b} << 1);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(k.max_a)) |
          static_cast<uint64_t>(static_cast<uint32_t>(k.max_b)) << 32);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(k.kernel)) |
          static_cast<uint64_t>(static_cast<uint32_t>(k.stride)) << 32);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(k.padding)) |
          static_cast<uint64_t>(static_cast<uint32_t>(k.threads)) << 32);
      return static_cast<size_t>(h);
    }
  };

  std::shared_mutex mu;
  // Plans by value: an unordered_map keeps element references valid
  // across rehashes, and an entry never changes once inserted, so
  // plan_for's references stay stable until plan_cache_clear.
  std::unordered_map<PlanKey, KernelPlan, KeyHash> map;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

const KernelPlan& plan_for(const PlanKey& key, bool* cache_hit) {
  PlanCache& cache = plan_cache();
  {
    std::shared_lock<std::shared_mutex> lk(cache.mu);
    auto it = cache.map.find(key);
    if (it != cache.map.end()) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lk(cache.mu);
  auto it = cache.map.find(key);
  if (it != cache.map.end()) {
    cache.hits.fetch_add(1, std::memory_order_relaxed);
    if (cache_hit != nullptr) *cache_hit = true;
    return it->second;
  }
  cache.misses.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit != nullptr) *cache_hit = false;
  return cache.map.emplace(key, resolve_plan(key)).first->second;
}

PlanCacheStats plan_cache_stats() {
  PlanCache& cache = plan_cache();
  PlanCacheStats stats;
  stats.hits = cache.hits.load(std::memory_order_relaxed);
  stats.misses = cache.misses.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lk(cache.mu);
  stats.entries = cache.map.size();
  return stats;
}

void plan_cache_reset_stats() {
  PlanCache& cache = plan_cache();
  cache.hits.store(0, std::memory_order_relaxed);
  cache.misses.store(0, std::memory_order_relaxed);
}

void plan_cache_clear() {
  PlanCache& cache = plan_cache();
  std::unique_lock<std::shared_mutex> lk(cache.mu);
  cache.map.clear();
  cache.hits.store(0, std::memory_order_relaxed);
  cache.misses.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------- options

void set_plan_options(const PlanOptions& opts) {
  g_backend.store(opts.backend, std::memory_order_relaxed);
}

PlanOptions plan_options() {
  PlanOptions opts;
  opts.backend = g_backend.load(std::memory_order_relaxed);
  return opts;
}

GemmBackend resolved_gemm_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

}  // namespace apt::nn
