#include "nn/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/arena.hpp"
#include "base/check.hpp"
#include "base/thread_pool.hpp"

namespace apt::nn {
namespace {

// ------------------------------------------------------------- options

std::atomic<GemmBackend> g_backend{GemmBackend::kPacked};
std::mutex g_options_mu;
std::string g_cache_file;  // guarded by g_options_mu

// ---------------------------------------------------------- cost model
//
// A pure function of the candidate and the CPU feature set: approximate
// "cost units" = MAC count divided by the strategy's relative MAC
// density and the effective task width, plus a weighted packing /
// raw-plane traffic term. The absolute scale is meaningless; only the
// deterministic ordering of candidates matters. No measurement happens
// here — the autotuner (bench_runner --autotune) is where candidates
// meet a clock.

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

bool is_s8_op(PlanOp op) { return op != PlanOp::kGemmF32; }

bool quad_eligible(const PlanKey& key) {
  return gemm_cpu_has_avx2_fma() && (key.max_a <= kGemmS8QuadMaxCode ||
                                     key.max_b <= kGemmS8QuadMaxCode);
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
  return p.mc > 0 ? std::min<int64_t>(p.mc, kGemmMaxMC) : kGemmMC;
}
int64_t plan_nc(const KernelPlan& p) {
  return p.nc > 0 ? p.nc : kGemmNC;
}

double model_cost(const KernelPlan& p) {
  const PlanKey& key = p.key;
  const bool avx2 = gemm_cpu_has_avx2_fma();
  const double macs = static_cast<double>(key.m) *
                      static_cast<double>(key.n) *
                      static_cast<double>(key.k);

  // Relative MAC density vs the packed fp32 FMA baseline.
  double density = 1.0;
  bool pairs_bytes = false;  // packed element width: int16 pairs vs bytes
  switch (p.strategy) {
    case PlanStrategy::kF32Direct:
      density = avx2 ? 0.25 : 0.5;  // unpacked strided loads, no tile
      break;
    case PlanStrategy::kF32Packed:
      density = 1.0;
      break;
    case PlanStrategy::kS8Pairs:
      density = avx2 ? 1.0 : 0.25;
      pairs_bytes = true;
      break;
    case PlanStrategy::kS8Quad:
      density = 4.0 / 3.0;
      break;
    case PlanStrategy::kS8ConvDirect:
      density = quad_eligible(key) ? 4.0 / 3.0 : (avx2 ? 1.0 : 0.25);
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

PlanKey PlanKey::s8_grad_dx(int64_t m, int64_t n, int64_t k, bool trans_a,
                            bool trans_b, int32_t max_a, int32_t max_b) {
  PlanKey key = PlanKey::s8(m, n, k, trans_a, trans_b, max_a, max_b);
  key.op = PlanOp::kS8GradDx;
  return key;
}

PlanKey PlanKey::s8_grad_dw(int64_t m, int64_t n, int64_t k, bool trans_a,
                            bool trans_b, int32_t max_a, int32_t max_b) {
  PlanKey key = PlanKey::s8(m, n, k, trans_a, trans_b, max_a, max_b);
  key.op = PlanOp::kS8GradDw;
  return key;
}

PlanKey PlanKey::conv_s8_grad_cols(int64_t m, int64_t n, int64_t k,
                                   int32_t kernel, int32_t stride,
                                   int32_t padding, int32_t max_a,
                                   int32_t max_b) {
  PlanKey key = PlanKey::conv_s8(m, n, k, kernel, stride, padding, max_a,
                                 max_b);
  key.op = PlanOp::kConvS8GradCols;
  // dcols is Wᵀ · dY, but the caller materialises the transposed weight
  // codes once per backward (they are reused for every sample), so the
  // GEMM itself runs non-transposed on two contiguous code planes.
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
  // unique_ptr nodes so plan_for can return references that stay stable
  // across rehashes; adoption mutates nodes in place for the same
  // reason.
  std::unordered_map<PlanKey, std::unique_ptr<KernelPlan>, KeyHash> map;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

std::once_flag g_startup_load_once;

// Lazily loads the persisted plan cache the first time any plan is
// resolved: PlanOptions::cache_file when set, else APT_PLAN_CACHE.
void maybe_load_startup_cache() {
  std::call_once(g_startup_load_once, [] {
    std::string path;
    {
      std::lock_guard<std::mutex> lk(g_options_mu);
      path = g_cache_file;
    }
    if (path.empty()) {
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      const char* env = std::getenv("APT_PLAN_CACHE");
      if (env != nullptr) path = env;
    }
    if (path.empty()) return;
    if (plan_cache_load(path) < 0)
      std::fprintf(stderr, "apt: could not read plan cache \"%s\"\n",
                   path.c_str());
  });
}

uint64_t count_autotuned_locked(const PlanCache& cache) {
  uint64_t count = 0;
  for (const auto& [key, plan] : cache.map)
    if (plan->autotuned) ++count;
  return count;
}

}  // namespace

const KernelPlan& plan_for(const PlanKey& key, bool* cache_hit) {
  maybe_load_startup_cache();
  PlanCache& cache = plan_cache();
  {
    std::shared_lock<std::shared_mutex> lk(cache.mu);
    auto it = cache.map.find(key);
    if (it != cache.map.end()) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      if (cache_hit != nullptr) *cache_hit = true;
      return *it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lk(cache.mu);
  auto it = cache.map.find(key);
  if (it != cache.map.end()) {
    cache.hits.fetch_add(1, std::memory_order_relaxed);
    if (cache_hit != nullptr) *cache_hit = true;
    return *it->second;
  }
  auto node = std::make_unique<KernelPlan>(resolve_plan(key));
  cache.misses.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit != nullptr) *cache_hit = false;
  const KernelPlan& ref = *node;
  cache.map.emplace(key, std::move(node));
  return ref;
}

PlanCacheStats plan_cache_stats() {
  PlanCache& cache = plan_cache();
  PlanCacheStats stats;
  stats.hits = cache.hits.load(std::memory_order_relaxed);
  stats.misses = cache.misses.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lk(cache.mu);
  stats.entries = cache.map.size();
  stats.autotuned = count_autotuned_locked(cache);
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

void plan_cache_adopt(const KernelPlan& plan) {
  PlanCache& cache = plan_cache();
  std::unique_lock<std::shared_mutex> lk(cache.mu);
  auto it = cache.map.find(plan.key);
  if (it != cache.map.end()) {
    // Mutate in place: references handed out by plan_for stay valid.
    *it->second = plan;
    it->second->autotuned = true;
    return;
  }
  auto node = std::make_unique<KernelPlan>(plan);
  node->autotuned = true;
  cache.map.emplace(plan.key, std::move(node));
}

// ------------------------------------------------------ JSON persistence
//
// Minimal hand-rolled format (no JSON dependency in the container):
// a flat integer-field object per plan under a versioned schema tag.
// The writer emits sorted, deterministic output; the reader accepts any
// whitespace but only this shape.

namespace {

struct PlanFieldRef {
  const char* name;
  int64_t value;
};

void append_plan_json(std::string& out, const KernelPlan& p) {
  const PlanFieldRef fields[] = {
      {"op", static_cast<int64_t>(p.key.op)},
      {"m", p.key.m},
      {"n", p.key.n},
      {"k", p.key.k},
      {"ta", p.key.trans_a ? 1 : 0},
      {"tb", p.key.trans_b ? 1 : 0},
      {"max_a", p.key.max_a},
      {"max_b", p.key.max_b},
      {"kernel", p.key.kernel},
      {"stride", p.key.stride},
      {"padding", p.key.padding},
      {"threads", p.key.threads},
      {"strategy", static_cast<int64_t>(p.strategy)},
      {"mr", p.mr},
      {"nr", p.nr},
      {"kc", p.kc},
      {"mc", p.mc},
      {"nc", p.nc},
      {"parallel", p.parallel ? 1 : 0},
      {"split_n", p.split_n ? 1 : 0},
  };
  out += "    {";
  bool first = true;
  for (const PlanFieldRef& f : fields) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += f.name;
    out += "\": ";
    out += std::to_string(f.value);
  }
  out += '}';
}

bool json_int_field(const std::string& obj, const char* name,
                    int64_t* value) {
  const std::string pat = std::string{"\""} + name + "\"";
  size_t pos = obj.find(pat);
  if (pos == std::string::npos) return false;
  pos = obj.find(':', pos + pat.size());
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < obj.size() && (obj[pos] == ' ' || obj[pos] == '\t')) ++pos;
  bool neg = false;
  if (pos < obj.size() && obj[pos] == '-') {
    neg = true;
    ++pos;
  }
  if (pos >= obj.size() || obj[pos] < '0' || obj[pos] > '9') return false;
  int64_t v = 0;
  while (pos < obj.size() && obj[pos] >= '0' && obj[pos] <= '9') {
    v = v * 10 + (obj[pos] - '0');
    ++pos;
  }
  *value = neg ? -v : v;
  return true;
}

bool parse_plan_json(const std::string& obj, KernelPlan* plan) {
  int64_t op = 0, ta = 0, tb = 0, max_a = 255, max_b = 255;
  int64_t kernel = 0, stride = 0, padding = 0, threads = 1;
  int64_t strategy = 0, parallel = 1, split = 0;
  KernelPlan p;
  if (!json_int_field(obj, "op", &op) || op < 0 || op > 5) return false;
  if (!json_int_field(obj, "m", &p.key.m) ||
      !json_int_field(obj, "n", &p.key.n) ||
      !json_int_field(obj, "k", &p.key.k))
    return false;
  if (!json_int_field(obj, "strategy", &strategy) || strategy < 0 ||
      strategy > 4)
    return false;
  json_int_field(obj, "ta", &ta);
  json_int_field(obj, "tb", &tb);
  json_int_field(obj, "max_a", &max_a);
  json_int_field(obj, "max_b", &max_b);
  json_int_field(obj, "kernel", &kernel);
  json_int_field(obj, "stride", &stride);
  json_int_field(obj, "padding", &padding);
  json_int_field(obj, "threads", &threads);
  json_int_field(obj, "mr", &p.mr);
  json_int_field(obj, "nr", &p.nr);
  json_int_field(obj, "kc", &p.kc);
  json_int_field(obj, "mc", &p.mc);
  json_int_field(obj, "nc", &p.nc);
  json_int_field(obj, "parallel", &parallel);
  json_int_field(obj, "split_n", &split);
  p.key.op = static_cast<PlanOp>(op);
  p.key.trans_a = ta != 0;
  p.key.trans_b = tb != 0;
  p.key.max_a = static_cast<int32_t>(max_a);
  p.key.max_b = static_cast<int32_t>(max_b);
  p.key.kernel = static_cast<int32_t>(kernel);
  p.key.stride = static_cast<int32_t>(stride);
  p.key.padding = static_cast<int32_t>(padding);
  p.key.threads = static_cast<int32_t>(threads);
  p.strategy = static_cast<PlanStrategy>(strategy);
  p.parallel = parallel != 0;
  p.split_n = split != 0;
  // Invariants a (possibly stale or hand-edited) cache must not break.
  // The strategy must be one the planner itself offers for the key: an
  // fp32 strategy the kSmallWork pin excludes would change bits (direct
  // and packed round differently), and an integer strategy meant for
  // another op can misread its operands (kS8ConvDirect binds a k x k
  // conv's input plane as a taps x positions matrix). fp32 plans keep
  // the default k panel (accumulation order), and blocking stays in the
  // driver's clamp range. Quad ceilings are re-validated at execution
  // time by resolve_s8_path, so a stale quad plan degrades to the exact
  // full-range form, never to wrong bits.
  const std::vector<KernelPlan> offered = plan_candidates(p.key);
  if (std::none_of(offered.begin(), offered.end(),
                   [&](const KernelPlan& c) {
                     return c.strategy == p.strategy;
                   }))
    return false;
  if (p.key.op == PlanOp::kGemmF32) p.kc = 0;
  p.kc = std::clamp<int64_t>(p.kc, 0, kGemmS8KCQuad);
  p.mc = std::clamp<int64_t>(p.mc, 0, kGemmMaxMC);
  p.nc = std::clamp<int64_t>(p.nc, 0, kGemmNC);
  p.autotuned = true;
  *plan = p;
  return true;
}

bool plan_sort_less(const KernelPlan& a, const KernelPlan& b) {
  const PlanKey& x = a.key;
  const PlanKey& y = b.key;
  return std::tie(x.op, x.m, x.n, x.k, x.trans_a, x.trans_b, x.max_a,
                  x.max_b, x.kernel, x.stride, x.padding, x.threads) <
         std::tie(y.op, y.m, y.n, y.k, y.trans_a, y.trans_b, y.max_a,
                  y.max_b, y.kernel, y.stride, y.padding, y.threads);
}

}  // namespace

bool plan_cache_save(const std::string& path) {
  std::vector<KernelPlan> plans;
  {
    PlanCache& cache = plan_cache();
    std::shared_lock<std::shared_mutex> lk(cache.mu);
    plans.reserve(cache.map.size());
    for (const auto& [key, plan] : cache.map) plans.push_back(*plan);
  }
  std::sort(plans.begin(), plans.end(), plan_sort_less);
  std::string out = "{\n  \"schema\": \"apt-plan-cache/1\",\n  \"plans\": [\n";
  for (size_t i = 0; i < plans.size(); ++i) {
    append_plan_json(out, plans[i]);
    if (i + 1 < plans.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  // The plan cache is a non-durable perf hint, not an artifact: nn/
  // cannot depend on src/io/ (layering), a torn file only costs a
  // re-autotune, and plan_cache_load parses defensively.
  // apt-lint: allow(rawio)
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  return f.good();
}

int plan_cache_load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return -1;
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  if (text.find("\"apt-plan-cache/1\"") == std::string::npos) return 0;
  const size_t plans_at = text.find("\"plans\"");
  if (plans_at == std::string::npos) return 0;
  int adopted = 0;
  size_t pos = text.find('[', plans_at);
  if (pos == std::string::npos) return 0;
  while (true) {
    const size_t open = text.find('{', pos);
    if (open == std::string::npos) break;
    const size_t close = text.find('}', open);
    if (close == std::string::npos) break;
    KernelPlan plan;
    if (parse_plan_json(text.substr(open, close - open + 1), &plan)) {
      plan_cache_adopt(plan);
      ++adopted;
    }
    pos = close + 1;
    const size_t next = text.find_first_not_of(" \t\r\n,", pos);
    if (next == std::string::npos || text[next] == ']') break;
  }
  return adopted;
}

// ------------------------------------------------------------- options

void set_plan_options(const PlanOptions& opts) {
  g_backend.store(opts.backend, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(g_options_mu);
  g_cache_file = opts.cache_file;
}

PlanOptions plan_options() {
  PlanOptions opts;
  opts.backend = g_backend.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(g_options_mu);
  opts.cache_file = g_cache_file;
  return opts;
}

GemmBackend resolved_gemm_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

// ----------------------------------------------------------- execution

namespace {

// A packed fp32 plan's blocking over the caller's options.
GemmOptions f32_options(const KernelPlan& plan, const GemmOptions& opts) {
  GemmOptions o = opts;
  o.kc = plan.kc;  // always 0 for fp32 plans (accumulation order)
  o.mc = plan.mc;
  o.nc = plan.nc;
  if (!plan.parallel) o.parallel = false;
  return o;
}

}  // namespace

void gemm_ex(const KernelPlan& plan, float alpha, const float* a,
             const float* b, float beta, float* c, const GemmOptions& opts) {
  const PlanKey& key = plan.key;
  APT_CHECK(key.op == PlanOp::kGemmF32)
      << "gemm_ex: plan was resolved for an integer op";
  if (gemm_blas_edge(key.m, key.n, key.k, alpha, beta, c)) return;
  if (plan.strategy == PlanStrategy::kF32Direct) {
    gemm_strided_direct(key.trans_a, key.trans_b, key.m, key.n, key.k,
                        alpha, a, b, beta, c, opts.kernel);
    return;
  }
  gemm_packed(key.trans_a, key.trans_b, key.m, key.n, key.k, alpha, a, b,
              beta, c, f32_options(plan, opts));
}

void gemm_conv_ex(const KernelPlan& plan, float alpha, const float* a,
                  const GemmF32ConvB& b, float beta, float* c,
                  const GemmOptions& opts) {
  const PlanKey& key = plan.key;
  APT_CHECK(key.op == PlanOp::kGemmF32 && !key.trans_a)
      << "gemm_conv_ex: needs an fp32 plan with A non-transposed";
  if (gemm_blas_edge(key.m, key.n, key.k, alpha, beta, c)) return;
  if (plan.strategy == PlanStrategy::kF32Direct) {
    // A direct-size operand is a few thousand floats at most: gather it
    // once and run the strided loop over it (same values, same bits).
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    float* bk = scope.alloc_floats(static_cast<size_t>(key.k * key.n));
    gemm_unpack_conv_b(b, key.trans_b, key.k, key.n, bk);
    gemm_strided_direct(false, false, key.m, key.n, key.k, alpha, a, bk,
                        beta, c, opts.kernel);
    return;
  }
  gemm_packed_conv(key.trans_b, key.m, key.n, key.k, alpha, a, b, beta, c,
                   f32_options(plan, opts));
}

void gemm_s8_ex(const KernelPlan& plan, const GemmS8Args& args,
                const GemmOptions& opts) {
  const PlanKey& key = plan.key;
  APT_CHECK(key.op != PlanOp::kGemmF32)
      << "gemm_s8_ex: plan was resolved for an fp32 op";
  GemmOptions o = opts;
  o.kc = plan.kc;
  o.mc = plan.mc;
  o.nc = plan.nc;
  o.split_n = plan.split_n;
  if (!plan.parallel) o.parallel = false;
  switch (plan.strategy) {
    case PlanStrategy::kS8Pairs:
      o.s8 = GemmS8Strategy::kPairs;
      break;
    case PlanStrategy::kS8Quad:
      o.s8 = GemmS8Strategy::kQuad;
      break;
    default:
      o.s8 = GemmS8Strategy::kAuto;
      break;
  }
  if (plan.strategy == PlanStrategy::kS8ConvDirect) {
    APT_CHECK(args.conv_b == nullptr && args.b != nullptr)
        << "gemm_s8_ex: kS8ConvDirect expects the contiguous code plane "
           "as a plain B operand";
  }
  gemm_s8_exec(key.trans_a, key.trans_b, key.m, key.n, key.k, args.a,
               args.b, args.conv_b, args.params, args.epilogue, args.out,
               args.out_codes, o);
}

}  // namespace apt::nn
