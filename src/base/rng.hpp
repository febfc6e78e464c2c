// Deterministic random number generation.
//
// Every stochastic component in the library (init, data generation,
// augmentation, stochastic rounding, shuffling) draws from an explicitly
// seeded `Rng`, so experiments are reproducible bit-for-bit.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <random>
#include <string_view>
#include <vector>

#include "base/tensor.hpp"

namespace apt {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Derives an independent child stream; used to give each subsystem its
  /// own generator so call-order changes in one do not perturb another.
  Rng fork() { return Rng(engine_()); }

  uint64_t next_u64() { return engine_(); }

  float uniform(float lo = 0.0f, float hi = 1.0f) {
    std::uniform_real_distribution<float> d(lo, hi);
    return d(engine_);
  }

  /// stddev == 0 is the point mass at `mean`. std::normal_distribution
  /// requires stddev > 0, so that case draws at unit spread (advancing
  /// the engine exactly as before) and returns `mean`; every
  /// stddev > 0 stream is unchanged.
  float normal(float mean = 0.0f, float stddev = 1.0f) {
    std::normal_distribution<float> d(mean, spread(stddev));
    const float v = d(engine_);
    return stddev == 0.0f ? mean : v;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t randint(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Same stddev == 0 handling as normal().
  void fill_normal(Tensor& t, float mean, float stddev) {
    std::normal_distribution<float> d(mean, spread(stddev));
    for (float& v : t.span()) {
      v = d(engine_);
      if (stddev == 0.0f) v = mean;
    }
  }

  void fill_uniform(Tensor& t, float lo, float hi) {
    std::uniform_real_distribution<float> d(lo, hi);
    for (float& v : t.span()) v = d(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Random permutation of [0, n).
  std::vector<int64_t> permutation(int64_t n) {
    std::vector<int64_t> p(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
    shuffle(p);
    return p;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  static float spread(float stddev) { return stddev == 0.0f ? 1.0f : stddev; }

  std::mt19937_64 engine_;
};

// ---------------------------------------------------------------------------
// Counter-based generation (Philox-style), for stochastic rounding.
//
// `Rng` above is *stateful*: the value you draw depends on how many draws
// came before, so any parallel decomposition that changes draw order
// changes the bits. Gradient quantisation needs randomness that is a pure
// function of (step, layer, element index) instead — then every shard and
// every thread computes the same bit for the same element, and checkpoints
// stay identical across APT_NUM_THREADS and shard counts (DESIGN.md §14).
//
// `philox4x32` is the 10-round Philox 4x32 block function (Salmon et al.,
// "Parallel random numbers: as easy as 1, 2, 3"): a 64-bit key and a
// 64-bit counter in, four independent 32-bit words out. One block serves
// four consecutive elements: word(i) = philox4x32(key, i / 4).v[i % 4].

struct PhiloxBlock {
  uint32_t v[4];
};

/// The Philox 4x32-10 block function. Pure: no state, no globals.
inline PhiloxBlock philox4x32(uint64_t key, uint64_t counter) {
  constexpr uint32_t kM0 = 0xD2511F53u, kM1 = 0xCD9E8D57u;
  constexpr uint32_t kW0 = 0x9E3779B9u, kW1 = 0xBB67AE85u;
  uint32_t x0 = static_cast<uint32_t>(counter);
  uint32_t x1 = static_cast<uint32_t>(counter >> 32);
  uint32_t x2 = 0, x3 = 0;
  uint32_t k0 = static_cast<uint32_t>(key);
  uint32_t k1 = static_cast<uint32_t>(key >> 32);
  for (int round = 0; round < 10; ++round) {
    const uint64_t p0 = static_cast<uint64_t>(kM0) * x0;
    const uint64_t p1 = static_cast<uint64_t>(kM1) * x2;
    const uint32_t hi0 = static_cast<uint32_t>(p0 >> 32);
    const uint32_t lo0 = static_cast<uint32_t>(p0);
    const uint32_t hi1 = static_cast<uint32_t>(p1 >> 32);
    const uint32_t lo1 = static_cast<uint32_t>(p1);
    x0 = hi1 ^ x1 ^ k0;
    x1 = lo1;
    x2 = hi0 ^ x3 ^ k1;
    x3 = lo0;
    k0 += kW0;
    k1 += kW1;
  }
  return PhiloxBlock{{x0, x1, x2, x3}};
}

/// Counter word for one element index under `key`.
inline uint32_t philox_u32(uint64_t key, uint64_t index) {
  return philox4x32(key, index >> 2).v[index & 3];
}

/// Fills `out[0..n)` with the counter words for global element indices
/// [base, base+n). Walks block-at-a-time, so a bulk fill costs one Philox
/// call per four elements regardless of where `base` falls in a block.
inline void philox_fill_u32(uint64_t key, uint64_t base, int64_t n,
                            uint32_t* out) {
  int64_t i = 0;
  while (i < n) {
    const uint64_t idx = base + static_cast<uint64_t>(i);
    const PhiloxBlock blk = philox4x32(key, idx >> 2);
    for (uint64_t lane = idx & 3; lane < 4 && i < n; ++lane, ++i) {
      out[i] = blk.v[lane];
    }
  }
}

/// Maps a counter word onto [0, 1): the top 24 bits scaled by 2^-24, the
/// exact construction both rounding paths (scalar and AVX2) share.
inline float philox_u01(uint32_t word) {
  return static_cast<float>(word >> 8) * 0x1p-24f;
}

/// FNV-1a over a string — the stable per-layer half of a stochastic
/// rounding key. Depends only on the layer's name, never on construction
/// order or addresses, so keys survive across runs and process layouts.
inline uint64_t fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mixes the global step counter into a layer key (SplitMix64 finalizer,
/// so consecutive steps land far apart in key space).
inline uint64_t sr_mix_key(uint64_t layer_key, uint64_t step) {
  uint64_t z = step + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return layer_key ^ z;
}

// The process-wide stochastic-rounding step counter. Advanced exactly once
// per training step at a serial point (ShardedStep::run), read by every
// gradient quantiser in that step; never advanced from worker threads.
namespace rng_detail {
inline std::atomic<uint64_t> g_sr_step{0};
}  // namespace rng_detail

inline uint64_t sr_step() {
  return rng_detail::g_sr_step.load(std::memory_order_relaxed);
}
inline void sr_advance_step() {
  rng_detail::g_sr_step.fetch_add(1, std::memory_order_relaxed);
}
/// Tests only: rewind the step counter to a known value.
inline void sr_set_step(uint64_t step) {
  rng_detail::g_sr_step.store(step, std::memory_order_relaxed);
}

}  // namespace apt
