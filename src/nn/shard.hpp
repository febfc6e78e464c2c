// Shard context for the intra-step data-parallel execution engine.
//
// A training step may split its minibatch into S contiguous sample shards
// and run the per-shard forward/backward work concurrently. The key
// determinism contract: the shard decomposition is a function of the batch
// size and the configured shard grain ONLY — never of the worker count or
// the machine's thread count — and every cross-shard reduction (parameter
// gradients, BatchNorm statistics, losses, activation ranges) runs in
// fixed shard-index order from per-shard buffers. Results are therefore
// bit-identical for any number of workers, including the serial reference
// (one worker walking the same shards in order).
//
// Layers learn which shard they are computing for through a thread-local
// shard id set by `ShardScope`; per-shard training caches live in
// `PerShard<T>` slots indexed by it. Outside a shard session a pass is
// the one-shard case and runs on the calling thread's slot: 0, unless a
// serving thread bound another with ShardScope (DESIGN.md §15).
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "quant/fake_quant.hpp"

namespace apt::nn {

/// Upper bound on shards per step; the engine raises the shard grain so
/// decompositions never exceed it (PerShard slots are sized eagerly).
inline constexpr int kMaxShards = 32;

namespace shard_detail {
// Thread-local: which shard the calling thread is computing for.
inline thread_local int tls_shard = 0;
// Process-wide session state. Written only at serial points (the step
// engine's coordinator thread, with no shard tasks in flight) but READ
// from pool workers inside shard tasks (sharding_active() on every layer
// forward), so the variables must be atomic to be data-race-free.
// Required ordering: relaxed suffices — every worker that can observe a
// session had its task published through the pool's queue mutex AFTER
// the coordinator stored the new values, and that mutex hand-off is the
// happens-before edge; the atomics only remove the word-tearing race,
// they are not the synchronisation mechanism.
inline std::atomic<int> g_shard_count{1};
inline std::atomic<int> g_worker_cap{1};
// Samples per shard (the step engine's grain). Lets a layer running
// inside shard s recover the batch-global index of its first sample
// (s * grain) without threading offsets through every call signature —
// the stochastic-rounding counter streams are indexed by batch-global
// element, which is what keeps their bits independent of the shard
// decomposition (DESIGN.md §14).
inline std::atomic<int64_t> g_sample_grain{0};
}  // namespace shard_detail

/// Shard index the calling thread is computing for (0 outside a session).
inline int current_shard() { return shard_detail::tls_shard; }

/// Number of shards in the active session (1 = no sharding).
inline int shard_count() {
  return shard_detail::g_shard_count.load(std::memory_order_relaxed);
}

/// True while a multi-shard session is open: layers must route training
/// caches through their shard slot and gradients through `grad_sink`.
inline bool sharding_active() { return shard_count() > 1; }

/// Batch-global index of the calling shard's first sample (0 outside a
/// session, or when the engine did not publish a grain).
inline int64_t shard_sample_offset() {
  return static_cast<int64_t>(current_shard()) *
         shard_detail::g_sample_grain.load(std::memory_order_relaxed);
}

/// RAII shard-id binding for the calling thread. Nestable: a pool thread
/// that helps drain another shard's task while waiting restores its own
/// id on unwind.
///
/// Serving contract (DESIGN.md §15): threads running *evaluation-mode*
/// forwards outside any ShardSession may each bind a distinct slot in
/// [0, kMaxShards) to make a shared model's PerShard eval scratch
/// (pool argmax, GEMM-layer telemetry) race-free without touching
/// the session globals — ShardScope is purely thread-local and never
/// writes g_shard_count / g_worker_cap / g_sample_grain.
class ShardScope {
 public:
  explicit ShardScope(int shard) : prev_(shard_detail::tls_shard) {
    APT_CHECK(shard >= 0 && shard < kMaxShards)
        << "shard id " << shard << " outside [0, " << kMaxShards << ")";
    shard_detail::tls_shard = shard;
  }
  ~ShardScope() { shard_detail::tls_shard = prev_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  int prev_;
};

/// RAII session marker opened by the step engine around one sharded step.
/// `worker_cap` bounds how many shards run concurrently (1 = the serial
/// reference path); it never affects numerics, only scheduling.
class ShardSession {
 public:
  /// `sample_grain` is the samples-per-shard the engine decomposed with
  /// (shard s covers samples [s*grain, ...)); 0 when the caller has no
  /// sample decomposition to publish.
  ShardSession(int shards, int worker_cap, int64_t sample_grain = 0) {
    APT_CHECK(shards >= 1 && shards <= kMaxShards)
        << "shard count " << shards << " outside [1, " << kMaxShards << "]";
    APT_CHECK(shard_count() == 1) << "nested shard sessions are not supported";
    // Relaxed stores: published to workers by the pool's queue mutex (see
    // shard_detail above); the destructor runs only after every shard
    // task completed (parallel_for_chunked's acquire on the remaining
    // counter), so no task can observe the reset values mid-session.
    shard_detail::g_shard_count.store(shards, std::memory_order_relaxed);
    shard_detail::g_worker_cap.store(worker_cap < 1 ? 1 : worker_cap,
                                     std::memory_order_relaxed);
    shard_detail::g_sample_grain.store(sample_grain < 0 ? 0 : sample_grain,
                                       std::memory_order_relaxed);
  }
  ~ShardSession() {
    shard_detail::g_shard_count.store(1, std::memory_order_relaxed);
    shard_detail::g_worker_cap.store(1, std::memory_order_relaxed);
    shard_detail::g_sample_grain.store(0, std::memory_order_relaxed);
  }
  ShardSession(const ShardSession&) = delete;
  ShardSession& operator=(const ShardSession&) = delete;
};

/// Per-shard storage slots. Sized eagerly to kMaxShards so concurrent
/// shards never trigger a reallocation while another shard holds a
/// reference into the vector.
template <typename T>
class PerShard {
 public:
  PerShard() : slots_(static_cast<size_t>(kMaxShards)) {}
  explicit PerShard(const T& init)
      : slots_(static_cast<size_t>(kMaxShards), init) {}

  /// The calling thread's slot (slot 0 outside a shard session).
  T& cur() { return slots_[static_cast<size_t>(current_shard())]; }
  const T& cur() const { return slots_[static_cast<size_t>(current_shard())]; }

  T& at(int shard) { return slots_[static_cast<size_t>(shard)]; }
  const T& at(int shard) const { return slots_[static_cast<size_t>(shard)]; }

 private:
  std::vector<T> slots_;
};

/// An EMA RangeTracker fed from shard-parallel code. Concurrent shard
/// tasks must not touch the EMA (a data race, and the result would
/// depend on shard interleaving), so inside a shard session `record`
/// only writes the calling shard's raw [lo, hi] slot and `merge` — run
/// at the layer boundary, a serial point — folds the slots in shard
/// order into ONE observation. The tracker therefore sees merged batch
/// statistics in a fixed order, bit-identical for any worker count.
/// Outside a session `record` observes directly and `merge` is a no-op.
class ShardedRange {
 public:
  explicit ShardedRange(double momentum = 0.95)
      : tracker_(momentum), slots_(kUnset) {}

  void record(std::pair<float, float> range) {
    if (sharding_active()) {
      slots_.cur() = range;
    } else {
      tracker_.observe(range.first, range.second);
    }
  }

  /// Folds slots [0, shards) and marks them unset again. A shard that
  /// recorded nothing this pass (NaN slot) skips the whole observation —
  /// engagement is uniform across shards.
  void merge(int shards) {
    if (!sharding_active()) return;
    tracker_.observe_merged(shards, [&](int s) { return slots_.at(s); });
    for (int s = 0; s < shards; ++s) slots_.at(s) = kUnset;
  }

  const quant::RangeTracker& tracker() const { return tracker_; }
  bool initialized() const { return tracker_.initialized(); }
  float lo() const { return tracker_.lo(); }
  float hi() const { return tracker_.hi(); }

 private:
  static constexpr std::pair<float, float> kUnset{
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::quiet_NaN()};
  quant::RangeTracker tracker_;
  PerShard<std::pair<float, float>> slots_;
};

/// Runs fn(s) for every shard s in [0, shards), each under its
/// ShardScope. One shard runs fn(0) on the calling thread without
/// rebinding its ShardScope (an unsharded pass is this case). With a
/// worker cap of 1 it is a plain in-order loop on the calling thread —
/// the serial reference path. Otherwise shards are split into at most
/// `cap` contiguous chunk tasks on the global pool; each task still
/// visits its shards in ascending order. Chunking never affects results:
/// every shard writes only its own slots.
void shard_parallel(int shards, const std::function<void(int)>& fn);

}  // namespace apt::nn
