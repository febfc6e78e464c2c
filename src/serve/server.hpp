// Async serving runtime: dynamic batching over a CompiledModel
// (DESIGN.md §15), with overload protection (§16).
//
// Callers submit single-sample requests through `infer`; worker threads
// greedily coalesce whatever is queued — up to the model's max_batch —
// into one `CompiledModel::run` call. Coalescing is pure throughput
// mechanics: the compiled program is exact and per-sample independent,
// so a response is bit-identical whether its request ran alone or
// shared a batch, under any worker count (the determinism contract,
// enforced by tests/serve_test.cpp).
//
// Batching is demand-driven, never timed (the apt_lint `clock` rule
// bans wall-clock reads in src/, and a deadline-based batcher would
// also make batch shapes — though never responses — timing-dependent):
// a woken worker takes its fair share of the queue, ceil(queued /
// available workers) capped at max_batch, leaving the rest for idle
// siblings. Under load the queue depth itself forms full batches; with
// few outstanding requests the split keeps every core busy instead of
// serialising the queue behind one greedy worker; an idle server
// degenerates to batch-of-one, the latency-optimal case anyway.
//
// Overload protection (all off by default; DESIGN.md §16 gives the
// policy):
//  * Bounded queue — `max_queue` outstanding requests; beyond that
//    `infer` sheds the request with kOverloaded instead of queueing
//    work it cannot serve in time.
//  * Per-request deadlines — InferOptions::deadline_ns; a request whose
//    deadline passes while it waits is completed with kDeadlineExceeded
//    *without running*, so a backed-up server stops burning cycles on
//    responses nobody is waiting for. Deadlines gate only admission and
//    expiry: batch composition of accepted work stays demand-driven and
//    responses stay bit-identical.
//  * Graceful degradation — under memory pressure (arena capacity past
//    `memory_budget_bytes`) or deadline pressure (the head request has
//    burned more than half its budget waiting), workers halve the batch
//    cap instead of rejecting: smaller batches, lower latency, same
//    bits.
//  * Lifecycle — Starting → Serving → Draining → Stopped, with
//    `healthy()` as the load-balancer probe and `drain()` for
//    decommissioning (stop accepting, flush the queue).
//
// Zero steady-state allocation: request nodes live on the caller's
// stack and chain through an intrusive list, each worker owns a
// pre-bound InferenceContext plus pinned gather/scatter and
// expired-request buffers, and the per-thread ScratchArena reaches its
// high-water capacity on the first request (watermark-asserted by the
// tests via `stats`).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "base/status.hpp"
#include "serve/compiled_model.hpp"

namespace apt::serve {

struct ServerOptions {
  /// Worker threads running CompiledModel::run. Each worker is serial
  /// (InlineScope); throughput scales by adding workers, not by
  /// splitting one request across the pool.
  int workers = 1;
  /// Largest coalesced batch; clamped to the model's max_batch.
  int64_t max_batch = 0;  // 0 = the model's max_batch
  /// Load shedding: reject (kOverloaded) once this many requests are
  /// already queued. 0 = unbounded (the pre-§16 behaviour).
  int64_t max_queue = 0;
  /// Graceful degradation: halve the batch cap while a worker's arena
  /// high-water capacity exceeds this. 0 = no memory budget.
  size_t memory_budget_bytes = 0;
};

/// Lifecycle: Starting until every worker has entered its loop, then
/// Serving; drain() moves to Draining (no new admissions, queue
/// flushed); shutdown() ends at Stopped.
enum class ServerState : uint8_t {
  kStarting = 0,
  kServing = 1,
  kDraining = 2,
  kStopped = 3,
};

const char* server_state_name(ServerState s);

struct InferOptions {
  /// Deadline budget in nanoseconds, measured from admission; 0 = none.
  /// Expired requests complete with kDeadlineExceeded without running.
  int64_t deadline_ns = 0;
};

class Server {
 public:
  Server(const CompiledModel& model, const ServerOptions& opts = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Synchronous single-sample inference: blocks until `out` holds the
  /// model.out_elems() response floats. Returns false (without touching
  /// `out`) when the request is not admitted: the server is draining or
  /// shut down (kUnavailable), or the queue is at max_queue and the
  /// request is shed (kOverloaded). Thread-safe.
  bool infer(const float* in, float* out);

  /// Typed-status form: kUnavailable (draining/stopped, request never
  /// admitted), kOverloaded (queue at max_queue, shed), or
  /// kDeadlineExceeded (admitted but expired unrun). `out` is written
  /// only on kOk.
  Status infer(const float* in, float* out, const InferOptions& opts);

  /// Stops admissions and blocks until the queue and all in-flight
  /// batches have fully flushed. Workers stay up (idle) so late
  /// responses complete; call shutdown() to stop them. Idempotent.
  void drain();

  /// Drains every queued request, then stops the workers. Idempotent;
  /// also run by the destructor.
  void shutdown();

  ServerState state() const;
  /// Load-balancer probe: true while the server is accepting and every
  /// worker is up (state == kServing).
  bool healthy() const { return state() == ServerState::kServing; }

  struct Stats {
    uint64_t requests = 0;  ///< responses completed
    uint64_t batches = 0;   ///< run() calls (requests/batches = mean batch)
    uint64_t rejected = 0;  ///< kUnavailable: refused while not serving
    uint64_t shed = 0;      ///< kOverloaded: queue was at max_queue
    uint64_t deadline_expired = 0;  ///< kDeadlineExceeded: never ran
    uint64_t degraded_batches = 0;  ///< batches shrunk by pressure policy
    int64_t queued = 0;    ///< gauge: requests waiting in the FIFO now
    int64_t inflight = 0;  ///< gauge: taken, response not yet signalled
    /// Per-worker thread-local arena capacity after the last batch —
    /// constant once warm iff steady-state serving allocates nothing.
    std::vector<size_t> arena_capacity;
  };
  Stats stats() const;

  int64_t max_batch() const { return max_batch_; }

 private:
  struct Request {
    const float* in = nullptr;
    float* out = nullptr;
    int64_t deadline_ns = 0;  ///< absolute steady-clock expiry; 0 = none
    int64_t budget_ns = 0;    ///< original relative budget
    Status status;
    bool done = false;
    Request* next = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };

  void worker_loop(int worker);
  void complete(Request* req, StatusCode code);

  const CompiledModel& model_;
  int64_t max_batch_;
  int64_t max_queue_;
  size_t memory_budget_;

  /// Serialises concurrent shutdown() calls (join is not).
  std::mutex shutdown_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;  // drain(): queue + in-flight empty
  Request* head_ = nullptr;  // FIFO: submission order is service order
  Request* tail_ = nullptr;
  int64_t queued_ = 0;    // requests currently in the FIFO
  int64_t inflight_ = 0;  // taken from the FIFO, response not yet signalled
  int idle_ = 0;          // workers blocked on cv_
  int started_ = 0;       // workers that have entered their loop
  bool stopping_ = false;
  ServerState state_ = ServerState::kStarting;
  uint64_t requests_ = 0;
  uint64_t batches_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t deadline_expired_ = 0;
  uint64_t degraded_batches_ = 0;
  std::vector<size_t> arena_capacity_;

  // Dedicated request threads (justified in server.cpp's ctor, where
  // they are spawned): workers block on cv_, which the fixed-task
  // ThreadPool cannot express, and never dispatch kernel work.
  std::vector<std::thread> workers_;  // apt-lint: allow(thread)
};

}  // namespace apt::serve
