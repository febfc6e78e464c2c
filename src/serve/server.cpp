#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "base/arena.hpp"
#include "base/check.hpp"
#include "base/fault.hpp"

namespace apt::serve {
namespace {

/// Steady-clock nanoseconds for deadline admission/expiry. Deadlines
/// decide only whether a request is refused or expired unrun — batch
/// composition of *accepted* work stays demand-driven and responses
/// stay bit-identical — so this clock read is overload policy, not
/// compute (the determinism contract of DESIGN.md §15 is untouched).
int64_t steady_now_ns() {
  // apt-lint: allow(clock) — deadline policy input, never batch math
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

}  // namespace

const char* server_state_name(ServerState s) {
  switch (s) {
    case ServerState::kStarting:
      return "starting";
    case ServerState::kServing:
      return "serving";
    case ServerState::kDraining:
      return "draining";
    case ServerState::kStopped:
      return "stopped";
  }
  return "?";
}

Server::Server(const CompiledModel& model, const ServerOptions& opts)
    : model_(model),
      max_queue_(opts.max_queue),
      memory_budget_(opts.memory_budget_bytes) {
  APT_CHECK(opts.workers >= 1) << "server needs at least one worker";
  APT_CHECK(opts.max_queue >= 0) << "max_queue must be >= 0";
  max_batch_ = opts.max_batch > 0
                   ? std::min<int64_t>(opts.max_batch, model.max_batch())
                   : model.max_batch();
  arena_capacity_.assign(static_cast<size_t>(opts.workers), 0);
  workers_.reserve(static_cast<size_t>(opts.workers));
  // Dedicated request threads, like the DataLoader's prefetch thread:
  // workers block on the request queue's condition variable, which the
  // ThreadPool's fixed task queue cannot express — and each worker runs
  // its batches under an InlineScope anyway, so no kernel work is ever
  // dispatched from here.
  for (int w = 0; w < opts.workers; ++w)
    workers_.emplace_back(  // apt-lint: allow(thread)
        [this, w] { worker_loop(w); });
}

Server::~Server() { shutdown(); }

bool Server::infer(const float* in, float* out) {
  return infer(in, out, InferOptions{}).ok();
}

Status Server::infer(const float* in, float* out, const InferOptions& opts) {
  Request req;
  req.in = in;
  req.out = out;
  if (opts.deadline_ns > 0) {
    req.budget_ns = opts.deadline_ns;
    req.deadline_ns = steady_now_ns() + opts.deadline_ns;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == ServerState::kDraining || state_ == ServerState::kStopped ||
        stopping_) {
      ++rejected_;
      return {StatusCode::kUnavailable,
              std::string("server is ") + server_state_name(state_)};
    }
    if (max_queue_ > 0 && queued_ >= max_queue_) {
      ++shed_;
      return {StatusCode::kOverloaded,
              "queue at max_queue=" + std::to_string(max_queue_)};
    }
    if (tail_ == nullptr) {
      head_ = tail_ = &req;
    } else {
      tail_->next = &req;
      tail_ = &req;
    }
    ++queued_;
  }
  cv_.notify_one();
  std::unique_lock<std::mutex> lock(req.mu);
  req.cv.wait(lock, [&req] { return req.done; });
  return req.status;
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ == ServerState::kStarting || state_ == ServerState::kServing)
    state_ = ServerState::kDraining;
  drained_cv_.wait(lock, [this] { return queued_ == 0 && inflight_ == 0; });
}

void Server::shutdown() {
  std::lock_guard<std::mutex> slock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_)  // apt-lint: allow(thread) — join only
    if (t.joinable()) t.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  state_ = ServerState::kStopped;
}

ServerState Server::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.requests = requests_;
  s.batches = batches_;
  s.rejected = rejected_;
  s.shed = shed_;
  s.deadline_expired = deadline_expired_;
  s.degraded_batches = degraded_batches_;
  s.queued = queued_;
  s.inflight = inflight_;
  s.arena_capacity = arena_capacity_;
  return s;
}

void Server::complete(Request* req, StatusCode code) {
  std::lock_guard<std::mutex> lock(req->mu);
  if (code != StatusCode::kOk)
    req->status = {code, "request expired before a worker reached it"};
  req->done = true;
  // Notify while holding req->mu: `req` lives on the caller's stack, and
  // the caller can only observe done (and destroy the Request, its
  // condition variable included) once this lock is released, so the
  // unlock is the last touch.
  req->cv.notify_one();
}

void Server::worker_loop(int worker) {
  InferenceContext ctx;
  ctx.bind(model_);
  const int64_t in_elems = model_.in_elems();
  const int64_t out_elems = model_.out_elems();
  std::vector<float> batch_in(static_cast<size_t>(max_batch_ * in_elems));
  std::vector<float> batch_out(static_cast<size_t>(max_batch_ * out_elems));
  std::vector<Request*> taken(static_cast<size_t>(max_batch_));
  std::vector<Request*> expired(static_cast<size_t>(max_batch_));

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++started_ == static_cast<int>(arena_capacity_.size()) &&
        state_ == ServerState::kStarting)
      state_ = ServerState::kServing;
  }

  while (true) {
    int64_t count = 0;
    int64_t n_expired = 0;
    bool degraded = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return head_ != nullptr || stopping_; });
      --idle_;
      // Shutdown drains: keep serving while requests remain, exit only
      // on an empty queue.
      if (head_ == nullptr && stopping_) return;

      // One clock read per wake, and only when a deadline needs it.
      int64_t now = -1;
      auto now_ns = [&now] {
        if (now < 0) now = steady_now_ns();
        return now;
      };

      // Graceful degradation: halve the cap under memory pressure (this
      // worker's arena past the budget) or deadline pressure (the head
      // request burned more than half its budget waiting) — smaller
      // batches finish sooner and allocate less, and responses stay
      // bit-identical regardless of the cap.
      int64_t cap = max_batch_;
      const int64_t degraded_cap = std::max<int64_t>(1, max_batch_ / 2);
      if (memory_budget_ > 0 &&
          arena_capacity_[static_cast<size_t>(worker)] > memory_budget_)
        cap = degraded_cap;
      if (head_ != nullptr && head_->deadline_ns > 0 &&
          head_->deadline_ns - now_ns() < head_->budget_ns / 2)
        cap = degraded_cap;

      // Fair share of the queue: ceil(queued / available workers),
      // capped at max_batch. Greedily draining everything would
      // serialise a shallow queue behind this worker while idle
      // siblings spin down; splitting keeps them all busy, and under
      // real load (queued >> workers) the share reaches max_batch and
      // batches stay full.
      const int64_t share = (queued_ + idle_) / (idle_ + 1);
      const int64_t fair = std::max<int64_t>(int64_t{1}, share);
      const int64_t want = std::min(cap, fair);
      // Expired requests are completed unrun (kDeadlineExceeded), at
      // most max_batch per wake so a deeply expired queue cannot pin
      // this worker inside the lock; leftovers go to the next wake.
      while (head_ != nullptr && count < want &&
             n_expired < static_cast<int64_t>(expired.size())) {
        Request* r = head_;
        head_ = r->next;
        --queued_;
        if (r->deadline_ns > 0 && now_ns() >= r->deadline_ns)
          expired[static_cast<size_t>(n_expired++)] = r;
        else
          taken[static_cast<size_t>(count++)] = r;
      }
      if (head_ == nullptr) tail_ = nullptr;
      inflight_ += count + n_expired;
      degraded = cap < max_batch_ && count == cap &&
                 std::min(max_batch_, fair) > cap;
    }
    // More work may remain for a sibling worker.
    cv_.notify_one();

    if (n_expired > 0) {
      // Book-keep before signalling: once a caller's infer() returns,
      // its expiry is visible in stats().
      {
        std::lock_guard<std::mutex> lock(mu_);
        deadline_expired_ += static_cast<uint64_t>(n_expired);
      }
      for (int64_t i = 0; i < n_expired; ++i)
        complete(expired[static_cast<size_t>(i)],
                 StatusCode::kDeadlineExceeded);
    }

    if (count > 0) {
      // Chaos-tier hold point: stalls this worker with its batch taken
      // but unserved, so tests can deterministically build queue depth
      // and observe shedding / expiry (base/fault.hpp).
      APT_FAULT_STALL("serve.worker.stall");
      for (int64_t i = 0; i < count; ++i)
        std::memcpy(batch_in.data() + i * in_elems,
                    taken[static_cast<size_t>(i)]->in,
                    static_cast<size_t>(in_elems) * sizeof(float));
      model_.run(batch_in.data(), count, batch_out.data(), ctx);
      // Book-keep before signalling, as above.
      {
        std::lock_guard<std::mutex> lock(mu_);
        requests_ += static_cast<uint64_t>(count);
        ++batches_;
        if (degraded) ++degraded_batches_;
        arena_capacity_[static_cast<size_t>(worker)] =
            ScratchArena::thread_local_arena().capacity();
      }
      for (int64_t i = 0; i < count; ++i) {
        Request* req = taken[static_cast<size_t>(i)];
        std::memcpy(req->out, batch_out.data() + i * out_elems,
                    static_cast<size_t>(out_elems) * sizeof(float));
        complete(req, StatusCode::kOk);
      }
    }

    // Quiescence edge for drain(): nothing queued, nothing in flight.
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_ -= count + n_expired;
      if (queued_ == 0 && inflight_ == 0) drained_cv_.notify_all();
    }
  }
}

}  // namespace apt::serve
