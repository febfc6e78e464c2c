// Server overload protection and lifecycle (DESIGN.md §16): typed
// admission statuses, bounded-queue shedding, deadline expiry, graceful
// batch degradation, drain/shutdown semantics, and the stats counters
// that report all of it. The overload scenarios are made deterministic
// by parking workers on the serve.worker.stall fault site while the
// queue is staged, then observing exact outcomes — no wall-clock races.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/fault.hpp"
#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "models/zoo.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"

namespace apt::serve {
namespace {

constexpr int64_t kIn = 4, kClasses = 3;

CompiledModel make_compiled(uint64_t seed, int64_t max_batch = 8) {
  Rng rng(seed);
  auto net = models::make_mlp(kIn, {8}, kClasses, rng);
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) {
      core::GridOptions go;
      go.bits = 6;
      l->weight().rep =
          std::make_shared<core::GridRepresentation>(l->weight(), go);
    }
  }
  Tensor calib(Shape{8, kIn});
  rng.fill_normal(calib, 0, 1);
  net->forward(calib, /*training=*/true);
  return CompiledModel::compile(*net, Shape{kIn}, {.max_batch = max_batch});
}

struct Fixture {
  explicit Fixture(uint64_t seed, int64_t max_batch = 8)
      : model(make_compiled(seed, max_batch)),
        samples(Shape{kPool, kIn}),
        reference(kPool * kClasses) {
    Rng rng(seed + 100);
    rng.fill_normal(samples, 0, 1);
    InferenceContext ctx;
    for (int64_t i = 0; i < kPool; ++i)
      model.run(samples.data() + i * kIn, 1,
                reference.data() + i * kClasses, ctx);
  }
  const float* in(int64_t s) const { return samples.data() + s * kIn; }
  bool matches(int64_t s, const std::vector<float>& out) const {
    return std::memcmp(out.data(), reference.data() + s * kClasses,
                       sizeof(float) * kClasses) == 0;
  }
  static constexpr int64_t kPool = 4;
  CompiledModel model;
  Tensor samples;
  std::vector<float> reference;
};

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class ServeOverloadTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

#define REQUIRE_FAULT_INJECTION()                                   \
  do {                                                              \
    if (!fault::kCompiledIn)                                        \
      GTEST_SKIP() << "built with APT_FAULT_INJECTION=OFF";         \
  } while (0)

TEST_F(ServeOverloadTest, LifecycleStartingServingDrainingStopped) {
  Fixture fx(1);
  Server server(fx.model, {.workers = 2});
  // kStarting is transient (workers come up fast); kServing must be
  // reached, and only then is the health probe green.
  ASSERT_TRUE(wait_until([&] { return server.healthy(); }));
  EXPECT_EQ(server.state(), ServerState::kServing);
  EXPECT_STREQ(server_state_name(server.state()), "serving");

  std::vector<float> out(kClasses);
  EXPECT_TRUE(server.infer(fx.in(0), out.data(), {}).ok());
  EXPECT_TRUE(fx.matches(0, out));

  server.drain();
  EXPECT_EQ(server.state(), ServerState::kDraining);
  EXPECT_FALSE(server.healthy());
  // Draining: refused with a typed status, `out` untouched.
  std::vector<float> untouched(kClasses, -123.0f);
  const Status st = server.infer(fx.in(1), untouched.data(), {});
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(untouched[0], -123.0f);
  EXPECT_FALSE(server.infer(fx.in(1), untouched.data()));  // bool form

  server.shutdown();
  EXPECT_EQ(server.state(), ServerState::kStopped);
  EXPECT_STREQ(server_state_name(server.state()), "stopped");
  EXPECT_EQ(server.infer(fx.in(1), untouched.data(), {}).code(),
            StatusCode::kUnavailable);

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.inflight, 0);
}

TEST_F(ServeOverloadTest, DrainFlushesAllAcceptedWork) {
  Fixture fx(2);
  Server server(fx.model, {.workers = 2});
  constexpr int kClients = 4, kPerClient = 8;
  std::vector<int> bad(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> out(kClasses);
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t s = (c + r) % Fixture::kPool;
        const Status st = server.infer(fx.in(s), out.data(), {});
        // Accepted responses must be exact; refusals (the drain racing
        // a late submit) must be typed.
        if (st.ok() ? !fx.matches(s, out)
                    : st.code() != StatusCode::kUnavailable)
          ++bad[c];
      }
    });
  }
  server.drain();  // races the clients on purpose
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(bad[c], 0) << "client " << c;
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests + stats.rejected,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.inflight, 0);
}

TEST_F(ServeOverloadTest, BoundedQueueShedsWithTypedOverloaded) {
  REQUIRE_FAULT_INJECTION();
  Fixture fx(3);
  // Park the single worker mid-batch for every batch it takes; the
  // queue then fills deterministically behind it.
  fault::ScopedFault sf("serve.worker.stall=1+:400");
  Server server(fx.model, {.workers = 1, .max_queue = 1});
  ASSERT_TRUE(wait_until([&] { return server.healthy(); }));

  // A: taken by the worker, which then stalls inside the batch.
  std::vector<float> out_a(kClasses);
  std::thread ta([&] {
    EXPECT_TRUE(server.infer(fx.in(0), out_a.data(), {}).ok());
  });
  ASSERT_TRUE(
      wait_until([&] { return fault::fired("serve.worker.stall") >= 1; }));

  // B: queued (the worker is stalled), filling max_queue.
  std::vector<float> out_b(kClasses);
  std::thread tb([&] {
    EXPECT_TRUE(server.infer(fx.in(1), out_b.data(), {}).ok());
  });
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 1; }));

  // C: the queue is at max_queue — shed immediately, without blocking.
  std::vector<float> out_c(kClasses, -1.0f);
  const Status shed = server.infer(fx.in(2), out_c.data(), {});
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  EXPECT_EQ(out_c[0], -1.0f);
  // The bool form is shed the same way: false, `out` untouched.
  EXPECT_FALSE(server.infer(fx.in(2), out_c.data()));
  EXPECT_EQ(out_c[0], -1.0f);

  fault::disarm_all();  // stop stalling future batches
  ta.join();
  tb.join();
  // The accepted requests survived the overload bit-identically.
  EXPECT_TRUE(fx.matches(0, out_a));
  EXPECT_TRUE(fx.matches(1, out_b));
  server.drain();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeOverloadTest, ExpiredRequestCompletesUnrunWithTypedStatus) {
  REQUIRE_FAULT_INJECTION();
  Fixture fx(4);
  fault::ScopedFault sf("serve.worker.stall=1+:300");
  Server server(fx.model, {.workers = 1});
  ASSERT_TRUE(wait_until([&] { return server.healthy(); }));

  // A occupies the worker (stalled mid-batch for 300 ms).
  std::vector<float> out_a(kClasses);
  std::thread ta([&] {
    EXPECT_TRUE(server.infer(fx.in(0), out_a.data(), {}).ok());
  });
  ASSERT_TRUE(
      wait_until([&] { return fault::fired("serve.worker.stall") >= 1; }));

  // B has a 1 ms budget and a worker that is busy for ~300 ms: by the
  // time the worker pops it, it has expired — completed unrun.
  std::vector<float> out_b(kClasses, -7.0f);
  InferOptions opts;
  opts.deadline_ns = 1'000'000;  // 1 ms
  const Status st = server.infer(fx.in(1), out_b.data(), opts);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out_b[0], -7.0f) << "an expired request must never run";

  fault::disarm_all();
  ta.join();
  EXPECT_TRUE(fx.matches(0, out_a));
  server.drain();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.deadline_expired, 1u);
}

TEST_F(ServeOverloadTest, GenerousDeadlineRunsNormally) {
  Fixture fx(5);
  Server server(fx.model, {.workers = 1});
  std::vector<float> out(kClasses);
  InferOptions opts;
  opts.deadline_ns = 60'000'000'000;  // 60 s: never expires in-test
  const Status st = server.infer(fx.in(0), out.data(), opts);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_TRUE(fx.matches(0, out));
  EXPECT_EQ(server.stats().deadline_expired, 0u);
}

TEST_F(ServeOverloadTest, MemoryPressureHalvesTheBatchAndCountsIt) {
  REQUIRE_FAULT_INJECTION();
  Fixture fx(6, /*max_batch=*/4);
  // A 1-byte budget is exceeded as soon as the worker's arena has any
  // capacity — i.e. after its first batch — so every later full batch
  // runs degraded (cap 2 instead of 4).
  fault::ScopedFault sf("serve.worker.stall=1+:300");
  Server server(fx.model,
                {.workers = 1, .max_batch = 4, .memory_budget_bytes = 1});
  ASSERT_TRUE(wait_until([&] { return server.healthy(); }));

  // Warm-up request: arena capacity becomes non-zero (and > budget).
  std::vector<float> warm(kClasses);
  std::thread tw([&] {
    EXPECT_TRUE(server.infer(fx.in(0), warm.data(), {}).ok());
  });
  ASSERT_TRUE(
      wait_until([&] { return fault::fired("serve.worker.stall") >= 1; }));

  // Stage 3 requests behind the stalled worker. On its next wake the
  // degraded cap (2) binds: it takes 2 of the 3, counts the batch as
  // degraded, and leaves the third for the wake after.
  std::vector<std::thread> clients;
  std::vector<std::vector<float>> outs(3, std::vector<float>(kClasses));
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      EXPECT_TRUE(
          server.infer(fx.in(1 + i), outs[static_cast<size_t>(i)].data(), {})
              .ok());
    });
  }
  ASSERT_TRUE(wait_until([&] { return server.stats().queued == 3; }));
  fault::disarm_all();  // release the worker; batches stay degraded

  tw.join();
  for (auto& t : clients) t.join();
  EXPECT_TRUE(fx.matches(0, warm));
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(fx.matches(1 + i, outs[static_cast<size_t>(i)]))
        << "degraded batches must not change response bits";
  server.drain();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.degraded_batches, 1u);
  ASSERT_EQ(stats.arena_capacity.size(), 1u);
  EXPECT_GT(stats.arena_capacity[0], 1u);
}

}  // namespace
}  // namespace apt::serve
