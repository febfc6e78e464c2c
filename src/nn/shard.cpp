#include "nn/shard.hpp"

#include <algorithm>

#include "base/thread_pool.hpp"
#include "nn/layer.hpp"

namespace apt::nn {

void shard_parallel(int shards, const std::function<void(int)>& fn) {
  APT_CHECK(shards >= 1 && shards <= shard_count())
      << "shard_parallel over " << shards << " shards in a "
      << shard_count() << "-shard session";
  if (shards == 1) {
    // An unsharded pass: the calling thread keeps its own ShardScope, so
    // a serving thread's eval-scratch slot (DESIGN.md §15) holds through
    // every layer.
    fn(0);
    return;
  }
  const int cap = shard_detail::g_worker_cap.load(std::memory_order_relaxed);
  if (cap <= 1) {
    // Serial reference path: same shards, same order, no pool involved.
    for (int s = 0; s < shards; ++s) {
      ShardScope scope(s);
      fn(s);
    }
    return;
  }
  ThreadPool::global().parallel_for_chunked(
      0, shards, std::min<int64_t>(cap, shards),
      [&](int64_t, int64_t b, int64_t e) {
        // The concurrent shard chunks already occupy the pool; nested
        // kernel dispatch from inside them would only add queue churn
        // and wake latency at every layer boundary. Run their inner
        // parallel_fors inline (scheduling only — results are identical
        // by the determinism contract).
        ThreadPool::InlineScope inline_scope;
        for (int64_t s = b; s < e; ++s) {
          ShardScope scope(static_cast<int>(s));
          fn(static_cast<int>(s));
        }
      });
}

std::vector<Tensor> Layer::forward_sharded(const std::vector<Tensor>& xs,
                                           bool training) {
  std::vector<Tensor> ys(xs.size());
  shard_parallel(static_cast<int>(xs.size()), [&](int s) {
    const auto su = static_cast<size_t>(s);
    ys[su] = forward(xs[su], training);
  });
  return ys;
}

Tensor Layer::forward_flow(const Tensor& x, const QuantizedActivation* qx,
                           bool training, bool /*want_codes*/,
                           QuantizedActivation* qy) {
  if (qy != nullptr) qy->reset();
  if (qx != nullptr && qx->valid()) return forward(qx->dequantize(), training);
  return forward(x, training);
}

std::vector<Tensor> Layer::forward_flow_sharded(
    const std::vector<Tensor>& xs, const std::vector<QuantizedActivation>* qxs,
    bool training, bool /*want_codes*/,
    std::vector<QuantizedActivation>* qys) {
  if (qys != nullptr)
    for (auto& q : *qys) q.reset();
  if (qxs != nullptr) {
    bool any = false;
    for (const auto& q : *qxs) any |= q.valid();
    if (any) {
      // Materialise pending codes, then take the regular sharded path so
      // cross-shard overrides (BatchNorm statistics) keep working.
      std::vector<Tensor> mats(xs.size());
      for (size_t s = 0; s < xs.size(); ++s)
        mats[s] = (*qxs)[s].valid() ? (*qxs)[s].dequantize() : xs[s];
      return forward_sharded(mats, training);
    }
  }
  return forward_sharded(xs, training);
}

std::vector<Tensor> Layer::flow_shard_each(
    const std::vector<Tensor>& xs, const std::vector<QuantizedActivation>* qxs,
    bool training, bool want_codes, std::vector<QuantizedActivation>* qys) {
  std::vector<Tensor> ys(xs.size());
  shard_parallel(static_cast<int>(xs.size()), [&](int s) {
    const auto su = static_cast<size_t>(s);
    ys[su] = forward_flow(xs[su], qxs ? &(*qxs)[su] : nullptr, training,
                          want_codes, qys ? &(*qys)[su] : nullptr);
  });
  return ys;
}

std::vector<Tensor> Layer::backward_sharded(
    const std::vector<Tensor>& grads_out) {
  std::vector<Tensor> dxs(grads_out.size());
  shard_parallel(static_cast<int>(grads_out.size()), [&](int s) {
    const auto su = static_cast<size_t>(s);
    dxs[su] = backward(grads_out[su]);
  });
  return dxs;
}

}  // namespace apt::nn
