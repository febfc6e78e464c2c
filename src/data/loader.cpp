#include "data/loader.hpp"

#include <cstring>
#include <exception>
#include <future>
#include <utility>

#include "base/fault.hpp"

namespace apt::data {

DataLoader::DataLoader(Tensor inputs, std::vector<int32_t> labels,
                       int64_t batch_size, bool shuffle, uint64_t seed,
                       std::optional<AugmentConfig> augment)
    : inputs_(std::move(inputs)),
      labels_(std::move(labels)),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed),
      augment_(std::move(augment)) {
  APT_CHECK(inputs_.dim(0) == static_cast<int64_t>(labels_.size()))
      << "inputs/labels size mismatch";
  APT_CHECK(batch_size_ > 0) << "batch size must be positive";
  APT_CHECK(!augment_ || inputs_.shape().rank() == 4)
      << "augmentation requires NCHW inputs";
}

int64_t DataLoader::batches_per_epoch() const {
  return (size() + batch_size_ - 1) / batch_size_;
}

Batch DataLoader::gather(const std::vector<int64_t>& order, int64_t begin,
                         int64_t end) {
  // Chaos-tier stand-in for a dataset whose storage fails mid-epoch
  // (base/fault.hpp); proves producer-side throws reach the consumer.
  if (APT_FAULT_POINT("data.gather"))
    throw CheckError("data.gather: injected batch-assembly failure");
  const int64_t b = end - begin;
  std::vector<int64_t> dims = inputs_.shape().dims();
  dims[0] = b;
  Batch batch;
  batch.inputs = Tensor::uninitialized(Shape(dims));  // every row copied
  batch.labels.resize(static_cast<size_t>(b));
  const int64_t row = inputs_.numel() / inputs_.dim(0);

  for (int64_t i = 0; i < b; ++i) {
    const int64_t src = order[static_cast<size_t>(begin + i)];
    batch.labels[static_cast<size_t>(i)] = labels_[static_cast<size_t>(src)];
    if (augment_) {
      augment_into(inputs_, src, batch.inputs, i, *augment_, rng_);
    } else {
      std::memcpy(batch.inputs.data() + i * row, inputs_.data() + src * row,
                  sizeof(float) * static_cast<size_t>(row));
    }
  }
  return batch;
}

void DataLoader::for_each_batch(
    const std::function<void(int64_t, const Batch&)>& fn) {
  std::vector<int64_t> order = rng_.permutation(size());
  if (!shuffle_) {
    for (int64_t i = 0; i < size(); ++i) order[static_cast<size_t>(i)] = i;
  }
  if (!prefetch_) {
    int64_t index = 0;
    for (int64_t begin = 0; begin < size(); begin += batch_size_, ++index) {
      const int64_t end = std::min<int64_t>(size(), begin + batch_size_);
      fn(index, gather(order, begin, end));
    }
    return;
  }

  // Double-buffered prefetch: while fn consumes batch k, batch k+1 is
  // assembled on a background task. Gathers never overlap each other —
  // the next one launches only after the previous was retrieved — so
  // rng_ is consumed in exactly the synchronous order and the batch
  // sequence is deterministic regardless of timing. std::async spawns a
  // thread per batch; that costs tens of microseconds against
  // millisecond-scale batch assembly and buys clean exception
  // propagation through the future, so a persistent worker isn't worth
  // its lifecycle complexity here.
  struct Prefetched {
    Batch batch;
    std::exception_ptr error;
  };
  auto launch = [&](int64_t begin) {
    const int64_t end = std::min<int64_t>(size(), begin + batch_size_);
    // Determinism is upheld without the pool: gathers never overlap (the
    // next launches only after the previous get()), the future's
    // get/launch pair is the synchronisation edge for rng_ and order,
    // and routing this through ThreadPool would deadlock-prone couple
    // batch assembly to kernel dispatch.
    return std::async(std::launch::async,  // apt-lint: allow(thread)
                      [this, &order, begin, end]() -> Prefetched {
                        // The task must not exit by exception: a throw
                        // would surface only at get() — or vanish into
                        // the future's blocking destructor when fn threw
                        // and the consumer is unwinding. Capture it and
                        // rethrow on the consumer thread instead.
                        try {
                          return {gather(order, begin, end), nullptr};
                        } catch (...) {
                          return {{}, std::current_exception()};
                        }
                      });
  };
  // `next` is declared after `order` on purpose: if fn throws, unwinding
  // destroys `next` first, and the async destructor waits out the
  // in-flight gather before the order/this references it holds die.
  std::future<Prefetched> next = launch(0);
  int64_t index = 0;
  for (int64_t begin = 0; begin < size(); begin += batch_size_, ++index) {
    Prefetched got = next.get();
    // Producer-side failure is rethrown here, at the batch boundary, on
    // the consumer thread — never from a destructor, never terminate().
    if (got.error) std::rethrow_exception(got.error);
    if (begin + batch_size_ < size()) next = launch(begin + batch_size_);
    fn(index, got.batch);
  }
}

}  // namespace apt::data
