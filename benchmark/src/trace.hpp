// Spans recorded from outside the library, at the public boundary of each
// module: a decorator around the model root (src/nn), TrainHook probes
// registered on either side of the AptController (src/train, src/core),
// and the benchmark's own calls into src/data, src/serve and src/io.
//
// Spans live in a preallocated per-thread log and are written out once,
// after the measurement. Nothing here touches a parameter, an activation
// or an RNG stream, so a traced run's History is bit-identical to an
// untraced one (main.cpp checks this on every traced run).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "train/trainer.hpp"

namespace bench {

namespace nn = apt::nn;
namespace train = apt::train;
using apt::Tensor;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t {
  kStep,         // one training step: forward entry to the next forward
  kForward,      // root forward_sharded
  kLoss,         // forward return -> backward entry
  kBackward,     // root backward_sharded
  kReduce,       // backward return -> first on_gradients hook
  kController,   // between the probes around AptController::on_gradients
  kUpdate,       // last hook -> next forward (SGD, cost, batch wait, split)
  kEval,         // the epoch's evaluation pass
  kEvalForward,  // root forward(training=false)
  kEpochEnd,     // on_epoch_end hooks -> next epoch's first forward
  kEpochHooks,   // between the probes around AptController::on_epoch_end
  kDataAssemble, // one epoch of a fresh DataLoader (key = batches)
  kCalibrate,    // serving set-up: training-mode calibration forwards
  kCompile,      // CompiledModel::compile
  kArtifactSave, // CompiledModel::try_save
  kArtifactLoad, // CompiledModel::try_load
  kServerStart,  // Server construction and warm-up of every worker
  kRequest,      // one Server::infer call, client side
  kRunB1,        // one serial batch-1 CompiledModel::run
};

inline constexpr const char* kSpanNames[] = {
    "step",          "nn.forward",       "train.loss",
    "nn.backward",   "train.reduce",     "core.controller",
    "train.update",  "eval",             "nn.eval_forward",
    "epoch_end",     "core.epoch_hooks", "data.assemble",
    "serve.calibrate", "serve.compile",  "io.artifact_save",
    "io.artifact_load", "serve.start",   "serve.request",
    "serve.run_b1",
};

struct Span {
  SpanName name;
  uint32_t parent;  // 1-based id within the same log; 0 = none
  int64_t key;      // step, epoch or request index
  int64_t start_ns;
  int64_t end_ns;
};

/// Fixed-capacity span log owned by one thread. A span opened past the
/// capacity is dropped and counted rather than grow the buffer while a
/// measurement runs.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

  /// Returns the span's 1-based id, or 0 when it was dropped.
  uint32_t open(SpanName name, int64_t key, uint32_t parent, int64_t t) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({name, parent, key, t, t});
    return static_cast<uint32_t>(spans_.size());
  }
  void close(uint32_t id, int64_t t) {
    if (id != 0) spans_[id - 1].end_ns = t;
  }
  /// A closed span in one call (the caller timed it).
  void add(SpanName name, int64_t key, int64_t start, int64_t end) {
    close(open(name, key, 0, start), end);
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes every log as one JSON document. Span ids are renumbered to be
/// unique across logs and times are relative to the measured window,
/// which `lanes` parallel clients (1 for training) should cover.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        int64_t window_start, int64_t window_end, int lanes) {
  const int64_t t0 = window_start;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  std::fprintf(f, "{\"schema\": \"apt-e2e-spans/1\", \"names\": [");
  for (size_t i = 0; i < std::size(kSpanNames); ++i)
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", kSpanNames[i]);
  std::fprintf(f,
               "],\n\"window_ns\": [%lld, %lld], \"lanes\": %d, "
               "\"dropped\": %llu,\n\"fields\": [\"name\", \"id\", "
               "\"parent\", \"key\", \"start_ns\", \"end_ns\"],\n"
               "\"spans\": [",
               static_cast<long long>(window_start - t0),
               static_cast<long long>(window_end - t0), lanes,
               static_cast<unsigned long long>(dropped));
  uint32_t offset = 0;
  bool first = true;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\n[%u, %u, %u, %lld, %lld, %lld]", first ? "" : ",",
                   static_cast<unsigned>(s.name),
                   offset + static_cast<uint32_t>(i) + 1,
                   s.parent ? offset + s.parent : 0,
                   static_cast<long long>(s.key),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
      first = false;
    }
    offset += static_cast<uint32_t>(spans.size());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

/// Follows one training run through the boundaries the decorator and the
/// probes report. A step span stays open from one forward to the next, and
/// its phases tile it: forward, loss, backward, reduce, controller, update.
/// Everything runs on the Trainer's coordinator thread.
class StepTracer {
 public:
  explicit StepTracer(SpanLog& log) : log_(log) {}

  /// Conv2d/Linear leaves whose int8 telemetry is sampled once per step.
  void watch(nn::Layer& model) {
    for (nn::Layer* leaf : nn::leaves_of(model)) {
      if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) convs_.push_back(c);
      if (auto* l = dynamic_cast<nn::Linear*>(leaf)) linears_.push_back(l);
    }
  }

  void forward_begin() {
    const int64_t t = now_ns();
    end_step(t);
    close_epoch_end(t);
    step_ = log_.open(SpanName::kStep, steps_, 0, t);
    phase_ = log_.open(SpanName::kForward, steps_, step_, t);
  }
  void forward_end() { next_phase(SpanName::kLoss); }
  void backward_begin() { next_phase(SpanName::kBackward); }
  void backward_end() { next_phase(SpanName::kReduce); }

  /// First on_gradients hook: the merged gradients exist; the controller
  /// runs next. Telemetry sampling sits between two spans, so it shows as
  /// the step's self time (tracing overhead), not as a phase.
  void before_hooks() {
    log_.close(phase_, now_ns());
    sample_telemetry();
    phase_ = log_.open(SpanName::kController, steps_, step_, now_ns());
  }
  void after_hooks() { next_phase(SpanName::kUpdate); }

  void eval_begin() {
    const int64_t t = now_ns();
    end_step(t);
    if (eval_ == 0) eval_ = log_.open(SpanName::kEval, epochs_, 0, t);
    phase_ = log_.open(SpanName::kEvalForward, epochs_, eval_, t);
  }
  void eval_end() { log_.close(phase_, now_ns()); phase_ = 0; }

  void epoch_end_begin() {
    const int64_t t = now_ns();
    end_step(t);
    log_.close(eval_, t);
    eval_ = 0;
    epoch_end_ = log_.open(SpanName::kEpochEnd, epochs_, 0, t);
    phase_ = log_.open(SpanName::kEpochHooks, epochs_, epoch_end_, t);
  }
  void epoch_end_end() {
    log_.close(phase_, now_ns());
    phase_ = 0;
    ++epochs_;
  }

  /// Closes whatever is still open when Trainer::run returns.
  void finish() {
    const int64_t t = now_ns();
    end_step(t);
    close_epoch_end(t);
  }

  int64_t layer_steps() const { return layer_steps_; }
  int64_t int8_forwards() const { return int8_fwd_; }
  int64_t int8_backwards() const { return int8_bwd_; }

 private:
  void next_phase(SpanName name) {
    const int64_t t = now_ns();
    log_.close(phase_, t);
    phase_ = log_.open(name, steps_, step_, t);
  }
  void end_step(int64_t t) {
    if (step_ == 0) return;
    log_.close(phase_, t);
    log_.close(step_, t);
    step_ = phase_ = 0;
    ++steps_;
  }
  void close_epoch_end(int64_t t) {
    log_.close(epoch_end_, t);
    epoch_end_ = 0;
  }
  void sample_telemetry() {
    for (const nn::Conv2d* c : convs_) {
      int8_fwd_ += c->last_forward_was_int8();
      int8_bwd_ += c->last_backward_was_int8();
    }
    for (const nn::Linear* l : linears_) {
      int8_fwd_ += l->last_forward_was_int8();
      int8_bwd_ += l->last_backward_was_int8();
    }
    layer_steps_ += static_cast<int64_t>(convs_.size() + linears_.size());
  }

  SpanLog& log_;
  std::vector<const nn::Conv2d*> convs_;
  std::vector<const nn::Linear*> linears_;
  uint32_t step_ = 0, phase_ = 0, eval_ = 0, epoch_end_ = 0;
  int64_t steps_ = 0, epochs_ = 0;
  int64_t layer_steps_ = 0, int8_fwd_ = 0, int8_bwd_ = 0;
};

/// Decorator over the model root: forwards every virtual to the wrapped
/// layer and reports the training forward/backward and the evaluation
/// forward to the tracer. The Trainer sees it as the model; its leaves,
/// parameters and numerics are the wrapped model's own.
class TracedModel final : public nn::Layer {
 public:
  TracedModel(nn::Layer& inner, StepTracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  Tensor forward(const Tensor& x, bool training) override {
    if (training) return inner_.forward(x, true);
    tracer_.eval_begin();
    Tensor y = inner_.forward(x, false);
    tracer_.eval_end();
    return y;
  }
  Tensor backward(const Tensor& grad_out) override {
    return inner_.backward(grad_out);
  }
  bool accepts_codes() const override { return inner_.accepts_codes(); }
  bool codes_transparent() const override {
    return inner_.codes_transparent();
  }
  Tensor forward_flow(const Tensor& x, const nn::QuantizedActivation* qx,
                      bool training, bool want_codes,
                      nn::QuantizedActivation* qy) override {
    return inner_.forward_flow(x, qx, training, want_codes, qy);
  }
  std::vector<Tensor> forward_flow_sharded(
      const std::vector<Tensor>& xs,
      const std::vector<nn::QuantizedActivation>* qxs, bool training,
      bool want_codes, std::vector<nn::QuantizedActivation>* qys) override {
    return inner_.forward_flow_sharded(xs, qxs, training, want_codes, qys);
  }
  std::vector<Tensor> forward_sharded(const std::vector<Tensor>& xs,
                                      bool training) override {
    if (!training) return inner_.forward_sharded(xs, false);
    tracer_.forward_begin();
    std::vector<Tensor> ys = inner_.forward_sharded(xs, true);
    tracer_.forward_end();
    return ys;
  }
  std::vector<Tensor> backward_sharded(
      const std::vector<Tensor>& grads_out) override {
    tracer_.backward_begin();
    std::vector<Tensor> gs = inner_.backward_sharded(grads_out);
    tracer_.backward_end();
    return gs;
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  std::string name() const override { return inner_.name(); }
  std::vector<nn::Layer*> children() override { return {&inner_}; }
  int64_t macs_per_sample() const override { return inner_.macs_per_sample(); }
  int64_t out_elems_per_sample() const override {
    return inner_.out_elems_per_sample();
  }

 private:
  nn::Layer& inner_;
  StepTracer& tracer_;
};

/// TrainHook probe. One is registered before the AptController and one
/// after it, so the interval between them is the controller's time.
class Probe final : public train::TrainHook {
 public:
  Probe(StepTracer& tracer, bool before) : tracer_(tracer), before_(before) {}

  void on_gradients(train::Trainer&, int64_t) override {
    if (before_) {
      tracer_.before_hooks();
    } else {
      tracer_.after_hooks();
    }
  }
  void on_epoch_end(train::Trainer&, int) override {
    if (before_) {
      tracer_.epoch_end_begin();
    } else {
      tracer_.epoch_end_end();
    }
  }

 private:
  StepTracer& tracer_;
  bool before_;
};

}  // namespace bench
