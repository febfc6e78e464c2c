// One benchmark workload, one seed, one process.
//
//   apt_e2e --workload train_apt --seed 7 --seconds 20 --trace 0
//           --out run.json [--trace-out spans.json] [--smoke]
//
// A training workload runs its whole schedule once (one Trainer::run); the
// schedule, not --seconds, sets its length. With --trace 1 the process
// instead makes an untraced run of the schedule's first epochs and a
// traced run of the whole schedule, checks that their common epochs are
// bit-identical, and writes the traced run's spans. The serving workload
// drives a Server with closed-loop clients for --seconds (split between an
// untraced and a traced window under --trace 1).
//
// Results go to --out as JSON: raw samples (set-up times, step times,
// latency histograms) and single measurements. run.py computes every
// statistic from them and prints the benchmark's metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/controller.hpp"
#include "core/grid_representation.hpp"
#include "data/loader.hpp"
#include "data/synth_images.hpp"
#include "models/zoo.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/plan.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "train/trainer.hpp"

using namespace apt;
using bench::now_ns;
using bench::SpanName;

namespace {

constexpr int64_t kImageHw = 16;  // training images
// Served images are CIFAR's native 32x32. At 16x16 a request's own run
// (about 100 us) took no longer than waking the threads that hand it over,
// so throughput followed the host's scheduler rather than the program.
constexpr int64_t kServeImageHw = 32;
constexpr int64_t kClasses = 10;
constexpr int64_t kTestImages = 256;   // also the serving request pool
constexpr int64_t kCalibImages = 64;   // serving calibration set
// The serving traffic is assumed, not taken from a trace: more closed-loop
// clients than workers keep requests queued, so workers coalesce them
// into batches and the fair-share dequeue splits the queue. Only the
// workers compute; the clients spend most of their time blocked on a
// reply, so the host's 4 vCPUs are not oversubscribed.
constexpr int kServeClients = 4;
constexpr int kServeWorkers = 2;
constexpr int64_t kRunB1Calls = 2000;
constexpr double kWindowS = 1.0;  // serving throughput window

// ----------------------------------------------------------------- output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

/// A value measured once, reported as it stands.
struct Metric {
  std::string name, unit;
  double value = 0.0;
};

struct Samples {
  std::string name;
  std::vector<double> values;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Check> checks;
  std::string history_hash;
  std::vector<Metric> measured;  // end-to-end values (untraced runs)
  std::vector<Metric> counters;  // per-layer values (traced runs)
  std::vector<Samples> samples;  // raw samples run.py takes statistics of
  /// Serving: per window, the non-empty latency bins [lo_ns, hi_ns, count].
  std::vector<std::vector<std::array<int64_t, 3>>> latency_windows;
};

bool check(RunResult& r, const std::string& name, bool ok,
           const std::string& detail = "") {
  r.checks.push_back({name, ok, detail});
  return ok;
}

/// Peak resident set of this process's own address space (VmHWM). Not
/// getrusage's ru_maxrss: Linux carries that across execve, so a process
/// started from a larger parent (python3 run.py) would read the parent's
/// peak whenever its own is lower.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

/// The host's speed, as the best of `reps` runs of a fixed kernel the
/// benchmark owns: `rounds` rounds of a 64x64x64 fp32 matrix multiply on
/// data that stays in L1, in ms per 32 rounds, so that a shorter probe
/// reads on the same scale. On a shared host a core runs up to 1.6x
/// slower for seconds to minutes while its neighbours are busy; this
/// kernel slows with it, and no change to the library changes its time.
/// run.py scales the benchmark's times by it.
double host_probe_ms(int rounds = 32, int reps = 5) {
  constexpr int kN = 64;
  thread_local std::vector<float> a(kN * kN, 0.5f), b(kN * kN, 0.25f),
      c(kN * kN, 0.0f);
  double best = INFINITY;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t t0 = now_ns();
    for (int r = 0; r < rounds; ++r)
      for (int i = 0; i < kN; ++i)
        for (int k = 0; k < kN; ++k) {
          const float x = a[static_cast<size_t>(i * kN + k)];
          for (int j = 0; j < kN; ++j)
            c[static_cast<size_t>(i * kN + j)] +=
                x * b[static_cast<size_t>(k * kN + j)];
        }
    // The sums must be written before the clock is read.
    asm volatile("" : : "r"(c.data()) : "memory");
    best = std::min(best, static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return best * 32.0 / rounds;
}

/// The host probe on every core at once, averaged: the speed of a host
/// whose threads run anywhere, as the serving workload's do.
double host_probe_all_cores_ms() {
  std::vector<double> ms(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < ms.size(); ++i)
    threads.emplace_back([&ms, i] { ms[i] = host_probe_ms(); });
  for (auto& t : threads) t.join();
  double sum = 0.0;
  for (double m : ms) sum += m;
  return sum / static_cast<double>(ms.size());
}

/// The GEMM backend is chosen through the planner's options, never the
/// environment.
void use_backend(nn::GemmBackend backend) {
  nn::PlanOptions opts;
  opts.backend = backend;
  nn::set_plan_options(opts);
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Every input of a run derives from the one benchmark seed.
struct Seeds {
  uint64_t data, model, shuffle, requests;
  explicit Seeds(uint64_t seed)
      : data(splitmix64(4 * seed)),
        model(splitmix64(4 * seed + 1)),
        shuffle(splitmix64(4 * seed + 2)),
        requests(splitmix64(4 * seed + 3)) {}
};

// --------------------------------------------------------------- training

enum class Precision { kFp32, kGrid8, kApt };

struct TrainSpec {
  const char* name;
  nn::GemmBackend backend;
  Precision precision;
  int64_t batch;
  int epochs;
  double decay_at[2];  // LR x0.1 at these fractions of the epochs
  double target;       // test accuracy every run must reach
};

// The paper's recipe compressed to CPU size: LR 0.1 with two x0.1 decays,
// SGD defaults otherwise. The target is a sanity check that training
// learned (chance is 0.10), set well below the lowest best test accuracy
// seen over 37 seeds (APT 0.78, fp32 0.87): a fixed 8-bit grid with no
// fp32 master copy loses updates to underflow (the paper's motivation;
// 0.40).
constexpr TrainSpec kTrainSpecs[] = {
    {"train_apt", nn::GemmBackend::kInt8, Precision::kApt, 64, 16,
     {0.5, 0.75}, 0.60},
    {"train_fp32", nn::GemmBackend::kPacked, Precision::kFp32, 64, 16,
     {0.5, 0.75}, 0.70},
    {"train_int8_k8", nn::GemmBackend::kInt8, Precision::kGrid8, 64, 16,
     {0.5, 0.75}, 0.25},
};

struct Scale {
  int64_t n_train;
  int epoch_divisor;
  int setups;
  bool check_target;
};
constexpr Scale kFull{2048, 1, 5, true};
constexpr Scale kSmoke{512, 8, 1, false};  // wiring check, ~1/32 the work

/// End-to-end step clock: one timestamp per on_gradients and per epoch
/// end, into buffers reserved at set-up. It runs the host probe after every
/// step when `probe_steps` (a short probe, about 2% of a step) and after
/// every epoch otherwise, and leaves the probes out of every interval it
/// times. Probing each step tracks a host whose speed changes within an
/// epoch; a traced run probes per epoch, so that no probe lands inside the
/// spans it records.
class StepClock final : public train::TrainHook {
 public:
  StepClock(int64_t steps, int epochs, bool probe_steps)
      : probe_steps_(probe_steps) {
    step_ns.reserve(static_cast<size_t>(steps));
    epoch_ns.reserve(static_cast<size_t>(epochs));
    epoch_steps.reserve(static_cast<size_t>(epochs));
    epoch_acc.reserve(static_cast<size_t>(epochs));
    probe_ms.reserve(static_cast<size_t>(probe_steps ? steps : epochs));
  }
  void start(int64_t t) { epoch_start_ = last_ = t; }
  void on_gradients(train::Trainer&, int64_t iter) override {
    const int64_t t = now_ns();
    // iter 0 follows the eval.
    if (iter > 0) step_ns.push_back(t - last_);
    last_ = t;
    if (probe_steps_) {
      probe_ms.push_back(host_probe_ms(8, 3));
      last_ = now_ns();
      probing_ns_ += last_ - t;
    }
  }
  void on_epoch_end(train::Trainer& trainer, int) override {
    epoch_ns.push_back(now_ns() - epoch_start_ - probing_ns_);
    epoch_steps.push_back(step_ns.size());
    epoch_acc.push_back(trainer.current_epoch_stats().test_accuracy);
    if (!probe_steps_) probe_ms.push_back(host_probe_ms());
    probing_ns_ = 0;
    epoch_start_ = now_ns();
  }

  std::vector<int64_t> step_ns;
  std::vector<int64_t> epoch_ns;  // wall time of each epoch, eval included
  std::vector<size_t> epoch_steps;
  std::vector<double> epoch_acc;
  std::vector<double> probe_ms;

 private:
  bool probe_steps_;
  int64_t last_ = 0;
  int64_t epoch_start_ = 0;
  int64_t probing_ns_ = 0;  // this epoch's probes
};

struct TrainSession {
  std::unique_ptr<data::SynthImageDataset> data;
  std::unique_ptr<nn::Sequential> net;
  std::unique_ptr<data::DataLoader> loader;
  std::unique_ptr<bench::TracedModel> traced;
  std::unique_ptr<train::Trainer> trainer;
  std::unique_ptr<core::AptController> ctrl;
  std::unique_ptr<bench::Probe> before, after;
  std::unique_ptr<StepClock> clock;
};

int epochs_of(const TrainSpec& spec, const Scale& sc) {
  return std::max(1, spec.epochs / sc.epoch_divisor);
}

/// Everything between a cold start and the first training step: dataset
/// synthesis, model, loader, trainer, quantised representations, hooks.
/// `epochs` may stop the workload's schedule early; the epochs it runs are
/// exactly those of the full schedule. `probe_steps` as for StepClock.
std::unique_ptr<TrainSession> setup_training(const TrainSpec& spec,
                                             const Scale& sc,
                                             const Seeds& seeds,
                                             bench::StepTracer* tracer,
                                             int epochs, bool probe_steps) {
  auto s = std::make_unique<TrainSession>();
  data::SynthImageConfig dc;
  dc.classes = kClasses;
  dc.height = dc.width = kImageHw;
  dc.seed = seeds.data;
  s->data =
      std::make_unique<data::SynthImageDataset>(dc, sc.n_train, kTestImages);
  Rng rng(seeds.model);
  s->net = models::make_resnet(
      {.n = 1, .base_width = 8, .num_classes = kClasses}, rng);
  s->loader = std::make_unique<data::DataLoader>(
      s->data->train().images, s->data->train().labels, spec.batch,
      /*shuffle=*/true, seeds.shuffle, data::AugmentConfig{});

  nn::Layer* model = s->net.get();
  if (tracer != nullptr) {
    tracer->watch(*s->net);
    s->traced = std::make_unique<bench::TracedModel>(*s->net, *tracer);
    model = s->traced.get();
  }
  const int full = epochs_of(spec, sc);
  train::TrainerConfig cfg;
  cfg.epochs = epochs;
  cfg.schedule = train::StepDecaySchedule(
      0.1, {static_cast<int>(full * spec.decay_at[0]),
            static_cast<int>(full * spec.decay_at[1])});
  s->trainer = std::make_unique<train::Trainer>(
      *model, *s->loader, s->data->test().images, s->data->test().labels,
      cfg);

  const int64_t iters = s->loader->batches_per_epoch();
  if (spec.precision == Precision::kGrid8) {
    core::GridOptions go;
    go.bits = 8;
    core::attach_grid(*s->net, go);
  } else if (spec.precision == Precision::kApt) {
    core::AptConfig ac;  // as bench/common.hpp
    ac.initial_bits = 6;
    ac.t_min = 6.0;
    ac.eval_interval = 2;
    ac.adjust_every_iters = static_cast<int>(std::max<int64_t>(1, iters / 2));
    s->ctrl = std::make_unique<core::AptController>(*s->trainer, ac);
  }
  if (tracer != nullptr) {
    s->before = std::make_unique<bench::Probe>(*tracer, true);
    s->trainer->add_hook(s->before.get());
  }
  if (s->ctrl) s->trainer->add_hook(s->ctrl.get());
  if (tracer != nullptr) {
    s->after = std::make_unique<bench::Probe>(*tracer, false);
    s->trainer->add_hook(s->after.get());
  }
  s->clock = std::make_unique<StepClock>(iters * epochs, epochs, probe_steps);
  s->trainer->add_hook(s->clock.get());
  return s;
}

std::string history_hash(const train::History& h) {
  std::string bytes;
  auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const auto& name : h.unit_names) bytes += name + '\0';
  for (const auto& e : h.epochs) {
    put(e.epoch);
    put(e.lr);
    put(e.train_loss);
    put(e.train_accuracy);
    put(e.test_accuracy);
    put(e.cumulative_energy_j);
    put(e.model_memory_bits);
    put(e.underflow_fraction);
    for (int b : e.unit_bits) put(b);
    for (double g : e.unit_gavg) put(g);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return hex;
}

struct TrainOutcome {
  train::History history;
  std::string hash;
  int64_t start_ns = 0, end_ns = 0;
  nn::PlanCacheStats plans;
};

TrainOutcome train_once(TrainSession& s) {
  // Each run starts from the state a fresh process has: the stochastic
  // rounding step counter at zero and an empty plan cache.
  sr_set_step(0);
  nn::plan_cache_clear();
  TrainOutcome o;
  o.start_ns = now_ns();
  s.clock->start(o.start_ns);
  o.history = s.trainer->run();
  o.end_ns = now_ns();
  o.plans = nn::plan_cache_stats();
  o.hash = history_hash(o.history);
  return o;
}

/// Loss finite, and target reached when `full` and not a smoke run.
bool check_outcome(RunResult& r, const TrainOutcome& o, const TrainSpec& spec,
                   const Scale& sc, const char* what, bool full) {
  bool finite = !o.history.epochs.empty();
  for (const auto& e : o.history.epochs)
    finite = finite && std::isfinite(e.train_loss) &&
             std::isfinite(e.test_accuracy);
  bool ok = check(r, std::string(what) + ": loss finite", finite);
  if (full && sc.check_target) {
    const double best = o.history.best_test_accuracy();
    ok &= check(r, std::string(what) + ": target accuracy reached",
                best >= spec.target,
                "best " + num(best) + " vs " + num(spec.target));
  }
  return ok;
}

double time_to_target_s(const StepClock& c, double target) {
  int64_t ns = 0;
  for (size_t e = 0; e < c.epoch_acc.size(); ++e) {
    ns += c.epoch_ns[e];
    if (c.epoch_acc[e] >= target) return static_cast<double>(ns) * 1e-9;
  }
  return -1.0;
}

double final_mean_bits(const train::History& h) {
  const auto& bits = h.epochs.back().unit_bits;
  double sum = 0.0;
  for (int b : bits) sum += b;
  return bits.empty() ? 0.0 : sum / static_cast<double>(bits.size());
}

/// Wall seconds per training sample over epochs [1, epochs), or over every
/// epoch when there is only one: the first pays the process's one-off
/// warm-up, which a second run in the same process does not.
double s_per_item(const StepClock& c, int epochs, int64_t n_train) {
  int64_t ns = 0;
  for (int e = epochs > 1 ? 1 : 0; e < epochs; ++e)
    ns += c.epoch_ns[static_cast<size_t>(e)];
  const int64_t items = n_train * (epochs > 1 ? epochs - 1 : 1);
  return static_cast<double>(ns) * 1e-9 / static_cast<double>(items);
}

/// One epoch of a fresh loader with the run's shuffle seed, prefetch off
/// and a consumer that does nothing: batch assembly on its own.
void time_data_assembly(const TrainSpec& spec, const TrainSession& s,
                        const Seeds& seeds, bench::SpanLog& log) {
  data::DataLoader loader(s.data->train().images, s.data->train().labels,
                          spec.batch, /*shuffle=*/true, seeds.shuffle,
                          data::AugmentConfig{});
  loader.set_prefetch(false);
  int64_t batches = 0;
  const int64_t t0 = now_ns();
  loader.for_each_batch([&batches](int64_t, const data::Batch&) { ++batches; });
  log.add(SpanName::kDataAssemble, batches, t0, now_ns());
}

/// A traced run of the whole schedule, plus an untraced run of its first
/// kReferenceEpochs epochs: their common prefix must be bit-identical, and
/// their wall times over it give the tracing overhead. The traced run's
/// spans and counters give the per-layer metrics.
RunResult trace_training(const TrainSpec& spec, const Scale& sc,
                         const Seeds& seeds, const std::string& trace_out) {
  constexpr int kReferenceEpochs = 3;
  RunResult r;
  const int epochs = epochs_of(spec, sc);
  const int prefix = std::min(kReferenceEpochs, epochs);
  auto plain = setup_training(spec, sc, seeds, nullptr, prefix, false);
  const TrainOutcome a = train_once(*plain);
  const int64_t per_epoch = plain->loader->batches_per_epoch();
  bench::SpanLog log(static_cast<size_t>(per_epoch * epochs * 7 + 256));
  bench::StepTracer tracer(log);
  auto traced = setup_training(spec, sc, seeds, &tracer, epochs, false);
  const TrainOutcome b = train_once(*traced);
  tracer.finish();
  r.attempted = per_epoch * (prefix + epochs);
  train::History b_prefix = b.history;
  b_prefix.epochs.resize(static_cast<size_t>(prefix));
  if (!check_outcome(r, a, spec, sc, "untraced reference", false))
    r.failed += per_epoch * prefix;
  bool traced_ok = check_outcome(r, b, spec, sc, "traced run", true);
  traced_ok &= check(r, "traced run: first epochs bit-identical to untraced",
                     history_hash(b_prefix) == a.hash);
  if (!traced_ok) r.failed += per_epoch * epochs;
  r.history_hash = b.hash;
  time_data_assembly(spec, *traced, seeds, log);

  const auto share = [&tracer](int64_t n) {
    return tracer.layer_steps() > 0
               ? static_cast<double>(n) /
                     static_cast<double>(tracer.layer_steps())
               : 0.0;
  };
  const StepClock& clock = *traced->clock;
  const double tt = time_to_target_s(clock, spec.target);
  r.samples = {
      {"s_per_item_untraced",
       {s_per_item(*plain->clock, prefix, sc.n_train)}},
      {"s_per_item_traced", {s_per_item(clock, prefix, sc.n_train)}},
      {"probe_ms", clock.probe_ms},
  };
  r.counters = {
      {"nn.int8_fwd_share", "fraction", share(tracer.int8_forwards())},
      {"nn.int8_bwd_share", "fraction", share(tracer.int8_backwards())},
      {"nn.plan_cache_hits", "count", static_cast<double>(b.plans.hits)},
      {"nn.plan_cache_misses", "count", static_cast<double>(b.plans.misses)},
      {"train.time_to_target_s", "s", tt > 0 ? tt : 0.0},
      {"train.final_test_acc", "fraction", b.history.final_test_accuracy()},
      {"train.energy_j", "J", b.history.total_energy_j()},
      {"core.bit_changes", "count",
       traced->ctrl ? static_cast<double>(traced->ctrl->decisions().size())
                    : 0.0},
      {"core.final_mean_bits", "bits", final_mean_bits(b.history)},
  };
  if (!bench::write_spans(trace_out, {&log}, b.start_ns, b.end_ns, 1))
    throw std::runtime_error("cannot write " + trace_out);
  return r;
}

/// Untraced: timed set-ups, then one run of the whole schedule. The host
/// probe runs before each set-up and, on the training thread, after each
/// step.
RunResult time_training(const TrainSpec& spec, const Scale& sc,
                        const Seeds& seeds) {
  RunResult r;
  const int epochs = epochs_of(spec, sc);
  std::vector<double> setup_s, setup_probe_ms;
  std::unique_ptr<TrainSession> s;
  for (int i = 0; i < sc.setups; ++i) {
    s.reset();
    setup_probe_ms.push_back(host_probe_ms());
    const int64_t t0 = now_ns();
    s = setup_training(spec, sc, seeds, nullptr, epochs, true);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const TrainOutcome o = train_once(*s);
  r.attempted = s->loader->batches_per_epoch() * epochs;
  if (!check_outcome(r, o, spec, sc, "run", true)) r.failed = r.attempted;
  r.history_hash = o.hash;

  // Step times, and per epoch its wall time and the end of its steps in
  // step_ms.
  const StepClock& c = *s->clock;
  std::vector<double> step_ms, epoch_s, epoch_step_end;
  for (int64_t ns : c.step_ns)
    step_ms.push_back(static_cast<double>(ns) * 1e-6);
  for (size_t e = 0; e < c.epoch_ns.size(); ++e) {
    epoch_s.push_back(static_cast<double>(c.epoch_ns[e]) * 1e-9);
    epoch_step_end.push_back(static_cast<double>(c.epoch_steps[e]));
  }
  r.samples = {
      {"setup_s", setup_s},
      {"setup_probe_ms", setup_probe_ms},
      {"step_ms", step_ms},
      {"epoch_s", epoch_s},
      {"epoch_step_end", epoch_step_end},
      {"items_per_epoch", {static_cast<double>(sc.n_train)}},
      {"probe_ms", c.probe_ms},
  };
  r.measured = {
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"model_memory_mb", "MB", o.history.peak_memory_bits() / 8e6},
  };
  return r;
}

// ---------------------------------------------------------------- serving

struct ServeSession {
  std::unique_ptr<data::SynthImageDataset> data;
  serve::CompiledModel model;
  std::unique_ptr<serve::Server> server;
  double artifact_mb = 0.0;
  uint64_t warm_requests = 0;
};

Tensor rows(const Tensor& images, int64_t begin, int64_t count) {
  const int64_t row = images.numel() / images.dim(0);
  Tensor out(Shape{count, 3, kServeImageHw, kServeImageHw});
  std::memcpy(out.data(), images.data() + begin * row,
              sizeof(float) * static_cast<size_t>(count * row));
  return out;
}

/// Sends bursts from as many threads as there are clients until every
/// worker has served and no worker's arena grew over a burst, so contexts
/// and arenas are warm, at the batch sizes the load forms, before timing.
void warm_workers(ServeSession& s) {
  constexpr int kBurst = 16;
  const float* in = s.data->test().images.data();
  std::vector<size_t> last;
  for (int round = 0; round < 100; ++round) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c)
      threads.emplace_back([&s, in] {
        std::vector<float> out(kClasses);
        for (int i = 0; i < kBurst; ++i) s.server->infer(in, out.data());
      });
    for (auto& t : threads) t.join();
    s.warm_requests += kServeClients * kBurst;
    const auto caps = s.server->stats().arena_capacity;
    if (caps == last &&
        std::all_of(caps.begin(), caps.end(), [](size_t c) { return c > 0; }))
      return;
    last = caps;
  }
}

/// Cold start to a warm server: dataset, 6-bit-grid ResNet-8, calibration,
/// compile, artifact save and load, server start.
std::unique_ptr<ServeSession> setup_serving(const Seeds& seeds,
                                            const std::string& artifact,
                                            bench::SpanLog* log, int key) {
  auto s = std::make_unique<ServeSession>();
  data::SynthImageConfig dc;
  dc.classes = kClasses;
  dc.height = dc.width = kServeImageHw;
  dc.seed = seeds.data;
  s->data =
      std::make_unique<data::SynthImageDataset>(dc, kCalibImages, kTestImages);
  Rng rng(seeds.model);
  auto net = models::make_resnet(
      {.n = 1, .base_width = 8, .num_classes = kClasses}, rng);
  core::GridOptions go;
  go.bits = 6;
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    nn::Parameter* w = nullptr;
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) w = &c->weight();
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) w = &l->weight();
    if (w != nullptr)
      w->rep = std::make_shared<core::GridRepresentation>(*w, go);
  }
  auto span = [log, key](SpanName name, int64_t t0) {
    if (log != nullptr) log->add(name, key, t0, now_ns());
  };

  int64_t t0 = now_ns();
  for (int64_t b = 0; b < kCalibImages; b += 16)
    net->forward(rows(s->data->train().images, b, 16), /*training=*/true);
  span(SpanName::kCalibrate, t0);

  t0 = now_ns();
  const serve::CompiledModel compiled =
      serve::CompiledModel::compile(
          *net, Shape{3, kServeImageHw, kServeImageHw});
  span(SpanName::kCompile, t0);

  t0 = now_ns();
  Status st = compiled.try_save(artifact);
  span(SpanName::kArtifactSave, t0);
  if (!st.ok()) throw std::runtime_error("artifact save: " + st.to_string());
  t0 = now_ns();
  st = serve::CompiledModel::try_load(artifact, &s->model);
  span(SpanName::kArtifactLoad, t0);
  s->artifact_mb =
      static_cast<double>(std::filesystem::file_size(artifact)) / 1e6;
  std::filesystem::remove(artifact);
  if (!st.ok()) throw std::runtime_error("artifact load: " + st.to_string());

  t0 = now_ns();
  s->server = std::make_unique<serve::Server>(
      s->model, serve::ServerOptions{.workers = kServeWorkers});
  warm_workers(*s);
  span(SpanName::kServerStart, t0);
  return s;
}

/// Request latencies per serving window on a log scale: one bin per
/// nanosecond below 64 ns, then 64 bins per octave (each under 1.6% wide)
/// up to 2^28 ns; longer latencies land in the last bin. The clients share
/// the table, so its fixed size, not the request rate, sets the memory the
/// benchmark itself holds while serving.
class LatencyTable {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kTopBit = 28;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBins = (kTopBit - kSubBits + 1) * kSub;

  explicit LatencyTable(size_t windows)
      : windows_(windows), counts_(windows * kBins) {}

  void add(size_t window, int64_t ns) {
    counts_[window * kBins + bin(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  /// The non-empty bins of one window as [lo_ns, hi_ns, count].
  std::vector<std::array<int64_t, 3>> bins(size_t window) const {
    std::vector<std::array<int64_t, 3>> out;
    for (size_t b = 0; b < kBins; ++b) {
      const uint32_t n = counts_[window * kBins + b].load();
      if (n == 0) continue;
      if (b < kSub) {
        const auto v = static_cast<int64_t>(b);
        out.push_back({v, v + 1, n});
      } else {
        const size_t shift = b / kSub - 1;
        const auto m = static_cast<int64_t>(b - shift * kSub);
        out.push_back({m << shift, (m + 1) << shift, n});
      }
    }
    return out;
  }

  size_t windows() const { return windows_; }

 private:
  static size_t bin(int64_t ns) {
    const auto v = static_cast<uint64_t>(
        std::clamp<int64_t>(ns, 0, (int64_t{1} << kTopBit) - 1));
    if (v < kSub) return v;
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return static_cast<size_t>(shift) * kSub + (v >> shift);
  }

  size_t windows_;
  std::vector<std::atomic<uint32_t>> counts_;
};

/// What one closed-loop client saw.
struct Client {
  int64_t n = 0;
  int64_t bad_status = 0;
  int64_t mismatched = 0;
};

struct ServeRun {
  explicit ServeRun(size_t windows)
      : clients(kServeClients), latency(windows) {}
  std::vector<Client> clients;
  LatencyTable latency;          // one histogram per window
  std::vector<double> probe_ms;  // the all-core probe after each window
  int64_t start_ns = 0, end_ns = 0;
  int64_t busy_ns = 0;  // the windows' wall time, the probes left out
  int64_t requests() const {
    int64_t n = 0;
    for (const auto& c : clients) n += c.n;
    return n;
  }
};

/// Closed loop: each client sends its next request when the previous
/// reply arrives, for `seconds`, in windows of kWindowS. Between windows,
/// with the server idle, the host probe runs on every core. Samples are
/// drawn from the request pool by a per-client stream of the run's
/// request seed.
ServeRun serve_closed_loop(ServeSession& s, const std::vector<float>& refs,
                           uint64_t order_seed, double seconds,
                           std::vector<bench::SpanLog>* logs) {
  const auto windows =
      static_cast<size_t>(std::max(1.0, std::round(seconds / kWindowS)));
  ServeRun run(windows);
  const float* pool = s.data->test().images.data();
  const int64_t in_elems = s.model.in_elems();
  std::vector<Rng> orders;
  for (int c = 0; c < kServeClients; ++c)
    orders.emplace_back(order_seed + static_cast<uint64_t>(c));
  // Written between windows, before the clients of the next one start.
  size_t window = 0;
  int64_t deadline = 0;
  auto client = [&](int c) {
    Client& me = run.clients[static_cast<size_t>(c)];
    bench::SpanLog* log = logs ? &(*logs)[static_cast<size_t>(c)] : nullptr;
    Rng& order = orders[static_cast<size_t>(c)];
    std::vector<float> out(static_cast<size_t>(kClasses));
    while (true) {
      const int64_t t0 = now_ns();
      if (t0 >= deadline) break;
      const int64_t sample = order.randint(0, kTestImages - 1);
      const Status st =
          s.server->infer(pool + sample * in_elems, out.data(), {});
      const int64_t t1 = now_ns();
      if (log != nullptr) log->add(SpanName::kRequest, me.n, t0, t1);
      run.latency.add(window, t1 - t0);
      ++me.n;
      if (!st.ok()) {
        ++me.bad_status;
      } else if (std::memcmp(out.data(), refs.data() + sample * kClasses,
                             sizeof(float) * kClasses) != 0) {
        ++me.mismatched;
      }
    }
  };
  run.start_ns = now_ns();
  for (; window < windows; ++window) {
    const int64_t t0 = now_ns();
    deadline = t0 + static_cast<int64_t>(kWindowS * 1e9);
    std::vector<std::thread> threads;
    for (int c = 1; c < kServeClients; ++c) threads.emplace_back(client, c);
    client(0);
    for (auto& t : threads) t.join();
    run.busy_ns += now_ns() - t0;
    run.probe_ms.push_back(host_probe_all_cores_ms());
  }
  run.end_ns = now_ns();
  return run;
}

/// Wall seconds of a run's windows per request completed in them.
double s_per_item(const ServeRun& run) {
  return static_cast<double>(run.busy_ns) * 1e-9 /
         static_cast<double>(std::max<int64_t>(1, run.requests()));
}

RunResult run_serving(const Scale& sc, uint64_t seed, double seconds,
                      bool trace, const std::string& trace_out,
                      const std::string& artifact) {
#if defined(__GLIBC__)
  // One malloc arena for every thread. Otherwise glibc hands each new
  // thread (the set-ups start six server workers in turn) whichever arena
  // is free, memory freed in one arena is not reused from another, and
  // peak RSS moved by up to 20% between identical runs. Steady-state
  // serving allocates nothing, so arena contention is not what is timed.
  mallopt(M_ARENA_MAX, 1);
#endif
  RunResult r;
  use_backend(nn::GemmBackend::kInt8);
  const Seeds seeds(seed);
  bench::SpanLog main_log(static_cast<size_t>(sc.setups * 8 + kRunB1Calls));
  bench::SpanLog* setup_log = trace ? &main_log : nullptr;

  std::vector<double> setup_s, setup_probe_ms;
  std::unique_ptr<ServeSession> s;
  for (int i = 0; i < sc.setups; ++i) {
    s.reset();
    setup_probe_ms.push_back(host_probe_ms());
    const int64_t t0 = now_ns();
    s = setup_serving(seeds, artifact, setup_log, i);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Solo batch-1 references every response is compared against.
  serve::InferenceContext ctx;
  const float* pool = s->data->test().images.data();
  const int64_t in_elems = s->model.in_elems();
  std::vector<float> refs(static_cast<size_t>(kTestImages * kClasses));
  for (int64_t i = 0; i < kTestImages; ++i)
    s->model.run(pool + i * in_elems, 1, refs.data() + i * kClasses, ctx);

  // One window of the same load, checked but not timed: the first second
  // of load after the set-ups ran up to 40% slower than the rest.
  const ServeRun warm = serve_closed_loop(
      *s, refs, seeds.requests + 2 * kServeClients, kWindowS, nullptr);
  // Under --trace 1 the first half of the time is untraced (the overhead
  // reference) and the second half records a span per request.
  const double run_s = trace ? seconds / 2 : seconds;
  const ServeRun w =
      serve_closed_loop(*s, refs, seeds.requests, run_s, nullptr);
  std::optional<ServeRun> tw;
  std::vector<bench::SpanLog> client_logs;
  if (trace) {
    // Span logs hold half again the busiest client's untraced count.
    int64_t most = 0;
    for (const auto& c : w.clients) most = std::max(most, c.n);
    client_logs.reserve(kServeClients);
    for (int c = 0; c < kServeClients; ++c)
      client_logs.emplace_back(static_cast<size_t>(most + most / 2 + 256));
    tw = serve_closed_loop(*s, refs, seeds.requests + kServeClients, run_s,
                           &client_logs);
    std::vector<float> out(static_cast<size_t>(kClasses));
    for (int64_t i = 0; i < kRunB1Calls; ++i) {
      const int64_t t0 = now_ns();
      s->model.run(pool + (i % kTestImages) * in_elems, 1, out.data(), ctx);
      main_log.add(SpanName::kRunB1, i, t0, now_ns());
    }
  }

  int64_t bad_status = 0, mismatched = 0;
  auto tally = [&](const ServeRun& run) {
    r.attempted += run.requests();
    for (const auto& c : run.clients) {
      bad_status += c.bad_status;
      mismatched += c.mismatched;
    }
  };
  tally(warm);
  tally(w);
  if (tw) tally(*tw);
  s->server->shutdown();
  const serve::Server::Stats stats = s->server->stats();
  const auto expected = static_cast<int64_t>(s->warm_requests) + r.attempted;
  const auto served = static_cast<int64_t>(stats.requests);
  check(r, "every status kOk", bad_status == 0,
        std::to_string(bad_status) + " failed");
  check(r, "responses memcmp-equal to solo runs", mismatched == 0,
        std::to_string(mismatched) + " mismatched");
  check(r, "server stats count every request", served == expected,
        std::to_string(served) + " vs " + std::to_string(expected));
  r.failed = std::min(r.attempted, bad_status + mismatched +
                                       std::abs(served - expected));

  if (tw) {
    r.samples = {
        {"s_per_item_untraced", {s_per_item(w)}},
        {"s_per_item_traced", {s_per_item(*tw)}},
        {"probe_ms", tw->probe_ms},
    };
    r.counters = {
        {"serve.mean_batch", "req/batch",
         stats.batches ? static_cast<double>(stats.requests) /
                             static_cast<double>(stats.batches)
                       : 0.0},
    };
    std::vector<const bench::SpanLog*> logs{&main_log};
    for (const auto& l : client_logs) logs.push_back(&l);
    if (!bench::write_spans(trace_out, logs, tw->start_ns, tw->end_ns,
                            kServeClients))
      throw std::runtime_error("cannot write " + trace_out);
    return r;
  }

  for (size_t i = 0; i < w.latency.windows(); ++i)
    r.latency_windows.push_back(w.latency.bins(i));
  r.samples = {
      {"setup_s", setup_s},
      {"setup_probe_ms", setup_probe_ms},
      {"window_s", {kWindowS}},
      {"wall_s", {static_cast<double>(w.busy_ns) * 1e-9}},
      {"probe_ms", w.probe_ms},
  };
  r.measured = {
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"model_memory_mb", "MB", s->artifact_mb},
  };
  return r;
}

// ------------------------------------------------------------------- main

void write_result(const std::string& path, const std::string& workload,
                  uint64_t seed, double seconds, bool trace, bool smoke,
                  const RunResult& r) {
  auto metrics = [](const std::vector<Metric>& ms) {
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i)
      out += (i ? ",\n    " : "\n    ") + quote(ms[i].name) +
             ": {\"value\": " + num(ms[i].value) +
             ", \"unit\": " + quote(ms[i].unit) + "}";
    return out + "}";
  };
  std::string samples = "{";
  for (size_t i = 0; i < r.samples.size(); ++i)
    samples += (i ? ",\n    " : "\n    ") + quote(r.samples[i].name) + ": " +
               array(r.samples[i].values);
  samples += "}";
  std::string windows = "[";
  for (size_t w = 0; w < r.latency_windows.size(); ++w) {
    windows += w ? ",\n    [" : "\n    [";
    const auto& bins = r.latency_windows[w];
    for (size_t b = 0; b < bins.size(); ++b)
      windows += (b ? ", [" : "[") + std::to_string(bins[b][0]) + ", " +
                 std::to_string(bins[b][1]) + ", " +
                 std::to_string(bins[b][2]) + "]";
    windows += "]";
  }
  windows += "]";
  std::string checks = "[";
  for (size_t i = 0; i < r.checks.size(); ++i)
    checks += (i ? ",\n    " : "\n    ") +
              std::string("{\"name\": ") + quote(r.checks[i].name) +
              ", \"ok\": " + (r.checks[i].ok ? "true" : "false") +
              ", \"detail\": " + quote(r.checks[i].detail) + "}";
  checks += "]";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(
      f,
      "{\"schema\": \"apt-e2e-run/2\",\n"
      " \"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d,\n"
      " \"mode\": %s,\n"
      " \"host\": {\"pool_threads\": %u, \"avx2\": %s, \"compiler\": %s, "
      "\"build_type\": %s},\n"
      " \"attempted\": %lld, \"failed\": %lld,\n"
      " \"history_hash\": %s,\n \"checks\": %s,\n \"measured\": %s,\n"
      " \"counters\": %s,\n \"samples\": %s,\n \"latency_windows\": %s}\n",
      quote(workload).c_str(), static_cast<unsigned long long>(seed),
      num(seconds).c_str(), trace ? 1 : 0, smoke ? "\"smoke\"" : "\"full\"",
      ThreadPool::global().size() + 1,
      nn::gemm_cpu_has_avx2_fma() ? "true" : "false",
      quote(APT_E2E_COMPILER).c_str(), quote(APT_E2E_BUILD_TYPE).c_str(),
      static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
      quote(r.history_hash).c_str(), checks.c_str(),
      metrics(r.measured).c_str(), metrics(r.counters).c_str(),
      samples.c_str(), windows.c_str());
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage: apt_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --out PATH [--trace-out PATH] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::stoull(v);
    } else if (arg == "--seconds") {
      seconds = std::stod(v);
    } else if (arg == "--trace") {
      trace = v == "1";
    } else if (arg == "--out") {
      out = v;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (out.empty() || seconds <= 0 || (trace && trace_out.empty()))
    return usage();
  const Scale& sc = smoke ? kSmoke : kFull;
  // Every kernel runs on the calling thread (bits are identical by the
  // determinism contract). On a shared 4-vCPU host, steps on the 4-thread
  // pool switched between a fast and a 1.6x slower mode from run to run,
  // so no statistic of them held steady across seeds; one-core steps
  // stayed within a few percent. Pool dispatch and the sharded step's
  // parallel scaling are therefore outside this benchmark (bench_runner
  // measures them).
  ThreadPool::set_force_serial(true);

  try {
    RunResult r;
    if (workload == "serve_closed_loop") {
      // The artifact round trip goes through a file beside the results.
      r = run_serving(sc, seed, seconds, trace, trace_out, out + ".aptm");
    } else {
      const TrainSpec* spec = nullptr;
      for (const auto& t : kTrainSpecs)
        if (workload == t.name) spec = &t;
      if (spec == nullptr) {
        std::fprintf(stderr, "apt_e2e: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
      }
      use_backend(spec->backend);
      r = trace ? trace_training(*spec, sc, Seeds(seed), trace_out)
                : time_training(*spec, sc, Seeds(seed));
    }
    write_result(out, workload, seed, seconds, trace, smoke, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apt_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
