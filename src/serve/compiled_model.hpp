// Frozen inference export: a trained model compiled to a flat program
// of integer-kernel instructions (DESIGN.md §15).
//
// Training layers carry machinery a serving path must not pay for —
// EMA range trackers, per-shard caches, backward buffers, per-forward
// plan lookups. `CompiledModel::compile` walks a trained model once and
// freezes everything a forward needs into a static instruction list,
// whose quantised ops run the training layers' own integer forward
// (nn::ConvS8Forward, nn::linear_s8_forward) on frozen operands:
//
//  * weights stay packed as the u8 code planes the integer GEMM
//    consumes (no dequantised copy exists in the artifact),
//  * every quantisation grid is frozen from the trackers' state at
//    freeze time (`choose_params` of the EMA ranges — the same grids
//    the training forward would use on its next step),
//  * BatchNorm (eval-mode affine from the running statistics) and ReLU
//    following a conv/linear fold into the fused GEMM epilogue's
//    per-channel scale / bias / clamp,
//  * adjacent quantised ops hand activations as raw codes when the
//    producer's output feeds exactly one quantised consumer (the
//    code-passing dataflow of §11, resolved statically),
//  * every `KernelPlan` is resolved once (threads = 1: execution is
//    serial-per-request; concurrency comes from serving workers) and
//    held by value in the op — a served request never touches the
//    process-wide plan cache. Conv weights are reordered once to the
//    forward's image k order beside them. Plans and reordered weights
//    are derived state: compile and load bind them in memory, and the
//    artifact stores neither.
//
// Execution (`run`) is strictly serial per call under a ThreadPool
// InlineScope, writes only into the caller's `InferenceContext`
// registers plus arena scratch, and is therefore bit-identical for any
// batch size the request rides in, any worker count, and any
// coalescing pattern: integer GEMMs are exact per output element, the
// epilogue is per-element double arithmetic, and every other op is an
// elementwise/per-sample loop (DESIGN.md §15 gives the argument).
//
// The artifact serialises with `try_save`/`try_load` (schema
// apt-compiled-model/3: the checksummed io/artifact.hpp container,
// little-endian, byte-stable round trip, crash-safe atomic save). Loads
// validate the container, every section checksum, and the program's
// semantic invariants (register indices, geometry, operand sizes)
// before returning, so `run` never executes an inconsistent program;
// both report failures as a typed apt::Status (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/shape.hpp"
#include "base/status.hpp"
#include "base/tensor.hpp"
#include "nn/layer.hpp"
#include "nn/plan.hpp"
#include "quant/affine.hpp"

namespace apt::serve {

struct CompileOptions {
  /// Largest batch a single `run` may carry; linear ops bind one plan
  /// per batch size in [1, max_batch].
  int64_t max_batch = 8;
};

/// Instruction set of the flat executor. Conv and linear run the fused
/// integer GEMM (folded BN / ReLU / requantisation); the rest are exact
/// fp32 per-sample loops.
enum class OpKind : uint8_t {
  kConvS8 = 0,
  kLinearS8 = 1,
  kReluF32 = 2,
  kMaxPoolF32 = 3,
  kGapF32 = 4,
  kAddF32 = 5,
};

/// One frozen instruction. Register ids index CompiledModel's register
/// table; `in1` is only used by kAddF32.
struct CompiledOp {
  OpKind kind = OpKind::kReluF32;
  int32_t in0 = -1, in1 = -1, out = -1;
  /// Input geometry: conv/pool/gap read [c, h, w] planes; linear reads
  /// c features (h = w = 0).
  int64_t c = 0, h = 0, w = 0;
  /// Output geometry: conv writes [oc, oh, ow]; linear writes oc.
  int64_t oc = 0, oh = 0, ow = 0;
  /// Conv geometry (kMaxPoolF32 reuses `kernel` as its window).
  int64_t kernel = 0, stride = 0, padding = 0, groups = 1;
  bool in_codes = false;    ///< input register holds codes on in_grid
  bool emit_codes = false;  ///< output register holds codes on out_grid
  bool relu = false;        ///< folded ReLU (conv/linear/add)
  float relu_cap = std::numeric_limits<float>::infinity();
  int32_t w_max = 255;  ///< weight grid's code ceiling (quad gate)
  quant::QuantParams in_grid;   ///< activation grid codes arrive/quantise on
  quant::QuantParams w_grid;    ///< frozen weight grid
  quant::QuantParams out_grid;  ///< requant grid when emit_codes
  /// Folded per-channel epilogue scale (length oc; empty = uniform
  /// Sa*Sb) and bias (length oc; empty = none).
  std::vector<double> ch_scale;
  std::vector<float> ch_bias;
  /// Packed weight codes, GEMM operand layout ([oc, c/groups*kernel^2]
  /// for conv, [oc, c] for linear).
  std::vector<uint8_t> wcodes;
  /// Plans bound by compile and load (never serialised): one for conv
  /// (batch-independent per-(sample, group) GEMMs); plans[b-1] for a
  /// batch-b linear GEMM.
  std::vector<nn::KernelPlan> plans;
  /// Conv weight codes reordered to the forward's image k order
  /// (nn::ConvS8Forward::reorder_weights), bound with the plans and never
  /// serialised; empty when the plan reads `wcodes` as they are.
  std::vector<uint8_t> wimage;
};

/// One activation register: per-sample element count and whether it
/// carries u8 codes (static code handoff) or fp32.
struct RegInfo {
  int64_t elems = 0;
  bool codes = false;
};

class CompiledModel;

/// Per-worker execution state: register buffers sized for the model's
/// max_batch. `run` binds on every call, sizing each buffer from the
/// model's current program, so a context stays valid when the model it
/// served is reassigned in place (a recompile or a `try_load` into the
/// same object). A bind to the sizes already held neither allocates nor
/// frees, which is what makes steady-state serving allocation-free
/// (the arena reaches its high-water capacity on the first request and
/// is only re-scoped afterwards).
class InferenceContext {
 public:
  void bind(const CompiledModel& model);

  float* f32(int32_t reg) { return f32_[static_cast<size_t>(reg)].data(); }
  uint8_t* u8(int32_t reg) { return u8_[static_cast<size_t>(reg)].data(); }

 private:
  std::vector<std::vector<float>> f32_;
  std::vector<std::vector<uint8_t>> u8_;
};

class CompiledModel {
 public:
  /// Freezes a trained model for `sample_shape` inputs (per-sample
  /// dims, e.g. {3, 32, 32}). Requires every Conv2d/Linear to carry a
  /// <= 8-bit quantised weight representation and an initialised
  /// activation range (run calibration forwards first — or use
  /// freeze_from_checkpoint, which does). Supported layers: Sequential,
  /// Residual, Conv2d, Linear, BatchNorm directly after conv/linear,
  /// ReLU, MaxPool2d, GlobalAvgPool, Flatten — so every zoo backbone
  /// (MLP, CifarNet, ResNet, MobileNetV2) compiles.
  static CompiledModel compile(nn::Layer& model, const Shape& sample_shape,
                               const CompileOptions& opts = {});

  /// Runs `batch` samples (row-major, batch * in_elems floats) through
  /// the program, writing batch * out_elems floats. Serial, exact, and
  /// bit-identical for any batch size / coalescing of the same sample.
  void run(const float* in, int64_t batch, float* out,
           InferenceContext& ctx) const;

  int64_t max_batch() const { return max_batch_; }
  int64_t in_elems() const { return in_elems_; }
  int64_t out_elems() const { return out_elems_; }
  const Shape& sample_shape() const { return sample_shape_; }
  const std::vector<CompiledOp>& ops() const { return ops_; }
  const std::vector<RegInfo>& regs() const { return regs_; }

  /// Serialises as apt-compiled-model/3 via an atomic, checksummed
  /// write (the final path never holds a torn artifact). A save → load
  /// → save round trip is byte-identical (asserted by
  /// tests/serve_test.cpp).
  Status try_save(const std::string& path) const;

  /// Loads and fully validates an artifact into `*out` (untouched on
  /// failure): kIoError / kTruncated / kCorrupt / kVersionMismatch per
  /// the DESIGN.md §16 taxonomy.
  static Status try_load(const std::string& path, CompiledModel* out);

 private:
  Shape sample_shape_{0};
  int64_t max_batch_ = 0;
  int64_t in_elems_ = 0;
  int64_t out_elems_ = 0;
  int32_t out_reg_ = -1;
  std::vector<RegInfo> regs_;
  std::vector<CompiledOp> ops_;
};

/// The src/train → src/serve boundary in one call: restores `model`
/// from a checkpoint, warms its activation-range trackers with
/// training-mode calibration forwards (BatchNorm running statistics are
/// snapshotted and restored around them, so the checkpoint's stats are
/// what the freeze folds), then compiles into `*out`. The model must
/// already carry its quantised weight representations (the training-time
/// setup). A checkpoint that fails to load returns its typed Status
/// (io::try_load_checkpoint's taxonomy) with `model` and `*out`
/// untouched.
Status freeze_from_checkpoint(nn::Layer& model,
                              const std::string& checkpoint_path,
                              const std::vector<Tensor>& calibration,
                              CompiledModel* out,
                              const CompileOptions& opts = {});

}  // namespace apt::serve
