// Adversarial-input hardening for the v2 artifact loaders (DESIGN.md
// §16): the byte-level mutation/truncation sweep. Every single-byte
// flip and every truncation length of a checkpoint and a compiled-model
// artifact must come back as a typed Status — never a crash, never an
// OOM from a hostile length field, and never silent acceptance — and a
// failed load must leave the target model untouched. Past the CRCs,
// structure-aware mutations rewrite one field of a compiled ResNet-8
// with every checksum kept valid, so they reach the loader's semantic
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "io/artifact.hpp"
#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_model.hpp"

namespace apt {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void dump(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open());
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

bool is_artifact_error(StatusCode code) {
  return code == StatusCode::kIoError || code == StatusCode::kTruncated ||
         code == StatusCode::kCorrupt ||
         code == StatusCode::kVersionMismatch;
}

// Runs `load` (which must return the typed Status of loading `path`)
// against every single-byte flip and every truncation length of
// `reference`, asserting each mutation is rejected with an artifact
// error code. The whole file is swept — header, section table, and
// payloads — which is what the per-section CRCs plus exact-size
// validation are for.
template <typename LoadFn>
void sweep(const std::vector<uint8_t>& reference, const std::string& path,
           LoadFn load) {
  ASSERT_FALSE(reference.empty());
  // Keep the sweep O(file bytes^2 / work-per-load) honest: these
  // artifacts are built tiny on purpose.
  ASSERT_LT(reference.size(), 256u * 1024u)
      << "artifact too large for an exhaustive sweep — shrink the model";

  std::vector<uint8_t> mutated = reference;
  for (size_t i = 0; i < reference.size(); ++i) {
    mutated[i] ^= 0x5A;
    dump(path, mutated);
    const Status st = load();
    EXPECT_FALSE(st.ok()) << "flip at byte " << i << " was accepted";
    EXPECT_TRUE(is_artifact_error(st.code()))
        << "flip at byte " << i << " -> " << st.to_string();
    mutated[i] = reference[i];
  }
  for (size_t len = 0; len < reference.size(); ++len) {
    dump(path,
         std::vector<uint8_t>(reference.begin(), reference.begin() + len));
    const Status st = load();
    EXPECT_FALSE(st.ok()) << "truncation to " << len << " was accepted";
    EXPECT_TRUE(is_artifact_error(st.code()))
        << "truncation to " << len << " -> " << st.to_string();
  }
  // Trailing garbage is surplus bytes the section table cannot account
  // for.
  std::vector<uint8_t> padded = reference;
  padded.push_back(0);
  dump(path, padded);
  EXPECT_EQ(load().code(), StatusCode::kCorrupt);
  // The pristine bytes still load: the sweep harness itself is sound.
  dump(path, reference);
  EXPECT_TRUE(load().ok());
}

TEST(CheckpointCorruption, EveryFlipAndTruncationIsATypedError) {
  Rng rng(1);
  auto net = models::make_mlp(4, {6}, 3, rng);
  const std::string path = temp_path("apt_corrupt_ckpt.bin");
  ASSERT_TRUE(io::try_save_checkpoint(*net, path).ok());
  std::vector<uint8_t> reference;
  ASSERT_TRUE(io::read_file(path, &reference).ok());

  Rng rng2(2);
  auto target = models::make_mlp(4, {6}, 3, rng2);
  const std::vector<nn::Parameter*> params = target->parameters();
  ASSERT_FALSE(params.empty());
  const float sentinel = params[0]->value[0];

  sweep(reference, path,
        [&] { return io::try_load_checkpoint(*target, path); });

  // target absorbed exactly one successful load (the final pristine
  // check) and none of the corrupt ones; a corrupt load that mutated
  // the model before failing would have broken the sentinel earlier.
  EXPECT_NE(params[0]->value[0], sentinel);
  std::filesystem::remove(path);
}

TEST(CheckpointCorruption, FailedLoadLeavesTheModelUntouched) {
  Rng rng(1);
  auto net = models::make_mlp(4, {6}, 3, rng);
  const std::string path = temp_path("apt_corrupt_ckpt_untouched.bin");
  ASSERT_TRUE(io::try_save_checkpoint(*net, path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(io::read_file(path, &bytes).ok());
  // Flip one payload byte (past the preamble): the CRC rejects it.
  bytes[bytes.size() - 1] ^= 0xFF;
  dump(path, bytes);

  Rng rng2(2);
  auto target = models::make_mlp(4, {6}, 3, rng2);
  std::vector<float> before;
  for (nn::Parameter* p : target->parameters())
    for (int64_t i = 0; i < p->numel(); ++i) before.push_back(p->value[i]);

  EXPECT_EQ(io::try_load_checkpoint(*target, path).code(),
            StatusCode::kCorrupt);

  size_t k = 0;
  for (nn::Parameter* p : target->parameters())
    for (int64_t i = 0; i < p->numel(); ++i)
      ASSERT_EQ(p->value[i], before[k++]) << "failed load mutated " << p->name;
  std::filesystem::remove(path);
}

TEST(CompiledModelCorruption, EveryFlipAndTruncationIsATypedError) {
  Rng rng(3);
  auto net = models::make_mlp(4, {6}, 3, rng);
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) {
      core::GridOptions go;
      go.bits = 6;
      l->weight().rep =
          std::make_shared<core::GridRepresentation>(l->weight(), go);
    }
  }
  Tensor calib(Shape{8, 4});
  rng.fill_normal(calib, 0, 1);
  net->forward(calib, /*training=*/true);
  const serve::CompiledModel cm =
      serve::CompiledModel::compile(*net, Shape{4}, {.max_batch = 2});

  const std::string path = temp_path("apt_corrupt_model.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  std::vector<uint8_t> reference;
  ASSERT_TRUE(io::read_file(path, &reference).ok());

  sweep(reference, path, [&] {
    serve::CompiledModel loaded;
    return serve::CompiledModel::try_load(path, &loaded);
  });
  std::filesystem::remove(path);
}

TEST(CompiledModelCorruption, SpecificHeaderFieldsGetSpecificCodes) {
  Rng rng(3);
  auto net = models::make_mlp(4, {6}, 3, rng);
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) {
      core::GridOptions go;
      go.bits = 6;
      l->weight().rep =
          std::make_shared<core::GridRepresentation>(l->weight(), go);
    }
  }
  Tensor calib(Shape{8, 4});
  rng.fill_normal(calib, 0, 1);
  net->forward(calib, /*training=*/true);
  const serve::CompiledModel cm =
      serve::CompiledModel::compile(*net, Shape{4});
  const std::string path = temp_path("apt_corrupt_model_fields.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  std::vector<uint8_t> reference;
  ASSERT_TRUE(io::read_file(path, &reference).ok());

  auto code_after = [&](size_t offset, uint8_t flip) {
    std::vector<uint8_t> bytes = reference;
    bytes[offset] ^= flip;
    dump(path, bytes);
    serve::CompiledModel loaded;
    return serve::CompiledModel::try_load(path, &loaded).code();
  };
  // Container layout: u32 magic at 0, u32 version at 4, u64 schema
  // length + schema bytes at 8.
  EXPECT_EQ(code_after(0, 0xFF), StatusCode::kCorrupt);          // magic
  EXPECT_EQ(code_after(4, 0x01), StatusCode::kVersionMismatch);  // version
  EXPECT_EQ(code_after(16, 0x01), StatusCode::kCorrupt);  // schema bytes
  EXPECT_EQ(io::read_file("/nonexistent/apt.aptm", &reference).code(),
            StatusCode::kIoError);
  std::filesystem::remove(path);
}

// Rewrites the compiled-model artifact at `path` section by section
// through the artifact container, so every CRC stays valid, after
// `edit` has had the chance to change section `target`'s payload. The
// rewritten file is labelled `schema`.
template <typename EditFn>
void rewrite_artifact(const std::string& path, size_t target, EditFn edit,
                      const std::string& schema = "apt-compiled-model/3") {
  constexpr uint32_t kModelMagic = 0x4150544D;  // "APTM"
  io::ArtifactReader reader;
  ASSERT_TRUE(reader.open(path, kModelMagic, "apt-compiled-model/3").ok());
  io::ArtifactWriter writer(kModelMagic, schema);
  for (size_t i = 0; i < reader.sections(); ++i) {
    io::BufReader r = reader.section(i);
    std::vector<uint8_t> payload(r.remaining());
    for (uint8_t& b : payload) b = r.pod<uint8_t>();
    if (i == target) edit(payload);
    writer.section().bytes(payload.data(), payload.size());
  }
  ASSERT_TRUE(writer.write(path).ok());
}

TEST(CompiledModelCorruption, WeightCodeAboveCeilingIsCorrupt) {
  // The integer kernels choose byte quads (and read VNNI operands) from
  // an op's declared weight ceiling alone, so one code above it can
  // saturate the quad pair-sum and make the served bits depend on the
  // host's SIMD level. A CRC-valid artifact carrying such a code must be
  // refused at load time.
  Rng rng(3);
  auto net = models::make_mlp(4, {6}, 3, rng);
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) {
      core::GridOptions go;
      go.bits = 6;
      l->weight().rep =
          std::make_shared<core::GridRepresentation>(l->weight(), go);
    }
  }
  Tensor calib(Shape{8, 4});
  rng.fill_normal(calib, 0, 1);
  net->forward(calib, /*training=*/true);
  const serve::CompiledModel cm =
      serve::CompiledModel::compile(*net, Shape{4});
  const auto op_it = std::find_if(
      cm.ops().begin(), cm.ops().end(),
      [](const serve::CompiledOp& op) { return !op.wcodes.empty(); });
  ASSERT_NE(op_it, cm.ops().end());
  const serve::CompiledOp& op = *op_it;
  ASSERT_EQ(op.w_max, 63);
  // Section 0 is the header; op i is section i + 1.
  const size_t section = static_cast<size_t>(op_it - cm.ops().begin()) + 1;
  // The op's codes sit in its section as a u64 count and the bytes.
  std::vector<uint8_t> serialised(sizeof(uint64_t));
  const uint64_t count = op.wcodes.size();
  std::memcpy(serialised.data(), &count, sizeof(count));
  serialised.insert(serialised.end(), op.wcodes.begin(), op.wcodes.end());

  const std::string path = temp_path("apt_corrupt_model_ceiling.aptm");
  for (uint8_t code : {uint8_t{63}, uint8_t{64}, uint8_t{255}}) {
    ASSERT_TRUE(cm.try_save(path).ok());
    rewrite_artifact(path, section, [&](std::vector<uint8_t>& payload) {
      const auto at = std::search(payload.begin(), payload.end(),
                                  serialised.begin(), serialised.end());
      ASSERT_NE(at, payload.end());
      at[sizeof(uint64_t)] = code;  // the op's first weight code
    });
    serve::CompiledModel loaded;
    const Status st = serve::CompiledModel::try_load(path, &loaded);
    if (code <= op.w_max) {
      EXPECT_TRUE(st.ok()) << st.to_string();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kCorrupt) << "code " << int{code};
      EXPECT_NE(st.to_string().find("above the ceiling"), std::string::npos)
          << st.to_string();
    }
  }
  std::filesystem::remove(path);
}

// A compiled ResNet-8 (n = 1, width 8) on 3x16x16 samples with 6-bit
// weight grids, its range trackers warmed by one training-mode forward.
serve::CompiledModel compile_resnet8() {
  Rng rng(5);
  auto net = models::make_resnet({.n = 1, .base_width = 8, .num_classes = 10},
                                 rng);
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    nn::Parameter* w = nullptr;
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) w = &c->weight();
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) w = &l->weight();
    if (w == nullptr) continue;
    core::GridOptions go;
    go.bits = 6;
    w->rep = std::make_shared<core::GridRepresentation>(*w, go);
  }
  Tensor calib(Shape{4, 3, 16, 16});
  rng.fill_uniform(calib, -1.0f, 1.0f);
  net->forward(calib, /*training=*/true);
  return serve::CompiledModel::compile(*net, Shape{3, 16, 16},
                                       {.max_batch = 2});
}

// Serves `in` on `ctx` and returns the response bytes.
std::vector<float> serve_one(const serve::CompiledModel& cm,
                             const std::vector<float>& in,
                             serve::InferenceContext& ctx) {
  std::vector<float> out(static_cast<size_t>(cm.out_elems()));
  cm.run(in.data(), 1, out.data(), ctx);
  return out;
}

TEST(CompiledModelCorruption, ReadBeforeWriteIsCorrupt) {
  // An add that reads its own output register reads whatever the
  // previous request left there: a CRC-valid artifact whose program
  // reads a register before any op writes it must be refused.
  const serve::CompiledModel cm = compile_resnet8();
  const auto add = std::find_if(
      cm.ops().begin(), cm.ops().end(), [](const serve::CompiledOp& op) {
        return op.kind == serve::OpKind::kAddF32;
      });
  ASSERT_NE(add, cm.ops().end());
  const size_t section = static_cast<size_t>(add - cm.ops().begin()) + 1;
  const std::string path = temp_path("apt_corrupt_model_rbw.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  rewrite_artifact(path, section, [&](std::vector<uint8_t>& payload) {
    // Section layout: u8 kind, then i32 in0, in1, out.
    std::memcpy(payload.data() + 5, &add->out, sizeof(int32_t));
  });
  serve::CompiledModel loaded;
  const Status st = serve::CompiledModel::try_load(path, &loaded);
  EXPECT_EQ(st.code(), StatusCode::kCorrupt) << st.to_string();
  EXPECT_NE(st.to_string().find("read before"), std::string::npos)
      << st.to_string();
  std::filesystem::remove(path);
}

TEST(CompiledModelCorruption, RegisterWrittenTwiceIsCorrupt) {
  // Every op writes a fresh register. An add rewritten to accumulate in
  // place into its first input, and an op rewritten to overwrite the
  // request's input register, must both be refused.
  const serve::CompiledModel cm = compile_resnet8();
  const auto add = std::find_if(
      cm.ops().begin(), cm.ops().end(), [](const serve::CompiledOp& op) {
        return op.kind == serve::OpKind::kAddF32;
      });
  ASSERT_NE(add, cm.ops().end());
  struct Case {
    size_t op;
    int32_t out;
  };
  const Case cases[] = {
      {static_cast<size_t>(add - cm.ops().begin()), add->in0}, {0, 0}};
  const std::string path = temp_path("apt_corrupt_model_twice.aptm");
  for (const Case& c : cases) {
    ASSERT_TRUE(cm.try_save(path).ok());
    rewrite_artifact(path, c.op + 1, [&](std::vector<uint8_t>& payload) {
      // Section layout: u8 kind, then i32 in0, in1, out.
      std::memcpy(payload.data() + 9, &c.out, sizeof(int32_t));
    });
    serve::CompiledModel loaded;
    const Status st = serve::CompiledModel::try_load(path, &loaded);
    EXPECT_EQ(st.code(), StatusCode::kCorrupt)
        << "op " << c.op << ", out " << c.out << ": " << st.to_string();
    EXPECT_NE(st.to_string().find("written twice"), std::string::npos)
        << st.to_string();
  }
  std::filesystem::remove(path);
}

TEST(CompiledModelCorruption, UnwrittenOutputRegisterIsCorrupt) {
  // The header gains one register of the output's size that no op
  // writes, and names it the model's output: a response would be
  // whatever that register last held, so the load must be refused.
  const serve::CompiledModel cm = compile_resnet8();
  const std::string path = temp_path("apt_corrupt_model_unwritten.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  rewrite_artifact(path, 0, [&](std::vector<uint8_t>& payload) {
    // Header: i64 max_batch, the sample dims (u64 count + i64 each),
    // i64 out_elems, i32 out_reg, u64 register count, then per register
    // i64 elems and u8 codes.
    const auto rank = static_cast<size_t>(cm.sample_shape().rank());
    const size_t out_reg_at = 8 + 8 + 8 * rank + 8;
    const size_t regs_at = out_reg_at + 4;
    const auto extra = static_cast<int32_t>(cm.regs().size());
    const uint64_t count = cm.regs().size() + 1;
    std::memcpy(payload.data() + out_reg_at, &extra, sizeof(extra));
    std::memcpy(payload.data() + regs_at, &count, sizeof(count));
    const int64_t elems = cm.out_elems();
    const auto* p = reinterpret_cast<const uint8_t*>(&elems);
    payload.insert(payload.end(), p, p + sizeof(elems));
    payload.push_back(0);  // an fp32 register
  });
  serve::CompiledModel loaded;
  const Status st = serve::CompiledModel::try_load(path, &loaded);
  EXPECT_EQ(st.code(), StatusCode::kCorrupt) << st.to_string();
  EXPECT_NE(st.to_string().find("never written"), std::string::npos)
      << st.to_string();
  std::filesystem::remove(path);
}

// One field of a compiled-model section: its byte offset and width.
struct Field {
  std::string name;
  size_t offset = 0;
  size_t width = 0;  // 1, 4 or 8 bytes; a double when `real`
  bool real = false;
};

// The mutable fields of op section `payload` (CompiledModel::try_save's
// layout): kind, registers, geometry, ceiling, the three grids, and the
// ch_scale and wcodes lengths.
std::vector<Field> op_fields(const std::vector<uint8_t>& payload) {
  std::vector<Field> f = {{"kind", 0, 1}, {"in0", 1, 4}, {"in1", 5, 4},
                          {"out", 9, 4}};
  const char* geometry[] = {"c",  "h",      "w",      "oc",      "oh",
                            "ow", "kernel", "stride", "padding", "groups"};
  for (size_t i = 0; i < std::size(geometry); ++i)
    f.push_back({geometry[i], 13 + 8 * i, 8});
  f.push_back({"w_max", 100, 4});
  const char* grids[] = {"in_grid", "w_grid", "out_grid"};
  for (size_t g = 0; g < std::size(grids); ++g) {
    const size_t at = 104 + 20 * g;  // f64 scale, i64 zero-point, i32 bits
    f.push_back({std::string(grids[g]) + ".scale", at, 8, true});
    f.push_back({std::string(grids[g]) + ".zero_point", at + 8, 8});
    f.push_back({std::string(grids[g]) + ".bits", at + 16, 4});
  }
  auto count_at = [&](size_t at) {
    uint64_t n = 0;
    std::memcpy(&n, payload.data() + at, sizeof(n));
    return n;
  };
  const size_t scale_at = 164;
  const size_t bias_at = scale_at + 8 + 8 * count_at(scale_at);
  const size_t codes_at = bias_at + 8 + 4 * count_at(bias_at);
  f.push_back({"ch_scale.length", scale_at, 8});
  f.push_back({"wcodes.length", codes_at, 8});
  return f;
}

// One structure-aware mutation, drawn from a counter-keyed Philox seed:
// a section (the header or one op), one of its fields, and the value
// written there (-1, 0, the old value +-1, the register count, the op's
// own output register, or INT32_MAX).
struct Mutation {
  uint64_t seed;
  size_t section = 0;
  Field field;
  int64_t value = 0;

  Mutation(uint64_t s, const serve::CompiledModel& cm,
           const std::vector<std::vector<uint8_t>>& payloads)
      : seed(s) {
    uint64_t counter = 0;
    auto draw = [&](int64_t lo, int64_t hi) {
      const uint32_t word = philox_u32(0xc0de5eedULL ^ s, counter++);
      return lo +
             static_cast<int64_t>(word % static_cast<uint32_t>(hi - lo + 1));
    };
    section = static_cast<size_t>(
        draw(0, static_cast<int64_t>(cm.ops().size())));
    if (section == 0) {
      // Header: i64 max_batch, the sample dims (u64 count + i64 each),
      // i64 out_elems, i32 out_reg, u64 register count.
      const auto rank = static_cast<size_t>(cm.sample_shape().rank());
      const size_t regs_at = 8 + 8 + 8 * rank + 8 + 4;
      field = {"register count", regs_at, 8};
    } else {
      const std::vector<Field> fields = op_fields(payloads[section]);
      field = fields[static_cast<size_t>(
          draw(0, static_cast<int64_t>(fields.size()) - 1))];
    }
    int64_t old = 0;
    const std::vector<uint8_t>& bytes = payloads[section];
    if (field.real) {
      double d = 0;
      std::memcpy(&d, bytes.data() + field.offset, sizeof(d));
      old = static_cast<int64_t>(d);
    } else {
      std::memcpy(&old, bytes.data() + field.offset, field.width);
      if (field.width == 4) old = static_cast<int32_t>(old);
    }
    // Besides the edge values, an op's own output register: an input
    // rewired to it reads the register before the op writes it.
    const int64_t nregs = static_cast<int64_t>(cm.regs().size());
    const int64_t own_out = section == 0 ? 0 : cm.ops()[section - 1].out;
    const int64_t values[] = {-1,      0,     old - 1, old + 1,
                              nregs,   own_out,
                              std::numeric_limits<int32_t>::max()};
    value = values[draw(0, 6)];
  }

  void apply(std::vector<uint8_t>& payload) const {
    if (field.real) {
      const double d = static_cast<double>(value);
      std::memcpy(payload.data() + field.offset, &d, sizeof(d));
    } else {
      std::memcpy(payload.data() + field.offset, &value, field.width);
    }
  }

  std::string str() const {
    return "repro: seed " + std::to_string(seed) + " (section " +
           std::to_string(section) +
           (section == 0 ? " header" : " op " + std::to_string(section - 1)) +
           ", " + field.name + " = " + std::to_string(value) + ")";
  }
};

TEST(CompiledModelCorruption, CrcValidFieldMutationsAreCorruptOrServeStably) {
  // Each case rewrites one field of the compiled ResNet-8 with every CRC
  // valid. The loader must refuse it as kCorrupt, or the program it
  // accepts must serve a request with the same bytes on a fresh context
  // as on a context that has just served another request. A failure
  // names its seed; to rerun only it, set kFirstSeed to it and kCases
  // to 1.
  constexpr uint64_t kFirstSeed = 1;
  constexpr uint64_t kCases = 500;
  const serve::CompiledModel cm = compile_resnet8();
  const std::string path = temp_path("apt_corrupt_model_fields_mut.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  std::vector<uint8_t> reference;
  ASSERT_TRUE(io::read_file(path, &reference).ok());
  std::vector<std::vector<uint8_t>> payloads;
  {
    io::ArtifactReader reader;
    ASSERT_TRUE(
        reader.open(path, 0x4150544D, "apt-compiled-model/3").ok());
    for (size_t i = 0; i < reader.sections(); ++i) {
      io::BufReader r = reader.section(i);
      std::vector<uint8_t> payload(r.remaining());
      for (uint8_t& b : payload) b = r.pod<uint8_t>();
      payloads.push_back(std::move(payload));
    }
  }
  ASSERT_EQ(payloads.size(), cm.ops().size() + 1);

  const auto in_elems = static_cast<size_t>(cm.in_elems());
  std::vector<float> x(in_elems), other(in_elems);
  Rng rng(9);
  for (float& v : x) v = rng.uniform(-1, 1);
  for (float& v : other) v = rng.uniform(-1, 1);

  int corrupt = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kCases; ++seed) {
    const Mutation m(seed, cm, payloads);
    dump(path, reference);
    rewrite_artifact(path, m.section,
                     [&](std::vector<uint8_t>& payload) { m.apply(payload); });
    ASSERT_FALSE(HasFatalFailure()) << m.str();
    serve::CompiledModel loaded;
    const Status st = serve::CompiledModel::try_load(path, &loaded);
    if (!st.ok()) {
      ASSERT_EQ(st.code(), StatusCode::kCorrupt)
          << m.str() << ": " << st.to_string();
      ++corrupt;
      continue;
    }
    serve::InferenceContext fresh, used;
    const std::vector<float> want = serve_one(loaded, x, fresh);
    serve_one(loaded, other, used);
    const std::vector<float> got = serve_one(loaded, x, used);
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << m.str() << ": the response depends on the previous request";
  }
  // The draw reaches both outcomes: most mutations are refused, and some
  // (a grid's scale, an unread field) still load.
  EXPECT_GT(corrupt, 0);
  EXPECT_LT(corrupt, static_cast<int>(kCases));
  std::filesystem::remove(path);
}

TEST(CompiledModelCorruption, OtherSchemaRevisionIsVersionMismatch) {
  // A CRC-valid artifact of another apt-compiled-model revision is a file
  // from an incompatible release, not a damaged one.
  Rng rng(3);
  auto net = models::make_mlp(4, {6}, 3, rng);
  for (nn::Layer* leaf : nn::leaves_of(*net)) {
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) {
      core::GridOptions go;
      go.bits = 6;
      l->weight().rep =
          std::make_shared<core::GridRepresentation>(l->weight(), go);
    }
  }
  Tensor calib(Shape{8, 4});
  rng.fill_normal(calib, 0, 1);
  net->forward(calib, /*training=*/true);
  const serve::CompiledModel cm =
      serve::CompiledModel::compile(*net, Shape{4});
  const std::string path = temp_path("apt_corrupt_model_schema.aptm");
  ASSERT_TRUE(cm.try_save(path).ok());
  rewrite_artifact(
      path, 0, [](std::vector<uint8_t>&) {}, "apt-compiled-model/2");

  serve::CompiledModel loaded = cm;
  const Status st = serve::CompiledModel::try_load(path, &loaded);
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.to_string();
  EXPECT_NE(st.to_string().find("apt-compiled-model/2"), std::string::npos)
      << st.to_string();
  // *out is untouched: still the model it held before.
  ASSERT_EQ(loaded.ops().size(), cm.ops().size());
  for (size_t i = 0; i < cm.ops().size(); ++i)
    EXPECT_EQ(loaded.ops()[i].wcodes, cm.ops()[i].wcodes);
  std::filesystem::remove(path);
}

TEST(CompiledModelCorruption, GarbageFileReturnsCorrupt) {
  const std::string path = temp_path("apt_corrupt_garbage.aptm");
  std::ofstream(path) << "not an artifact";
  serve::CompiledModel loaded;
  EXPECT_EQ(serve::CompiledModel::try_load(path, &loaded).code(),
            StatusCode::kCorrupt);
  EXPECT_TRUE(loaded.ops().empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace apt
