// Adversarial-input hardening for the v2 artifact loaders (DESIGN.md
// §16): the byte-level mutation/truncation sweep. Every single-byte
// flip and every truncation length of a checkpoint and a compiled-model
// artifact must come back as a typed Status — never a crash, never an
// OOM from a hostile length field, and never silent acceptance — and a
// failed load must leave the target model untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/grid_representation.hpp"
#include "io/artifact.hpp"
#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "models/zoo.hpp"
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
