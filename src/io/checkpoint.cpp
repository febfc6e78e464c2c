#include "io/checkpoint.hpp"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "io/artifact.hpp"
#include "nn/batchnorm.hpp"

namespace apt::io {
namespace {

constexpr uint32_t kMagic = 0x41505443;  // "APTC"
constexpr const char* kSchema = "apt-checkpoint/2";

/// Sanity ceiling for one record (2^40 floats ≈ 4 TB): anything larger
/// cannot be a real checkpoint and must not drive an allocation.
constexpr uint64_t kMaxElems = uint64_t{1} << 40;

void write_tensor(ArtifactWriter& artifact, const std::string& name,
                  const apt::Tensor& t) {
  BufWriter w = artifact.section();
  w.str(name);
  w.pod<uint64_t>(static_cast<uint64_t>(t.shape().rank()));
  for (int64_t d : t.shape().dims()) w.pod<int64_t>(d);
  w.pod<uint64_t>(static_cast<uint64_t>(t.numel()));
  w.bytes(t.data(), sizeof(float) * static_cast<size_t>(t.numel()));
}

struct Record {
  apt::Shape shape;
  std::vector<float> data;
};

Status read_all(const std::string& path,
                std::map<std::string, Record>* records) {
  ArtifactReader artifact;
  Status st = artifact.open(path, kMagic, kSchema);
  if (!st.ok()) return st;

  for (size_t i = 0; i < artifact.sections(); ++i) {
    BufReader r = artifact.section(i);
    std::string name = r.str();
    const auto rank = r.pod<uint64_t>();
    auto corrupt = [&](const char* why) {
      return Status{StatusCode::kCorrupt,
                    path + ": record " + std::to_string(i) + " (" + name +
                        "): " + why};
    };
    if (!r.ok() || name.empty()) return corrupt("bad name or rank");
    if (rank > 16) return corrupt("implausible rank");
    std::vector<int64_t> dims(static_cast<size_t>(rank));
    uint64_t numel = 1;
    for (auto& d : dims) {
      d = r.pod<int64_t>();
      if (!r.ok() || d < 0) return corrupt("bad dim");
      const auto u = static_cast<uint64_t>(d);
      if (u != 0 && numel > kMaxElems / u) return corrupt("oversized shape");
      numel *= u;
    }
    Record rec{apt::Shape(dims), r.vec<float>()};
    if (!r.exhausted()) return corrupt("truncated or oversized data");
    if (rec.data.size() != numel) return corrupt("data does not match shape");
    if (!records->emplace(std::move(name), std::move(rec)).second)
      return corrupt("duplicate record name");
  }
  return Status::Ok();
}

}  // namespace

Status try_save_checkpoint(nn::Layer& model, const std::string& path) {
  ArtifactWriter artifact(kMagic, kSchema);
  for (nn::Layer* leaf : nn::leaves_of(model)) {
    for (nn::Parameter* p : leaf->parameters())
      write_tensor(artifact, p->name, p->value);
    if (auto* bn = dynamic_cast<nn::BatchNorm*>(leaf)) {
      write_tensor(artifact, bn->name() + ".running_mean", bn->running_mean());
      write_tensor(artifact, bn->name() + ".running_var", bn->running_var());
    }
  }
  return artifact.write(path);
}

Status try_load_checkpoint(nn::Layer& model, const std::string& path) {
  std::map<std::string, Record> records;
  Status st = read_all(path, &records);
  if (!st.ok()) return st;

  // Two phases — verify everything, then copy — so a failed load leaves
  // the model untouched rather than half-restored.
  Status verify = Status::Ok();
  auto fetch = [&](const std::string& name, const apt::Shape& shape,
                   apt::Tensor* dst) -> const Record* {
    const auto it = records.find(name);
    if (it == records.end()) {
      if (verify.ok())
        verify = {StatusCode::kInvalidArgument,
                  path + ": checkpoint missing " + name};
      return nullptr;
    }
    if (it->second.shape != shape) {
      if (verify.ok())
        verify = {StatusCode::kInvalidArgument,
                  path + ": " + name + ": shape " + it->second.shape.str() +
                      " != " + shape.str()};
      return nullptr;
    }
    if (dst != nullptr)
      std::copy(it->second.data.begin(), it->second.data.end(), dst->data());
    return &it->second;
  };

  const std::vector<nn::Layer*> leaves = nn::leaves_of(model);
  for (const bool apply : {false, true}) {
    for (nn::Layer* leaf : leaves) {
      for (nn::Parameter* p : leaf->parameters()) {
        fetch(p->name, p->value.shape(), apply ? &p->value : nullptr);
        if (apply && p->rep != nullptr)
          p->rep->refit_range(*p);  // storage must re-track values
      }
      if (auto* bn = dynamic_cast<nn::BatchNorm*>(leaf)) {
        Tensor mean(Shape{bn->running_mean().numel()});
        Tensor var(Shape{bn->running_var().numel()});
        const Record* m =
            fetch(bn->name() + ".running_mean", mean.shape(),
                  apply ? &mean : nullptr);
        const Record* v = fetch(bn->name() + ".running_var", var.shape(),
                                apply ? &var : nullptr);
        if (apply && m != nullptr && v != nullptr)
          bn->set_running_stats(mean, var);
      }
    }
    if (!verify.ok()) return verify;
  }
  return Status::Ok();
}

}  // namespace apt::io
