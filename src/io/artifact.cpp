#include "io/artifact.hpp"

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"

namespace apt::io {

Status ArtifactWriter::write(const std::string& path) const {
  std::vector<uint8_t> file;
  size_t payload = 0;
  for (const auto& s : sections_) payload += s.size();
  file.reserve(64 + 12 * sections_.size() + payload);

  BufWriter w(&file);
  w.pod<uint32_t>(magic_);
  w.pod<uint32_t>(kArtifactVersion);
  w.str(schema_);
  w.pod<uint32_t>(static_cast<uint32_t>(sections_.size()));
  for (const auto& s : sections_) {
    w.pod<uint64_t>(s.size());
    w.pod<uint32_t>(crc32(s.data(), s.size()));
  }
  for (const auto& s : sections_) w.bytes(s.data(), s.size());
  return write_file_atomic(path, file.data(), file.size());
}

Status ArtifactReader::open(const std::string& path, uint32_t magic,
                            const std::string& schema) {
  bytes_.clear();
  spans_.clear();
  Status st = read_file(path, &bytes_);
  if (!st.ok()) return st;

  BufReader r(bytes_.data(), bytes_.size());
  const auto got_magic = r.pod<uint32_t>();
  const auto got_version = r.pod<uint32_t>();
  if (!r.ok()) {
    bytes_.clear();
    return {StatusCode::kTruncated, path + ": shorter than the preamble"};
  }
  if (got_magic != magic) {
    bytes_.clear();
    return {StatusCode::kCorrupt, path + ": bad magic"};
  }
  if (got_version != kArtifactVersion) {
    bytes_.clear();
    return {StatusCode::kVersionMismatch,
            path + ": container version " + std::to_string(got_version) +
                ", expected " + std::to_string(kArtifactVersion)};
  }
  const std::string got_schema = r.str();
  if (!r.ok()) {
    bytes_.clear();
    return {StatusCode::kTruncated, path + ": truncated schema string"};
  }
  if (got_schema != schema) {
    bytes_.clear();
    // The same family at another revision ("apt-compiled-model/2" for
    // "/3") is a file from an incompatible release, not a damaged one.
    auto family = [](const std::string& v) {
      return v.substr(0, v.find('/'));
    };
    return {family(got_schema) == family(schema) ? StatusCode::kVersionMismatch
                                                 : StatusCode::kCorrupt,
            path + ": schema \"" + got_schema + "\", expected \"" + schema +
                "\""};
  }

  const auto count = r.pod<uint32_t>();
  // 12 bytes of table per section; reject impossible counts before the
  // table loop so an adversarial count cannot make us iterate billions
  // of failing reads.
  if (!r.ok() || count > r.remaining() / 12) {
    bytes_.clear();
    return {StatusCode::kTruncated, path + ": truncated section table"};
  }
  struct Entry {
    uint64_t size;
    uint32_t crc;
  };
  std::vector<Entry> table(count);
  for (Entry& e : table) {
    e.size = r.pod<uint64_t>();
    e.crc = r.pod<uint32_t>();
  }

  // The payloads must account for *exactly* the bytes that remain: a
  // shortfall is truncation, surplus bytes are corruption (a v2 file
  // never carries trailing data).
  uint64_t total = 0;
  for (const Entry& e : table) {
    total += e.size;
    if (total < e.size || total > r.remaining()) {
      bytes_.clear();
      return {StatusCode::kTruncated,
              path + ": sections larger than the file"};
    }
  }
  if (total != r.remaining()) {
    bytes_.clear();
    return {StatusCode::kCorrupt, path + ": trailing bytes after sections"};
  }

  size_t offset = bytes_.size() - static_cast<size_t>(total);
  spans_.reserve(count);
  for (const Entry& e : table) {
    const auto size = static_cast<size_t>(e.size);
    if (crc32(bytes_.data() + offset, size) != e.crc) {
      const auto idx = std::to_string(spans_.size());
      bytes_.clear();
      spans_.clear();
      return {StatusCode::kCorrupt,
              path + ": checksum mismatch in section " + idx};
    }
    spans_.push_back({offset, size});
    offset += size;
  }
  return Status::Ok();
}

}  // namespace apt::io
