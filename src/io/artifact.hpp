// Checksummed, sectioned artifact container (DESIGN.md §16) — the
// common v2 on-disk envelope for checkpoints and compiled models.
//
// Layout (little-endian):
//
//   u32 magic          artifact family ("APTC", "APTM")
//   u32 version        container revision (2)
//   str schema         u64 length + bytes ("apt-checkpoint/2", ...)
//   u32 section_count
//   per section:       u64 payload size, u32 CRC-32
//   payloads           concatenated section bytes
//
// Every field participates in validation: the magic and schema must
// match, the version must be current, the section sizes must sum to
// exactly the file size, and every section must pass its CRC — so any
// single flipped or truncated byte anywhere in the file is detected and
// reported as a typed Status (the io_corruption_test sweep proves this
// byte by byte). Writing goes through write_file_atomic, so the file at
// the final path is always a complete, checksummed artifact.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "io/binary_io.hpp"

namespace apt::io {

/// Accumulates sections, then publishes them atomically.
class ArtifactWriter {
 public:
  ArtifactWriter(uint32_t magic, std::string schema)
      : magic_(magic), schema_(std::move(schema)) {}

  /// Starts a new section. Only the most recent section's writer may
  /// still be used; earlier ones are frozen.
  BufWriter section() {
    sections_.emplace_back();
    return BufWriter(&sections_.back());
  }

  /// Serialises the container and writes it via write_file_atomic.
  Status write(const std::string& path) const;

 private:
  uint32_t magic_;
  std::string schema_;
  std::deque<std::vector<uint8_t>> sections_;  // deque: stable addresses
};

/// Owns a validated artifact's bytes and exposes its sections.
class ArtifactReader {
 public:
  /// Reads and fully validates `path`: magic, version, schema, exact
  /// total size, and every section CRC. On failure the reader is left
  /// empty and the Status says which guarantee broke (kIoError /
  /// kTruncated / kCorrupt / kVersionMismatch — the last also when the
  /// schema names the same family, before its '/', at another revision).
  Status open(const std::string& path, uint32_t magic,
              const std::string& schema);

  size_t sections() const { return spans_.size(); }
  BufReader section(size_t i) const {
    return {bytes_.data() + spans_[i].offset, spans_[i].size};
  }

 private:
  struct Span {
    size_t offset = 0;
    size_t size = 0;
  };
  std::vector<uint8_t> bytes_;
  std::vector<Span> spans_;
};

/// Current container revision written by ArtifactWriter.
inline constexpr uint32_t kArtifactVersion = 2;

}  // namespace apt::io
