// Thread-local bump-allocated scratch arena for kernel workspaces.
//
// Hot paths (the packed GEMM backend, im2col convolution) need large
// temporaries on every call; grabbing them with std::vector costs a
// malloc/free round-trip plus a zero-fill per task. The arena instead
// keeps cache-aligned blocks alive per thread and hands out
// watermark-scoped sub-buffers:
//
//   auto& arena = ScratchArena::thread_local_arena();
//   ScratchArena::Scope scope(arena);
//   float* cols = scope.alloc_floats(krows * oh * ow);   // uninitialised
//   ... // nested scopes (a GEMM called from a conv task) are fine
//   // scope destructor releases the watermark; memory stays reserved
//
// Blocks are chained, never reallocated, so pointers handed out stay
// valid for as long as their Scope lives even when a nested allocation
// grows the arena. When the outermost scope closes, fragmented blocks
// are coalesced into one so steady state is a single reused slab.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/check.hpp"

namespace apt {

class ScratchArena {
 public:
  /// Cache-line / AVX-512 friendly alignment for every allocation.
  static constexpr size_t kAlignment = 64;

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Per-thread arena; pool workers reuse theirs across tasks.
  static ScratchArena& thread_local_arena() {
    static thread_local ScratchArena arena;
    return arena;
  }

  /// Bytes currently reserved across all blocks.
  size_t capacity() const {
    size_t total = 0;
    for (const auto& b : blocks_) total += b.size;
    return total;
  }

  /// Bytes handed out under the currently open scopes.
  size_t in_use() const {
    size_t total = 0;
    for (const auto& b : blocks_) total += b.used;
    return total;
  }

  /// High-water mark of in_use() since construction (or the last
  /// reset_peak). Lets tests assert a code path's true scratch
  /// footprint — e.g. that the 1x1 direct-GEMM conv plan stages
  /// nothing — independent of the capacity blocks already hold.
  size_t peak_in_use() const { return peak_; }
  void reset_peak() { peak_ = in_use(); }

  /// RAII watermark. Allocations made through a Scope are released (not
  /// freed) when it is destroyed; Scopes nest like stack frames and must
  /// be destroyed in reverse order of construction.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena), depth_(arena.open_scopes_++) {
      saved_.reserve(arena_.blocks_.size());
      for (const auto& b : arena_.blocks_) saved_.push_back(b.used);
    }

    ~Scope() {
      // Blocks appended after construction are fully released.
      for (size_t i = 0; i < arena_.blocks_.size(); ++i)
        arena_.blocks_[i].used = i < saved_.size() ? saved_[i] : 0;
      --arena_.open_scopes_;
      if (depth_ == 0) arena_.coalesce();
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Uninitialised, kAlignment-aligned storage valid until this Scope
    /// (or an enclosing one) is destroyed.
    void* alloc_bytes(size_t bytes) { return arena_.alloc(bytes); }
    float* alloc_floats(size_t n) {
      return static_cast<float*>(arena_.alloc(n * sizeof(float)));
    }

   private:
    ScratchArena& arena_;
    int depth_;
    std::vector<size_t> saved_;  // per-block watermarks at construction
  };

 private:
  struct Block {
    std::unique_ptr<std::byte[]> storage;  // raw, over-allocated
    std::byte* base = nullptr;             // aligned start
    size_t size = 0;                       // usable bytes from base
    size_t used = 0;
  };

  static size_t round_up(size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  static Block make_block(size_t size) {
    Block b;
    b.storage = std::make_unique<std::byte[]>(size + kAlignment);
    const auto addr = reinterpret_cast<uintptr_t>(b.storage.get());
    b.base = b.storage.get() + (round_up(addr) - addr);
    b.size = size;
    return b;
  }

  void* alloc(size_t bytes) {
    bytes = round_up(bytes ? bytes : 1);
    // First fit over existing blocks; earlier blocks stay partially used
    // (their live pointers must not move), later ones may be empty.
    for (auto& b : blocks_) {
      if (b.size - b.used >= bytes) {
        void* p = b.base + b.used;
        b.used += bytes;
        note_peak();
        return p;
      }
    }
    // Grow geometrically so long-running threads converge on one slab.
    const size_t last = blocks_.empty() ? 0 : blocks_.back().size;
    blocks_.push_back(make_block(std::max({bytes, 2 * last, kMinBlock})));
    blocks_.back().used = bytes;
    note_peak();
    return blocks_.back().base;
  }

  void note_peak() {
    const size_t live = in_use();
    if (live > peak_) peak_ = live;
  }

  /// With no scope open (all watermarks zero), replace a fragmented chain
  /// by one slab of the combined size, keeping reuse O(1) thereafter.
  void coalesce() {
    if (blocks_.size() <= 1) return;
    APT_CHECK(in_use() == 0) << "arena coalesce with live allocations";
    const size_t total = capacity();
    blocks_.clear();
    blocks_.push_back(make_block(total));
  }

  static constexpr size_t kMinBlock = 64 * 1024;

  std::vector<Block> blocks_;
  int open_scopes_ = 0;
  size_t peak_ = 0;
};

}  // namespace apt
