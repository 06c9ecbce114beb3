// Scratch-buffer arena for hot-loop temporaries.
//
// A Workspace is a bump allocator over a small set of heap blocks.
// Kernels take() typed spans for per-call temporaries instead of
// constructing std::vectors; after a warm-up call has sized the arena,
// every subsequent take() is pointer arithmetic and the steady-state
// hot loop performs zero heap allocations. grow_count() exposes how
// often the arena had to touch the heap, which the tests use to assert
// the zero-allocation contract.
//
// Ownership rules (see DESIGN.md §7):
//  * A Workspace is single-threaded. Cross-thread use is a bug; the
//    parallel layers give each pool worker its own arena via
//    thread_workspace().
//  * Library code never reset()s a workspace it was handed — callers
//    may hold live spans. Internal temporaries are scoped with
//    Workspace::Scope (mark/rewind), which returns the arena to its
//    entry state on scope exit, so nested kernels compose.
//  * take() returns uninitialized storage; the previous contents are
//    stale, not zero.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"

namespace emoleak::util {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Opaque position used to rewind nested scratch usage.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  /// Uninitialized scratch for `count` elements of trivially
  /// destructible type T, aligned for T. Valid until the enclosing
  /// Scope exits (or reset()).
  template <typename T>
  [[nodiscard]] std::span<T> take(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Workspace only holds trivially destructible types");
    void* p = raw(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  [[nodiscard]] Mark mark() const noexcept {
    if (blocks_.empty()) return Mark{};
    // Record the *active* bump position, not the last block: an inner
    // scope may have grown new blocks past the caller's position, and
    // rewinding to the last block would leak everything before it.
    return Mark{active_, blocks_[active_].used};
  }

  /// Returns the arena to a previous mark(); spans taken after the
  /// mark become invalid. Blocks allocated in between are kept (their
  /// capacity is merged into one block at the next reset/coalesce).
  void rewind(Mark m) noexcept {
    if (blocks_.empty()) return;
    if (m.block >= blocks_.size()) return;  // stale mark; keep state
    for (std::size_t b = m.block + 1; b < blocks_.size(); ++b) {
      blocks_[b].used = 0;
    }
    blocks_[m.block].used = m.used;
    active_ = m.block;
  }

  /// RAII mark/rewind for internal temporaries.
  class Scope {
   public:
    explicit Scope(Workspace& ws) noexcept : ws_{ws}, mark_{ws.mark()} {}
    ~Scope() { ws_.rewind(mark_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    Mark mark_;
  };

  /// Frees all outstanding spans and coalesces fragmented blocks into
  /// one, so the steady state is a single block that never regrows.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) total += b.capacity;
      blocks_.clear();
      add_block(total);
    }
    for (Block& b : blocks_) b.used = 0;
    active_ = 0;
  }

  /// Frees every block: capacity drops to 0 and, as with reset(), all
  /// outstanding spans become invalid. The next take() grows afresh.
  /// For owners whose hot loop is over (a trained layer's training
  /// scratch), not for use between calls of a steady-state loop.
  void release() noexcept {
    blocks_.clear();
    active_ = 0;
  }

  /// Number of times the arena had to allocate from the heap. Stable
  /// across calls == the hot loop is allocation-free.
  [[nodiscard]] std::size_t grow_count() const noexcept { return grows_; }

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.capacity;
    return total;
  }

  [[nodiscard]] std::size_t used_bytes() const noexcept {
    std::size_t total = 0;
    for (std::size_t b = 0; b <= active_ && b < blocks_.size(); ++b) {
      total += blocks_[b].used;
    }
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kMinBlock = 4096;

  void* raw(std::size_t bytes, std::size_t align) {
    // Try the active block, then any later (already-allocated) block.
    while (active_ < blocks_.size()) {
      Block& b = blocks_[active_];
      const std::size_t offset = (b.used + align - 1) & ~(align - 1);
      if (offset + bytes <= b.capacity) {
        b.used = offset + bytes;
        return b.data.get() + offset;
      }
      if (active_ + 1 >= blocks_.size()) break;
      ++active_;
    }
    // Grow: geometric doubling bounds the number of warm-up grows.
    std::size_t want = bytes + align;
    const std::size_t doubled = 2 * capacity_bytes();
    if (want < doubled) want = doubled;
    if (want < kMinBlock) want = kMinBlock;
    add_block(want);
    active_ = blocks_.size() - 1;
    Block& b = blocks_.back();
    const std::size_t offset = (b.used + align - 1) & ~(align - 1);
    b.used = offset + bytes;
    return b.data.get() + offset;
  }

  void add_block(std::size_t capacity) {
    Block b;
    b.data = std::make_unique<std::byte[]>(capacity);
    b.capacity = capacity;
    blocks_.push_back(std::move(b));
    ++grows_;
    // Aggregate grow count across every arena in the process: the
    // zero-allocation contract ("steady-state hot loops never grow")
    // becomes a monitored invariant instead of a per-test assertion.
    // Grows are warm-up-only, so the registry lookup here is cold.
    obs::Registry::instance().counter("workspace.grows").add(1);
    obs::Registry::instance().counter("workspace.bytes_allocated").add(capacity);
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t grows_ = 0;
};

/// The calling thread's scratch arena. Library entry points that do not
/// take an explicit Workspace parameter draw their temporaries from
/// here (scoped, so nested calls compose); pool workers each get their
/// own arena that persists across tasks, which is what makes repeated
/// extraction/inference allocation-free in steady state.
[[nodiscard]] inline Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace emoleak::util
