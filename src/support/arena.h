// Bump-pointer arena for the analysis data structures (AST nodes, CFG
// basic blocks, per-function taint results). One owner — a
// TranslationUnit, a Cfg, an Analyzer run — allocates many small nodes,
// then frees them all at once: exactly the lifetime the pipeline has, and
// exactly what malloc-per-node wastes time on at amplified-corpus scale.
//
// Lifetime rules (see DESIGN §10):
//   * The arena only hands out raw storage; object destructors still run,
//     via ArenaPtr (std::unique_ptr with a destroy-only deleter).
//   * The arena must outlive every ArenaPtr into it. Owners declare the
//     arena as their *first* member so it is destroyed last.
//   * There is no per-object free: memory is reclaimed by reset() (when
//     no arena object is alive) or by destroying the arena.
//
// Growth: the first block is small and each new block doubles, up to a
// cap, so an arena reserves memory in proportion to what it hands out
// (there is one per CFG and one per analyzer, and most hand out a few
// hundred bytes). Blocks are not zero-filled: a page becomes resident
// only when an object is constructed on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace fsdep {

class Arena {
 public:
  static constexpr std::size_t kFirstBlockSize = 1024;
  static constexpr std::size_t kMaxBlockSize = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Raw storage of `size` bytes aligned to `align`. Never returns null.
  /// A request larger than the next growth block gets a dedicated block
  /// of exactly its size, and bumping continues in the current block.
  void* allocate(std::size_t size, std::size_t align) {
    total_used_ += size;
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (!blocks_.empty() && offset + size <= blocks_.back().size) {
      used_ = offset + size;
      return blocks_.back().data.get() + offset;
    }
    if (size > next_block_size_) {
      Block& dedicated = *blocks_.insert(blocks_.empty() ? blocks_.end() : blocks_.end() - 1,
                                         newBlock(size));
      if (blocks_.size() == 1) used_ = size;
      return dedicated.data.get();
    }
    blocks_.push_back(newBlock(next_block_size_));
    next_block_size_ = std::min(2 * next_block_size_, kMaxBlockSize);
    used_ = size;
    return blocks_.back().data.get();
  }

  /// Constructs a T in the arena. The caller owns the object's lifetime
  /// (wrap it in an ArenaPtr so its destructor runs); the storage is the
  /// arena's until reset() or destruction.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Drops every block but the first and rewinds it; growth restarts
  /// from the first block's size. Only legal when no object allocated
  /// from this arena is still alive.
  void reset() {
    if (blocks_.size() > 1) blocks_.erase(blocks_.begin() + 1, blocks_.end());
    used_ = 0;
    total_used_ = 0;
    next_block_size_ =
        blocks_.empty() ? kFirstBlockSize : std::min(2 * blocks_.front().size, kMaxBlockSize);
  }

  [[nodiscard]] std::size_t blockCount() const { return blocks_.size(); }
  /// Bytes handed out since the last reset.
  [[nodiscard]] std::size_t bytesUsed() const { return total_used_; }
  /// Bytes the arena holds: the sum of its block sizes.
  [[nodiscard]] std::size_t bytesReserved() const {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  static Block newBlock(std::size_t size) {
    return Block{std::make_unique_for_overwrite<std::byte[]>(size), size};
  }

  std::vector<Block> blocks_;
  std::size_t used_ = 0;        ///< bump offset within blocks_.back()
  std::size_t total_used_ = 0;  ///< bytes handed out since last reset
  std::size_t next_block_size_ = kFirstBlockSize;
};

/// Deleter that runs the destructor but returns no memory — the arena
/// owns the storage. unique_ptr semantics (moves, resets, conversions
/// derived->base) are unchanged.
struct ArenaDelete {
  template <typename T>
  void operator()(T* p) const noexcept {
    if (p != nullptr) p->~T();
  }
};

/// Owning pointer to an arena-allocated object.
template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

}  // namespace fsdep
