// Slot pool with stable addresses and a free list.
//
// The event kernel and its producers keep per-event state (a stored
// callback, a message in flight, a reply waiting on its memory bank) in
// slots named by a 32-bit index, so the queue's record stays a few plain
// words. Slots live in fixed-size chunks that never move: a slot may stay
// in use while its owner acquires more (a sink that sends inside
// deliver(), a callback that schedules callbacks), and released slots are
// reused last-in first-out. After warm-up -- once the pool has grown to the
// run's peak occupancy -- acquire() and release() never allocate. Chunks
// are small because a machine has one pool per home node, most of which
// never hold more than a few slots at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ccsim::sim {

template <class T>
class Slab {
public:
  static constexpr std::size_t kChunk = 32;  ///< slots per chunk

  /// A free slot's index, growing the pool by one chunk if none is free.
  [[nodiscard]] std::uint32_t acquire() {
    if (free_.empty()) grow();
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }

  /// Return slot `i` to the pool. Its value stays as it was until reuse.
  void release(std::uint32_t i) { free_.push_back(i); }

  [[nodiscard]] T& operator[](std::uint32_t i) noexcept {
    return chunks_[i / kChunk][i % kChunk];
  }

  /// Slots ever created (the pool's peak occupancy, rounded up to a chunk).
  [[nodiscard]] std::size_t capacity() const noexcept { return chunks_.size() * kChunk; }

private:
  void grow() {
    const auto base = static_cast<std::uint32_t>(capacity());
    chunks_.push_back(std::make_unique<T[]>(kChunk));
    // Room for every slot, so release() never reallocates.
    free_.reserve(capacity());
    // Lowest index on top: a fresh chunk hands out its slots in order.
    for (std::size_t k = kChunk; k-- > 0;)
      free_.push_back(base + static_cast<std::uint32_t>(k));
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
};

} // namespace ccsim::sim
