#include "sim/event_queue.hpp"

#include <bit>

namespace ccsim::sim {

// Default-initialised: the array's pages are touched only as the wheel
// turns onto them.
EventQueue::EventQueue() : newest_(std::make_unique_for_overwrite<std::uint32_t[]>(kSpan)) {}

void EventQueue::slab_thunk(void* q, std::uint64_t slot) {
  auto& self = *static_cast<EventQueue*>(q);
  const auto i = static_cast<std::uint32_t>(slot);
  // The slot is freed only after the callable returns (or throws): slab
  // addresses are stable, so callbacks it schedules take other slots.
  struct Release {
    Slab<Callback>& slab;
    std::uint32_t i;
    ~Release() { slab.release(i); }
  } release{self.callbacks_, i};
  Callback& c = self.callbacks_[i];
  c.run(c.storage);
}

std::uint32_t EventQueue::next_word(std::uint32_t w) const noexcept {
  for (std::uint32_t s = w / 64; s < kSummaryWords; ++s) {
    std::uint64_t bits = summary_[s];
    if (s == w / 64) bits &= ~std::uint64_t{0} << (w % 64);
    if (bits != 0) return s * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
  }
  return kWords;
}

std::uint32_t EventQueue::next_bucket(std::uint32_t b) const noexcept {
  const std::uint32_t w = b / 64;
  const std::uint64_t here = occupied_[w] & (~std::uint64_t{0} << (b % 64));
  if (here != 0) return w * 64 + static_cast<std::uint32_t>(std::countr_zero(here));
  std::uint32_t next = next_word(w + 1);
  // Wrapped: the word may be `w` itself, set only below `b`.
  if (next == kWords) next = next_word(0);
  return next * 64 + static_cast<std::uint32_t>(std::countr_zero(occupied_[next]));
}

void EventQueue::migrate() {
  while (!overflow_.empty() && overflow_.top().t - now_ < kSpan) {
    const Event ev = overflow_.top();
    overflow_.pop();
    append(bucket_of(ev.t), ev.thunk, ev.obj, ev.arg);
  }
}

bool EventQueue::step() {
  if (empty()) return false;
  const Cycle t = next_t_;
  if (t != now_) {
    now_ = t;
    if (!overflow_.empty() && overflow_.top().t - now_ < kSpan) migrate();
  }
  const std::uint32_t b = bucket_of(t);
  Node& newest = nodes_[newest_[b]];
  const std::uint32_t i = newest.next;  // the oldest
  const Node ev = nodes_[i];
  const bool last = i == newest_[b];
  if (!last) newest.next = ev.next;
  nodes_[i].next = free_;
  free_ = i;
  ++executed_;
  if (last) {
    std::uint64_t& word = occupied_[b / 64];
    word &= ~(std::uint64_t{1} << (b % 64));
    if (word == 0) summary_[b / 64 / 64] &= ~(std::uint64_t{1} << (b / 64 % 64));
    if (pending() > overflow_.size())
      next_t_ = now_ + ((next_bucket(b) - b) & kMask);
    else
      next_t_ = overflow_.empty() ? std::numeric_limits<Cycle>::max() : overflow_.top().t;
  }
  ev.thunk(ev.obj, ev.arg);
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

} // namespace ccsim::sim
