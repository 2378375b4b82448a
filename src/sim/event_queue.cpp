#include "sim/event_queue.hpp"

#include <cassert>

namespace ccsim::sim {

void EventQueue::schedule_thunk(Cycle t, Thunk thunk, void* obj, std::uint64_t arg) {
  assert(t >= now_ && "cannot schedule an event in the past");
  heap_.push(Event{t, next_seq_++, thunk, obj, arg});
}

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

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Event ev = heap_.top();
  heap_.pop();
  now_ = ev.t;
  ++executed_;
  ev.thunk(ev.obj, ev.arg);
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

} // namespace ccsim::sim
