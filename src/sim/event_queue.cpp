#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace ccsim::sim {

void EventQueue::schedule_at(Cycle t, Action fn) {
  assert(t >= now_ && "cannot schedule an event in the past");
  heap_.push(Event{t, next_seq_++, std::move(fn)});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // priority_queue::top() is const; the action must be moved out before pop.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  now_ = ev.t;
  ++executed_;
  ev.fn();
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

} // namespace ccsim::sim
