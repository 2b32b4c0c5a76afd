#include "netsim/event_queue.h"

#include <utility>

namespace eden::netsim {

EventId Scheduler::at(SimTime when, std::function<void()> fn) {
  if (when < now()) when = now();
  const EventId id = next_id_++;
  queue_.push(Event{when, id, std::move(fn)});
  pending_.insert(id);
  ++live_events_;
  return id;
}

void Scheduler::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  if (pending_.erase(id) > 0) --live_events_;
}

bool Scheduler::pop_one() {
  while (!queue_.empty()) {
    // priority_queue::top is const; the closure must be moved out, so we
    // const_cast the function object (the element is removed right after).
    Event& top = const_cast<Event&>(queue_.top());
    const SimTime when = top.when;
    const EventId id = top.id;
    std::function<void()> fn = std::move(top.fn);
    queue_.pop();
    if (pending_.erase(id) == 0) continue;  // was cancelled
    --live_events_;
    now_.store(when, std::memory_order_relaxed);
    ++dispatched_;
    fn();
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(SimTime until) {
  std::uint64_t n = 0;
  for (;;) {
    // Drop cancelled events from the head so the horizon check below
    // looks at a live event.
    while (!queue_.empty() && pending_.find(queue_.top().id) == pending_.end()) {
      queue_.pop();
    }
    if (queue_.empty() || queue_.top().when > until) break;
    if (pop_one()) ++n;
  }
  // Advance the clock to the horizon even if nothing fired at it.
  if (now() < until) now_.store(until, std::memory_order_relaxed);
  return n;
}

std::uint64_t Scheduler::run() {
  std::uint64_t n = 0;
  while (pop_one()) ++n;
  return n;
}

}  // namespace eden::netsim
