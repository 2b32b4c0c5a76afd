// Discrete-event scheduler: the beating heart of the network simulator.
//
// Events are closures ordered by (time, insertion sequence); ties fire in
// scheduling order, which keeps runs deterministic. Cancellation is
// cooperative: cancel() marks the event and the dispatcher skips it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "netsim/sim_time.h"

namespace eden::netsim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Scheduler {
 public:
  // Safe to call from any thread: data-plane workers read the clock
  // (idle expiry) while the simulation thread advances it.
  SimTime now() const { return now_.load(std::memory_order_relaxed); }

  // Schedules `fn` at absolute time `when` (clamped to now). Returns an
  // id usable with cancel().
  EventId at(SimTime when, std::function<void()> fn);
  // Schedules `fn` `delay` nanoseconds from now.
  EventId after(SimTime delay, std::function<void()> fn) {
    return at(now() + delay, std::move(fn));
  }

  // Marks an event so it will not fire. Safe to call with an id that
  // already fired or was already cancelled (both are no-ops).
  void cancel(EventId id);

  // Runs events until the queue empties or the virtual clock passes
  // `until` (inclusive). Returns the number of events dispatched.
  std::uint64_t run_until(SimTime until);
  // Runs until the queue is empty.
  std::uint64_t run();

  bool empty() const { return live_events_ == 0; }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  struct Event {
    SimTime when;
    EventId id;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;  // FIFO among simultaneous events
    }
  };

  bool pop_one();

  // Written only by the thread that runs events.
  std::atomic<SimTime> now_{0};
  EventId next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::uint64_t live_events_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  // Ids currently in the queue and not cancelled. Cancellation is lazy:
  // cancel() removes the id here; the dispatcher skips events whose id is
  // no longer pending.
  std::unordered_set<EventId> pending_;
};

}  // namespace eden::netsim
