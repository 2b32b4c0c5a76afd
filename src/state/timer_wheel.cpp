#include "state/timer_wheel.h"

#include <utility>

namespace eden::state {

TimerWheel::TimerWheel(std::int64_t tick_ns, std::int64_t start_ns)
    : tick_ns_(tick_ns > 0 ? tick_ns : 1), current_tick_(tick_of(start_ns)) {}

void TimerWheel::unlink(TimerNode& node) {
  const std::uint32_t flat = node.slot_ - 1;
  std::vector<Item>& items = slots_[flat >> kSlotBits][flat & (kSlots - 1)];
  const Item last = items.back();
  items[node.index_] = last;
  last.node->index_ = node.index_;
  items.pop_back();
  node.slot_ = 0;
}

void TimerWheel::schedule(TimerNode& node, std::int64_t deadline_ns) {
  if (node.scheduled()) {
    unlink(node);
    --scheduled_;
  }
  place(node, tick_of(deadline_ns));
  ++scheduled_;
}

void TimerWheel::cancel(TimerNode& node) {
  if (!node.scheduled()) return;
  unlink(node);
  --scheduled_;
}

void TimerWheel::place(TimerNode& node, std::int64_t deadline_tick) {
  // Never into the cursor's tick or the past: the current slot has
  // already fired (or is mid-fire), so a stale deadline waits one tick
  // and lets the lazy re-arm check sort it out.
  std::int64_t at = deadline_tick;
  std::int64_t delta = at - current_tick_;
  if (delta < 1) {
    delta = 1;
    at = current_tick_ + 1;
  }
  // Past the horizon, clamp into the top level; the node cascades a
  // few laps early and re-places by its real deadline each time.
  const std::int64_t horizon = std::int64_t{1} << (kSlotBits * kLevels);
  if (delta >= horizon) {
    at = current_tick_ + horizon - 1;
    delta = horizon - 1;
  }
  int level = 0;
  while (delta >= (std::int64_t{1} << (kSlotBits * (level + 1)))) ++level;
  const std::size_t slot = slot_index(level, at);
  std::vector<Item>& items = slots_[level][slot];
  node.slot_ = static_cast<std::uint32_t>(1 + level * kSlots + slot);
  node.index_ = static_cast<std::uint32_t>(items.size());
  items.push_back({&node, deadline_tick});
}

void TimerWheel::cascade_due_levels() {
  for (int level = 1; level < kLevels; ++level) {
    const std::int64_t mask =
        (std::int64_t{1} << (kSlotBits * level)) - 1;
    if ((current_tick_ & mask) != 0) break;
    cascade(level, slot_index(level, current_tick_));
  }
}

void TimerWheel::cascade(int level, std::size_t slot) {
  // Move the array out so it is freed after the walk: a slot above
  // level 0 is reused only once per 64^level ticks. Every item
  // re-places strictly below `level`, or past the horizon into another
  // top-level slot.
  std::vector<Item> items = std::move(slots_[level][slot]);
  slots_[level][slot].clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i + kPrefetchAhead < items.size()) {
      __builtin_prefetch(items[i + kPrefetchAhead].node, 1, 3);
    }
    place(*items[i].node, items[i].deadline_tick);
  }
}

std::size_t TimerWheel::collect_oldest(TimerNode** out, std::size_t max) const {
  if (scheduled_ == 0 || max == 0) return 0;
  // Walk slots in (approximate) firing order: level 0 from the cursor
  // forward, then each higher level from its cursor position. The
  // first non-empty slot is the coarse oldest cohort.
  for (int level = 0; level < kLevels; ++level) {
    const std::size_t base = slot_index(level, current_tick_);
    for (std::size_t i = 1; i <= kSlots; ++i) {
      const std::vector<Item>& items =
          slots_[level][(base + i) & (kSlots - 1)];
      if (items.empty()) continue;
      std::size_t n = 0;
      for (; n < items.size() && n < max; ++n) out[n] = items[n].node;
      return n;
    }
  }
  return 0;
}

}  // namespace eden::state
