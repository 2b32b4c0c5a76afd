// Hierarchical timer wheel for idle-entry expiry.
//
// Four levels of 64 slots each cover 64 / 4k / 256k / 16M ticks of
// horizon (about 16M ticks total wrap; with the default 1 ms tick that
// is ~4.6 hours, far beyond any idle timeout we care about — deadlines
// past the horizon clamp into the top level and simply fire a few
// cascades early, which the lazy re-arm check absorbs).
//
// Design points, matching the "touch-on-access, lazy cascade" contract
// in ISSUE 9:
//   * Scheduling and advancing are O(1) amortized; a node is placed by
//     the distance of its deadline from the current tick, and higher
//     levels cascade one slot at a time as the cursor wraps a lower
//     level — nothing is rehashed on the fast path.
//   * Touch-on-access never moves a node. The store just stamps the
//     entry's last_touch; when the node's original slot fires, the
//     owner decides (from the fresh timestamp) whether the node is
//     really idle or should be lazily re-armed at its new deadline.
//   * Each slot is an array of (node, deadline tick) items, and a node
//     records its slot and its index there, so cancel is an O(1)
//     swap-remove. Firing and cascading walk a slot's array and
//     prefetch the node a few items ahead: a tick's re-arms overlap
//     their cache misses instead of chasing list pointers one at a
//     time. Level-0 arrays keep their capacity across laps, so a
//     steady firing rate does not allocate; an array above level 0 is
//     reused only once per 64^level ticks, so cascading frees it.
//
// Not thread-safe; the owning FlowStore shard serializes access under
// its shard lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eden::state {

// Eight bytes, so it packs into the first cache line of a FlowStore
// entry beside the key, the touch stamp and the entry lock.
class TimerNode {
 public:
  bool scheduled() const { return slot_ != 0; }

 private:
  friend class TimerWheel;
  std::uint32_t slot_ = 0;   // 1 + level * kSlots + slot; 0 = unscheduled
  std::uint32_t index_ = 0;  // position in that slot's array
};

class TimerWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr int kLevels = 4;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 64

  // `tick_ns` is the level-0 granularity; `start_ns` anchors tick 0 so
  // the first schedule lands near the cursor.
  explicit TimerWheel(std::int64_t tick_ns, std::int64_t start_ns = 0);

  // Inserts or moves `node` so it fires no earlier than `deadline_ns`
  // (quantized down to a tick, never into the past of the cursor).
  void schedule(TimerNode& node, std::int64_t deadline_ns);

  void cancel(TimerNode& node);

  // Moves the cursor to `now_ns` while the wheel is empty (cheap way
  // to skip an idle gap before the first schedule). No-op otherwise.
  void reanchor(std::int64_t now_ns) {
    if (scheduled_ == 0) current_tick_ = tick_of(now_ns);
  }

  // Advances the cursor to `now_ns`, cascading higher levels as slots
  // wrap, and calls `fn(node)` for every node whose slot fires. The
  // callback owns the node's fate: re-schedule it (lazy re-arm) or
  // leave it unlinked (expired). `fn` may schedule/cancel freely,
  // including other nodes due in the same tick: a node cancelled
  // before its turn never fires, and one rescheduled fires once, at
  // its new deadline.
  template <typename Fn>
  void advance(std::int64_t now_ns, Fn&& fn) {
    const std::int64_t target = tick_of(now_ns);
    while (current_tick_ < target) {
      // Empty wheel: nothing can fire, so teleport the cursor instead
      // of stepping through a potentially hours-long idle gap.
      if (scheduled_ == 0) {
        current_tick_ = target;
        break;
      }
      step_one_tick(fn);
    }
  }

  // Collects up to `max` nodes from the earliest non-empty slot in
  // firing order (the coarse "oldest" cohort) for capacity eviction.
  // Returns the number written to `out`.
  std::size_t collect_oldest(TimerNode** out, std::size_t max) const;

  std::size_t scheduled_count() const { return scheduled_; }
  std::int64_t tick_ns() const { return tick_ns_; }
  std::int64_t current_tick() const { return current_tick_; }

 private:
  struct Item {
    TimerNode* node;
    std::int64_t deadline_tick;
  };

  // How far ahead of the walk firing and cascading prefetch a node.
  static constexpr std::size_t kPrefetchAhead = 8;

  std::int64_t tick_of(std::int64_t ns) const { return ns / tick_ns_; }
  void place(TimerNode& node, std::int64_t deadline_tick);
  void unlink(TimerNode& node);

  template <typename Fn>
  void step_one_tick(Fn& fn) {
    ++current_tick_;
    cascade_due_levels();
    // Fire in place. Nothing is placed into the firing slot while it
    // fires (a deadline in the current tick lands one tick later), so
    // the array only shrinks: a callback's cancel or reschedule of a
    // node not yet fired swap-removes it from behind the walk, and the
    // fired prefix stays put until the slot is cleared.
    std::vector<Item>& items = slots_[0][slot_index(0, current_tick_)];
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i + kPrefetchAhead < items.size()) {
        __builtin_prefetch(items[i + kPrefetchAhead].node, 1, 3);
      }
      TimerNode* node = items[i].node;
      node->slot_ = 0;
      --scheduled_;
      fn(node);
    }
    items.clear();
  }

  std::size_t slot_index(int level, std::int64_t tick) const {
    return static_cast<std::size_t>(tick >> (kSlotBits * level)) & (kSlots - 1);
  }

  void cascade_due_levels();
  void cascade(int level, std::size_t slot);

  std::int64_t tick_ns_;
  std::int64_t current_tick_;
  std::size_t scheduled_ = 0;
  std::vector<Item> slots_[kLevels][kSlots];
};

}  // namespace eden::state
