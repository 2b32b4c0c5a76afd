// TimerWheel unit + differential property tests (ISSUE 9).
#include "src/state/timer_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace eden::state {
namespace {

constexpr std::int64_t kTick = 100;  // ns per tick

std::vector<TimerNode*> advance_collect(TimerWheel& wheel,
                                        std::int64_t now_ns) {
  std::vector<TimerNode*> fired;
  wheel.advance(now_ns, [&](TimerNode* n) { fired.push_back(n); });
  return fired;
}

TEST(TimerWheel, FiresAtDeadlineNotBefore) {
  TimerWheel wheel(kTick);
  TimerNode node;
  wheel.schedule(node, 1000);
  EXPECT_TRUE(node.scheduled());
  EXPECT_TRUE(advance_collect(wheel, 999).empty());
  const auto fired = advance_collect(wheel, 1100);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], &node);
  EXPECT_FALSE(node.scheduled());
  EXPECT_EQ(wheel.scheduled_count(), 0u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextTick) {
  TimerWheel wheel(kTick);
  advance_collect(wheel, 5000);
  TimerNode node;
  wheel.schedule(node, 0);  // already past
  EXPECT_TRUE(advance_collect(wheel, 5000).empty());
  EXPECT_EQ(advance_collect(wheel, 5000 + 2 * kTick).size(), 1u);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel(kTick);
  TimerNode node;
  wheel.schedule(node, 500);
  wheel.cancel(node);
  EXPECT_FALSE(node.scheduled());
  EXPECT_EQ(wheel.scheduled_count(), 0u);
  EXPECT_TRUE(advance_collect(wheel, 10'000).empty());
  // Cancel is idempotent.
  wheel.cancel(node);
}

TEST(TimerWheel, RescheduleMovesTheNode) {
  TimerWheel wheel(kTick);
  TimerNode node;
  wheel.schedule(node, 500);
  wheel.schedule(node, 5000);
  EXPECT_EQ(wheel.scheduled_count(), 1u);
  EXPECT_TRUE(advance_collect(wheel, 1000).empty());
  EXPECT_EQ(advance_collect(wheel, 5100).size(), 1u);
}

TEST(TimerWheel, LazyReArmInCallback) {
  TimerWheel wheel(kTick);
  TimerNode node;
  wheel.schedule(node, 300);
  int fires = 0;
  // The callback re-arms once (touch-on-access pattern: the owner saw a
  // fresh last_touch and pushed the deadline out).
  wheel.advance(400, [&](TimerNode* n) {
    ++fires;
    wheel.schedule(*n, 800);
  });
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(node.scheduled());
  wheel.advance(900, [&](TimerNode*) { ++fires; });
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(node.scheduled());
}

TEST(TimerWheel, EmptyWheelTeleportsAcrossIdleGap) {
  TimerWheel wheel(kTick);
  // Hours of idle time with nothing scheduled: must be O(1), not
  // billions of ticks.
  advance_collect(wheel, 4'000'000'000'000);
  TimerNode node;
  wheel.schedule(node, 4'000'000'000'000 + 500);
  EXPECT_EQ(advance_collect(wheel, 4'000'000'000'000 + 1000).size(), 1u);
}

TEST(TimerWheel, ReanchorSkipsGapOnlyWhenEmpty) {
  TimerWheel wheel(kTick);
  TimerNode node;
  wheel.schedule(node, 500);
  const std::int64_t before = wheel.current_tick();
  wheel.reanchor(1'000'000);  // non-empty: no-op
  EXPECT_EQ(wheel.current_tick(), before);
  wheel.cancel(node);
  wheel.reanchor(1'000'000);
  EXPECT_EQ(wheel.current_tick(), 1'000'000 / kTick);
}

TEST(TimerWheel, CascadesAcrossAllLevels) {
  TimerWheel wheel(kTick);
  // One node per level distance: 10 ticks (L0), ~1000 (L1), ~100k (L2),
  // ~7M (L3).
  const std::int64_t deadlines[] = {10 * kTick, 1'000 * kTick,
                                    100'000 * kTick, 7'000'000 * kTick};
  TimerNode nodes[4];
  for (int i = 0; i < 4; ++i) wheel.schedule(nodes[i], deadlines[i]);
  for (int i = 0; i < 4; ++i) {
    // Nothing fires early...
    EXPECT_TRUE(advance_collect(wheel, deadlines[i] - kTick).empty())
        << "node " << i;
    // ...and the node fires within one tick of its deadline.
    const auto fired = advance_collect(wheel, deadlines[i] + kTick);
    ASSERT_EQ(fired.size(), 1u) << "node " << i;
    EXPECT_EQ(fired[0], &nodes[i]);
  }
}

TEST(TimerWheel, CollectOldestReturnsEarliestCohort) {
  TimerWheel wheel(kTick);
  TimerNode late, early, mid;
  wheel.schedule(late, 100'000);
  wheel.schedule(early, 1'000);
  wheel.schedule(mid, 50'000);
  TimerNode* out[8];
  const std::size_t n = wheel.collect_oldest(out, 8);
  ASSERT_GE(n, 1u);
  EXPECT_EQ(out[0], &early);
}

// The firing contract lets a callback cancel or reschedule any node,
// including one due in the same tick that has not fired yet. Four
// nodes share one tick; the first callback acts on each of the other
// three in turn (the one after it, one in the middle, the last).
TEST(TimerWheel, CallbackCancelsAnotherNodeDueInTheSameTick) {
  for (std::size_t target = 0; target < 3; ++target) {
    SCOPED_TRACE("target " + std::to_string(target));
    TimerWheel wheel(kTick);
    TimerNode nodes[4];
    for (TimerNode& n : nodes) wheel.schedule(n, 1000);
    TimerNode* cancelled = nullptr;
    std::vector<TimerNode*> fired;
    wheel.advance(1100, [&](TimerNode* n) {
      if (cancelled == nullptr) {
        std::vector<TimerNode*> others;
        for (TimerNode& o : nodes) {
          if (&o != n) others.push_back(&o);
        }
        cancelled = others[target];
        wheel.cancel(*cancelled);
      }
      fired.push_back(n);
    });
    ASSERT_NE(cancelled, nullptr);
    EXPECT_FALSE(cancelled->scheduled());
    EXPECT_EQ(fired.size(), 3u);
    EXPECT_EQ(std::count(fired.begin(), fired.end(), cancelled), 0);
    for (TimerNode& n : nodes) {
      if (&n == cancelled) continue;
      EXPECT_EQ(std::count(fired.begin(), fired.end(), &n), 1);
    }
    EXPECT_EQ(wheel.scheduled_count(), 0u);
    EXPECT_TRUE(advance_collect(wheel, 100'000).empty());
  }
}

TEST(TimerWheel, CallbackReschedulesAnotherNodeDueInTheSameTick) {
  for (std::size_t target = 0; target < 3; ++target) {
    SCOPED_TRACE("target " + std::to_string(target));
    TimerWheel wheel(kTick);
    TimerNode nodes[4];
    for (TimerNode& n : nodes) wheel.schedule(n, 1000);
    TimerNode* moved = nullptr;
    std::vector<TimerNode*> fired;
    wheel.advance(1100, [&](TimerNode* n) {
      if (moved == nullptr) {
        std::vector<TimerNode*> others;
        for (TimerNode& o : nodes) {
          if (&o != n) others.push_back(&o);
        }
        moved = others[target];
        wheel.schedule(*moved, 3000);
      }
      fired.push_back(n);
    });
    ASSERT_NE(moved, nullptr);
    EXPECT_EQ(fired.size(), 3u);
    EXPECT_EQ(std::count(fired.begin(), fired.end(), moved), 0);
    EXPECT_TRUE(moved->scheduled());
    EXPECT_EQ(wheel.scheduled_count(), 1u);
    // Not before its new deadline, then exactly once.
    EXPECT_TRUE(advance_collect(wheel, 2900).empty());
    const auto later = advance_collect(wheel, 3100);
    ASSERT_EQ(later.size(), 1u);
    EXPECT_EQ(later[0], moved);
    EXPECT_EQ(wheel.scheduled_count(), 0u);
    EXPECT_TRUE(advance_collect(wheel, 100'000).empty());
  }
}

// Differential property test against an ordered-map model under random
// schedule/cancel/advance ops. The wheel's firing contract: a node
// never fires before its (quantized) deadline tick, and fires at most
// one tick late — slot-boundary deadlines get clamped forward by one
// tick when their level cascades.
TEST(TimerWheel, DifferentialAgainstOrderedModel) {
  std::mt19937_64 rng(0x1234);
  TimerWheel wheel(kTick);
  constexpr int kNodes = 256;
  std::vector<TimerNode> nodes(kNodes);
  // Model: node index -> deadline tick (quantized the way schedule()
  // does: max(deadline / tick, cursor + 1)).
  std::map<int, std::int64_t> model;
  std::int64_t now = 0;

  for (int step = 0; step < 20'000; ++step) {
    const int op = static_cast<int>(rng() % 3);
    if (op == 0) {
      const int id = static_cast<int>(rng() % kNodes);
      // Mostly near deadlines, occasionally far (exercise cascades).
      const std::int64_t span =
          (rng() % 16 == 0) ? 2'000'000 * kTick : 200 * kTick;
      const std::int64_t deadline =
          now + static_cast<std::int64_t>(rng() % span);
      wheel.schedule(nodes[id], deadline);
      std::int64_t tick = deadline / kTick;
      if (tick <= wheel.current_tick()) tick = wheel.current_tick() + 1;
      model[id] = tick;
    } else if (op == 1) {
      const int id = static_cast<int>(rng() % kNodes);
      wheel.cancel(nodes[id]);
      model.erase(id);
    } else {
      now += static_cast<std::int64_t>(rng() % (300 * kTick));
      std::vector<int> fired;
      wheel.advance(now, [&](TimerNode* n) {
        fired.push_back(static_cast<int>(n - nodes.data()));
      });
      const std::int64_t cursor = wheel.current_tick();
      for (const int id : fired) {
        auto it = model.find(id);
        ASSERT_NE(it, model.end()) << "step " << step;
        // Never early.
        ASSERT_LE(it->second, cursor) << "step " << step;
        model.erase(it);
      }
      for (const auto& [id, tick] : model) {
        // At most one tick late: anything still unfired must be due no
        // earlier than the cursor itself.
        ASSERT_GE(tick, cursor) << "node " << id << " step " << step;
      }
    }
    ASSERT_EQ(wheel.scheduled_count(), model.size()) << "step " << step;
  }
}

}  // namespace
}  // namespace eden::state
