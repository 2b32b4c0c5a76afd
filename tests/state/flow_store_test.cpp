// FlowStore unit, accounting and differential property tests (ISSUE 9).
#include "src/state/flow_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/state/epoch.h"

namespace eden::state {
namespace {

// Init callback: stamp the creating key into every payload word so
// lookups can verify they found the right (and a fully re-initialized)
// payload.
void stamp_key(void* ctx, std::int64_t* payload) {
  std::fill_n(payload, FlowStore::kPayloadWords,
              *static_cast<const std::int64_t*>(ctx));
}

FlowStore::Entry* acquire(FlowStore& store, const EpochDomain::Guard& guard,
                          std::int64_t key, std::int64_t now,
                          bool* created = nullptr) {
  return store.acquire(guard, key, now, &stamp_key, &key, created);
}

TEST(EpochDomain, GuardPinsAndHorizonAdvances) {
  EpochDomain& domain = EpochDomain::instance();
  EXPECT_FALSE(domain.pinned_here());
  {
    EpochDomain::Guard guard(domain);
    EXPECT_TRUE(domain.pinned_here());
    // Reentrant pinning nests.
    EpochDomain::Guard inner(domain);
    EXPECT_TRUE(domain.pinned_here());
  }
  EXPECT_FALSE(domain.pinned_here());

  // With no pins, the horizon advances past any prior retire stamp.
  const std::uint64_t stamp = domain.stamp_retire();
  EXPECT_GT(domain.reclaim_horizon(), stamp);
}

TEST(EpochDomain, PinnedReaderHoldsBackTheHorizon) {
  EpochDomain& domain = EpochDomain::instance();
  std::uint64_t pinned_at = 0;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochDomain::Guard guard(domain);
    pinned_at = domain.stamp_retire();
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  // Retire something "now": its stamp is >= the reader's pin epoch, so
  // the horizon must not pass it while the reader is pinned.
  const std::uint64_t stamp = domain.stamp_retire();
  const std::uint64_t horizon = domain.reclaim_horizon();
  EXPECT_LE(horizon, stamp) << "horizon passed a stamp a pinned reader "
                               "could still observe";
  release.store(true);
  reader.join();
  EXPECT_GT(domain.reclaim_horizon(), stamp);
  (void)pinned_at;
}

TEST(FlowStore, AcquireCreatesFindPeeks) {
  FlowStoreConfig config;
  config.shards = 4;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());

  bool created = false;
  FlowStore::Entry* e = acquire(store, guard, 42, 1000, &created);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(created);
  EXPECT_EQ(e->key, 42);
  ASSERT_EQ(std::size(e->payload), FlowStore::kPayloadWords);
  EXPECT_EQ(e->payload[0], 42);

  // Second acquire: same entry, no re-init.
  e->payload[0] = 777;
  FlowStore::Entry* again = acquire(store, guard, 42, 2000, &created);
  EXPECT_EQ(again, e);
  EXPECT_FALSE(created);
  EXPECT_EQ(again->payload[0], 777);

  // find() has peek semantics: hit without touching.
  const std::int64_t touch_before = e->last_touch_ns.load();
  EXPECT_EQ(store.find(guard, 42), e);
  EXPECT_EQ(e->last_touch_ns.load(), touch_before);
  EXPECT_EQ(store.find(guard, 43), nullptr);

  EXPECT_EQ(store.live(), 1u);
  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.live, 1u);
}

TEST(FlowStore, AcquireStampsLastTouch) {
  FlowStore store(FlowStoreConfig{});
  EpochDomain::Guard guard(store.domain());
  FlowStore::Entry* e = acquire(store, guard, 7, 1000);
  EXPECT_EQ(e->last_touch_ns.load(), 1000);
  acquire(store, guard, 7, 5000);
  EXPECT_EQ(e->last_touch_ns.load(), 5000);
}

TEST(FlowStore, EraseRemovesAndRecyclesInitCleanly) {
  FlowStore store(FlowStoreConfig{});
  EpochDomain::Guard guard(store.domain());
  FlowStore::Entry* e = acquire(store, guard, 1, 100);
  e->payload[0] = 999;  // dirty the payload
  ASSERT_TRUE(store.erase(1));
  EXPECT_FALSE(store.erase(1));
  EXPECT_EQ(store.find(guard, 1), nullptr);
  EXPECT_EQ(store.live(), 0u);

  // A recycled slab entry must come back fully re-initialized.
  bool created = false;
  FlowStore::Entry* e2 = acquire(store, guard, 2, 200, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(e2->payload[0], 2);
}

TEST(FlowStore, ResizeKeepsEntryPointersStable) {
  FlowStoreConfig config;
  config.shards = 1;
  config.initial_capacity = 16;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());

  std::unordered_map<std::int64_t, FlowStore::Entry*> pointers;
  for (std::int64_t k = 0; k < 5000; ++k) {
    pointers[k] = acquire(store, guard, k, k);
  }
  EXPECT_GT(store.stats().resizes, 0u);
  for (std::int64_t k = 0; k < 5000; ++k) {
    FlowStore::Entry* e = store.find(guard, k);
    ASSERT_EQ(e, pointers[k]) << "entry moved for key " << k;
    EXPECT_EQ(e->payload[0], k);
  }
  EXPECT_EQ(store.live(), 5000u);
}

TEST(FlowStore, ZeroMaxEntriesMeansUnlimited) {
  FlowStoreConfig config;
  config.max_entries = 0;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());
  for (std::int64_t k = 0; k < 100'000; ++k) acquire(store, guard, k, k);
  EXPECT_EQ(store.live(), 100'000u);
  EXPECT_EQ(store.stats().evicted, 0u);
}

TEST(FlowStore, CapacityEvictionPicksIdlestNotOldestCreated) {
  FlowStoreConfig config;
  config.shards = 1;  // deterministic single victim queue
  config.max_entries = 4;
  config.idle_timeout_ns = 1'000'000'000;  // wheel orders entries; no expiry
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());

  // Keys 1..4 created in order; then the OLDEST-created key is touched
  // to become the hottest.
  for (std::int64_t k = 1; k <= 4; ++k) acquire(store, guard, k, k * 1000);
  acquire(store, guard, 1, 50'000);  // touch: key 1 is now hot

  // Inserting key 5 must evict the idlest (key 2), not the oldest
  // created (key 1) — the pre-FlowStore store would have killed key 1.
  acquire(store, guard, 5, 60'000);
  EXPECT_EQ(store.live(), 4u);
  EXPECT_NE(store.find(guard, 1), nullptr) << "hot entry was evicted";
  EXPECT_EQ(store.find(guard, 2), nullptr) << "idlest entry survived";
  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.expired, 0u);
}

TEST(FlowStore, IdleExpiryRespectsTouchOnAccess) {
  FlowStoreConfig config;
  config.shards = 1;
  config.idle_timeout_ns = 10'000;
  config.wheel_tick_ns = 1'000;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());

  acquire(store, guard, 1, 1000);
  acquire(store, guard, 2, 1000);
  // Keep key 1 warm past key 2's deadline.
  acquire(store, guard, 1, 9000);

  store.advance(12'500);  // key 2 idle since 1000: 11.5k > 10k -> expired
  EXPECT_EQ(store.find(guard, 2), nullptr);
  ASSERT_NE(store.find(guard, 1), nullptr) << "touched entry expired early";

  store.advance(20'000);  // key 1 idle since 9000: 11k > 10k -> expired
  EXPECT_EQ(store.find(guard, 1), nullptr);

  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.expired, 2u);
  EXPECT_EQ(s.evicted, 0u);
  EXPECT_EQ(s.live, 0u);
}

TEST(FlowStore, ExpiryVsEvictionAccountingStaysSeparate) {
  FlowStoreConfig config;
  config.shards = 1;
  config.max_entries = 2;
  config.idle_timeout_ns = 10'000;
  config.wheel_tick_ns = 1'000;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());

  acquire(store, guard, 1, 1000);
  acquire(store, guard, 2, 2000);
  acquire(store, guard, 3, 3000);  // capacity: evicts idlest (key 1)
  store.advance(50'000);           // expiry: keys 2 and 3 both idle
  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.created, 3u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.expired, 2u);
  EXPECT_EQ(s.live, 0u);
}

TEST(FlowStore, SinkMirrorsCounters) {
  std::atomic<std::uint64_t> created{0}, expired{0}, evicted{0};
  FlowStoreConfig config;
  config.shards = 1;
  config.max_entries = 2;
  config.idle_timeout_ns = 10'000;
  config.wheel_tick_ns = 1'000;
  config.sink.created = &created;
  config.sink.expired = &expired;
  config.sink.evicted = &evicted;
  {
    FlowStore store(config);
    EpochDomain::Guard guard(store.domain());
    acquire(store, guard, 1, 1000);
    acquire(store, guard, 2, 2000);
    acquire(store, guard, 3, 3000);
    store.advance(50'000);
  }
  // The mirror outlives the store.
  EXPECT_EQ(created.load(), 3u);
  EXPECT_EQ(evicted.load(), 1u);
  EXPECT_EQ(expired.load(), 2u);
}

TEST(FlowStore, ProbeLengthHistogramRecords) {
  FlowStoreConfig config;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());
  for (std::int64_t k = 0; k < 1000; ++k) acquire(store, guard, k, k);
  for (std::int64_t k = 0; k < 1000; ++k) acquire(store, guard, k, k + 1);
  const FlowStoreStats s = store.stats();
  EXPECT_GT(s.probe_len.count, 0u);
  EXPECT_GE(s.probe_len.p50(), 1u);
}

// The probe-length histogram samples inserts at the same 1-in-64 rate
// as hits, so fresh keys alone record about creations / 64 samples.
TEST(FlowStore, ProbeHistogramSamplesInserts) {
  FlowStoreConfig config;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());
  for (std::int64_t k = 0; k < 6400; ++k) acquire(store, guard, k, k);
  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.created, 6400u);
  EXPECT_GE(s.probe_len.count, 99u);
  EXPECT_LE(s.probe_len.count, 101u);
}

// The ISSUE 9 differential property test: FlowStore against a plain
// unordered_map reference model through randomized insert / lookup /
// touch / expire / erase, across resizes. Invariants:
//   (1) lookups agree with the model (presence and payload),
//   (2) nothing expires while last_touch + timeout > now,
//   (3) everything idle >= timeout + one tick is gone after advance,
//   (4) counters reconcile: created - expired - erased == live.
TEST(FlowStore, DifferentialAgainstUnorderedMapModel) {
  constexpr std::int64_t kTimeout = 50'000;
  constexpr std::int64_t kTickNs = 1'000;
  FlowStoreConfig config;
  config.shards = 4;
  config.initial_capacity = 16;  // force plenty of resizes
  config.idle_timeout_ns = kTimeout;
  config.wheel_tick_ns = kTickNs;
  FlowStore store(config);
  EpochDomain::Guard guard(store.domain());

  struct Model {
    std::int64_t value;
    std::int64_t last_touch;
  };
  std::unordered_map<std::int64_t, Model> model;
  std::mt19937_64 rng(0xfeed);
  std::int64_t now = 1;
  std::uint64_t erased = 0;

  for (int step = 0; step < 60'000; ++step) {
    now += static_cast<std::int64_t>(rng() % 200);
    const std::int64_t key = static_cast<std::int64_t>(rng() % 4096);
    switch (rng() % 4) {
      case 0: {  // acquire (insert or touch)
        bool created = false;
        FlowStore::Entry* e = acquire(store, guard, key, now, &created);
        ASSERT_NE(e, nullptr);
        auto it = model.find(key);
        ASSERT_EQ(created, it == model.end()) << "step " << step;
        if (created) {
          ASSERT_EQ(e->payload[0], key);
          // Mutate the payload so stale-block reuse would be caught.
          const std::int64_t value =
              static_cast<std::int64_t>(rng() % 1'000'000);
          e->payload[0] = value;
          model.emplace(key, Model{value, now});
        } else {
          ASSERT_EQ(e->payload[0], it->second.value) << "step " << step;
          it->second.last_touch = now;
        }
        break;
      }
      case 1: {  // find (peek)
        FlowStore::Entry* e = store.find(guard, key);
        const auto it = model.find(key);
        ASSERT_EQ(e != nullptr, it != model.end()) << "step " << step;
        if (e != nullptr) {
          ASSERT_EQ(e->payload[0], it->second.value) << "step " << step;
        }
        break;
      }
      case 2: {  // erase
        const bool did = store.erase(key);
        ASSERT_EQ(did, model.erase(key) == 1u) << "step " << step;
        if (did) ++erased;
        break;
      }
      default: {  // advance: expire idle entries in both store and model
        store.advance(now);
        for (auto it = model.begin(); it != model.end();) {
          // One wheel tick of quantization slack: anything idle past
          // timeout + tick MUST be gone; inside (timeout - tick) MUST
          // survive; the sliver between is the wheel's to decide.
          const std::int64_t idle = now - it->second.last_touch;
          FlowStore::Entry* e = store.find(guard, it->first);
          if (idle >= kTimeout + 2 * kTickNs) {
            ASSERT_EQ(e, nullptr)
                << "key " << it->first << " idle " << idle << " survived "
                << "advance at step " << step;
            it = model.erase(it);
          } else if (idle < kTimeout - kTickNs) {
            ASSERT_NE(e, nullptr)
                << "key " << it->first << " idle only " << idle
                << " expired early at step " << step;
            ++it;
          } else if (e == nullptr) {
            it = model.erase(it);  // boundary sliver: wheel's call
          } else {
            ++it;
          }
        }
        break;
      }
    }
  }

  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.live, model.size());
  EXPECT_EQ(s.evicted, 0u);
  EXPECT_EQ(s.created - s.expired - erased, s.live);
  // Post-run sweep: everything must expire once far past the deadline.
  store.advance(now + 10 * kTimeout);
  EXPECT_EQ(store.live(), 0u);
}

}  // namespace
}  // namespace eden::state
