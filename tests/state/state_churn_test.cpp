// Concurrent churn tests for FlowStore, built to run under TSan and
// ASan/UBSan (ISSUE 9): readers race acquires, erases, resizes,
// capacity eviction and timer-wheel expiry.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/state/epoch.h"
#include "src/state/flow_store.h"

namespace eden::state {
namespace {

void stamp_key(void* ctx, std::int64_t* payload) {
  std::fill_n(payload, FlowStore::kPayloadWords,
              *static_cast<const std::int64_t*>(ctx));
}

// Writers churn a keyspace much larger than max_entries while an expiry
// thread advances the wheel and readers do guarded lookups. Under TSan
// this exercises: lock-free find vs. resize, slab recycling through the
// epoch domain, eviction racing acquire, and the ctrl-byte publication
// protocol. Invariant at the end: created - expired - evicted - erased
// == live.
TEST(StateChurn, ConcurrentChurnCountersReconcile) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr int kOpsPerThread = 40'000;
#else
  constexpr int kOpsPerThread = 120'000;
#endif
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr std::int64_t kKeySpace = 64 * 1024;

  FlowStoreConfig config;
  config.shards = 8;
  config.initial_capacity = 64;
  config.max_entries = 4096;       // force constant capacity eviction
  config.idle_timeout_ns = 5'000;  // and constant expiry
  config.wheel_tick_ns = 1'000;
  FlowStore store(config);

  std::atomic<std::int64_t> clock{1};
  std::atomic<std::uint64_t> erased{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(0xc0ffee + w);
      std::uint64_t my_erased = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::int64_t key = static_cast<std::int64_t>(rng() % kKeySpace);
        const std::int64_t now = clock.fetch_add(7);
        if (rng() % 8 == 0) {
          if (store.erase(key)) ++my_erased;
        } else {
          EpochDomain::Guard guard(store.domain());
          FlowStore::Entry* e =
              store.acquire(guard, key, now, &stamp_key, &key);
          ASSERT_NE(e, nullptr);
          // Entry payloads are externally synchronized, as in the
          // enclave: take the per-entry lock before touching the block.
          std::lock_guard<std::mutex> lock(e->lock);
          // The block is either freshly stamped with our key or a
          // value some writer stored — never another key's stamp and
          // never a torn/recycled stale block.
          const std::int64_t v = e->payload[0];
          ASSERT_TRUE(v == key || v >= kKeySpace)
              << "key " << key << " saw foreign stamp " << v;
          e->payload[0] = kKeySpace + key;  // marked as written
        }
      }
      erased.fetch_add(my_erased);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(0xbeef + r);
      while (!stop.load(std::memory_order_acquire)) {
        EpochDomain::Guard guard(store.domain());
        for (int i = 0; i < 64; ++i) {
          const std::int64_t key =
              static_cast<std::int64_t>(rng() % kKeySpace);
          FlowStore::Entry* e = store.find(guard, key);
          if (e != nullptr) {
            // Key field is immutable for the entry's lifetime; under
            // the guard the entry cannot be recycled out from under us.
            ASSERT_EQ(e->key, key);
          }
        }
      }
    });
  }
  std::thread expirer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      store.advance(clock.load());
      std::this_thread::yield();
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();
  expirer.join();

  const FlowStoreStats s = store.stats();
  EXPECT_EQ(s.created - s.expired - s.evicted - erased.load(), s.live);
  EXPECT_LE(s.live, config.max_entries);
  EXPECT_GT(s.created, 0u);

  // Drain: with the clock far ahead everything expires; counters still
  // reconcile to zero live entries.
  store.advance(clock.load() + 100 * config.idle_timeout_ns);
  const FlowStoreStats drained = store.stats();
  EXPECT_EQ(drained.live, 0u);
  EXPECT_EQ(drained.created - drained.expired - drained.evicted -
                erased.load(),
            0u);
}

// Guarded readers must be able to dereference an entry found before a
// concurrent erase: the epoch domain delays slab recycling until every
// pin from the lookup era is released.
TEST(StateChurn, GuardedReadSurvivesConcurrentErase) {
  constexpr int kRounds = 2'000;
  FlowStoreConfig config;
  config.shards = 1;
  FlowStore store(config);

  std::atomic<std::int64_t> ready_key{-1};
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    std::mt19937_64 rng(0xabba);
    while (!stop.load(std::memory_order_acquire)) {
      const std::int64_t key = ready_key.load(std::memory_order_acquire);
      if (key < 0) continue;
      EpochDomain::Guard guard(store.domain());
      FlowStore::Entry* e = store.find(guard, key);
      if (e != nullptr) {
        // Racing erase may recycle the slab slot only after our guard
        // drops — reading the key through the pointer must stay valid.
        const std::int64_t k = e->key;
        ASSERT_GE(k, 0);
      }
      (void)rng;
    }
  });

  for (std::int64_t round = 0; round < kRounds; ++round) {
    std::int64_t key = round;
    {
      EpochDomain::Guard guard(store.domain());
      store.acquire(guard, key, round + 1, &stamp_key, &key);
    }
    ready_key.store(key, std::memory_order_release);
    store.erase(key);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(store.live(), 0u);
}

// Many threads hammering a tiny hot set: exercises acquire-vs-acquire
// create races on the same key (only one init wins) and touch stamping.
TEST(StateChurn, HotKeyAcquireRaceInitsOnce) {
  constexpr int kThreads = 4;
  constexpr int kOps = 20'000;
  FlowStoreConfig config;
  config.shards = 2;
  FlowStore store(config);

  std::atomic<std::uint64_t> creates_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(77 + t);
      std::uint64_t mine = 0;
      for (int i = 0; i < kOps; ++i) {
        std::int64_t key = static_cast<std::int64_t>(rng() % 8);
        EpochDomain::Guard guard(store.domain());
        bool created = false;
        FlowStore::Entry* e = store.acquire(guard, key, i + 1, &stamp_key,
                                            &key, &created);
        ASSERT_NE(e, nullptr);
        ASSERT_EQ(e->key, key);
        if (created) ++mine;
      }
      creates_seen.fetch_add(mine);
    });
  }
  for (auto& t : threads) t.join();
  // Exactly one create per distinct key, both by the callers' count and
  // by the store's own accounting.
  EXPECT_EQ(creates_seen.load(), 8u);
  EXPECT_EQ(store.stats().created, 8u);
  EXPECT_EQ(store.live(), 8u);
}

}  // namespace
}  // namespace eden::state
