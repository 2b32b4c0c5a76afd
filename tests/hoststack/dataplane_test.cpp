// The sharded data plane: SPSC ring mechanics, steering determinism,
// submit/drain/flush/stop lifecycle, and — the contract everything else
// rests on — per-message ordering through 4 concurrent workers under
// adversarial key distributions.
#include "hoststack/dataplane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/controller.h"
#include "hoststack/spsc_ring.h"

namespace eden::hoststack {
namespace {

// --- SpscRing -----------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, FifoAcrossWraparound) {
  SpscRing<int> ring(4);
  int out[8];
  int next = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) {
      int v = next + i;
      ASSERT_TRUE(ring.push(std::move(v)));
    }
    const std::size_t n = ring.pop_bulk(out, 8);
    ASSERT_EQ(n, 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], next + i);
    next += 3;
  }
}

TEST(SpscRingTest, FullRingPushFailsAndKeepsItem) {
  SpscRing<std::shared_ptr<int>> ring(2);
  ASSERT_TRUE(ring.push(std::make_shared<int>(1)));
  ASSERT_TRUE(ring.push(std::make_shared<int>(2)));
  auto keep = std::make_shared<int>(3);
  EXPECT_FALSE(ring.push(std::move(keep)));
  ASSERT_NE(keep, nullptr);  // rejected item untouched
  EXPECT_EQ(*keep, 3);
  std::shared_ptr<int> out[4];
  EXPECT_EQ(ring.pop_bulk(out, 4), 2u);
  EXPECT_EQ(*out[0], 1);
  EXPECT_EQ(*out[1], 2);
}

TEST(SpscRingTest, PopBulkHonorsMax) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) {
    int v = i;
    ring.push(std::move(v));
  }
  int out[8];
  EXPECT_EQ(ring.pop_bulk(out, 4), 4u);
  EXPECT_EQ(ring.pop_bulk(out, 4), 2u);
  EXPECT_EQ(ring.pop_bulk(out, 4), 0u);
}

TEST(SpscRingTest, PushBulkFifoAcrossWraparound) {
  // Bursts of 3 through a 4-slot ring: every transfer straddles the
  // wrap point sooner or later, and order must survive it.
  SpscRing<int> ring(4);
  int in[3];
  int out[8];
  int next = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 3; ++i) in[i] = next + i;
    ASSERT_EQ(ring.push_bulk(in, 3), 3u);
    const std::size_t n = ring.pop_bulk(out, 8);
    ASSERT_EQ(n, 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], next + i);
    next += 3;
  }
}

TEST(SpscRingTest, PushBulkPartialOnNearlyFullRing) {
  SpscRing<std::shared_ptr<int>> ring(4);
  std::shared_ptr<int> in[6];
  for (int i = 0; i < 6; ++i) in[i] = std::make_shared<int>(i);
  // Only 4 fit; the 2 rejected entries must be left intact in place.
  EXPECT_EQ(ring.push_bulk(in, 6), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(in[i], nullptr) << "consumed source " << i << " not reset";
  }
  ASSERT_NE(in[4], nullptr);
  ASSERT_NE(in[5], nullptr);
  EXPECT_EQ(*in[4], 4);
  EXPECT_EQ(*in[5], 5);
  EXPECT_EQ(ring.push_bulk(in + 4, 2), 0u);  // still full
  std::shared_ptr<int> out[4];
  ASSERT_EQ(ring.pop_bulk(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(*out[i], i);
}

TEST(SpscRingTest, DrainedSlotsReleaseOwnership) {
  // The destructor-hygiene bug this pins down: a moved-from shared_ptr
  // parked in a ring slot may still own its object, silently keeping a
  // pooled buffer alive until the slot is overwritten. Both bulk paths
  // must reset the slots they vacate.
  SpscRing<std::shared_ptr<int>> ring(8);
  auto tracked = std::make_shared<int>(7);
  std::weak_ptr<int> watch = tracked;
  ASSERT_TRUE(ring.push(std::move(tracked)));
  std::shared_ptr<int> out[4];
  ASSERT_EQ(ring.pop_bulk(out, 4), 1u);
  ASSERT_EQ(watch.use_count(), 1) << "ring slot retained a stale owner";
  out[0].reset();
  EXPECT_TRUE(watch.expired());

  // Same via push_bulk: the caller's source buffer must not keep an
  // owner either.
  std::shared_ptr<int> src[1] = {std::make_shared<int>(9)};
  std::weak_ptr<int> watch2 = src[0];
  ASSERT_EQ(ring.push_bulk(src, 1), 1u);
  EXPECT_EQ(src[0], nullptr);
  ASSERT_EQ(ring.pop_bulk(out, 4), 1u);
  EXPECT_EQ(watch2.use_count(), 1);
}

// --- Steering -----------------------------------------------------------

TEST(DataPlaneShardTest, SingleWorkerGetsEverything) {
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(DataPlane::shard_of(k, 1), 0u);
  }
}

TEST(DataPlaneShardTest, SequentialKeysSpread) {
  // Message ids are often sequential counters; the mix must spread them
  // instead of striping them modulo worker count.
  constexpr std::size_t kWorkers = 4;
  std::vector<std::size_t> counts(kWorkers, 0);
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    const std::size_t s = DataPlane::shard_of(k, kWorkers);
    ASSERT_LT(s, kWorkers);
    ++counts[s];
  }
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 700u);   // each worker sees a substantial share
    EXPECT_LT(c, 1300u);  // nobody hogs
  }
}

TEST(DataPlaneShardTest, DeterministicAcrossCalls) {
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(DataPlane::shard_of(k, 4), DataPlane::shard_of(k, 4));
  }
}

// --- DataPlane lifecycle -------------------------------------------------

netsim::PacketPtr msg_packet(std::int64_t msg_id, std::uint64_t seq = 0) {
  auto p = netsim::make_packet();
  p->src = 1;
  p->dst = 2;
  p->src_port = 1000;
  p->dst_port = 2000;
  p->protocol = netsim::Protocol::tcp;
  p->size_bytes = 1514;
  p->payload_bytes = 1460;
  p->meta.msg_id = msg_id;
  p->debug_id = seq;
  return p;
}

class DataPlaneTest : public ::testing::Test {
 protected:
  core::ClassRegistry registry_;
  core::Enclave enclave_{"dp-test", registry_};
  core::Controller controller_{registry_};

  void install_with_rule(const char* name, const std::string& source) {
    const lang::CompiledProgram program =
        controller_.compile(name, source, {});
    const core::ActionId action =
        enclave_.install_action(name, program, {});
    const core::TableId table = enclave_.create_table(name);
    enclave_.add_rule(table, core::ClassPattern("*"), action);
  }

  // Submits with backpressure handling and collects every completion.
  std::vector<netsim::PacketPtr> run_through(
      DataPlane& dp, std::vector<netsim::PacketPtr> packets) {
    std::vector<netsim::PacketPtr> done;
    const auto sink = [&](netsim::PacketPtr p) {
      done.push_back(std::move(p));
    };
    for (auto& p : packets) {
      while (!dp.submit(p)) dp.drain_completions(sink);
    }
    dp.flush(sink);
    return done;
  }

  // Burst-mode counterpart of run_through: submits in bursts of
  // `burst_size`, retrying backpressured leftovers after a drain.
  std::vector<netsim::PacketPtr> run_through_bursts(
      DataPlane& dp, std::vector<netsim::PacketPtr> packets,
      std::size_t burst_size = 32) {
    std::vector<netsim::PacketPtr> done;
    const auto sink = [&](netsim::PacketPtr p) {
      done.push_back(std::move(p));
    };
    for (std::size_t off = 0; off < packets.size(); off += burst_size) {
      const std::size_t n = std::min(burst_size, packets.size() - off);
      const std::span<netsim::PacketPtr> burst(packets.data() + off, n);
      std::size_t sent = 0;
      while (sent < n) {
        sent += dp.submit_burst(burst);
        if (sent < n) dp.drain_completions(sink);
      }
    }
    dp.flush(sink);
    return done;
  }
};

TEST_F(DataPlaneTest, AllPacketsComeBack) {
  install_with_rule("p3", "fun(p, m, g) -> p.priority <- 3");
  DataPlaneConfig cfg;
  cfg.workers = 4;
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> in;
  for (int i = 0; i < 500; ++i) in.push_back(msg_packet(i % 37 + 1));
  const auto done = run_through(dp, std::move(in));
  ASSERT_EQ(done.size(), 500u);
  for (const auto& p : done) EXPECT_EQ(p->priority, 3);
  EXPECT_EQ(dp.pending(), 0u);
  const DataPlaneStats stats = dp.stats();
  EXPECT_EQ(stats.submitted, 500u);
  EXPECT_EQ(stats.drained, 500u);
  EXPECT_EQ(enclave_.stats().packets, 500u);
}

TEST_F(DataPlaneTest, DroppedPacketsTravelTheCompletionRing) {
  // Odd message sizes are dropped; the packets still come back, marked.
  install_with_rule("dropodd", "fun(p, m, g) -> p.drop <- p.msg_size % 2");
  DataPlaneConfig cfg;
  cfg.workers = 2;
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> in;
  for (int i = 0; i < 200; ++i) {
    auto p = msg_packet(i + 1);
    p->meta.msg_size = i;  // even: kept, odd: dropped
    in.push_back(std::move(p));
  }
  const auto done = run_through(dp, std::move(in));
  ASSERT_EQ(done.size(), 200u);
  std::size_t dropped = 0;
  for (const auto& p : done) {
    if (p->drop_mark) ++dropped;
  }
  EXPECT_EQ(dropped, 100u);
  const DataPlaneStats stats = dp.stats();
  std::uint64_t worker_drops = 0;
  for (const auto& w : stats.workers) worker_drops += w.dropped;
  EXPECT_EQ(worker_drops, 100u);
}

TEST_F(DataPlaneTest, BackpressureReportsAndRecovers) {
  install_with_rule("noop", "fun(p, m, g) -> p.priority <- 1");
  DataPlaneConfig cfg;
  cfg.workers = 1;
  cfg.ring_capacity = 2;  // tiny: submit must hit a full ring
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> in;
  for (int i = 0; i < 300; ++i) in.push_back(msg_packet(1));
  const auto done = run_through(dp, std::move(in));
  EXPECT_EQ(done.size(), 300u);
  // Every packet got through despite the tiny ring, and nothing is left.
  const DataPlaneStats stats = dp.stats();
  EXPECT_EQ(stats.submitted, 300u);
  EXPECT_EQ(stats.drained, 300u);
  EXPECT_EQ(dp.pending(), 0u);
}

TEST_F(DataPlaneTest, SubmitBurstDeliversEverything) {
  install_with_rule("p3", "fun(p, m, g) -> p.priority <- 3");
  DataPlaneConfig cfg;
  cfg.workers = 4;
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> in;
  for (int i = 0; i < 500; ++i) in.push_back(msg_packet(i % 17 + 1));
  const auto done = run_through_bursts(dp, std::move(in));
  ASSERT_EQ(done.size(), 500u);
  for (const auto& p : done) EXPECT_EQ(p->priority, 3u);
  const DataPlaneStats stats = dp.stats();
  EXPECT_EQ(stats.submitted, 500u);
  EXPECT_EQ(stats.drained, 500u);
}

TEST_F(DataPlaneTest, SubmitBurstBackpressureLeavesRejectedInPlace) {
  install_with_rule("noop", "fun(p, m, g) -> p.priority <- 1");
  DataPlaneConfig cfg;
  cfg.workers = 1;
  cfg.ring_capacity = 2;  // tiny: bursts must be partially rejected
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> in;
  for (int i = 0; i < 200; ++i) in.push_back(msg_packet(1));
  const auto done = run_through_bursts(dp, std::move(in), 16);
  EXPECT_EQ(done.size(), 200u);
  const DataPlaneStats stats = dp.stats();
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_GT(stats.submit_backpressure, 0u);
  EXPECT_EQ(dp.pending(), 0u);
}

TEST_F(DataPlaneTest, SubmitBurstSkipsNullEntries) {
  install_with_rule("p1", "fun(p, m, g) -> p.priority <- 1");
  DataPlaneConfig cfg;
  cfg.workers = 2;
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(i % 2 == 0 ? msg_packet(i + 1) : nullptr);
  }
  EXPECT_EQ(dp.submit_burst(burst), 4u);
  std::vector<netsim::PacketPtr> done;
  dp.flush([&](netsim::PacketPtr p) { done.push_back(std::move(p)); });
  EXPECT_EQ(done.size(), 4u);
}

TEST_F(DataPlaneTest, StopDeliversResidualCompletions) {
  install_with_rule("p1", "fun(p, m, g) -> p.priority <- 1");
  DataPlaneConfig cfg;
  cfg.workers = 2;
  auto dp = std::make_unique<DataPlane>(enclave_, cfg);
  std::vector<netsim::PacketPtr> done;
  for (int i = 0; i < 64; ++i) {
    auto p = msg_packet(i + 1);
    while (!dp->submit(p)) {
      dp->drain_completions(
          [&](netsim::PacketPtr q) { done.push_back(std::move(q)); });
    }
  }
  dp->stop([&](netsim::PacketPtr q) { done.push_back(std::move(q)); });
  EXPECT_EQ(done.size(), 64u);
  EXPECT_EQ(dp->pending(), 0u);
}

TEST_F(DataPlaneTest, MetricsExported) {
  // Odd message sizes are dropped, so every per-worker series moves.
  install_with_rule("dropodd", "fun(p, m, g) -> p.drop <- p.msg_size % 2");
  DataPlaneConfig cfg;
  cfg.workers = 2;
  DataPlane dp(enclave_, cfg);
  std::vector<netsim::PacketPtr> in;
  for (int i = 0; i < 50; ++i) {
    auto p = msg_packet(i + 1);
    p->meta.msg_size = i;
    in.push_back(std::move(p));
  }
  run_through(dp, std::move(in));
  const std::string text = dp.metrics().text_exposition();
  EXPECT_NE(text.find("eden_dataplane_enqueued_total"), std::string::npos);
  EXPECT_NE(text.find("eden_dataplane_processed_total"), std::string::npos);
  EXPECT_NE(text.find("eden_dataplane_ring_depth"), std::string::npos);
  EXPECT_NE(text.find("eden_dataplane_batch_size"), std::string::npos);
  EXPECT_NE(text.find("worker=\"1\""), std::string::npos);

  // The exported series and stats() are one count, read two ways.
  telemetry::MetricsRegistry& metrics = dp.metrics();
  const DataPlaneStats stats = dp.stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  std::uint64_t enqueued = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const telemetry::Labels worker{{"worker", std::to_string(i)}};
    const std::uint64_t e =
        metrics.counter("eden_dataplane_enqueued_total", worker).value();
    const std::uint64_t p =
        metrics.counter("eden_dataplane_processed_total", worker).value();
    const std::uint64_t d =
        metrics.counter("eden_dataplane_dropped_total", worker).value();
    EXPECT_EQ(e, stats.workers[i].enqueued) << "worker " << i;
    EXPECT_EQ(p, stats.workers[i].processed) << "worker " << i;
    EXPECT_EQ(d, stats.workers[i].dropped) << "worker " << i;
    enqueued += e;
    processed += p;
    dropped += d;
  }
  EXPECT_EQ(stats.submitted, 50u);
  EXPECT_EQ(enqueued, stats.submitted);
  EXPECT_EQ(processed, stats.submitted);
  EXPECT_EQ(dropped, 25u);
  EXPECT_EQ(
      metrics.counter("eden_dataplane_submit_backpressure_total").value(),
      stats.submit_backpressure);
}

// --- Per-message ordering under concurrency ------------------------------
//
// The action is per_message (it writes message state): each packet of a
// message increments m.state0 and publishes the counter into
// p.path. If the data plane ever reorders a message's packets — or lets
// two workers touch one message — some packet observes a counter that
// does not match its submission index.

class DataPlaneOrderingTest : public DataPlaneTest {
 protected:
  void SetUp() override {
    install_with_rule(
        "seq", "fun(p, m, g) -> m.state0 <- m.state0 + 1; p.path <- m.state0");
  }

  // Sends packets whose message keys come from `keys` (round-robin) and
  // asserts every message's packets complete carrying 1, 2, 3, ... in
  // submission order. `bursts` routes submission through submit_burst —
  // the ordering contract must hold identically for both entry points.
  void check_ordering(const std::vector<std::int64_t>& keys,
                      std::size_t packets_per_key, bool bursts = false) {
    DataPlaneConfig cfg;
    cfg.workers = 4;
    cfg.ring_capacity = 64;  // small enough to exercise backpressure
    cfg.max_batch = 16;
    DataPlane dp(enclave_, cfg);

    std::vector<netsim::PacketPtr> in;
    std::map<std::int64_t, std::uint64_t> next_seq;
    for (std::size_t i = 0; i < packets_per_key; ++i) {
      for (const std::int64_t key : keys) {
        in.push_back(msg_packet(key, ++next_seq[key]));
      }
    }
    const auto done = bursts ? run_through_bursts(dp, std::move(in))
                             : run_through(dp, std::move(in));
    ASSERT_EQ(done.size(), packets_per_key * keys.size());

    std::map<std::int64_t, std::int64_t> last_counter;
    for (const auto& p : done) {
      const std::int64_t key = p->meta.msg_id;
      // The enclave's per-message counter must match the submission
      // sequence number stamped by the producer...
      EXPECT_EQ(static_cast<std::uint64_t>(p->path_label), p->debug_id)
          << "message " << key;
      // ...and completions of one message must arrive in that order.
      EXPECT_EQ(p->path_label, last_counter[key] + 1) << "message " << key;
      last_counter[key] = p->path_label;
    }
    for (const auto& [key, last] : last_counter) {
      EXPECT_EQ(static_cast<std::size_t>(last), packets_per_key)
          << "message " << key;
    }
  }
};

TEST_F(DataPlaneOrderingTest, SingleHotMessage) {
  check_ordering({42}, 1000);
}

TEST_F(DataPlaneOrderingTest, TwoHotMessages) {
  check_ordering({7, 1000001}, 500);
}

TEST_F(DataPlaneOrderingTest, KeysCollidingOnOneShard) {
  // Craft keys that all steer to worker 0 of 4: the pathological skew a
  // hash cannot save you from. Ordering must still hold.
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 1; keys.size() < 8; ++k) {
    if (DataPlane::shard_of(static_cast<std::uint64_t>(k), 4) == 0) {
      keys.push_back(k);
    }
  }
  check_ordering(keys, 100);
}

TEST_F(DataPlaneOrderingTest, ManyUniformMessages) {
  std::vector<std::int64_t> keys;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;  // fixed-seed xorshift
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(static_cast<std::int64_t>(x % 1000000) + 1);
  }
  check_ordering(keys, 25);
}

TEST_F(DataPlaneOrderingTest, BurstSubmitSingleHotMessage) {
  check_ordering({42}, 1000, /*bursts=*/true);
}

TEST_F(DataPlaneOrderingTest, BurstSubmitKeysCollidingOnOneShard) {
  // Partial bulk pushes against a saturated shard: the backpressured
  // tail is retried in original order, so the sequence must survive.
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 1; keys.size() < 8; ++k) {
    if (DataPlane::shard_of(static_cast<std::uint64_t>(k), 4) == 0) {
      keys.push_back(k);
    }
  }
  check_ordering(keys, 100, /*bursts=*/true);
}

TEST_F(DataPlaneOrderingTest, BurstSubmitManyUniformMessages) {
  std::vector<std::int64_t> keys;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(static_cast<std::int64_t>(x % 1000000) + 1);
  }
  check_ordering(keys, 25, /*bursts=*/true);
}

}  // namespace
}  // namespace eden::hoststack
