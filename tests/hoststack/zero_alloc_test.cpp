// The tentpole proof obligation: ZERO per-packet heap allocation on the
// steady-state data path. This binary links eden_alloc_count, which
// replaces the global operator new/delete family with counting
// wrappers; each test warms every lazily-built structure first (pool
// slabs, thread magazines, enclave thread state, ring scratch), then
// gates a sustained traffic window and asserts the process performed
// literally no heap allocation during it. Pool refills are exempt by
// construction, not by exception: refill moves pre-reserved pointers,
// so a refill that allocated would fail the gate — which is the point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/controller.h"
#include "core/enclave.h"
#include "hoststack/dataplane.h"
#include "netsim/packet_pool.h"
#include "support/alloc_count.h"

namespace eden::hoststack {
namespace {

class ZeroAllocTest : public ::testing::Test {
 protected:
  core::ClassRegistry registry_;
  core::Enclave enclave_{"zero-alloc", registry_};
  core::Controller controller_{registry_};

  void install_with_rule(const char* name, const std::string& source) {
    const lang::CompiledProgram program =
        controller_.compile(name, source, {});
    const core::ActionId action = enclave_.install_action(name, program, {});
    const core::TableId table = enclave_.create_table(name);
    enclave_.add_rule(table, core::ClassPattern("*"), action);
  }

  static void fill(netsim::Packet& p, std::int64_t msg_id) {
    p.src = 1;
    p.dst = 2;
    p.src_port = 1000;
    p.dst_port = 2000;
    p.protocol = netsim::Protocol::tcp;
    p.size_bytes = 1514;
    p.payload_bytes = 1460;
    p.meta.msg_id = msg_id;
  }
};

TEST_F(ZeroAllocTest, PooledPacketLifecycleIsAllocFree) {
  netsim::PacketPoolConfig config;
  config.capacity_slots = 1024;
  config.slab_slots = 1024;
  config.magazine_slots = 64;
  netsim::PacketPool pool(config);

  // Warm-up: materialize the slab, build this thread's magazine, and
  // exercise the full magazine refill/flush cycle once.
  {
    std::vector<netsim::PacketPtr> warm;
    warm.reserve(512);
    for (int i = 0; i < 512; ++i) warm.push_back(pool.make());
  }

  std::uint64_t news = 0;
  {
    testsupport::AllocGate gate;
    for (int round = 0; round < 1000; ++round) {
      auto p = pool.make();
      auto q = pool.try_make();
      auto r = pool.clone(*p);
      p.reset();
      q.reset();
      r.reset();
    }
    news = gate.news();
  }
  EXPECT_EQ(news, 0u) << "pooled make/clone/release touched the heap";
  EXPECT_EQ(pool.stats().heap_fallback_total, 0u);
}

TEST_F(ZeroAllocTest, ProcessBatchSteadyStateIsAllocFree) {
  // A per-message action — the grouped run_action_batch path with
  // message-state copies, the heaviest steady-state code the enclave
  // runs.
  install_with_rule(
      "seq", "fun(p, m, g) -> m.state0 <- m.state0 + 1; p.path <- m.state0");

  constexpr std::size_t kBatch = 64;
  std::vector<netsim::PacketPtr> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    auto p = netsim::make_packet();
    fill(*p, static_cast<std::int64_t>(i % 8 + 1));
    batch.push_back(std::move(p));
  }

  // Warm-up: thread state, interpreter scratch, message entries for
  // every key, grouping scratch sized to the batch.
  for (int i = 0; i < 100; ++i) {
    enclave_.process_batch(std::span(batch.data(), batch.size()));
  }

  std::uint64_t news = 0;
  {
    testsupport::AllocGate gate;
    for (int i = 0; i < 1000; ++i) {
      enclave_.process_batch(std::span(batch.data(), batch.size()));
    }
    news = gate.news();
  }
  EXPECT_EQ(news, 0u) << "process_batch allocated in steady state";
}

TEST_F(ZeroAllocTest, PooledDataPlaneSteadyStateIsAllocFree) {
  // End to end: pooled allocation -> submit_burst -> worker batches ->
  // bulk completion rings -> drain -> pooled release. After warm-up,
  // a sustained window of full round-trips must not touch the heap from
  // ANY thread — the counters are process-wide, so a worker that
  // allocates fails the gate too.
  install_with_rule(
      "seq", "fun(p, m, g) -> m.state0 <- m.state0 + 1; p.path <- m.state0");

  netsim::PacketPoolConfig pool_config;
  pool_config.capacity_slots = 8192;
  pool_config.slab_slots = 8192;
  pool_config.magazine_slots = 64;
  netsim::PacketPool pool(pool_config);

  DataPlaneConfig cfg;
  cfg.workers = 2;
  cfg.ring_capacity = 256;
  cfg.max_batch = 32;
  cfg.pool = &pool;
  DataPlane dp(enclave_, cfg);

  constexpr std::size_t kBurst = 32;
  std::vector<netsim::PacketPtr> burst(kBurst);
  std::uint64_t completions = 0;
  const auto sink = [&](netsim::PacketPtr p) {
    ++completions;
    p.reset();
  };

  const auto run_window = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      std::size_t filled = 0;
      while (filled < kBurst) {
        auto p = pool.try_make();
        if (p == nullptr) break;  // generously sized; should not happen
        fill(*p, static_cast<std::int64_t>(filled % 8 + 1));
        burst[filled++] = std::move(p);
      }
      std::size_t sent = 0;
      while (sent < filled) {
        sent += dp.submit_burst(std::span(burst.data(), filled));
        if (sent < filled) dp.drain_completions(sink);
      }
      dp.drain_completions(sink);
    }
    dp.flush(sink);
  };

  // Warm-up builds: pool slab + both threads' structures, worker thread
  // state, all ring/burst scratch, message entries.
  run_window(500);

  const std::uint64_t before = completions;
  std::uint64_t news = 0;
  {
    testsupport::AllocGate gate;
    run_window(1000);
    news = gate.news();
  }
  EXPECT_EQ(news, 0u) << "the pooled datapath allocated in steady state";
  EXPECT_GT(completions, before);
  const auto stats = dp.stats();
  EXPECT_EQ(stats.pool.heap_fallback_total, 0u);
  dp.stop(sink);
}

}  // namespace
}  // namespace eden::hoststack
