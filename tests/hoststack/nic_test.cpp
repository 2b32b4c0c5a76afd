// NIC queue steering: valid ids rate-limit, -1 bypasses, anything else
// is a counted drop (never a silent rate-limiter bypass), and backlog
// queries are bounds-checked.
#include "hoststack/nic.h"

#include <gtest/gtest.h>

#include "experiments/testbed.h"

namespace eden::hoststack {
namespace {

constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;

class NicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = &bed_.add_host("a");
    b_ = &bed_.add_host("b");
    bed_.connect(*a_, *b_, 10 * kGbps, 1000);
    bed_.routing().install_dest_routes();
    bed_.finalize();
    alice_ = bed_.host_by_name("a");
    bob_ = bed_.host_by_name("b");
    bob_->stack->set_raw_handler(
        [this](netsim::PacketPtr) { ++arrived_; });
  }

  netsim::PacketPtr raw_packet(int queue) {
    auto p = netsim::make_packet();
    p->src = a_->id();
    p->dst = b_->id();
    p->dst_port = 9999;
    p->protocol = netsim::Protocol::storage;
    p->size_bytes = 200;
    p->rl_queue = queue;
    return p;
  }

  experiments::Testbed bed_;
  netsim::HostNode* a_ = nullptr;
  netsim::HostNode* b_ = nullptr;
  experiments::TestHost* alice_ = nullptr;
  experiments::TestHost* bob_ = nullptr;
  int arrived_ = 0;
};

TEST_F(NicTest, ValidQueueRateLimits) {
  Nic& nic = alice_->stack->nic();
  const int q = nic.create_queue(8 * 1000, 200);  // 1 KB/s, one packet
  nic.send(raw_packet(q));
  nic.send(raw_packet(q));  // must wait ~200 ms for tokens
  bed_.run_for(10 * netsim::kMillisecond);
  EXPECT_EQ(arrived_, 1);
  EXPECT_EQ(nic.queue_backlog(q), 1u);
  bed_.run_for(netsim::kSecond);
  EXPECT_EQ(arrived_, 2);
  EXPECT_EQ(nic.bad_queue_drops(), 0u);
}

TEST_F(NicTest, MinusOneBypassesLimiters) {
  Nic& nic = alice_->stack->nic();
  nic.create_queue(8 * 1000, 200);  // present but not selected
  nic.send(raw_packet(-1));
  nic.send(raw_packet(-1));
  bed_.run_for(10 * netsim::kMillisecond);
  EXPECT_EQ(arrived_, 2);
  EXPECT_EQ(nic.bad_queue_drops(), 0u);
}

TEST_F(NicTest, OutOfRangeQueueDropsAndCounts) {
  Nic& nic = alice_->stack->nic();
  const int q = nic.create_queue(8 * 1000 * 1000, 10000);
  nic.send(raw_packet(q + 1));  // past the end
  nic.send(raw_packet(7));      // never created
  nic.send(raw_packet(-2));     // negative but not the bypass value
  bed_.run_for(100 * netsim::kMillisecond);
  EXPECT_EQ(arrived_, 0);  // none reached the wire...
  EXPECT_EQ(nic.bad_queue_drops(), 3u);  // ...and every drop is counted
}

TEST_F(NicTest, NoQueuesMeansOnlyBypassFlows) {
  Nic& nic = alice_->stack->nic();
  ASSERT_EQ(nic.queue_count(), 0);
  nic.send(raw_packet(0));  // queue 0 does not exist yet
  nic.send(raw_packet(-1));
  bed_.run_for(10 * netsim::kMillisecond);
  EXPECT_EQ(arrived_, 1);
  EXPECT_EQ(nic.bad_queue_drops(), 1u);
}

TEST_F(NicTest, BacklogQueryIsBoundsChecked) {
  Nic& nic = alice_->stack->nic();
  EXPECT_EQ(nic.queue_backlog(-1), 0u);
  EXPECT_EQ(nic.queue_backlog(0), 0u);
  EXPECT_EQ(nic.queue_backlog(1000), 0u);
  const int q = nic.create_queue(8 * 1000, 200);
  nic.send(raw_packet(q));
  nic.send(raw_packet(q));
  EXPECT_EQ(nic.queue_backlog(q), 1u);
  EXPECT_EQ(nic.queue_backlog(q + 1), 0u);
}

}  // namespace
}  // namespace eden::hoststack
