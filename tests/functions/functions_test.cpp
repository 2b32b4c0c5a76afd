// The network-function library: behaviour of each function and the
// central property that the interpreted bytecode and the native twin
// are observationally equivalent on the same state.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string_view>

#include "core/enclave.h"
#include "functions/firewall.h"
#include "functions/misc.h"
#include "functions/pulsar.h"
#include "functions/registry.h"
#include "functions/scheduling.h"
#include "functions/wcmp.h"
#include "util/rng.h"

namespace eden::functions {
namespace {

using core::MessageSlot;
using core::PacketSlot;

// Harness executing one function both ways against identical state.
class TwinHarness {
 public:
  explicit TwinHarness(const NetworkFunction& fn)
      : schema_(core::make_enclave_schema(fn.global_fields())),
        program_(fn.compile()),
        native_(fn.native()),
        interp_(lang::ExecLimits{}, /*rng_seed=*/99),
        native_rng_(99) {
    reset();
  }

  void reset() {
    eden_pkt_ = lang::StateBlock::from_schema(schema_, lang::Scope::packet);
    eden_msg_ = lang::StateBlock::from_schema(schema_, lang::Scope::message);
    eden_glb_ = lang::StateBlock::from_schema(schema_, lang::Scope::global);
    native_pkt_ = eden_pkt_;
    native_msg_ = eden_msg_;
    native_glb_ = eden_glb_;
  }

  // Sets the same value in both variants' state.
  void set_packet(std::uint16_t slot, std::int64_t v) {
    eden_pkt_.scalars[slot] = native_pkt_.scalars[slot] = v;
  }
  void set_message(std::uint16_t slot, std::int64_t v) {
    eden_msg_.scalars[slot] = native_msg_.scalars[slot] = v;
  }
  void set_global_scalar(std::uint16_t slot, std::int64_t v) {
    eden_glb_.scalars[slot] = native_glb_.scalars[slot] = v;
  }
  void set_global_array(std::uint16_t slot, std::uint16_t stride,
                        std::vector<std::int64_t> data) {
    eden_glb_.arrays[slot].stride = stride;
    eden_glb_.arrays[slot].data = data;
    native_glb_.arrays[slot].stride = stride;
    native_glb_.arrays[slot].data = std::move(data);
  }

  // Runs both variants; EXPECTs identical status and — on success —
  // identical packet/message state afterwards. On error the enclave
  // discards all writes, so only the status must agree (a bytecode trap
  // may have applied a prefix of the writes to the scratch blocks).
  // Randomized functions (wcmp) must be compared distributionally
  // instead — use run_eden/run_native directly there.
  void run_both_and_compare() {
    const lang::ExecResult r =
        interp_.execute(program_, &eden_pkt_, &eden_msg_, &eden_glb_);
    core::NativeCtx ctx{native_rng_, 0};
    const lang::ExecStatus ns =
        native_(native_pkt_, &native_msg_, &native_glb_, ctx);
    ASSERT_EQ(r.status, ns);
    if (r.status != lang::ExecStatus::ok) return;
    EXPECT_EQ(eden_pkt_.scalars, native_pkt_.scalars);
    EXPECT_EQ(eden_msg_.scalars, native_msg_.scalars);
  }

  lang::ExecStatus run_eden() {
    return interp_.execute(program_, &eden_pkt_, &eden_msg_, &eden_glb_)
        .status;
  }
  lang::ExecStatus run_native() {
    core::NativeCtx ctx{native_rng_, 0};
    return native_(native_pkt_, &native_msg_, &native_glb_, ctx);
  }

  lang::StateSchema schema_;
  lang::CompiledProgram program_;
  core::NativeActionFn native_;
  lang::Interpreter interp_;
  util::Rng native_rng_;
  lang::StateBlock eden_pkt_, eden_msg_, eden_glb_;
  lang::StateBlock native_pkt_, native_msg_, native_glb_;
};

// ---- PIAS ----------------------------------------------------------------

TEST(Pias, DemotesThroughBands) {
  PiasFunction pias;
  TwinHarness h(pias);
  h.set_global_array(0, 2, {10240, 7, 1048576, 5});
  h.set_message(MessageSlot::priority, 1);
  h.set_packet(PacketSlot::size, 1460);

  // Band 1: under 10KB.
  h.set_message(MessageSlot::size, 0);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 7);
  // Band 2.
  h.set_message(MessageSlot::size, 500000);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 5);
  // Band 3: background.
  h.set_message(MessageSlot::size, 5000000);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 0);
}

TEST(Pias, EmptyThresholdTableMeansBackground) {
  PiasFunction pias;
  TwinHarness h(pias);
  h.set_message(MessageSlot::priority, 1);
  h.set_packet(PacketSlot::size, 100);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 0);
}

// Property sweep: interpreted PIAS == native PIAS across message sizes.
class PiasEquivalence : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PiasEquivalence, TwinsAgree) {
  PiasFunction pias;
  TwinHarness h(pias);
  h.set_global_array(0, 2, {10240, 7, 1048576, 5});
  h.set_message(MessageSlot::priority, 1);
  h.set_message(MessageSlot::size, GetParam());
  h.set_packet(PacketSlot::size, 1460);
  h.run_both_and_compare();
}

INSTANTIATE_TEST_SUITE_P(Sizes, PiasEquivalence,
                         ::testing::Values(0, 1, 8780, 8781, 10239, 10240,
                                           10241, 524288, 1048575, 1048576,
                                           1048577, 1 << 30));

// ---- SFF ------------------------------------------------------------------

TEST(Sff, PriorityFixedByFlowSize) {
  SffFunction sff;
  TwinHarness h(sff);
  h.set_global_array(0, 2, {10240, 7, 1048576, 5});
  h.set_packet(PacketSlot::app_priority, 1);

  h.set_packet(PacketSlot::flow_size, 500);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 7);

  h.set_packet(PacketSlot::flow_size, 50000);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 5);

  h.set_packet(PacketSlot::flow_size, 50000000);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 0);
}

TEST(Sff, RespectsAppPinnedPriority) {
  SffFunction sff;
  TwinHarness h(sff);
  h.set_global_array(0, 2, {10240, 7});
  h.set_packet(PacketSlot::app_priority, 0);
  h.set_packet(PacketSlot::flow_size, 500);  // would be priority 7
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 0);
}

TEST(Sff, IsParallelWhilePiasIsPerMessage) {
  EXPECT_EQ(SffFunction{}.compile().concurrency,
            lang::ConcurrencyMode::parallel);
  EXPECT_EQ(PiasFunction{}.compile().concurrency,
            lang::ConcurrencyMode::per_message);
}

// ---- WCMP -----------------------------------------------------------------

TEST(Wcmp, WeightsRespectedDistributionally) {
  WcmpFunction wcmp;
  TwinHarness h(wcmp);
  // dst 2: labels 100 (weight 900) and 200 (weight 100).
  h.set_global_array(0, 3, {2, 100, 900, 2, 200, 100});
  h.set_packet(PacketSlot::dst, 2);

  int eden_hits[2] = {};
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(h.run_eden(), lang::ExecStatus::ok);
    const std::int64_t label = h.eden_pkt_.scalars[PacketSlot::path];
    ASSERT_TRUE(label == 100 || label == 200);
    ++eden_hits[label == 200];
  }
  EXPECT_NEAR(static_cast<double>(eden_hits[0]) / kDraws, 0.9, 0.02);

  int native_hits[2] = {};
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(h.run_native(), lang::ExecStatus::ok);
    const std::int64_t label = h.native_pkt_.scalars[PacketSlot::path];
    ++native_hits[label == 200];
  }
  EXPECT_NEAR(static_cast<double>(native_hits[0]) / kDraws, 0.9, 0.02);
}

TEST(Wcmp, UnknownDestinationFallsBackToDestRouting) {
  WcmpFunction wcmp;
  TwinHarness h(wcmp);
  h.set_global_array(0, 3, {2, 100, 1000});
  h.set_packet(PacketSlot::dst, 99);  // not in the table
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], -1);
}

TEST(Wcmp, MultiDestinationTableSelectsMatchingRows) {
  WcmpFunction wcmp;
  TwinHarness h(wcmp);
  h.set_global_array(0, 3, {5, 50, 1000, 2, 100, 1000});
  h.set_packet(PacketSlot::dst, 2);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], 100);
}

TEST(MessageWcmp, CachesPathInMessageState) {
  MessageWcmpFunction mwcmp;
  TwinHarness h(mwcmp);
  h.set_global_array(0, 3, {2, 100, 500, 2, 200, 500});
  h.set_packet(PacketSlot::dst, 2);
  h.set_message(MessageSlot::path, -1);

  ASSERT_EQ(h.run_eden(), lang::ExecStatus::ok);
  const std::int64_t first = h.eden_pkt_.scalars[PacketSlot::path];
  EXPECT_EQ(h.eden_msg_.scalars[MessageSlot::path], first);
  // Every subsequent packet of the message takes the cached path.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(h.run_eden(), lang::ExecStatus::ok);
    EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], first);
  }
}

// ---- Pulsar -----------------------------------------------------------------

TEST(Pulsar, ChargesReadsByOperationSize) {
  PulsarFunction pulsar;
  TwinHarness h(pulsar);
  h.set_global_array(0, 2, {1, 3, 2, 4});  // tenant 1 -> q3, tenant 2 -> q4
  h.set_packet(PacketSlot::tenant, 1);
  h.set_packet(PacketSlot::size, 200);
  h.set_packet(PacketSlot::msg_size, 65536);
  h.set_packet(PacketSlot::msg_type, kIoRead);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::queue], 3);
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::charge], 65536);
}

TEST(Pulsar, ChargesWritesByPacketSize) {
  PulsarFunction pulsar;
  TwinHarness h(pulsar);
  h.set_global_array(0, 2, {2, 4});
  h.set_packet(PacketSlot::tenant, 2);
  h.set_packet(PacketSlot::size, 1514);
  h.set_packet(PacketSlot::msg_size, 65536);
  h.set_packet(PacketSlot::msg_type, kIoWrite);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::queue], 4);
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::charge], 1514);
}

TEST(Pulsar, UnknownTenantBypassesQueues) {
  PulsarFunction pulsar;
  TwinHarness h(pulsar);
  h.set_global_array(0, 2, {1, 3});
  h.set_packet(PacketSlot::tenant, 42);
  h.set_packet(PacketSlot::size, 100);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::queue], -1);
}

// ---- Port knocking ---------------------------------------------------------

class PortKnockTest : public ::testing::Test {
 protected:
  PortKnockFunction fn_;
  TwinHarness h_{fn_};

  void SetUp() override {
    h_.set_global_array(0, 1, {1001, 1002, 1003});
    h_.set_global_scalar(0, 2222);  // open_port
    h_.set_global_scalar(1, 0);     // strict off
  }

  std::int64_t knock(std::int64_t port) {
    h_.set_packet(PacketSlot::dst_port, port);
    h_.set_packet(PacketSlot::drop, 0);
    h_.run_both_and_compare();
    return h_.eden_pkt_.scalars[PacketSlot::drop];
  }
};

TEST_F(PortKnockTest, ClosedUntilFullSequence) {
  EXPECT_EQ(knock(2222), 1);  // dropped
  EXPECT_EQ(knock(1001), 0);
  EXPECT_EQ(knock(2222), 1);  // still dropped
  EXPECT_EQ(knock(1002), 0);
  EXPECT_EQ(knock(1003), 0);
  EXPECT_EQ(knock(2222), 0);  // open
  EXPECT_EQ(knock(2222), 0);  // stays open
}

TEST_F(PortKnockTest, WrongKnockTolerantByDefault) {
  knock(1001);
  knock(7777);  // unrelated traffic
  knock(1002);
  knock(1003);
  EXPECT_EQ(knock(2222), 0);
}

TEST_F(PortKnockTest, StrictModeResetsOnWrongKnock) {
  h_.set_global_scalar(1, 1);  // strict on
  knock(1001);
  knock(7777);  // resets
  knock(1002);
  knock(1003);
  EXPECT_EQ(knock(2222), 1);  // not open: sequence restarted mid-way
  knock(1001);
  knock(1002);
  knock(1003);
  EXPECT_EQ(knock(2222), 0);
}

// ---- Connection tracking ------------------------------------------------------

class ConntrackTest : public ::testing::Test {
 protected:
  ConntrackFunction fn_;
  TwinHarness h_{fn_};

  void SetUp() override {
    h_.set_global_scalar(0, 10);          // self = host 10
    h_.set_global_array(0, 1, {80, 443});  // public ports
  }

  // Simulates a packet; returns true if it would be dropped.
  bool dropped(std::int64_t src, std::int64_t dst_port) {
    h_.set_packet(PacketSlot::src, src);
    h_.set_packet(PacketSlot::dst_port, dst_port);
    h_.set_packet(PacketSlot::drop, 0);
    h_.run_both_and_compare();
    return h_.eden_pkt_.scalars[PacketSlot::drop] != 0;
  }
};

TEST_F(ConntrackTest, InboundOnUnknownConnectionDrops) {
  EXPECT_TRUE(dropped(/*src=*/99, /*dst_port=*/5000));
}

TEST_F(ConntrackTest, OutboundEstablishesThenInboundPasses) {
  EXPECT_FALSE(dropped(/*src=*/10, /*dst_port=*/5000));  // we initiated
  EXPECT_FALSE(dropped(/*src=*/99, /*dst_port=*/12345)); // reply passes
}

TEST_F(ConntrackTest, OpenPortsAlwaysAccept) {
  EXPECT_FALSE(dropped(/*src=*/99, /*dst_port=*/80));
  EXPECT_FALSE(dropped(/*src=*/99, /*dst_port=*/443));
  // And the accepted connection is now established for other ports too
  // (same message state in this harness).
  EXPECT_FALSE(dropped(/*src=*/99, /*dst_port=*/5000));
}

TEST(ConntrackEnclave, SymmetricFlowKeysTieDirectionsTogether) {
  // End-to-end through the enclave: outbound and inbound packets of the
  // same connection have mirrored five-tuples; the symmetric flow
  // classifier must give them the same message state.
  core::ClassRegistry registry;
  core::Enclave enclave("fw", registry);
  core::FlowClassifierRule rule;
  rule.class_id = registry.intern("enclave.flows.all");
  rule.symmetric = true;
  enclave.add_flow_rule(rule);

  ConntrackFunction fn;
  const core::ActionId action = fn.install(enclave, false);
  const std::int64_t open_ports[] = {80};
  push_conntrack_config(enclave, action, /*self_host=*/1, open_ports);
  const core::TableId table = enclave.create_table("fw");
  enclave.add_rule(table, core::ClassPattern("*"), action);

  // Outbound: host 1 -> host 2, sport 5555 dport 9999.
  netsim::Packet out;
  out.src = 1;
  out.dst = 2;
  out.src_port = 5555;
  out.dst_port = 9999;
  out.size_bytes = 100;
  EXPECT_TRUE(enclave.process(out));

  // Inbound reply: host 2 -> host 1, mirrored ports. Must pass.
  netsim::Packet reply;
  reply.src = 2;
  reply.dst = 1;
  reply.src_port = 9999;
  reply.dst_port = 5555;
  reply.size_bytes = 100;
  EXPECT_TRUE(enclave.process(reply));
  EXPECT_FALSE(reply.drop_mark);

  // Unrelated inbound connection to a closed port: dropped.
  netsim::Packet attack;
  attack.src = 3;
  attack.dst = 1;
  attack.src_port = 4444;
  attack.dst_port = 5555;
  attack.size_bytes = 100;
  EXPECT_FALSE(enclave.process(attack));
}

// ---- VIP load balancing --------------------------------------------------------

TEST(VipLb, PinsConnectionToOneBackend) {
  VipLbFunction fn;
  TwinHarness h(fn);
  h.set_global_scalar(0, 42);  // VIP
  h.set_global_array(0, 1, {101, 102, 103});
  h.set_packet(PacketSlot::dst, 42);

  ASSERT_EQ(h.run_eden(), lang::ExecStatus::ok);
  const std::int64_t first = h.eden_pkt_.scalars[PacketSlot::path];
  EXPECT_TRUE(first == 101 || first == 102 || first == 103);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(h.run_eden(), lang::ExecStatus::ok);
    EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], first);
  }
}

TEST(VipLb, NonVipTrafficUntouched) {
  VipLbFunction fn;
  TwinHarness h(fn);
  h.set_global_scalar(0, 42);
  h.set_global_array(0, 1, {101});
  h.set_packet(PacketSlot::dst, 7);  // not the VIP
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], -1);
}

TEST(VipLb, SpreadsConnectionsAcrossBackends) {
  VipLbFunction fn;
  TwinHarness h(fn);
  h.set_global_scalar(0, 42);
  h.set_global_array(0, 1, {101, 102, 103});
  h.set_packet(PacketSlot::dst, 42);
  std::map<std::int64_t, int> hits;
  for (int conn = 0; conn < 300; ++conn) {
    h.set_message(MessageSlot::state0, 0);  // fresh connection
    ASSERT_EQ(h.run_eden(), lang::ExecStatus::ok);
    ++hits[h.eden_pkt_.scalars[PacketSlot::path]];
  }
  ASSERT_EQ(hits.size(), 3u);
  for (const auto& [label, count] : hits) {
    EXPECT_NEAR(count, 100, 45) << label;
  }
}

// ---- Config helpers --------------------------------------------------------------

// Each helper lands all of its global writes in one publish, so a live
// data path never runs the action half-configured.
TEST(ConfigHelpers, EachHelperPublishesOnce) {
  core::ClassRegistry registry;
  core::Enclave enclave("cfg", registry);
  const core::ActionId conntrack = ConntrackFunction().install(enclave, false);
  const core::ActionId knock = PortKnockFunction().install(enclave, false);
  const core::ActionId vip = VipLbFunction().install(enclave, false);
  const std::int64_t values[] = {80, 443};

  std::uint64_t version = enclave.ruleset_version();
  push_conntrack_config(enclave, conntrack, /*self_host=*/1, values);
  EXPECT_EQ(enclave.ruleset_version(), version + 1);
  EXPECT_EQ(enclave.read_global_scalar(conntrack, "self"), 1);

  version = enclave.ruleset_version();
  push_knock_config(enclave, knock, values, /*open_port=*/2222,
                    /*strict=*/true);
  EXPECT_EQ(enclave.ruleset_version(), version + 1);
  EXPECT_EQ(enclave.read_global_scalar(knock, "open_port"), 2222);
  EXPECT_EQ(enclave.read_global_scalar(knock, "strict"), 1);

  version = enclave.ruleset_version();
  push_vip_config(enclave, vip, /*vip=*/42, values);
  EXPECT_EQ(enclave.ruleset_version(), version + 1);
  EXPECT_EQ(enclave.read_global_scalar(vip, "vip"), 42);
  EXPECT_FALSE(enclave.txn_open());
}

// A write that throws aborts the helper's transaction: the writes
// staged before it are dropped and nothing is published.
TEST(ConfigHelpers, FailedWriteAbortsTheWholeConfig) {
  core::ClassRegistry registry;
  core::Controller controller(registry);
  core::Enclave enclave("cfg", registry);
  // Declares push_vip_config's first field but not its second.
  lang::FieldDef vip_field;
  vip_field.name = "vip";
  const std::vector<lang::FieldDef> fields = {vip_field};
  const core::ActionId half = enclave.install_action(
      "half", controller.compile("half", "fun(p, m, g) -> p.path <- g.vip",
                                 fields),
      fields);
  const core::ActionId conntrack = ConntrackFunction().install(enclave, false);
  const std::int64_t values[] = {80, 443};

  const std::uint64_t version = enclave.ruleset_version();
  EXPECT_THROW(push_vip_config(enclave, half, /*vip=*/42, values),
               std::invalid_argument);
  EXPECT_FALSE(enclave.txn_open());
  EXPECT_EQ(enclave.ruleset_version(), version);
  EXPECT_EQ(enclave.read_global_scalar(half, "vip"), 0);

  // The conntrack action has neither of the knock helper's fields.
  EXPECT_THROW(push_knock_config(enclave, conntrack, values, 2222, false),
               std::invalid_argument);
  EXPECT_FALSE(enclave.txn_open());
  EXPECT_EQ(enclave.ruleset_version(), version);
}

// ---- QJump / replica select / counter ---------------------------------------

TEST(Qjump, MapsLevelToPriorityAndQueue) {
  QjumpFunction qjump;
  TwinHarness h(qjump);
  h.set_global_array(0, 1, {10, 11, 12, 13, 14, 15, 16, 17});
  h.set_packet(PacketSlot::app_priority, 5);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 5);
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::queue], 15);
}

TEST(Qjump, ClampsOutOfRangeLevels) {
  QjumpFunction qjump;
  TwinHarness h(qjump);
  h.set_global_array(0, 1, {10, 11, 12, 13, 14, 15, 16, 17});
  h.set_packet(PacketSlot::app_priority, 99);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 7);
  h.set_packet(PacketSlot::app_priority, -2);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::priority], 0);
}

TEST(ReplicaSelect, SameKeySamePath) {
  ReplicaSelectFunction rs;
  TwinHarness h(rs);
  h.set_global_array(0, 1, {100, 200, 300});
  h.set_packet(PacketSlot::key_hash, 123456789);
  h.run_both_and_compare();
  const std::int64_t first = h.eden_pkt_.scalars[PacketSlot::path];
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], first);
}

TEST(ReplicaSelect, SpreadsAcrossReplicas) {
  ReplicaSelectFunction rs;
  TwinHarness h(rs);
  h.set_global_array(0, 1, {100, 200, 300});
  std::set<std::int64_t> seen;
  for (std::int64_t key = 1; key <= 30; ++key) {
    h.set_packet(PacketSlot::key_hash, key * 7919);
    h.run_both_and_compare();
    seen.insert(h.eden_pkt_.scalars[PacketSlot::path]);
  }
  EXPECT_EQ(seen.size(), 3u);  // all replicas used
}

TEST(ReplicaSelect, EmptyTableLeavesPathAlone) {
  ReplicaSelectFunction rs;
  TwinHarness h(rs);
  h.set_packet(PacketSlot::key_hash, 42);
  h.run_both_and_compare();
  EXPECT_EQ(h.eden_pkt_.scalars[PacketSlot::path], -1);
}

TEST(Counter, AccumulatesAndIsSerialized) {
  CounterFunction counter;
  TwinHarness h(counter);
  h.set_packet(PacketSlot::size, 1514);
  for (int i = 0; i < 5; ++i) h.run_both_and_compare();
  EXPECT_EQ(h.eden_glb_.scalars[0], 5);
  EXPECT_EQ(h.eden_glb_.scalars[1], 5 * 1514);
  EXPECT_EQ(h.eden_glb_.scalars, h.native_glb_.scalars);
  EXPECT_EQ(counter.compile().concurrency,
            lang::ConcurrencyMode::serialized);
}

// ---- Registry ----------------------------------------------------------------

TEST(Registry, EveryFunctionCompilesAndAgreesWithItsTwin) {
  // Smoke equivalence over default (zeroed) state for every registered
  // function except the randomized ones.
  for (const auto& fn : all_functions()) {
    SCOPED_TRACE(fn->name());
    const lang::CompiledProgram program = fn->compile();
    EXPECT_FALSE(program.code.empty());
    if (std::string_view(fn->name()).find("wcmp") != std::string_view::npos) {
      continue;  // randomized: covered distributionally above
    }
    TwinHarness h(*fn);
    h.run_both_and_compare();
  }
}

TEST(Registry, Table1HasBothImplementedAndTaxonomyRows) {
  const auto rows = table1_rows();
  int implemented = 0, taxonomy = 0;
  for (const auto& row : rows) {
    (row.implemented ? implemented : taxonomy)++;
  }
  EXPECT_EQ(implemented, static_cast<int>(all_functions().size()));
  EXPECT_GT(taxonomy, 4);
}

}  // namespace
}  // namespace eden::functions
