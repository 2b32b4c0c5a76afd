// The enclave data path: match-action tables, state management, the
// concurrency model, error isolation and the enclave's own stage.
#include "core/enclave.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "core/controller.h"
#include "telemetry/span.h"

namespace eden::core {
namespace {

netsim::Packet tcp_packet(std::int64_t msg_id = 7) {
  netsim::Packet p;
  p.src = 1;
  p.dst = 2;
  p.src_port = 1000;
  p.dst_port = 2000;
  p.protocol = netsim::Protocol::tcp;
  p.size_bytes = 1514;
  p.payload_bytes = 1460;
  p.meta.msg_id = msg_id;
  return p;
}

class EnclaveTest : public ::testing::Test {
 protected:
  ClassRegistry registry_;
  Enclave enclave_{"test", registry_};
  Controller controller_{registry_};

  ActionId install(const char* name, const char* source,
                   std::vector<lang::FieldDef> globals = {}) {
    const lang::CompiledProgram program =
        controller_.compile(name, source, globals);
    return enclave_.install_action(name, program, globals);
  }

  // Installs `source` behind a match-any rule in a fresh table.
  ActionId install_with_rule(const char* name, const char* source,
                             std::vector<lang::FieldDef> globals = {}) {
    const ActionId action = install(name, source, globals);
    const TableId table = enclave_.create_table(name);
    enclave_.add_rule(table, ClassPattern("*"), action);
    return action;
  }
};

TEST_F(EnclaveTest, ActionSetsPacketPriority) {
  install_with_rule("p3", "fun(p, m, g) -> p.priority <- 3");
  netsim::Packet packet = tcp_packet();
  EXPECT_TRUE(enclave_.process(packet));
  EXPECT_EQ(packet.priority, 3);
  EXPECT_EQ(enclave_.stats().packets, 1u);
  EXPECT_EQ(enclave_.stats().matched, 1u);
}

TEST_F(EnclaveTest, PriorityClampedToValidRange) {
  install_with_rule("p99", "fun(p, m, g) -> p.priority <- 99");
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, netsim::kMaxPriorities - 1);
}

TEST_F(EnclaveTest, DropActionDropsPacket) {
  install_with_rule("dropper", "fun(p, m, g) -> p.drop <- 1");
  netsim::Packet packet = tcp_packet();
  EXPECT_FALSE(enclave_.process(packet));
  EXPECT_EQ(enclave_.stats().dropped_by_action, 1u);
}

TEST_F(EnclaveTest, NoTableMeansPassThrough) {
  netsim::Packet packet = tcp_packet();
  packet.priority = 5;
  EXPECT_TRUE(enclave_.process(packet));
  EXPECT_EQ(packet.priority, 5);
  EXPECT_EQ(enclave_.stats().matched, 0u);
}

TEST_F(EnclaveTest, RuleMatchesOnClassNotHeaders) {
  const ClassId get = registry_.intern("memcached.r1.GET");
  const ClassId put = registry_.intern("memcached.r1.PUT");
  const ActionId action = install("p6", "fun(p, m, g) -> p.priority <- 6");
  const TableId table = enclave_.create_table("t");
  enclave_.add_rule(table, ClassPattern("memcached.r1.GET"), action);

  netsim::Packet get_packet = tcp_packet();
  get_packet.classes.add(get);
  enclave_.process(get_packet);
  EXPECT_EQ(get_packet.priority, 6);

  netsim::Packet put_packet = tcp_packet();
  put_packet.classes.add(put);
  enclave_.process(put_packet);
  EXPECT_EQ(put_packet.priority, 0);  // no rule matched
}

TEST_F(EnclaveTest, FirstMatchingRuleWinsWithinTable) {
  const ClassId get = registry_.intern("memcached.r1.GET");
  const ActionId first = install("first", "fun(p, m, g) -> p.priority <- 1");
  const ActionId second = install("second", "fun(p, m, g) -> p.priority <- 2");
  const TableId table = enclave_.create_table("t");
  enclave_.add_rule(table, ClassPattern("memcached.r1.*"), first);
  enclave_.add_rule(table, ClassPattern("memcached.r1.GET"), second);
  netsim::Packet packet = tcp_packet();
  packet.classes.add(get);
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 1);
}

TEST_F(EnclaveTest, TablesApplyInOrderAndCompose) {
  // Table 1 sets the priority, table 2 reads nothing but sets the path;
  // both actions run on the same packet.
  const ActionId prio = install("prio", "fun(p, m, g) -> p.priority <- 4");
  const ActionId path = install("path", "fun(p, m, g) -> p.path <- 17");
  const TableId t1 = enclave_.create_table("t1");
  const TableId t2 = enclave_.create_table("t2");
  enclave_.add_rule(t1, ClassPattern("*"), prio);
  enclave_.add_rule(t2, ClassPattern("*"), path);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 4);
  EXPECT_EQ(packet.path_label, 17);
}

TEST_F(EnclaveTest, ReinstallUnderLiveNameReplacesInPlace) {
  const ActionId first =
      install_with_rule("prio", "fun(p, m, g) -> p.priority <- 3");
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  ASSERT_EQ(packet.priority, 3);

  // Live update: same name, new program. The id (and the rule bound to
  // it) survives, and name lookups resolve the new entry — never a
  // stale duplicate.
  const ActionId second = install("prio", "fun(p, m, g) -> p.priority <- 5");
  EXPECT_EQ(second, first);
  EXPECT_EQ(enclave_.find_action("prio"), first);
  packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 5);
}

TEST_F(EnclaveTest, ReinstallInsideTxnStaysStagedUntilCommit) {
  const ActionId id =
      install_with_rule("prio", "fun(p, m, g) -> p.priority <- 3");
  enclave_.begin_txn();
  EXPECT_EQ(install("prio", "fun(p, m, g) -> p.priority <- 5"), id);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 3);  // the committed program still runs
  enclave_.commit_txn();
  packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 5);
}

TEST_F(EnclaveTest, RemoveRuleStopsMatching) {
  const ActionId action = install("p5", "fun(p, m, g) -> p.priority <- 5");
  const TableId table = enclave_.create_table("t");
  const MatchRuleId rule = enclave_.add_rule(table, ClassPattern("*"), action);
  EXPECT_EQ(enclave_.rule_count(table), 1u);
  EXPECT_TRUE(enclave_.remove_rule(table, rule));
  EXPECT_FALSE(enclave_.remove_rule(table, rule));
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 0);
}

TEST_F(EnclaveTest, DeleteTableRemovesItsRules) {
  const ActionId action = install("p5", "fun(p, m, g) -> p.priority <- 5");
  const TableId table = enclave_.create_table("t");
  enclave_.add_rule(table, ClassPattern("*"), action);
  enclave_.delete_table(table);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 0);
  EXPECT_THROW(enclave_.add_rule(table, ClassPattern("*"), action),
               std::invalid_argument);
}

TEST_F(EnclaveTest, RemoveActionDetachesItsRules) {
  const ActionId action = install("p5", "fun(p, m, g) -> p.priority <- 5");
  const TableId table = enclave_.create_table("t");
  enclave_.add_rule(table, ClassPattern("*"), action);
  enclave_.remove_action(action);
  EXPECT_EQ(enclave_.rule_count(table), 0u);
  netsim::Packet packet = tcp_packet();
  EXPECT_TRUE(enclave_.process(packet));
  EXPECT_EQ(packet.priority, 0);
}

TEST_F(EnclaveTest, FindActionByName) {
  const ActionId action = install("needle", "fun(p, m, g) -> 0");
  EXPECT_EQ(enclave_.find_action("needle"), action);
  EXPECT_FALSE(enclave_.find_action("haystack").has_value());
}

TEST_F(EnclaveTest, MessageStatePersistsAcrossPackets) {
  const ActionId action = install_with_rule(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size");
  for (int i = 0; i < 3; ++i) {
    netsim::Packet packet = tcp_packet(/*msg_id=*/5);
    enclave_.process(packet);
  }
  EXPECT_EQ(enclave_.peek_message_state(action, 5, MessageSlot::size),
            3 * 1514);
}

TEST_F(EnclaveTest, MessagesAreIsolatedFromEachOther) {
  const ActionId action = install_with_rule(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size");
  netsim::Packet a = tcp_packet(1);
  netsim::Packet b = tcp_packet(2);
  enclave_.process(a);
  enclave_.process(a);
  enclave_.process(b);
  EXPECT_EQ(enclave_.peek_message_state(action, 1, MessageSlot::size),
            2 * 1514);
  EXPECT_EQ(enclave_.peek_message_state(action, 2, MessageSlot::size),
            1514);
}

TEST_F(EnclaveTest, MessageStateInitializedFromFirstPacket) {
  const ActionId action = install_with_rule(
      "peek_prio", "fun(p, m, g) -> p.priority <- m.priority");
  netsim::Packet packet = tcp_packet(9);
  packet.meta.app_priority = 6;
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 6);  // msg.priority seeded from app_priority
  EXPECT_EQ(enclave_.peek_message_state(action, 9, MessageSlot::priority), 6);
}

// Virtual clock for deterministic message-store timestamps: every
// now_ns() call ticks one virtual microsecond.
std::int64_t test_clock(void* ctx) {
  return (*static_cast<std::int64_t*>(ctx) += 1'000);
}

TEST_F(EnclaveTest, MessageStoreEvictsBeyondCap) {
  EnclaveConfig config;
  config.max_messages_per_action = 4;
  // One shard: a single eviction queue, so the idlest entry globally is
  // the one evicted and the assertions below are deterministic.
  config.message_store_shards = 1;
  Enclave small("small", registry_, config);
  std::int64_t vclock = 0;
  small.set_clock(&test_clock, &vclock);
  const lang::CompiledProgram program = controller_.compile(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size", {});
  const ActionId action = small.install_action("accum", program, {});
  const TableId table = small.create_table("t");
  small.add_rule(table, ClassPattern("*"), action);
  for (std::int64_t id = 1; id <= 10; ++id) {
    netsim::Packet packet = tcp_packet(id);
    small.process(packet);
  }
  EXPECT_EQ(small.stats().message_entries_created, 10u);
  EXPECT_EQ(small.stats().message_entries_evicted, 6u);
  EXPECT_EQ(small.stats().message_entries_live, 4u);
  // Idlest (here: oldest-touched) entries gone, newest retained.
  EXPECT_FALSE(small.peek_message_state(action, 1, 0).has_value());
  EXPECT_TRUE(small.peek_message_state(action, 10, 0).has_value());
}

TEST_F(EnclaveTest, MessageStoreEvictionSparesHotEntries) {
  // Unlike the old creation-order deque, capacity eviction picks the
  // idlest entry: a long-lived message that keeps receiving packets
  // survives churn that would have evicted it by age.
  EnclaveConfig config;
  config.max_messages_per_action = 4;
  config.message_store_shards = 1;
  Enclave small("small", registry_, config);
  std::int64_t vclock = 0;
  small.set_clock(&test_clock, &vclock);
  const lang::CompiledProgram program = controller_.compile(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size", {});
  const ActionId action = small.install_action("accum", program, {});
  const TableId table = small.create_table("t");
  small.add_rule(table, ClassPattern("*"), action);

  // Message 1 is created first but stays hot; fresh messages churn by.
  for (std::int64_t id = 1; id <= 12; ++id) {
    netsim::Packet packet = tcp_packet(id);
    small.process(packet);
    netsim::Packet keepalive = tcp_packet(1);
    small.process(keepalive);
  }
  EXPECT_TRUE(small.peek_message_state(action, 1, 0).has_value())
      << "hot oldest-created message was evicted";
  EXPECT_EQ(small.peek_message_state(action, 1, MessageSlot::size),
            13 * 1514);  // one create + 12 keepalives
}

TEST_F(EnclaveTest, ZeroMessageCapMeansUnlimited) {
  EnclaveConfig config;
  config.max_messages_per_action = 0;  // 0 = unlimited, not "evict all"
  Enclave big("big", registry_, config);
  const lang::CompiledProgram program = controller_.compile(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size", {});
  const ActionId action = big.install_action("accum", program, {});
  const TableId table = big.create_table("t");
  big.add_rule(table, ClassPattern("*"), action);
  for (std::int64_t id = 1; id <= 1000; ++id) {
    netsim::Packet packet = tcp_packet(id);
    big.process(packet);
  }
  EXPECT_EQ(big.stats().message_entries_created, 1000u);
  EXPECT_EQ(big.stats().message_entries_evicted, 0u);
  EXPECT_EQ(big.stats().message_entries_live, 1000u);
  EXPECT_TRUE(big.peek_message_state(action, 1, 0).has_value());
}

TEST_F(EnclaveTest, IdleMessagesExpireOnTimerWheel) {
  EnclaveConfig config;
  config.message_idle_timeout_ns = 10'000'000;  // 10 virtual ms
  config.message_wheel_tick_ns = 1'000'000;
  config.message_store_shards = 1;
  Enclave timed("timed", registry_, config);
  std::int64_t vclock = 0;
  timed.set_clock(&test_clock, &vclock);
  const lang::CompiledProgram program = controller_.compile(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size", {});
  const ActionId action = timed.install_action("accum", program, {});
  const TableId table = timed.create_table("t");
  timed.add_rule(table, ClassPattern("*"), action);

  netsim::Packet a = tcp_packet(1);
  timed.process(a);
  netsim::Packet b = tcp_packet(2);
  timed.process(b);

  // Keep message 1 warm, let message 2 idle past the timeout.
  vclock = 8'000'000;
  netsim::Packet keepalive = tcp_packet(1);
  timed.process(keepalive);
  vclock = 13'000'000;
  timed.advance_message_expiry();

  EXPECT_FALSE(timed.peek_message_state(action, 2, 0).has_value())
      << "idle message survived expiry";
  EXPECT_TRUE(timed.peek_message_state(action, 1, 0).has_value())
      << "recently touched message expired";
  EXPECT_EQ(timed.stats().message_entries_expired, 1u);

  // Far future: everything idles out; expired != evicted accounting.
  vclock = 1'000'000'000;
  timed.advance_message_expiry();
  EXPECT_FALSE(timed.peek_message_state(action, 1, 0).has_value());
  EXPECT_EQ(timed.stats().message_entries_expired, 2u);
  EXPECT_EQ(timed.stats().message_entries_evicted, 0u);
  EXPECT_EQ(timed.stats().message_entries_live, 0u);
}

TEST_F(EnclaveTest, ThreadStateRegistryReclaimedAfterEnclaveDeath) {
  // Each enclave instance leaves a per-thread ThreadState in this
  // thread's registry. Destroying the enclave must not leak it forever:
  // the next registry access sweeps entries of dead instances, so
  // serial create/use/destroy cycles hold the registry size flat.
  std::size_t high_water = 0;
  for (int i = 0; i < 8; ++i) {
    Enclave e("leak" + std::to_string(i), registry_);
    netsim::Packet packet = tcp_packet();
    e.process(packet);
    const std::size_t n = enclave_thread_state_count();
    if (i == 0) high_water = n;
    EXPECT_LE(n, high_water) << "registry grew on iteration " << i;
  }
}

TEST_F(EnclaveTest, GlobalStateReadableAndUpdatable) {
  lang::FieldDef counter;
  counter.name = "limit";
  counter.access = lang::Access::read_only;
  const ActionId action = install_with_rule(
      "cmp", "fun(p, m, g) -> p.priority <- (if p.size > g.limit then 1 else 7)",
      {counter});
  enclave_.set_global_scalar(action, "limit", 100);
  EXPECT_EQ(enclave_.read_global_scalar(action, "limit"), 100);

  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 1);  // 1514 > 100

  enclave_.set_global_scalar(action, "limit", 100000);
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 7);
}

TEST_F(EnclaveTest, GlobalArrayValidation) {
  lang::FieldDef table_field;
  table_field.name = "recs";
  table_field.kind = lang::FieldKind::record_array;
  table_field.record_fields = {"a", "b", "c"};
  const ActionId action =
      install("arr", "fun(p, m, g) -> g.recs[0].a", {table_field});
  EXPECT_THROW(enclave_.set_global_array(action, "recs", {1, 2}),
               std::invalid_argument);  // not a whole record
  enclave_.set_global_array(action, "recs", {1, 2, 3});
  EXPECT_THROW(enclave_.set_global_array(action, "nope", {1}),
               std::invalid_argument);
  EXPECT_THROW(enclave_.set_global_scalar(action, "recs", 1),
               std::invalid_argument);
}

TEST_F(EnclaveTest, FaultyActionIsIsolated) {
  // Out-of-bounds access: the action fails, the packet continues
  // unmodified, the error is counted (Section 3.4.3).
  lang::FieldDef arr;
  arr.name = "xs";
  arr.kind = lang::FieldKind::array;
  const ActionId action = install_with_rule(
      "oob", "fun(p, m, g) -> p.priority <- g.xs[99]", {arr});
  netsim::Packet packet = tcp_packet();
  packet.priority = 2;
  EXPECT_TRUE(enclave_.process(packet));
  EXPECT_EQ(packet.priority, 2);  // untouched
  EXPECT_EQ(enclave_.action_stats(action).errors, 1u);
  EXPECT_EQ(enclave_.action_stats(action).executions, 1u);
}

TEST_F(EnclaveTest, FaultyActionRollsBackMessageState) {
  // The program writes message state and *then* traps; the authoritative
  // message entry must keep its pre-run value (the function ran against
  // a consistent copy, Section 3.4.4).
  lang::FieldDef arr;
  arr.name = "xs";
  arr.kind = lang::FieldKind::array;
  const ActionId action = install_with_rule(
      "late_trap", "fun(p, m, g) -> m.size <- 123; p.priority <- g.xs[5]",
      {arr});
  netsim::Packet packet = tcp_packet(/*msg_id=*/77);
  EXPECT_TRUE(enclave_.process(packet));
  EXPECT_EQ(enclave_.action_stats(action).errors, 1u);
  EXPECT_EQ(enclave_.peek_message_state(action, 77, MessageSlot::size), 0);
}

TEST_F(EnclaveTest, DivideByZeroIsIsolated) {
  const ActionId action = install_with_rule(
      "div0", "fun(p, m, g) -> p.priority <- 1 / (p.size - p.size)");
  netsim::Packet packet = tcp_packet();
  EXPECT_TRUE(enclave_.process(packet));
  EXPECT_EQ(enclave_.action_stats(action).errors, 1u);
}

TEST_F(EnclaveTest, NativeActionSeesSameStateMachinery) {
  const ActionId action = enclave_.install_native_action(
      "native_accum",
      [](lang::StateBlock& pkt, lang::StateBlock* msg, lang::StateBlock*,
         NativeCtx&) {
        msg->scalars[MessageSlot::size] += pkt.scalars[PacketSlot::size];
        pkt.scalars[PacketSlot::priority] = 5;
        return lang::ExecStatus::ok;
      },
      lang::ConcurrencyMode::per_message, /*touches_message=*/true);
  const TableId table = enclave_.create_table("t");
  enclave_.add_rule(table, ClassPattern("*"), action);
  netsim::Packet packet = tcp_packet(3);
  enclave_.process(packet);
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 5);
  EXPECT_EQ(enclave_.peek_message_state(action, 3, MessageSlot::size),
            2 * 1514);
}

TEST_F(EnclaveTest, FlowClassifierAssignsClassAndMessageId) {
  const ClassId tcp_class = registry_.intern("enclave.flows.tcp");
  FlowClassifierRule rule;
  rule.proto = static_cast<std::int64_t>(netsim::Protocol::tcp);
  rule.class_id = tcp_class;
  enclave_.add_flow_rule(rule);

  netsim::Packet packet = tcp_packet(/*msg_id=*/0);
  enclave_.process(packet);
  EXPECT_TRUE(packet.classes.contains(tcp_class));
  EXPECT_NE(packet.meta.msg_id, 0);

  // Same five-tuple -> same message id; different flow -> different id.
  netsim::Packet same = tcp_packet(0);
  enclave_.process(same);
  EXPECT_EQ(same.meta.msg_id, packet.meta.msg_id);
  netsim::Packet other = tcp_packet(0);
  other.src_port = 4321;
  enclave_.process(other);
  EXPECT_NE(other.meta.msg_id, packet.meta.msg_id);
}

TEST_F(EnclaveTest, FlowClassifierRespectsFieldFilters) {
  const ClassId cls = registry_.intern("enclave.flows.port80");
  FlowClassifierRule rule;
  rule.dst_port = 80;
  rule.class_id = cls;
  enclave_.add_flow_rule(rule);

  netsim::Packet hit = tcp_packet(0);
  hit.dst_port = 80;
  enclave_.process(hit);
  EXPECT_TRUE(hit.classes.contains(cls));

  netsim::Packet miss = tcp_packet(0);
  miss.dst_port = 443;
  enclave_.process(miss);
  EXPECT_FALSE(miss.classes.contains(cls));
}

TEST_F(EnclaveTest, StageAssignedMessageIdTakesPrecedence) {
  const ClassId cls = registry_.intern("enclave.flows.tcp");
  FlowClassifierRule rule;
  rule.class_id = cls;
  enclave_.add_flow_rule(rule);
  netsim::Packet packet = tcp_packet(/*msg_id=*/1234);
  enclave_.process(packet);
  EXPECT_EQ(packet.meta.msg_id, 1234);  // not overwritten
}

// --- Platform presets -----------------------------------------------------

TEST_F(EnclaveTest, NicEnclaveEnforcesCycleBudget) {
  // The same bytecode ships to an OS enclave (unbounded) and a NIC
  // enclave (hard instruction budget). An expensive function runs on
  // the OS but trips the NIC's budget — and is isolated there.
  const char* expensive = R"(fun(p, m, g) ->
      let i = 0 in
      (while i < 10000 do i <- i + 1 done;
       p.priority <- 5))";
  const auto program = controller_.compile("spin", expensive, {});

  Enclave os("os", registry_, core::EnclaveConfig::os_default());
  Enclave nic("nic", registry_, core::EnclaveConfig::nic_default());
  for (Enclave* e : {&os, &nic}) {
    const ActionId action = e->install_action("spin", program, {});
    const TableId table = e->create_table("t");
    e->add_rule(table, ClassPattern("*"), action);
  }

  netsim::Packet on_os = tcp_packet();
  os.process(on_os);
  EXPECT_EQ(on_os.priority, 5);

  netsim::Packet on_nic = tcp_packet();
  nic.process(on_nic);
  EXPECT_EQ(on_nic.priority, 0);  // fuel exhausted: no write-back
  EXPECT_EQ(nic.action_stats(*nic.find_action("spin")).errors, 1u);
}

TEST_F(EnclaveTest, NicEnclaveRunsTheLibraryFunctions) {
  // The actual library programs fit comfortably inside the NIC budget —
  // the paper's claim that the same action functions run on both
  // platforms.
  Enclave nic("nic", registry_, core::EnclaveConfig::nic_default());
  const auto program = controller_.compile(
      "pias_like", R"(fun(p, m, g) ->
        m.size <- m.size + p.size;
        p.priority <- (if m.size <= 10240 then 7 else 5))",
      {});
  const ActionId action = nic.install_action("pias_like", program, {});
  const TableId table = nic.create_table("t");
  nic.add_rule(table, ClassPattern("*"), action);
  netsim::Packet packet = tcp_packet();
  nic.process(packet);
  EXPECT_EQ(packet.priority, 7);
  EXPECT_EQ(nic.action_stats(action).errors, 0u);
}

// --- Batched execution (Section 6) --------------------------------------

TEST_F(EnclaveTest, BatchMatchesPerPacketSemantics) {
  // Same PIAS-style accumulation, one enclave fed per packet, the other
  // in batches: identical message state and packet priorities.
  const char* source = R"(fun(p, m, g) ->
      m.size <- m.size + p.size;
      p.priority <- (if m.size > 4000 then 2 else 6))";
  Enclave batch_enclave("batch", registry_);
  const auto program = controller_.compile("accum", source, {});
  const ActionId a1 = install_with_rule("accum", source);
  const ActionId a2 = batch_enclave.install_action("accum", program, {});
  const TableId t2 = batch_enclave.create_table("t");
  batch_enclave.add_rule(t2, ClassPattern("*"), a2);

  std::vector<netsim::PacketPtr> batch;
  std::vector<std::uint8_t> expected;
  for (int i = 0; i < 8; ++i) {
    // Two interleaved messages.
    netsim::Packet p = tcp_packet(1 + (i % 2));
    enclave_.process(p);
    expected.push_back(p.priority);
    auto bp = netsim::make_packet();
    *bp = tcp_packet(1 + (i % 2));
    batch.push_back(std::move(bp));
  }
  EXPECT_EQ(batch_enclave.process_batch(batch), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->priority, expected[i]) << i;
  }
  EXPECT_EQ(batch_enclave.peek_message_state(a2, 1, MessageSlot::size),
            enclave_.peek_message_state(a1, 1, MessageSlot::size));
  EXPECT_EQ(batch_enclave.peek_message_state(a2, 2, MessageSlot::size),
            enclave_.peek_message_state(a1, 2, MessageSlot::size));
}

TEST_F(EnclaveTest, BatchDropsAreCountedAndMarked) {
  install_with_rule("dropper", "fun(p, m, g) -> p.drop <- p.size > 1000");
  std::vector<netsim::PacketPtr> batch;
  for (int i = 0; i < 4; ++i) {
    auto p = netsim::make_packet();
    *p = tcp_packet();
    p->size_bytes = i % 2 == 0 ? 500 : 1500;
    batch.push_back(std::move(p));
  }
  EXPECT_EQ(enclave_.process_batch(batch), 2u);
  EXPECT_FALSE(batch[0]->drop_mark);
  EXPECT_TRUE(batch[1]->drop_mark);
  EXPECT_EQ(enclave_.stats().dropped_by_action, 2u);
}

TEST_F(EnclaveTest, BatchRollsBackOnlyFaultyPackets) {
  // The action accumulates message state, then traps on large packets.
  lang::FieldDef arr;
  arr.name = "xs";
  arr.kind = lang::FieldKind::array;
  const ActionId action = install_with_rule("trapper", R"(fun(p, m, g) ->
      m.size <- m.size + p.size;
      (if p.size > 1000 then p.priority <- g.xs[9] else 0))",
                                            {arr});
  std::vector<netsim::PacketPtr> batch;
  for (int i = 0; i < 4; ++i) {
    auto p = netsim::make_packet();
    *p = tcp_packet(5);
    p->size_bytes = i == 2 ? 1500 : 100;  // third packet traps
    batch.push_back(std::move(p));
  }
  enclave_.process_batch(batch);
  // Message state includes only the three successful packets.
  EXPECT_EQ(enclave_.peek_message_state(action, 5, MessageSlot::size), 300);
  EXPECT_EQ(enclave_.action_stats(action).errors, 1u);
}

TEST_F(EnclaveTest, BatchFallsBackWithMultipleTables) {
  const ActionId prio = install("prio", "fun(p, m, g) -> p.priority <- 4");
  const ActionId path = install("path", "fun(p, m, g) -> p.path <- 17");
  const TableId t1 = enclave_.create_table("t1");
  const TableId t2 = enclave_.create_table("t2");
  enclave_.add_rule(t1, ClassPattern("*"), prio);
  enclave_.add_rule(t2, ClassPattern("*"), path);
  std::vector<netsim::PacketPtr> batch;
  for (int i = 0; i < 3; ++i) {
    auto p = netsim::make_packet();
    *p = tcp_packet();
    batch.push_back(std::move(p));
  }
  EXPECT_EQ(enclave_.process_batch(batch), 3u);
  for (const auto& p : batch) {
    EXPECT_EQ(p->priority, 4);
    EXPECT_EQ(p->path_label, 17);
  }
}

TEST_F(EnclaveTest, EmptyBatchIsFine) {
  std::vector<netsim::PacketPtr> batch;
  EXPECT_EQ(enclave_.process_batch(batch), 0u);
}

// The concurrency model under real threads: a serialized (global-
// writing) action must not lose updates.
TEST_F(EnclaveTest, SerializedActionIsThreadSafe) {
  lang::FieldDef packets;
  packets.name = "packets";
  packets.access = lang::Access::read_write;
  const ActionId action = install_with_rule(
      "count", "fun(p, m, g) -> g.packets <- g.packets + 1", {packets});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        netsim::Packet packet = tcp_packet();
        enclave_.process(packet);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(enclave_.read_global_scalar(action, "packets"),
            kThreads * kPerThread);
  // A writable global scalar can never be key-disjoint: this action
  // must run fully serialized, not key-sharded.
  EXPECT_FALSE(enclave_.action_global_sharded(action));
}

// --- Key-sharded global serialization ------------------------------------

TEST_F(EnclaveTest, GlobalShardingRequiresKeyPartitionedWrites) {
  // Eligible: serialized mode, and the only writable global field is a
  // key_partitioned array (writes provably disjoint by message key).
  lang::FieldDef counts;
  counts.name = "counts";
  counts.kind = lang::FieldKind::array;
  counts.access = lang::Access::read_write;
  counts.key_partitioned = true;
  const ActionId sharded = install_with_rule(
      "sharded", "fun(p, m, g) -> g.counts[p.msg_id] <- g.counts[p.msg_id] + 1",
      {counts});
  EXPECT_TRUE(enclave_.action_global_sharded(sharded));

  // Not eligible: same shape without the key_partitioned declaration.
  lang::FieldDef plain = counts;
  plain.key_partitioned = false;
  const ActionId serial = install(
      "serial", "fun(p, m, g) -> g.counts[p.msg_id] <- g.counts[p.msg_id] + 1",
      {plain});
  EXPECT_FALSE(enclave_.action_global_sharded(serial));

  // Not eligible: a writable scalar rides along, even though the array
  // is partitioned (the scalar write would race across stripes).
  lang::FieldDef total;
  total.name = "total";
  total.access = lang::Access::read_write;
  const ActionId mixed = install(
      "mixed", "fun(p, m, g) -> g.total <- g.total + 1", {counts, total});
  EXPECT_FALSE(enclave_.action_global_sharded(mixed));

  // Read-only scalars are fine next to the partitioned array.
  lang::FieldDef limit;
  limit.name = "limit";
  limit.access = lang::Access::read_only;
  const ActionId with_ro = install(
      "with_ro", "fun(p, m, g) -> g.counts[p.msg_id] <- g.limit",
      {counts, limit});
  EXPECT_TRUE(enclave_.action_global_sharded(with_ro));
}

TEST_F(EnclaveTest, ShardedGlobalWritesAreExactUnderContention) {
  // Key-partitioned global increments from racing threads: stripe
  // locking must serialize same-key writers while different keys run in
  // parallel, and no update may be lost. The action also reads its own
  // slot back, so a final packet per key observes the exact total.
  lang::FieldDef counts;
  counts.name = "counts";
  counts.kind = lang::FieldKind::array;
  counts.access = lang::Access::read_write;
  counts.key_partitioned = true;
  const ActionId action = install_with_rule("shard_count", R"(fun(p, m, g) ->
      g.counts[p.msg_id] <- g.counts[p.msg_id] + 1;
      p.path <- g.counts[p.msg_id])",
                                            {counts});
  enclave_.set_global_array(action, "counts", std::vector<std::int64_t>(8, 0));
  ASSERT_TRUE(enclave_.action_global_sharded(action));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Two threads share key 1, two share key 2: same-key writes
        // contend on one stripe, cross-key writes run concurrently.
        netsim::Packet packet = tcp_packet(1 + (t % 2));
        enclave_.process(packet);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (const std::int64_t key : {1, 2}) {
    netsim::Packet probe = tcp_packet(key);
    enclave_.process(probe);
    EXPECT_EQ(probe.path_label, 2 * kPerThread + 1) << "key " << key;
  }
}

TEST_F(EnclaveTest, ShardedGlobalStateVisibleToControllerWrites) {
  // Controller writes keep the exclusive global lock, so a
  // set_global_array lands atomically even against sharded executions.
  lang::FieldDef counts;
  counts.name = "counts";
  counts.kind = lang::FieldKind::array;
  counts.access = lang::Access::read_write;
  counts.key_partitioned = true;
  const ActionId action = install_with_rule(
      "reset_me", "fun(p, m, g) -> p.path <- g.counts[p.msg_id]", {counts});
  enclave_.set_global_array(action, "counts", {7, 8, 9, 10});
  netsim::Packet packet = tcp_packet(2);
  enclave_.process(packet);
  EXPECT_EQ(packet.path_label, 9);
}

TEST_F(EnclaveTest, PerMessageActionIsThreadSafePerMessage) {
  const ActionId action = install_with_rule(
      "accum", "fun(p, m, g) -> m.size <- m.size + p.size");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Two threads share message 1, two share message 2.
        netsim::Packet packet = tcp_packet(1 + (t % 2));
        enclave_.process(packet);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(enclave_.peek_message_state(action, 1, MessageSlot::size),
            2 * kPerThread * 1514);
  EXPECT_EQ(enclave_.peek_message_state(action, 2, MessageSlot::size),
            2 * kPerThread * 1514);
}

// --- Telemetry ---------------------------------------------------------

// Helpers for enclaves with a non-default (telemetry) configuration.
EnclaveConfig telemetry_config() {
  EnclaveConfig config;
  config.telemetry.enabled = true;
  config.telemetry.histogram_sample_every = 1;
  return config;
}

ActionId install_with_rule_in(Controller& controller, Enclave& enclave,
                              const char* name, const char* source,
                              const ClassPattern& pattern) {
  const lang::CompiledProgram program = controller.compile(name, source, {});
  const ActionId action = enclave.install_action(name, program, {});
  const TableId table = enclave.create_table(name);
  enclave.add_rule(table, pattern, action);
  return action;
}

TEST_F(EnclaveTest, TelemetryOffByDefault) {
  install_with_rule("p3", "fun(p, m, g) -> p.priority <- 3");
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  const telemetry::EnclaveTelemetry t = enclave_.telemetry_snapshot();
  EXPECT_FALSE(t.telemetry_enabled);
  EXPECT_EQ(t.packets, 1u);
  EXPECT_EQ(t.matched, 1u);
  ASSERT_EQ(t.actions.size(), 1u);
  EXPECT_FALSE(t.actions[0].has_histograms);
  EXPECT_TRUE(t.classes.empty());
}

TEST(EnclaveTelemetryTest, PerClassCountersAndStatsFold) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave enclave("tele", registry, telemetry_config());
  const ClassId web = registry.intern("enclave.flows.web");
  const ClassId bulk = registry.intern("enclave.flows.bulk");
  install_with_rule_in(controller, enclave, "keep",
                       "fun(p, m, g) -> p.priority <- 3",
                       ClassPattern("enclave.flows.web"));
  install_with_rule_in(controller, enclave, "drop",
                       "fun(p, m, g) -> p.drop <- 1",
                       ClassPattern("enclave.flows.bulk"));

  netsim::Packet p = tcp_packet();
  p.classes.add(web);
  EXPECT_TRUE(enclave.process(p));
  EXPECT_TRUE(enclave.process(p));
  netsim::Packet q = tcp_packet();
  q.classes.add(bulk);
  q.drop_mark = false;
  EXPECT_FALSE(enclave.process(q));

  // The class slots are the sole per-packet counters with telemetry on;
  // stats() must fold them back into the enclave totals.
  const EnclaveStats stats = enclave.stats();
  EXPECT_EQ(stats.packets, 3u);
  EXPECT_EQ(stats.matched, 3u);
  EXPECT_EQ(stats.dropped_by_action, 1u);

  const telemetry::EnclaveTelemetry t = enclave.telemetry_snapshot();
  ASSERT_EQ(t.classes.size(), 2u);
  std::uint64_t web_matched = 0, bulk_dropped = 0;
  for (const auto& c : t.classes) {
    if (c.name == "enclave.flows.web") web_matched = c.matched;
    if (c.name == "enclave.flows.bulk") bulk_dropped = c.dropped;
  }
  EXPECT_EQ(web_matched, 2u);
  EXPECT_EQ(bulk_dropped, 1u);
}

TEST(EnclaveTelemetryTest, BatchPathAttributesClassesAndFolds) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave enclave("tele", registry, telemetry_config());
  const ClassId web = registry.intern("enclave.flows.web");
  install_with_rule_in(controller, enclave, "drop_big",
                       "fun(p, m, g) -> if p.size > 1000 then p.drop <- 1 "
                       "else p.priority <- 2",
                       ClassPattern("enclave.flows.*"));
  std::vector<netsim::PacketPtr> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(netsim::make_packet());
    *batch.back() = tcp_packet();
    batch.back()->classes.add(web);
    batch.back()->size_bytes = i < 3 ? 100 : 1500;  // last one drops
  }
  EXPECT_EQ(enclave.process_batch(batch), 3u);
  const EnclaveStats stats = enclave.stats();
  EXPECT_EQ(stats.matched, 4u);
  EXPECT_EQ(stats.dropped_by_action, 1u);
  const telemetry::EnclaveTelemetry t = enclave.telemetry_snapshot();
  ASSERT_EQ(t.classes.size(), 1u);
  EXPECT_EQ(t.classes[0].matched, 4u);
  EXPECT_EQ(t.classes[0].dropped, 1u);
}

TEST(EnclaveTelemetryTest, HistogramsRecordEverySampledExecution) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave enclave("tele", registry, telemetry_config());
  install_with_rule_in(controller, enclave, "p3",
                       "fun(p, m, g) -> p.priority <- 3", ClassPattern("*"));
  netsim::Packet packet = tcp_packet();
  for (int i = 0; i < 10; ++i) enclave.process(packet);
  const telemetry::EnclaveTelemetry t = enclave.telemetry_snapshot();
  ASSERT_EQ(t.actions.size(), 1u);
  const telemetry::ActionTelemetry& a = t.actions[0];
  EXPECT_TRUE(a.has_histograms);
  EXPECT_EQ(a.latency_ns.count, 10u);  // sample_every = 1: all executions
  EXPECT_EQ(a.steps_hist.count, 10u);
  // Every run of the same program takes the same weighted steps.
  EXPECT_EQ(a.steps_hist.sum, a.steps);
  EXPECT_GT(a.steps, 0u);
}

// Classes interned past the 1,024 per-class slots share one overflow
// row instead of growing the counter array.
TEST(EnclaveTelemetryTest, ClassesPastTheSlotBoundLandInTheOverflowRow) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave enclave("tele", registry, telemetry_config());
  install_with_rule_in(controller, enclave, "p3",
                       "fun(p, m, g) -> p.priority <- 3", ClassPattern("*"));
  ClassId last = kInvalidClass;
  for (int i = 0; i <= 1024; ++i) {
    last = registry.intern("enclave.flows.c" + std::to_string(i));
  }
  ASSERT_EQ(last, 1024u);  // the first id without a slot of its own
  netsim::Packet packet = tcp_packet();
  packet.classes.add(last);
  EXPECT_TRUE(enclave.process(packet));
  EXPECT_EQ(enclave.stats().matched, 1u);
  const telemetry::EnclaveTelemetry t = enclave.telemetry_snapshot();
  ASSERT_EQ(t.classes.size(), 1u);
  EXPECT_EQ(t.classes[0].name, "(overflow)");
  EXPECT_EQ(t.classes[0].matched, 1u);
}

// The enclave's own hops on both execution paths: a traced packet's
// action_exec span carries its class, the execution status and the
// weighted steps its action was billed; an enclave_drop span names the
// action that dropped the packet.
TEST(EnclaveTelemetryTest, EnclaveSpansCarryExecResultsAndDropAction) {
  telemetry::SpanCollector& spans = telemetry::SpanCollector::instance();
  spans.set_clock(nullptr, nullptr);
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "process_batch" : "process");
    spans.reset();
    ClassRegistry registry;
    Controller controller(registry);
    EnclaveConfig config;
    config.telemetry.span_sample_every = 1;  // every packet traced
    Enclave enclave("spans", registry, config);
    const ClassId web = registry.intern("enclave.flows.web");
    const ClassId bulk = registry.intern("enclave.flows.bulk");
    const ClassId bad = registry.intern("enclave.flows.bad");
    // One table, so process_batch runs its grouped path. The dropper is
    // not action 0, so its id cannot pass for a default aux.
    const TableId table = enclave.create_table("t");
    const auto add = [&](const char* name, const char* source,
                         const char* pattern) {
      const ActionId id = enclave.install_action(
          name, controller.compile(name, source, {}), {});
      enclave.add_rule(table, ClassPattern(pattern), id);
      return id;
    };
    const ActionId keep = add("keep", "fun(p, m, g) -> p.priority <- 3",
                              "enclave.flows.web");
    const ActionId drop =
        add("drop", "fun(p, m, g) -> p.drop <- 1", "enclave.flows.bulk");
    add("div0", "fun(p, m, g) -> p.priority <- 1 / (p.size - p.size)",
        "enclave.flows.bad");
    ASSERT_NE(drop, 0u);

    std::vector<netsim::PacketPtr> packets;
    for (const ClassId cls : {web, bulk, bad}) {
      packets.push_back(netsim::make_packet());
      *packets.back() = tcp_packet(1 + static_cast<std::int64_t>(cls));
      packets.back()->classes.add(cls);
    }
    const std::uint64_t steps_before = enclave.action_stats(keep).steps;
    if (batched) {
      EXPECT_EQ(enclave.process_batch(packets), 2u);
    } else {
      for (const netsim::PacketPtr& p : packets) enclave.process(*p);
    }
    const std::uint64_t keep_steps =
        enclave.action_stats(keep).steps - steps_before;
    ASSERT_GT(keep_steps, 0u);

    const auto find = [&](const netsim::PacketPtr& p, telemetry::Hop hop) {
      EXPECT_NE(p->meta.trace_id, 0);
      std::optional<telemetry::SpanEvent> found;
      for (const telemetry::SpanEvent& e : spans.snapshot()) {
        if (e.trace_id == p->meta.trace_id && e.hop == hop) found = e;
      }
      return found;
    };
    const auto ok = find(packets[0], telemetry::Hop::action_exec);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->aux, static_cast<std::int64_t>(keep));
    EXPECT_EQ(ok->class_id, web);
    EXPECT_EQ(ok->status, static_cast<std::uint8_t>(lang::ExecStatus::ok));
    EXPECT_EQ(ok->steps, keep_steps);

    const auto trap = find(packets[2], telemetry::Hop::action_exec);
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(trap->class_id, bad);
    EXPECT_EQ(trap->status,
              static_cast<std::uint8_t>(lang::ExecStatus::div_by_zero));

    const auto dropped = find(packets[1], telemetry::Hop::enclave_drop);
    ASSERT_TRUE(dropped.has_value());
    EXPECT_EQ(dropped->aux, static_cast<std::int64_t>(drop));
  }
  spans.disable();
  spans.reset();
}

// Enabling spans calibrates the tick clock up front, so the first
// traced packet's hops do not include the ~2 ms calibration wait.
TEST(EnclaveTelemetryTest, FirstTracedPacketSkipsClockCalibration) {
  telemetry::SpanCollector& spans = telemetry::SpanCollector::instance();
  spans.set_clock(nullptr, nullptr);
  spans.reset();
  ClassRegistry registry;
  Controller controller(registry);
  EnclaveConfig config;
  config.telemetry.span_sample_every = 1;  // spans only, no histograms
  Enclave enclave("clock", registry, config);
  install_with_rule_in(controller, enclave, "p3",
                       "fun(p, m, g) -> p.priority <- 3", ClassPattern("*"));
  netsim::Packet packet = tcp_packet();
  enclave.process(packet);
  ASSERT_NE(packet.meta.trace_id, 0);
  std::optional<std::int64_t> match_ns;
  for (const telemetry::SpanEvent& e : spans.snapshot()) {
    if (e.trace_id == packet.meta.trace_id &&
        e.hop == telemetry::Hop::enclave_match) {
      match_ns = e.dur_ns;
    }
  }
  ASSERT_TRUE(match_ns.has_value());
  EXPECT_LT(*match_ns, 1'000'000);
  spans.disable();
  spans.reset();
}

TEST(EnclaveTelemetryTest, ErrorBreakdownSumsByStatus) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave enclave("tele", registry, telemetry_config());
  const ActionId div0 = install_with_rule_in(
      controller, enclave, "div0",
      "fun(p, m, g) -> p.priority <- 1 / (p.size - p.size)",
      ClassPattern("*"));
  netsim::Packet packet = tcp_packet();
  for (int i = 0; i < 3; ++i) enclave.process(packet);
  const ActionStats stats = enclave.action_stats(div0);
  EXPECT_EQ(stats.errors, 3u);
  std::uint64_t by_status_total = 0;
  for (const std::uint64_t n : stats.errors_by_status) by_status_total += n;
  EXPECT_EQ(by_status_total, stats.errors);
  EXPECT_EQ(stats.errors_by_status[static_cast<std::size_t>(
                lang::ExecStatus::div_by_zero)],
            3u);
}

TEST(EnclaveTelemetryTest, WeightedStepsStableAcrossOptLevels) {
  // Superinstructions charge the cost of the base ops they replace
  // (lang::kOpStepCost), so the steps metric is comparable across
  // optimization levels: the same program charges the same steps at
  // -O0 and -O1 even though -O1 executes fewer instructions.
  const char* source =
      "fun(p, m, g) -> m.size <- m.size + p.size; "
      "p.priority <- m.size / 1000";
  std::uint64_t steps[2] = {0, 0};
  for (int level = 0; level < 2; ++level) {
    ClassRegistry registry;
    Controller controller(registry);
    EnclaveConfig config;
    config.opt_level = level == 0 ? lang::OptLevel::O0 : lang::OptLevel::O1;
    Enclave enclave("opt", registry, config);
    const lang::CompiledProgram program =
        controller.compile("accum", source, {});
    const ActionId action = enclave.install_action("accum", program, {});
    const TableId table = enclave.create_table("t");
    enclave.add_rule(table, ClassPattern("*"), action);
    netsim::Packet packet = tcp_packet();
    for (int i = 0; i < 5; ++i) enclave.process(packet);
    steps[level] = enclave.action_stats(action).steps;
  }
  EXPECT_GT(steps[0], 0u);
  EXPECT_EQ(steps[0], steps[1]);
}

TEST(EnclaveTelemetryTest, ControllerCollectsAndAggregates) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave a("host0", registry, telemetry_config());
  Enclave b("host1", registry, telemetry_config());
  controller.register_enclave(a);
  controller.register_enclave(b);
  install_with_rule_in(controller, a, "p3",
                       "fun(p, m, g) -> p.priority <- 3", ClassPattern("*"));
  install_with_rule_in(controller, b, "p3",
                       "fun(p, m, g) -> p.priority <- 3", ClassPattern("*"));
  netsim::Packet packet = tcp_packet();
  for (int i = 0; i < 2; ++i) a.process(packet);
  for (int i = 0; i < 3; ++i) b.process(packet);

  telemetry::TelemetryCollector collector({}, [] { return std::uint64_t{0}; });
  for (telemetry::CollectorSource& s : controller.telemetry_sources()) {
    collector.add_source(std::move(s));
  }
  const telemetry::AggregateTelemetry& agg = collector.poll();
  EXPECT_EQ(agg.enclaves.size(), 2u);
  EXPECT_EQ(agg.packets, 5u);
  EXPECT_EQ(agg.matched, 5u);
  ASSERT_EQ(agg.actions.size(), 1u);
  EXPECT_EQ(agg.actions[0].name, "p3");
  EXPECT_EQ(agg.actions[0].executions, 5u);
  EXPECT_EQ(agg.actions[0].latency_ns.count, 5u);
}

}  // namespace
}  // namespace eden::core
