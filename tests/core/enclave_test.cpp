// The enclave data path: match-action tables, state management, the
// concurrency model, error isolation and the enclave's own stage.
#include "core/enclave.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <thread>

#include "core/controller.h"
#include "functions/registry.h"
#include "telemetry/span.h"
#include "util/rng.h"

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
  // The action only reads its message, so the peek sees exactly what
  // the first packet initialized, in all eight slots.
  const std::int64_t expected[MessageSlot::count_] = {
      0,   // size
      6,   // priority: the first packet's app_priority
      -1,  // path: no cached route
      0,   // packets
      0, 0, 0, 0,  // state0..state3
  };
  for (std::uint16_t slot = 0; slot < MessageSlot::count_; ++slot) {
    EXPECT_EQ(enclave_.peek_message_state(action, 9, slot), expected[slot])
        << "slot " << slot;
  }
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

// --- Controller global writes: one publish path ---------------------------

lang::FieldDef scalar_field(const char* name) {
  lang::FieldDef f;
  f.name = name;
  return f;
}

lang::FieldDef array_field(const char* name) {
  lang::FieldDef f;
  f.name = name;
  f.kind = lang::FieldKind::array;
  return f;
}

// A write outside a transaction publishes like any other standalone
// mutation: one version step, and the very next packet sees it.
TEST_F(EnclaveTest, GlobalWriteStandaloneStepsTheVersionOnce) {
  const ActionId action = install_with_rule("lvl", R"(fun(p, m, g) ->
      p.priority <- g.level;
      p.path <- g.pair[1])",
                                            {scalar_field("level"),
                                             array_field("pair")});
  const std::uint64_t version = enclave_.ruleset_version();

  enclave_.set_global_array(action, "pair", {8, 9});
  EXPECT_EQ(enclave_.ruleset_version(), version + 1);
  netsim::Packet first = tcp_packet();
  enclave_.process(first);
  EXPECT_EQ(first.path_label, 9);
  EXPECT_EQ(first.priority, 0);

  enclave_.set_global_scalar(action, "level", 5);
  EXPECT_EQ(enclave_.ruleset_version(), version + 2);
  EXPECT_EQ(enclave_.read_global_scalar(action, "level"), 5);
  netsim::Packet second = tcp_packet();
  enclave_.process(second);
  EXPECT_EQ(second.priority, 5);
  EXPECT_EQ(second.path_label, 9);
}

// A rejected write throws before it is recorded: no version step, no
// value change, and nothing left for a later publish to apply.
TEST_F(EnclaveTest, GlobalWriteRejectedChangesNothing) {
  lang::FieldDef recs;
  recs.name = "recs";
  recs.kind = lang::FieldKind::record_array;
  recs.record_fields = {"a", "b"};
  const ActionId action = install_with_rule("lvl", R"(fun(p, m, g) ->
      p.priority <- g.level;
      p.path <- g.recs[0].b)",
                                            {scalar_field("level"), recs});
  enclave_.set_global_scalar(action, "level", 3);
  enclave_.set_global_array(action, "recs", {1, 2});
  const std::uint64_t version = enclave_.ruleset_version();

  EXPECT_THROW(enclave_.set_global_scalar(action, "nope", 6),
               std::invalid_argument);
  EXPECT_THROW(enclave_.set_global_array(action, "nope", {6, 6}),
               std::invalid_argument);
  EXPECT_THROW(enclave_.set_global_array(action, "recs", {6, 6, 6}),
               std::invalid_argument);  // a partial record
  EXPECT_THROW(enclave_.set_global_scalar(action + 1, "level", 6),
               std::invalid_argument);
  EXPECT_EQ(enclave_.ruleset_version(), version);

  enclave_.create_table("later");  // the next publish finds no write
  EXPECT_EQ(enclave_.read_global_scalar(action, "level"), 3);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 3);
  EXPECT_EQ(packet.path_label, 2);
}

// A write to an action reinstalled later in the same transaction is
// dropped with the old program; a write after the reinstall lands.
TEST_F(EnclaveTest, GlobalWriteInTxnToReinstalledActionIsDropped) {
  const char* source = "fun(p, m, g) -> p.priority <- g.level + g.bump";
  const std::vector<lang::FieldDef> globals = {scalar_field("level"),
                                               scalar_field("bump")};
  const ActionId action = install_with_rule("lvl", source, globals);
  enclave_.set_global_scalar(action, "level", 2);

  enclave_.begin_txn();
  enclave_.set_global_scalar(action, "level", 6);
  ASSERT_EQ(install("lvl", source, globals), action);
  enclave_.set_global_scalar(action, "bump", 1);
  netsim::Packet staged = tcp_packet();
  enclave_.process(staged);
  EXPECT_EQ(staged.priority, 2);
  enclave_.commit_txn();

  EXPECT_EQ(enclave_.read_global_scalar(action, "level"), 0);
  EXPECT_EQ(enclave_.read_global_scalar(action, "bump"), 1);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 1);
}

// clear_all inside a transaction drops the writes staged before it: the
// action reinstalled after the wipe starts from schema defaults.
TEST_F(EnclaveTest, GlobalWriteInTxnBeforeClearAllIsDropped) {
  const char* source = "fun(p, m, g) -> p.priority <- g.level + 1";
  const std::vector<lang::FieldDef> globals = {scalar_field("level")};
  install_with_rule("lvl", source, globals);
  const std::uint64_t version = enclave_.ruleset_version();

  enclave_.begin_txn();
  enclave_.set_global_scalar(*enclave_.find_action("lvl"), "level", 6);
  enclave_.clear_all();
  const ActionId fresh = install_with_rule("lvl", source, globals);
  enclave_.commit_txn();

  EXPECT_EQ(enclave_.ruleset_version(), version + 1);
  EXPECT_EQ(enclave_.read_global_scalar(fresh, "level"), 0);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 1);
}

// abort_txn drops the pending writes with the staged snapshot, so no
// later publish applies them.
TEST_F(EnclaveTest, GlobalWriteInTxnDroppedByAbort) {
  const ActionId action = install_with_rule(
      "lvl", "fun(p, m, g) -> p.priority <- g.level + g.pair[0]",
      {scalar_field("level"), array_field("pair")});
  enclave_.set_global_scalar(action, "level", 2);
  enclave_.set_global_array(action, "pair", {1});
  const std::uint64_t version = enclave_.ruleset_version();

  enclave_.begin_txn();
  enclave_.set_global_scalar(action, "level", 5);
  enclave_.set_global_array(action, "pair", {2});
  enclave_.abort_txn();
  EXPECT_EQ(enclave_.ruleset_version(), version);

  enclave_.create_table("later");
  EXPECT_EQ(enclave_.read_global_scalar(action, "level"), 2);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 3);
}

// A write to an action installed in the same transaction lands at the
// commit, together with the action and the rule that reaches it.
TEST_F(EnclaveTest, GlobalWriteInTxnToFreshActionLandsAtCommit) {
  const std::uint64_t version = enclave_.ruleset_version();
  enclave_.begin_txn();
  const ActionId action = install_with_rule(
      "lvl", "fun(p, m, g) -> p.priority <- g.level",
      {scalar_field("level")});
  enclave_.set_global_scalar(action, "level", 4);
  netsim::Packet staged = tcp_packet();
  enclave_.process(staged);
  EXPECT_EQ(staged.priority, 0);
  EXPECT_EQ(enclave_.ruleset_version(), version);
  enclave_.commit_txn();

  EXPECT_EQ(enclave_.ruleset_version(), version + 1);
  EXPECT_EQ(enclave_.read_global_scalar(action, "level"), 4);
  netsim::Packet packet = tcp_packet();
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 4);
}

// Workers batch packets through a parallel action while the control
// thread rewrites two scalars in one transaction and a two-element array
// standalone: every execution sees each pair equal, never half-written.
TEST_F(EnclaveTest, GlobalWritePairsFlipWholeUnderConcurrentBatches) {
  const ActionId action = install_with_rule("pairs", R"(fun(p, m, g) ->
      p.path <- (if (g.x = g.y) && (g.pair[0] = g.pair[1]) then 1 else 0))",
                                            {scalar_field("x"),
                                             scalar_field("y"),
                                             array_field("pair")});
  enclave_.set_global_array(action, "pair", {0, 0});

  constexpr int kWorkers = 3;
  constexpr int kBatch = 16;
  constexpr std::int64_t kRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> seen{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      std::vector<netsim::PacketPtr> batch;
      while (!stop.load(std::memory_order_relaxed)) {
        batch.clear();
        for (int i = 0; i < kBatch; ++i) {
          auto p = netsim::make_packet();
          *p = tcp_packet(1 + t * kBatch + i);
          batch.push_back(std::move(p));
        }
        enclave_.process_batch(batch);
        for (const netsim::PacketPtr& p : batch) {
          if (p->path_label != 1) torn.fetch_add(1, std::memory_order_relaxed);
        }
        seen.fetch_add(kBatch, std::memory_order_relaxed);
      }
    });
  }
  // Start writing once every worker could have run a batch.
  while (seen.load() < kWorkers * kBatch) std::this_thread::yield();
  for (std::int64_t i = 1; i <= kRounds; ++i) {
    enclave_.begin_txn();
    enclave_.set_global_scalar(action, "x", i);
    enclave_.set_global_scalar(action, "y", i);
    enclave_.commit_txn();
    enclave_.set_global_array(action, "pair", {i, i});
  }
  const std::uint64_t during = seen.load();
  while (seen.load() < during + kWorkers * kBatch) std::this_thread::yield();
  stop = true;
  for (auto& w : workers) w.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(enclave_.read_global_scalar(action, "x"), kRounds);
  EXPECT_EQ(enclave_.read_global_scalar(action, "y"), kRounds);
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

// The grouped path against process() packet by packet, over batches of
// 1-300 packets interleaving 48 messages across six actions behind one
// table: parallel, dropping, per_message, two fully serialized (a scalar
// and an array writer), and one that faults on some inputs. Every
// output, every message-state slot and every counter must agree, with
// per-class telemetry off and on.
TEST_F(EnclaveTest, BatchMatchesPerPacketAcrossActionsAndMessages) {
  constexpr std::int64_t kMessages = 48;
  lang::FieldDef total;
  total.name = "total";
  total.access = lang::Access::read_write;
  lang::FieldDef counts;
  counts.name = "counts";
  counts.kind = lang::FieldKind::array;
  counts.access = lang::Access::read_write;
  lang::FieldDef xs;
  xs.name = "xs";
  xs.kind = lang::FieldKind::array;
  struct Spec {
    const char* name;
    const char* source;
    std::vector<lang::FieldDef> globals;
  };
  const std::vector<Spec> specs = {
      {"par", "fun(p, m, g) -> p.priority <- p.size / 200", {}},
      {"dropper",
       "fun(p, m, g) -> p.drop <- p.size % 5 = 0; p.path <- p.size % 7",
       {}},
      {"accum",
       "fun(p, m, g) -> m.size <- m.size + p.size; "
       "m.packets <- m.packets + 1; "
       "p.priority <- (if m.size > 6000 then 2 else 6); p.path <- m.packets",
       {}},
      {"serial",
       "fun(p, m, g) -> g.total <- g.total + p.size; "
       "p.path <- g.total % 1000",
       {total}},
      {"serial_array",
       "fun(p, m, g) -> g.counts[p.msg_id] <- g.counts[p.msg_id] + p.size; "
       "p.path <- g.counts[p.msg_id] % 1000",
       {counts}},
      {"faulty",
       "fun(p, m, g) -> m.state0 <- m.state0 + 1; "
       "p.path <- m.state0 + g.xs[p.size % 4] / (p.size % 3)",
       {xs}},
  };
  const lang::ConcurrencyMode modes[] = {
      lang::ConcurrencyMode::parallel,    lang::ConcurrencyMode::parallel,
      lang::ConcurrencyMode::per_message, lang::ConcurrencyMode::serialized,
      lang::ConcurrencyMode::serialized,  lang::ConcurrencyMode::per_message};

  for (const bool telemetry : {false, true}) {
    for (const std::uint64_t seed : {3, 17, 2024}) {
      SCOPED_TRACE(std::string(telemetry ? "telemetry on" : "telemetry off") +
                   ", seed " + std::to_string(seed));
      EnclaveConfig config;
      config.telemetry.enabled = telemetry;
      ClassRegistry registry;
      Controller controller(registry);
      Enclave per_packet("per-packet", registry, config);
      Enclave batched("batched", registry, config);
      std::vector<ActionId> actions;
      std::vector<ClassId> classes;
      for (Enclave* e : {&per_packet, &batched}) {
        const TableId table = e->create_table("t");
        for (std::size_t a = 0; a < specs.size(); ++a) {
          const Spec& spec = specs[a];
          const lang::CompiledProgram program =
              controller.compile(spec.name, spec.source, spec.globals);
          ASSERT_EQ(program.concurrency, modes[a]) << spec.name;
          const ActionId id =
              e->install_action(spec.name, program, spec.globals);
          if (e == &per_packet) actions.push_back(id);
          e->add_rule(table, ClassPattern(std::string("t.c.") + spec.name), id);
        }
        // Classes no exact rule names fall through to this wildcard.
        e->add_rule(table, ClassPattern("t.c.*"), actions[0]);
        e->set_global_array(actions[4], "counts",
                            std::vector<std::int64_t>(kMessages + 1, 0));
        e->set_global_array(actions[5], "xs", {5, 6, 7});
      }
      for (std::size_t a = 0; a < specs.size(); ++a) {
        classes.push_back(registry.intern(std::string("t.c.") + specs[a].name));
      }
      const ClassId other = registry.intern("t.c.other");

      util::Rng rng(seed);
      std::uint64_t matched = 0;
      for (int round = 0; round < 12; ++round) {
        const std::size_t n = 1 + rng.below(300);
        std::vector<netsim::PacketPtr> batch;
        std::vector<netsim::Packet> expect;
        std::size_t expect_kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
          netsim::Packet p =
              tcp_packet(1 + static_cast<std::int64_t>(rng.below(kMessages)));
          p.size_bytes = static_cast<std::uint32_t>(64 + rng.below(1451));
          const std::uint64_t pick = rng.below(20);
          if (pick < specs.size() * 3) {
            p.classes.add(classes[pick % specs.size()]);
            ++matched;
          } else if (pick < 19) {
            p.classes.add(other);
            ++matched;
          }  // else: no class, no rule matches
          batch.push_back(netsim::make_packet());
          *batch.back() = p;
          if (per_packet.process(p)) ++expect_kept;
          expect.push_back(p);
        }
        ASSERT_EQ(batched.process_batch(batch), expect_kept) << "round " << round;
        for (std::size_t i = 0; i < n; ++i) {
          SCOPED_TRACE("round " + std::to_string(round) + " packet " +
                       std::to_string(i));
          EXPECT_EQ(batch[i]->drop_mark, expect[i].drop_mark);
          EXPECT_EQ(batch[i]->priority, expect[i].priority);
          EXPECT_EQ(batch[i]->path_label, expect[i].path_label);
        }
        if (HasFailure()) return;
      }

      for (std::size_t a = 0; a < specs.size(); ++a) {
        SCOPED_TRACE(specs[a].name);
        const ActionStats want = per_packet.action_stats(actions[a]);
        const ActionStats got = batched.action_stats(actions[a]);
        EXPECT_GT(want.executions, 0u);
        EXPECT_EQ(got.executions, want.executions);
        EXPECT_EQ(got.steps, want.steps);
        EXPECT_EQ(got.errors, want.errors);
        EXPECT_EQ(got.errors_by_status, want.errors_by_status);
        for (std::int64_t key = 1; key <= kMessages; ++key) {
          for (std::uint16_t slot = 0; slot < MessageSlot::count_; ++slot) {
            EXPECT_EQ(batched.peek_message_state(actions[a], key, slot),
                      per_packet.peek_message_state(actions[a], key, slot))
                << "message " << key << " slot " << slot;
          }
        }
      }
      const ActionStats faults = per_packet.action_stats(actions[5]);
      EXPECT_GT(faults.errors_by_status[static_cast<std::size_t>(
                    lang::ExecStatus::out_of_bounds)],
                0u);
      EXPECT_GT(faults.errors_by_status[static_cast<std::size_t>(
                    lang::ExecStatus::div_by_zero)],
                0u);
      const EnclaveStats want = per_packet.stats();
      const EnclaveStats got = batched.stats();
      EXPECT_EQ(want.matched, matched);
      EXPECT_EQ(got.packets, want.packets);
      EXPECT_EQ(got.matched, want.matched);
      EXPECT_EQ(got.dropped_by_action, want.dropped_by_action);
      EXPECT_GT(want.dropped_by_action, 0u);
    }
  }
}

// Groups run in the order their first packet arrived, each message's
// packets back to back and in arrival order: a serialized action that
// reads its message state appends (msg_id, packet number) to a global
// log, which probe packets then read back through p.path.
TEST_F(EnclaveTest, BatchRunsGroupsInFirstArrivalOrder) {
  lang::FieldDef log;
  log.name = "log";
  log.kind = lang::FieldKind::array;
  log.access = lang::Access::read_write;
  lang::FieldDef count;
  count.name = "n";
  count.access = lang::Access::read_write;
  const ActionId action = install_with_rule("logger", R"(fun(p, m, g) ->
      if p.msg_type = 1 then p.path <- g.log[p.seq]
      else (m.packets <- m.packets + 1;
            g.log[g.n] <- p.msg_id * 100 + m.packets;
            g.n <- g.n + 1))",
                                            {log, count});
  enclave_.set_global_array(action, "log", std::vector<std::int64_t>(16, 0));

  const std::int64_t arrivals[] = {7, 3, 7, 9, 3, 3, 7, 1, 9, 7};
  std::vector<netsim::PacketPtr> batch;
  for (const std::int64_t msg : arrivals) {
    batch.push_back(netsim::make_packet());
    *batch.back() = tcp_packet(msg);
  }
  EXPECT_EQ(enclave_.process_batch(batch), batch.size());
  ASSERT_EQ(enclave_.read_global_scalar(action, "n"), 10);

  const std::int32_t want[] = {701, 702, 703, 704, 301, 302,
                               303, 901, 902, 101};
  for (std::size_t i = 0; i < std::size(want); ++i) {
    netsim::Packet probe = tcp_packet(1000);
    probe.meta.msg_type = 1;
    probe.seq = i;
    enclave_.process(probe);
    EXPECT_EQ(probe.path_label, want[i]) << "log entry " << i;
  }
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
}

TEST_F(EnclaveTest, SerializedArrayWritesAreExactUnderContention) {
  // Global array increments from racing threads: the exclusive global
  // lock must serialize every writer, and no update may be lost. The
  // action also reads its own slot back, so a final packet per key
  // observes the exact total.
  lang::FieldDef counts;
  counts.name = "counts";
  counts.kind = lang::FieldKind::array;
  counts.access = lang::Access::read_write;
  const ActionId action = install_with_rule("array_count", R"(fun(p, m, g) ->
      g.counts[p.msg_id] <- g.counts[p.msg_id] + 1;
      p.path <- g.counts[p.msg_id])",
                                            {counts});
  enclave_.set_global_array(action, "counts", std::vector<std::int64_t>(8, 0));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Two threads share key 1, two share key 2.
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

// --- Match index vs a linear first-match reference ------------------------
//
// A random script over one or two tables: rules mix exact,
// partial-wildcard and match-any patterns over 12 classes, with
// duplicate exact rules and exact rules added before anything else
// interns their class, and churn through rule removals, txn
// begin/commit/abort and stages registering classes. One enclave runs
// every packet through process(), a twin runs the same packets through
// process_batch(); both must fire the actions a linear scan over
// ClassPattern::matches fires, and their per-class counters must
// credit each match to the class the scan credits it to.
class MatchScript {
 public:
  MatchScript(std::uint64_t seed, std::size_t tables) : rng_(seed) {
    for (int k = 0; k < kActions; ++k) {
      const std::string name = "a" + std::to_string(k);
      const auto program = controller_.compile(
          name,
          "fun(p, m, g) -> p.path <- p.path * 8 + " + std::to_string(k + 1),
          {});
      per_packet_.install_action(name, program, {});
      batched_.install_action(name, program, {});
    }
    committed_.resize(tables);
    for (std::size_t t = 0; t < tables; ++t) {
      const std::string name = "t" + std::to_string(t);
      tables_.push_back(per_packet_.create_table(name));
      EXPECT_EQ(batched_.create_table(name), tables_.back());
      const std::uint64_t rules = rng_.below(kMaxRules + 1);
      for (std::uint64_t i = 0; i < rules; ++i) add_rule(t);
    }
  }

  void run(int steps) {
    static const std::vector<std::string> kClasses = [] {
      std::vector<std::string> names;
      for (const char* stage : {"s", "t"}) {
        for (const char* rule_set : {"r", "q"}) {
          for (const char* cls : {"a", "b", "c"}) {
            names.push_back(std::string(stage) + "." + rule_set + "." + cls);
          }
        }
      }
      return names;
    }();
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::size_t t = rng_.below(tables_.size());
      const std::uint64_t op = rng_.below(10);
      if (op < 3) {
        if (view()[t].size() < kMaxRules) add_rule(t);
      } else if (op < 5) {
        remove_rule(t);
      } else if (op < 7) {
        toggle_txn();
      } else if (op == 7) {
        registry_.intern(kClasses[rng_.below(kClasses.size())]);
      }
      check_mixed_batch();
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  // Action k appends the digit k + 1 to p.path in base 8, so the path
  // spells out which action fired in each table.
  static constexpr int kActions = 7;
  static constexpr std::size_t kMaxRules = 80;

  struct RefRule {
    MatchRuleId id;
    ClassPattern pattern;
    ActionId action;
  };
  using RefTables = std::vector<std::vector<RefRule>>;

  static EnclaveConfig config() {
    EnclaveConfig config;
    config.telemetry.enabled = true;
    config.telemetry.histogram_sample_every = 0;
    return config;
  }

  // About half exact, half with one or two "*" components, and a few
  // "*.*.*" and match-any rules.
  std::string random_pattern() {
    const std::uint64_t kind = rng_.below(100);
    if (kind < 2) return "*";
    if (kind < 3) return "*.*.*";
    std::string parts[3] = {rng_.below(2) == 0 ? "s" : "t",
                            rng_.below(2) == 0 ? "r" : "q",
                            std::string(1, "abc"[rng_.below(3)])};
    if (kind < 50) parts[rng_.below(3)] = "*";
    if (kind < 15) parts[rng_.below(3)] = "*";
    return parts[0] + "." + parts[1] + "." + parts[2];
  }

  RefTables& view() { return txn_open_ ? staged_ : committed_; }

  void add_rule(std::size_t t) {
    const std::string pattern = random_pattern();
    const auto action = static_cast<ActionId>(rng_.below(kActions));
    const MatchRuleId id =
        per_packet_.add_rule(tables_[t], ClassPattern(pattern), action);
    EXPECT_EQ(batched_.add_rule(tables_[t], ClassPattern(pattern), action),
              id);
    view()[t].push_back({id, ClassPattern(pattern), action});
  }

  void remove_rule(std::size_t t) {
    auto& rules = view()[t];
    if (rules.empty()) return;
    const auto it =
        rules.begin() + static_cast<std::ptrdiff_t>(rng_.below(rules.size()));
    EXPECT_TRUE(per_packet_.remove_rule(tables_[t], it->id));
    EXPECT_TRUE(batched_.remove_rule(tables_[t], it->id));
    rules.erase(it);
  }

  void toggle_txn() {
    if (!txn_open_) {
      per_packet_.begin_txn();
      batched_.begin_txn();
      staged_ = committed_;
      txn_open_ = true;
      return;
    }
    txn_open_ = false;
    if (rng_.below(3) == 0) {
      per_packet_.abort_txn();
      batched_.abort_txn();
    } else {
      per_packet_.commit_txn();
      batched_.commit_txn();
      committed_ = staged_;
    }
  }

  // The linear scan: per table, the first committed rule whose pattern
  // matches one of the packet's classes, tried in packet order.
  std::int32_t reference(const netsim::Packet& p) {
    std::int32_t path = 0;
    for (const auto& rules : committed_) {
      for (const RefRule& rule : rules) {
        std::optional<ClassId> hit;
        if (rule.pattern.match_any()) {
          hit = p.classes.size() > 0 ? p.classes[0] : kInvalidClass;
        }
        for (std::size_t i = 0; !hit && i < p.classes.size(); ++i) {
          if (rule.pattern.matches(p.classes[i], registry_)) {
            hit = p.classes[i];
          }
        }
        if (!hit) continue;
        path = path * 8 + static_cast<std::int32_t>(rule.action) + 1;
        ++credited_[*hit == kInvalidClass ? "(unclassified)"
                                          : registry_.name(*hit).full()];
        break;
      }
    }
    return path;
  }

  static std::map<std::string, std::uint64_t> credited(const Enclave& e) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c : e.telemetry_snapshot().classes) {
      out[c.name] = c.matched;
    }
    return out;
  }

  // Packets carrying 0-4 interned classes (repeats allowed), through
  // both paths and the reference.
  void check_mixed_batch() {
    std::vector<netsim::PacketPtr> batch;
    std::vector<std::int32_t> want;
    for (int n = 0; n < 12; ++n) {
      netsim::Packet p = tcp_packet(1 + n);
      p.path_label = 0;
      const std::uint64_t classes =
          registry_.size() == 0
              ? 0
              : rng_.below(netsim::ClassList::kCapacity + 1);
      for (std::uint64_t i = 0; i < classes; ++i) {
        p.classes.add(static_cast<ClassId>(rng_.below(registry_.size())));
      }
      want.push_back(reference(p));
      batch.push_back(netsim::make_packet());
      *batch.back() = p;
      per_packet_.process(p);
      EXPECT_EQ(p.path_label, want.back()) << "process() packet " << n;
    }
    batched_.process_batch(batch);
    for (std::size_t n = 0; n < batch.size(); ++n) {
      EXPECT_EQ(batch[n]->path_label, want[n]) << "process_batch() packet "
                                               << n;
    }
    EXPECT_EQ(credited(per_packet_), credited_);
    EXPECT_EQ(credited(batched_), credited_);
  }

  util::Rng rng_;
  ClassRegistry registry_;
  Controller controller_{registry_};
  Enclave per_packet_{"per-packet", registry_, config()};
  Enclave batched_{"batched", registry_, config()};
  std::vector<TableId> tables_;
  RefTables committed_;
  RefTables staged_;
  bool txn_open_ = false;
  std::map<std::string, std::uint64_t> credited_;
};

// One table: process_batch runs its grouped path.
TEST(EnclaveMatchTest, OneTableAgreesWithLinearScan) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MatchScript(seed, 1).run(60);
  }
}

// Two tables: process_batch falls back to per-packet matching.
TEST(EnclaveMatchTest, TwoTablesAgreeWithLinearScan) {
  for (const std::uint64_t seed : {11, 12, 13, 14, 15, 16, 17, 18}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MatchScript(seed, 2).run(60);
  }
}

// Bytecode and native twins agree through the FlowStore: the same
// packet stream runs through process_batch() on a bytecode enclave and
// on a native-twin enclave, for each Table-1 function. The stream
// interleaves several messages of several packets, so batches form
// multi-packet message groups whose payload is copied in, committed
// and (for a fault) rewound on both paths.
class EnclaveTwinTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kMessages = 6;
  static constexpr std::int64_t kPacketsPerMessage = 5;
  static constexpr std::size_t kBatch = 8;
  static constexpr std::int64_t kVip = 2;

  static void push_globals(Enclave& enclave, ActionId action,
                           const std::string& fn) {
    if (fn == "pias") {
      enclave.set_global_array(action, "priorities",
                               {4000, 7, 12000, 5, std::int64_t{1} << 40, 3});
    } else if (fn == "sff") {
      enclave.set_global_array(
          action, "priorities",
          {10240, 7, 20000, 5, 30000, 3, std::int64_t{1} << 40, 1});
    } else if (fn == "wcmp" || fn == "message_wcmp") {
      std::vector<std::int64_t> paths;
      for (std::int64_t d = 0; d < 4; ++d) {
        paths.insert(paths.end(), {d, 10 + 2 * d, 600, d, 11 + 2 * d, 400});
      }
      enclave.set_global_array(action, "paths", std::move(paths));
    } else if (fn == "vip_lb") {
      enclave.set_global_scalar(action, "vip", kVip);
      enclave.set_global_array(action, "backend_labels", {31, 32, 33});
    } else if (fn == "qjump") {
      enclave.set_global_array(action, "level_queues",
                               {0, 1, 2, 3, 4, 5, 6, 7});
    } else if (fn == "replica_select") {
      enclave.set_global_array(action, "replica_labels", {201, 202, 203});
    } else if (fn == "port_knock") {
      enclave.set_global_array(action, "knock_seq", {1001, 1002, 1003});
      enclave.set_global_scalar(action, "open_port", 1004);
      enclave.set_global_scalar(action, "strict", 1);
    } else if (fn == "conntrack") {
      enclave.set_global_scalar(action, "self", 1);
      enclave.set_global_array(action, "open_ports", {1000, 1001});
    } else if (fn == "pulsar") {
      enclave.set_global_array(action, "queue_map", {0, 1, 1, 2, 2, 3});
    }
  }

  // Packet k of message m, the stream interleaving messages packet by
  // packet. Fields vary by message and position so every function
  // takes more than one branch.
  static netsim::PacketPtr stream_packet(std::int64_t m, std::int64_t k) {
    static constexpr std::int64_t kPorts[2][kPacketsPerMessage] = {
        {1001, 1002, 1003, 1004, 1004}, {1004, 1001, 1005, 1000, 1002}};
    auto p = std::make_shared<netsim::Packet>(tcp_packet(m));
    p->src = m % 2 == 0 ? 1 : 5;
    p->dst = static_cast<netsim::HostId>(m % 4);
    p->dst_port = static_cast<std::uint16_t>(kPorts[m % 2][k]);
    p->size_bytes = static_cast<std::uint32_t>(1514 - 100 * k);
    p->payload_bytes = p->size_bytes - 54;
    p->seq = static_cast<std::uint64_t>(k * 1460);
    p->meta.key_hash = m * 37 + k;
    p->meta.app_priority = (m + k) % 9 - 1;
    p->meta.tenant = m % 3;
    p->meta.msg_type = k % 2;
    p->meta.msg_size = 4096 * m;
    p->meta.flow_size = 5000 * m;
    return p;
  }

  struct Run {
    ClassRegistry registry;
    Enclave enclave{"twin", registry};
    ActionId action = kInvalidAction;
    std::vector<netsim::PacketPtr> packets;  // stream order
  };

  static void run(const functions::NetworkFunction& fn, bool native,
                  Run& out) {
    out.action = fn.install(out.enclave, native);
    push_globals(out.enclave, out.action, fn.name());
    const TableId table = out.enclave.create_table("t");
    out.enclave.add_rule(table, ClassPattern("*"), out.action);
    for (std::int64_t k = 0; k < kPacketsPerMessage; ++k) {
      for (std::int64_t m = 1; m <= kMessages; ++m) {
        out.packets.push_back(stream_packet(m, k));
      }
    }
    std::vector<netsim::PacketPtr> batch;
    for (std::size_t i = 0; i < out.packets.size(); i += kBatch) {
      batch.assign(out.packets.begin() + static_cast<std::ptrdiff_t>(i),
                   out.packets.begin() + static_cast<std::ptrdiff_t>(
                       std::min(i + kBatch, out.packets.size())));
      out.enclave.process_batch(std::span(batch.data(), batch.size()));
    }
  }
};

TEST_F(EnclaveTwinTest, BytecodeAndNativeAgreeThroughTheFlowStore) {
  // The message slot each randomized function fills with rand().
  const std::map<std::string, std::optional<std::uint16_t>> randomized = {
      {"wcmp", std::nullopt},
      {"message_wcmp", MessageSlot::path},
      {"vip_lb", MessageSlot::state0},
  };
  const auto& all = functions::all_functions();
  ASSERT_EQ(all.size(), 11u);
  for (const auto& fn : all) {
    SCOPED_TRACE(fn->name());
    Run bytecode;
    Run native;
    run(*fn, false, bytecode);
    run(*fn, true, native);
    const auto rnd = randomized.find(fn->name());
    const bool is_random = rnd != randomized.end();

    ASSERT_EQ(bytecode.packets.size(), native.packets.size());
    std::map<std::int64_t, std::int32_t> msg_path[2];
    for (std::size_t i = 0; i < bytecode.packets.size(); ++i) {
      SCOPED_TRACE("packet " + std::to_string(i));
      const netsim::Packet& b = *bytecode.packets[i];
      const netsim::Packet& n = *native.packets[i];
      EXPECT_EQ(b.drop_mark, n.drop_mark);
      EXPECT_EQ(b.priority, n.priority);
      EXPECT_EQ(b.rl_queue, n.rl_queue);
      EXPECT_EQ(b.charge_bytes, n.charge_bytes);
      if (!is_random) {
        EXPECT_EQ(b.path_label, n.path_label);
        continue;
      }
      // Randomized: each twin's path must be one the globals allow.
      for (const netsim::Packet* p : {&b, &n}) {
        if (fn->name() == std::string("vip_lb")) {
          if (p->dst == kVip) {
            EXPECT_TRUE(p->path_label >= 31 && p->path_label <= 33)
                << p->path_label;
          } else {
            EXPECT_EQ(p->path_label, b.path_label);
          }
        } else {
          const std::int32_t lo = 10 + 2 * static_cast<std::int32_t>(p->dst);
          EXPECT_TRUE(p->path_label == lo || p->path_label == lo + 1)
              << p->path_label;
        }
      }
      if (rnd->second.has_value()) {
        // Message-level picks: one path per message.
        for (int side = 0; side < 2; ++side) {
          const netsim::Packet& p = side == 0 ? b : n;
          const auto [it, fresh] =
              msg_path[side].emplace(p.meta.msg_id, p.path_label);
          EXPECT_EQ(it->second, p.path_label)
              << "message " << p.meta.msg_id << " changed path";
        }
      }
    }

    for (std::int64_t m = 1; m <= kMessages; ++m) {
      for (std::uint16_t slot = 0; slot < MessageSlot::count_; ++slot) {
        SCOPED_TRACE("message " + std::to_string(m) + " slot " +
                     std::to_string(slot));
        const auto b = bytecode.enclave.peek_message_state(bytecode.action,
                                                           m, slot);
        const auto n =
            native.enclave.peek_message_state(native.action, m, slot);
        if (is_random && rnd->second == slot) {
          ASSERT_EQ(b.has_value(), n.has_value());
          continue;
        }
        EXPECT_EQ(b, n);
      }
    }
    EXPECT_EQ(bytecode.enclave.stats().dropped_by_action,
              native.enclave.stats().dropped_by_action);
    EXPECT_EQ(bytecode.enclave.stats().message_entries_created,
              native.enclave.stats().message_entries_created);
  }
}

// Rollback inside a message group, on both paths: every packet bumps two
// message slots and sets its path, and the third packet of each message
// then faults, so its writes must be rewound while the packets before
// and after it in the same group still commit.
TEST_F(EnclaveTwinTest, FaultMidGroupRollsBackBothTwinsAlike) {
  lang::FieldDef bad;
  bad.name = "bad";
  bad.kind = lang::FieldKind::array;
  const std::vector<lang::FieldDef> globals = {bad};
  ClassRegistry registry;
  Controller controller(registry);
  const lang::CompiledProgram program = controller.compile(
      "bump",
      "fun(p, m, g) -> m.state0 <- m.state0 + 1; "
      "m.state1 <- m.state1 + p.size; p.path <- m.state0; "
      "(if p.seq = 2920 then g.bad[0] else 0)",
      globals);
  Run runs[2];
  for (int native = 0; native < 2; ++native) {
    Run& r = runs[native];
    r.action =
        native == 0
            ? r.enclave.install_action("bump", program, globals)
            : r.enclave.install_native_action(
                  "bump.native",
                  [](lang::StateBlock& pkt, lang::StateBlock* msg,
                     lang::StateBlock*, NativeCtx&) {
                    msg->scalars[MessageSlot::state0] += 1;
                    msg->scalars[MessageSlot::state1] +=
                        pkt.scalars[PacketSlot::size];
                    pkt.scalars[PacketSlot::path] =
                        msg->scalars[MessageSlot::state0];
                    return pkt.scalars[PacketSlot::seq] == 2920
                               ? lang::ExecStatus::out_of_bounds
                               : lang::ExecStatus::ok;
                  },
                  program.concurrency, /*touches_message=*/true, globals);
    const TableId table = r.enclave.create_table("t");
    r.enclave.add_rule(table, ClassPattern("*"), r.action);
    for (std::int64_t k = 0; k < kPacketsPerMessage; ++k) {
      for (std::int64_t m = 1; m <= kMessages; ++m) {
        r.packets.push_back(stream_packet(m, k));
      }
    }
    // One batch: each message's five packets form one group.
    r.enclave.process_batch(std::span(r.packets.data(), r.packets.size()));
    EXPECT_EQ(r.enclave.action_stats(r.action).errors,
              static_cast<std::uint64_t>(kMessages));
  }
  for (std::size_t i = 0; i < runs[0].packets.size(); ++i) {
    EXPECT_EQ(runs[0].packets[i]->path_label, runs[1].packets[i]->path_label)
        << "packet " << i;
  }
  for (std::int64_t m = 1; m <= kMessages; ++m) {
    std::int64_t bytes = 0;
    for (std::int64_t k = 0; k < kPacketsPerMessage; ++k) {
      if (k != 2) bytes += stream_packet(m, k)->size_bytes;
    }
    for (const Run& r : runs) {
      EXPECT_EQ(r.enclave.peek_message_state(r.action, m, MessageSlot::state0),
                kPacketsPerMessage - 1);
      EXPECT_EQ(r.enclave.peek_message_state(r.action, m, MessageSlot::state1),
                bytes);
    }
  }
}

}  // namespace
}  // namespace eden::core
