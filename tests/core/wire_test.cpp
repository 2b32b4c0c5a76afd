// The controller <-> enclave wire protocol: command round trips, agent
// behaviour, error handling and robustness against corrupt frames.
#include "core/wire.h"

#include <gtest/gtest.h>

#include <functional>

#include "core/controller.h"
#include "functions/scheduling.h"
#include "lang/optimizer.h"
#include "lang/source_loc.h"
#include "telemetry/delta.h"
#include "util/bytes.h"

namespace eden::core::wire {
namespace {

// One command frame applied as the agent applies it, with the reply
// sent back through the response codec, so every round trip exercises
// both halves of the wire format.
Response roundtrip(Enclave& enclave, std::span<const std::uint8_t> frame,
                   telemetry::DeltaEncoder& encoder) {
  return decode_response(encode_response(wire::apply(enclave, frame, encoder)));
}

std::string payload_text(const Response& r) {
  return std::string(r.payload.begin(), r.payload.end());
}

class WireTest : public ::testing::Test {
 protected:
  Response send(std::span<const std::uint8_t> frame) {
    return roundtrip(enclave_, frame, encoder_);
  }

  ClassRegistry registry_;
  Enclave enclave_{"remote", registry_};
  Controller controller_{registry_};
  telemetry::DeltaEncoder encoder_;
};

// A program whose declared mode and masks understate its code would run
// its global writes under a shared lock: the enclave refuses to install
// it, in process and over the wire, and stays as it was.
TEST_F(WireTest, InstallRejectsUnderstatedConcurrency) {
  lang::FieldDef packets;
  packets.name = "packets";
  packets.access = lang::Access::read_write;
  const std::vector<lang::FieldDef> globals = {packets};
  lang::CompiledProgram tampered = controller_.compile(
      "count", "fun(p, m, g) -> g.packets <- g.packets + 1", globals);
  ASSERT_EQ(tampered.concurrency, lang::ConcurrencyMode::serialized);
  tampered.concurrency = lang::ConcurrencyMode::parallel;
  for (auto& mask : tampered.usage.scalar_write) mask = 0;
  for (auto& mask : tampered.usage.array_write) mask = 0;
  tampered = lang::CompiledProgram::deserialize(tampered.serialize());

  EXPECT_THROW(enclave_.install_action("count", tampered, globals),
               lang::LangError);
  const std::uint64_t version = enclave_.ruleset_version();
  const Response r = send(encode_install_action("count", tampered, globals));
  EXPECT_EQ(r.status, Status::rejected);
  EXPECT_NE(r.error.find("understate"), std::string::npos) << r.error;
  EXPECT_FALSE(enclave_.find_action("count").has_value());
  EXPECT_EQ(enclave_.ruleset_version(), version);
}

TEST_F(WireTest, InstallAndDriveActionRemotely) {
  // The full controller workflow over the wire: compile locally, ship
  // bytecode, create a table, add a rule, configure global state —
  // then verify the remote enclave processes packets accordingly.
  lang::FieldDef cutoff;
  cutoff.name = "cutoff";
  const auto program = controller_.compile(
      "express",
      "fun(p, m, g) -> p.priority <- (if p.size <= g.cutoff then 7 else 1)",
      {{cutoff}});

  Response r = send(encode_install_action("express", program, {{cutoff}}));
  ASSERT_EQ(r.status, Status::ok);

  ASSERT_EQ(send(encode_create_table("main")).status, Status::ok);
  ASSERT_EQ(send(encode_add_rule_named("main", 1, "*", "express")).status,
            Status::ok);
  ASSERT_EQ(send(encode_set_global_scalar("express", "cutoff", 500)).status,
            Status::ok);

  netsim::Packet small;
  small.size_bytes = 100;
  enclave_.process(small);
  EXPECT_EQ(small.priority, 7);

  netsim::Packet big;
  big.size_bytes = 1500;
  enclave_.process(big);
  EXPECT_EQ(big.priority, 1);

  EXPECT_EQ(enclave_.read_global_scalar(*enclave_.find_action("express"),
                                        "cutoff"),
            500);
}

TEST_F(WireTest, GlobalArrayRoundTrip) {
  const functions::PiasFunction pias;
  const auto fields = pias.global_fields();
  ASSERT_EQ(send(encode_install_action("pias", pias.compile(), fields)).status,
            Status::ok);
  const std::int64_t data[] = {10240, 7, 1048576, 5};
  EXPECT_EQ(send(encode_set_global_array("pias", "priorities", data)).status,
            Status::ok);
  // Misaligned record data is rejected by the enclave, reported over
  // the wire.
  const std::int64_t bad[] = {1, 2, 3};
  EXPECT_EQ(send(encode_set_global_array("pias", "priorities", bad)).status,
            Status::rejected);
}

TEST_F(WireTest, UnknownActionReported) {
  EXPECT_EQ(send(encode_set_global_scalar("ghost", "x", 1)).status,
            Status::unknown_action);
  EXPECT_EQ(send(encode_remove_action("ghost")).status, Status::unknown_action);
  ASSERT_EQ(send(encode_create_table("t")).status, Status::ok);
  EXPECT_EQ(send(encode_add_rule_named("t", 1, "*", "ghost")).status,
            Status::unknown_action);
}

TEST_F(WireTest, UnknownTableAndRuleReported) {
  const auto program = controller_.compile("noop", "fun(p, m, g) -> 0", {});
  send(encode_install_action("noop", program, {}));
  EXPECT_EQ(send(encode_add_rule_named("nope", 1, "*", "noop")).status,
            Status::unknown_table);
  EXPECT_EQ(send(encode_remove_rule_named("nope", 1)).status,
            Status::unknown_table);
  // A known table with an unknown rule id reports the same status.
  ASSERT_EQ(send(encode_create_table("t")).status, Status::ok);
  EXPECT_EQ(send(encode_remove_rule_named("t", 99)).status,
            Status::unknown_table);
}

TEST_F(WireTest, MalformedClassPatternRejected) {
  // A pattern that does not parse is a validation failure, not a
  // missing table.
  const auto program = controller_.compile("noop", "fun(p, m, g) -> 0", {});
  ASSERT_EQ(send(encode_install_action("noop", program, {})).status,
            Status::ok);
  const Response t = send(encode_create_table("t"));
  ASSERT_EQ(t.status, Status::ok);
  const auto table = static_cast<TableId>(t.value);
  const Response r =
      send(encode_add_rule_named("t", 1, "not-a-class", "noop"));
  EXPECT_EQ(r.status, Status::rejected);
  EXPECT_NE(r.error.find("malformed class pattern"), std::string::npos);
  EXPECT_EQ(enclave_.rule_count(table), 0u);
}

TEST_F(WireTest, RemoveActionAndRuleLifecycle) {
  const auto program =
      controller_.compile("p3", "fun(p, m, g) -> p.priority <- 3", {});
  send(encode_install_action("p3", program, {}));
  const auto table = static_cast<TableId>(send(encode_create_table("t")).value);
  ASSERT_EQ(send(encode_add_rule_named("t", 7, "*", "p3")).status, Status::ok);
  EXPECT_EQ(enclave_.rule_count(table), 1u);
  EXPECT_EQ(send(encode_remove_rule_named("t", 7)).status, Status::ok);
  EXPECT_EQ(send(encode_remove_rule_named("t", 7)).status,
            Status::unknown_table);
  EXPECT_EQ(enclave_.rule_count(table), 0u);
  EXPECT_EQ(send(encode_remove_action("p3")).status, Status::ok);
  EXPECT_EQ(send(encode_remove_action("p3")).status, Status::unknown_action);
}

TEST_F(WireTest, FlowRulesOverTheWire) {
  const auto program = controller_.compile(
      "p6", "fun(p, m, g) -> p.priority <- 6", {});
  send(encode_install_action("p6", program, {}));
  send(encode_create_table("t"));
  send(encode_add_rule_named("t", 1, "enclave.flows.tcp", "p6"));

  FlowClassifierRule rule;
  rule.proto = static_cast<std::int64_t>(netsim::Protocol::tcp);
  const Response r = send(encode_add_flow_rule(rule, "enclave.flows.tcp"));
  ASSERT_EQ(r.status, Status::ok);

  netsim::Packet packet;
  packet.protocol = netsim::Protocol::tcp;
  packet.size_bytes = 100;
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 6);

  // Malformed class names are rejected.
  EXPECT_EQ(send(encode_add_flow_rule(rule, "not-a-class")).status,
            Status::rejected);
}

TEST_F(WireTest, TelemetryPullOverTheWire) {
  const auto program = controller_.compile(
      "p6", "fun(p, m, g) -> p.priority <- 6", {});
  send(encode_install_action("p6", program, {}));
  send(encode_create_table("t"));
  send(encode_add_rule_named("t", 1, "*", "p6"));
  netsim::Packet packet;
  packet.size_bytes = 100;
  enclave_.process(packet);
  enclave_.process(packet);

  // Echoing (0, 0) always earns a full snapshot.
  const Response r = send(encode_get_telemetry_delta(0, 0));
  ASSERT_EQ(r.status, Status::ok);
  const std::string json = payload_text(r);
  EXPECT_NE(json.find("\"full\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"remote\""), std::string::npos);
  EXPECT_NE(json.find("\"packets\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p6\""), std::string::npos);
}

TEST_F(WireTest, PreOptimizedProgramInstallsAndRuns) {
  // A controller may optimize before shipping: the fused-opcode program
  // (wire format v2) must survive serialization, install-time
  // verification and execution on the remote enclave.
  const auto o1 = lang::optimize(
      controller_.compile(
          "express",
          "fun(p, m, g) -> p.priority <- (if p.size <= 500 then 7 else 1)",
          {}),
      lang::OptLevel::O1);
  bool has_fused = false;
  for (const auto& instr : o1.code) has_fused |= lang::is_fused_op(instr.op);
  ASSERT_TRUE(has_fused);

  ASSERT_EQ(send(encode_install_action("express", o1, {})).status, Status::ok);
  ASSERT_EQ(send(encode_create_table("t")).status, Status::ok);
  ASSERT_EQ(send(encode_add_rule_named("t", 1, "*", "express")).status,
            Status::ok);

  netsim::Packet small;
  small.size_bytes = 100;
  enclave_.process(small);
  EXPECT_EQ(small.priority, 7);

  netsim::Packet big;
  big.size_bytes = 1500;
  enclave_.process(big);
  EXPECT_EQ(big.priority, 1);
}

TEST_F(WireTest, StructurallyInvalidProgramRejected) {
  // Install-time verification runs on the receiving enclave: a program
  // whose branch escapes the code is rejected over the wire, not
  // installed to trap later on the data path.
  lang::CompiledProgram bad;
  bad.code = {{lang::Op::jmp, 1000, 0}, {lang::Op::halt, 0, 0}};
  bad.functions.push_back({"main", 0, 0, 0});
  const Response r = send(encode_install_action("bad", bad, {}));
  EXPECT_EQ(r.status, Status::rejected);
  EXPECT_FALSE(enclave_.find_action("bad").has_value());
}

TEST_F(WireTest, CorruptFramesNeverThrow) {
  // Every prefix of a valid frame must produce bad_request, not a crash.
  const auto program = controller_.compile("p", "fun(p, m, g) -> 1", {});
  const auto frame = encode_install_action("p", program, {});
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::uint8_t> prefix(frame.data(), len);
    const Response r = wire::apply(enclave_, prefix, encoder_);
    EXPECT_NE(r.status, Status::ok) << "prefix length " << len;
  }
  // Flipping the command byte.
  auto bad = frame;
  bad[4] = 0xee;
  EXPECT_EQ(wire::apply(enclave_, bad, encoder_).status, Status::bad_request);
  // Corrupting the embedded bytecode's magic is caught by the bytecode
  // deserializer and reported as rejected. Layout: wire magic (4) +
  // command (1) + name "p" (4+1) + payload length (4) = 14 bytes before
  // the bytecode magic.
  auto corrupt = frame;
  corrupt[14] ^= 0xff;
  EXPECT_EQ(wire::apply(enclave_, corrupt, encoder_).status, Status::rejected);
}

TEST_F(WireTest, ResponseRoundTrip) {
  Response original;
  original.status = Status::rejected;
  original.value = 424242;
  original.error = "because reasons";
  const Response copy = decode_response(encode_response(original));
  EXPECT_EQ(copy.status, original.status);
  EXPECT_EQ(copy.value, original.value);
  EXPECT_EQ(copy.error, original.error);
}

TEST_F(WireTest, TruncatedResponseDecodesAsBadRequest) {
  const auto frame = encode_response(Response{});
  const std::span<const std::uint8_t> prefix(frame.data(), 3);
  EXPECT_EQ(decode_response(prefix).status, Status::bad_request);
}

TEST_F(WireTest, TransactionCommandsOverTheWire) {
  const auto program =
      controller_.compile("tag", "fun(p, m, g) -> p.priority <- 3", {});

  ASSERT_EQ(send(encode_begin_txn()).status, Status::ok);
  // A second begin while one is open is rejected, not fatal.
  EXPECT_EQ(send(encode_begin_txn()).status, Status::rejected);

  ASSERT_EQ(send(encode_install_action("tag", program, {})).status, Status::ok);
  ASSERT_EQ(send(encode_add_rule_named("t", 1, "*", "tag")).status,
            Status::unknown_table);
  ASSERT_EQ(send(encode_create_table("t")).status, Status::ok);
  ASSERT_EQ(send(encode_add_rule_named("t", 1, "*", "tag")).status,
            Status::ok);

  // Staged, not visible: the data path still runs the empty rule set.
  netsim::Packet staged;
  enclave_.process(staged);
  EXPECT_EQ(staged.priority, 0);
  const std::uint64_t before = enclave_.ruleset_version();

  const Response commit = send(encode_commit_txn());
  ASSERT_EQ(commit.status, Status::ok);
  EXPECT_GT(commit.value, before);
  EXPECT_EQ(enclave_.ruleset_version(), commit.value);

  netsim::Packet committed;
  enclave_.process(committed);
  EXPECT_EQ(committed.priority, 3);

  // Commit without an open transaction is rejected. The agent's abort
  // of a stale transaction is idempotent.
  EXPECT_EQ(send(encode_commit_txn()).status, Status::rejected);
  enclave_.abort_txn();
  EXPECT_FALSE(enclave_.txn_open());

  // reset_state wipes everything in one atomic swap.
  ASSERT_EQ(send(encode_reset_state()).status, Status::ok);
  netsim::Packet after_reset;
  enclave_.process(after_reset);
  EXPECT_EQ(after_reset.priority, 0);
}

TEST_F(WireTest, AbortDropsStagedMutations) {
  const auto program =
      controller_.compile("tag", "fun(p, m, g) -> p.priority <- 3", {});
  ASSERT_EQ(send(encode_install_action("tag", program, {})).status, Status::ok);
  ASSERT_EQ(send(encode_create_table("t")).status, Status::ok);
  ASSERT_EQ(send(encode_add_rule_named("t", 1, "*", "tag")).status,
            Status::ok);

  ASSERT_EQ(send(encode_begin_txn()).status, Status::ok);
  ASSERT_EQ(send(encode_reset_state()).status, Status::ok);
  // No command aborts: the agent drops a stale transaction itself.
  enclave_.abort_txn();

  // The staged wipe never published.
  netsim::Packet p;
  enclave_.process(p);
  EXPECT_EQ(p.priority, 3);
}

TEST_F(WireTest, RemoveRuleNamedOverTheWire) {
  const auto program =
      controller_.compile("tag", "fun(p, m, g) -> p.priority <- 3", {});
  ASSERT_EQ(send(encode_install_action("tag", program, {})).status, Status::ok);
  ASSERT_EQ(send(encode_create_table("t")).status, Status::ok);
  ASSERT_EQ(send(encode_add_rule_named("t", 1, "*", "tag")).status,
            Status::ok);

  EXPECT_EQ(send(encode_remove_rule_named("t", 1)).status, Status::ok);
  EXPECT_EQ(send(encode_remove_rule_named("nope", 1)).status,
            Status::unknown_table);

  netsim::Packet p;
  enclave_.process(p);
  EXPECT_EQ(p.priority, 0);
}

// A rule is named by the id its controller chose, one per table: an id
// already live in the table answers rejected and changes nothing, the
// same id in another table is a different rule, and a remove by that id
// removes only its own table's rule.
TEST_F(WireTest, RuleIdLiveInItsTableIsRejected) {
  const auto program =
      controller_.compile("tag", "fun(p, m, g) -> p.priority <- 3", {});
  ASSERT_EQ(send(encode_install_action("tag", program, {})).status, Status::ok);
  const auto t = static_cast<TableId>(send(encode_create_table("t")).value);
  const auto u = static_cast<TableId>(send(encode_create_table("u")).value);
  ASSERT_EQ(send(encode_add_rule_named("t", 5, "*", "tag")).status,
            Status::ok);

  const std::uint64_t version = enclave_.ruleset_version();
  const std::size_t classes = registry_.size();
  const Response dup = send(encode_add_rule_named("t", 5, "a.b.c", "tag"));
  EXPECT_EQ(dup.status, Status::rejected);
  EXPECT_FALSE(dup.error.empty());
  EXPECT_EQ(enclave_.rule_count(t), 1u);
  EXPECT_EQ(enclave_.ruleset_version(), version);
  EXPECT_EQ(registry_.size(), classes);

  ASSERT_EQ(send(encode_add_rule_named("u", 5, "*", "tag")).status,
            Status::ok);
  EXPECT_EQ(enclave_.rule_count(u), 1u);
  EXPECT_EQ(send(encode_remove_rule_named("t", 5)).status, Status::ok);
  EXPECT_EQ(enclave_.rule_count(t), 0u);
  EXPECT_EQ(enclave_.rule_count(u), 1u);

  // An in-process add takes a fresh id, never one a session has named.
  ASSERT_EQ(send(encode_add_rule_named("u", 1, "*", "tag")).status,
            Status::ok);
  const MatchRuleId local =
      enclave_.add_rule(u, ClassPattern("*"), *enclave_.find_action("tag"));
  EXPECT_GT(local, 5u);
  EXPECT_EQ(enclave_.rule_count(u), 3u);
}

// A batch answers each element exactly as that command would be
// answered in a frame of its own, and leaves the same state behind.
TEST_F(WireTest, BatchAnswersLikeCommandsOneByOne) {
  lang::FieldDef level;
  level.name = "level";
  lang::FieldDef weights;
  weights.name = "weights";
  weights.kind = lang::FieldKind::array;
  const auto program = controller_.compile(
      "tag", "fun(p, m, g) -> p.priority <- g.level", {{level, weights}});
  const std::int64_t data[] = {1, 2, 3};

  const std::vector<std::vector<std::uint8_t>> commands = {
      encode_install_action("tag", program, {{level, weights}}),
      encode_create_table("t"),
      encode_add_rule_named("t", 1, "a.b.c", "tag"),
      encode_add_rule_named("t", 2, "*", "tag"),
      encode_remove_rule_named("t", 1),
      encode_set_global_scalar("tag", "level", 9),
      encode_set_global_array("tag", "weights", data),
      encode_begin_txn(),
      encode_add_rule_named("t", 3, "x.y.*", "missing"),
      encode_set_global_scalar("tag", "level", 11),
      encode_commit_txn(),
      encode_remove_rule_named("t", 99),
  };

  ClassRegistry registry_b;
  Enclave enclave_b{"b", registry_b};
  telemetry::DeltaEncoder encoder_b;
  std::vector<BatchElement> elements;
  std::vector<Response> one_by_one;
  for (std::size_t i = 0; i < commands.size(); ++i) {
    elements.push_back({commands[i], static_cast<std::int64_t>(i)});
    one_by_one.push_back(roundtrip(enclave_b, commands[i], encoder_b));
  }

  const Response answer = send(encode_batch(elements));
  ASSERT_EQ(answer.status, Status::ok);
  EXPECT_EQ(answer.value, commands.size());
  const auto batched = batch_responses(answer);
  ASSERT_TRUE(batched.has_value());
  ASSERT_EQ(batched->size(), commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    EXPECT_EQ((*batched)[i].status, one_by_one[i].status) << "command " << i;
    EXPECT_EQ((*batched)[i].value, one_by_one[i].value) << "command " << i;
    EXPECT_EQ((*batched)[i].error, one_by_one[i].error) << "command " << i;
    EXPECT_EQ((*batched)[i].payload, one_by_one[i].payload) << "command " << i;
  }
  // The list holds one failure, which failed alone.
  EXPECT_EQ((*batched)[8].status, Status::unknown_action);
  EXPECT_EQ((*batched)[10].status, Status::ok);

  EXPECT_EQ(enclave_.ruleset_version(), enclave_b.ruleset_version());
  const auto table = enclave_.find_table_id("t");
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(enclave_.rule_count(*table),
            enclave_b.rule_count(*enclave_b.find_table_id("t")));
  EXPECT_EQ(enclave_.rule_count(*table), 1u);
  EXPECT_EQ(enclave_.read_global_scalar(*enclave_.find_action("tag"), "level"),
            enclave_b.read_global_scalar(*enclave_b.find_action("tag"),
                                         "level"));
  EXPECT_EQ(enclave_.read_global_scalar(*enclave_.find_action("tag"), "level"),
            11);
}

// A batch is decoded whole before any element runs: a count the frame
// cannot hold or a truncated element answers bad_request, and so does a
// batch nested in a batch, each leaving the enclave untouched.
TEST_F(WireTest, MalformedAndNestedBatchesAnswerBadRequest) {
  const std::uint64_t version = enclave_.ruleset_version();
  const auto create_t = encode_create_table("t");
  const auto create_u = encode_create_table("u");
  const BatchElement pair[] = {{create_t, 0}, {create_u, 0}};
  const auto good = encode_batch(pair);

  // Layout: magic(4) cmd(1) count(4).
  auto oversized = good;
  oversized[5] = 0xff;
  oversized[6] = 0xff;
  oversized[7] = 0xff;
  oversized[8] = 0x7f;
  EXPECT_EQ(send(oversized).status, Status::bad_request);

  const std::span<const std::uint8_t> truncated(good.data(), good.size() - 1);
  EXPECT_EQ(send(truncated).status, Status::bad_request);

  const BatchElement inner[] = {{create_u, 0}};
  const auto nested_frame = encode_batch(inner);
  const BatchElement outer[] = {{nested_frame, 0}};
  const Response nested = send(encode_batch(outer));
  ASSERT_EQ(nested.status, Status::ok);
  const auto responses = batch_responses(nested);
  ASSERT_TRUE(responses.has_value());
  ASSERT_EQ(responses->size(), 1u);
  EXPECT_EQ((*responses)[0].status, Status::bad_request);

  EXPECT_FALSE(enclave_.find_table_id("t").has_value());
  EXPECT_FALSE(enclave_.find_table_id("u").has_value());
  EXPECT_EQ(enclave_.ruleset_version(), version);

  // The same elements, well framed, apply in order.
  ASSERT_EQ(send(good).status, Status::ok);
  EXPECT_TRUE(enclave_.find_table_id("t").has_value());
  EXPECT_TRUE(enclave_.find_table_id("u").has_value());
}

// Hardening check: a frame for *every* command value survives
// truncation to any prefix and a flip of any single byte without
// throwing or reading past the buffer — errors come back as statuses.
TEST_F(WireTest, EveryCommandSurvivesTruncationAndByteFlips) {
  const auto program = controller_.compile("f", "fun(p, m, g) -> 1", {});
  lang::FieldDef g;
  g.name = "g";
  const std::int64_t arr[] = {1, 2, 3};
  FlowClassifierRule flow;
  flow.dst_port = 80;
  const auto create = encode_create_table("t");
  const auto add = encode_add_rule_named("t", 1, "*", "f");
  const auto scalar = encode_set_global_scalar("f", "g", 7);
  const BatchElement batch[] = {{create, 3}, {add, 4}, {scalar, 0}};

  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_install_action("f", program, {{g}}),
      encode_remove_action("f"),
      encode_create_table("t"),
      encode_set_global_scalar("f", "g", 7),
      encode_set_global_array("f", "g", arr),
      encode_add_flow_rule(flow, "c.x"),
      encode_clear_flow_rules(),
      encode_get_spans(),
      encode_begin_txn(),
      encode_commit_txn(),
      encode_reset_state(),
      encode_remove_rule_named("t", 1),
      encode_get_telemetry_delta(1, 2),
      encode_batch(batch),
      encode_add_rule_named("t", 1, "*", "f"),
  };

  for (std::size_t fi = 0; fi < frames.size(); ++fi) {
    const auto& frame = frames[fi];
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::span<const std::uint8_t> prefix(frame.data(), len);
      EXPECT_NO_THROW({
        const Response r = wire::apply(enclave_, prefix, encoder_);
        EXPECT_NE(r.status, Status::ok)
            << "frame " << fi << " prefix " << len;
      });
    }
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      auto mutated = frame;
      mutated[pos] ^= 0xff;
      // A flipped byte may still decode to a valid command; the only
      // requirement is no throw and no out-of-bounds read.
      EXPECT_NO_THROW(wire::apply(enclave_, mutated, encoder_))
          << "frame " << fi << " flip " << pos;
    }
  }
}

// Retired command numbers keep answering bad_request. Each frame below
// carries the body its command's encoder used to write, so only the
// opcode makes it unknown: it must leave the enclave untouched, and
// peek_command must not name it.
TEST_F(WireTest, RetiredCommandsAnswerBadRequest) {
  const auto program =
      controller_.compile("tag", "fun(p, m, g) -> p.priority <- 3", {});
  ASSERT_EQ(send(encode_install_action("tag", program, {})).status, Status::ok);
  const Response t = send(encode_create_table("t"));
  ASSERT_EQ(t.status, Status::ok);
  const auto table = static_cast<TableId>(t.value);
  ASSERT_EQ(send(encode_add_rule_named("t", 1, "*", "tag")).status,
            Status::ok);

  using Body = std::function<void(util::ByteWriter&)>;
  const std::vector<std::pair<std::uint8_t, Body>> retired = {
      {4, [&](util::ByteWriter& w) { w.u32(table); }},  // delete a table
      {5,
       [&](util::ByteWriter& w) {  // add a rule by table id
         w.u32(table);
         w.str("*");
         w.str("tag");
       }},
      {6,
       [&](util::ByteWriter& w) {  // remove a rule by table id
         w.u32(table);
         w.u64(1);
       }},
      {11,
       [](util::ByteWriter& w) {  // read a global scalar
         w.str("tag");
         w.str("x");
       }},
      {12, [](util::ByteWriter&) {}},  // full telemetry snapshot
      {13, [](util::ByteWriter&) {}},  // stage info
      {14,
       [](util::ByteWriter& w) {  // create a stage rule
         w.str("rs");
         w.u32(1);
         w.u8(0);
         w.str("GET");
         w.str("GET");
         w.u32(3);
       }},
      {15,
       [](util::ByteWriter& w) {  // remove a stage rule
         w.str("rs");
         w.u64(1);
       }},
      {21,
       [](util::ByteWriter& w) {  // add a rule under an enclave-chosen id
         w.str("t");
         w.str("*");
         w.str("tag");
       }},
      {19, [](util::ByteWriter&) {}},  // abort the open transaction
      {23, [](util::ByteWriter&) {}},  // rule-set version
  };

  // A transaction is open throughout, so a retired abort that still
  // worked would show.
  ASSERT_EQ(send(encode_begin_txn()).status, Status::ok);
  const std::uint64_t version = enclave_.ruleset_version();
  const std::size_t classes = registry_.size();
  for (const auto& [op, body] : retired) {
    // Magic and opcode come from a live frame with an empty body.
    std::vector<std::uint8_t> frame = encode_clear_flow_rules();
    frame[4] = op;
    util::ByteWriter w;
    body(w);
    const std::vector<std::uint8_t> tail = w.take();
    frame.insert(frame.end(), tail.begin(), tail.end());

    EXPECT_EQ(send(frame).status, Status::bad_request) << "opcode " << int{op};
    EXPECT_FALSE(peek_command(frame).has_value()) << "opcode " << int{op};
    EXPECT_EQ(enclave_.ruleset_version(), version) << "opcode " << int{op};
    EXPECT_EQ(enclave_.find_table_id("t"), table) << "opcode " << int{op};
    EXPECT_EQ(enclave_.rule_count(table), 1u) << "opcode " << int{op};
    EXPECT_EQ(registry_.size(), classes) << "opcode " << int{op};
    EXPECT_TRUE(enclave_.txn_open()) << "opcode " << int{op};
  }
}

// Length fields are adversarial inputs: a count implying more elements
// than the frame has bytes must be rejected before any allocation.
TEST_F(WireTest, OversizedCountsRejectedWithoutAllocation) {
  // set_global_array with a huge element count.
  {
    auto frame = encode_set_global_array("f", "g", {});
    // Layout: magic(4) cmd(1) name"f"(4+1) field"g"(4+1) count(4).
    frame[15] = 0xff;
    frame[16] = 0xff;
    frame[17] = 0xff;
    frame[18] = 0x7f;
    const Response r = wire::apply(enclave_, frame, encoder_);
    EXPECT_EQ(r.status, Status::bad_request);
  }
  // install_action with a huge global-field count.
  {
    const auto program = controller_.compile("f", "fun(p, m, g) -> 1", {});
    auto frame = encode_install_action("f", program, {});
    // Field count is the last u32 of the frame when no fields follow.
    frame[frame.size() - 1] = 0x7f;
    frame[frame.size() - 2] = 0xff;
    frame[frame.size() - 3] = 0xff;
    frame[frame.size() - 4] = 0xff;
    const Response r = wire::apply(enclave_, frame, encoder_);
    EXPECT_EQ(r.status, Status::bad_request);
  }
}

// --- Streaming delta telemetry (get_telemetry_delta) -------------------

class WireDeltaTest : public ::testing::Test {
 protected:
  void install_and_drive(std::uint64_t packets) {
    const auto program =
        controller_.compile("mark", "fun(p, m, g) -> p.path <- 1", {});
    ASSERT_EQ(send(encode_install_action("mark", program, {})).status,
              Status::ok);
    ASSERT_EQ(send(encode_create_table("main")).status, Status::ok);
    ASSERT_EQ(send(encode_add_rule_named("main", 1, "*", "mark")).status,
              Status::ok);
    drive(packets);
  }

  void drive(std::uint64_t packets) {
    for (std::uint64_t i = 0; i < packets; ++i) {
      netsim::Packet p;
      p.size_bytes = 100;
      enclave_.process(p);
    }
  }

  Response send(std::span<const std::uint8_t> frame) {
    return roundtrip(enclave_, frame, encoder_);
  }

  telemetry::DeltaPayload fetch(std::uint64_t epoch, std::uint64_t seq) {
    const Response r = send(encode_get_telemetry_delta(epoch, seq));
    return telemetry::parse_delta_payload(payload_text(r));
  }

  ClassRegistry registry_;
  Enclave enclave_{"remote", registry_};
  Controller controller_{registry_};
  telemetry::DeltaEncoder encoder_;
};

TEST_F(WireDeltaTest, SteadyStatePollsShipOnlyChanges) {
  install_and_drive(10);

  // First poll: the encoder has never seen this controller, so the
  // reply is a full snapshot under a fresh epoch.
  const telemetry::DeltaPayload full = fetch(0, 0);
  EXPECT_TRUE(full.full);
  EXPECT_GT(full.epoch, 0u);
  EXPECT_EQ(full.seq, 1u);
  ASSERT_EQ(full.enclaves.size(), 1u);
  EXPECT_EQ(full.enclaves[0].packets, 10u);

  // Echoing (epoch, seq) gets a delta carrying only the new traffic.
  drive(7);
  const telemetry::DeltaPayload d = fetch(full.epoch, full.seq);
  EXPECT_FALSE(d.full);
  EXPECT_EQ(d.epoch, full.epoch);
  EXPECT_EQ(d.seq, full.seq + 1);
  ASSERT_EQ(d.enclaves.size(), 1u);
  EXPECT_EQ(d.enclaves[0].packets, 7u);

  // Quiet interval: the delta is header-only.
  const telemetry::DeltaPayload quiet = fetch(d.epoch, d.seq);
  EXPECT_FALSE(quiet.full);
  EXPECT_TRUE(quiet.enclaves.empty());

  // A DeltaDecoder folding the stream reconstructs the live counters.
  telemetry::DeltaDecoder dec;
  EXPECT_TRUE(dec.apply(full));
  EXPECT_TRUE(dec.apply(d));
  EXPECT_TRUE(dec.apply(quiet));
  ASSERT_EQ(dec.snapshots().size(), 1u);
  EXPECT_EQ(dec.snapshots()[0].packets, 17u);
  EXPECT_EQ(dec.snapshots()[0].packets, enclave_.telemetry_snapshot().packets);
}

TEST_F(WireDeltaTest, StaleEchoForcesFullResync) {
  install_and_drive(5);
  const telemetry::DeltaPayload full = fetch(0, 0);
  ASSERT_TRUE(full.full);

  // The controller echoes a seq the agent never issued (its response
  // was dropped): the encoder cannot prove continuity, so it resyncs
  // under a brand-new epoch.
  const telemetry::DeltaPayload resync = fetch(full.epoch, full.seq + 5);
  EXPECT_TRUE(resync.full);
  EXPECT_NE(resync.epoch, full.epoch);
  EXPECT_EQ(resync.seq, 1u);
  ASSERT_EQ(resync.enclaves.size(), 1u);
  EXPECT_EQ(resync.enclaves[0].packets, 5u);
}

TEST_F(WireDeltaTest, CounterRegressionForcesFullResync) {
  install_and_drive(5);
  const telemetry::DeltaPayload full = fetch(0, 0);
  ASSERT_TRUE(full.full);

  // clear_all wipes action/class counters; a blind diff would go
  // negative, so the encoder detects the regression and falls back to a
  // full snapshot under a new epoch.
  enclave_.clear_all();
  install_and_drive(3);
  const telemetry::DeltaPayload after = fetch(full.epoch, full.seq);
  EXPECT_TRUE(after.full);
  EXPECT_NE(after.epoch, full.epoch);
}

TEST_F(WireDeltaTest, HostSeriesRideTheDeltaStream) {
  double depth = 48;
  encoder_.set_host_series([&]() {
    return std::vector<std::pair<std::string, double>>{
        {"dataplane_ring_depth", depth}};
  });
  install_and_drive(2);

  const telemetry::DeltaPayload full = fetch(0, 0);
  ASSERT_EQ(full.enclaves.size(), 1u);
  ASSERT_EQ(full.enclaves[0].host_series.size(), 1u);
  EXPECT_EQ(full.enclaves[0].host_series[0].second, 48.0);

  // Unchanged gauge: omitted from the delta. Changed: shipped absolute.
  const telemetry::DeltaPayload quiet = fetch(full.epoch, full.seq);
  EXPECT_TRUE(quiet.enclaves.empty());
  depth = 12;
  const telemetry::DeltaPayload moved = fetch(quiet.epoch, quiet.seq);
  ASSERT_EQ(moved.enclaves.size(), 1u);
  ASSERT_EQ(moved.enclaves[0].host_series.size(), 1u);
  EXPECT_EQ(moved.enclaves[0].host_series[0].second, 12.0);
}

}  // namespace
}  // namespace eden::core::wire
