// The control-plane session layer: frame codec robustness, pipe and
// fault-injection transports, and the full session protocol — connect,
// greet, resync, heartbeats, liveness and request timeouts, backoff,
// journal replay onto restarted enclaves, and transactional commits.
#include "controlplane/session.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "controlplane/fault.h"
#include "core/controller.h"
#include "telemetry/delta.h"
#include "telemetry/json.h"
#include "telemetry/span.h"

namespace eden::controlplane {
namespace {

// --- Frame codec --------------------------------------------------------

TEST(FrameCodec, RoundTripsWholeAndByteByByte) {
  const Frame frame{FrameType::request, 42, {1, 2, 3, 4, 5}};
  const auto bytes = encode_frame(frame);

  FrameDecoder whole;
  std::vector<Frame> out;
  EXPECT_TRUE(whole.feed(bytes, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, FrameType::request);
  EXPECT_EQ(out[0].id, 42u);
  EXPECT_EQ(out[0].payload, frame.payload);

  // One byte at a time exercises reassembly across feed() calls.
  FrameDecoder dribble;
  out.clear();
  for (const std::uint8_t byte : bytes) {
    EXPECT_TRUE(dribble.feed({&byte, 1}, out));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, frame.payload);
  EXPECT_FALSE(dribble.corrupt());
}

TEST(FrameCodec, CoalescedFramesDecodeInOrder) {
  auto bytes = encode_frame({FrameType::heartbeat, 1, {}});
  const auto second = encode_frame({FrameType::response, 2, {9, 9}});
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<Frame> out;
  EXPECT_TRUE(decoder.feed(bytes, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, FrameType::heartbeat);
  EXPECT_EQ(out[1].type, FrameType::response);
  EXPECT_EQ(out[1].payload.size(), 2u);
}

TEST(FrameCodec, HeaderCorruptionIsUnrecoverable) {
  const auto good = encode_frame({FrameType::request, 7, {1, 2, 3}});

  struct Case {
    std::size_t offset;
    std::uint8_t value;
  };
  // Magic, version, type and an absurd length each poison the stream.
  const Case cases[] = {{4, 0x00}, {8, 0x7f}, {9, 0xee}, {3, 0xff}};
  for (const Case& c : cases) {
    auto bad = good;
    bad[c.offset] = c.value;
    FrameDecoder decoder;
    std::vector<Frame> out;
    EXPECT_FALSE(decoder.feed(bad, out)) << "offset " << c.offset;
    EXPECT_TRUE(decoder.corrupt());
    EXPECT_FALSE(decoder.error().empty());
    EXPECT_TRUE(out.empty());
    // A corrupt decoder stays corrupt until reset.
    EXPECT_FALSE(decoder.feed(good, out));
    decoder.reset();
    EXPECT_TRUE(decoder.feed(good, out));
    ASSERT_EQ(out.size(), 1u);
  }
}

TEST(FrameCodec, FramesAheadOfCorruptionStillEmit) {
  auto bytes = encode_frame({FrameType::heartbeat_ack, 3, {}});
  const std::vector<std::uint8_t> junk(20, 0xff);
  bytes.insert(bytes.end(), junk.begin(), junk.end());

  FrameDecoder decoder;
  std::vector<Frame> out;
  EXPECT_FALSE(decoder.feed(bytes, out));
  ASSERT_EQ(out.size(), 1u);  // the good frame survived
  EXPECT_EQ(out[0].type, FrameType::heartbeat_ack);
  EXPECT_TRUE(decoder.corrupt());
}

TEST(FrameCodec, GreetingRoundTripAndTruncation) {
  const AgentGreeting greeting{77, 12};
  const auto payload = encode_greeting(greeting);
  const auto decoded = decode_greeting(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->boot_id, 77u);
  EXPECT_EQ(decoded->ruleset_version, 12u);

  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::span<const std::uint8_t> prefix(payload.data(), len);
    EXPECT_FALSE(decode_greeting(prefix).has_value()) << "prefix " << len;
  }
}

// --- Pipe transport -----------------------------------------------------

TEST(PipeTransport, ChunkedDeliveryPreservesOrder) {
  PipePump pump;
  auto [a, b] = make_pipe(pump, 3);
  std::vector<std::uint8_t> received;
  b->set_on_bytes([&](std::span<const std::uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });

  const std::vector<std::uint8_t> first{1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint8_t> second{8, 9};
  EXPECT_TRUE(a->send(first));
  EXPECT_TRUE(a->send(second));
  pump.run();

  std::vector<std::uint8_t> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(received, expected);
}

TEST(PipeTransport, CloseDisconnectsPeerAfterInflightBytes) {
  PipePump pump;
  auto [a, b] = make_pipe(pump);
  std::vector<std::string> events;
  b->set_on_bytes([&](std::span<const std::uint8_t>) {
    events.push_back("bytes");
  });
  b->set_on_disconnect([&]() { events.push_back("disconnect"); });

  const std::vector<std::uint8_t> data{1, 2, 3};
  a->send(data);
  a->close();
  EXPECT_FALSE(a->connected());
  EXPECT_FALSE(a->send(data));  // bytes after close are discarded
  pump.run();

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "bytes");  // in-flight bytes drain first
  EXPECT_EQ(events[1], "disconnect");
  EXPECT_FALSE(b->connected());
}

// --- Fault injection ----------------------------------------------------

namespace faulty {
struct RunResult {
  FaultyTransport::Stats stats;
  std::vector<std::uint8_t> received;
};

RunResult run_once(const FaultProfile& profile) {
  PipePump pump;
  auto [near, far] = make_pipe(pump);
  RunResult result;
  far->set_on_bytes([&](std::span<const std::uint8_t> data) {
    result.received.insert(result.received.end(), data.begin(), data.end());
  });
  FaultyTransport faulty(std::move(near), pump, profile);
  for (std::uint8_t i = 0; i < 50 && faulty.connected(); ++i) {
    const std::vector<std::uint8_t> chunk(10, i);
    faulty.send(chunk);
    pump.run();
  }
  pump.run();
  result.stats = faulty.stats();
  return result;
}
}  // namespace faulty

TEST(FaultyTransportTest, SameSeedSameFaultsSameBytes) {
  FaultProfile profile;
  profile.drop_prob = 0.3;
  profile.delay_prob = 0.3;
  profile.duplicate_prob = 0.2;
  profile.truncate_prob = 0.2;
  profile.seed = 99;

  const auto first = faulty::run_once(profile);
  const auto second = faulty::run_once(profile);
  EXPECT_EQ(first.received, second.received);
  EXPECT_EQ(first.stats.dropped, second.stats.dropped);
  EXPECT_EQ(first.stats.truncated, second.stats.truncated);
  EXPECT_EQ(first.stats.duplicated, second.stats.duplicated);
  EXPECT_EQ(first.stats.delayed, second.stats.delayed);
  // The profile is aggressive enough that every fault class fired.
  EXPECT_GT(first.stats.dropped, 0u);
  EXPECT_GT(first.stats.truncated, 0u);
  EXPECT_GT(first.stats.duplicated, 0u);
  EXPECT_GT(first.stats.delayed, 0u);

  profile.seed = 100;
  const auto other = faulty::run_once(profile);
  EXPECT_NE(first.received, other.received);
}

// --- Agent request shape -------------------------------------------------

// Every request a session sends is a batch frame. The agent answers any
// other request bad_request without applying it, traced or not, and
// keeps serving the connection.
TEST(EnclaveAgentTest, LoneCommandRequestAnswersBadRequest) {
  using core::wire::Status;
  core::ClassRegistry registry;
  core::Enclave enclave("agent", registry);
  EnclaveAgent agent(enclave);
  PipePump pump;
  auto [near, far] = make_pipe(pump);
  agent.attach(std::move(far));
  FrameDecoder decoder;
  std::vector<Frame> answers;
  near->set_on_bytes([&](std::span<const std::uint8_t> data) {
    EXPECT_TRUE(decoder.feed(data, answers));
  });
  const auto answer = [&](Frame request) {
    answers.clear();
    near->send(encode_frame(request));
    pump.run();
    EXPECT_EQ(answers.size(), 1u);
    return answers.empty() ? core::wire::Response{}
                           : core::wire::decode_response(answers[0].payload);
  };

  const core::wire::Response lone = answer(
      {FrameType::request, 1, core::wire::encode_create_table("lone")});
  EXPECT_EQ(lone.status, Status::bad_request);
  const core::wire::Response traced = answer(
      {FrameType::request, 2, core::wire::encode_create_table("traced"), 9});
  EXPECT_EQ(traced.status, Status::bad_request);
  EXPECT_FALSE(enclave.find_table_id("lone").has_value());
  EXPECT_FALSE(enclave.find_table_id("traced").has_value());

  const std::vector<std::uint8_t> create =
      core::wire::encode_create_table("batched");
  const core::wire::BatchElement element{create};
  const core::wire::Response batched = answer(
      {FrameType::request, 3, core::wire::encode_batch({&element, 1})});
  EXPECT_EQ(batched.status, Status::ok);
  const auto elements = core::wire::batch_responses(batched);
  ASSERT_TRUE(elements.has_value());
  ASSERT_EQ(elements->size(), 1u);
  EXPECT_EQ((*elements)[0].status, Status::ok);
  EXPECT_TRUE(enclave.find_table_id("batched").has_value());
  EXPECT_EQ(agent.stats().requests, 3u);
  EXPECT_EQ(agent.stats().corrupt_streams, 0u);
}

// --- Session protocol ---------------------------------------------------

// Forwards everything, but can swallow request frames (never heartbeats)
// so a test can starve the oldest in-flight request while the link looks
// alive — exactly the shape of a request timeout — or hello frames, the
// shape of a greeting lost on a lossy link.
class GateTransport : public Transport {
 public:
  GateTransport(std::unique_ptr<Transport> inner, const bool* mute_requests,
                const bool* mute_hellos)
      : inner_(std::move(inner)), mute_(mute_requests),
        mute_hellos_(mute_hellos) {
    inner_->set_on_bytes([this](std::span<const std::uint8_t> data) {
      if (on_bytes_) on_bytes_(data);
    });
    inner_->set_on_disconnect([this]() {
      if (on_disconnect_) on_disconnect_();
    });
  }

  bool send(std::span<const std::uint8_t> data) override {
    // Sends are whole frames; the type byte sits after len+magic+version.
    const std::uint8_t type = data.size() > 9 ? data[9] : 0;
    if (*mute_ && type == static_cast<std::uint8_t>(FrameType::request)) {
      return true;
    }
    if (*mute_hellos_ && type == static_cast<std::uint8_t>(FrameType::hello)) {
      return true;
    }
    return inner_->send(data);
  }
  void close() override { inner_->close(); }
  bool connected() const override { return inner_->connected(); }

 private:
  std::unique_ptr<Transport> inner_;
  const bool* mute_;
  const bool* mute_hellos_;
};

class SessionTest : public ::testing::Test {
 protected:
  static SessionConfig fast_config() {
    SessionConfig config;
    config.heartbeat_interval_ns = 5'000'000;    // 5 ms
    config.liveness_timeout_ns = 20'000'000;     // 20 ms
    config.request_timeout_ns = 12'000'000;      // 12 ms
    config.backoff_initial_ns = 1'000'000;       // 1 ms
    config.backoff_max_ns = 50'000'000;          // 50 ms
    config.seed = 3;
    return config;
  }

  void make_session(SessionConfig config = fast_config()) {
    session_ = std::make_unique<EnclaveSession>(
        "remote", [this]() { return dial(); }, [this]() { return now_ns_; },
        config);
  }

  std::unique_ptr<Transport> dial() {
    if (!dial_ok_) {
      dial_failures_ns_.push_back(now_ns_);
      return nullptr;
    }
    auto [near, far] = make_pipe(pump_, chunk_bytes_);
    if (blackhole_) {
      blackhole_far_ = std::move(far);  // nobody answers on this end
    } else {
      agent_->attach(std::move(far));
    }
    return std::make_unique<GateTransport>(std::move(near), &mute_requests_,
                                           &mute_hellos_);
  }

  void step_ms(std::uint64_t ms = 1) {
    now_ns_ += ms * 1'000'000;
    session_->tick();
    pump_.run();
  }

  bool settle(int max_steps = 2000) {
    for (int i = 0; i < max_steps; ++i) {
      step_ms();
      if (session_->ready() && session_->inflight() == 0 &&
          pump_.pending() == 0) {
        return true;
      }
    }
    return false;
  }

  lang::CompiledProgram priority_program(const std::string& name, int value) {
    return controller_.compile(
        name, "fun(p, m, g) -> p.priority <- " + std::to_string(value), {});
  }

  int processed_priority() {
    netsim::Packet packet;
    packet.size_bytes = 100;
    enclave_.process(packet);
    return packet.priority;
  }

  core::ClassRegistry registry_;
  core::Controller controller_{registry_};
  core::Enclave enclave_{"remote", registry_};
  PipePump pump_;
  std::unique_ptr<EnclaveAgent> agent_ =
      std::make_unique<EnclaveAgent>(enclave_);
  std::uint64_t now_ns_ = 0;
  // Pipe chunking: each send is delivered in pieces this size.
  std::size_t chunk_bytes_ = 16;
  bool dial_ok_ = true;
  bool blackhole_ = false;
  bool mute_requests_ = false;
  bool mute_hellos_ = false;
  std::unique_ptr<Transport> blackhole_far_;
  std::vector<std::uint64_t> dial_failures_ns_;
  std::unique_ptr<EnclaveSession> session_;
};

TEST_F(SessionTest, ConnectsGreetsAndResyncsEmptyJournal) {
  make_session();
  ASSERT_TRUE(settle());
  EXPECT_TRUE(session_->connected());
  EXPECT_TRUE(session_->ready());
  EXPECT_EQ(session_->stats().connects, 1u);
  EXPECT_EQ(session_->stats().resyncs, 1u);
  // Even an empty journal replays as one committed transaction
  // (reset_state + commit), so a dirty enclave would be wiped.
  EXPECT_EQ(session_->stats().txns_committed, 1u);
  EXPECT_EQ(session_->agent_boot_id(), agent_->boot_id());
  EXPECT_GE(enclave_.ruleset_version(), 1u);
  EXPECT_EQ(session_->stats().last_resync_commands, 3u);
}

TEST_F(SessionTest, JournaledMutationsBeforeConnectReplayOnConnect) {
  make_session();
  // All issued while disconnected: journal-only, replayed by the resync.
  lang::FieldDef level;
  level.name = "level";
  level.access = lang::Access::read_write;
  session_->install_action(
      "leveler",
      controller_.compile("leveler", "fun(p, m, g) -> p.priority <- g.level",
                          {{level}}),
      {level});
  session_->add_rule("t", "*", "leveler");
  session_->set_global_scalar("leveler", "level", 6);
  EXPECT_FALSE(session_->connected());

  ASSERT_TRUE(settle());
  EXPECT_EQ(processed_priority(), 6);
  // install + scalar + create_table + rule, plus the txn envelope.
  EXPECT_EQ(session_->stats().last_resync_commands, 7u);
}

TEST_F(SessionTest, LiveMutationsApplyWhenReady) {
  make_session();
  ASSERT_TRUE(settle());
  const auto sent_before = session_->stats().requests_sent;

  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());

  EXPECT_EQ(processed_priority(), 7);
  EXPECT_GT(session_->stats().requests_sent, sent_before);
  EXPECT_EQ(session_->stats().responses_error, 0u);
}

TEST_F(SessionTest, HeartbeatsKeepSessionAliveAndMeasureRtt) {
  make_session();
  ASSERT_TRUE(settle());
  for (int i = 0; i < 100; ++i) step_ms();
  EXPECT_GT(session_->stats().heartbeats_sent, 10u);
  EXPECT_GT(session_->stats().heartbeats_acked, 10u);
  EXPECT_EQ(session_->stats().liveness_timeouts, 0u);
  EXPECT_EQ(session_->stats().teardowns, 0u);
  EXPECT_GT(session_->rtt().count, 10u);
}

TEST_F(SessionTest, UnresponsivePeerTriggersLivenessTimeoutThenRecovery) {
  blackhole_ = true;
  make_session();
  for (int i = 0; i < 200 && session_->stats().liveness_timeouts == 0; ++i) {
    step_ms();
  }
  EXPECT_GE(session_->stats().liveness_timeouts, 1u);
  EXPECT_FALSE(session_->ready());

  blackhole_ = false;
  ASSERT_TRUE(settle());
  EXPECT_TRUE(session_->ready());
  EXPECT_GE(session_->stats().connects, 2u);
}

TEST_F(SessionTest, CorruptInboundStreamTearsDownAndRecovers) {
  blackhole_ = true;
  make_session();
  step_ms();  // dial + hello
  ASSERT_TRUE(session_->connected());
  ASSERT_TRUE(blackhole_far_ != nullptr);
  const std::vector<std::uint8_t> junk(32, 0xfe);
  blackhole_far_->send(junk);
  step_ms();
  EXPECT_GE(session_->stats().corrupt_streams, 1u);
  EXPECT_GE(session_->stats().teardowns, 1u);

  blackhole_ = false;
  ASSERT_TRUE(settle());
  EXPECT_TRUE(session_->ready());
}

TEST_F(SessionTest, StarvedRequestTimesOutAndResyncRepairs) {
  make_session();
  ASSERT_TRUE(settle());

  mute_requests_ = true;
  session_->install_action("p5", priority_program("p5", 5), {});
  session_->add_rule("t", "*", "p5");
  for (int i = 0; i < 200 && session_->stats().request_timeouts == 0; ++i) {
    step_ms();
  }
  // Heartbeats kept flowing (the link looked alive), so it was the
  // request timeout — not liveness — that caught the stall.
  EXPECT_GE(session_->stats().request_timeouts, 1u);
  EXPECT_EQ(session_->stats().liveness_timeouts, 0u);

  mute_requests_ = false;
  ASSERT_TRUE(settle());
  EXPECT_GE(session_->stats().resyncs, 2u);
  // The journal replay delivered the mutations the gate swallowed.
  EXPECT_EQ(processed_priority(), 5);
}

TEST_F(SessionTest, BackoffGrowsToCapWithJitter) {
  dial_ok_ = false;
  make_session();
  for (int i = 0; i < 600; ++i) step_ms();
  const auto& fails = dial_failures_ns_;
  ASSERT_GE(fails.size(), 8u);
  EXPECT_EQ(session_->stats().connect_failures, fails.size());

  const std::uint64_t cap_ns = 50'000'000;
  const std::uint64_t first_gap = fails[1] - fails[0];
  const std::uint64_t last_gap = fails.back() - fails[fails.size() - 2];
  // Early retries are near backoff_initial (1 ms, +-20% jitter, 1 ms
  // tick quantization); late ones sit at the cap.
  EXPECT_LE(first_gap, 3'000'000u);
  EXPECT_GE(last_gap, cap_ns * 8 / 10);
  for (std::size_t i = 1; i < fails.size(); ++i) {
    EXPECT_LE(fails[i] - fails[i - 1], cap_ns * 12 / 10 + 1'000'000)
        << "gap " << i;
  }

  dial_ok_ = true;
  ASSERT_TRUE(settle());
  EXPECT_TRUE(session_->ready());
}

TEST_F(SessionTest, HardAgentRestartDetectedAndStateReconverges) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());
  ASSERT_EQ(processed_priority(), 7);
  const std::uint64_t old_boot = session_->agent_boot_id();

  // The enclave host dies and comes back blank with a fresh agent.
  agent_->detach();
  enclave_.clear_all();
  agent_ = std::make_unique<EnclaveAgent>(enclave_);
  ASSERT_NE(agent_->boot_id(), old_boot);

  ASSERT_TRUE(settle());
  EXPECT_GE(session_->stats().agent_restarts_seen, 1u);
  EXPECT_EQ(session_->agent_boot_id(), agent_->boot_id());
  // The journal replay rebuilt the rule set from scratch.
  EXPECT_EQ(processed_priority(), 7);
}

TEST_F(SessionTest, TxnStagedMutationsInvisibleUntilCommit) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  const auto old_rule = session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());
  ASSERT_EQ(processed_priority(), 7);
  const std::uint64_t version_before = enclave_.ruleset_version();

  session_->begin_txn();
  EXPECT_TRUE(session_->txn_open());
  session_->install_action("p1", priority_program("p1", 1), {});
  session_->remove_rule("t", old_rule);
  session_->add_rule("t", "*", "p1");
  ASSERT_TRUE(settle());
  // Everything staged in the session: the enclave holds no open
  // transaction, and nothing is published.
  EXPECT_EQ(processed_priority(), 7);
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(enclave_.ruleset_version(), version_before);

  session_->commit_txn();
  ASSERT_TRUE(settle());
  EXPECT_FALSE(session_->txn_open());
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(processed_priority(), 1);
  EXPECT_GT(enclave_.ruleset_version(), version_before);
  EXPECT_GE(session_->stats().txns_committed, 2u);  // resync + ours
}

TEST_F(SessionTest, AbortTxnRollsBackJournalAndEnclave) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());
  const std::uint64_t journal_before = session_->journal_size();

  session_->begin_txn();
  session_->add_rule("t", "*", "p7");
  session_->add_rule("other", "*", "p7");
  EXPECT_GT(session_->journal_size(), journal_before);
  session_->abort_txn();
  EXPECT_EQ(session_->journal_size(), journal_before);
  EXPECT_EQ(session_->stats().txns_aborted, 1u);

  ASSERT_TRUE(settle());
  const auto table = enclave_.find_table_id("t");
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(enclave_.rule_count(*table), 1u);
  EXPECT_FALSE(enclave_.find_table_id("other").has_value());
  EXPECT_EQ(processed_priority(), 7);
}

TEST_F(SessionTest, DroppedHelloRetransmitsInsteadOfWedging) {
  mute_hellos_ = true;
  make_session();
  step_ms();  // dial succeeds; the first hello vanishes on the link
  ASSERT_TRUE(session_->connected());
  EXPECT_FALSE(session_->ready());
  for (int i = 0; i < 3; ++i) step_ms();
  EXPECT_FALSE(session_->ready());

  mute_hellos_ = false;
  ASSERT_TRUE(settle());
  EXPECT_TRUE(session_->ready());
  // The greeting recovered by hello retransmission on the same
  // connection — not by a liveness timeout forcing a reconnect.
  EXPECT_EQ(session_->stats().teardowns, 0u);
  EXPECT_EQ(session_->stats().connects, 1u);
}

TEST_F(SessionTest, TxnOpenAcrossReconnectCommitsAtomically) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  const auto old_rule = session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());
  ASSERT_EQ(processed_priority(), 7);

  session_->begin_txn();
  session_->install_action("p1", priority_program("p1", 1), {});
  session_->remove_rule("t", old_rule);
  session_->add_rule("t", "*", "p1");
  ASSERT_TRUE(settle());
  // The transaction waits in the session, not on the enclave.
  ASSERT_FALSE(enclave_.txn_open());

  // The link dies mid-transaction.
  agent_->detach();
  ASSERT_TRUE(settle());
  EXPECT_GE(session_->stats().resyncs, 2u);
  // The resync committed only the pre-transaction snapshot and
  // re-staged the transaction in the session: the staged mutations are
  // still invisible to the data path.
  EXPECT_TRUE(session_->txn_open());
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(processed_priority(), 7);

  session_->commit_txn();
  ASSERT_TRUE(settle());
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(processed_priority(), 1);
}

TEST_F(SessionTest, TxnOpenAcrossReconnectAbortRollsBack) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());

  session_->begin_txn();
  session_->install_action("p1", priority_program("p1", 1), {});
  session_->add_rule("other", "*", "p1");
  ASSERT_TRUE(settle());

  agent_->detach();
  ASSERT_TRUE(settle());
  ASSERT_TRUE(session_->txn_open());

  session_->abort_txn();
  ASSERT_TRUE(settle());
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(processed_priority(), 7);
  EXPECT_FALSE(enclave_.find_table_id("other").has_value());

  // Journal and enclave agree after the rollback: another forced
  // resync converges to the same state.
  agent_->detach();
  ASSERT_TRUE(settle());
  EXPECT_EQ(processed_priority(), 7);
  EXPECT_FALSE(enclave_.find_table_id("other").has_value());
}

TEST_F(SessionTest, UnjournaledGlobalWriteIsNotSent) {
  make_session();
  ASSERT_TRUE(settle());
  const auto sent_before = session_->stats().requests_sent;

  // No such action in the journal: sending the write would break the
  // journal-is-source-of-truth invariant (it would silently revert on
  // the next resync), so it must not reach the wire at all.
  session_->set_global_scalar("ghost", "level", 5);
  session_->set_global_array("ghost", "weights", {1, 2, 3});
  ASSERT_TRUE(settle());
  EXPECT_EQ(session_->stats().requests_sent, sent_before);
}

TEST_F(SessionTest, RemoveBeforeAddResponseIsDeferredNotLost) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  ASSERT_TRUE(settle());

  // The add request is in flight (no pump between the calls): the
  // remove follows it in request order.
  const auto handle = session_->add_rule("t2", "*", "p7");
  session_->remove_rule("t2", handle);
  ASSERT_TRUE(settle());

  const auto table = enclave_.find_table_id("t2");
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(enclave_.rule_count(*table), 0u);
}

// A rule removed inside a transaction while its add, sent before the
// transaction, is still unanswered: the remove leaves inside the
// commit's batch, behind the add, so the commit never publishes the
// rule.
TEST_F(SessionTest, RemoveInTxnOfUnansweredAddLandsWithTheCommit) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("egress", "memcached.egress.c0", "p7");
  ASSERT_TRUE(settle());
  const auto table = enclave_.find_table_id("egress");
  ASSERT_TRUE(table.has_value());
  ASSERT_EQ(enclave_.rule_count(*table), 1u);

  const std::uint64_t version = enclave_.ruleset_version();
  const auto handle =
      session_->add_rule("egress", "memcached.egress.c70", "p7");
  session_->begin_txn();
  session_->remove_rule("egress", handle);
  session_->commit_txn();
  // One delivery at a time: the add publishes one version and the
  // commit the next. Once the commit's version is live, the removed
  // rule is never live.
  bool committed = false;
  std::size_t step = 0;
  do {
    if (enclave_.ruleset_version() >= version + 2) committed = true;
    if (committed) {
      EXPECT_EQ(enclave_.rule_count(*table), 1u) << "after step " << step;
    }
    ++step;
  } while (pump_.step());
  EXPECT_TRUE(committed);
  ASSERT_TRUE(settle());
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(enclave_.rule_count(*table), 1u);
  EXPECT_EQ(session_->stats().responses_error, 0u);

  // Nothing queued behind the commit overtook it, and the session
  // still works: a second transaction removes the remaining rule.
  const auto remaining = session_->add_rule("egress", "*", "p7");
  ASSERT_TRUE(settle());
  ASSERT_EQ(enclave_.rule_count(*table), 2u);
  session_->begin_txn();
  session_->remove_rule("egress", remaining);
  session_->commit_txn();
  ASSERT_TRUE(settle());
  EXPECT_EQ(enclave_.rule_count(*table), 1u);
  EXPECT_EQ(session_->stats().responses_error, 0u);
}

// An add answered while a transaction is open is committed on the
// enclave, so aborting the transaction must keep the rule: a later
// remove of it still reaches the enclave.
TEST_F(SessionTest, AbortKeepsTheIdOfAnAddAnsweredDuringTheTxn) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("egress", "memcached.egress.c0", "p7");
  ASSERT_TRUE(settle());
  const auto table = enclave_.find_table_id("egress");
  ASSERT_TRUE(table.has_value());

  const auto handle =
      session_->add_rule("egress", "memcached.egress.c70", "p7");
  session_->begin_txn();  // snapshots the journal before the answer
  ASSERT_TRUE(settle());
  session_->abort_txn();
  ASSERT_TRUE(settle());
  ASSERT_EQ(enclave_.rule_count(*table), 2u);

  session_->remove_rule("egress", handle);
  ASSERT_TRUE(settle());
  EXPECT_EQ(enclave_.rule_count(*table), 1u);
  EXPECT_EQ(session_->stats().responses_error, 0u);
}

// A rule whose add failed (its action is not installed) stays in the
// journal, so its remove is sent too. The enclave answers it
// unknown_table: one more error response, and nothing torn down.
TEST_F(SessionTest, RemoveOfARuleWhoseAddFailedIsAnswered) {
  make_session();
  ASSERT_TRUE(settle());
  const auto handle = session_->add_rule("t", "*", "ghost");
  ASSERT_TRUE(settle());
  const SessionStats before = session_->stats();
  ASSERT_EQ(before.responses_error, 1u);  // the add: unknown_action

  session_->remove_rule("t", handle);
  ASSERT_TRUE(settle());
  EXPECT_TRUE(session_->ready());
  EXPECT_EQ(session_->stats().requests_sent, before.requests_sent + 1);
  EXPECT_EQ(session_->stats().responses_ok, before.responses_ok);
  EXPECT_EQ(session_->stats().responses_error, before.responses_error + 1);
  EXPECT_EQ(session_->stats().teardowns, 0u);
  EXPECT_EQ(session_->stats().resyncs, 1u);
  const auto table = enclave_.find_table_id("t");
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(enclave_.rule_count(*table), 0u);
}

// A command no frame can carry is refused before it is journaled or
// sent: the session stays up, and the journal keeps the value it had.
TEST_F(SessionTest, CommandLargerThanAFrameIsRefused) {
  chunk_bytes_ = 0;  // whole frames
  make_session();
  lang::FieldDef w;
  w.name = "w";
  w.kind = lang::FieldKind::array;
  const std::vector<lang::FieldDef> globals = {w};
  ASSERT_TRUE(session_->install_action(
      "pw",
      controller_.compile("pw", "fun(p, m, g) -> p.priority <- g.w[0]",
                          globals),
      globals));
  session_->add_rule("t", "*", "pw");
  ASSERT_TRUE(session_->set_global_array("pw", "w", {5}));
  ASSERT_TRUE(settle());
  ASSERT_EQ(processed_priority(), 5);
  const SessionStats before = session_->stats();

  const std::vector<std::int64_t> huge((17u << 20) / 8, 6);
  EXPECT_FALSE(session_->set_global_array("pw", "w", huge));
  for (int i = 0; i < 3000; ++i) step_ms();
  EXPECT_EQ(session_->stats().teardowns, before.teardowns);
  EXPECT_EQ(session_->stats().resyncs, before.resyncs);
  EXPECT_EQ(session_->stats().requests_sent, before.requests_sent);
  EXPECT_EQ(agent_->stats().corrupt_streams, 0u);
  EXPECT_TRUE(session_->ready());
  EXPECT_EQ(processed_priority(), 5);

  // The journal still holds the earlier value: an enclave that lost its
  // state is resynced to it.
  agent_->detach();
  enclave_.clear_all();
  agent_ = std::make_unique<EnclaveAgent>(enclave_);
  ASSERT_TRUE(settle());
  EXPECT_EQ(processed_priority(), 5);
  EXPECT_EQ(agent_->stats().corrupt_streams, 0u);
}

TEST_F(SessionTest, RuleAddedAndRemovedInOneTxnIsNeverPublished) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  session_->add_rule("egress", "memcached.egress.c0", "p7");
  ASSERT_TRUE(settle());
  const auto table = enclave_.find_table_id("egress");
  ASSERT_TRUE(table.has_value());
  ASSERT_EQ(enclave_.rule_count(*table), 1u);

  session_->begin_txn();
  const auto handle =
      session_->add_rule("egress", "memcached.egress.c70", "p7");
  session_->remove_rule("egress", handle);
  session_->commit_txn();
  // One delivery at a time: whenever no transaction is open, the
  // published table holds only the rule it started with.
  std::size_t step = 0;
  do {
    if (!enclave_.txn_open()) {
      EXPECT_EQ(enclave_.rule_count(*table), 1u) << "after step " << step;
    }
    ++step;
  } while (pump_.step());
  ASSERT_TRUE(settle());
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(enclave_.rule_count(*table), 1u);
  EXPECT_EQ(session_->stats().responses_error, 0u);
}

TEST_F(SessionTest, RepointTxnLeavesAsOneRequestFrame) {
  make_session();
  lang::FieldDef level;
  level.name = "level";
  level.access = lang::Access::read_write;
  const auto leveler = [&](const std::string& name) {
    return controller_.compile(name, "fun(p, m, g) -> p.priority <- g.level",
                               {{level}});
  };
  session_->install_action("pa", leveler("pa"), {level});
  session_->install_action("pb", leveler("pb"), {level});
  session_->set_global_scalar("pa", "level", 1);
  session_->set_global_scalar("pb", "level", 2);
  constexpr int kRules = 64;
  const auto pattern = [](int i) { return "c.r.k" + std::to_string(i); };
  std::vector<EnclaveSession::RuleHandle> rules;
  for (int i = 0; i < kRules; ++i) {
    rules.push_back(session_->add_rule("egress", pattern(i), "pa"));
  }
  ASSERT_TRUE(settle());
  const auto requests = agent_->stats().requests;
  const SessionStats before = session_->stats();

  session_->begin_txn();
  for (int i = 0; i < kRules; ++i) {
    session_->remove_rule("egress", rules[static_cast<std::size_t>(i)]);
    rules[static_cast<std::size_t>(i)] =
        session_->add_rule("egress", pattern(i), "pb");
  }
  session_->set_global_scalar("pb", "level", 3);
  session_->commit_txn();
  ASSERT_TRUE(settle());

  // The begin, every mutation and the commit in one batch.
  EXPECT_EQ(agent_->stats().requests - requests, 1u);
  // The session still counts commands, not frames.
  const std::uint64_t commands = 1 + 2 * kRules + 1 + 1;
  EXPECT_EQ(session_->stats().requests_sent - before.requests_sent, commands);
  EXPECT_EQ(session_->stats().responses_ok - before.responses_ok, commands);
  EXPECT_EQ(session_->stats().responses_error, 0u);
  EXPECT_EQ(session_->stats().txns_committed - before.txns_committed, 1u);
  EXPECT_EQ(enclave_.rule_count(*enclave_.find_table_id("egress")),
            static_cast<std::size_t>(kRules));
  netsim::Packet packet;
  packet.classes.add(registry_.intern(pattern(5)));
  enclave_.process(packet);
  EXPECT_EQ(packet.priority, 3);

  // The new rules are named by their handles: the next re-point removes
  // them by handle, again in one frame.
  session_->begin_txn();
  for (int i = 0; i < kRules; ++i) {
    session_->remove_rule("egress", rules[static_cast<std::size_t>(i)]);
    rules[static_cast<std::size_t>(i)] =
        session_->add_rule("egress", pattern(i), "pa");
  }
  session_->commit_txn();
  ASSERT_TRUE(settle());
  EXPECT_EQ(agent_->stats().requests - requests, 2u);
  EXPECT_EQ(enclave_.rule_count(*enclave_.find_table_id("egress")),
            static_cast<std::size_t>(kRules));
  EXPECT_EQ(session_->stats().responses_error, 0u);
}

TEST_F(SessionTest, AbortBeforeCommitSendsNothing) {
  make_session();
  session_->install_action("p7", priority_program("p7", 7), {});
  const auto rule = session_->add_rule("t", "*", "p7");
  ASSERT_TRUE(settle());
  const auto requests = agent_->stats().requests;
  const std::uint64_t sent = session_->stats().requests_sent;
  const std::uint64_t version = enclave_.ruleset_version();

  session_->begin_txn();
  session_->install_action("p1", priority_program("p1", 1), {});
  session_->remove_rule("t", rule);
  session_->add_rule("t", "*", "p1");
  session_->abort_txn();
  ASSERT_TRUE(settle());

  EXPECT_EQ(agent_->stats().requests - requests, 0u);
  EXPECT_EQ(session_->stats().requests_sent - sent, 0u);
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(enclave_.ruleset_version(), version);
  EXPECT_EQ(enclave_.rule_count(*enclave_.find_table_id("t")), 1u);
  EXPECT_FALSE(enclave_.find_action("p1").has_value());
  EXPECT_EQ(processed_priority(), 7);
}

TEST_F(SessionTest, TxnLargerThanAFrameLeavesAsSeveralBatchesAtomically) {
  chunk_bytes_ = 0;  // whole frames: this test moves ~19 MB
  make_session();
  std::vector<lang::FieldDef> fields;
  for (const char* name : {"a", "b", "c"}) {
    lang::FieldDef f;
    f.name = name;
    f.kind = lang::FieldKind::array;
    fields.push_back(f);
  }
  session_->install_action(
      "sum",
      controller_.compile(
          "sum", "fun(p, m, g) -> p.priority <- g.a[0] + g.b[0] + g.c[0]",
          fields),
      fields);
  session_->add_rule("t", "*", "sum");
  for (const char* name : {"a", "b", "c"}) {
    session_->set_global_array("sum", name, {1});
  }
  ASSERT_TRUE(settle());
  ASSERT_EQ(processed_priority(), 3);
  const auto requests = agent_->stats().requests;

  // Three 6 MB arrays: together more than one frame may carry.
  const std::vector<std::int64_t> big((6u << 20) / 8, 2);
  session_->begin_txn();
  for (const char* name : {"a", "b", "c"}) {
    session_->set_global_array("sum", name, big);
  }
  session_->commit_txn();
  // The data path sees all three arrays flip at the commit, never part.
  do {
    const int priority = processed_priority();
    EXPECT_TRUE(priority == 3 || priority == 6) << priority;
    if (enclave_.txn_open()) {
      EXPECT_EQ(priority, 3);
    }
  } while (pump_.step());
  ASSERT_TRUE(settle());

  // At least two batch frames, the begin riding in the first.
  EXPECT_GE(agent_->stats().requests - requests, 2u);
  EXPECT_EQ(agent_->stats().corrupt_streams, 0u);
  EXPECT_EQ(session_->stats().teardowns, 0u);
  EXPECT_EQ(session_->stats().responses_error, 0u);
  EXPECT_FALSE(enclave_.txn_open());
  EXPECT_EQ(processed_priority(), 6);
}

TEST_F(SessionTest, FetchTelemetryJsonRoundTripsAndFailsClosed) {
  make_session();
  // Not connected yet: reads fail closed with an empty reply.
  EXPECT_TRUE(session_->fetch_telemetry_delta_json(pump_, 0, 0).empty());

  ASSERT_TRUE(settle());
  processed_priority();
  // Echoing (0, 0) earns a full snapshot.
  const std::string json = session_->fetch_telemetry_delta_json(pump_, 0, 0);
  ASSERT_FALSE(json.empty());
  const telemetry::DeltaPayload payload = telemetry::parse_delta_payload(json);
  EXPECT_TRUE(payload.full);
  ASSERT_EQ(payload.enclaves.size(), 1u);
  EXPECT_EQ(payload.enclaves[0].enclave, "remote");
  EXPECT_GE(payload.enclaves[0].packets, 1u);
}

TEST_F(SessionTest, FetchSpansJsonCarriesTheAgentHostsEvents) {
  make_session();
  EXPECT_TRUE(session_->fetch_spans_json(pump_).empty());  // fails closed
  ASSERT_TRUE(settle());

  telemetry::SpanCollector& spans = telemetry::SpanCollector::instance();
  spans.reset();
  const std::int64_t trace = spans.start_trace();
  spans.record_now(trace, telemetry::Hop::stage_classify, 11);
  spans.record(trace, telemetry::Hop::action_exec, spans.now_ns(), 500, 22);
  const std::string json = session_->fetch_spans_json(pump_);
  spans.reset();

  ASSERT_FALSE(json.empty());
  const telemetry::Json root = telemetry::JsonParser(json).parse();
  const telemetry::Json* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, std::int64_t> aux_by_hop;
  for (const telemetry::Json& e : events->items) {
    EXPECT_EQ(e.i64("tid"), trace);
    const telemetry::Json* args = e.get("args");
    ASSERT_NE(args, nullptr);
    aux_by_hop[e.str("name")] = args->i64("aux");
  }
  EXPECT_EQ(aux_by_hop, (std::map<std::string, std::int64_t>{
                            {"action_exec", 22}, {"stage_classify", 11}}));
  EXPECT_EQ(root.i64("schema_version"), telemetry::kSpanSchemaVersion);
}

TEST_F(SessionTest, SessionTelemetryRendersInAggregateExports) {
  make_session();
  ASSERT_TRUE(settle());
  for (int i = 0; i < 50; ++i) step_ms();

  telemetry::AggregateTelemetry agg =
      telemetry::aggregate({enclave_.telemetry_snapshot()});
  agg.sessions.push_back(session_->telemetry());

  const std::string json = telemetry::to_json(agg);
  EXPECT_NE(json.find("\"sessions\""), std::string::npos);
  EXPECT_NE(json.find("\"connected\":true"), std::string::npos);

  const std::string prom = telemetry::to_prometheus(agg);
  EXPECT_NE(prom.find("eden_session_connected"), std::string::npos);
  EXPECT_NE(prom.find("eden_session_rtt_ns"), std::string::npos);
  EXPECT_NE(prom.find("eden_session_resyncs_total"), std::string::npos);

  // The rendered JSON parses back with the session intact.
  const telemetry::ParsedDump dump = telemetry::parse_telemetry_json(json);
  ASSERT_EQ(dump.sessions.size(), 1u);
  EXPECT_EQ(dump.sessions[0].name, "remote");
  EXPECT_EQ(dump.sessions[0].connects, session_->stats().connects);
}

}  // namespace
}  // namespace eden::controlplane
