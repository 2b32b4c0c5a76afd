// Control-plane soak: transactional rule-set commits hammered through a
// faulty session while a data thread processes packets concurrently.
//
// Every epoch installs a fresh pair of actions whose globals bake in the
// epoch number (v = a = b = s) and atomically repoints one rule in each
// of two tables at them, all inside one transaction. Each action writes
// its epoch to a different packet field (path_label / rl_queue) only if
// its own globals are self-consistent (a + b == 2v). The data thread
// asserts p.path == p.queue on every packet: any torn commit — rules
// repointed in one table but not the other, an action published without
// its globals, a half-replayed resync — splits the two fields apart.
//
// The link drops, delays, duplicates, truncates and hard-closes with a
// seeded profile, and the enclave is periodically hard-restarted (blank
// state, new agent boot id), so convergence happens through the journal
// resync path, not just the happy path. Whenever the session is quiet,
// and once more on each side of a final clean reconnect, each table
// must hold exactly the last epoch's rule. Run under TSan this is the
// regression test for the RCU snapshot publication in Enclave::process.
//
// Environment knobs (for the CI soak matrix):
//   EDEN_SOAK_SEED   fault/backoff seed (default 1)
//   EDEN_SOAK_EPOCHS transaction count (default 60)
//   EDEN_SOAK_JSON   write the final session+enclave telemetry dump here
//   EDEN_SOAK_FLIGHT_JSON  write the flight-recorder dump here (also
//                          installs the crash handler on that path)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "controlplane/fault.h"
#include "controlplane/session.h"
#include "core/controller.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/snapshot.h"

namespace eden::controlplane {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

// The epoch value survives to the packet only when the action's global
// block is self-consistent; a torn global write surfaces as -1.
std::string epoch_program(const std::string& field) {
  return "fun(p, m, g) -> p." + field +
         " <- (if g.a + g.b == 2 * g.v then g.v else 0 - 1)";
}

std::vector<lang::FieldDef> epoch_fields() {
  std::vector<lang::FieldDef> fields;
  for (const char* name : {"v", "a", "b"}) {
    lang::FieldDef field;
    field.name = name;
    field.access = lang::Access::read_write;
    fields.push_back(field);
  }
  return fields;
}

TEST(ControlPlaneSoak, CommitsStayAtomicUnderChaos) {
  const std::uint64_t seed = env_u64("EDEN_SOAK_SEED", 1);
  const std::uint64_t epochs = env_u64("EDEN_SOAK_EPOCHS", 60);

  telemetry::FlightRecorder::instance().reset();
  const char* flight_path = std::getenv("EDEN_SOAK_FLIGHT_JSON");
  if (flight_path != nullptr) {
    telemetry::FlightRecorder::install_crash_handler(flight_path);
  }

  core::ClassRegistry registry;
  core::Controller controller{registry};
  core::Enclave enclave{"soak", registry};
  PipePump pump;
  auto agent = std::make_unique<EnclaveAgent>(enclave);
  std::uint64_t now_ns = 0;
  bool chaos = true;
  std::uint64_t dials = 0;

  auto connector = [&]() -> std::unique_ptr<Transport> {
    auto [near, far] = make_pipe(pump, 32);
    agent->attach(std::move(far));
    if (!chaos) return std::move(near);
    FaultProfile profile;
    profile.drop_prob = 0.05;
    profile.delay_prob = 0.10;
    profile.duplicate_prob = 0.05;
    profile.truncate_prob = 0.03;
    profile.disconnect_prob = 0.01;
    profile.seed = seed * 1000 + ++dials;  // fresh rolls per connection
    return std::make_unique<FaultyTransport>(std::move(near), pump, profile);
  };

  SessionConfig config;
  config.heartbeat_interval_ns = 2'000'000;  // 2 ms
  config.liveness_timeout_ns = 10'000'000;   // 10 ms
  config.request_timeout_ns = 12'000'000;    // 12 ms
  config.backoff_initial_ns = 1'000'000;     // 1 ms
  config.backoff_max_ns = 20'000'000;        // 20 ms
  config.seed = seed;
  EnclaveSession session{"soak", connector, [&]() { return now_ns; }, config};

  auto step = [&]() {
    now_ns += 1'000'000;
    session.tick();
    pump.run();
  };

  // Data thread: hammers the published snapshot while the control plane
  // churns. Both fields default to -1, so a blank enclave (mid-restart)
  // reads as (-1, -1) — equal, as the invariant requires.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread data([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      netsim::Packet packet;
      packet.size_bytes = 100;
      enclave.process(packet);
      if (packet.path_label != packet.rl_queue) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      processed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto fields = epoch_fields();
  const auto path_program =
      controller.compile("path_fn", epoch_program("path"), fields);
  const auto queue_program =
      controller.compile("queue_fn", epoch_program("queue"), fields);

  // Every request answered and no transaction open on the enclave: the
  // enclave then holds exactly what the session's journal says.
  auto quiet = [&]() {
    return session.ready() && session.inflight() == 0 && pump.pending() == 0 &&
           !enclave.txn_open();
  };
  auto converge = [&]() {
    for (int i = 0; i < 20000; ++i) {
      step();
      if (quiet()) return true;
    }
    return false;
  };
  // Each table holds the last epoch's rule and nothing else: a remove by
  // handle that leaked a rule, or removed one twice, shows here.
  auto expect_one_rule_each = [&](const char* when) {
    for (const char* name : {"paths", "queues"}) {
      const auto table = enclave.find_table_id(name);
      ASSERT_TRUE(table.has_value()) << name << " " << when;
      EXPECT_EQ(enclave.rule_count(*table), 1u) << name << " " << when;
    }
  };

  EnclaveSession::RuleHandle path_rule = 0;
  EnclaveSession::RuleHandle queue_rule = 0;
  std::uint64_t restarts = 0;
  for (std::uint64_t s = 1; s <= epochs; ++s) {
    // Two alternating action names keep the journal bounded while every
    // epoch still swaps in freshly-installed actions.
    const std::string path_name = "path_" + std::to_string(s % 2);
    const std::string queue_name = "queue_" + std::to_string(s % 2);
    session.begin_txn();
    session.install_action(path_name, path_program, fields);
    session.install_action(queue_name, queue_program, fields);
    for (const char* field : {"v", "a", "b"}) {
      session.set_global_scalar(path_name, field,
                                static_cast<std::int64_t>(s));
      session.set_global_scalar(queue_name, field,
                                static_cast<std::int64_t>(s));
    }
    if (path_rule != 0) session.remove_rule("paths", path_rule);
    if (queue_rule != 0) session.remove_rule("queues", queue_rule);
    path_rule = session.add_rule("paths", "*", path_name);
    queue_rule = session.add_rule("queues", "*", queue_name);
    session.commit_txn();

    for (int i = 0; i < 8; ++i) step();
    // Chaos resyncs often; between them, rules come and go by the live
    // adds and removes alone.
    if (quiet()) expect_one_rule_each("mid-chaos");

    if (s % 15 == 0) {
      // Hard enclave restart: blank state, new boot id. The session must
      // notice and rebuild everything from the journal.
      agent->detach();
      enclave.clear_all();
      agent = std::make_unique<EnclaveAgent>(enclave);
      ++restarts;
    }
  }

  // Calm the link and let the session converge on the final journal,
  // first over the connection the chaos left, then over a clean one.
  chaos = false;
  ASSERT_TRUE(converge()) << "session never converged after chaos ended";
  expect_one_rule_each("before the reconnect");
  agent->detach();  // force one clean reconnect
  ASSERT_TRUE(converge()) << "session never converged after the reconnect";
  expect_one_rule_each("after the reconnect");

  // The committed state is exactly the last epoch, in both tables.
  netsim::Packet probe;
  probe.size_bytes = 100;
  enclave.process(probe);
  EXPECT_EQ(probe.path_label, static_cast<std::int32_t>(epochs));
  EXPECT_EQ(probe.rl_queue, static_cast<std::int32_t>(epochs));

  stop.store(true);
  data.join();
  EXPECT_EQ(violations.load(), 0u)
      << "data thread observed a torn rule-set snapshot";
  EXPECT_GT(processed.load(), 0u);

  // The chaos was real: the session had to fight for this convergence.
  const SessionStats& stats = session.stats();
  EXPECT_GE(stats.resyncs, 2u + restarts);
  EXPECT_GE(stats.agent_restarts_seen, restarts);
  EXPECT_GT(stats.txns_committed, 0u);

  if (const char* json_path = std::getenv("EDEN_SOAK_JSON")) {
    telemetry::AggregateTelemetry agg =
        telemetry::aggregate({enclave.telemetry_snapshot()});
    agg.sessions.push_back(session.telemetry());
    std::ofstream out(json_path);
    out << telemetry::to_json(agg);
  }
  if (flight_path != nullptr) {
    telemetry::FlightRecorder::instance().dump_to_file(flight_path);
  }
}

}  // namespace
}  // namespace eden::controlplane
