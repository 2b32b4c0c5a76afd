// Data-plane stress: N worker threads hammer Enclave::process_batch
// through the sharded DataPlane while the control-plane session layer
// (PR4) commits rule-set transactions over a faulty link. Run under
// TSan/ASan this is the regression test for the one-snapshot-per-batch
// RCU path and the batched action runner racing live commits.
//
// Test 1 repoints rules in TWO tables per transaction (the soak-test
// invariant): every packet must see both epoch writes or neither, so
// p.path == p.queue on every completion or a commit tore. Two tables
// also drive the per-packet fallback of process_batch, whose snapshot
// is still acquired once per batch.
//
// Test 2 uses ONE table with a per-message action (message-state
// counter + a globals-consistency probe), driving the grouped
// run_action_batch path — per-(action, message) locking and state
// copies — against the same transaction churn. Its packets carry one of
// four classes and every transaction replaces the four exact rules that
// route them, so each commit rebuilds the table's class index while
// workers match through the previous one.
//
// Environment knobs (for the CI stress matrix):
//   EDEN_DP_STRESS_SEED    fault/backoff seed (default 1)
//   EDEN_DP_STRESS_EPOCHS  transaction count (default 40)
//   EDEN_DP_STRESS_WORKERS data-plane worker threads (default 4)
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "controlplane/fault.h"
#include "controlplane/session.h"
#include "core/controller.h"
#include "hoststack/dataplane.h"

namespace eden::hoststack {
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

// Shared scaffolding: an enclave controlled through a faulty session
// and fronted by a DataPlane.
class DataPlaneStress : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = env_u64("EDEN_DP_STRESS_SEED", 1);
    epochs_ = env_u64("EDEN_DP_STRESS_EPOCHS", 40);
    workers_ = env_u64("EDEN_DP_STRESS_WORKERS", 4);
    // Registered up front, as a stage would, so the exact rules added
    // under load resolve to existing ids.
    for (std::size_t i = 0; i < classes_.size(); ++i) {
      classes_[i] = registry_.intern("app.rs.c" + std::to_string(i));
    }

    agent_ = std::make_unique<controlplane::EnclaveAgent>(enclave_);
    auto connector = [this]() -> std::unique_ptr<controlplane::Transport> {
      auto [near, far] = controlplane::make_pipe(pump_, 32);
      agent_->attach(std::move(far));
      controlplane::FaultProfile profile;
      profile.drop_prob = 0.04;
      profile.delay_prob = 0.08;
      profile.duplicate_prob = 0.04;
      profile.disconnect_prob = 0.01;
      profile.seed = seed_ * 1000 + ++dials_;
      return std::make_unique<controlplane::FaultyTransport>(
          std::move(near), pump_, profile);
    };
    controlplane::SessionConfig config;
    config.heartbeat_interval_ns = 2'000'000;
    config.liveness_timeout_ns = 10'000'000;
    config.request_timeout_ns = 12'000'000;
    config.backoff_initial_ns = 1'000'000;
    config.backoff_max_ns = 20'000'000;
    config.seed = seed_;
    session_ = std::make_unique<controlplane::EnclaveSession>(
        "dp-stress", connector, [this]() { return now_ns_; }, config);

    DataPlaneConfig dp_config;
    dp_config.workers = workers_;
    dp_config.ring_capacity = 256;
    dp_config.max_batch = 32;
    dataplane_ = std::make_unique<DataPlane>(enclave_, dp_config);
  }

  void step() {
    now_ns_ += 1'000'000;
    session_->tick();
    pump_.run();
  }

  netsim::PacketPtr packet_for(std::uint64_t i) {
    auto p = netsim::make_packet();
    p->src = 1 + i % 7;
    p->dst = 2;
    p->src_port = static_cast<std::uint16_t>(1000 + i % 13);
    p->dst_port = 2000;
    p->protocol = netsim::Protocol::tcp;
    p->size_bytes = 1000;
    // A mix of message-keyed and pure-flow-hashed packets.
    p->meta.msg_id = i % 3 == 0 ? 0 : static_cast<std::int64_t>(i % 29 + 1);
    return p;
  }

  std::uint64_t seed_ = 1;
  std::uint64_t epochs_ = 40;
  std::uint64_t workers_ = 4;
  std::uint64_t now_ns_ = 0;
  std::uint64_t dials_ = 0;

  core::ClassRegistry registry_;
  std::array<core::ClassId, 4> classes_{};
  core::Controller controller_{registry_};
  core::Enclave enclave_{"dp-stress", registry_};
  controlplane::PipePump pump_;
  std::unique_ptr<controlplane::EnclaveAgent> agent_;
  std::unique_ptr<controlplane::EnclaveSession> session_;
  std::unique_ptr<DataPlane> dataplane_;
};

TEST_F(DataPlaneStress, TwoTableCommitsStayAtomicUnderBatches) {
  const auto fields = epoch_fields();
  const auto path_program =
      controller_.compile("path_fn", epoch_program("path"), fields);
  const auto queue_program =
      controller_.compile("queue_fn", epoch_program("queue"), fields);

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  const auto check = [&](netsim::PacketPtr p) {
    ++completed;
    if (p->path_label != p->rl_queue) ++violations;
  };

  controlplane::EnclaveSession::RuleHandle path_rule = 0;
  controlplane::EnclaveSession::RuleHandle queue_rule = 0;
  for (std::uint64_t s = 1; s <= epochs_; ++s) {
    const std::string path_name = "path_" + std::to_string(s % 2);
    const std::string queue_name = "queue_" + std::to_string(s % 2);
    session_->begin_txn();
    session_->install_action(path_name, path_program, fields);
    session_->install_action(queue_name, queue_program, fields);
    for (const char* field : {"v", "a", "b"}) {
      session_->set_global_scalar(path_name, field,
                                  static_cast<std::int64_t>(s));
      session_->set_global_scalar(queue_name, field,
                                  static_cast<std::int64_t>(s));
    }
    if (path_rule != 0) session_->remove_rule("paths", path_rule);
    if (queue_rule != 0) session_->remove_rule("queues", queue_rule);
    path_rule = session_->add_rule("paths", "*", path_name);
    queue_rule = session_->add_rule("queues", "*", queue_name);
    session_->commit_txn();

    // Keep the workers saturated while the commit is in flight.
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 32; ++i) {
        auto p = packet_for(submitted);
        while (!dataplane_->submit(p)) dataplane_->drain_completions(check);
        ++submitted;
      }
      step();
      dataplane_->drain_completions(check);
    }
  }

  // Converge the session on the final journal, then flush the workers.
  for (int i = 0; i < 20000; ++i) {
    step();
    if (session_->ready() && session_->inflight() == 0 &&
        pump_.pending() == 0 && !enclave_.txn_open()) {
      break;
    }
  }
  dataplane_->flush(check);
  dataplane_->stop(check);

  EXPECT_EQ(completed, submitted);
  EXPECT_EQ(violations, 0u)
      << "a worker batch observed a torn two-table commit";
  EXPECT_GT(session_->stats().txns_committed, 0u);
  EXPECT_EQ(enclave_.stats().packets, submitted);
}

TEST_F(DataPlaneStress, GroupedBatchesSurviveActionChurn) {
  // One table, one per-message action: the grouped run_action_batch
  // path. The action keeps a message counter (forcing per-message locks
  // and state copies) and probes its own globals for consistency.
  const auto fields = epoch_fields();
  const auto program = controller_.compile(
      "seq_fn",
      "fun(p, m, g) -> m.state0 <- m.state0 + 1; p.path <- m.state0; "
      "p.queue <- (if g.a + g.b == 2 * g.v then g.v else 0 - 1)",
      fields);

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t torn_globals = 0;
  std::uint64_t bad_counters = 0;
  std::uint64_t matched = 0;
  std::set<std::int64_t> committed_epochs{-1};  // -1 = unmatched default
  const auto check = [&](netsim::PacketPtr p) {
    ++completed;
    // rl_queue must be a value some committed epoch wrote — never a
    // mix. (Unmatched packets keep the -1 default.)
    if (committed_epochs.count(p->rl_queue) == 0) ++torn_globals;
    // The message counter is positive whenever the action ran.
    if (p->rl_queue != -1 && p->path_label < 1) ++bad_counters;
    if (p->rl_queue != -1) ++matched;
  };

  std::vector<controlplane::EnclaveSession::RuleHandle> rules;
  for (std::uint64_t s = 1; s <= epochs_; ++s) {
    const std::string name = "seq_" + std::to_string(s % 2);
    session_->begin_txn();
    session_->install_action(name, program, fields);
    for (const char* field : {"v", "a", "b"}) {
      session_->set_global_scalar(name, field, static_cast<std::int64_t>(s));
    }
    for (const auto rule : rules) session_->remove_rule("t", rule);
    rules.clear();
    for (const core::ClassId cls : classes_) {
      rules.push_back(
          session_->add_rule("t", registry_.name(cls).full(), name));
    }
    session_->commit_txn();
    committed_epochs.insert(static_cast<std::int64_t>(s));

    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 32; ++i) {
        auto p = packet_for(submitted);
        p->classes.add(classes_[submitted % classes_.size()]);
        while (!dataplane_->submit(p)) dataplane_->drain_completions(check);
        ++submitted;
      }
      step();
      dataplane_->drain_completions(check);
    }
  }

  for (int i = 0; i < 20000; ++i) {
    step();
    if (session_->ready() && session_->inflight() == 0 &&
        pump_.pending() == 0 && !enclave_.txn_open()) {
      break;
    }
  }
  dataplane_->flush(check);
  dataplane_->stop(check);

  EXPECT_EQ(completed, submitted);
  EXPECT_EQ(torn_globals, 0u)
      << "a grouped batch observed a half-applied global-state commit";
  EXPECT_EQ(bad_counters, 0u);
  EXPECT_GT(matched, 0u) << "no packet reached an exact class rule";
  EXPECT_GT(session_->stats().txns_committed, 0u);
}

// Exhaustion robustness: producers racing a deliberately undersized
// packet arena must degrade to drop-and-count — never deadlock, and
// never silently heap-allocate on the try path. The pool is sized well
// below the in-flight window (rings + batches across 4 workers), so
// try_make() runs dry constantly and only completion-path recycling
// keeps traffic flowing.
TEST_F(DataPlaneStress, PoolExhaustionDropsAndCountsInsteadOfDeadlocking) {
  const auto fields = epoch_fields();
  const auto program = controller_.compile(
      "touch_fn", "fun(p, m, g) -> p.path <- g.v", fields);
  session_->begin_txn();
  session_->install_action("touch", program, fields);
  for (const char* field : {"v", "a", "b"}) {
    session_->set_global_scalar("touch", field, 1);
  }
  session_->add_rule("t", "*", "touch");
  session_->commit_txn();

  netsim::PacketPoolConfig pool_config;
  pool_config.capacity_slots = 64;
  pool_config.slab_slots = 16;
  pool_config.magazine_slots = 8;
  netsim::PacketPool pool(pool_config);

  DataPlaneConfig dp_config;
  dp_config.workers = workers_;
  dp_config.ring_capacity = 64;
  dp_config.max_batch = 16;
  dp_config.pool = &pool;
  auto dp = std::make_unique<DataPlane>(enclave_, dp_config);

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t pool_drops = 0;
  const auto check = [&](netsim::PacketPtr p) {
    ++completed;
    p.reset();  // recycle the slot before the next allocation attempt
  };

  for (std::uint64_t round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      auto p = pool.try_make();
      if (p == nullptr) {
        // Arena dry: the producer's contract is to drop and count, then
        // keep going — the drain below recycles slots for later rounds.
        ++pool_drops;
        continue;
      }
      p->src = 1;
      p->dst = 2;
      p->protocol = netsim::Protocol::tcp;
      p->size_bytes = 1000;
      p->meta.msg_id = static_cast<std::int64_t>(round % 29 + 1);
      while (!dp->submit(p)) dp->drain_completions(check);
      ++submitted;
    }
    step();
    dp->drain_completions(check);
  }
  dp->flush(check);
  dp->stop(check);

  EXPECT_EQ(completed, submitted);
  EXPECT_GT(submitted, 0u);
  EXPECT_GT(pool_drops, 0u) << "pool never ran dry; shrink it";

  const auto stats = dp->stats();
  EXPECT_GE(stats.pool.exhausted_total, pool_drops);
  EXPECT_EQ(stats.pool.heap_fallback_total, 0u)
      << "try path must not heap-allocate when the arena is dry";
  EXPECT_LE(stats.pool.slots_materialized, 64u);

  // The drop-and-count series is visible where operators look for it.
  const std::string text = dp->metrics().text_exposition();
  EXPECT_NE(text.find("eden_pool_exhausted_total"), std::string::npos);
  EXPECT_NE(text.find("eden_pool_in_use"), std::string::npos);
}

}  // namespace
}  // namespace eden::hoststack
