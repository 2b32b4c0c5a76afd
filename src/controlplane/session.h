// Resilient controller <-> enclave session layer.
//
// The paper's controller programs enclaves through the enclave API
// (Section 3.4.5); this module makes that control channel survive an
// unreliable substrate. Two halves:
//
//  * EnclaveAgent — enclave-side endpoint. Decodes frames from an
//    attached Transport, applies wire commands to its Enclave in
//    arrival order, answers hello/heartbeat with an AgentGreeting
//    carrying its boot id and committed rule-set version, and aborts
//    any open transaction when the connection drops or a new
//    controller attaches.
//
//  * EnclaveSession — controller-side endpoint. Pipelines requests
//    (FIFO response correlation), paces heartbeats, detects dead peers
//    by liveness and request timeouts, reconnects with capped
//    exponential backoff + jitter, and keeps a *desired-state journal*
//    of every mutation so a restarted (or blank) enclave converges: on
//    every (re)connect it replays the journal as one transaction, so
//    the data path never observes a half-restored rule set.
//
// Mutations issued while disconnected are journaled and folded into
// the next resync; the journal is the source of truth, the enclave is
// the replica. All time comes from an injectable clock and all
// randomness from a seeded Rng, so tests run the whole protocol —
// disconnects, timeouts, backoff — deterministically in virtual time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controlplane/frame.h"
#include "controlplane/transport.h"
#include "core/wire.h"
#include "telemetry/delta.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/span.h"
#include "util/rng.h"

namespace eden::controlplane {

// Enclave-side session endpoint. One agent serves one enclave; a new
// agent instance gets a fresh boot id, so constructing one models an
// enclave host restart as far as the controller can tell.
class EnclaveAgent {
 public:
  explicit EnclaveAgent(core::Enclave& enclave);

  // Takes ownership of the connection. An already-attached transport is
  // closed first; in both cases any transaction the previous connection
  // left open is aborted, so a half-staged update from a dead
  // controller can never commit.
  void attach(std::unique_ptr<Transport> transport);
  void detach();
  bool attached() const { return transport_ != nullptr; }

  std::uint64_t boot_id() const { return boot_id_; }

  // Host-series hook for get_telemetry_delta polls: fills
  // EnclaveTelemetry::host_series with host-level gauges the enclave
  // cannot see (data-plane ring depth, pool exhaustion, ...). The delta
  // encoder — and with it the delta epoch — is per-agent, so a new
  // agent (= restarted host) always resyncs the controller in full.
  void set_host_series(telemetry::DeltaEncoder::HostSeriesFn fn) {
    telemetry_encoder_.set_host_series(std::move(fn));
  }

  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t requests = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t corrupt_streams = 0;
    std::uint64_t stale_txn_aborts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void on_bytes(std::span<const std::uint8_t> data);
  void on_disconnect();
  void abort_stale_txn();
  std::vector<std::uint8_t> greeting_payload() const;
  // Applies one command of a traced frame as a cp_agent_apply span
  // under `parent_span` (whose id lands in `apply_span`).
  core::wire::Response apply_traced(std::span<const std::uint8_t> command,
                                    std::int64_t trace_id,
                                    std::int64_t parent_span,
                                    std::int64_t& apply_span);

  core::Enclave& enclave_;
  std::uint64_t boot_id_;
  std::unique_ptr<Transport> transport_;
  FrameDecoder decoder_;
  // Request frames must arrive with consecutive ids (1, 2, 3, ... per
  // connection). A gap means the lossy substrate swallowed a command —
  // applying the survivors would tear apart batches the controller
  // meant atomically — and a repeat means a duplicated delivery; both
  // are stream corruption: close and let the controller resync.
  std::uint64_t expected_request_id_ = 1;
  telemetry::DeltaEncoder telemetry_encoder_;
  Stats stats_;
};

struct SessionConfig {
  std::uint64_t heartbeat_interval_ns = 50'000'000;   // 50 ms
  std::uint64_t liveness_timeout_ns = 200'000'000;    // 200 ms
  std::uint64_t request_timeout_ns = 250'000'000;     // 250 ms
  std::uint64_t backoff_initial_ns = 10'000'000;      // 10 ms
  std::uint64_t backoff_max_ns = 1'000'000'000;       // 1 s
  std::uint64_t seed = 1;                             // jitter rng
};

// Point-in-time counters for one session; the raw material for the
// telemetry export (telemetry/snapshot.h) and eden-stat's session
// table.
using SessionStats = telemetry::SessionCounts;

// Controller-side session endpoint. Not thread-safe: the session, its
// pump and its clock belong to the controller's control thread; only
// the enclave on the far side is concurrent.
class EnclaveSession {
 public:
  // Returns a fresh connected transport, or nullptr if the dial failed
  // (the session backs off and retries).
  using Connector = std::function<std::unique_ptr<Transport>()>;
  // Monotonic nanoseconds. Injectable so tests drive virtual time.
  using ClockFn = std::function<std::uint64_t()>;

  // Stable rule identity, chosen by the session: the wire names a rule
  // by its handle, so the enclave holds it under that id in every
  // incarnation the resyncs build.
  using RuleHandle = std::uint64_t;

  EnclaveSession(std::string name, Connector connector, ClockFn clock,
                 SessionConfig config = {});

  const std::string& name() const { return name_; }

  // Drives the protocol clock: reconnects when backoff expires, paces
  // heartbeats, fires liveness and request timeouts. Call regularly
  // (each virtual-time step in tests; a timer wheel in a real
  // controller).
  void tick();

  bool connected() const { return transport_ != nullptr; }
  // Connected, greeted and resync issued: requests flow.
  bool ready() const { return state_ == State::ready; }

  // --- Desired-state mutations (journaled; sent when ready) ---------
  // Each mutation is encoded first. One whose command could not reach
  // the agent in any frame (kMaxFramePayload) is refused: nothing is
  // journaled and nothing is sent, so no resync can replay it either.
  // install_action and set_global_array return false when they refuse
  // (set_global_array also when the journal knows no such action), and
  // add_rule returns handle 0.
  bool install_action(const std::string& name,
                      const lang::CompiledProgram& program,
                      std::vector<lang::FieldDef> global_fields);
  void remove_action(const std::string& name);
  void create_table(const std::string& name);
  RuleHandle add_rule(const std::string& table, const std::string& pattern,
                      const std::string& action);
  // Leaves at once (staged inside a transaction): requests are applied
  // in order, so the remove always lands behind its add.
  void remove_rule(const std::string& table, RuleHandle handle);
  void set_global_scalar(const std::string& action, const std::string& field,
                         std::int64_t value);
  bool set_global_array(const std::string& action, const std::string& field,
                        std::vector<std::int64_t> data);
  void add_flow_rule(const core::FlowClassifierRule& rule,
                     const std::string& class_name);
  void clear_flow_rules();

  // --- Transactions -------------------------------------------------
  // Mutations between begin_txn and commit_txn are published on the
  // enclave in one atomic rule-set swap. The begin and every mutation
  // after it wait in the session and leave with commit_txn as one batch
  // frame (several when they would exceed kMaxFramePayload), so the
  // enclave opens the transaction only when the commit is on its way.
  // abort_txn drops them unsent, sends nothing, and rolls the journal
  // back to the begin_txn snapshot. A transaction split across frames
  // and interrupted by a disconnect is aborted enclave-side. With a
  // transaction open across a reconnect, the resync commits the
  // pre-transaction snapshot as the converged base state, then re-stages
  // the transaction's begin and effects in the session, so the client's
  // eventual commit_txn / abort_txn keeps its atomic meaning.
  void begin_txn();
  void commit_txn();
  void abort_txn();
  bool txn_open() const { return txn_snapshot_ != nullptr; }

  // --- Reads --------------------------------------------------------
  // A read leaves at once, never staged behind a transaction's batch.
  // Issues the query and drives `pump` until the response arrives (or
  // the event queue drains without one). Empty string when the session
  // is not ready or the reply never came — callers treat that as
  // "unreachable".
  //
  // Lifecycle spans: the agent host's span collector as Chrome
  // trace_event JSON.
  std::string fetch_spans_json(PipePump& pump);
  // Delta poll: echoes (epoch, seq) — normally a DeltaDecoder's
  // epoch()/seq() — and returns the agent's telemetry::DeltaPayload
  // JSON. Echoing (0, 0) always earns a full snapshot.
  std::string fetch_telemetry_delta_json(PipePump& pump, std::uint64_t epoch,
                                         std::uint64_t seq);

  const SessionStats& stats() const { return stats_; }
  telemetry::HistogramSnapshot rtt() const { return rtt_.snapshot(); }
  // Snapshot for the controller's aggregate export (eden-stat's session
  // table, the Prometheus eden_session_* series).
  telemetry::SessionTelemetry telemetry() const;
  std::uint64_t agent_boot_id() const { return agent_boot_id_; }
  // Request frames (each a batch) awaiting a response.
  std::size_t inflight() const { return inflight_.size(); }
  std::uint64_t journal_size() const;

 private:
  enum class State : std::uint8_t {
    disconnected,  // waiting out backoff
    greeting,      // hello sent, awaiting hello_ack
    ready,         // resync issued; requests flow
  };

  struct Journal {
    struct ActionDef {
      std::string name;
      lang::CompiledProgram program;
      std::vector<lang::FieldDef> globals;
      // Last write wins; replay restores the final value of each field.
      std::map<std::string, std::int64_t> scalars;
      std::map<std::string, std::vector<std::int64_t>> arrays;
    };
    struct RuleSpec {
      std::string pattern;
      std::string action;
    };
    struct RuleDef {
      RuleHandle handle = 0;
      // Shared with the transaction snapshot's copy, so neither the
      // snapshot nor an erase moves strings.
      std::shared_ptr<const RuleSpec> spec;
    };
    struct TableDef {
      std::string name;
      std::vector<RuleDef> rules;
    };
    std::vector<ActionDef> actions;
    std::vector<TableDef> tables;
    std::vector<std::pair<core::FlowClassifierRule, std::string>> flow_rules;
  };

  using Completion = std::function<void(const core::wire::Response&)>;
  // One command on its way to the agent.
  struct Request {
    std::vector<std::uint8_t> command;  // emptied once encoded
    Completion done;                    // may be empty
    // Trace context (0 = untraced), captured when queued: the trace and
    // the span its cp_send parents under. Once sent, the cp_send span
    // and the collector-clock send time its response is measured from.
    std::int64_t trace_id = 0;
    std::int64_t parent_span = 0;
    std::int64_t span_id = 0;
    std::int64_t sent_span_ns = 0;
  };
  // One request frame, a batch of commands. `id` and `sent_at_ns` are
  // set when it leaves the outbox.
  struct RequestFrame {
    std::uint64_t id = 0;
    std::uint64_t sent_at_ns = 0;
    std::vector<Request> requests;
  };

  // The active controller-side trace. One logical operation at a time
  // owns it: a client transaction (begin→commit/abort, surviving
  // reconnects via the folded resync), a connect-triggered resync, or
  // a telemetry delta poll. Every frame sent while a trace is active
  // carries its id, so agent-side spans land in the same causal tree.
  enum class TraceOwner : std::uint8_t { none, txn, resync, poll };
  struct ActiveTrace {
    std::int64_t id = 0;    // 0 = no active trace
    std::int64_t root = 0;  // span new sends parent under
    TraceOwner owner = TraceOwner::none;
  };

  void on_bytes(std::span<const std::uint8_t> data);
  void on_disconnect();
  void handle_frame(const Frame& frame);
  void teardown(const char* reason);
  void schedule_reconnect();
  void try_connect();
  void start_resync(const AgentGreeting& greeting);
  // Queues one command as a batch frame of its own; frames leave the
  // outbox as the pipelining window allows, FIFO. Only valid while
  // connected.
  void send_request(std::vector<std::uint8_t> command, Completion done);
  // Adds one command to the open transaction's staged batch.
  void stage(std::vector<std::uint8_t> command, Completion done);
  // Sends a journaled mutation when ready (else the resync replays it):
  // staged inside a client transaction, in a batch of its own outside
  // one.
  void send_mutation(std::vector<std::uint8_t> command);
  // Queues the staged commands as batch frames, in order, each under
  // kMaxFramePayload.
  void send_batch();
  void pump_outbox();
  void send_hello();
  void send_heartbeat();
  // Stages one install/set/create/add command per journal fact.
  void replay_journal(const Journal& journal);
  Journal::ActionDef* find_action(const std::string& name);
  Journal::TableDef* find_table(const std::string& name);
  std::string fetch_payload(PipePump& pump,
                            std::vector<std::uint8_t> command);

  std::string name_;
  Connector connector_;
  ClockFn clock_;
  SessionConfig config_;
  util::Rng rng_;

  State state_ = State::disconnected;
  std::unique_ptr<Transport> transport_;
  FrameDecoder decoder_;
  std::uint64_t next_id_ = 1;
  // Requests use their own consecutive per-connection id space (reset
  // on every connect) so the agent can detect lost or duplicated
  // commands by sequence; hello/heartbeat ids come from next_id_.
  std::uint64_t next_request_id_ = 1;
  std::deque<RequestFrame> outbox_;
  std::deque<RequestFrame> inflight_;
  // The open transaction's begin and mutations, waiting for its commit.
  std::vector<Request> staged_;
  std::map<std::uint64_t, std::uint64_t> heartbeat_sent_at_;
  std::uint64_t last_rx_ns_ = 0;
  std::uint64_t last_heartbeat_ns_ = 0;
  std::uint64_t next_connect_ns_ = 0;  // backoff deadline
  std::uint32_t backoff_attempts_ = 0;
  std::uint64_t agent_boot_id_ = 0;
  bool seen_agent_ = false;

  Journal journal_;
  RuleHandle next_handle_ = 1;
  std::unique_ptr<Journal> txn_snapshot_;

  // Clears the trace unless a client transaction still owns it — the
  // terminal hop of resync/poll traces and of txn traces whose commit
  // was folded across a reconnect.
  void finish_trace_unless_txn_open() {
    if (txn_snapshot_ == nullptr) trace_ = ActiveTrace{};
  }

  ActiveTrace trace_;
  SessionStats stats_;
  telemetry::Histogram rtt_;
  telemetry::Histogram resync_sizes_;
};

}  // namespace eden::controlplane
