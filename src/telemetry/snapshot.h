// Structured telemetry snapshots and their exposition formats.
//
// The enclave serializes its counters, histograms and profiles into
// an EnclaveTelemetry value (names already resolved — class ids become
// "stage.ruleset.class" strings, statuses become their lang names), the
// controller pulls one from every registered enclave, and aggregate()
// merges them by action and class name so a deployment-wide view needs
// no shared state. Two renderings: Prometheus text exposition for
// scraping, and a JSON dump the benches write next to their results.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "lang/interpreter.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"

namespace eden::telemetry {

// Version stamp written into every JSON dump ("schema_version"). v1 is
// the unversioned format of the first telemetry PRs (readers treat a
// missing stamp as v1); v2 added the stamp itself, per-enclave host
// series and the delta-payload format (telemetry/delta.h); v3 added the
// per-enclave message-state section (eden_state_* series: live /
// created / expired / evicted / resizes and the probe-length
// histogram). Bump on any change a reader could misparse; eden-stat
// warns on versions it does not know instead of guessing silently.
inline constexpr int kTelemetrySchemaVersion = 3;

// One numeric series of a record of type T. Each record below lists its
// series once, in a table ordered as its JSON object writes them; the
// JSON writer and reader, the delta codec (telemetry/delta.h), the
// aggregate merges and to_prometheus all walk that table, so a new
// series is one row. Hand-written code is left only for structure:
// names, flags, histograms, errors_by_status, profiles and host_series.
enum class SeriesKind : std::uint8_t {
  counter,  // monotonic: a delta ships the increment, a fold adds
  gauge,    // a level: a delta ships the value, a fold takes the newer
};

template <typename T>
struct Series {
  const char* key;  // JSON key
  std::uint64_t T::*member;
  SeriesKind kind;
  const char* prom;  // Prometheus name, nullptr when not exported
};

// Folds `from` into `into` series by series (counters add, gauges take
// `from`'s value): how a delta lands on its base and how same-named
// entries merge across enclaves.
template <typename T, std::size_t N>
void fold_series(const Series<T> (&table)[N], T& into, const T& from) {
  for (const Series<T>& s : table) {
    into.*s.member = s.kind == SeriesKind::gauge
                         ? from.*s.member
                         : into.*s.member + from.*s.member;
  }
}

// The counter sets, declared once: the enclave and the session layer
// fill them (core::EnclaveStats, core::ActionStats,
// controlplane::SessionStats) and the records below carry them.

struct EnclaveCounts {
  std::uint64_t packets = 0;
  std::uint64_t matched = 0;
  std::uint64_t dropped_by_action = 0;
  std::uint64_t message_entries_created = 0;
  // Removed because the store hit capacity (max_messages_per_action).
  std::uint64_t message_entries_evicted = 0;
  // Removed because the entry sat idle past message_idle_timeout_ns.
  std::uint64_t message_entries_expired = 0;
};

struct ActionCounts {
  std::uint64_t executions = 0;
  std::uint64_t errors = 0;  // the sum of errors_by_status
  // Weighted interpreter steps (bytecode actions only): each executed
  // opcode bills the number of base instructions it stands for
  // (lang::kOpStepCost), so an -O1 superinstruction adds the full cost
  // of the -O0 sequence it fused. Totals are therefore comparable
  // across opt levels — the Fig. 12 overhead numbers mean the same
  // thing at -O0 and -O1.
  std::uint64_t steps = 0;
  // `errors` split by lang::ExecStatus (the ok slot stays zero), so
  // traps, fuel exhaustion and stack overflows are distinguishable.
  std::array<std::uint64_t, lang::kNumExecStatus> errors_by_status{};
};

// Point-in-time counters for one controller->enclave session.
struct SessionCounts {
  std::uint64_t connects = 0;          // successful transport opens
  std::uint64_t connect_failures = 0;  // connector returned nothing
  std::uint64_t teardowns = 0;         // liveness/timeout/corruption
  std::uint64_t resyncs = 0;
  std::uint64_t last_resync_commands = 0;  // journal replay size
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t request_timeouts = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_acked = 0;
  std::uint64_t liveness_timeouts = 0;
  std::uint64_t corrupt_streams = 0;
  std::uint64_t txns_committed = 0;
  std::uint64_t txns_aborted = 0;
  std::uint64_t agent_restarts_seen = 0;  // boot id changed under us
};

// Per-enclave message-state (FlowStore) section: totals across the
// enclave's per-action stores. `probe_len` is the sampled
// open-addressing probe-length histogram — its tail widening is the
// early signal that a store needs a resize or the hash is clustering.
struct StateTelemetry {
  bool present = false;  // any action holds message state
  std::uint64_t live = 0;
  std::uint64_t created = 0;
  std::uint64_t expired = 0;
  std::uint64_t evicted = 0;
  std::uint64_t resizes = 0;
  HistogramSnapshot probe_len;
};

inline constexpr Series<StateTelemetry> kStateSeries[] = {
    {"live", &StateTelemetry::live, SeriesKind::gauge, "eden_state_live"},
    {"created", &StateTelemetry::created, SeriesKind::counter,
     "eden_state_created_total"},
    {"expired", &StateTelemetry::expired, SeriesKind::counter,
     "eden_state_expired_total"},
    {"evicted", &StateTelemetry::evicted, SeriesKind::counter,
     "eden_state_evicted_total"},
    {"resizes", &StateTelemetry::resizes, SeriesKind::counter,
     "eden_state_resizes_total"},
};

struct ActionTelemetry : ActionCounts {
  std::string name;
  bool native = false;
  // Histograms are present only when the enclave ran with them enabled;
  // counts reflect the sampled executions, not `executions`.
  bool has_histograms = false;
  HistogramSnapshot latency_ns;
  HistogramSnapshot steps_hist;
  // Bytecode hot spots, present when the enclave ran with
  // profile_actions on: the top rows of the per-pc execution profile,
  // with `text` already resolved to the disassembled instruction.
  bool has_profile = false;
  std::uint64_t profile_runs = 0;
  std::uint64_t profile_instructions = 0;
  std::vector<HotSpot> hotspots;
};

// Native twins run no bytecode, so to_prometheus gives them no steps
// series.
inline constexpr Series<ActionTelemetry> kActionSeries[] = {
    {"executions", &ActionTelemetry::executions, SeriesKind::counter,
     "eden_action_executions_total"},
    // Exported per status, as eden_action_errors_total.
    {"errors", &ActionTelemetry::errors, SeriesKind::counter, nullptr},
    {"steps", &ActionTelemetry::steps, SeriesKind::counter,
     "eden_action_steps_total"},
};

// Adds `a`'s counts, histograms and hot-spot rows into `t` (same action
// name). Shared by aggregate(), merge_aggregates() and apply_delta().
void merge_action(ActionTelemetry& t, const ActionTelemetry& a);

struct ClassTelemetry {
  std::string name;  // fully qualified "stage.ruleset.class"
  std::uint64_t matched = 0;
  std::uint64_t dropped = 0;
};

inline constexpr Series<ClassTelemetry> kClassSeries[] = {
    {"matched", &ClassTelemetry::matched, SeriesKind::counter,
     "eden_class_matched_total"},
    {"dropped", &ClassTelemetry::dropped, SeriesKind::counter,
     "eden_class_dropped_total"},
};

// Control-plane session health, exported by the session layer
// (src/controlplane). One entry per controller->enclave session.
struct SessionTelemetry : SessionCounts {
  std::string name;
  bool connected = false;
  bool ready = false;
  std::uint64_t agent_boot_id = 0;
  HistogramSnapshot rtt_ns;           // request + heartbeat round trips
  HistogramSnapshot resync_commands;  // journal replay sizes
};

inline constexpr Series<SessionTelemetry> kSessionSeries[] = {
    {"agent_boot_id", &SessionTelemetry::agent_boot_id, SeriesKind::gauge,
     nullptr},
    {"connects", &SessionTelemetry::connects, SeriesKind::counter,
     "eden_session_connects_total"},
    {"connect_failures", &SessionTelemetry::connect_failures,
     SeriesKind::counter, "eden_session_connect_failures_total"},
    {"teardowns", &SessionTelemetry::teardowns, SeriesKind::counter,
     "eden_session_teardowns_total"},
    {"resyncs", &SessionTelemetry::resyncs, SeriesKind::counter,
     "eden_session_resyncs_total"},
    {"last_resync_commands", &SessionTelemetry::last_resync_commands,
     SeriesKind::gauge, nullptr},
    {"requests_sent", &SessionTelemetry::requests_sent, SeriesKind::counter,
     "eden_session_requests_total"},
    {"responses_ok", &SessionTelemetry::responses_ok, SeriesKind::counter,
     "eden_session_responses_ok_total"},
    {"responses_error", &SessionTelemetry::responses_error,
     SeriesKind::counter, "eden_session_responses_error_total"},
    {"request_timeouts", &SessionTelemetry::request_timeouts,
     SeriesKind::counter, "eden_session_request_timeouts_total"},
    {"heartbeats_sent", &SessionTelemetry::heartbeats_sent,
     SeriesKind::counter, "eden_session_heartbeats_sent_total"},
    {"heartbeats_acked", &SessionTelemetry::heartbeats_acked,
     SeriesKind::counter, "eden_session_heartbeats_acked_total"},
    {"liveness_timeouts", &SessionTelemetry::liveness_timeouts,
     SeriesKind::counter, "eden_session_liveness_timeouts_total"},
    {"corrupt_streams", &SessionTelemetry::corrupt_streams,
     SeriesKind::counter, "eden_session_corrupt_streams_total"},
    {"txns_committed", &SessionTelemetry::txns_committed, SeriesKind::counter,
     "eden_session_txns_committed_total"},
    {"txns_aborted", &SessionTelemetry::txns_aborted, SeriesKind::counter,
     "eden_session_txns_aborted_total"},
    {"agent_restarts_seen", &SessionTelemetry::agent_restarts_seen,
     SeriesKind::counter, "eden_session_agent_restarts_total"},
};

struct EnclaveTelemetry : EnclaveCounts {
  std::string enclave;
  bool telemetry_enabled = false;

  // Message-state store section (schema v3).
  StateTelemetry state;

  std::vector<ActionTelemetry> actions;
  std::vector<ClassTelemetry> classes;

  // Host-level series riding along with the enclave snapshot: gauges
  // and counters the enclave itself cannot see (data-plane ring depth,
  // backpressure, pool exhaustion, ...), filled by the agent's
  // host-series hook (telemetry/delta.h DeltaEncoder). Name -> value;
  // *_total names are counters, everything else is a gauge. The health
  // watchdog evaluates threshold rules over these per agent.
  std::vector<std::pair<std::string, double>> host_series;
};

inline constexpr Series<EnclaveTelemetry> kEnclaveSeries[] = {
    {"packets", &EnclaveTelemetry::packets, SeriesKind::counter,
     "eden_enclave_packets_total"},
    {"matched", &EnclaveTelemetry::matched, SeriesKind::counter,
     "eden_enclave_matched_total"},
    {"dropped_by_action", &EnclaveTelemetry::dropped_by_action,
     SeriesKind::counter, "eden_enclave_dropped_total"},
    {"message_entries_created", &EnclaveTelemetry::message_entries_created,
     SeriesKind::counter, "eden_enclave_message_entries_created_total"},
    {"message_entries_evicted", &EnclaveTelemetry::message_entries_evicted,
     SeriesKind::counter, "eden_enclave_message_entries_evicted_total"},
    {"message_entries_expired", &EnclaveTelemetry::message_entries_expired,
     SeriesKind::counter, "eden_enclave_message_entries_expired_total"},
};

// Deployment-wide view: the per-enclave snapshots plus cross-enclave
// merges keyed by action / class name (histogram counts add bucket-wise;
// the controller ships identical programs everywhere, so same-named
// actions are the same function).
struct AggregateTelemetry {
  std::vector<EnclaveTelemetry> enclaves;
  // Session health rides along with the data-path snapshots; callers
  // that run the session layer fill this in (aggregate() leaves it
  // empty).
  std::vector<SessionTelemetry> sessions;
  std::vector<ActionTelemetry> actions;
  std::vector<ClassTelemetry> classes;
  std::uint64_t packets = 0;
  std::uint64_t matched = 0;
  std::uint64_t dropped_by_action = 0;
};

AggregateTelemetry aggregate(std::vector<EnclaveTelemetry> enclaves);

// Pairwise merge of two partial aggregates: enclave and session lists
// concatenate, totals add, per-action and per-class merges combine by
// name. aggregate(all) == fold(merge_aggregates, map(aggregate, any
// partition of all)), which is what lets the collector merge partials
// in a tree instead of serializing every snapshot through one map.
AggregateTelemetry merge_aggregates(AggregateTelemetry a,
                                    AggregateTelemetry b);

// Prometheus text exposition (per-enclave series; histograms with
// cumulative le= buckets).
std::string to_prometheus(const AggregateTelemetry& agg);

// JSON dump: {"schema_version": N, "enclaves": [...], "total": {...}}.
std::string to_json(const AggregateTelemetry& agg);

// One enclave snapshot as a JSON object — the element format of
// to_json's "enclaves" array, exposed for the delta payload encoder
// (telemetry/delta.h), which emits the same shape with diffed values.
void append_enclave_json(std::string& out, const EnclaveTelemetry& e);

}  // namespace eden::telemetry
