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

struct ActionTelemetry {
  std::string name;
  bool native = false;
  std::uint64_t executions = 0;
  std::uint64_t errors = 0;  // the sum of errors_by_status
  std::uint64_t steps = 0;  // weighted interpreter steps (bytecode only)
  // errors split by lang::ExecStatus (the ok slot stays zero).
  std::array<std::uint64_t, lang::kNumExecStatus> errors_by_status{};
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

struct ClassTelemetry {
  std::string name;  // fully qualified "stage.ruleset.class"
  std::uint64_t matched = 0;
  std::uint64_t dropped = 0;
};

// Control-plane session health, exported by the session layer
// (src/controlplane). One entry per controller->enclave session;
// counters mirror controlplane::SessionStats.
struct SessionTelemetry {
  std::string name;
  bool connected = false;
  bool ready = false;
  std::uint64_t agent_boot_id = 0;
  std::uint64_t connects = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t last_resync_commands = 0;
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
  std::uint64_t agent_restarts_seen = 0;
  HistogramSnapshot rtt_ns;           // request + heartbeat round trips
  HistogramSnapshot resync_commands;  // journal replay sizes
};

struct EnclaveTelemetry {
  std::string enclave;
  bool telemetry_enabled = false;

  // EnclaveStats mirror.
  std::uint64_t packets = 0;
  std::uint64_t matched = 0;
  std::uint64_t dropped_by_action = 0;
  std::uint64_t message_entries_created = 0;
  std::uint64_t message_entries_evicted = 0;
  std::uint64_t message_entries_expired = 0;

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
