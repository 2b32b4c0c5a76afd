// Streaming delta telemetry: the wire format behind get_telemetry_delta.
//
// A full telemetry snapshot for a busy enclave is dominated by series
// that never change between polls. The delta protocol ships only what
// moved: the agent side (DeltaEncoder) keeps the previous snapshot it
// reported on this connection, diffs the fresh snapshot against it,
// and replies with counter increments, bucket-wise histogram
// increments and changed host-series values. The controller side
// (DeltaDecoder) folds each delta into its last-known snapshot, so
// aggregate() runs over materialized snapshots and never needs to know
// deltas exist.
//
// Epoch/seq handshake — the request echoes the (epoch, seq) the
// controller last decoded; the agent compares it against its encoder:
//
//   match    -> delta against the encoder's snapshot, seq advances by 1
//   mismatch -> full snapshot stamped with a fresh process-global
//               epoch; the controller adopts it wholesale
//
// Any divergence — dropped response, duplicated request, agent restart
// (a new agent means a new encoder), counter regression after a
// clear_all + reinstall — lands in the mismatch arm on the next poll,
// so the protocol self-heals with one full resync and needs no acks.
// Deltas never carry bytecode profiles; those refresh only on full
// snapshots (they are bounded and sampled, not per-series counters, so
// diffing them buys nothing).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/snapshot.h"

namespace eden::telemetry {

// One get_telemetry_delta reply. `full` distinguishes a complete
// snapshot (replace everything, adopt epoch/seq) from an incremental
// one (enclave entries hold increments; absent enclaves are
// unchanged). JSON shape: {"schema_version":N,"epoch":E,"seq":S,
// "full":bool,"enclaves":[...]} with enclaves in the exact
// append_enclave_json element format.
struct DeltaPayload {
  int schema_version = kTelemetrySchemaVersion;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  bool full = true;
  std::vector<EnclaveTelemetry> enclaves;
};

// Diff of two snapshots of the same enclave: counter and bucket-wise
// histogram increments, actions/classes present only when they moved
// (new entries ride along whole — they diff against zero), host_series
// restricted to changed keys but carrying ABSOLUTE values (gauges can
// go down). Returns nullopt when any counter or bucket regressed —
// e.g. an action was reinstalled after clear_all — which the caller
// must answer with a full resync. An empty optional'd EnclaveTelemetry
// with everything zero means "unchanged"; use delta_is_empty() to
// decide whether to omit it from the payload.
std::optional<EnclaveTelemetry> delta_between(const EnclaveTelemetry& prev,
                                              const EnclaveTelemetry& now);

// True when a delta produced by delta_between carries no change worth
// shipping (all counter diffs zero, no action/class/host entries).
bool delta_is_empty(const EnclaveTelemetry& delta);

// Folds a delta (as produced by delta_between) into the last-known
// snapshot: counters add, histograms merge bucket-wise, actions and
// classes accumulate by name (new names append), host_series values
// replace. Profiles keep the base's contents.
void apply_delta(EnclaveTelemetry& base, const EnclaveTelemetry& delta);

std::string encode_delta_payload(const DeltaPayload& p);

// Parses an encoded payload. Throws std::runtime_error on malformed
// JSON (same contract as parse_telemetry_json).
DeltaPayload parse_delta_payload(const std::string& text);

// Agent-side half of the protocol, DeltaDecoder's partner: the snapshot
// as last reported on one connection plus the (epoch, seq) stamp the
// controller must echo to earn a delta. One encoder per connection — a reconnect
// or agent restart gets a new encoder, whose first reply is
// necessarily a full snapshot under a fresh process-global epoch (so a
// stale controller echo can never alias a new encoder's stamps).
class DeltaEncoder {
 public:
  // Optional hook filling EnclaveTelemetry::host_series with host-level
  // gauges/counters the enclave cannot see (data-plane ring depth, pool
  // exhaustion, ...). Called once per poll, before diffing, so host
  // series ride the same delta machinery.
  using HostSeriesFn =
      std::function<std::vector<std::pair<std::string, double>>()>;
  void set_host_series(HostSeriesFn fn) { host_series_ = std::move(fn); }

  // Answers one get_telemetry_delta request with `now`, a fresh
  // snapshot: a delta when (epoch, seq) matches the encoder (and no
  // counter regressed), else a full snapshot under a fresh epoch.
  // Returns the encoded DeltaPayload JSON.
  std::string encode(EnclaveTelemetry now, std::uint64_t epoch,
                     std::uint64_t seq);

  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t seq() const { return seq_; }

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t seq_ = 0;
  bool primed_ = false;  // prev_ holds the last reported snapshot
  EnclaveTelemetry prev_;
  HostSeriesFn host_series_;
};

// Controller-side reassembly: one DeltaDecoder per agent connection.
// Feed every get_telemetry_delta reply through apply(); snapshots()
// is always the materialized full view (possibly stale if the last
// apply was rejected). epoch()/seq() are what the next request must
// echo.
class DeltaDecoder {
 public:
  struct Stats {
    std::uint64_t full_resyncs = 0;   // full payloads adopted
    std::uint64_t deltas_applied = 0; // in-sequence deltas folded in
    std::uint64_t rejected = 0;       // out-of-sequence deltas dropped
  };

  // Returns true when the payload advanced the decoder (full snapshot
  // adopted, or in-sequence delta folded in). A false return means the
  // delta did not match (epoch_, seq_ + 1); the decoder keeps its
  // previous state and the next request's stale echo forces the agent
  // into the full-resync arm.
  bool apply(const DeltaPayload& p);

  // Parse + apply. Returns false on malformed JSON as well.
  bool apply_json(const std::string& text);

  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t seq() const { return seq_; }
  bool synced() const { return synced_; }
  const std::vector<EnclaveTelemetry>& snapshots() const { return snapshots_; }
  const Stats& stats() const { return stats_; }

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t seq_ = 0;
  bool synced_ = false;  // have we ever adopted a full snapshot?
  std::vector<EnclaveTelemetry> snapshots_;
  Stats stats_;
};

}  // namespace eden::telemetry
