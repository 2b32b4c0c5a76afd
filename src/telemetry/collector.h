// Fleet-scale telemetry collection: the controller's one read path.
//
// Polling one enclave at a time — fetch, parse, merge — is fine for a
// handful of enclaves and hopeless for a thousand. The
// TelemetryCollector splits its sources into contiguous chunks, one
// per pool worker; each worker fetches + decodes its chunk and builds
// a chunk-local partial aggregate, and the main thread then folds the
// partials pairwise (merge_aggregates), so no snapshot ever funnels
// through a single per-session map. Every source speaks the delta
// protocol (telemetry/delta.h) — each owns a DeltaDecoder whose
// (epoch, seq) is echoed in the next request — so a steady-state poll
// moves O(changed series) bytes per agent. Local enclaves
// (core::Controller::telemetry_sources) and remote sessions answer the
// same way.
//
// A source that stops answering never blocks the cycle: its fetch
// returns empty, the collector keeps its last-known snapshot in the
// aggregate, bumps consecutive_failures and flags it stale once
// stale_after_ns passes without a success. The health watchdog
// (telemetry/health.h) turns those flags plus per-series threshold
// rules into ok/degraded/critical states.
//
// Threading contract: poll() is driven by one control thread; the
// worker pool only runs inside poll(), and a given source is always
// handled by the same chunk, so per-source state (decoder, status,
// retention rings) needs no locks. Everything else (statuses(),
// latest(), rate_per_sec(), append_prometheus()) must be called from
// the control thread between polls.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/delta.h"
#include "telemetry/snapshot.h"

namespace eden::telemetry {

// One polled agent. The fetch callback returns the payload text, empty
// on unreachable; it is invoked from a pool worker, but always the
// same worker per cycle, so a closure over a single-threaded session
// (controlplane::EnclaveSession + its pump) is safe.
struct CollectorSource {
  std::string name;
  // Delta poll: echoes (epoch, seq), returns DeltaPayload JSON.
  std::function<std::string(std::uint64_t epoch, std::uint64_t seq)>
      fetch_delta;
  // Optional session-health hook, sampled once per cycle on the
  // source's worker.
  std::function<SessionTelemetry()> session;
};

struct CollectorConfig {
  std::size_t threads = 4;         // pool width == number of chunks
  std::size_t retention_depth = 16;  // points kept per (agent, series)
  // No successful poll for this long => AgentStatus::stale.
  std::uint64_t stale_after_ns = 5'000'000'000;
};

// Per-agent poll health, refreshed every cycle.
struct AgentStatus {
  std::string name;
  bool reachable = false;  // last poll returned a payload
  bool stale = false;      // no success within stale_after_ns
  std::uint64_t last_success_ns = 0;
  std::uint64_t last_attempt_ns = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t polls = 0;
  std::uint64_t failures = 0;
  std::uint64_t full_resyncs = 0;      // DeltaDecoder stats mirror
  std::uint64_t deltas_applied = 0;
  std::uint64_t rejected_payloads = 0;
  std::uint64_t last_payload_bytes = 0;
  std::uint64_t payload_bytes_total = 0;
};

struct SeriesPoint {
  std::uint64_t t_ns = 0;
  double value = 0;
};

class TelemetryCollector {
 public:
  using ClockFn = std::function<std::uint64_t()>;

  TelemetryCollector(CollectorConfig config, ClockFn clock);
  ~TelemetryCollector();
  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  // Registration happens before polling starts; returns the source
  // index used by the per-source accessors below.
  std::size_t add_source(CollectorSource source);
  std::size_t source_count() const { return sources_.size(); }

  // One collection cycle: fan out, decode, refresh statuses and
  // retention rings, tree-merge the partials. Returns the merged view
  // (also available as latest() until the next poll). Unreachable
  // agents contribute their last-known snapshots.
  const AggregateTelemetry& poll();

  const AggregateTelemetry& latest() const { return latest_; }
  std::uint64_t last_poll_ns() const { return last_poll_ns_; }
  std::uint64_t polls() const { return polls_; }

  const AgentStatus& status(std::size_t i) const;
  std::vector<AgentStatus> statuses() const;

  // Per-agent series read-back for the watchdog and eden-stat --watch.
  // Series names: enclave totals ("packets", "matched",
  // "dropped_by_action", "action_errors"), host series keys verbatim,
  // session counters ("session.liveness_timeouts", ...), and
  // collector pseudo-series resolved from AgentStatus
  // ("collector.stale", "collector.consecutive_failures").
  std::optional<double> latest_value(std::size_t i,
                                     const std::string& series) const;
  // Rate per second across the retention ring (first to last point);
  // nullopt with fewer than two points or no elapsed time.
  std::optional<double> rate_per_sec(std::size_t i,
                                     const std::string& series) const;
  const std::deque<SeriesPoint>* series_history(
      std::size_t i, const std::string& series) const;

  // eden_collector_* exposition rows, appended to `out`.
  void append_prometheus(std::string& out) const;

 private:
  struct SourceState {
    CollectorSource source;
    DeltaDecoder decoder;
    AgentStatus status;
    // Snapshots currently contributing to the aggregate: the decoder's
    // materialized view as of the last payload it accepted.
    std::vector<EnclaveTelemetry> snapshots;
    bool has_session = false;
    SessionTelemetry session;
    std::map<std::string, std::deque<SeriesPoint>> rings;
  };

  void poll_source(SourceState& s, std::uint64_t now);
  void record_point(SourceState& s, const std::string& series, double value,
                    std::uint64_t now);
  void record_series(SourceState& s, std::uint64_t now);
  void run_chunks(std::size_t chunks);
  void worker_loop(std::size_t worker);

  CollectorConfig config_;
  ClockFn clock_;
  std::vector<std::unique_ptr<SourceState>> sources_;
  AggregateTelemetry latest_;
  std::uint64_t last_poll_ns_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t last_poll_duration_ns_ = 0;

  // Worker pool. Workers sleep between cycles; run_chunks() stores the
  // per-chunk closures, bumps the generation and waits for all chunks
  // to report done.
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::function<void()>> chunk_tasks_;
};

}  // namespace eden::telemetry
