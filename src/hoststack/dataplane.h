// The sharded, batched egress data plane: Eden's enclave sits on every
// packet of every host (Section 3.4, Figure 5), so serving heavy
// traffic means running it on every core, not just making it fast on
// one. The DataPlane owns N worker threads; each worker owns one SPSC
// ingress ring and one SPSC completion ring. Packets are steered to a
// worker by an RSS-style hash of the flow/message key
// (core::Enclave::steering_key), so every packet of one message lands
// on one worker and per-message ordering — required by process()'s
// message-lifetime state contract — is preserved end to end:
//
//   submit() FIFO  ->  worker ring FIFO  ->  process_batch() (order-
//   preserving within a message)  ->  completion ring FIFO.
//
// Workers drain their ring in batches through Enclave::process_batch,
// which acquires the RCU rule-state snapshot once per batch and
// amortizes message locking, state copies and telemetry pacing across
// it. Completions (dropped packets included, with drop_mark set) are
// handed back to the submitting thread via drain_completions(), keeping
// the NIC/scheduler side single-threaded.
//
// Threading contract: submit(), drain_completions(), flush(), pending()
// and stop() must all be called from one thread (the producer); the
// workers are internal. stats() and metrics() may be called from any
// thread (counters are relaxed atomics).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/enclave.h"
#include "hoststack/spsc_ring.h"
#include "netsim/packet.h"
#include "netsim/packet_pool.h"
#include "telemetry/metrics.h"

namespace eden::hoststack {

struct DataPlaneConfig {
  // Worker thread count; the constructor clamps it to at least 1.
  std::size_t workers = 1;
  // Per-worker ingress ring capacity (rounded up to a power of two).
  // submit() reports backpressure when a shard's ring is full.
  std::size_t ring_capacity = 1024;
  // Upper bound on packets per process_batch drain.
  std::size_t max_batch = 64;
  // Packet pool whose eden_pool_* stats this data plane mirrors into
  // its metrics registry (stats() syncs them). nullptr = the process-
  // wide default pool behind make_packet().
  netsim::PacketPool* pool = nullptr;
};

struct DataPlaneWorkerStats {
  std::uint64_t enqueued = 0;   // packets steered to this worker
  std::uint64_t processed = 0;  // packets through process_batch
  std::uint64_t dropped = 0;    // of those, dropped by an action
  std::uint64_t batches = 0;    // process_batch invocations
  // CPU time (CLOCK_THREAD_CPUTIME_ID) spent inside process_batch.
  // processed / busy_ns is the worker's contention-free packet rate,
  // which is what the scaling benchmark sums across workers.
  std::uint64_t busy_ns = 0;
  std::uint64_t max_ring_depth = 0;
};

struct DataPlaneStats {
  std::vector<DataPlaneWorkerStats> workers;
  std::uint64_t submitted = 0;  // accepted by submit()
  std::uint64_t drained = 0;    // handed back via drain_completions()
  std::uint64_t submit_backpressure = 0;  // submit() full-ring rejections
  // max / mean per-worker enqueued count; 1.0 = perfectly even steering.
  double imbalance = 0.0;
  // Snapshot of the packet pool feeding this data plane.
  netsim::PacketPoolStats pool;
};

class DataPlane {
 public:
  using CompletionFn = std::function<void(netsim::PacketPtr)>;

  DataPlane(core::Enclave& enclave, DataPlaneConfig config);
  ~DataPlane();
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  // The steering function, exposed so tests can craft adversarial key
  // distributions: splitmix64 finalizer over the steering key, reduced
  // to a shard.
  static std::size_t shard_of(std::uint64_t key, std::size_t workers);
  std::size_t shard_for(const netsim::Packet& p) const;

  // Steers the packet to its shard's ring. On success the pointer is
  // consumed and true is returned. On backpressure (that shard's ring
  // is full) `packet` is left intact and false is returned — the caller
  // should drain_completions() and retry.
  bool submit(netsim::PacketPtr& packet);

  // Burst submit: steers every packet of `burst` to its shard and
  // enqueues per shard with one bulk ring transfer (one release store
  // per touched ring instead of one per packet). Consumed entries are
  // reset to nullptr; entries whose shard ring was full are left intact
  // in place (counted as backpressure) so the caller can drain
  // completions and resubmit exactly those. Per-shard FIFO order — the
  // ordering contract's currency — is the burst's own order. Returns
  // how many were consumed.
  std::size_t submit_burst(std::span<netsim::PacketPtr> burst);

  // Hands every completed packet (drop_mark set on enclave drops) to
  // `fn`, in per-worker FIFO order. Returns how many were delivered.
  std::size_t drain_completions(const CompletionFn& fn);

  // Packets accepted by submit() and not yet handed back.
  std::uint64_t pending() const { return submitted_ - drained_; }

  // Drains until every submitted packet has been handed back.
  void flush(const CompletionFn& fn);

  // Stops the workers: each finishes whatever is left in its ingress
  // ring first. Residual completions are delivered to `fn` (or
  // discarded when null). Idempotent; the destructor calls stop({}).
  void stop(const CompletionFn& fn = nullptr);

  DataPlaneStats stats() const;

  // eden_dataplane_* series (per-worker counters, ring-depth gauges,
  // batch-size histograms) and the mirrored eden_pool_* series.
  telemetry::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Worker;

  void worker_main(Worker& w);

  void sync_pool_metrics(const netsim::PacketPoolStats& ps) const;

  core::Enclave& enclave_;
  DataPlaneConfig config_;
  netsim::PacketPool* pool_ = nullptr;
  telemetry::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  // Producer-side accounting (single-threaded by contract).
  std::uint64_t submitted_ = 0;
  std::uint64_t drained_ = 0;
  telemetry::Counter* backpressure_ctr_ = nullptr;
  std::vector<netsim::PacketPtr> drain_scratch_;
  // submit_burst per-shard staging (packet + original burst index).
  std::vector<std::vector<netsim::PacketPtr>> burst_scratch_;
  std::vector<std::vector<std::size_t>> burst_index_;
  // eden_pool_* mirroring: counters are monotonic, so stats() bumps
  // them by the delta since the last sync. Mutex because stats() is
  // any-thread by contract.
  mutable std::mutex pool_sync_mu_;
  mutable netsim::PacketPoolStats pool_synced_;
  telemetry::Gauge* pool_slots_gauge_ = nullptr;
  telemetry::Gauge* pool_in_use_gauge_ = nullptr;
  telemetry::Counter* pool_exhausted_ctr_ = nullptr;
  telemetry::Counter* pool_heap_fallback_ctr_ = nullptr;
  telemetry::Counter* pool_refills_ctr_ = nullptr;
  telemetry::Counter* pool_flushes_ctr_ = nullptr;
};

}  // namespace eden::hoststack
