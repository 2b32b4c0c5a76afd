#include "hoststack/dataplane.h"

#include <string>
#include <thread>

#include "telemetry/flight_recorder.h"
#include "util/hash.h"
#include "util/prefetch.h"

#if defined(__linux__)
#include <ctime>
#endif
#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace eden::hoststack {

namespace {

// CPU time of the calling thread: the denominator of a worker's
// contention-free packet rate. Preemption while another thread holds
// the core does not inflate it, which is what makes the scaling
// benchmark meaningful even on an oversubscribed machine.
std::uint64_t thread_cpu_ns() {
#if defined(__linux__)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Empty-ring polls before a worker yields the core (keeps latency low
// on dedicated cores without starving oversubscribed ones).
constexpr std::uint32_t kIdleSpins = 256;

// Worker i advances stripe i of every message store's timer wheels
// (Enclave::advance_message_expiry(i, workers)) once per this many
// batches, and on every idle yield, so idle-message expiry makes
// progress even when that worker's shard of the traffic goes quiet.
// Only meaningful when the enclave's message_idle_timeout_ns is set.
constexpr std::uint32_t kExpiryEveryBatches = 64;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

struct DataPlane::Worker {
  Worker(const DataPlaneConfig& config)
      : in(config.ring_capacity),
        // Egress holds a full ingress ring plus one in-flight batch, so
        // a worker only stalls on completion push when the producer has
        // stopped draining entirely.
        out(config.ring_capacity + config.max_batch) {}

  SpscRing<netsim::PacketPtr> in;
  SpscRing<netsim::PacketPtr> out;
  std::thread thread;
  std::size_t id = 0;

  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> max_depth{0};

  // The exported eden_dataplane_*_total{worker} series; stats() reads
  // them back.
  telemetry::Counter* enqueued_ctr = nullptr;  // producer writes
  telemetry::Counter* processed_ctr = nullptr;
  telemetry::Counter* dropped_ctr = nullptr;
  telemetry::Gauge* depth_gauge = nullptr;
  telemetry::Histogram* batch_hist = nullptr;
};

DataPlane::DataPlane(core::Enclave& enclave, DataPlaneConfig config)
    : enclave_(enclave), config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  pool_ = config_.pool != nullptr ? config_.pool
                                  : &netsim::default_packet_pool();
  backpressure_ctr_ =
      &metrics_.counter("eden_dataplane_submit_backpressure_total");
  pool_slots_gauge_ = &metrics_.gauge("eden_pool_slots");
  pool_in_use_gauge_ = &metrics_.gauge("eden_pool_in_use");
  pool_exhausted_ctr_ = &metrics_.counter("eden_pool_exhausted_total");
  pool_heap_fallback_ctr_ =
      &metrics_.counter("eden_pool_heap_fallback_total");
  pool_refills_ctr_ = &metrics_.counter("eden_pool_magazine_refills_total");
  pool_flushes_ctr_ = &metrics_.counter("eden_pool_magazine_flushes_total");
  burst_scratch_.resize(config_.workers);
  burst_index_.resize(config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>(config_);
    w->id = i;
    const telemetry::Labels labels{{"worker", std::to_string(i)}};
    w->enqueued_ctr =
        &metrics_.counter("eden_dataplane_enqueued_total", labels);
    w->processed_ctr =
        &metrics_.counter("eden_dataplane_processed_total", labels);
    w->dropped_ctr =
        &metrics_.counter("eden_dataplane_dropped_total", labels);
    w->depth_gauge = &metrics_.gauge("eden_dataplane_ring_depth", labels);
    w->batch_hist = &metrics_.histogram("eden_dataplane_batch_size", labels);
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_main(*worker); });
  }
}

DataPlane::~DataPlane() { stop(nullptr); }

std::size_t DataPlane::shard_of(std::uint64_t key, std::size_t workers) {
  // Message keys are often sequential counters, so the raw key is
  // whitened (util::mix64, the same finalizer the FlowStore shards on)
  // before the reduction or adjacent messages would stripe instead of
  // spread.
  return workers < 2 ? 0
                     : static_cast<std::size_t>(util::mix64(key) % workers);
}

std::size_t DataPlane::shard_for(const netsim::Packet& p) const {
  return shard_of(core::Enclave::steering_key(p), workers_.size());
}

bool DataPlane::submit(netsim::PacketPtr& packet) {
  Worker& w = *workers_[shard_for(*packet)];
  if (!w.in.push(std::move(packet))) {
    backpressure_ctr_->inc();
    return false;
  }
  ++submitted_;
  w.enqueued_ctr->inc();
  return true;
}

std::size_t DataPlane::submit_burst(std::span<netsim::PacketPtr> burst) {
  // Stage per shard in burst order, then one bulk transfer per touched
  // ring. The staging vectors keep their capacity across calls, so the
  // steady state allocates nothing.
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (!burst[i]) continue;
    const std::size_t shard = shard_for(*burst[i]);
    burst_scratch_[shard].push_back(std::move(burst[i]));
    burst_index_[shard].push_back(i);
  }
  std::size_t consumed = 0;
  for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
    auto& staged = burst_scratch_[shard];
    if (staged.empty()) continue;
    Worker& w = *workers_[shard];
    const std::size_t pushed = w.in.push_bulk(staged.data(), staged.size());
    if (pushed != 0) {
      consumed += pushed;
      submitted_ += pushed;
      w.enqueued_ctr->inc(pushed);
    }
    const std::size_t rejected = staged.size() - pushed;
    if (rejected != 0) {
      backpressure_ctr_->inc(rejected);
      // Hand the leftovers back to their original burst slots.
      for (std::size_t j = pushed; j < staged.size(); ++j) {
        burst[burst_index_[shard][j]] = std::move(staged[j]);
      }
    }
    staged.clear();
    burst_index_[shard].clear();
  }
  return consumed;
}

std::size_t DataPlane::drain_completions(const CompletionFn& fn) {
  if (drain_scratch_.size() < config_.max_batch) {
    drain_scratch_.resize(config_.max_batch);
  }
  std::size_t total = 0;
  for (auto& w : workers_) {
    for (;;) {
      const std::size_t n =
          w->out.pop_bulk(drain_scratch_.data(), config_.max_batch);
      if (n == 0) break;
      total += n;
      for (std::size_t i = 0; i < n; ++i) {
        if (fn) fn(std::move(drain_scratch_[i]));
        drain_scratch_[i].reset();
      }
    }
  }
  drained_ += total;
  return total;
}

void DataPlane::flush(const CompletionFn& fn) {
  while (pending() > 0) {
    if (drain_completions(fn) == 0) {
      cpu_pause();
      std::this_thread::yield();
    }
  }
}

void DataPlane::stop(const CompletionFn& fn) {
  if (stopped_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    // A worker blocked pushing a completion needs the egress ring
    // drained to exit; keep pumping until its thread joins.
    while (true) {
      drain_completions(fn);
      if (w->in.empty() && w->out.empty()) break;
      std::this_thread::yield();
    }
    if (w->thread.joinable()) w->thread.join();
    drain_completions(fn);  // anything pushed between the checks
  }
  stopped_ = true;
}

void DataPlane::worker_main(Worker& w) {
  std::vector<netsim::PacketPtr> batch(config_.max_batch);
  std::uint32_t idle = 0;
  std::uint32_t batches_since_expiry = 0;
  // Each worker owns stripe w.id of every message store's timer wheels:
  // the stripe count equals the worker count, so the whole wheel is
  // covered with no two workers contending on a shard.
  const auto advance_expiry = [&] {
    enclave_.advance_message_expiry(w.id, workers_.size());
    batches_since_expiry = 0;
  };
  for (;;) {
    const std::size_t n = w.in.pop_bulk(batch.data(), config_.max_batch);
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire) && w.in.empty()) break;
      if (++idle >= kIdleSpins) {
        idle = 0;
        advance_expiry();  // quiet shards still age their messages out
        std::this_thread::yield();
      } else {
        cpu_pause();
      }
      continue;
    }
    idle = 0;
    if (++batches_since_expiry >= kExpiryEveryBatches) advance_expiry();

    // Warm the front of the batch before process_batch touches it; the
    // enclave's own loop prefetches the rest ahead of itself.
    const std::size_t warm = n < static_cast<std::size_t>(util::kPrefetchAhead)
                                 ? n
                                 : static_cast<std::size_t>(util::kPrefetchAhead);
    for (std::size_t i = 0; i < warm; ++i) {
      util::prefetch_write(batch[i].get());
    }

    const std::uint64_t depth = w.in.size() + n;  // at the drain point
    if (depth > w.max_depth.load(std::memory_order_relaxed)) {
      w.max_depth.store(depth, std::memory_order_relaxed);
    }
    w.depth_gauge->set(static_cast<std::int64_t>(depth));
    w.batch_hist->record(n);

    const std::uint64_t t0 = thread_cpu_ns();
    const std::size_t kept =
        enclave_.process_batch(std::span(batch.data(), n));
    w.busy_ns.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);

    w.batches.fetch_add(1, std::memory_order_relaxed);
    w.processed_ctr->inc(n);
    if (n != kept) w.dropped_ctr->inc(n - kept);

    // Dropped packets travel the completion ring too (drop_mark set) so
    // the producer's accounting never depends on racing a worker
    // counter. One bulk transfer per batch; the egress ring is sized to
    // make a stall here rare.
    std::size_t pushed = 0;
    while (pushed < n) {
      pushed += w.out.push_bulk(batch.data() + pushed, n - pushed);
      if (pushed < n) {
        cpu_pause();
        std::this_thread::yield();
      }
    }
  }
}

DataPlaneStats DataPlane::stats() const {
  DataPlaneStats s;
  s.submitted = submitted_;
  s.drained = drained_;
  s.submit_backpressure = backpressure_ctr_->value();
  std::uint64_t total = 0;
  std::uint64_t max_enq = 0;
  for (const auto& w : workers_) {
    DataPlaneWorkerStats ws;
    ws.enqueued = w->enqueued_ctr->value();
    ws.processed = w->processed_ctr->value();
    ws.dropped = w->dropped_ctr->value();
    ws.batches = w->batches.load(std::memory_order_relaxed);
    ws.busy_ns = w->busy_ns.load(std::memory_order_relaxed);
    ws.max_ring_depth = w->max_depth.load(std::memory_order_relaxed);
    total += ws.enqueued;
    if (ws.enqueued > max_enq) max_enq = ws.enqueued;
    s.workers.push_back(ws);
  }
  if (total > 0 && !workers_.empty()) {
    const double mean =
        static_cast<double>(total) / static_cast<double>(workers_.size());
    s.imbalance = static_cast<double>(max_enq) / mean;
  }
  s.pool = pool_->stats();
  sync_pool_metrics(s.pool);
  return s;
}

void DataPlane::sync_pool_metrics(const netsim::PacketPoolStats& ps) const {
  std::lock_guard<std::mutex> lock(pool_sync_mu_);
  pool_slots_gauge_->set(static_cast<std::int64_t>(ps.slots_materialized));
  pool_in_use_gauge_->set(static_cast<std::int64_t>(ps.in_use));
  const auto bump = [](telemetry::Counter* ctr, std::uint64_t now,
                       std::uint64_t& last) {
    if (now > last) ctr->inc(now - last);
    last = now;
  };
  // Pool exhaustion is rare enough (and serious enough) to journal:
  // the flight recorder gets one event per sync that saw new
  // exhaustions, carrying the delta and the running total.
  if (ps.exhausted_total > pool_synced_.exhausted_total) {
    telemetry::FlightRecorder::instance().record(
        telemetry::FlightEventType::pool_exhausted, "dataplane",
        static_cast<std::int64_t>(ps.exhausted_total -
                                  pool_synced_.exhausted_total),
        static_cast<std::int64_t>(ps.exhausted_total));
  }
  bump(pool_exhausted_ctr_, ps.exhausted_total, pool_synced_.exhausted_total);
  bump(pool_heap_fallback_ctr_, ps.heap_fallback_total,
       pool_synced_.heap_fallback_total);
  bump(pool_refills_ctr_, ps.magazine_refills, pool_synced_.magazine_refills);
  bump(pool_flushes_ctr_, ps.magazine_flushes, pool_synced_.magazine_flushes);
}

}  // namespace eden::hoststack
