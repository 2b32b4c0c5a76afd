#include "telemetry/span.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/metrics.h"

namespace eden::telemetry {

const char* hop_name(Hop hop) {
  switch (hop) {
    case Hop::stage_classify: return "stage_classify";
    case Hop::host_enqueue: return "host_enqueue";
    case Hop::host_dequeue: return "host_dequeue";
    case Hop::tb_wait: return "tb_wait";
    case Hop::enclave_match: return "enclave_match";
    case Hop::action_exec: return "action_exec";
    case Hop::enclave_drop: return "enclave_drop";
    case Hop::nic_tx: return "nic_tx";
    case Hop::nic_drop: return "nic_drop";
    case Hop::cp_txn_begin: return "cp_txn_begin";
    case Hop::cp_txn_commit: return "cp_txn_commit";
    case Hop::cp_txn_abort: return "cp_txn_abort";
    case Hop::cp_send: return "cp_send";
    case Hop::cp_response: return "cp_response";
    case Hop::cp_timeout: return "cp_timeout";
    case Hop::cp_teardown: return "cp_teardown";
    case Hop::cp_backoff: return "cp_backoff";
    case Hop::cp_resync: return "cp_resync";
    case Hop::cp_poll: return "cp_poll";
    case Hop::cp_agent_apply: return "cp_agent_apply";
    case Hop::cp_agent_publish: return "cp_agent_publish";
    case Hop::cp_fault_drop: return "cp_fault_drop";
    case Hop::cp_fault_delay: return "cp_fault_delay";
    case Hop::cp_fault_dup: return "cp_fault_dup";
    case Hop::cp_fault_truncate: return "cp_fault_truncate";
    case Hop::cp_fault_disconnect: return "cp_fault_disconnect";
  }
  return "unknown";
}

SpanCollector::SpanCollector() = default;

SpanCollector& SpanCollector::instance() {
  static SpanCollector collector;
  return collector;
}

void SpanCollector::enable(std::uint32_t sample_every,
                           std::size_t lane_capacity) {
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    if (lane_capacity != 0 && lane_capacity != lane_capacity_) {
      lane_capacity_ = lane_capacity;
      for (auto& lane : lanes_) {
        lane->ring.assign(lane_capacity_, SpanEvent{});
        lane->count.store(0, std::memory_order_relaxed);
      }
    }
  }
  sample_every_.store(sample_every, std::memory_order_relaxed);
}

void SpanCollector::set_clock(ClockFn fn, void* ctx) {
  clock_ctx_.store(ctx, std::memory_order_relaxed);
  clock_fn_.store(fn, std::memory_order_relaxed);
}

std::int64_t SpanCollector::now_ns() const {
  const ClockFn fn = clock_fn_.load(std::memory_order_relaxed);
  if (fn != nullptr) {
    return fn(clock_ctx_.load(std::memory_order_relaxed));
  }
  return static_cast<std::int64_t>(ticks_to_ns(now_ticks()));
}

SpanCollector::Lane& SpanCollector::lane_for_this_thread() {
  thread_local Lane* lane = nullptr;
  if (lane == nullptr) {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->ring.assign(lane_capacity_, SpanEvent{});
    lane = lanes_.back().get();
  }
  return *lane;
}

void SpanCollector::record(std::int64_t trace_id, Hop hop,
                           std::int64_t ts_ns, std::int64_t dur_ns,
                           std::int64_t aux, std::int64_t span_id,
                           std::int64_t parent_id) {
  if (trace_id == 0) return;
  Lane& lane = lane_for_this_thread();
  const std::uint64_t n = lane.count.load(std::memory_order_relaxed);
  SpanEvent& slot = lane.ring[n % lane.ring.size()];
  slot.trace_id = trace_id;
  slot.ts_ns = ts_ns;
  slot.dur_ns = dur_ns;
  slot.aux = aux;
  slot.span_id = span_id;
  slot.parent_id = parent_id;
  slot.hop = hop;
  slot.lane = static_cast<std::uint8_t>(
      std::min<std::size_t>(internal::thread_slot(), 255));
  lane.count.store(n + 1, std::memory_order_release);
}

std::vector<SpanEvent> SpanCollector::snapshot() const {
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const auto& lane : lanes_) {
    const std::uint64_t n = lane->count.load(std::memory_order_acquire);
    const std::uint64_t cap = lane->ring.size();
    const std::uint64_t keep = std::min(n, cap);
    for (std::uint64_t i = n - keep; i < n; ++i) {
      out.push_back(lane->ring[i % cap]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.trace_id < b.trace_id;
                   });
  return out;
}

std::uint64_t SpanCollector::total_recorded() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const auto& lane : lanes_) {
    total += lane->count.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t SpanCollector::overwritten() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const auto& lane : lanes_) {
    const std::uint64_t n = lane->count.load(std::memory_order_acquire);
    const std::uint64_t cap = lane->ring.size();
    if (n > cap) total += n - cap;
  }
  return total;
}

void SpanCollector::reset() {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (auto& lane : lanes_) {
    lane->ring.assign(lane_capacity_, SpanEvent{});
    lane->count.store(0, std::memory_order_relaxed);
  }
  next_id_.store(1, std::memory_order_relaxed);
}

std::string to_trace_event_json(const std::vector<SpanEvent>& events) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[384];
  char links[96];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    // Causal links only appear when set, so data-plane dumps look
    // exactly as they did before the control plane learned to trace.
    links[0] = '\0';
    if (e.span_id != 0) {
      std::snprintf(links, sizeof links, ",\"span\":%lld,\"parent\":%lld",
                    static_cast<long long>(e.span_id),
                    static_cast<long long>(e.parent_id));
    }
    // Chrome trace timestamps are microseconds (doubles, so sub-us
    // resolution survives). Duration slices end at ts_ns; rewind.
    const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
    const double ts_us =
        static_cast<double>(e.ts_ns) / 1000.0 - (e.dur_ns > 0 ? dur_us : 0.0);
    if (e.dur_ns > 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%lld,"
                    "\"args\":{\"trace_id\":%lld,\"aux\":%lld%s}}",
                    hop_name(e.hop), ts_us, dur_us,
                    static_cast<long long>(e.trace_id),
                    static_cast<long long>(e.trace_id),
                    static_cast<long long>(e.aux), links);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                    "\"pid\":1,\"tid\":%lld,"
                    "\"args\":{\"trace_id\":%lld,\"aux\":%lld%s}}",
                    hop_name(e.hop), ts_us,
                    static_cast<long long>(e.trace_id),
                    static_cast<long long>(e.trace_id),
                    static_cast<long long>(e.aux), links);
    }
    out += buf;
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "],\"displayTimeUnit\":\"ns\",\"schema_version\":";
  out += std::to_string(kSpanSchemaVersion);
  out += "}\n";
  return out;
}

}  // namespace eden::telemetry
