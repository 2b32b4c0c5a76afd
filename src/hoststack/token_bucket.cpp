#include "hoststack/token_bucket.h"

#include <algorithm>

#include "telemetry/span.h"

namespace eden::hoststack {

TokenBucket::TokenBucket(netsim::Scheduler& scheduler, std::uint64_t rate_bps,
                         std::uint64_t burst_bytes, ReleaseFn release)
    : scheduler_(scheduler),
      rate_bps_(rate_bps),
      burst_bytes_(burst_bytes),
      release_(std::move(release)),
      tokens_(static_cast<double>(burst_bytes)),
      last_refill_(scheduler.now()) {}

void TokenBucket::set_rate(std::uint64_t rate_bps) {
  refill();
  rate_bps_ = rate_bps;
  // Any pending wake-up was computed at the old rate; reschedule.
  scheduler_.cancel(pending_drain_);
  pending_drain_ = netsim::kInvalidEvent;
  drain();
}

void TokenBucket::refill() {
  const netsim::SimTime now = scheduler_.now();
  if (now > last_refill_) {
    tokens_ += static_cast<double>(rate_bps_) / 8.0 *
               netsim::to_seconds(now - last_refill_);
    tokens_ = std::min(tokens_, static_cast<double>(burst_bytes_));
    last_refill_ = now;
  }
}

void TokenBucket::submit(netsim::PacketPtr packet) {
  std::int64_t enq_ns = 0;
  if (packet->meta.trace_id != 0) {
    enq_ns = telemetry::SpanCollector::instance().now_ns();
  }
  backlog_.push_back(Queued{std::move(packet), enq_ns});
  drain();
}

void TokenBucket::drain() {
  refill();
  while (!backlog_.empty()) {
    const std::uint64_t cost = charge_of(*backlog_.front().packet);
    // A charge larger than the bucket depth could never conform (refill
    // caps at burst_bytes), so conformance requires min(cost, burst)
    // while the full cost is deducted — the bucket goes into deficit and
    // recovers at the fill rate, preserving the long-term rate even for
    // oversized charges (e.g. Pulsar charging a 64KB operation to a
    // small bucket).
    const double required = static_cast<double>(
        cost < burst_bytes_ ? cost : burst_bytes_);
    if (tokens_ < required) break;
    tokens_ -= static_cast<double>(cost);
    Queued q = std::move(backlog_.front());
    backlog_.pop_front();
    ++released_packets_;
    released_bytes_ += q.packet->size_bytes;
    if (q.packet->meta.trace_id != 0) {
      auto& spans = telemetry::SpanCollector::instance();
      const std::int64_t now = spans.now_ns();
      spans.record(q.packet->meta.trace_id, telemetry::Hop::tb_wait, now,
                   now - q.enq_ns, static_cast<std::int64_t>(cost));
    }
    release_(std::move(q.packet));
  }
  if (backlog_.empty() || rate_bps_ == 0) return;

  // Schedule a wake-up for when enough tokens accumulate for the head
  // packet. (A rate of zero stalls the queue until set_rate.)
  if (pending_drain_ != netsim::kInvalidEvent) return;
  const std::uint64_t head_cost = charge_of(*backlog_.front().packet);
  const double required = static_cast<double>(
      head_cost < burst_bytes_ ? head_cost : burst_bytes_);
  const double deficit = required - tokens_;
  const auto wait = static_cast<netsim::SimTime>(
      deficit * 8.0 / static_cast<double>(rate_bps_) * 1e9) + 1;
  pending_drain_ = scheduler_.after(wait, [this] {
    pending_drain_ = netsim::kInvalidEvent;
    drain();
  });
}

}  // namespace eden::hoststack
