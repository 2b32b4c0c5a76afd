#include "hoststack/nic.h"

#include "telemetry/span.h"

namespace eden::hoststack {

namespace {

// nic_tx marks the hand-off to the wire — the last hop of a lifecycle
// trace on the sending host.
void record_tx(const netsim::Packet& p) {
  if (p.meta.trace_id != 0) {
    telemetry::SpanCollector::instance().record_now(
        p.meta.trace_id, telemetry::Hop::nic_tx,
        static_cast<std::int64_t>(p.size_bytes));
  }
}

}  // namespace

int Nic::create_queue(std::uint64_t rate_bps, std::uint64_t burst_bytes) {
  queues_.push_back(std::make_unique<TokenBucket>(
      scheduler_, rate_bps, burst_bytes, [this](netsim::PacketPtr p) {
        record_tx(*p);
        host_.transmit(std::move(p));
      }));
  return static_cast<int>(queues_.size()) - 1;
}

void Nic::set_queue_rate(int queue, std::uint64_t rate_bps) {
  queues_.at(static_cast<std::size_t>(queue))->set_rate(rate_bps);
}

void Nic::send(netsim::PacketPtr packet) {
  const int queue = packet->rl_queue;
  if (queue >= 0 && queue < static_cast<int>(queues_.size())) {
    queues_[static_cast<std::size_t>(queue)]->submit(std::move(packet));
    return;
  }
  if (queue == -1) {
    // The explicit bypass value: straight to the wire.
    record_tx(*packet);
    host_.transmit(std::move(packet));
    return;
  }
  // Any other id names no queue. Forwarding here would skip the rate
  // limiter the action asked for, so the packet is dropped instead.
  ++bad_queue_drops_;
  if (packet->meta.trace_id != 0) {
    telemetry::SpanCollector::instance().record_now(
        packet->meta.trace_id, telemetry::Hop::nic_drop, queue);
  }
}

}  // namespace eden::hoststack
