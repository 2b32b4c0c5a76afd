// Token-bucket rate limiter with a FIFO backlog, the building block of
// the NIC's rate-limited queues (Pulsar's enforcement point in case
// study 3). The *charge* of a packet may differ from its wire size —
// that asymmetry is exactly what Pulsar's action function exploits by
// charging READ requests their operation size (Figure 3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "netsim/event_queue.h"
#include "netsim/packet.h"

namespace eden::hoststack {

class TokenBucket {
 public:
  using ReleaseFn = std::function<void(netsim::PacketPtr)>;

  // rate_bps: token fill rate (bits/s); burst_bytes: bucket depth.
  TokenBucket(netsim::Scheduler& scheduler, std::uint64_t rate_bps,
              std::uint64_t burst_bytes, ReleaseFn release);

  // Submits a packet; released (in order) once tokens cover its charge.
  // charge_bytes of 0 means "charge the wire size".
  void submit(netsim::PacketPtr packet);

  void set_rate(std::uint64_t rate_bps);
  std::uint64_t rate_bps() const { return rate_bps_; }
  std::size_t backlog() const { return backlog_.size(); }
  std::uint64_t released_packets() const { return released_packets_; }
  std::uint64_t released_bytes() const { return released_bytes_; }

 private:
  void refill();
  void drain();
  static std::uint64_t charge_of(const netsim::Packet& p) {
    return p.charge_bytes > 0 ? p.charge_bytes : p.size_bytes;
  }

  netsim::Scheduler& scheduler_;
  std::uint64_t rate_bps_;
  std::uint64_t burst_bytes_;
  ReleaseFn release_;

  // Backlog entries carry the submit timestamp of span-traced packets
  // (0 otherwise) so the release can emit a tb_wait span with the real
  // queueing duration.
  struct Queued {
    netsim::PacketPtr packet;
    std::int64_t enq_ns = 0;
  };

  double tokens_;  // bytes
  netsim::SimTime last_refill_ = 0;
  std::deque<Queued> backlog_;
  netsim::EventId pending_drain_ = netsim::kInvalidEvent;
  std::uint64_t released_packets_ = 0;
  std::uint64_t released_bytes_ = 0;
};

}  // namespace eden::hoststack
