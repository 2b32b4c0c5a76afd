// The host NIC layer: a set of controller-created rate-limited queues in
// front of the wire. The enclave steers packets to a queue by writing
// packet.queue (Pulsar sends each tenant's traffic to that tenant's
// rate-limited queue); packets with queue -1 bypass the limiters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hoststack/token_bucket.h"
#include "netsim/host_node.h"

namespace eden::hoststack {

class Nic {
 public:
  Nic(netsim::Scheduler& scheduler, netsim::HostNode& host)
      : scheduler_(scheduler), host_(host) {}

  // Creates a rate-limited queue; returns its id (what action functions
  // write into packet.queue).
  int create_queue(std::uint64_t rate_bps, std::uint64_t burst_bytes);

  void set_queue_rate(int queue, std::uint64_t rate_bps);

  // Sends via the selected queue (packet.queue in [0, queue_count)),
  // straight to the wire for the explicit bypass value -1, or — for any
  // other queue id — drops the packet. An action that steers to a queue
  // the controller never created must not silently skip its rate
  // limiter; the drop is counted in bad_queue_drops() and recorded as
  // a nic_drop span hop.
  void send(netsim::PacketPtr packet);

  // Backlog of `queue`, or 0 for ids that name no queue.
  std::size_t queue_backlog(int queue) const {
    const auto idx = static_cast<std::size_t>(queue);
    if (queue < 0 || idx >= queues_.size()) return 0;
    return queues_[idx]->backlog();
  }
  int queue_count() const { return static_cast<int>(queues_.size()); }

  std::uint64_t bad_queue_drops() const { return bad_queue_drops_; }

 private:
  netsim::Scheduler& scheduler_;
  netsim::HostNode& host_;
  std::vector<std::unique_ptr<TokenBucket>> queues_;
  std::uint64_t bad_queue_drops_ = 0;
};

}  // namespace eden::hoststack
