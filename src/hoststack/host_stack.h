// The Eden host stack: the glue between applications (stages), the
// transport, the enclave and the NIC (Figure 5 of the paper).
//
// Egress path:  app/transport -> [stage classification already stamped]
//               -> enclave match-action -> NIC rate-limited queues -> wire.
// Ingress path: wire -> flow demux -> TCP endpoints / raw handlers.
//
// The enclave runs inline on the simulator thread, inside transmit(), so
// a simulated run is deterministic. The multi-core engine
// (hoststack/dataplane.h) is driven directly, not through this stack.
//
// The message-oriented send API (Section 4.2's extended socket) is
// send_message(): the application passes a stage, the message attributes
// and the payload size; the stack classifies the message once and stamps
// the resulting classes and metadata on every packet of the message's
// flow.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "core/enclave.h"
#include "core/stage.h"
#include "hoststack/nic.h"
#include "netsim/network.h"
#include "transport/tcp.h"

namespace eden::hoststack {

struct HostStackConfig {
  transport::TcpConfig tcp;
  // Models the enclave's per-packet processing latency (e.g. a slower
  // NIC-resident interpreter). 0 = instantaneous, the default.
  netsim::SimTime enclave_delay = 0;
  // Run the enclave on received packets too (off by default; the paper's
  // case studies act on egress).
  bool process_ingress = false;
  // Applied after the enclave, before the NIC. The paper's "Baseline
  // (Eden)" runs classification and the action function but ignores the
  // interpreter output before transmission (Section 5.1) — the harness
  // models that by squashing the fields the enclave wrote.
  std::function<void(netsim::Packet&)> post_enclave;
};

struct FlowInfo {
  netsim::FlowId flow_id = 0;
  netsim::HostId peer = 0;
  std::uint16_t peer_port = 0;
  std::uint16_t local_port = 0;
  netsim::PacketMeta meta;
};

class HostStack {
 public:
  // Callback when the first data packet of an unknown inbound flow hits
  // a listening port: configure the receiver (expected size, completion
  // hooks) here.
  using AcceptFn = std::function<void(transport::TcpReceiver&, const FlowInfo&)>;
  using RawFn = std::function<void(netsim::PacketPtr)>;

  HostStack(netsim::Network& network, netsim::HostNode& host,
            core::Enclave& enclave, HostStackConfig config = {});

  // --- Egress ------------------------------------------------------------

  // The transmit hook used by transports: runs the enclave and hands the
  // packet to the NIC (or drops it if the enclave says so).
  void transmit(netsim::PacketPtr packet);

  // Opens a sender for one message/flow. Classes and metadata are
  // stamped on all its packets; the sender is owned by the stack.
  transport::TcpSender& open_flow(netsim::HostId dst, std::uint16_t dst_port,
                                  const netsim::PacketMeta& meta = {},
                                  const netsim::ClassList& classes = {});

  // The Eden message API: classify `attrs` through `stage`, open a flow
  // to dst and send `bytes`. The PacketMeta fields not produced by the
  // stage are taken from `base`.
  transport::TcpSender& send_message(core::Stage& stage,
                                     const core::MessageAttrs& attrs,
                                     const netsim::PacketMeta& base,
                                     netsim::HostId dst,
                                     std::uint16_t dst_port,
                                     std::uint64_t bytes);

  // Sends a raw (non-TCP) packet through the enclave/NIC path.
  void send_raw(netsim::PacketPtr packet) { transmit(std::move(packet)); }

  // --- Ingress -------------------------------------------------------------

  void listen(std::uint16_t port, AcceptFn accept);
  void set_raw_handler(RawFn handler) { raw_handler_ = std::move(handler); }

  // --- Flow management -------------------------------------------------------

  // Destroys a finished flow's endpoints (senders are kept until closed
  // so callers can read their stats).
  void close_flow(netsim::FlowId flow_id);
  std::size_t open_flow_count() const {
    return senders_.size() + receivers_.size();
  }

  core::Enclave& enclave() { return enclave_; }
  Nic& nic() { return nic_; }
  netsim::HostNode& host() { return host_; }
  netsim::HostId id() const { return host_.id(); }
  std::uint64_t enclave_drops() const { return enclave_drops_; }

 private:
  void deliver(netsim::PacketPtr packet);
  void forward_to_nic(netsim::PacketPtr packet);

  netsim::Network& network_;
  netsim::HostNode& host_;
  core::Enclave& enclave_;
  HostStackConfig config_;
  Nic nic_;

  std::unordered_map<netsim::FlowId, std::unique_ptr<transport::TcpSender>>
      senders_;
  std::unordered_map<netsim::FlowId, std::unique_ptr<transport::TcpReceiver>>
      receivers_;
  std::unordered_map<std::uint16_t, AcceptFn> listeners_;
  RawFn raw_handler_;

  std::uint32_t next_flow_seq_ = 1;
  std::uint16_t next_src_port_ = 10000;
  std::uint64_t enclave_drops_ = 0;
};

}  // namespace eden::hoststack
