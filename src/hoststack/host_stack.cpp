#include "hoststack/host_stack.h"

#include "telemetry/span.h"

namespace eden::hoststack {

namespace {

std::int64_t scheduler_clock(void* ctx) {
  return static_cast<netsim::Scheduler*>(ctx)->now();
}

}  // namespace

HostStack::HostStack(netsim::Network& network, netsim::HostNode& host,
                     core::Enclave& enclave, HostStackConfig config)
    : network_(network),
      host_(host),
      enclave_(enclave),
      config_(config),
      nic_(network.scheduler(), host) {
  enclave_.set_clock(&scheduler_clock, &network_.scheduler());
  // Lifecycle spans carry simulator timestamps, same as every other
  // clock consumer in a testbed.
  telemetry::SpanCollector::instance().set_clock(&scheduler_clock,
                                                 &network_.scheduler());
  host_.set_deliver([this](netsim::PacketPtr p) { deliver(std::move(p)); });
}

void HostStack::transmit(netsim::PacketPtr packet) {
  if (packet->meta.trace_id != 0) {
    telemetry::SpanCollector::instance().record_now(
        packet->meta.trace_id, telemetry::Hop::host_enqueue,
        static_cast<std::int64_t>(packet->size_bytes));
  }
  if (!enclave_.process(*packet)) {
    ++enclave_drops_;
    return;
  }
  if (config_.post_enclave) config_.post_enclave(*packet);
  if (config_.enclave_delay > 0) {
    network_.scheduler().after(
        config_.enclave_delay,
        [this, packet = std::move(packet)]() mutable {
          forward_to_nic(std::move(packet));
        });
    return;
  }
  forward_to_nic(std::move(packet));
}

void HostStack::forward_to_nic(netsim::PacketPtr packet) {
  if (packet->meta.trace_id != 0) {
    telemetry::SpanCollector::instance().record_now(
        packet->meta.trace_id, telemetry::Hop::host_dequeue,
        static_cast<std::int64_t>(packet->rl_queue));
  }
  nic_.send(std::move(packet));
}

transport::TcpSender& HostStack::open_flow(netsim::HostId dst,
                                           std::uint16_t dst_port,
                                           const netsim::PacketMeta& meta,
                                           const netsim::ClassList& classes) {
  const netsim::FlowId flow_id =
      (static_cast<netsim::FlowId>(host_.id()) << 32) | next_flow_seq_++;
  const std::uint16_t src_port = next_src_port_++;
  if (next_src_port_ < 10000) next_src_port_ = 10000;  // wrap into range

  auto sender = std::make_unique<transport::TcpSender>(
      network_.scheduler(), config_.tcp, flow_id, host_.id(), dst, src_port,
      dst_port);
  sender->set_transmit(
      [this](netsim::PacketPtr p) { transmit(std::move(p)); });
  sender->set_meta(meta);
  sender->set_classes(classes);
  transport::TcpSender& ref = *sender;
  senders_.emplace(flow_id, std::move(sender));
  return ref;
}

transport::TcpSender& HostStack::send_message(core::Stage& stage,
                                              const core::MessageAttrs& attrs,
                                              const netsim::PacketMeta& base,
                                              netsim::HostId dst,
                                              std::uint16_t dst_port,
                                              std::uint64_t bytes) {
  netsim::PacketMeta available = base;
  if (available.msg_size == 0) {
    available.msg_size = static_cast<std::int64_t>(bytes);
  }
  const core::Classification cls = stage.classify(attrs, available);
  netsim::PacketMeta meta = cls.meta;
  // The application priority travels even when the rule masks it out —
  // it is transport-level, not stage-level, information.
  meta.app_priority = base.app_priority;
  transport::TcpSender& sender = open_flow(dst, dst_port, meta, cls.classes);
  sender.start(bytes);
  return sender;
}

void HostStack::listen(std::uint16_t port, AcceptFn accept) {
  listeners_[port] = std::move(accept);
}

void HostStack::deliver(netsim::PacketPtr packet) {
  if (config_.process_ingress) {
    if (!enclave_.process(*packet)) {
      ++enclave_drops_;
      return;
    }
  }

  if (packet->protocol == netsim::Protocol::tcp) {
    if (packet->payload_bytes > 0) {
      auto it = receivers_.find(packet->flow_id);
      if (it == receivers_.end()) {
        const auto listener = listeners_.find(packet->dst_port);
        if (listener == listeners_.end()) return;  // no one listening
        auto receiver = std::make_unique<transport::TcpReceiver>(
            packet->flow_id, host_.id(), packet->src, packet->dst_port,
            packet->src_port, config_.tcp.ack_bytes);
        receiver->set_transmit(
            [this](netsim::PacketPtr p) { transmit(std::move(p)); });
        FlowInfo info;
        info.flow_id = packet->flow_id;
        info.peer = packet->src;
        info.peer_port = packet->src_port;
        info.local_port = packet->dst_port;
        info.meta = packet->meta;
        it = receivers_.emplace(packet->flow_id, std::move(receiver)).first;
        listener->second(*it->second, info);
      }
      it->second->on_data(*packet);
      return;
    }
    // Pure ACK.
    const auto sender = senders_.find(packet->flow_id);
    if (sender != senders_.end()) sender->second->on_ack(*packet);
    return;
  }

  if (raw_handler_) raw_handler_(std::move(packet));
}

void HostStack::close_flow(netsim::FlowId flow_id) {
  // close_flow is routinely called from a flow's own completion callback
  // (i.e. from inside a TcpSender/TcpReceiver member function), so the
  // endpoints are torn down in a follow-up zero-delay event after the
  // current call stack unwinds.
  network_.scheduler().after(0, [this, flow_id] {
    senders_.erase(flow_id);
    receivers_.erase(flow_id);
  });
}

}  // namespace eden::hoststack
