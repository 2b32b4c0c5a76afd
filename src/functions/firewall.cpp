#include "functions/firewall.h"

#include "core/enclave_schema.h"

namespace eden::functions {

using core::MessageSlot;
using core::PacketSlot;
using lang::Access;
using lang::ExecStatus;
using lang::StateBlock;

const char* PortKnockFunction::source() const {
  return R"(
// Port knocking: msg.state0 counts correct knocks so far. The protected
// port drops until the whole sequence was seen; in strict mode a wrong
// knock resets progress.
fun(packet : Packet, msg : Message, global : Global) ->
  let n = len(global.knock_seq) in
  if packet.dst_port = global.open_port then
    (if msg.state0 < n then packet.drop <- 1 else 0)
  elif msg.state0 < n && packet.dst_port = global.knock_seq[msg.state0] then
    msg.state0 <- msg.state0 + 1
  elif global.strict = 1 && msg.state0 < n then
    msg.state0 <- 0
  else 0
)";
}

std::vector<lang::FieldDef> PortKnockFunction::global_fields() const {
  lang::FieldDef seq;
  seq.name = "knock_seq";
  seq.access = Access::read_only;
  seq.kind = lang::FieldKind::array;

  lang::FieldDef open_port;
  open_port.name = "open_port";
  open_port.access = Access::read_only;

  lang::FieldDef strict;
  strict.name = "strict";
  strict.access = Access::read_only;
  return {seq, open_port, strict};
}

core::NativeActionFn PortKnockFunction::native() const {
  // Global scalar slots: open_port = 0, strict = 1 (declaration order);
  // array slot 0 = knock_seq.
  return [](StateBlock& pkt, StateBlock* msg, StateBlock* global,
            core::NativeCtx&) {
    if (global == nullptr || global->arrays.empty() ||
        global->scalars.size() < 2 || msg == nullptr) {
      return ExecStatus::bad_state_slot;
    }
    const auto& seq = global->arrays[0].data;
    const auto n = static_cast<std::int64_t>(seq.size());
    const std::int64_t open_port = global->scalars[0];
    const std::int64_t strict = global->scalars[1];
    std::int64_t& progress = msg->scalars[MessageSlot::state0];
    const std::int64_t port = pkt.scalars[PacketSlot::dst_port];

    if (port == open_port) {
      if (progress < n) pkt.scalars[PacketSlot::drop] = 1;
    } else if (progress < n &&
               port == seq[static_cast<std::size_t>(progress)]) {
      ++progress;
    } else if (strict == 1 && progress < n) {
      progress = 0;
    }
    return ExecStatus::ok;
  };
}

Table1Info PortKnockFunction::table1() const {
  return Table1Info{"Stateful firewall", "Port knocking [13]", true, true,
                    false, false, true};
}

const char* ConntrackFunction::source() const {
  return R"(
// Connection tracking: msg.state0 = 1 once this host has sent traffic
// on the connection. Inbound packets pass on established connections
// and on the open-port allowlist; everything else drops.
fun(packet : Packet, msg : Message, global : Global) ->
  if packet.src = global.self then
    msg.state0 <- 1
  elif msg.state0 = 1 then
    0
  else (
    let ports = global.open_ports in
    let n = len(ports) in
    let rec find(i) =
      if i >= n then 0
      elif ports[i] = packet.dst_port then 1
      else find(i + 1)
    in
    (if find(0) = 0 then packet.drop <- 1 else msg.state0 <- 1)
  )
)";
}

std::vector<lang::FieldDef> ConntrackFunction::global_fields() const {
  lang::FieldDef self;
  self.name = "self";
  self.access = Access::read_only;

  lang::FieldDef ports;
  ports.name = "open_ports";
  ports.access = Access::read_only;
  ports.kind = lang::FieldKind::array;
  return {self, ports};
}

core::NativeActionFn ConntrackFunction::native() const {
  // Global scalar slot 0 = self; array slot 0 = open_ports.
  return [](StateBlock& pkt, StateBlock* msg, StateBlock* global,
            core::NativeCtx&) {
    if (global == nullptr || global->scalars.empty() ||
        global->arrays.empty() || msg == nullptr) {
      return ExecStatus::bad_state_slot;
    }
    std::int64_t& established = msg->scalars[MessageSlot::state0];
    if (pkt.scalars[PacketSlot::src] == global->scalars[0]) {
      established = 1;
      return ExecStatus::ok;
    }
    if (established == 1) return ExecStatus::ok;
    const auto& ports = global->arrays[0].data;
    const std::int64_t port = pkt.scalars[PacketSlot::dst_port];
    for (const std::int64_t open : ports) {
      if (open == port) {
        established = 1;
        return ExecStatus::ok;
      }
    }
    pkt.scalars[PacketSlot::drop] = 1;
    return ExecStatus::ok;
  };
}

Table1Info ConntrackFunction::table1() const {
  return Table1Info{"Stateful firewall", "Connection tracking", true, true,
                    false, false, true};
}

void push_conntrack_config(core::Enclave& enclave, core::ActionId action,
                           std::int64_t self_host,
                           std::span<const std::int64_t> open_ports) {
  in_one_txn(enclave, [&] {
    enclave.set_global_scalar(action, "self", self_host);
    enclave.set_global_array(
        action, "open_ports",
        std::vector<std::int64_t>(open_ports.begin(), open_ports.end()));
  });
}

void push_knock_config(core::Enclave& enclave, core::ActionId action,
                       std::span<const std::int64_t> knock_sequence,
                       std::int64_t open_port, bool strict) {
  in_one_txn(enclave, [&] {
    enclave.set_global_array(
        action, "knock_seq",
        std::vector<std::int64_t>(knock_sequence.begin(),
                                  knock_sequence.end()));
    enclave.set_global_scalar(action, "open_port", open_port);
    enclave.set_global_scalar(action, "strict", strict ? 1 : 0);
  });
}

}  // namespace eden::functions
