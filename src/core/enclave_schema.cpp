#include "core/enclave_schema.h"

namespace eden::core {

using lang::Access;
using lang::FieldDef;
using lang::Scope;
using lang::StateBlock;
using lang::StateSchema;

StateSchema make_enclave_schema(std::vector<FieldDef> global_fields) {
  StateSchema schema;
  // Packet scope — order must match PacketSlot.
  schema.scalar(Scope::packet, "size", Access::read_only,
                "ipv4.total_length");
  schema.scalar(Scope::packet, "payload", Access::read_only);
  schema.scalar(Scope::packet, "priority", Access::read_write, "802.1q.pcp");
  schema.scalar(Scope::packet, "path", Access::read_write, "802.1q.vid", -1);
  schema.scalar(Scope::packet, "queue", Access::read_write, "", -1);
  schema.scalar(Scope::packet, "drop", Access::read_write);
  schema.scalar(Scope::packet, "charge", Access::read_write);
  schema.scalar(Scope::packet, "src", Access::read_only, "ipv4.src");
  schema.scalar(Scope::packet, "dst", Access::read_only, "ipv4.dst");
  schema.scalar(Scope::packet, "src_port", Access::read_only, "tcp.src_port");
  schema.scalar(Scope::packet, "dst_port", Access::read_only, "tcp.dst_port");
  schema.scalar(Scope::packet, "proto", Access::read_only, "ipv4.protocol");
  schema.scalar(Scope::packet, "seq", Access::read_only, "tcp.seq");
  schema.scalar(Scope::packet, "msg_id", Access::read_only);
  schema.scalar(Scope::packet, "msg_type", Access::read_only);
  schema.scalar(Scope::packet, "msg_size", Access::read_only);
  schema.scalar(Scope::packet, "tenant", Access::read_only);
  schema.scalar(Scope::packet, "key_hash", Access::read_only);
  schema.scalar(Scope::packet, "flow_size", Access::read_only);
  schema.scalar(Scope::packet, "app_priority", Access::read_only, "", 1);

  // Message scope — order must match MessageSlot.
  schema.scalar(Scope::message, "size", Access::read_write);
  schema.scalar(Scope::message, "priority", Access::read_write, "", 1);
  schema.scalar(Scope::message, "path", Access::read_write, "", -1);
  schema.scalar(Scope::message, "packets", Access::read_write);
  schema.scalar(Scope::message, "state0", Access::read_write);
  schema.scalar(Scope::message, "state1", Access::read_write);
  schema.scalar(Scope::message, "state2", Access::read_write);
  schema.scalar(Scope::message, "state3", Access::read_write);

  for (auto& field : global_fields) {
    schema.add(Scope::global, std::move(field));
  }
  return schema;
}

void load_packet_state(const netsim::Packet& p, StateBlock& block) {
  auto& s = block.scalars;
  s[PacketSlot::size] = p.size_bytes;
  s[PacketSlot::payload] = p.payload_bytes;
  s[PacketSlot::priority] = p.priority;
  s[PacketSlot::path] = p.path_label;
  s[PacketSlot::queue] = p.rl_queue;
  s[PacketSlot::drop] = p.drop_mark ? 1 : 0;
  s[PacketSlot::charge] = p.charge_bytes;
  s[PacketSlot::src] = p.src;
  s[PacketSlot::dst] = p.dst;
  s[PacketSlot::src_port] = p.src_port;
  s[PacketSlot::dst_port] = p.dst_port;
  s[PacketSlot::proto] = static_cast<std::int64_t>(p.protocol);
  s[PacketSlot::seq] = static_cast<std::int64_t>(p.seq);
  s[PacketSlot::msg_id] = p.meta.msg_id;
  s[PacketSlot::msg_type] = p.meta.msg_type;
  s[PacketSlot::msg_size] = p.meta.msg_size;
  s[PacketSlot::tenant] = p.meta.tenant;
  s[PacketSlot::key_hash] = p.meta.key_hash;
  s[PacketSlot::flow_size] = p.meta.flow_size;
  s[PacketSlot::app_priority] = p.meta.app_priority;
}

void store_packet_state(const StateBlock& block, netsim::Packet& p) {
  const auto& s = block.scalars;
  const std::int64_t prio = s[PacketSlot::priority];
  p.priority = static_cast<std::uint8_t>(
      prio < 0 ? 0
               : (prio >= netsim::kMaxPriorities ? netsim::kMaxPriorities - 1
                                                 : prio));
  p.path_label = static_cast<std::int32_t>(s[PacketSlot::path]);
  p.rl_queue = static_cast<std::int32_t>(s[PacketSlot::queue]);
  p.drop_mark = s[PacketSlot::drop] != 0;
  const std::int64_t charge = s[PacketSlot::charge];
  p.charge_bytes = charge <= 0 ? 0 : static_cast<std::uint32_t>(charge);
}

void init_message_state(const netsim::Packet& p, std::int64_t* s) {
  s[MessageSlot::size] = 0;
  s[MessageSlot::priority] = p.meta.app_priority;
  s[MessageSlot::path] = -1;
  s[MessageSlot::packets] = 0;
  s[MessageSlot::state0] = 0;
  s[MessageSlot::state1] = 0;
  s[MessageSlot::state2] = 0;
  s[MessageSlot::state3] = 0;
}

}  // namespace eden::core
