// The enclave's canonical state schema.
//
// Action functions see three scopes (Section 3.4.2):
//  * packet  — fields of the packet in flight, marshalled in/out by the
//              enclave per the header mappings (Figure 8);
//  * message — state the runtime persists per message across packets;
//  * global  — per-action state installed/updated by the controller.
//
// The packet and message scopes are fixed (every action shares them);
// the global scope is supplied per action when it is installed. Slot
// constants below let the marshalling code and native "twin" actions
// address fields without string lookups.
#pragma once

#include "lang/state_schema.h"
#include "netsim/packet.h"

namespace eden::core {

// Packet-scope scalar slots, in schema declaration order.
struct PacketSlot {
  enum : std::uint16_t {
    size = 0,       // RO  on-wire bytes (ipv4.total_length)
    payload,        // RO  payload bytes
    priority,       // RW  802.1q.pcp
    path,           // RW  802.1q.vid — source-route label
    queue,          // RW  NIC rate-limiter queue (-1 = default queue)
    drop,           // RW  nonzero = drop the packet
    charge,         // RW  bytes to charge the rate limiter (0 = size)
    src,            // RO
    dst,            // RO
    src_port,       // RO
    dst_port,       // RO
    proto,          // RO
    seq,            // RO  transport sequence number
    msg_id,         // RO  stage metadata ...
    msg_type,       // RO
    msg_size,       // RO
    tenant,         // RO
    key_hash,       // RO
    flow_size,      // RO
    app_priority,   // RO
    count_          // number of packet scalar slots
  };
};

// Message-scope scalar slots (persistent per message id).
struct MessageSlot {
  enum : std::uint16_t {
    size = 0,   // RW  bytes of the message seen so far
    priority,   // RW  initialized from the first packet's app_priority
    path,       // RW  cached route label (message-level WCMP), -1 = none
    packets,    // RW  packets of the message seen so far
    state0,     // RW  generic scratch (e.g. port-knocking progress)
    state1,     // RW
    state2,     // RW
    state3,     // RW
    count_
  };
};

// Builds the enclave schema: fixed packet + message scopes, plus the
// given action-specific global fields.
lang::StateSchema make_enclave_schema(
    std::vector<lang::FieldDef> global_fields = {});

// Marshalling between the simulator packet and the packet-scope state
// block. `load` fills every packet slot; `store` writes back only the
// writable fields (priority, path, queue, drop, charge).
void load_packet_state(const netsim::Packet& packet, lang::StateBlock& block);
void store_packet_state(const lang::StateBlock& block, netsim::Packet& packet);

// Initializes a fresh message-scope block from the first packet of the
// message; `message` holds MessageSlot::count_ words.
void init_message_state(const netsim::Packet& packet, std::int64_t* message);
inline void init_message_state(const netsim::Packet& packet,
                               lang::StateBlock& block) {
  init_message_state(packet, block.scalars.data());
}

}  // namespace eden::core
