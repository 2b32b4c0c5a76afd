#include "functions/wcmp.h"

#include "core/enclave_schema.h"

namespace eden::functions {

using core::PacketSlot;
using core::MessageSlot;
using lang::Access;
using lang::ExecStatus;
using lang::Scope;
using lang::StateBlock;

namespace {

// Record layout of the global `paths` table.
constexpr int kDst = 0, kLabel = 1, kWeight = 2, kStride = 3;

// Weighted pick shared by both native twins. Returns -1 when the table
// has no entry for dst (falls back to destination routing).
std::int64_t native_pick(const lang::ArrayValue& paths, std::int64_t dst,
                         util::Rng& rng) {
  const std::int64_t r =
      static_cast<std::int64_t>(rng.below(core::kWeightScale));
  std::int64_t acc = 0;
  const std::size_t n = paths.data.size() / kStride;
  for (std::size_t i = 0; i < n; ++i) {
    if (paths.data[i * kStride + kDst] != dst) continue;
    acc += paths.data[i * kStride + kWeight];
    if (r < acc) return paths.data[i * kStride + kLabel];
  }
  return -1;
}

}  // namespace

const char* WcmpFunction::source() const {
  return R"(
// Per-packet WCMP (Figure 2, top): choose a path label in a weighted
// random fashion from the controller-installed path table.
fun(packet : Packet, msg : Message, global : Global) ->
  let paths = global.paths in
  let n = len(paths) in
  let r = rand(1000) in
  let rec pick(i, acc) =
    if i >= n then 0 - 1
    elif paths[i].dst <> packet.dst then pick(i + 1, acc)
    else (
      let acc2 = acc + paths[i].weight in
      (if r < acc2 then paths[i].label else pick(i + 1, acc2))
    )
  in
  packet.path <- pick(0, 0)
)";
}

std::vector<lang::FieldDef> WcmpFunction::global_fields() const {
  lang::FieldDef paths;
  paths.name = "paths";
  paths.access = Access::read_only;
  paths.kind = lang::FieldKind::record_array;
  paths.record_fields = {"dst", "label", "weight"};
  return {paths};
}

core::NativeActionFn WcmpFunction::native() const {
  return [](StateBlock& pkt, StateBlock*, StateBlock* global,
            core::NativeCtx& ctx) {
    if (global == nullptr || global->arrays.empty()) {
      return ExecStatus::bad_state_slot;
    }
    pkt.scalars[PacketSlot::path] =
        native_pick(global->arrays[0], pkt.scalars[PacketSlot::dst], ctx.rng);
    return ExecStatus::ok;
  };
}

Table1Info WcmpFunction::table1() const {
  return Table1Info{"Load Balancing", "WCMP [65]", true, true, false, false,
                    true};
}

const char* MessageWcmpFunction::source() const {
  return R"(
// Message-level WCMP (Figure 2, bottom): pick once per message and cache
// the label in message state, so one message never reorders.
fun(packet : Packet, msg : Message, global : Global) ->
  (if msg.path < 0 then
    let paths = global.paths in
    let n = len(paths) in
    let r = rand(1000) in
    let rec pick(i, acc) =
      if i >= n then 0 - 1
      elif paths[i].dst <> packet.dst then pick(i + 1, acc)
      else (
        let acc2 = acc + paths[i].weight in
        (if r < acc2 then paths[i].label else pick(i + 1, acc2))
      )
    in
    msg.path <- pick(0, 0)
  else 0);
  packet.path <- msg.path
)";
}

std::vector<lang::FieldDef> MessageWcmpFunction::global_fields() const {
  return WcmpFunction{}.global_fields();
}

core::NativeActionFn MessageWcmpFunction::native() const {
  return [](StateBlock& pkt, StateBlock* msg, StateBlock* global,
            core::NativeCtx& ctx) {
    if (global == nullptr || global->arrays.empty() || msg == nullptr) {
      return ExecStatus::bad_state_slot;
    }
    if (msg->scalars[MessageSlot::path] < 0) {
      msg->scalars[MessageSlot::path] = native_pick(
          global->arrays[0], pkt.scalars[PacketSlot::dst], ctx.rng);
    }
    pkt.scalars[PacketSlot::path] = msg->scalars[MessageSlot::path];
    return ExecStatus::ok;
  };
}

Table1Info MessageWcmpFunction::table1() const {
  return Table1Info{"Load Balancing", "Message-based WCMP", true, true, true,
                    false, true};
}

const char* VipLbFunction::source() const {
  return R"(
// Ananta-style VIP load balancing: the first packet of a connection to
// the VIP picks a backend uniformly; message state pins the connection
// there (msg.state0 = backend index + 1).
fun(packet : Packet, msg : Message, global : Global) ->
  (if msg.state0 = 0 && packet.dst = global.vip then
    let n = len(global.backend_labels) in
    (if n > 0 then msg.state0 <- 1 + rand(n) else 0)
  else 0);
  (if msg.state0 > 0 then
    packet.path <- global.backend_labels[msg.state0 - 1]
  else 0)
)";
}

std::vector<lang::FieldDef> VipLbFunction::global_fields() const {
  lang::FieldDef vip;
  vip.name = "vip";
  vip.access = Access::read_only;

  lang::FieldDef backends;
  backends.name = "backend_labels";
  backends.access = Access::read_only;
  backends.kind = lang::FieldKind::array;
  return {vip, backends};
}

core::NativeActionFn VipLbFunction::native() const {
  // Global scalar slot 0 = vip; array slot 0 = backend_labels.
  return [](StateBlock& pkt, StateBlock* msg, StateBlock* global,
            core::NativeCtx& ctx) {
    if (global == nullptr || global->scalars.empty() ||
        global->arrays.empty() || msg == nullptr) {
      return ExecStatus::bad_state_slot;
    }
    std::int64_t& pinned = msg->scalars[MessageSlot::state0];
    const auto& labels = global->arrays[0].data;
    if (pinned == 0 && pkt.scalars[PacketSlot::dst] == global->scalars[0] &&
        !labels.empty()) {
      pinned = 1 + static_cast<std::int64_t>(ctx.rng.below(labels.size()));
    }
    if (pinned > 0) {
      if (static_cast<std::size_t>(pinned - 1) >= labels.size()) {
        return ExecStatus::out_of_bounds;
      }
      pkt.scalars[PacketSlot::path] =
          labels[static_cast<std::size_t>(pinned - 1)];
    }
    return ExecStatus::ok;
  };
}

Table1Info VipLbFunction::table1() const {
  return Table1Info{"Load Balancing", "Ananta [47]", true, true, false,
                    false, true};
}

void push_vip_config(core::Enclave& enclave, core::ActionId action,
                     std::int64_t vip,
                     std::span<const std::int64_t> backend_labels) {
  in_one_txn(enclave, [&] {
    enclave.set_global_scalar(action, "vip", vip);
    enclave.set_global_array(action, "backend_labels",
                             std::vector<std::int64_t>(backend_labels.begin(),
                                                       backend_labels.end()));
  });
}

std::vector<std::int64_t> flatten_path_table(
    const std::vector<std::pair<netsim::HostId,
                                std::vector<core::WeightedPath>>>& by_dst) {
  std::vector<std::int64_t> flat;
  for (const auto& [dst, paths] : by_dst) {
    for (const core::WeightedPath& p : paths) {
      flat.push_back(static_cast<std::int64_t>(dst));
      flat.push_back(p.label);
      flat.push_back(p.weight);
    }
  }
  return flat;
}

void push_path_table(
    core::Enclave& enclave, core::ActionId action,
    const std::vector<std::pair<netsim::HostId,
                                std::vector<core::WeightedPath>>>& by_dst) {
  enclave.set_global_array(action, "paths", flatten_path_table(by_dst));
}

}  // namespace eden::functions
