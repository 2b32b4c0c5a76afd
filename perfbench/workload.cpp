#include "workload.h"

#include <stdexcept>

#include "core/controller.h"
#include "ledger.h"

namespace perfbench {

namespace {

constexpr std::int64_t kNoLimit = std::int64_t{1} << 40;

// SFF reads the application's flow size; the stream draws it from these
// four values only, so both threshold variants below rank them alike.
constexpr std::int64_t kFlowSizes[] = {5000, 60000, 700000, 8000000};

// The valid path labels of the WCMP tables: dst d has labels 10+2d and
// 11+2d, weighted 600/400.
constexpr std::int64_t kDsts = 4;
constexpr std::int64_t kVip = 3;
constexpr std::int64_t kBackends[] = {101, 102, 103};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec flows;
    flows.name = "flows_1m";
    flows.functions = {"pias"};
    flows.classes = 16;
    flows.live = 1'000'000;
    flows.min_len = 1;
    flows.max_len = 15;
    flows.round_robin = true;
    flows.idle_timeout = 1'500'000;
    flows.offered_pps = 450'000;
    v.push_back(flows);

    WorkloadSpec mix;
    mix.name = "table1_mix";
    for (const auto& fn : functions::all_functions()) {
      mix.functions.emplace_back(fn->name());
    }
    mix.classes = mix.functions.size();
    mix.live = 256;
    mix.min_len = 1;
    mix.max_len = 127;
    mix.idle_timeout = 65536;
    mix.offered_pps = 800'000;
    v.push_back(mix);

    // The framing traffic: SFF behind 64 exact-key class rules, with
    // telemetry on and control-plane churn beside it.
    WorkloadSpec churn;
    churn.name = "managed_churn";
    churn.functions = {"sff"};
    churn.classes = 64;
    churn.live = 4096;
    churn.min_len = churn.max_len = 16;
    churn.managed = true;
    churn.offered_pps = 500'000;
    v.push_back(churn);
    return v;
  }();
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const functions::NetworkFunction& function_named(const std::string& name) {
  for (const auto& fn : functions::all_functions()) {
    if (name == fn->name()) return *fn;
  }
  throw std::invalid_argument("unknown function " + name);
}

std::vector<GlobalValue> globals_for(const std::string& fn, int variant) {
  auto array = [](std::string f, std::vector<std::int64_t> d) {
    return GlobalValue{std::move(f), true, 0, std::move(d)};
  };
  auto scalar = [](std::string f, std::int64_t v) {
    return GlobalValue{std::move(f), false, v, {}};
  };
  if (fn == "sff") {
    if (variant == 0) {
      return {array("priorities",
                    {10240, 7, 102400, 5, 1048576, 3, kNoLimit, 1})};
    }
    return {array("priorities", {20480, 7, 204800, 5, 2097152, 3, kNoLimit, 1})};
  }
  if (fn == "pias") {
    return {array("priorities", {4000, 7, 12000, 5, kNoLimit, 3})};
  }
  if (fn == "wcmp" || fn == "message_wcmp") {
    std::vector<std::int64_t> paths;
    for (std::int64_t d = 0; d < kDsts; ++d) {
      paths.insert(paths.end(), {d, 10 + 2 * d, 600, d, 11 + 2 * d, 400});
    }
    return {array("paths", std::move(paths))};
  }
  if (fn == "vip_lb") {
    return {scalar("vip", kVip),
            array("backend_labels",
                  std::vector<std::int64_t>(std::begin(kBackends),
                                            std::end(kBackends)))};
  }
  if (fn == "qjump") return {array("level_queues", {0, 1, 2, 3, 4, 5, 6, 7})};
  if (fn == "replica_select") {
    return {array("replica_labels", {201, 202, 203})};
  }
  if (fn == "counter") return {scalar("packets", 0), scalar("bytes", 0)};
  if (fn == "port_knock") {
    return {array("knock_seq", {1001, 1002, 1003}), scalar("open_port", 1004),
            scalar("strict", 0)};
  }
  if (fn == "conntrack") {
    return {scalar("self", 1), array("open_ports", {1000, 1001})};
  }
  if (fn == "pulsar") return {array("queue_map", {0, 1, 1, 2, 2, 3})};
  throw std::invalid_argument("no globals for " + fn);
}

// Built by appending: GCC 12 warns falsely (-Wrestrict) on
// "literal" + std::string.
std::string class_key(std::size_t i) {
  std::string s = "k";
  return s += std::to_string(i);
}
std::string class_name(std::size_t i) {
  std::string s = "c";
  return s += std::to_string(i);
}
std::string class_pattern(std::size_t i) {
  std::string s = "memcached.egress.";
  return s += class_name(i);
}

void install_stage_rules(const WorkloadSpec& w, core::Stage& stage) {
  for (std::size_t i = 0; i < w.classes; ++i) {
    stage.create_rule("egress",
                      {core::FieldPattern::any(),
                       core::FieldPattern::exact(class_key(i))},
                      class_name(i), core::kMetaAll);
  }
}

OutputRule::OutputRule(const WorkloadSpec& w, core::ClassRegistry& registry) {
  for (std::size_t i = 0; i < w.classes; ++i) {
    const core::ClassId id = registry.intern(class_pattern(i));
    if (by_class_.size() <= id) by_class_.resize(id + 1, PathKind::exact);
    const std::string& fn = w.functions[i % w.functions.size()];
    if (fn == "wcmp") by_class_[id] = PathKind::wcmp;
    if (fn == "message_wcmp") by_class_[id] = PathKind::message_wcmp;
    if (fn == "vip_lb") by_class_[id] = PathKind::vip;
  }
}

std::int64_t OutputRule::path_token(const netsim::Packet& p) {
  const core::ClassId cls = p.classes.size() > 0 ? p.classes[0] : 0;
  const PathKind kind =
      cls < by_class_.size() ? by_class_[cls] : PathKind::exact;
  const std::int64_t path = p.path_label;
  switch (kind) {
    case PathKind::exact:
      return path;
    case PathKind::wcmp:
    case PathKind::message_wcmp: {
      const auto d = static_cast<std::int64_t>(p.dst);
      bool valid = d < kDsts ? (path == 10 + 2 * d || path == 11 + 2 * d)
                             : path == -1;
      if (kind == PathKind::message_wcmp) {
        const auto [first, fresh] = message_path_.try_emplace(p.meta.msg_id, p.path_label);
        valid = valid && (fresh || first->second == p.path_label);
      }
      invalid_ += valid ? 0 : 1;
      return valid ? -100 : -101;
    }
    case PathKind::vip: {
      bool valid = path == -1;
      if (static_cast<std::int64_t>(p.dst) == kVip) {
        valid = false;
        for (const std::int64_t b : kBackends) valid = valid || path == b;
      }
      invalid_ += valid ? 0 : 1;
      return valid ? -100 : -101;
    }
  }
  return path;
}

std::uint64_t OutputRule::hash(const netsim::Packet& p,
                               std::uint64_t shard_pos) {
  std::uint64_t h = mix64(p.debug_id);
  h = mix64(h ^ shard_pos);
  h = mix64(h ^ static_cast<std::uint64_t>(p.meta.msg_id));
  h = mix64(h ^ p.priority);
  h = mix64(h ^ static_cast<std::uint64_t>(path_token(p)));
  h = mix64(h ^ static_cast<std::uint64_t>(p.rl_queue));
  h = mix64(h ^ (p.drop_mark ? 1u : 0u));
  return mix64(h ^ p.charge_bytes);
}

InputStream::InputStream(const WorkloadSpec& w, std::uint64_t seed,
                         core::Stage& stage)
    : w_(w), seed_(mix64(seed)), stage_(stage), slots_(w.live) {
  for (std::size_t i = 0; i < w.classes; ++i) {
    get_attrs_.push_back(apps::MemcachedStage::get_attrs(class_key(i)));
    put_attrs_.push_back(apps::MemcachedStage::put_attrs(class_key(i)));
  }
  rng_ = mix64(seed_ ^ 0x5eed);
  rr_offset_ = rng_ % w.live;
}

InputStream::Props InputStream::props(std::uint32_t ordinal) const {
  const std::uint64_t h1 = mix64(seed_ ^ (std::uint64_t{ordinal} << 1));
  const std::uint64_t h2 = mix64(h1);
  Props p;
  p.cls = h1 % w_.classes;
  p.len = w_.min_len +
          static_cast<std::uint32_t>((h1 >> 24) % (w_.max_len - w_.min_len + 1));
  p.meta.msg_type = 1 + static_cast<std::int64_t>((h1 >> 40) & 1);
  p.meta.msg_size = static_cast<std::int64_t>((h2 >> 8) % 100000);
  p.meta.tenant = static_cast<std::int64_t>((h2 >> 28) % 3);
  p.meta.key_hash = static_cast<std::int64_t>((h2 >> 32) & 0xfffff);
  p.meta.flow_size = kFlowSizes[(h2 >> 52) & 3];
  p.meta.app_priority = static_cast<std::int64_t>((h2 >> 56) & 7);
  p.src = 1 + static_cast<std::uint32_t>((h1 >> 44) & 1);
  p.dst = static_cast<std::uint32_t>((h1 >> 48) % kDsts);
  p.src_port = static_cast<std::uint16_t>(10000 + ordinal % 50000);
  p.port_seed = h2;
  return p;
}

void InputStream::start_message(Slot& s) {
  const std::uint32_t ordinal = next_ordinal_++;
  const Props pr = props(ordinal);
  const std::int64_t t0 = now_ns();
  const core::Classification c =
      stage_.classify(pr.meta.msg_type == apps::kMemcachedGet
                          ? get_attrs_[pr.cls]
                          : put_attrs_[pr.cls],
                      pr.meta);
  classify_ns_ += now_ns() - t0;
  s.msg_id = c.meta.msg_id;
  s.trace_id = c.meta.trace_id;
  s.ordinal = ordinal;
  s.class_id = c.classes.size() > 0 ? c.classes[0] : core::kInvalidClass;
  s.remaining = static_cast<std::uint16_t>(pr.len);
  s.sent = 0;
}

void InputStream::next(netsim::Packet& p) {
  const std::size_t slot =
      w_.round_robin
          ? static_cast<std::size_t>((seq_ * 999983 + rr_offset_) % w_.live)
          : static_cast<std::size_t>((rng_ = mix64(rng_)) % w_.live);
  Slot& s = slots_[slot];
  if (s.remaining == 0) start_message(s);
  const Props pr = props(s.ordinal);
  p.src = pr.src;
  p.dst = pr.dst;
  p.src_port = pr.src_port;
  p.dst_port = static_cast<std::uint16_t>(1000 + mix64(pr.port_seed + s.sent) % 6);
  p.protocol = netsim::Protocol::tcp;
  p.size_bytes = netsim::kMssBytes + netsim::kHeaderBytes;
  p.payload_bytes = netsim::kMssBytes;
  p.seq = std::uint64_t{s.sent} * netsim::kMssBytes;
  p.classes.clear();
  p.classes.add(s.class_id);
  p.meta = pr.meta;
  p.meta.msg_id = s.msg_id;
  p.meta.trace_id = s.trace_id;
  p.debug_id = seq_++;
  --s.remaining;
  ++s.sent;
}

}  // namespace perfbench
