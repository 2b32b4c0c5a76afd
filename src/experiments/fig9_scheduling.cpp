#include "experiments/fig9_scheduling.h"

#include <unordered_map>

#include "apps/workload.h"
#include "experiments/testbed.h"
#include "functions/scheduling.h"
#include "telemetry/collector.h"

namespace eden::experiments {

std::string to_string(SchedulingScheme scheme) {
  switch (scheme) {
    case SchedulingScheme::baseline: return "baseline";
    case SchedulingScheme::pias: return "PIAS";
    case SchedulingScheme::sff: return "SFF";
  }
  return "?";
}

std::string to_string(SchedulingVariant variant) {
  switch (variant) {
    case SchedulingVariant::native: return "native";
    case SchedulingVariant::eden: return "EDEN";
    case SchedulingVariant::eden_ignore_output: return "EDEN(no-op)";
  }
  return "?";
}

namespace {

constexpr std::uint16_t kResponsePort = 8000;
constexpr std::uint16_t kBackgroundPort = 8001;
constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;

struct PendingFlow {
  netsim::SimTime start;
  std::uint64_t size;
};

// Installs the scheme's action function on a sender's enclave.
core::ActionId install_scheme(core::Enclave& enclave,
                              const Fig9Config& config) {
  const bool native = config.variant == SchedulingVariant::native;
  const functions::PiasFunction pias;
  const functions::SffFunction sff;
  const functions::NetworkFunction& fn =
      config.scheme == SchedulingScheme::sff
          ? static_cast<const functions::NetworkFunction&>(sff)
          : pias;  // baseline(eden) runs PIAS with its output ignored
  const core::ActionId action = fn.install(enclave, native);
  const std::int64_t limits[] = {config.small_limit,
                                 config.intermediate_limit};
  const std::int64_t priorities[] = {7, 5};
  functions::push_priority_thresholds(enclave, action, limits, priorities);
  const core::TableId table = enclave.create_table("sched");
  enclave.add_rule(table, core::ClassPattern("*"), action);
  return action;
}

}  // namespace

Fig9Result run_fig9(const Fig9Config& config) {
  hoststack::HostStackConfig stack_config;
  if (config.variant == SchedulingVariant::eden_ignore_output) {
    // The paper's Baseline(EDEN): classification and interpretation run,
    // but the output is discarded before transmission.
    stack_config.post_enclave = [](netsim::Packet& p) { p.priority = 0; };
  }

  Testbed bed(stack_config);
  auto& client = bed.add_host("client");
  auto& worker = bed.add_host("worker");
  std::vector<netsim::HostNode*> bg_hosts;
  for (int i = 0; i < config.background_sources; ++i) {
    bg_hosts.push_back(&bed.add_host("bg" + std::to_string(i)));
  }
  auto& sw = bed.add_switch("tor");

  const netsim::SimTime delay = 2 * netsim::kMicrosecond;
  netsim::QueueConfig qc;
  qc.per_queue_bytes = config.queue_bytes;
  bed.connect(client, sw, 10 * kGbps, delay, qc);
  bed.connect(worker, sw, 10 * kGbps, delay, qc);
  for (auto* bg : bg_hosts) bed.connect(*bg, sw, 10 * kGbps, delay, qc);
  bed.routing().install_dest_routes();

  core::EnclaveConfig ec;
  ec.rng_seed = config.rng_seed;
  ec.telemetry = config.telemetry;
  bed.finalize(ec);

  TestHost& client_host = *bed.host_by_name("client");
  TestHost& worker_host = *bed.host_by_name("worker");

  const bool scheduling_active =
      config.scheme != SchedulingScheme::baseline ||
      config.variant == SchedulingVariant::eden_ignore_output;
  std::vector<core::ActionId> sender_actions;
  if (scheduling_active) {
    sender_actions.push_back(
        install_scheme(*worker_host.enclave, config));
    for (auto* bg : bg_hosts) {
      sender_actions.push_back(
          install_scheme(*bed.host_by_name(bg->name())->enclave, config));
    }
  }

  // --- Measurement plumbing -------------------------------------------

  Fig9Result result;
  std::unordered_map<netsim::FlowId, PendingFlow> pending;
  const netsim::SimTime measure_from = config.warmup;
  std::uint64_t bg_delivered = 0;
  std::uint64_t bg_delivered_at_warmup = 0;

  client_host.stack->listen(
      kResponsePort,
      [&](transport::TcpReceiver& receiver, const hoststack::FlowInfo& info) {
        receiver.expect(static_cast<std::uint64_t>(info.meta.msg_size));
        const netsim::FlowId fid = info.flow_id;
        receiver.on_complete = [&, fid] {
          const auto it = pending.find(fid);
          if (it == pending.end()) return;
          const PendingFlow flow = it->second;
          pending.erase(it);
          client_host.stack->close_flow(fid);
          if (flow.start < measure_from) return;  // warmup flow
          const double fct_us =
              netsim::to_micros(bed.network().now() - flow.start);
          if (flow.size < static_cast<std::uint64_t>(config.small_limit)) {
            result.small_fct_us.add(fct_us);
          } else if (flow.size < static_cast<std::uint64_t>(
                                     config.intermediate_limit)) {
            result.intermediate_fct_us.add(fct_us);
          }
          ++result.completed_flows;
        };
      });

  client_host.stack->listen(
      kBackgroundPort,
      [&](transport::TcpReceiver& receiver, const hoststack::FlowInfo&) {
        receiver.on_deliver = [&bg_delivered, last = std::uint64_t{0}](
                                  std::uint64_t contiguous) mutable {
          bg_delivered += contiguous - last;
          last = contiguous;
        };
      });

  // --- Workload ----------------------------------------------------------

  util::Rng rng(config.rng_seed);
  const auto dist = config.workload == WorkloadKind::web_search
                        ? apps::FlowSizeDistribution::web_search()
                        : apps::FlowSizeDistribution::data_mining();
  const apps::PoissonArrivals arrivals(config.load, 10 * kGbps, dist.mean());
  std::int64_t next_msg_id = 1;

  // The worker is an Eden-compliant stage (Section 3.3): message
  // attributes go through classify(), which produces the classes and
  // metadata stamped on the flow's packets — and, with span tracing on,
  // starts the lifecycle trace at its first hop. The meta values are
  // identical to what the harness used to stamp by hand.
  core::Stage fig9_stage("fig9", {"kind"}, {"msg_id", "msg_size", "flow_size"},
                         bed.registry());
  bed.controller().register_stage(fig9_stage);
  const core::MetaFieldMask fig9_mask = core::meta_bit(core::MetaField::msg_id) |
                                        core::meta_bit(core::MetaField::msg_size) |
                                        core::meta_bit(core::MetaField::flow_size);
  fig9_stage.create_rule("flows", {core::FieldPattern::exact("response")},
                         "response", fig9_mask);
  fig9_stage.create_rule("flows", {core::FieldPattern::exact("background")},
                         "background", fig9_mask);

  // Worker request-response flows at Poisson arrivals.
  std::function<void()> schedule_next = [&] {
    const netsim::SimTime gap = arrivals.next_gap(rng);
    bed.network().scheduler().after(gap, [&] {
      const std::uint64_t size = dist.sample(rng);
      netsim::PacketMeta available;
      available.msg_id = next_msg_id++;
      available.msg_size = static_cast<std::int64_t>(size);
      available.flow_size = static_cast<std::int64_t>(size);  // SFF app info
      const core::Classification cls =
          fig9_stage.classify({"response"}, available);
      transport::TcpSender& sender = worker_host.stack->open_flow(
          client.id(), kResponsePort, cls.meta, cls.classes);
      pending.emplace(sender.flow_id(),
                      PendingFlow{bed.network().now(), size});
      const netsim::FlowId fid = sender.flow_id();
      sender.on_complete = [&, fid] { worker_host.stack->close_flow(fid); };
      sender.start(size);
      schedule_next();
    });
  };
  schedule_next();

  // Background bulk flows: restart as they finish so the link stays
  // saturated.
  constexpr std::uint64_t kBgFlowBytes = 50ULL * 1024 * 1024;
  std::function<void(TestHost&)> start_bg = [&](TestHost& src) {
    netsim::PacketMeta available;
    available.msg_id = next_msg_id++;
    available.msg_size = static_cast<std::int64_t>(kBgFlowBytes);
    available.flow_size = static_cast<std::int64_t>(kBgFlowBytes);
    const core::Classification cls =
        fig9_stage.classify({"background"}, available);
    transport::TcpSender& sender =
        src.stack->open_flow(client.id(), kBackgroundPort, cls.meta,
                             cls.classes);
    const netsim::FlowId fid = sender.flow_id();
    sender.on_complete = [&, fid, &src2 = src] {
      src2.stack->close_flow(fid);
      start_bg(src2);
    };
    sender.start(kBgFlowBytes);
  };
  for (auto* bg : bg_hosts) start_bg(*bed.host_by_name(bg->name()));

  // --- Run -------------------------------------------------------------------

  bed.run_for(config.warmup);
  bg_delivered_at_warmup = bg_delivered;
  bed.run_for(config.duration);

  result.background_mbps =
      static_cast<double>(bg_delivered - bg_delivered_at_warmup) * 8.0 /
      netsim::to_seconds(config.duration) / 1e6;
  if (scheduling_active) {
    result.interpreter_errors =
        worker_host.enclave->action_stats(sender_actions[0]).errors;
  }
  if (config.telemetry.enabled) {
    telemetry::TelemetryCollector collector({},
                                            [] { return std::uint64_t{0}; });
    for (telemetry::CollectorSource& s : bed.controller().telemetry_sources()) {
      collector.add_source(std::move(s));
    }
    result.telemetry_json = telemetry::to_json(collector.poll());
  }
  return result;
}

}  // namespace eden::experiments
