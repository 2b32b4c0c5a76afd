#include "experiments/fig10_wcmp.h"

#include "experiments/testbed.h"
#include "functions/wcmp.h"
#include "telemetry/collector.h"

namespace eden::experiments {

std::string to_string(LoadBalanceScheme scheme) {
  return scheme == LoadBalanceScheme::ecmp ? "ECMP" : "WCMP";
}
std::string to_string(DataPlaneVariant variant) {
  return variant == DataPlaneVariant::native ? "native" : "EDEN";
}

Fig10Result run_fig10(const Fig10Config& config) {
  constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;

  hoststack::HostStackConfig stack_config;
  stack_config.enclave_delay = config.enclave_delay;
  Testbed bed(stack_config);
  auto& h1 = bed.add_host("h1");
  auto& h2 = bed.add_host("h2");
  auto& a = bed.add_switch("a");   // H1-side switch
  auto& b = bed.add_switch("b");   // fast path
  auto& c = bed.add_switch("c");   // slow path
  auto& d = bed.add_switch("d");   // H2-side switch

  const netsim::SimTime delay = 2 * netsim::kMicrosecond;
  netsim::QueueConfig deep;  // host/core links
  deep.per_queue_bytes = 512 * 1024;
  bed.connect(h1, a, 20 * kGbps, delay, deep);
  bed.connect(a, b, 10 * kGbps, delay, deep);
  bed.connect(b, d, 10 * kGbps, delay, deep);
  bed.connect(a, c, 1 * kGbps, delay, deep);
  bed.connect(c, d, 1 * kGbps, delay, deep);
  bed.connect(d, h2, 20 * kGbps, delay, deep);

  bed.routing().install_all_paths();
  bed.routing().install_dest_routes();

  core::EnclaveConfig ec;
  ec.rng_seed = config.rng_seed;
  ec.telemetry = config.telemetry;
  bed.finalize(ec);
  TestHost& sender_host = *bed.host_by_name("h1");

  // Install the load-balancing function on the sender's enclave (the
  // programmable-NIC enclave of the paper's testbed).
  const functions::WcmpFunction wcmp;
  const functions::MessageWcmpFunction message_wcmp;
  const functions::NetworkFunction& fn =
      config.message_level
          ? static_cast<const functions::NetworkFunction&>(message_wcmp)
          : wcmp;
  const core::ActionId action = fn.install(
      *sender_host.enclave, config.variant == DataPlaneVariant::native);

  // Controller: weighted path table for h1 -> h2. WCMP uses capacity-
  // proportional weights (10:1 here); ECMP equalizes them.
  auto paths = core::Controller::weighted_paths(bed.routing(), h1.id(),
                                                h2.id());
  if (config.scheme == LoadBalanceScheme::ecmp) {
    const std::int64_t share =
        core::kWeightScale / static_cast<std::int64_t>(paths.size());
    for (auto& p : paths) p.weight = share;
    paths.back().weight +=
        core::kWeightScale -
        share * static_cast<std::int64_t>(paths.size());
  }
  functions::push_path_table(*sender_host.enclave, action,
                             {{h2.id(), paths}});

  const core::TableId table = sender_host.enclave->create_table("lb");
  sender_host.enclave->add_rule(table, core::ClassPattern("*"), action);

  // Long-running TCP flows h1 -> h2.
  TestHost& receiver_host = *bed.host_by_name("h2");
  std::uint64_t delivered = 0;
  std::uint64_t delivered_at_warmup = 0;
  std::vector<transport::TcpReceiver*> receivers;
  receiver_host.stack->listen(
      7000, [&](transport::TcpReceiver& r, const hoststack::FlowInfo&) {
        receivers.push_back(&r);
        r.on_deliver = [&delivered, last = std::uint64_t{0}](
                           std::uint64_t contiguous) mutable {
          delivered += contiguous - last;
          last = contiguous;
        };
      });

  std::vector<transport::TcpSender*> senders;
  for (int i = 0; i < config.num_flows; ++i) {
    transport::TcpSender& s = sender_host.stack->open_flow(h2.id(), 7000);
    s.start(1ULL << 40);  // effectively unbounded
    senders.push_back(&s);
  }

  bed.run_for(config.warmup);
  delivered_at_warmup = delivered;
  bed.run_for(config.duration);

  Fig10Result result;
  result.throughput_mbps =
      static_cast<double>(delivered - delivered_at_warmup) * 8.0 /
      netsim::to_seconds(config.duration) / 1e6;
  for (const transport::TcpSender* s : senders) {
    result.fast_retransmits += s->stats().fast_retransmits;
    result.timeouts += s->stats().timeouts;
  }
  for (const transport::TcpReceiver* r : receivers) {
    result.ooo_segments += r->ooo_segments();
  }
  result.interpreted_packets =
      sender_host.enclave->action_stats(action).executions;
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
