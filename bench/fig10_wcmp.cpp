// Regenerates Figure 10: aggregate TCP throughput under per-packet ECMP
// vs WCMP (10:1 weights) on the Figure 1 asymmetric topology, native vs
// Eden interpreter, plus the message-level WCMP ablation.
//
// Usage: fig10_wcmp [--quick] [--ms=SIM_MS] [--flows=N]
//                   [--no-telemetry] [--telemetry-json=PATH]
#include <cstdio>

#include "bench/bench_args.h"
#include "experiments/fig10_wcmp.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace eden;
  using namespace eden::experiments;

  const bool quick = bench::has_flag(argc, argv, "--quick");
  const long sim_ms = bench::int_arg(argc, argv, "--ms", quick ? 300 : 1000);
  const long flows = bench::int_arg(argc, argv, "--flows", 4);
  const bool telemetry = !bench::has_flag(argc, argv, "--no-telemetry");
  const std::string telemetry_path = bench::str_arg(
      argc, argv, "--telemetry-json", "TELEMETRY_fig10.json");
  std::vector<std::pair<std::string, std::string>> telemetry_runs;

  std::printf(
      "Figure 10: ECMP vs WCMP aggregate throughput, Figure 1 topology\n"
      "(10 Gbps and 1 Gbps paths, min-cut 11 Gbps), per-packet path choice\n"
      "in the sender's enclave, %ld long-running TCP flows, %ld ms.\n\n",
      flows, sim_ms);

  util::TextTable table;
  table.add_row({"scheme", "variant", "Mbps", "fast-rtx", "timeouts",
                 "ooo-segs", "interpreted"});

  struct Case {
    LoadBalanceScheme scheme;
    DataPlaneVariant variant;
    bool message_level;
    long delay_us;  // per-packet enclave latency ablation
  };
  const Case cases[] = {
      {LoadBalanceScheme::ecmp, DataPlaneVariant::native, false, 0},
      {LoadBalanceScheme::ecmp, DataPlaneVariant::eden, false, 0},
      {LoadBalanceScheme::wcmp, DataPlaneVariant::native, false, 0},
      {LoadBalanceScheme::wcmp, DataPlaneVariant::eden, false, 0},
      {LoadBalanceScheme::wcmp, DataPlaneVariant::eden, true, 0},
      // Ablation: a NIC whose interpreter adds 1 us per packet.
      {LoadBalanceScheme::wcmp, DataPlaneVariant::eden, false, 1},
  };

  for (const Case& c : cases) {
    Fig10Config cfg;
    cfg.scheme = c.scheme;
    cfg.variant = c.variant;
    cfg.message_level = c.message_level;
    cfg.enclave_delay = c.delay_us * netsim::kMicrosecond;
    cfg.num_flows = static_cast<int>(flows);
    cfg.duration = sim_ms * netsim::kMillisecond;
    cfg.telemetry.enabled = telemetry;
    cfg.telemetry.span_sample_every = static_cast<std::uint32_t>(
        bench::int_arg(argc, argv, "--trace-sample-every", 0));
    const Fig10Result r = run_fig10(cfg);
    const std::string label = to_string(c.scheme) +
                              (c.message_level ? " (msg-level)" : "") +
                              (c.delay_us > 0 ? " (+1us/pkt)" : "");
    if (!r.telemetry_json.empty()) {
      telemetry_runs.emplace_back(label + "/" + to_string(c.variant),
                                  r.telemetry_json);
    }
    table.add_row({label, to_string(c.variant),
                   util::fmt(r.throughput_mbps, 0),
                   std::to_string(r.fast_retransmits),
                   std::to_string(r.timeouts),
                   std::to_string(r.ooo_segments),
                   std::to_string(r.interpreted_packets)});
  }

  std::fputs(table.render().c_str(), stdout);
  if (!telemetry_runs.empty() &&
      bench::write_text_file(telemetry_path,
                             bench::combine_telemetry_runs(telemetry_runs))) {
    std::printf("\nWrote enclave telemetry to %s\n", telemetry_path.c_str());
  }
  std::printf(
      "\nPaper shape: ECMP ~2 Gbps (slow path dominates), WCMP ~3x better\n"
      "but below the 11 Gbps min-cut due to in-network reordering; native\n"
      "vs EDEN differences negligible. Message-level WCMP (ablation)\n"
      "avoids reordering within a message.\n");
  return 0;
}
