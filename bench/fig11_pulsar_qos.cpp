// Regenerates Figure 11: READ vs WRITE tenant throughput against a
// storage server behind a 1 Gbps link — isolated, simultaneous, and
// with Pulsar's rate control charging READs by request size.
//
// Usage: fig11_pulsar_qos [--quick] [--ms=SIM_MS] [--native]
//                         [--no-telemetry] [--telemetry-json=PATH]
#include <cstdio>

#include "bench/bench_args.h"
#include "experiments/fig11_pulsar.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace eden;
  using namespace eden::experiments;

  const bool quick = bench::has_flag(argc, argv, "--quick");
  const bool use_native = bench::has_flag(argc, argv, "--native");
  const long sim_ms = bench::int_arg(argc, argv, "--ms", quick ? 500 : 2000);
  const bool telemetry = !bench::has_flag(argc, argv, "--no-telemetry");
  const std::string telemetry_path = bench::str_arg(
      argc, argv, "--telemetry-json", "TELEMETRY_fig11.json");
  std::vector<std::pair<std::string, std::string>> telemetry_runs;

  std::printf(
      "Figure 11: READ vs WRITE throughput, two tenants issuing 64KB IOs\n"
      "to a storage server behind a 1 Gbps link (%s action function,\n"
      "%ld ms simulated per mode).\n\n",
      use_native ? "native" : "EDEN bytecode", sim_ms);

  util::TextTable table;
  table.add_row({"mode", "READs MB/s", "WRITEs MB/s", "rejected reqs"});

  for (const PulsarMode mode :
       {PulsarMode::isolated, PulsarMode::simultaneous,
        PulsarMode::rate_controlled}) {
    Fig11Config cfg;
    cfg.mode = mode;
    cfg.use_native = use_native;
    cfg.duration = sim_ms * netsim::kMillisecond;
    cfg.telemetry.enabled = telemetry;
    cfg.telemetry.span_sample_every = static_cast<std::uint32_t>(
        bench::int_arg(argc, argv, "--trace-sample-every", 0));
    const Fig11Result r = run_fig11(cfg);
    table.add_row({to_string(mode), util::fmt(r.read_mbps),
                   util::fmt(r.write_mbps),
                   std::to_string(r.rejected_requests)});
    if (!r.telemetry_json.empty()) {
      telemetry_runs.emplace_back(to_string(mode), r.telemetry_json);
    }
  }

  std::fputs(table.render().c_str(), stdout);
  if (!telemetry_runs.empty() &&
      bench::write_text_file(telemetry_path,
                             bench::combine_telemetry_runs(telemetry_runs))) {
    std::printf("\nWrote enclave telemetry to %s\n", telemetry_path.c_str());
  }
  std::printf(
      "\nPaper shape: isolated throughputs are equal; competing READs\n"
      "starve WRITEs (the paper reports a 72%% drop); charging READ\n"
      "requests by operation size restores equal throughput.\n");
  return 0;
}
