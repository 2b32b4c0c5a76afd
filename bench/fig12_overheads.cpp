// Regenerates Figure 12: CPU overhead of the Eden components relative
// to an emulated vanilla stack (API metadata passing, enclave
// match-action machinery, interpreter execution), plus the Section 5.4
// interpreter footprint numbers.
//
// Usage: fig12_overheads [--quick] [--pias] [--no-telemetry]
//                        [--telemetry-hist] [--telemetry-json=PATH]
#include <cstdio>

#include "bench/bench_args.h"
#include "experiments/fig12_overheads.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace eden;
  using namespace eden::experiments;

  Fig12Config cfg;
  cfg.use_pias = bench::has_flag(argc, argv, "--pias");
  if (bench::has_flag(argc, argv, "--quick")) {
    cfg.packets = 50000;
    cfg.warmup_packets = 5000;
  }
  // Counters only by default: latency histograms would add their
  // (sampled) instrumentation cost to the very layers this figure
  // measures. Opt in with --telemetry-hist to see that cost.
  cfg.telemetry.enabled = !bench::has_flag(argc, argv, "--no-telemetry");
  if (!bench::has_flag(argc, argv, "--telemetry-hist")) {
    cfg.telemetry.histogram_sample_every = 0;
  }
  cfg.telemetry.span_sample_every = static_cast<std::uint32_t>(
      bench::int_arg(argc, argv, "--trace-sample-every", 0));
  const std::string telemetry_path = bench::str_arg(
      argc, argv, "--telemetry-json", "TELEMETRY_fig12.json");

  std::printf(
      "Figure 12: per-packet CPU cost of Eden components while running\n"
      "the %s policy (wall-clock on this machine; the vanilla baseline\n"
      "emulates a software TCP send path: 2x payload copy + checksum).\n\n",
      cfg.use_pias ? "PIAS" : "SFF");

  const Fig12Result r = run_fig12(cfg);

  util::TextTable table;
  table.add_row({"layer", "avg ns/pkt", "p95 ns/pkt", "overhead avg",
                 "overhead p95"});
  table.add_row({"vanilla stack", util::fmt(r.vanilla.avg_ns),
                 util::fmt(r.vanilla.p95_ns), "-", "-"});
  table.add_row({"+ API (metadata)", util::fmt(r.api.avg_ns),
                 util::fmt(r.api.p95_ns),
                 util::fmt(100 * r.api_overhead_avg) + "%",
                 util::fmt(100 * r.api_overhead_p95) + "%"});
  table.add_row({"+ enclave (match/state)", util::fmt(r.enclave.avg_ns),
                 util::fmt(r.enclave.p95_ns),
                 util::fmt(100 * r.enclave_overhead_avg) + "%",
                 util::fmt(100 * r.enclave_overhead_p95) + "%"});
  table.add_row({"+ interpreter", util::fmt(r.interpreter.avg_ns),
                 util::fmt(r.interpreter.p95_ns),
                 util::fmt(100 * r.interpreter_overhead_avg) + "%",
                 util::fmt(100 * r.interpreter_overhead_p95) + "%"});
  std::fputs(table.render().c_str(), stdout);

  if (!r.telemetry_json.empty() &&
      bench::write_text_file(telemetry_path, r.telemetry_json + "\n")) {
    std::printf("\nWrote enclave telemetry to %s%s\n", telemetry_path.c_str(),
                cfg.telemetry.histogram_sample_every != 0
                    ? " (histograms on: enclave/interpreter rows include"
                      " sampled instrumentation cost)"
                    : "");
  }

  std::printf(
      "\nSection 5.4 footprint of the action function:\n"
      "  operand stack: %llu bytes (paper: ~64B)\n"
      "  locals/heap:   %llu bytes (paper: ~256B)\n"
      "  bytecode:      %llu instructions\n"
      "\nPaper shape: API < enclave < interpreter; all overheads modest\n"
      "and with no measurable impact on application metrics (Figure 9).\n",
      static_cast<unsigned long long>(r.operand_stack_bytes),
      static_cast<unsigned long long>(r.locals_bytes),
      static_cast<unsigned long long>(r.bytecode_instructions));
  return 0;
}
