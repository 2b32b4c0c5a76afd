// Regenerates Figure 9: average and 95th-percentile flow completion
// times for small and intermediate flows under baseline / PIAS / SFF,
// each native and through the Eden interpreter.
//
// Usage: fig9_flow_scheduling [--quick] [--reps=N] [--ms=SIM_MS]
//                              [--no-telemetry] [--telemetry-json=PATH]
//                              [--trace-sample-every=N] [--trace-json=PATH]
#include <cstdio>

#include "bench/bench_args.h"
#include "experiments/fig9_scheduling.h"
#include "telemetry/span.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace eden;
  using namespace eden::experiments;

  const bool quick = bench::has_flag(argc, argv, "--quick");
  const long reps = bench::int_arg(argc, argv, "--reps", quick ? 1 : 3);
  const long sim_ms = bench::int_arg(argc, argv, "--ms", quick ? 300 : 1000);
  const long load_pct = bench::int_arg(argc, argv, "--load", 70);
  const bool mining = bench::has_flag(argc, argv, "--mining");
  const bool telemetry = !bench::has_flag(argc, argv, "--no-telemetry");
  const std::string telemetry_path = bench::str_arg(
      argc, argv, "--telemetry-json", "TELEMETRY_fig9.json");
  // Lifecycle span tracing: 1-in-N message sampling (0 = off), exported
  // as Chrome trace_event JSON after the sweep.
  const long trace_every =
      bench::int_arg(argc, argv, "--trace-sample-every", 0);
  const std::string trace_path =
      bench::str_arg(argc, argv, "--trace-json", "TRACE_fig9.json");
  std::vector<std::pair<std::string, std::string>> telemetry_runs;

  struct Case {
    SchedulingScheme scheme;
    SchedulingVariant variant;
  };
  const Case cases[] = {
      {SchedulingScheme::baseline, SchedulingVariant::native},
      {SchedulingScheme::baseline, SchedulingVariant::eden_ignore_output},
      {SchedulingScheme::pias, SchedulingVariant::native},
      {SchedulingScheme::pias, SchedulingVariant::eden},
      {SchedulingScheme::sff, SchedulingVariant::native},
      {SchedulingScheme::sff, SchedulingVariant::eden},
  };

  std::printf(
      "Figure 9: flow completion times (us), request-response workload\n"
      "(%s distribution) at %ld%% load with background traffic, 3 priority\n"
      "classes. %ld repetition(s) x %ld ms simulated per scheme.\n\n",
      mining ? "data-mining" : "web-search", load_pct, reps, sim_ms);

  util::TextTable table;
  table.add_row({"scheme", "variant", "small avg", "+-95%", "small p95",
                 "mid avg", "+-95%", "mid p95", "bg Mbps", "flows"});

  for (const Case& c : cases) {
    util::Summary small_avg, small_p95, mid_avg, mid_p95, bg;
    std::uint64_t flows = 0;
    for (long rep = 0; rep < reps; ++rep) {
      Fig9Config cfg;
      cfg.scheme = c.scheme;
      cfg.variant = c.variant;
      cfg.load = static_cast<double>(load_pct) / 100.0;
      cfg.workload = mining ? WorkloadKind::data_mining
                            : WorkloadKind::web_search;
      cfg.duration = sim_ms * netsim::kMillisecond;
      cfg.rng_seed = 1 + static_cast<std::uint64_t>(rep);
      // Snapshot the last repetition of each case.
      cfg.telemetry.enabled = telemetry && rep == reps - 1;
      cfg.telemetry.span_sample_every = static_cast<std::uint32_t>(trace_every);
      const Fig9Result r = run_fig9(cfg);
      if (!r.telemetry_json.empty()) {
        telemetry_runs.emplace_back(
            to_string(c.scheme) + std::string("/") + to_string(c.variant),
            r.telemetry_json);
      }
      small_avg.add(r.small_fct_us.mean());
      small_p95.add(r.small_fct_us.p95());
      mid_avg.add(r.intermediate_fct_us.mean());
      mid_p95.add(r.intermediate_fct_us.p95());
      bg.add(r.background_mbps);
      flows += r.completed_flows;
    }
    table.add_row({to_string(c.scheme), to_string(c.variant),
                   util::fmt(small_avg.mean()), util::fmt(small_avg.ci95()),
                   util::fmt(small_p95.mean()), util::fmt(mid_avg.mean()),
                   util::fmt(mid_avg.ci95()), util::fmt(mid_p95.mean()),
                   util::fmt(bg.mean(), 0), std::to_string(flows)});
  }

  std::fputs(table.render().c_str(), stdout);
  if (!telemetry_runs.empty() &&
      bench::write_text_file(telemetry_path,
                             bench::combine_telemetry_runs(telemetry_runs))) {
    std::printf("\nWrote enclave telemetry to %s\n", telemetry_path.c_str());
  }
  if (trace_every > 0) {
    const std::string trace_json = telemetry::to_trace_event_json(
        telemetry::SpanCollector::instance().snapshot());
    if (bench::write_text_file(trace_path, trace_json)) {
      std::printf("Wrote lifecycle trace (Perfetto trace_event JSON) to %s\n",
                  trace_path.c_str());
    }
  }
  std::printf(
      "\nPaper shape: prioritization cuts small-flow FCT 25-40%%; SFF <=\n"
      "PIAS; native vs EDEN differences not significant; background\n"
      "traffic still saturates the residual capacity.\n");
  return 0;
}
