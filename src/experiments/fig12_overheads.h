// Figure 12: CPU overhead of Eden's components, measured on the real
// code (wall-clock, not simulated time).
//
// The paper decomposes the per-packet cost of running the SFF policy
// into three components on top of the vanilla stack:
//   API         — passing class/metadata information down the stack
//                 (stage classification + per-packet stamping);
//   enclave     — match-action lookup, state marshalling, message state;
//   interpreter — executing the action function as bytecode rather than
//                 native code.
// We measure each layer's per-packet nanoseconds over many batches, in
// interleaved rounds, and report the average and 95th percentile of the
// layer's cheapest round, plus the overhead relative to the vanilla
// baseline, and the Section 5.4 footprint numbers (operand stack / heap
// bytes used by the program).
#pragma once

#include <cstdint>
#include <string>

#include "core/enclave.h"

namespace eden::experiments {

struct LayerCost {
  double avg_ns = 0.0;
  double p95_ns = 0.0;
};

struct Fig12Config {
  std::uint64_t packets = 200000;   // measured packets per layer
  std::uint64_t batch = 256;        // packets per timing sample
  std::uint64_t warmup_packets = 20000;  // unmeasured, before each round
  bool use_pias = false;            // measure PIAS instead of SFF
  // Enclave telemetry knobs. Note: fig12 measures per-packet cost, so
  // enabling histograms perturbs the enclave/interpreter layers by the
  // (sampled) instrumentation cost — that cost is itself a Table-1
  // acceptance number, so the default stays off here.
  core::TelemetryConfig telemetry;
};

struct Fig12Result {
  LayerCost vanilla;      // packet construction + queueing, no Eden
  LayerCost api;          // vanilla + classification/metadata
  LayerCost enclave;      // api + match-action with a native no-op
  LayerCost interpreter;  // api + match-action with bytecode execution

  // Overheads relative to vanilla (e.g. 0.07 = 7%), paper-style.
  double api_overhead_avg = 0.0, api_overhead_p95 = 0.0;
  double enclave_overhead_avg = 0.0, enclave_overhead_p95 = 0.0;
  double interpreter_overhead_avg = 0.0, interpreter_overhead_p95 = 0.0;

  // Section 5.4 footprint of the measured action function.
  std::uint64_t operand_stack_bytes = 0;
  std::uint64_t locals_bytes = 0;
  std::uint64_t bytecode_instructions = 0;

  std::string telemetry_json;  // set when config.telemetry.enabled
};

Fig12Result run_fig12(const Fig12Config& config);

}  // namespace eden::experiments
