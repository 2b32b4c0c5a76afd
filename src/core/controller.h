// The Eden controller (Section 3.2): the logically centralized
// coordination point. Anything needing global visibility lives here —
// compiling action functions against the enclave schema, distributing
// programs and match-action rules to enclaves, programming stages with
// classification rules, and the control-plane computations of the case
// studies (path weights from topology, PIAS priority thresholds from the
// observed flow-size distribution).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/enclave.h"
#include "core/stage.h"
#include "netsim/routing.h"
#include "telemetry/collector.h"

namespace eden::core {

// One (label, weight) pair of a path set, as pushed into WCMP-style
// action functions. Weights are normalized to parts-per-kWeightScale.
struct WeightedPath {
  std::int32_t label = -1;
  std::int64_t weight = 0;
};
inline constexpr std::int64_t kWeightScale = 1000;

class Controller {
 public:
  explicit Controller(ClassRegistry& registry) : registry_(registry) {}

  // --- Component registration -------------------------------------------

  void register_stage(Stage& stage) { stages_.push_back(&stage); }
  void register_enclave(Enclave& enclave) { enclaves_.push_back(&enclave); }

  Stage* stage(const std::string& name) const;
  const std::vector<Enclave*>& enclaves() const { return enclaves_; }

  // --- Program management --------------------------------------------------

  // Compiles EAL source against the enclave schema extended with
  // `global_fields`. Throws lang::LangError on bad programs.
  lang::CompiledProgram compile(const std::string& name,
                                std::string_view source,
                                std::span<const lang::FieldDef> global_fields)
      const;

  // Installs the program in every registered enclave (the controller
  // ships the same bytecode to OS and NIC enclaves alike). Returns the
  // action id, which Eden keeps identical across enclaves by
  // construction (install order is controller-driven).
  std::vector<ActionId> install_everywhere(
      const lang::CompiledProgram& program,
      std::span<const lang::FieldDef> global_fields) const;

  ClassRegistry& registry() { return registry_; }

  // --- Telemetry ----------------------------------------------------------

  // The stats read-back half of the enclave API, giving the controller
  // the global visibility the paper assumes (Section 3.2): every
  // registered enclave as a collector source (telemetry/collector.h).
  // Each source answers the delta protocol in-process through its own
  // telemetry::DeltaEncoder, exactly as a remote agent does, so feed
  // the result — plus any remote sessions' sources — to one
  // TelemetryCollector and poll. Render the merged view with
  // telemetry::to_json / telemetry::to_prometheus.
  std::vector<telemetry::CollectorSource> telemetry_sources() const;

  // --- Control-plane computations -----------------------------------------

  // Weighted paths between two hosts: weight proportional to the path's
  // bottleneck capacity (the WCMP control function of Section 2.1.1),
  // normalized so weights sum to kWeightScale.
  static std::vector<WeightedPath> weighted_paths(
      const netsim::Routing& routing, netsim::HostId src,
      netsim::HostId dst);

  // PIAS-style demotion thresholds: given sampled flow sizes and the
  // number of priority levels, returns level-1 descending thresholds
  // at evenly spaced quantiles. Result[i] is the upper size bound for
  // priority (levels-1-i).
  static std::vector<std::int64_t> priority_thresholds(
      std::span<const std::uint64_t> flow_sizes, int levels);

 private:
  ClassRegistry& registry_;
  std::vector<Stage*> stages_;
  std::vector<Enclave*> enclaves_;
};

}  // namespace eden::core
