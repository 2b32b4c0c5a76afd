#include "core/controller.h"

#include <algorithm>

#include "lang/compiler.h"

namespace eden::core {

Stage* Controller::stage(const std::string& name) const {
  for (Stage* s : stages_) {
    if (s->name() == name) return s;
  }
  return nullptr;
}

lang::CompiledProgram Controller::compile(
    const std::string& name, std::string_view source,
    std::span<const lang::FieldDef> global_fields) const {
  const lang::StateSchema schema = make_enclave_schema(
      std::vector<lang::FieldDef>(global_fields.begin(),
                                  global_fields.end()));
  return lang::compile_source(source, schema, {}, name);
}

std::vector<ActionId> Controller::install_everywhere(
    const lang::CompiledProgram& program,
    std::span<const lang::FieldDef> global_fields) const {
  std::vector<ActionId> ids;
  ids.reserve(enclaves_.size());
  for (Enclave* enclave : enclaves_) {
    // Each enclave receives the serialized bytecode, as it would over
    // the wire, exercising the cross-platform encode/decode path.
    lang::CompiledProgram shipped =
        lang::CompiledProgram::deserialize(program.serialize());
    ids.push_back(enclave->install_action(
        program.source_name, std::move(shipped),
        std::vector<lang::FieldDef>(global_fields.begin(),
                                    global_fields.end())));
  }
  return ids;
}

std::vector<WeightedPath> Controller::weighted_paths(
    const netsim::Routing& routing, netsim::HostId src, netsim::HostId dst) {
  const auto& paths = routing.paths(src, dst);
  std::vector<WeightedPath> result;
  if (paths.empty()) return result;

  long double total = 0;
  for (const auto& p : paths) total += static_cast<long double>(p.bottleneck_bps);
  if (total <= 0) return result;

  std::int64_t assigned = 0;
  for (const auto& p : paths) {
    WeightedPath wp;
    wp.label = p.label;
    wp.weight = static_cast<std::int64_t>(
        static_cast<long double>(p.bottleneck_bps) / total * kWeightScale);
    assigned += wp.weight;
    result.push_back(wp);
  }
  // Give rounding residue to the widest path so weights always sum to
  // kWeightScale (action functions rely on this for rand(kWeightScale)).
  if (!result.empty() && assigned != kWeightScale) {
    auto widest = std::max_element(
        result.begin(), result.end(),
        [](const WeightedPath& a, const WeightedPath& b) {
          return a.weight < b.weight;
        });
    widest->weight += kWeightScale - assigned;
  }
  return result;
}

std::vector<std::int64_t> Controller::priority_thresholds(
    std::span<const std::uint64_t> flow_sizes, int levels) {
  std::vector<std::int64_t> thresholds;
  if (levels < 2 || flow_sizes.empty()) return thresholds;
  std::vector<std::uint64_t> sorted(flow_sizes.begin(), flow_sizes.end());
  std::sort(sorted.begin(), sorted.end());
  // levels-1 thresholds at evenly spaced quantiles; flows larger than
  // the last threshold fall to the lowest priority.
  for (int i = 1; i < levels; ++i) {
    const double q = static_cast<double>(i) / levels;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    thresholds.push_back(static_cast<std::int64_t>(sorted[idx]));
  }
  // Strictly increasing (duplicate quantiles collapse in heavy-tailed
  // distributions).
  for (std::size_t i = 1; i < thresholds.size(); ++i) {
    thresholds[i] = std::max(thresholds[i], thresholds[i - 1] + 1);
  }
  return thresholds;
}

std::vector<telemetry::CollectorSource> Controller::telemetry_sources()
    const {
  std::vector<telemetry::CollectorSource> sources;
  sources.reserve(enclaves_.size());
  for (Enclave* enclave : enclaves_) {
    telemetry::CollectorSource s;
    s.name = "local" + std::to_string(sources.size());
    // The closure owns its encoder, the per-connection state a remote
    // agent holds.
    s.fetch_delta = [enclave, encoder = telemetry::DeltaEncoder{}](
                        std::uint64_t epoch, std::uint64_t seq) mutable {
      return encoder.encode(enclave->telemetry_snapshot(), epoch, seq);
    };
    sources.push_back(std::move(s));
  }
  return sources;
}

}  // namespace eden::core
