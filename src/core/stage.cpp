#include "core/stage.h"

#include <stdexcept>

#include "telemetry/span.h"

namespace eden::core {

Stage::Stage(std::string name, std::vector<std::string> classifier_fields,
             std::vector<std::string> meta_fields, ClassRegistry& registry)
    : name_(std::move(name)),
      classifier_fields_(std::move(classifier_fields)),
      meta_fields_(std::move(meta_fields)),
      registry_(registry) {}

StageInfo Stage::get_stage_info() const {
  return StageInfo{name_, classifier_fields_, meta_fields_};
}

RuleId Stage::create_rule(const std::string& rule_set, Classifier classifier,
                          const std::string& class_name,
                          MetaFieldMask meta_mask) {
  if (classifier.size() != classifier_fields_.size()) {
    throw std::invalid_argument(
        "classifier for stage '" + name_ + "' needs " +
        std::to_string(classifier_fields_.size()) + " field pattern(s)");
  }
  ClassificationRule rule;
  rule.class_id =
      registry_.intern(QualifiedClassName{name_, rule_set, class_name});
  rule.id = next_rule_id_++;
  rule.classifier = std::move(classifier);
  rule.class_name = class_name;
  rule.meta_mask = meta_mask;
  rule_sets_[rule_set].push_back(std::move(rule));
  return rule_sets_[rule_set].back().id;
}

bool Stage::remove_rule(const std::string& rule_set, RuleId id) {
  const auto set_it = rule_sets_.find(rule_set);
  if (set_it == rule_sets_.end()) return false;
  auto& rules = set_it->second;
  for (auto it = rules.begin(); it != rules.end(); ++it) {
    if (it->id == id) {
      rules.erase(it);
      if (rules.empty()) rule_sets_.erase(set_it);
      return true;
    }
  }
  return false;
}

std::size_t Stage::rule_count() const {
  std::size_t n = 0;
  for (const auto& [_, rules] : rule_sets_) n += rules.size();
  return n;
}

Classification Stage::classify(const MessageAttrs& attrs,
                               const netsim::PacketMeta& available) {
  Classification result;
  bool need_msg_id = false;
  MetaFieldMask merged_mask = 0;

  for (const auto& [set_name, rules] : rule_sets_) {
    (void)set_name;
    for (const ClassificationRule& rule : rules) {
      bool match = attrs.size() == rule.classifier.size();
      for (std::size_t i = 0; match && i < rule.classifier.size(); ++i) {
        match = rule.classifier[i].matches(attrs[i]);
      }
      if (!match) continue;
      result.classes.add(rule.class_id);
      merged_mask |= rule.meta_mask;
      if (rule.meta_mask & meta_bit(MetaField::msg_id)) need_msg_id = true;
      break;  // a message matches at most one rule per rule-set
    }
  }

  auto want = [merged_mask](MetaField f) {
    return (merged_mask & meta_bit(f)) != 0;
  };
  if (need_msg_id) {
    result.meta.msg_id =
        available.msg_id != 0 ? available.msg_id : next_msg_id();
  }
  if (want(MetaField::msg_type)) result.meta.msg_type = available.msg_type;
  if (want(MetaField::msg_size)) result.meta.msg_size = available.msg_size;
  if (want(MetaField::tenant)) result.meta.tenant = available.tenant;
  if (want(MetaField::key_hash)) result.meta.key_hash = available.key_hash;
  if (want(MetaField::flow_size)) result.meta.flow_size = available.flow_size;
  if (want(MetaField::app_priority)) {
    result.meta.app_priority = available.app_priority;
  }

  // Lifecycle tracing starts at classification — the first hop a message
  // takes through the stack. Sampled messages get a trace id stamped
  // into their metadata unconditionally of the rules' meta masks; every
  // later layer keys off it.
  auto& spans = telemetry::SpanCollector::instance();
  if (spans.enabled()) {
    result.meta.trace_id = spans.maybe_start_trace();
    if (result.meta.trace_id != 0) {
      spans.record_now(result.meta.trace_id, telemetry::Hop::stage_classify,
                       static_cast<std::int64_t>(result.classes.size()));
    }
  }
  return result;
}

}  // namespace eden::core
