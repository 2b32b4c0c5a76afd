#include "core/class_name.h"

#include <stdexcept>

namespace eden::core {

std::optional<QualifiedClassName> parse_class_name(std::string_view full) {
  const std::size_t first = full.find('.');
  if (first == std::string_view::npos) return std::nullopt;
  const std::size_t second = full.find('.', first + 1);
  if (second == std::string_view::npos) return std::nullopt;
  if (full.find('.', second + 1) != std::string_view::npos) {
    return std::nullopt;
  }
  QualifiedClassName name;
  name.stage = std::string(full.substr(0, first));
  name.rule_set = std::string(full.substr(first + 1, second - first - 1));
  name.class_name = std::string(full.substr(second + 1));
  if (name.stage.empty() || name.rule_set.empty() ||
      name.class_name.empty()) {
    return std::nullopt;
  }
  return name;
}

namespace {

bool valid_component(std::string_view c) {
  return !c.empty() && c != "*" && c.find('.') == std::string_view::npos;
}

}  // namespace

ClassId ClassRegistry::intern(const QualifiedClassName& name) {
  if (!valid_component(name.stage) || !valid_component(name.rule_set) ||
      !valid_component(name.class_name)) {
    throw std::invalid_argument("malformed class name: " + name.full());
  }
  const std::string full = name.full();
  const auto it = by_full_.find(full);
  if (it != by_full_.end()) return it->second;
  const auto id = static_cast<ClassId>(names_.size());
  names_.push_back(name);
  by_full_.emplace(full, id);
  return id;
}

ClassId ClassRegistry::intern(std::string_view full) {
  const auto parsed = parse_class_name(full);
  if (!parsed) {
    throw std::invalid_argument("malformed class name: " + std::string(full));
  }
  return intern(*parsed);
}

ClassId ClassRegistry::find(std::string_view full) const {
  const auto it = by_full_.find(std::string(full));
  return it == by_full_.end() ? kInvalidClass : it->second;
}

ClassPattern::ClassPattern(std::string_view pattern) : pattern_(pattern) {
  if (pattern == "*") {
    match_any_ = true;
    return;
  }
  const auto parsed = parse_class_name(pattern);
  if (!parsed) {
    throw std::invalid_argument("malformed class pattern: " + pattern_);
  }
  name_ = std::move(*parsed);
  stage_wild_ = name_.stage == "*";
  ruleset_wild_ = name_.rule_set == "*";
  class_wild_ = name_.class_name == "*";
}

bool ClassPattern::matches(ClassId id, const ClassRegistry& registry) const {
  if (match_any_) return true;
  if (id >= registry.size()) return false;
  const QualifiedClassName& name = registry.name(id);
  if (!stage_wild_ && name.stage != name_.stage) return false;
  if (!ruleset_wild_ && name.rule_set != name_.rule_set) return false;
  if (!class_wild_ && name.class_name != name_.class_name) return false;
  return true;
}

}  // namespace eden::core
