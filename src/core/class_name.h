// Class names and the class registry.
//
// A class is "the set of messages (and consequent network packets) to
// which the same network function should be applied" (Section 1).
// Externally a class is referred to by its fully qualified name
// `stage.ruleset.class_name` (Section 3.3); internally names are interned
// to dense 32-bit ids that packets carry in their ClassList.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace eden::core {

using ClassId = std::uint32_t;
inline constexpr ClassId kInvalidClass = 0xffffffffu;

struct QualifiedClassName {
  std::string stage;
  std::string rule_set;
  std::string class_name;

  std::string full() const {
    return stage + "." + rule_set + "." + class_name;
  }
  bool operator==(const QualifiedClassName&) const = default;
};

// Parses "stage.ruleset.class"; nullopt if not exactly three non-empty
// dot-separated components.
std::optional<QualifiedClassName> parse_class_name(std::string_view full);

// Interns fully qualified class names. Shared by stages, enclaves and the
// controller of one deployment; thread-compatible (external sync if
// stages register concurrently — in Eden only the controller mutates it).
class ClassRegistry {
 public:
  // Returns the id for the name, interning it if new. Throws
  // std::invalid_argument when a component is empty, contains '.' or is
  // the wildcard "*": such a name would not round-trip through
  // parse_class_name, so two of them could share one id, or no exact
  // pattern could name it.
  ClassId intern(const QualifiedClassName& name);
  ClassId intern(std::string_view full);

  // Lookup without interning; kInvalidClass if unknown.
  ClassId find(std::string_view full) const;

  const QualifiedClassName& name(ClassId id) const { return names_.at(id); }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<QualifiedClassName> names_;
  std::unordered_map<std::string, ClassId> by_full_;
};

// A match pattern over class names: each of the three components is an
// exact string or "*". "memcached.r1.*" matches every class of rule-set
// r1; "*" alone (match_any) matches every packet including unclassified
// ones.
class ClassPattern {
 public:
  // Patterns: "*", "a.b.c", "a.*.c", "a.b.*", ... Throws
  // std::invalid_argument on malformed patterns.
  explicit ClassPattern(std::string_view pattern);

  bool match_any() const { return match_any_; }
  // True if no component is "*": the pattern names exactly one class,
  // name().
  bool exact() const {
    return !match_any_ && !stage_wild_ && !ruleset_wild_ && !class_wild_;
  }
  const QualifiedClassName& name() const { return name_; }
  // True if the class with this id matches (registry resolves the name).
  bool matches(ClassId id, const ClassRegistry& registry) const;
  const std::string& pattern() const { return pattern_; }

 private:
  std::string pattern_;
  bool match_any_ = false;
  bool stage_wild_ = false, ruleset_wild_ = false, class_wild_ = false;
  QualifiedClassName name_;
};

}  // namespace eden::core
