// Stages: Eden-compliant applications and libraries (Section 3.3).
//
// A stage declares which application-specific fields it can classify on
// (Table 2) and which metadata it can emit. The controller programs it
// through the stage API of Table 3:
//   S0 get_stage_info()
//   S1 create_rule(rule_set, classifier, class_name, metadata)
//   S2 remove_rule(rule_set, rule_id)
// At run time the application hands each message's attribute values to
// classify(), which evaluates every rule-set and returns the classes and
// metadata to attach to the message's packets.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/class_name.h"
#include "netsim/packet.h"

namespace eden::core {

// Which PacketMeta fields a classification rule attaches (the
// "{meta-data}" part of Figure 6's rules).
enum class MetaField : std::uint8_t {
  msg_id = 0,
  msg_type,
  msg_size,
  tenant,
  key_hash,
  flow_size,
  app_priority,
};

using MetaFieldMask = std::uint32_t;
inline constexpr MetaFieldMask meta_bit(MetaField f) {
  return MetaFieldMask{1} << static_cast<int>(f);
}
// The common case: a unique message identifier plus the message size.
inline constexpr MetaFieldMask kMetaIdAndSize =
    meta_bit(MetaField::msg_id) | meta_bit(MetaField::msg_size);
inline constexpr MetaFieldMask kMetaAll = 0x7f;

// One component of a classifier: exact value or wildcard. Values are
// strings; numeric message attributes are matched by decimal spelling.
struct FieldPattern {
  bool wildcard = true;
  std::string value;

  static FieldPattern any() { return FieldPattern{}; }
  static FieldPattern exact(std::string v) {
    return FieldPattern{false, std::move(v)};
  }
  bool matches(const std::string& attr) const {
    return wildcard || value == attr;
  }
};

// A classifier is one pattern per stage classifier field, e.g. for the
// memcached stage <msg_type, key>: <GET, *>, <*, "a">, <*, *>.
using Classifier = std::vector<FieldPattern>;

// Attribute values of one message, aligned with the stage's classifier
// fields.
using MessageAttrs = std::vector<std::string>;

struct StageInfo {
  std::string name;
  std::vector<std::string> classifier_fields;
  std::vector<std::string> meta_fields;
};

using RuleId = std::uint64_t;

struct ClassificationRule {
  RuleId id = 0;
  Classifier classifier;
  std::string class_name;  // local class name within the rule-set
  ClassId class_id = kInvalidClass;
  MetaFieldMask meta_mask = kMetaIdAndSize;
};

// Result of classifying one message: the interned classes (at most one
// per rule-set) plus the metadata to carry on the message's packets.
struct Classification {
  netsim::ClassList classes;
  netsim::PacketMeta meta;
};

class Stage {
 public:
  // `classifier_fields`: the application fields this stage can classify
  // on; `meta_fields`: metadata it can generate (for get_stage_info).
  Stage(std::string name, std::vector<std::string> classifier_fields,
        std::vector<std::string> meta_fields, ClassRegistry& registry);
  virtual ~Stage() = default;

  // --- Stage API (Table 3), used by the controller ---------------------

  StageInfo get_stage_info() const;

  // Creates <classifier> -> [class_name, {meta}] in `rule_set`; the rule
  // is appended (first match wins within a rule-set). Throws
  // std::invalid_argument if the classifier arity does not match the
  // stage's classifier fields, or if `rule_set` or `class_name` is not a
  // valid class-name component (ClassRegistry::intern).
  RuleId create_rule(const std::string& rule_set, Classifier classifier,
                     const std::string& class_name,
                     MetaFieldMask meta_mask = kMetaIdAndSize);

  // Removes a rule; returns false if it does not exist.
  bool remove_rule(const std::string& rule_set, RuleId id);

  std::size_t rule_count() const;

  // --- Data path --------------------------------------------------------

  // Classifies one message: evaluates every rule-set (first matching
  // rule per set, per Section 3.3) and merges the requested metadata
  // from `available`. Assigns a fresh msg_id if the rule requests one.
  Classification classify(const MessageAttrs& attrs,
                          const netsim::PacketMeta& available);

  const std::string& name() const { return name_; }

 protected:
  std::int64_t next_msg_id() { return ++msg_id_counter_; }

 private:
  std::string name_;
  std::vector<std::string> classifier_fields_;
  std::vector<std::string> meta_fields_;
  ClassRegistry& registry_;
  std::map<std::string, std::vector<ClassificationRule>> rule_sets_;
  RuleId next_rule_id_ = 1;
  std::int64_t msg_id_counter_ = 0;
};

}  // namespace eden::core
