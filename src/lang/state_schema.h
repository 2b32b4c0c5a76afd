// State schemas: the EAL equivalent of the paper's type annotations
// (Figure 8). Every state variable an action function touches is declared
// with a *lifetime* (packet / message / global scope), an *access level*
// (read-only / read-write) and an optional *header mapping* that ties a
// packet-scope field to a concrete header field (e.g. the 802.1q priority
// code point).
//
// The compiler uses the schema to resolve `packet.size`-style paths to
// state slots, to reject writes to read-only fields, and to derive the
// program's concurrency mode (Section 3.4.4): read-write message state
// serializes packets of the same message; read-write global state
// serializes the whole action function.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace eden::lang {

enum class Scope : std::uint8_t { packet = 0, message = 1, global = 2 };
inline constexpr int kNumScopes = 3;

std::string_view scope_name(Scope scope);

enum class Access : std::uint8_t { read_only, read_write };

enum class FieldKind : std::uint8_t {
  scalar,        // one 64-bit integer
  array,         // array of 64-bit integers
  record_array,  // array of fixed records of 64-bit integers
};

struct FieldDef {
  std::string name;
  Access access = Access::read_only;
  FieldKind kind = FieldKind::scalar;
  // For record_array: ordered element field names; the record stride is
  // record_fields.size().
  std::vector<std::string> record_fields;
  // Optional mapping to a packet header field, e.g. "802.1q.pcp" or
  // "ipv4.total_length". Purely descriptive at this layer; the enclave
  // uses it when marshalling packets in and out of action functions.
  std::string header_map;
  std::int64_t default_value = 0;
};

// Resolved location of a field, as used by the compiler.
struct FieldSlot {
  Scope scope = Scope::packet;
  FieldKind kind = FieldKind::scalar;
  Access access = Access::read_only;
  std::uint16_t slot = 0;    // index into scalars or arrays of the scope
  std::uint16_t stride = 1;  // record stride (1 for plain arrays)
};

class StateSchema {
 public:
  // Adds a field to a scope; returns *this for chaining. Throws
  // std::invalid_argument on duplicate names or empty record field lists.
  StateSchema& add(Scope scope, FieldDef field);

  // Convenience helpers for the common cases.
  StateSchema& scalar(Scope scope, std::string name, Access access,
                      std::string header_map = {},
                      std::int64_t default_value = 0);
  StateSchema& array(Scope scope, std::string name, Access access);
  StateSchema& record_array(Scope scope, std::string name, Access access,
                            std::vector<std::string> record_fields);

  const std::vector<FieldDef>& fields(Scope scope) const {
    return fields_[static_cast<int>(scope)];
  }

  // Looks up a field by name within a scope; nullopt if absent.
  std::optional<FieldSlot> find(Scope scope, std::string_view name) const;
  const FieldDef* field_def(Scope scope, std::string_view name) const;

  // Index of `field` within the record of a record_array; -1 if absent.
  int record_field_offset(Scope scope, std::string_view array_name,
                          std::string_view field) const;

  std::size_t scalar_count(Scope scope) const {
    return scalar_counts_[static_cast<int>(scope)];
  }
  std::size_t array_count(Scope scope) const {
    return array_counts_[static_cast<int>(scope)];
  }

 private:
  std::vector<FieldDef> fields_[kNumScopes];
  std::vector<FieldSlot> slots_[kNumScopes];  // parallel to fields_
  std::size_t scalar_counts_[kNumScopes] = {0, 0, 0};
  std::size_t array_counts_[kNumScopes] = {0, 0, 0};
};

// Runtime storage for one array field.
struct ArrayValue {
  std::uint16_t stride = 1;
  std::vector<std::int64_t> data;

  std::int64_t element_count() const {
    return stride == 0 ? 0
                       : static_cast<std::int64_t>(data.size() / stride);
  }
};

// Runtime storage for one scope of state (one packet's fields, one
// message's fields, or an action function's global block).
struct StateBlock {
  std::vector<std::int64_t> scalars;
  std::vector<ArrayValue> arrays;

  // Builds a block with every field at its schema default.
  static StateBlock from_schema(const StateSchema& schema, Scope scope);
};

}  // namespace eden::lang
