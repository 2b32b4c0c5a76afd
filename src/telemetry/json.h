// Reader for the JSON that telemetry::to_json emits.
//
// A minimal recursive-descent parser plus loaders that rebuild the
// snapshot structs from a parsed tree. Deliberately scoped to the
// subset our own emitter produces (it is the inverse of snapshot.cpp,
// not a general JSON library); numbers keep their source text so
// 64-bit counters round-trip without double precision loss. Shared by
// eden-stat's file mode and the delta-payload decoder
// (telemetry/delta.h), which both consume machine-written dumps.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/snapshot.h"

namespace eden::telemetry {

struct Json {
  enum class Kind { null, boolean, number, string, array, object };
  Kind kind = Kind::null;
  bool boolean = false;
  std::string text;  // number source text or string value
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* get(const std::string& key) const;
  std::uint64_t u64(const std::string& key, std::uint64_t dflt = 0) const;
  std::int64_t i64(const std::string& key, std::int64_t dflt = 0) const;
  double num(const std::string& key, double dflt = 0.0) const;
  std::string str(const std::string& key) const;
  bool flag(const std::string& key) const;
};

// Throws std::runtime_error (with a byte offset) on malformed input.
class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}
  Json parse();

 private:
  [[noreturn]] void fail(const char* what);
  void skip_ws();
  char peek();
  void expect(char c);
  std::string string_body();
  Json value();

  std::string s_;
  std::size_t i_ = 0;
};

// --- Snapshot loaders (inverse of snapshot.cpp's emitters) -------------

HistogramSnapshot histogram_from_json(const Json& j);
ActionTelemetry action_from_json(const Json& j);
EnclaveTelemetry enclave_from_json(const Json& j);
SessionTelemetry session_from_json(const Json& j);

// One to_json() dump pulled apart. Totals are not read back: callers
// recompute them with aggregate(), the same path a live snapshot takes.
struct ParsedDump {
  std::vector<EnclaveTelemetry> enclaves;
  std::vector<SessionTelemetry> sessions;
};

// Parses a single dump object (must contain an "enclaves" array).
// Throws std::runtime_error on parse errors or a missing array.
ParsedDump parse_telemetry_json(const std::string& text);

}  // namespace eden::telemetry
