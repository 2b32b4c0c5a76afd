#include "telemetry/json.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "lang/interpreter.h"

namespace eden::telemetry {

const Json* Json::get(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t Json::u64(const std::string& key, std::uint64_t dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == Kind::number
             ? std::strtoull(v->text.c_str(), nullptr, 10)
             : dflt;
}

std::int64_t Json::i64(const std::string& key, std::int64_t dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == Kind::number
             ? std::strtoll(v->text.c_str(), nullptr, 10)
             : dflt;
}

double Json::num(const std::string& key, double dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == Kind::number
             ? std::strtod(v->text.c_str(), nullptr)
             : dflt;
}

std::string Json::str(const std::string& key) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == Kind::string ? v->text : std::string();
}

bool Json::flag(const std::string& key) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == Kind::boolean && v->boolean;
}

void JsonParser::fail(const char* what) {
  throw std::runtime_error("JSON parse error at byte " + std::to_string(i_) +
                           ": " + what);
}

void JsonParser::skip_ws() {
  while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                            s_[i_] == '\n' || s_[i_] == '\r')) {
    ++i_;
  }
}

char JsonParser::peek() {
  skip_ws();
  if (i_ >= s_.size()) fail("unexpected end of input");
  return s_[i_];
}

void JsonParser::expect(char c) {
  if (peek() != c) fail("unexpected character");
  ++i_;
}

std::string JsonParser::string_body() {
  expect('"');
  std::string out;
  while (true) {
    if (i_ >= s_.size()) fail("unterminated string");
    const char c = s_[i_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i_ >= s_.size()) fail("unterminated escape");
    const char e = s_[i_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i_ + 4 > s_.size()) fail("bad \\u escape");
        const unsigned long cp =
            std::strtoul(s_.substr(i_, 4).c_str(), nullptr, 16);
        i_ += 4;
        // The emitter only escapes control characters, so the code
        // point always fits one byte.
        out += static_cast<char>(cp & 0xff);
        break;
      }
      default: fail("unknown escape");
    }
  }
}

Json JsonParser::parse() {
  Json v = value();
  skip_ws();
  if (i_ != s_.size()) fail("trailing data");
  return v;
}

Json JsonParser::value() {
  const char c = peek();
  Json v;
  if (c == '{') {
    v.kind = Json::Kind::object;
    ++i_;
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      std::string key = string_body();
      expect(':');
      v.fields.emplace_back(std::move(key), value());
      const char n = peek();
      ++i_;
      if (n == '}') return v;
      if (n != ',') fail("expected , or }");
      skip_ws();
    }
  }
  if (c == '[') {
    v.kind = Json::Kind::array;
    ++i_;
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      const char n = peek();
      ++i_;
      if (n == ']') return v;
      if (n != ',') fail("expected , or ]");
    }
  }
  if (c == '"') {
    v.kind = Json::Kind::string;
    v.text = string_body();
    return v;
  }
  if (c == 't' || c == 'f' || c == 'n') {
    const char* word = c == 't' ? "true" : c == 'f' ? "false" : "null";
    const std::size_t len = std::strlen(word);
    if (s_.compare(i_, len, word) != 0) fail("bad literal");
    i_ += len;
    v.kind = c == 'n' ? Json::Kind::null : Json::Kind::boolean;
    v.boolean = c == 't';
    return v;
  }
  // Number: keep the raw text.
  v.kind = Json::Kind::number;
  const std::size_t start = i_;
  while (i_ < s_.size() &&
         (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
          s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' ||
          s_[i_] == 'E')) {
    ++i_;
  }
  if (i_ == start) fail("expected value");
  v.text = s_.substr(start, i_ - start);
  return v;
}

// --- Snapshot loaders --------------------------------------------------

namespace {

template <typename T, std::size_t N>
void read_series(const Json& j, const Series<T> (&table)[N], T& r) {
  for (const Series<T>& s : table) r.*s.member = j.u64(s.key);
}

}  // namespace

HistogramSnapshot histogram_from_json(const Json& j) {
  HistogramSnapshot h;
  h.count = j.u64("count");
  h.sum = j.u64("sum");
  if (const Json* buckets = j.get("buckets")) {
    for (const Json& pair : buckets->items) {
      if (pair.items.size() != 2) continue;
      const std::uint64_t upper =
          std::strtoull(pair.items[0].text.c_str(), nullptr, 10);
      for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
        if (bucket_upper_bound(k) == upper) {
          h.counts[k] = std::strtoull(pair.items[1].text.c_str(), nullptr, 10);
          break;
        }
      }
    }
  }
  return h;
}

ActionTelemetry action_from_json(const Json& j) {
  ActionTelemetry a;
  a.name = j.str("name");
  a.native = j.flag("native");
  read_series(j, kActionSeries, a);
  if (const Json* errs = j.get("errors_by_status")) {
    for (const auto& [status, count] : errs->fields) {
      for (std::size_t i = 0; i < lang::kNumExecStatus; ++i) {
        if (status ==
            lang::exec_status_name(static_cast<lang::ExecStatus>(i))) {
          a.errors_by_status[i] = std::strtoull(count.text.c_str(), nullptr, 10);
          break;
        }
      }
    }
  }
  if (const Json* lat = j.get("latency_ns")) {
    a.has_histograms = true;
    a.latency_ns = histogram_from_json(*lat);
    if (const Json* steps = j.get("steps_hist")) {
      a.steps_hist = histogram_from_json(*steps);
    }
  }
  if (const Json* prof = j.get("profile")) {
    a.has_profile = true;
    a.profile_runs = prof->u64("runs");
    a.profile_instructions = prof->u64("instructions");
    if (const Json* hot = prof->get("hotspots")) {
      for (const Json& hj : hot->items) {
        HotSpot h;
        h.pc = static_cast<std::uint32_t>(hj.u64("pc"));
        h.count = hj.u64("count");
        h.ticks = hj.u64("ticks");
        h.count_pct = hj.num("count_pct");
        h.ticks_pct = hj.num("ticks_pct");
        h.text = hj.str("text");
        a.hotspots.push_back(std::move(h));
      }
    }
  }
  return a;
}

EnclaveTelemetry enclave_from_json(const Json& j) {
  EnclaveTelemetry e;
  e.enclave = j.str("name");
  e.telemetry_enabled = j.flag("telemetry_enabled");
  read_series(j, kEnclaveSeries, e);
  if (const Json* st = j.get("state")) {
    e.state.present = true;
    read_series(*st, kStateSeries, e.state);
    if (const Json* pl = st->get("probe_len")) {
      e.state.probe_len = histogram_from_json(*pl);
    }
  }
  if (const Json* actions = j.get("actions")) {
    for (const Json& aj : actions->items) {
      e.actions.push_back(action_from_json(aj));
    }
  }
  if (const Json* classes = j.get("classes")) {
    for (const Json& cj : classes->items) {
      ClassTelemetry c;
      c.name = cj.str("class");
      read_series(cj, kClassSeries, c);
      e.classes.push_back(std::move(c));
    }
  }
  if (const Json* host = j.get("host_series")) {
    for (const auto& [name, value] : host->fields) {
      if (value.kind != Json::Kind::number) continue;
      e.host_series.emplace_back(name, std::strtod(value.text.c_str(),
                                                   nullptr));
    }
  }
  return e;
}

SessionTelemetry session_from_json(const Json& j) {
  SessionTelemetry s;
  s.name = j.str("name");
  s.connected = j.flag("connected");
  s.ready = j.flag("ready");
  read_series(j, kSessionSeries, s);
  if (const Json* rtt = j.get("rtt_ns")) s.rtt_ns = histogram_from_json(*rtt);
  if (const Json* rs = j.get("resync_commands")) {
    s.resync_commands = histogram_from_json(*rs);
  }
  return s;
}

ParsedDump parse_telemetry_json(const std::string& text) {
  return parse_telemetry_json(JsonParser(text).parse());
}

ParsedDump parse_telemetry_json(const Json& root) {
  const Json* enclaves = root.get("enclaves");
  if (enclaves == nullptr) {
    throw std::runtime_error("telemetry dump has no \"enclaves\" array");
  }
  ParsedDump dump;
  for (const Json& ej : enclaves->items) {
    dump.enclaves.push_back(enclave_from_json(ej));
  }
  if (const Json* sessions = root.get("sessions")) {
    for (const Json& sj : sessions->items) {
      dump.sessions.push_back(session_from_json(sj));
    }
  }
  return dump;
}

}  // namespace eden::telemetry
