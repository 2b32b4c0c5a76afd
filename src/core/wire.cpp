#include "core/wire.h"

#include "lang/source_loc.h"
#include "telemetry/delta.h"
#include "telemetry/span.h"
#include "util/bytes.h"

namespace eden::core::wire {

using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint32_t kMagic = 0x4e444557;  // "WEDN"

ByteWriter header(Command cmd) {
  ByteWriter w;
  w.u32(kMagic);
  w.u8(static_cast<std::uint8_t>(cmd));
  return w;
}

void write_field_def(ByteWriter& w, const lang::FieldDef& f) {
  w.str(f.name);
  w.u8(static_cast<std::uint8_t>(f.access));
  w.u8(static_cast<std::uint8_t>(f.kind));
  w.u32(static_cast<std::uint32_t>(f.record_fields.size()));
  for (const auto& rf : f.record_fields) w.str(rf);
  w.str(f.header_map);
  w.i64(f.default_value);
}

lang::FieldDef read_field_def(ByteReader& r) {
  lang::FieldDef f;
  f.name = r.str();
  const std::uint8_t access = r.u8();
  const std::uint8_t kind = r.u8();
  if (access > 1 || kind > 2) {
    throw util::ByteStreamError("invalid field definition");
  }
  f.access = static_cast<lang::Access>(access);
  f.kind = static_cast<lang::FieldKind>(kind);
  const std::uint32_t nrec = r.u32();
  // Each record field costs at least a 4-byte length on the wire; a
  // count beyond that is a hostile header, not a short frame.
  if (nrec > r.remaining() / 4) {
    throw util::ByteStreamError("field definition record count exceeds frame");
  }
  for (std::uint32_t i = 0; i < nrec; ++i) f.record_fields.push_back(r.str());
  f.header_map = r.str();
  f.default_value = r.i64();
  return f;
}

// True for the numbers Command names. The switch lists every enumerator
// (-Wswitch flags a missing one), so a retired number or any other byte
// falls through to false.
bool is_command(std::uint8_t op) {
  switch (static_cast<Command>(op)) {
    case Command::install_action:
    case Command::remove_action:
    case Command::create_table:
    case Command::set_global_scalar:
    case Command::set_global_array:
    case Command::add_flow_rule:
    case Command::clear_flow_rules:
    case Command::get_spans:
    case Command::begin_txn:
    case Command::commit_txn:
    case Command::reset_state:
    case Command::remove_rule_named:
    case Command::get_telemetry_delta:
    case Command::batch:
    case Command::add_rule_named:
      return true;
  }
  return false;
}

void write_response(ByteWriter& w, const Response& response) {
  w.u8(static_cast<std::uint8_t>(response.status));
  w.u64(response.value);
  w.str(response.error);
  w.bytes(response.payload);
}

Response read_response(ByteReader& r) {
  Response resp;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::rejected)) {
    throw util::ByteStreamError("invalid status");
  }
  resp.status = static_cast<Status>(status);
  resp.value = r.u64();
  resp.error = r.str();
  resp.payload = r.bytes();
  return resp;
}

}  // namespace

std::optional<Command> peek_command(std::span<const std::uint8_t> frame) {
  if (frame.size() < 5) return std::nullopt;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(frame[static_cast<std::size_t>(i)])
             << (8 * i);
  }
  if (magic != kMagic || !is_command(frame[4])) return std::nullopt;
  return static_cast<Command>(frame[4]);
}

// --- Encoders ---------------------------------------------------------------

std::vector<std::uint8_t> encode_install_action(
    const std::string& name, const lang::CompiledProgram& program,
    std::span<const lang::FieldDef> global_fields) {
  ByteWriter w = header(Command::install_action);
  w.str(name);
  w.bytes(program.serialize());
  w.u32(static_cast<std::uint32_t>(global_fields.size()));
  for (const auto& f : global_fields) write_field_def(w, f);
  return w.take();
}

std::vector<std::uint8_t> encode_remove_action(const std::string& name) {
  ByteWriter w = header(Command::remove_action);
  w.str(name);
  return w.take();
}

std::vector<std::uint8_t> encode_create_table(const std::string& name) {
  ByteWriter w = header(Command::create_table);
  w.str(name);
  return w.take();
}

std::vector<std::uint8_t> encode_set_global_scalar(
    const std::string& action_name, const std::string& field,
    std::int64_t value) {
  ByteWriter w = header(Command::set_global_scalar);
  w.str(action_name);
  w.str(field);
  w.i64(value);
  return w.take();
}

std::vector<std::uint8_t> encode_set_global_array(
    const std::string& action_name, const std::string& field,
    std::span<const std::int64_t> data) {
  ByteWriter w = header(Command::set_global_array);
  w.str(action_name);
  w.str(field);
  w.u32(static_cast<std::uint32_t>(data.size()));
  for (const std::int64_t v : data) w.i64(v);
  return w.take();
}

std::vector<std::uint8_t> encode_add_flow_rule(const FlowClassifierRule& rule,
                                               const std::string& class_name) {
  ByteWriter w = header(Command::add_flow_rule);
  w.i64(rule.src);
  w.i64(rule.dst);
  w.i64(rule.src_port);
  w.i64(rule.dst_port);
  w.i64(rule.proto);
  w.str(class_name);
  return w.take();
}

std::vector<std::uint8_t> encode_clear_flow_rules() {
  return header(Command::clear_flow_rules).take();
}

std::vector<std::uint8_t> encode_get_spans() {
  return header(Command::get_spans).take();
}

std::vector<std::uint8_t> encode_begin_txn() {
  return header(Command::begin_txn).take();
}

std::vector<std::uint8_t> encode_commit_txn() {
  return header(Command::commit_txn).take();
}

std::vector<std::uint8_t> encode_reset_state() {
  return header(Command::reset_state).take();
}

std::vector<std::uint8_t> encode_add_rule_named(
    const std::string& table_name, MatchRuleId rule,
    const std::string& pattern, const std::string& action_name) {
  ByteWriter w = header(Command::add_rule_named);
  w.str(table_name);
  w.u64(rule);
  w.str(pattern);
  w.str(action_name);
  return w.take();
}

std::vector<std::uint8_t> encode_remove_rule_named(
    const std::string& table_name, MatchRuleId rule) {
  ByteWriter w = header(Command::remove_rule_named);
  w.str(table_name);
  w.u64(rule);
  return w.take();
}

std::vector<std::uint8_t> encode_get_telemetry_delta(std::uint64_t epoch,
                                                     std::uint64_t seq) {
  ByteWriter w = header(Command::get_telemetry_delta);
  w.u64(epoch);
  w.u64(seq);
  return w.take();
}

std::vector<std::uint8_t> encode_batch(std::span<const BatchElement> elements) {
  ByteWriter w = header(Command::batch);
  w.u32(static_cast<std::uint32_t>(elements.size()));
  for (const BatchElement& e : elements) {
    w.varint(static_cast<std::uint64_t>(e.parent_span));
    w.varint(e.command.size());
    w.raw(e.command);
  }
  return w.take();
}

// --- Responses ----------------------------------------------------------------

std::vector<std::uint8_t> encode_response(const Response& response) {
  ByteWriter w;
  write_response(w, response);
  return w.take();
}

Response decode_response(std::span<const std::uint8_t> frame) {
  try {
    ByteReader r(frame);
    return read_response(r);
  } catch (const util::ByteStreamError& e) {
    Response resp;
    resp.status = Status::bad_request;
    resp.error = e.what();
    return resp;
  }
}

std::optional<std::vector<Response>> batch_responses(const Response& answer) {
  if (answer.status != Status::ok) return std::nullopt;
  try {
    ByteReader r(answer.payload);
    std::vector<Response> out;
    // Each read consumes bytes or throws, so a hostile count ends at
    // the payload's end.
    for (std::uint64_t i = 0; i < answer.value; ++i) {
      out.push_back(read_response(r));
    }
    if (!r.exhausted()) return std::nullopt;
    return out;
  } catch (const util::ByteStreamError&) {
    return std::nullopt;
  }
}

// --- Agent ------------------------------------------------------------------

// Enclave befriends this to give add_rule_named its id-taking add.
struct AgentAccess {
  static bool add_rule(Enclave& enclave, TableId table, ClassPattern pattern,
                       ActionId action, MatchRuleId id) {
    std::lock_guard lock(enclave.control_mutex_);
    return enclave.add_rule_locked(table, std::move(pattern), action, id);
  }
};

namespace {

Response fail(Status status, std::string error) {
  Response r;
  r.status = status;
  r.error = std::move(error);
  return r;
}

Response ok(std::uint64_t value = 0) {
  Response r;
  r.value = value;
  return r;
}

Response apply_checked(Enclave& enclave, std::span<const std::uint8_t> frame,
                       telemetry::DeltaEncoder& encoder,
                       const ElementFn& element) {
  ByteReader r(frame);
  if (r.u32() != kMagic) return fail(Status::bad_request, "bad magic");
  const std::uint8_t raw_cmd = r.u8();
  if (!is_command(raw_cmd)) return fail(Status::bad_request, "unknown command");
  const auto cmd = static_cast<Command>(raw_cmd);

  auto resolve_action = [&](const std::string& name)
      -> std::optional<ActionId> { return enclave.find_action(name); };

  switch (cmd) {
    case Command::install_action: {
      const std::string name = r.str();
      const std::vector<std::uint8_t> bytecode = r.bytes();
      const std::uint32_t nfields = r.u32();
      // A serialized field definition is > 20 bytes; one byte each is a
      // conservative bound that still rejects absurd counts before the
      // reserve below could throw bad_alloc.
      if (nfields > r.remaining()) {
        return fail(Status::bad_request, "field count exceeds frame");
      }
      std::vector<lang::FieldDef> fields;
      fields.reserve(nfields);
      for (std::uint32_t i = 0; i < nfields; ++i) {
        fields.push_back(read_field_def(r));
      }
      lang::CompiledProgram program;
      try {
        program = lang::CompiledProgram::deserialize(bytecode);
        // install_action re-verifies the deserialized program against
        // the enclave's schema and limits; a malformed one is rejected
        // here instead of trapping per-packet.
        return ok(enclave.install_action(name, std::move(program),
                                         std::move(fields)));
      } catch (const lang::LangError& e) {
        return fail(Status::rejected, e.what());
      }
    }
    case Command::remove_action: {
      const auto id = resolve_action(r.str());
      if (!id) return fail(Status::unknown_action, "no such action");
      enclave.remove_action(*id);
      return ok();
    }
    case Command::create_table:
      return ok(enclave.create_table(r.str()));
    case Command::set_global_scalar: {
      const auto id = resolve_action(r.str());
      const std::string field = r.str();
      const std::int64_t value = r.i64();
      if (!id) return fail(Status::unknown_action, "no such action");
      try {
        enclave.set_global_scalar(*id, field, value);
        return ok();
      } catch (const std::invalid_argument& e) {
        return fail(Status::rejected, e.what());
      }
    }
    case Command::set_global_array: {
      const auto id = resolve_action(r.str());
      const std::string field = r.str();
      const std::uint32_t n = r.u32();
      if (n > r.remaining() / 8) {
        return fail(Status::bad_request, "array length exceeds frame");
      }
      std::vector<std::int64_t> data;
      data.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) data.push_back(r.i64());
      if (!id) return fail(Status::unknown_action, "no such action");
      try {
        enclave.set_global_array(*id, field, std::move(data));
        return ok();
      } catch (const std::invalid_argument& e) {
        return fail(Status::rejected, e.what());
      }
    }
    case Command::add_flow_rule: {
      FlowClassifierRule rule;
      rule.src = r.i64();
      rule.dst = r.i64();
      rule.src_port = r.i64();
      rule.dst_port = r.i64();
      rule.proto = r.i64();
      const std::string class_name = r.str();
      try {
        rule.class_id = enclave.registry().intern(class_name);
      } catch (const std::invalid_argument& e) {
        return fail(Status::rejected, e.what());
      }
      enclave.add_flow_rule(rule);
      return ok(rule.class_id);
    }
    case Command::clear_flow_rules:
      enclave.clear_flow_rules();
      return ok();
    case Command::get_spans: {
      const std::string json = telemetry::to_trace_event_json(
          telemetry::SpanCollector::instance().snapshot());
      Response resp;
      resp.payload.assign(json.begin(), json.end());
      return resp;
    }
    case Command::begin_txn:
      enclave.begin_txn();
      return ok();
    case Command::commit_txn:
      return ok(enclave.commit_txn());
    case Command::reset_state:
      enclave.clear_all();
      return ok();
    case Command::add_rule_named: {
      const std::string table_name = r.str();
      const MatchRuleId rule = r.u64();
      const std::string pattern = r.str();
      const auto id = resolve_action(r.str());
      if (!id) return fail(Status::unknown_action, "no such action");
      // Parsed outside the try below: a malformed pattern throws
      // invalid_argument, which apply() reports as rejected.
      const ClassPattern parsed(pattern);
      const auto table = enclave.find_table_id(table_name);
      if (!table) return fail(Status::unknown_table, "no such table");
      try {
        return AgentAccess::add_rule(enclave, *table, parsed, *id, rule)
                   ? ok()
                   : fail(Status::rejected, "rule id already in the table");
      } catch (const std::invalid_argument& e) {
        return fail(Status::unknown_table, e.what());
      }
    }
    case Command::remove_rule_named: {
      const std::string table_name = r.str();
      const MatchRuleId rule = r.u64();
      const auto table = enclave.find_table_id(table_name);
      if (!table) return fail(Status::unknown_table, "no such table");
      return enclave.remove_rule(*table, rule)
                 ? ok()
                 : fail(Status::unknown_table, "no such rule");
    }
    case Command::get_telemetry_delta: {
      const std::uint64_t epoch = r.u64();
      const std::uint64_t seq = r.u64();
      const std::string json =
          encoder.encode(enclave.telemetry_snapshot(), epoch, seq);
      Response resp;
      resp.payload.assign(json.begin(), json.end());
      return resp;
    }
    case Command::batch: {
      const std::uint32_t n = r.u32();
      // An element costs at least a byte for its span id and one for its
      // length; a count beyond that is a hostile header, not a short
      // frame.
      if (n > r.remaining() / 2) {
        return fail(Status::bad_request, "batch count exceeds frame");
      }
      std::vector<BatchElement> elements(n);
      for (BatchElement& e : elements) {
        e.parent_span = static_cast<std::int64_t>(r.varint());
        e.command = r.view(r.varint());
      }
      ByteWriter w;
      for (const BatchElement& e : elements) {
        write_response(w, peek_command(e.command) == Command::batch
                              ? fail(Status::bad_request, "nested batch")
                          : element ? element(e)
                                    : apply(enclave, e.command, encoder));
      }
      Response resp = ok(n);
      resp.payload = w.take();
      return resp;
    }
  }
  return fail(Status::bad_request, "unhandled command");
}

}  // namespace

Response apply(Enclave& enclave, std::span<const std::uint8_t> frame,
               telemetry::DeltaEncoder& encoder, const ElementFn& element) {
  try {
    return apply_checked(enclave, frame, encoder, element);
  } catch (const util::ByteStreamError& e) {
    return fail(Status::bad_request, e.what());
  } catch (const std::invalid_argument& e) {
    return fail(Status::rejected, e.what());
  } catch (const std::length_error&) {
    // A hostile element count slipped past the frame-size guards and hit
    // a container limit; the frame is garbage, not a server fault.
    return fail(Status::bad_request, "frame implies oversized allocation");
  } catch (const std::bad_alloc&) {
    return fail(Status::bad_request, "frame implies oversized allocation");
  }
}

}  // namespace eden::core::wire
