// The controller <-> enclave wire protocol.
//
// The paper's controller is logically centralized and programs enclaves
// remotely through the enclave API (Section 3.4.5). This module gives
// that API a concrete wire form: each API call encodes to a compact
// binary command and the enclave-side agent applies decoded commands to
// a local Enclave. The codec is transport-free; the control-plane
// session layer (controlplane/session.h) is the one client that carries
// these frames between controller and agent.
//
// Commands carry the action-function bytecode exactly as
// CompiledProgram::serialize() emits it, so the same artifact the
// compiler produces is what crosses the wire to OS and NIC enclaves.
#pragma once

#include <functional>
#include <optional>

#include "core/enclave.h"

namespace eden::telemetry {
class DeltaEncoder;
}  // namespace eden::telemetry

namespace eden::core::wire {

// The command numbers are part of the frame format. The gaps (4-6,
// 11-15, 19, 21 and 23) are retired commands that no client sends any
// more; 19 aborted a transaction, and 21 added a rule whose id the
// enclave chose. The agent answers them bad_request and they are never
// reused, so a frame from another build can never decode as a different
// command.
enum class Command : std::uint8_t {
  install_action = 1,
  remove_action = 2,
  create_table = 3,
  set_global_scalar = 7,
  set_global_array = 8,
  add_flow_rule = 9,
  clear_flow_rules = 10,
  // Lifecycle-span read-back: the enclave host returns the process-wide
  // SpanCollector contents as Chrome trace_event JSON in
  // Response::payload.
  get_spans = 16,
  // Control-plane session commands (src/controlplane): transactional
  // rule-set updates and the resync protocol. A session sends a
  // transaction whole, begin to commit, in one batch frame (several only
  // past kMaxFramePayload), so an abort never needs to cross the wire.
  begin_txn = 17,
  commit_txn = 18,  // value = committed rule-set version
  // Wipes actions, tables, rules and flow rules (staged when a
  // transaction is open). Resync replays the journal on a blank slate.
  reset_state = 20,
  // Rules are addressed by *table name*, so a resync replay can
  // pipeline table creation and rule installs without waiting for
  // create_table responses, and named by the id the session chose (its
  // RuleHandle), so a remove never waits for its add's answer.
  remove_rule_named = 22,
  // Stats read-back: the request echoes the (epoch, seq) the controller
  // last decoded; the agent's telemetry::DeltaEncoder answers with a
  // telemetry::DeltaPayload JSON — a delta when the echo matches its
  // state, a full snapshot under a fresh epoch otherwise.
  get_telemetry_delta = 24,
  // Commands applied one by one as if each came in its own frame (see
  // encode_batch() and apply()). Every session request is one: a
  // transaction, or a single read or mutation.
  batch = 25,
  // Adds a rule under the session's id (see remove_rule_named). Answers
  // rejected, changing nothing, when the table already holds that id.
  add_rule_named = 26,
};

enum class Status : std::uint8_t {
  ok = 0,
  bad_request,     // malformed frame
  unknown_action,  // named action not installed
  unknown_table,
  rejected,        // enclave-side validation failed (bad field, ...)
};

struct Response {
  Status status = Status::ok;
  std::uint64_t value = 0;  // ids / versions
  std::string error;        // human-readable detail on failure
  // JSON read-backs (telemetry, spans); a batch's element responses.
  std::vector<std::uint8_t> payload;
};

// --- Command encoders (controller side) --------------------------------

std::vector<std::uint8_t> encode_install_action(
    const std::string& name, const lang::CompiledProgram& program,
    std::span<const lang::FieldDef> global_fields);
std::vector<std::uint8_t> encode_remove_action(const std::string& name);
std::vector<std::uint8_t> encode_create_table(const std::string& name);
std::vector<std::uint8_t> encode_set_global_scalar(
    const std::string& action_name, const std::string& field,
    std::int64_t value);
std::vector<std::uint8_t> encode_set_global_array(
    const std::string& action_name, const std::string& field,
    std::span<const std::int64_t> data);
std::vector<std::uint8_t> encode_add_flow_rule(const FlowClassifierRule& rule,
                                               const std::string& class_name);
std::vector<std::uint8_t> encode_clear_flow_rules();
std::vector<std::uint8_t> encode_get_spans();
std::vector<std::uint8_t> encode_begin_txn();
std::vector<std::uint8_t> encode_commit_txn();
std::vector<std::uint8_t> encode_reset_state();
std::vector<std::uint8_t> encode_add_rule_named(const std::string& table_name,
                                                MatchRuleId rule,
                                                const std::string& pattern,
                                                const std::string& action_name);
std::vector<std::uint8_t> encode_remove_rule_named(
    const std::string& table_name, MatchRuleId rule);
std::vector<std::uint8_t> encode_get_telemetry_delta(std::uint64_t epoch,
                                                     std::uint64_t seq);

// One element of a batch: an encoded command and the span it was sent
// under (0 when untraced).
struct BatchElement {
  std::span<const std::uint8_t> command;
  std::int64_t parent_span = 0;
};

// Layout after the magic and opcode: u32 count, then per element
// varint parent_span | varint length | command (varints are LEB128, so
// an untraced element costs two bytes besides its command). The two
// constants bound the bytes a batch spends besides its commands, so a
// sender can keep a batch under a frame-size limit.
inline constexpr std::size_t kBatchHeaderBytes = 9;
inline constexpr std::size_t kBatchElementMaxBytes = 20;
std::vector<std::uint8_t> encode_batch(std::span<const BatchElement> elements);

// The per-element responses of a batch's answer, in element order;
// nullopt when the answer does not hold a well-formed list (a batch the
// agent could not decode answers bad_request, with no list).
std::optional<std::vector<Response>> batch_responses(const Response& answer);

// --- Agent ------------------------------------------------------------------

// Reads the opcode off an encoded command frame without decoding the
// rest (the opcode sits right after the magic). nullopt on frames too
// short, with a bad magic, or with an opcode that is not a Command
// (retired numbers included). Tracing uses this to label agent-side
// spans with the command they applied.
std::optional<Command> peek_command(std::span<const std::uint8_t> frame);

// Applies one element of a batch for apply().
using ElementFn = std::function<Response(const BatchElement&)>;

// Decodes one command frame and applies it to `enclave`. Never throws:
// malformed frames and failed validations come back as a Response.
// `encoder` is the connection's telemetry::DeltaEncoder; it answers
// get_telemetry_delta.
//
// A batch is decoded whole before any element runs, so a malformed one
// answers bad_request and leaves the enclave untouched. Its elements
// then run in order, each through `element` when set (the agent traces
// them one by one) or else through apply() itself; a failing element
// fails alone, and a nested batch answers bad_request. The answer is ok
// with value = element count and the element responses as payload (see
// batch_responses()).
Response apply(Enclave& enclave, std::span<const std::uint8_t> frame,
               telemetry::DeltaEncoder& encoder,
               const ElementFn& element = {});

std::vector<std::uint8_t> encode_response(const Response& response);
Response decode_response(std::span<const std::uint8_t> frame);

}  // namespace eden::core::wire
