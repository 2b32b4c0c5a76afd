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

#include <optional>

#include "core/enclave.h"
#include "core/stage.h"

namespace eden::telemetry {
class DeltaEncoder;
}  // namespace eden::telemetry

namespace eden::core::wire {

enum class Command : std::uint8_t {
  install_action = 1,
  remove_action,
  create_table,
  delete_table,
  add_rule,
  remove_rule,
  set_global_scalar,
  set_global_array,
  add_flow_rule,
  clear_flow_rules,
  read_global_scalar,
  // Stats read-back: the enclave returns its telemetry snapshot as
  // JSON in Response::payload.
  get_telemetry,
  // Stage API (Table 3).
  get_stage_info,
  create_stage_rule,
  remove_stage_rule,
  // Lifecycle-span read-back: the enclave host returns the process-wide
  // SpanCollector contents as Chrome trace_event JSON in
  // Response::payload. Appended after the stage commands so existing
  // frames keep their numbering.
  get_spans,
  // Control-plane session commands (src/controlplane): transactional
  // rule-set updates and the resync protocol. Appended last so every
  // existing frame keeps its numbering.
  begin_txn,    // value = transaction id
  commit_txn,   // value = committed rule-set version
  abort_txn,
  // Wipes actions, tables, rules and flow rules (staged when a
  // transaction is open). Resync replays the journal on a blank slate.
  reset_state,
  // Rule management addressed by *table name* instead of TableId, so a
  // resync replay can pipeline table creation and rule installs without
  // waiting for create_table responses.
  add_rule_named,     // value = MatchRuleId
  remove_rule_named,
  get_ruleset_version,  // value = committed rule-set version
  // Incremental stats read-back: the request echoes the (epoch, seq)
  // the controller last decoded; the agent's telemetry::DeltaEncoder
  // answers with a telemetry::DeltaPayload JSON — a delta when the echo
  // matches its state, a full snapshot under a fresh epoch otherwise.
  // Appended last so every existing frame keeps its numbering.
  get_telemetry_delta,
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
  std::uint64_t value = 0;  // ids / read results
  std::string error;        // human-readable detail on failure
  std::vector<std::uint8_t> payload;  // structured results (stage info)
};

// --- Command encoders (controller side) --------------------------------

std::vector<std::uint8_t> encode_install_action(
    const std::string& name, const lang::CompiledProgram& program,
    std::span<const lang::FieldDef> global_fields);
std::vector<std::uint8_t> encode_remove_action(const std::string& name);
std::vector<std::uint8_t> encode_create_table(const std::string& name);
std::vector<std::uint8_t> encode_delete_table(TableId table);
std::vector<std::uint8_t> encode_add_rule(TableId table,
                                          const std::string& pattern,
                                          const std::string& action_name);
std::vector<std::uint8_t> encode_remove_rule(TableId table, MatchRuleId rule);
std::vector<std::uint8_t> encode_set_global_scalar(
    const std::string& action_name, const std::string& field,
    std::int64_t value);
std::vector<std::uint8_t> encode_set_global_array(
    const std::string& action_name, const std::string& field,
    std::span<const std::int64_t> data);
std::vector<std::uint8_t> encode_add_flow_rule(const FlowClassifierRule& rule,
                                               const std::string& class_name);
std::vector<std::uint8_t> encode_clear_flow_rules();
std::vector<std::uint8_t> encode_read_global_scalar(
    const std::string& action_name, const std::string& field);
std::vector<std::uint8_t> encode_get_telemetry();
std::vector<std::uint8_t> encode_get_spans();
std::vector<std::uint8_t> encode_begin_txn();
std::vector<std::uint8_t> encode_commit_txn();
std::vector<std::uint8_t> encode_abort_txn();
std::vector<std::uint8_t> encode_reset_state();
std::vector<std::uint8_t> encode_add_rule_named(const std::string& table_name,
                                                const std::string& pattern,
                                                const std::string& action_name);
std::vector<std::uint8_t> encode_remove_rule_named(
    const std::string& table_name, MatchRuleId rule);
std::vector<std::uint8_t> encode_get_ruleset_version();
std::vector<std::uint8_t> encode_get_telemetry_delta(std::uint64_t epoch,
                                                     std::uint64_t seq);

// Stage API command encoders (Table 3: S0 get_stage_info,
// S1 create_rule, S2 remove_rule).
std::vector<std::uint8_t> encode_get_stage_info();
std::vector<std::uint8_t> encode_create_stage_rule(
    const std::string& rule_set, const Classifier& classifier,
    const std::string& class_name, MetaFieldMask meta_mask);
std::vector<std::uint8_t> encode_remove_stage_rule(const std::string& rule_set,
                                                   RuleId rule);

// --- Agents ------------------------------------------------------------------

// Reads the opcode off an encoded command frame without decoding the
// rest (the opcode sits right after the magic). nullopt on frames too
// short, with a bad magic, or with an out-of-range opcode. Tracing uses
// this to label agent-side spans with the command they applied.
std::optional<Command> peek_command(std::span<const std::uint8_t> frame);

// Decodes one command frame and applies it to `enclave`. Never throws:
// malformed frames and failed validations come back as a Response.
// `encoder` (the connection's telemetry::DeltaEncoder, may be null)
// answers get_telemetry_delta; without one the command degrades to
// stateless full snapshots.
Response apply(Enclave& enclave, std::span<const std::uint8_t> frame,
               telemetry::DeltaEncoder* encoder = nullptr);

// Stage-side agent: applies stage commands to an application's stage.
Response apply_stage(Stage& stage, std::span<const std::uint8_t> frame);

std::vector<std::uint8_t> encode_response(const Response& response);
Response decode_response(std::span<const std::uint8_t> frame);

// Decodes the payload of a get_stage_info response.
std::optional<StageInfo> decode_stage_info(
    std::span<const std::uint8_t> payload);

}  // namespace eden::core::wire
