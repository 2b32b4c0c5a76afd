#include "controlplane/session.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "controlplane/trace_context.h"
#include "telemetry/flight_recorder.h"

namespace eden::controlplane {

using core::wire::Response;
using core::wire::Status;
using telemetry::FlightEventType;
using telemetry::FlightRecorder;
using telemetry::Hop;

// --- EnclaveAgent -------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_next_boot_id{1};

// Reconnect delays spread +-20% around the nominal backoff.
constexpr double kBackoffJitter = 0.2;
// Pipelining window, in request frames.
constexpr std::size_t kMaxInflight = 64;

telemetry::SpanCollector& spans() {
  return telemetry::SpanCollector::instance();
}

// Whether a command can reach the agent at all, as the one element of a
// batch frame. A larger one would be rejected by the agent's frame
// decoder, which closes the stream, and every resync would replay it
// into the same frame.
bool fits_a_frame(const std::vector<std::uint8_t>& command) {
  return core::wire::kBatchHeaderBytes + core::wire::kBatchElementMaxBytes +
             command.size() <=
         kMaxFramePayload;
}
}  // namespace

EnclaveAgent::EnclaveAgent(core::Enclave& enclave)
    : enclave_(enclave),
      boot_id_(g_next_boot_id.fetch_add(1, std::memory_order_relaxed)) {}

void EnclaveAgent::attach(std::unique_ptr<Transport> transport) {
  // A transaction left open by the previous connection is a dead
  // controller's half-staged update; it must never commit.
  abort_stale_txn();
  if (transport_ != nullptr) transport_->close();
  transport_ = std::move(transport);
  decoder_.reset();
  expected_request_id_ = 1;
  transport_->set_on_bytes(
      [this](std::span<const std::uint8_t> data) { on_bytes(data); });
  transport_->set_on_disconnect([this]() { on_disconnect(); });
}

void EnclaveAgent::detach() {
  if (transport_ == nullptr) return;
  abort_stale_txn();
  transport_->close();
  transport_.reset();
}

void EnclaveAgent::abort_stale_txn() {
  if (!enclave_.txn_open()) return;
  enclave_.abort_txn();
  ++stats_.stale_txn_aborts;
}

std::vector<std::uint8_t> EnclaveAgent::greeting_payload() const {
  return encode_greeting({boot_id_, enclave_.ruleset_version()});
}

void EnclaveAgent::on_bytes(std::span<const std::uint8_t> data) {
  if (transport_ == nullptr || !transport_->connected()) return;
  std::vector<Frame> frames;
  const bool ok = decoder_.feed(data, frames);
  for (Frame& frame : frames) {
    ++stats_.frames;
    switch (frame.type) {
      case FrameType::hello:
      case FrameType::heartbeat: {
        ++stats_.heartbeats;
        const FrameType ack = frame.type == FrameType::hello
                                  ? FrameType::hello_ack
                                  : FrameType::heartbeat_ack;
        transport_->send(
            encode_frame({ack, frame.id, greeting_payload()}));
        break;
      }
      case FrameType::request: {
        if (frame.id != expected_request_id_) {
          // A command was lost (id gap) or replayed (id repeat). Either
          // way, applying this frame could split a batch the controller
          // staged as one transaction: treat it as a broken stream.
          ++stats_.corrupt_streams;
          abort_stale_txn();
          transport_->close();
          return;
        }
        ++expected_request_id_;
        ++stats_.requests;
        // Every request is a batch: anything else answers bad_request
        // and applies nothing. A traced batch times each element and
        // links it under the cp_send span it was sent under.
        Response response;
        std::int64_t apply_span = 0;
        if (core::wire::peek_command(frame.payload) !=
            core::wire::Command::batch) {
          response.status = Status::bad_request;
          response.error = "request is not a batch";
        } else if (frame.trace_id == 0) {
          response =
              core::wire::apply(enclave_, frame.payload, telemetry_encoder_);
        } else {
          response = core::wire::apply(
              enclave_, frame.payload, telemetry_encoder_,
              [&](const core::wire::BatchElement& e) {
                return apply_traced(e.command, frame.trace_id, e.parent_span,
                                    apply_span);
              });
        }
        transport_->send(encode_frame({FrameType::response, frame.id,
                                       core::wire::encode_response(response),
                                       frame.trace_id, apply_span}));
        break;
      }
      default:
        // Controller-bound frames arriving here mean the peer is
        // confused; drop them, the decoder stays in sync.
        break;
    }
    if (!transport_->connected()) return;  // a send forced a close
  }
  if (!ok) {
    // Framing is lost for good: close and wait for a fresh attach.
    // The transport object itself is torn down by the next attach() or
    // detach() — never here, we are inside its callback.
    ++stats_.corrupt_streams;
    abort_stale_txn();
    transport_->close();
  }
}

Response EnclaveAgent::apply_traced(std::span<const std::uint8_t> command,
                                    std::int64_t trace_id,
                                    std::int64_t parent_span,
                                    std::int64_t& apply_span) {
  const std::int64_t t0 = spans().now_ns();
  Response response = core::wire::apply(enclave_, command, telemetry_encoder_);
  const std::optional<core::wire::Command> op =
      core::wire::peek_command(command);
  const std::int64_t opcode =
      op.has_value() ? static_cast<std::int64_t>(*op) : 0;
  apply_span =
      spans().record_linked(trace_id, Hop::cp_agent_apply, parent_span,
                            spans().now_ns(), spans().now_ns() - t0, opcode);
  if (op == core::wire::Command::commit_txn && response.status == Status::ok) {
    spans().record_linked(
        trace_id, Hop::cp_agent_publish, apply_span, spans().now_ns(), 0,
        static_cast<std::int64_t>(enclave_.ruleset_version()));
  }
  return response;
}

void EnclaveAgent::on_disconnect() { abort_stale_txn(); }

// --- EnclaveSession -----------------------------------------------------

EnclaveSession::EnclaveSession(std::string name, Connector connector,
                               ClockFn clock, SessionConfig config)
    : name_(std::move(name)),
      connector_(std::move(connector)),
      clock_(std::move(clock)),
      config_(config),
      rng_(config.seed) {}

std::uint64_t EnclaveSession::journal_size() const {
  std::uint64_t n = 3;  // begin_txn + reset_state + commit_txn
  for (const auto& action : journal_.actions) {
    n += 1 + action.scalars.size() + action.arrays.size();
  }
  for (const auto& table : journal_.tables) n += 1 + table.rules.size();
  n += journal_.flow_rules.size();
  return n;
}

void EnclaveSession::tick() {
  const std::uint64_t now = clock_();
  if (state_ == State::disconnected) {
    if (now >= next_connect_ns_) try_connect();
    return;
  }
  if (transport_ == nullptr || !transport_->connected()) {
    teardown("transport closed");
    return;
  }
  if (now - last_rx_ns_ >= config_.liveness_timeout_ns) {
    ++stats_.liveness_timeouts;
    teardown("liveness timeout");
    return;
  }
  if (!inflight_.empty() &&
      now - inflight_.front().sent_at_ns >= config_.request_timeout_ns) {
    ++stats_.request_timeouts;
    const RequestFrame& head = inflight_.front();
    const Request& first = head.requests.front();
    if (first.trace_id != 0) {
      spans().record_linked(first.trace_id, Hop::cp_timeout, first.span_id,
                            spans().now_ns(), 0,
                            static_cast<std::int64_t>(head.id));
    }
    teardown("request timeout");
    return;
  }
  if (now - last_heartbeat_ns_ >= config_.heartbeat_interval_ns) {
    // Until the hello_ack arrives the pacing slot re-sends the hello: a
    // heartbeat here would keep liveness fresh (the agent acks it) while
    // a dropped hello wedged the greeting forever.
    if (state_ == State::greeting) {
      send_hello();
    } else {
      send_heartbeat();
    }
  }
}

void EnclaveSession::try_connect() {
  // Outside any transport callback (tick context), so destroying the
  // previous transport object is safe here.
  transport_.reset();
  std::unique_ptr<Transport> fresh = connector_ ? connector_() : nullptr;
  if (fresh == nullptr || !fresh->connected()) {
    ++stats_.connect_failures;
    if (backoff_attempts_ < 32) ++backoff_attempts_;
    schedule_reconnect();
    return;
  }
  transport_ = std::move(fresh);
  decoder_.reset();
  transport_->set_on_bytes(
      [this](std::span<const std::uint8_t> data) { on_bytes(data); });
  transport_->set_on_disconnect([this]() { on_disconnect(); });
  ++stats_.connects;
  FlightRecorder::instance().record(FlightEventType::session_connect, name_,
                                    static_cast<std::int64_t>(stats_.connects));
  next_request_id_ = 1;
  last_rx_ns_ = clock_();
  state_ = State::greeting;
  send_hello();
}

void EnclaveSession::schedule_reconnect() {
  std::uint64_t nominal = config_.backoff_initial_ns;
  for (std::uint32_t i = 1; i < backoff_attempts_; ++i) {
    if (nominal >= config_.backoff_max_ns / 2) {
      nominal = config_.backoff_max_ns;
      break;
    }
    nominal *= 2;
  }
  nominal = std::min(nominal, config_.backoff_max_ns);
  // Jitter de-synchronizes a controller reconnecting to many enclaves
  // after a shared outage.
  const double factor = 1.0 + kBackoffJitter * (2.0 * rng_.uniform() - 1.0);
  const auto delay = static_cast<std::uint64_t>(
      static_cast<double>(nominal) * std::max(0.0, factor));
  next_connect_ns_ = clock_() + delay;
  FlightRecorder::instance().record(FlightEventType::session_backoff, name_,
                                    static_cast<std::int64_t>(delay),
                                    backoff_attempts_);
  if (trace_.id != 0) {
    spans().record_linked(trace_.id, Hop::cp_backoff, trace_.root,
                          spans().now_ns(), 0,
                          static_cast<std::int64_t>(delay));
  }
}

void EnclaveSession::teardown(const char* reason) {
  ++stats_.teardowns;
  FlightRecorder::instance().record(FlightEventType::session_teardown,
                                    name_ + ": " + reason);
  if (trace_.id != 0) {
    spans().record_linked(trace_.id, Hop::cp_teardown, trace_.root,
                          spans().now_ns());
    // A resync/poll trace dies with its connection; a transaction's
    // survives into the folded resync on the next connect.
    if (trace_.owner != TraceOwner::txn) trace_ = ActiveTrace{};
  }
  if (transport_ != nullptr && transport_->connected()) transport_->close();
  // The transport object is destroyed on the next try_connect(): this
  // method runs from inside transport callbacks, where deleting the
  // transport would free the std::function we are executing.
  state_ = State::disconnected;
  inflight_.clear();
  outbox_.clear();
  staged_.clear();  // the journal still holds them; the resync replays it
  heartbeat_sent_at_.clear();
  decoder_.reset();
  if (backoff_attempts_ < 32) ++backoff_attempts_;
  schedule_reconnect();
}

void EnclaveSession::on_disconnect() {
  if (state_ != State::disconnected) teardown("peer closed");
}

void EnclaveSession::on_bytes(std::span<const std::uint8_t> data) {
  if (state_ == State::disconnected) return;
  last_rx_ns_ = clock_();
  std::vector<Frame> frames;
  const bool ok = decoder_.feed(data, frames);
  for (Frame& frame : frames) {
    handle_frame(frame);
    if (state_ == State::disconnected) return;  // a frame tore us down
  }
  if (!ok) {
    ++stats_.corrupt_streams;
    teardown(decoder_.error().c_str());
  }
}

void EnclaveSession::handle_frame(const Frame& frame) {
  const std::uint64_t now = clock_();
  switch (frame.type) {
    case FrameType::hello_ack: {
      if (state_ != State::greeting) return;
      const std::optional<AgentGreeting> greeting =
          decode_greeting(frame.payload);
      if (!greeting.has_value()) {
        ++stats_.corrupt_streams;
        teardown("bad greeting");
        return;
      }
      if (seen_agent_ && greeting->boot_id != agent_boot_id_) {
        ++stats_.agent_restarts_seen;
      }
      agent_boot_id_ = greeting->boot_id;
      seen_agent_ = true;
      backoff_attempts_ = 0;
      start_resync(*greeting);
      return;
    }
    case FrameType::heartbeat_ack: {
      auto it = heartbeat_sent_at_.find(frame.id);
      if (it != heartbeat_sent_at_.end()) {
        rtt_.record(now - it->second);
        heartbeat_sent_at_.erase(it);
        ++stats_.heartbeats_acked;
      }
      const std::optional<AgentGreeting> greeting =
          decode_greeting(frame.payload);
      if (greeting.has_value() && seen_agent_ &&
          greeting->boot_id != agent_boot_id_) {
        // The enclave restarted between heartbeats: its state is gone.
        // Reconnect and resync from the journal.
        ++stats_.agent_restarts_seen;
        agent_boot_id_ = greeting->boot_id;
        teardown("agent restarted");
      }
      return;
    }
    case FrameType::response: {
      if (inflight_.empty() || inflight_.front().id != frame.id) {
        // FIFO correlation broke: either a response was lost or
        // invented. Indistinguishable from corruption — resync.
        ++stats_.corrupt_streams;
        teardown("response id mismatch");
        return;
      }
      RequestFrame pending = std::move(inflight_.front());
      inflight_.pop_front();
      rtt_.record(now - pending.sent_at_ns);
      const std::optional<std::vector<Response>> answers =
          core::wire::batch_responses(
              core::wire::decode_response(frame.payload));
      if (!answers.has_value() || answers->size() != pending.requests.size()) {
        // The agent could not read the batch, or answered another one:
        // as with a mismatched id, the stream is corrupt.
        ++stats_.corrupt_streams;
        teardown("bad batch response");
        return;
      }
      for (std::size_t i = 0; i < pending.requests.size(); ++i) {
        Request& request = pending.requests[i];
        const Response& answer = (*answers)[i];
        if (request.trace_id != 0) {
          // Round-trip slice under the cp_send span; agent-side spans
          // for the same command hang off that same parent, so the tree
          // reads send -> {apply, response}.
          const std::int64_t t = spans().now_ns();
          spans().record_linked(request.trace_id, Hop::cp_response,
                                request.span_id, t, t - request.sent_span_ns,
                                static_cast<std::int64_t>(frame.id));
        }
        if (answer.status == Status::ok) {
          ++stats_.responses_ok;
        } else {
          ++stats_.responses_error;
        }
        if (request.done) request.done(answer);
      }
      pump_outbox();
      return;
    }
    default:
      // Enclave-bound frame types are never valid here; ignore.
      return;
  }
}

void EnclaveSession::send_request(std::vector<std::uint8_t> command,
                                  Completion done) {
  if (transport_ == nullptr || !transport_->connected()) return;
  outbox_.emplace_back().requests.push_back(
      {std::move(command), std::move(done), trace_.id, trace_.root});
  pump_outbox();
}

void EnclaveSession::stage(std::vector<std::uint8_t> command, Completion done) {
  staged_.push_back(
      {std::move(command), std::move(done), trace_.id, trace_.root});
}

void EnclaveSession::send_mutation(std::vector<std::uint8_t> command) {
  if (state_ != State::ready) return;
  if (txn_snapshot_ != nullptr) {
    stage(std::move(command), {});
  } else {
    send_request(std::move(command), {});
  }
}

void EnclaveSession::send_batch() {
  // One oversized frame would tear the stream down, and the resync after
  // it would send the same frame again: split under the frame limit.
  RequestFrame* frame = nullptr;
  std::size_t bytes = 0;
  for (Request& request : staged_) {
    const std::size_t size =
        core::wire::kBatchElementMaxBytes + request.command.size();
    if (frame == nullptr || bytes + size > kMaxFramePayload) {
      frame = &outbox_.emplace_back();
      bytes = core::wire::kBatchHeaderBytes;
    }
    bytes += size;
    frame->requests.push_back(std::move(request));
  }
  staged_.clear();
  pump_outbox();
}

void EnclaveSession::pump_outbox() {
  while (transport_ != nullptr && transport_->connected() &&
         inflight_.size() < kMaxInflight && !outbox_.empty()) {
    RequestFrame& out = inflight_.emplace_back(std::move(outbox_.front()));
    outbox_.pop_front();
    out.id = next_request_id_++;
    out.sent_at_ns = clock_();
    stats_.requests_sent += out.requests.size();
    // Each traced command gets its own cp_send span. The frame carries
    // the first one's trace; a command of another trace rides along with
    // no parent span.
    Frame frame{FrameType::request, out.id, {}};
    for (Request& request : out.requests) {
      if (request.trace_id == 0) continue;
      request.span_id = spans().record_linked(
          request.trace_id, Hop::cp_send, request.parent_span,
          spans().now_ns(), 0, static_cast<std::int64_t>(out.id));
      request.sent_span_ns = spans().now_ns();
      if (frame.trace_id == 0) {
        frame.trace_id = request.trace_id;
        frame.parent_span = request.span_id;
      }
    }
    std::vector<core::wire::BatchElement> elements;
    elements.reserve(out.requests.size());
    for (const Request& request : out.requests) {
      elements.push_back(
          {request.command,
           request.trace_id == frame.trace_id ? request.span_id : 0});
    }
    frame.payload = core::wire::encode_batch(elements);
    for (Request& request : out.requests) request.command = {};
    if (frame.trace_id == 0) {
      transport_->send(encode_frame(frame));
    } else {
      // Publish the context for the layers under the session (the fault
      // injector) for the duration of this send.
      ScopedWireTrace wire_trace(frame.trace_id, frame.parent_span);
      transport_->send(encode_frame(frame));
    }
  }
}

void EnclaveSession::send_hello() {
  // Shares the heartbeat pacing slot, so a lost hello is retried every
  // heartbeat_interval until the greeting completes.
  last_heartbeat_ns_ = clock_();
  transport_->send(encode_frame({FrameType::hello, next_id_++, {}}));
}

void EnclaveSession::send_heartbeat() {
  const std::uint64_t now = clock_();
  // A probe this old could only be acked after the liveness window; on
  // a link that drops acks while response traffic sustains liveness the
  // map would otherwise grow without bound.
  std::erase_if(heartbeat_sent_at_, [&](const auto& kv) {
    return now - kv.second >= config_.liveness_timeout_ns;
  });
  const std::uint64_t id = next_id_++;
  heartbeat_sent_at_[id] = now;
  last_heartbeat_ns_ = now;
  ++stats_.heartbeats_sent;
  transport_->send(encode_frame({FrameType::heartbeat, id, {}}));
}

void EnclaveSession::start_resync(const AgentGreeting& /*greeting*/) {
  // Always resync on connect: even a same-boot reconnect may have lost
  // an in-flight commit, and replaying the journal into one transaction
  // is idempotent — reset_state then rebuild, published in one swap, so
  // the data path sees the old committed set until the new one lands.
  ++stats_.resyncs;
  state_ = State::ready;
  // A resync continues the transaction's trace when one is open across
  // the reconnect; otherwise it may start its own (sampled) trace. The
  // cp_resync span id is allocated up front so the replayed commands'
  // cp_send spans parent under it, and the event itself is recorded
  // after the replay, once the command count is known.
  if (trace_.id == 0) {
    const std::int64_t id = spans().maybe_start_trace();
    if (id != 0) trace_ = ActiveTrace{id, 0, TraceOwner::resync};
  }
  const std::int64_t resync_parent = trace_.root;
  std::int64_t resync_span = 0;
  if (trace_.id != 0) {
    resync_span = spans().next_span_id();
    trace_.root = resync_span;
  }

  // The committed state the enclave converges to: the whole journal, or
  // — with a client transaction open across the reconnect — only its
  // pre-transaction snapshot, so the staged mutations stay invisible.
  // Like a client transaction, it leaves whole as one batch.
  const bool txn_open = txn_snapshot_ != nullptr;
  const Journal& base = txn_open ? *txn_snapshot_ : journal_;
  stage(core::wire::encode_begin_txn(), {});
  stage(core::wire::encode_reset_state(), {});
  replay_journal(base);
  stage(core::wire::encode_commit_txn(), [this](const Response& response) {
    if (response.status == Status::ok) ++stats_.txns_committed;
    // Terminal hop of a resync trace — and of a txn trace whose commit
    // was folded into this resync across a reconnect.
    finish_trace_unless_txn_open();
  });
  std::uint64_t commands = staged_.size();
  send_batch();

  if (txn_open) {
    // Re-open the interrupted transaction and re-stage its effects by
    // replaying the full desired journal on top of a staged wipe. They
    // wait in the session like any staged mutation: the client's
    // eventual commit_txn sends them, abort_txn drops them, so the
    // transaction still lands (or vanishes) atomically despite the
    // disconnect.
    stage(core::wire::encode_begin_txn(), {});
    stage(core::wire::encode_reset_state(), {});
    replay_journal(journal_);
    commands += staged_.size();
  }

  stats_.last_resync_commands = commands;
  resync_sizes_.record(commands);
  FlightRecorder::instance().record(FlightEventType::resync, name_,
                                    static_cast<std::int64_t>(commands),
                                    txn_open ? 1 : 0);
  if (trace_.id != 0) {
    spans().record(trace_.id, Hop::cp_resync, spans().now_ns(), 0,
                   static_cast<std::int64_t>(commands), resync_span,
                   resync_parent);
    // Later client commands on a reopened transaction parent under the
    // transaction root again, not under this resync.
    if (trace_.owner == TraceOwner::txn) trace_.root = resync_parent;
  }
}

void EnclaveSession::replay_journal(const Journal& journal) {
  for (const auto& action : journal.actions) {
    stage(core::wire::encode_install_action(action.name, action.program,
                                            action.globals),
          {});
    for (const auto& [field, value] : action.scalars) {
      stage(core::wire::encode_set_global_scalar(action.name, field, value),
            {});
    }
    for (const auto& [field, data] : action.arrays) {
      stage(core::wire::encode_set_global_array(action.name, field, data),
            {});
    }
  }
  for (const auto& table : journal.tables) {
    stage(core::wire::encode_create_table(table.name), {});
    for (const auto& rule : table.rules) {
      stage(core::wire::encode_add_rule_named(table.name, rule.handle,
                                              rule.spec->pattern,
                                              rule.spec->action),
            {});
    }
  }
  for (const auto& [rule, class_name] : journal.flow_rules) {
    stage(core::wire::encode_add_flow_rule(rule, class_name), {});
  }
}

EnclaveSession::Journal::ActionDef* EnclaveSession::find_action(
    const std::string& name) {
  for (auto& action : journal_.actions) {
    if (action.name == name) return &action;
  }
  return nullptr;
}

EnclaveSession::Journal::TableDef* EnclaveSession::find_table(
    const std::string& name) {
  for (auto& table : journal_.tables) {
    if (table.name == name) return &table;
  }
  return nullptr;
}

bool EnclaveSession::install_action(const std::string& name,
                                    const lang::CompiledProgram& program,
                                    std::vector<lang::FieldDef> global_fields) {
  std::vector<std::uint8_t> command =
      core::wire::encode_install_action(name, program, global_fields);
  if (!fits_a_frame(command)) return false;
  Journal::ActionDef* def = find_action(name);
  if (def == nullptr) {
    def = &journal_.actions.emplace_back();
    def->name = name;
  }
  def->program = program;
  def->globals = std::move(global_fields);
  // Reinstalling resets globals to schema defaults; stale writes must
  // not be replayed over the new program.
  def->scalars.clear();
  def->arrays.clear();
  send_mutation(std::move(command));
  return true;
}

void EnclaveSession::remove_action(const std::string& name) {
  std::vector<std::uint8_t> command = core::wire::encode_remove_action(name);
  if (!fits_a_frame(command)) return;
  std::erase_if(journal_.actions,
                [&](const Journal::ActionDef& a) { return a.name == name; });
  // Rules pointing at the action go with it, in the journal as on the
  // enclave (Enclave::remove_action erases them).
  for (auto& table : journal_.tables) {
    std::erase_if(table.rules, [&](const Journal::RuleDef& r) {
      return r.spec->action == name;
    });
  }
  send_mutation(std::move(command));
}

void EnclaveSession::create_table(const std::string& name) {
  if (find_table(name) != nullptr) return;
  std::vector<std::uint8_t> command = core::wire::encode_create_table(name);
  if (!fits_a_frame(command)) return;
  journal_.tables.emplace_back().name = name;
  send_mutation(std::move(command));
}

EnclaveSession::RuleHandle EnclaveSession::add_rule(const std::string& table,
                                                    const std::string& pattern,
                                                    const std::string& action) {
  const RuleHandle handle = next_handle_;
  std::vector<std::uint8_t> command =
      core::wire::encode_add_rule_named(table, handle, pattern, action);
  if (!fits_a_frame(command)) return 0;
  create_table(table);  // implicit, like a filesystem mkdir -p
  ++next_handle_;
  find_table(table)->rules.push_back(
      {handle, std::make_shared<const Journal::RuleSpec>(
                   Journal::RuleSpec{pattern, action})});
  send_mutation(std::move(command));
  return handle;
}

void EnclaveSession::remove_rule(const std::string& table, RuleHandle handle) {
  Journal::TableDef* t = find_table(table);
  if (t == nullptr) return;
  const auto gone = std::erase_if(
      t->rules, [&](const Journal::RuleDef& r) { return r.handle == handle; });
  if (gone != 0) {
    send_mutation(core::wire::encode_remove_rule_named(table, handle));
  }
}

void EnclaveSession::set_global_scalar(const std::string& action,
                                       const std::string& field,
                                       std::int64_t value) {
  // The journal is the source of truth: a write to an action it does
  // not know would land on the enclave but silently revert on the next
  // resync, so it must not be sent either.
  Journal::ActionDef* def = find_action(action);
  if (def == nullptr) return;
  std::vector<std::uint8_t> command =
      core::wire::encode_set_global_scalar(action, field, value);
  if (!fits_a_frame(command)) return;
  def->scalars[field] = value;
  send_mutation(std::move(command));
}

bool EnclaveSession::set_global_array(const std::string& action,
                                      const std::string& field,
                                      std::vector<std::int64_t> data) {
  Journal::ActionDef* def = find_action(action);
  if (def == nullptr) return false;
  std::vector<std::uint8_t> command =
      core::wire::encode_set_global_array(action, field, data);
  if (!fits_a_frame(command)) return false;
  def->arrays[field] = std::move(data);
  send_mutation(std::move(command));
  return true;
}

void EnclaveSession::add_flow_rule(const core::FlowClassifierRule& rule,
                                   const std::string& class_name) {
  std::vector<std::uint8_t> command =
      core::wire::encode_add_flow_rule(rule, class_name);
  if (!fits_a_frame(command)) return;
  journal_.flow_rules.emplace_back(rule, class_name);
  send_mutation(std::move(command));
}

void EnclaveSession::clear_flow_rules() {
  journal_.flow_rules.clear();
  send_mutation(core::wire::encode_clear_flow_rules());
}

void EnclaveSession::begin_txn() {
  if (txn_snapshot_ != nullptr) return;  // one open transaction at a time
  txn_snapshot_ = std::make_unique<Journal>(journal_);
  FlightRecorder::instance().record(FlightEventType::txn_begin, name_);
  if (trace_.owner == TraceOwner::none) {
    const std::int64_t id = spans().maybe_start_trace();
    if (id != 0) {
      trace_.id = id;
      trace_.owner = TraceOwner::txn;
      trace_.root =
          spans().record_linked(id, Hop::cp_txn_begin, 0, spans().now_ns());
    }
  }
  // The begin waits here with the mutations after it, and all of them
  // leave with the commit.
  if (state_ == State::ready) stage(core::wire::encode_begin_txn(), {});
}

void EnclaveSession::commit_txn() {
  if (txn_snapshot_ == nullptr) return;
  txn_snapshot_.reset();
  FlightRecorder::instance().record(FlightEventType::txn_commit, name_);
  const bool owned = trace_.owner == TraceOwner::txn;
  if (owned) {
    spans().record_linked(trace_.id, Hop::cp_txn_commit, trace_.root,
                          spans().now_ns());
  }
  if (state_ == State::ready) {
    stage(core::wire::encode_commit_txn(),
          [this, owned](const Response& response) {
            if (response.status == Status::ok) ++stats_.txns_committed;
            if (owned) trace_ = ActiveTrace{};
          });
    send_batch();
  } else if (owned) {
    // Disconnected commit: the next resync folds it in, so hand the
    // trace to the resync — its commit completion is the terminal hop
    // of the retry -> reconnect -> resync -> commit chain.
    trace_.owner = TraceOwner::resync;
  }
  // Disconnected commits are folded into the next resync, which itself
  // commits as one transaction.
}

void EnclaveSession::abort_txn() {
  if (txn_snapshot_ == nullptr) return;
  journal_ = std::move(*txn_snapshot_);
  txn_snapshot_.reset();
  staged_.clear();  // nothing of the transaction has left the session
  ++stats_.txns_aborted;
  FlightRecorder::instance().record(FlightEventType::txn_abort, name_);
  if (trace_.owner == TraceOwner::txn) {
    spans().record_linked(trace_.id, Hop::cp_txn_abort, trace_.root,
                          spans().now_ns());
    trace_ = ActiveTrace{};
  }
}

std::string EnclaveSession::fetch_payload(PipePump& pump,
                                          std::vector<std::uint8_t> command) {
  if (state_ != State::ready) return {};
  // Shared cell rather than stack references: if the response never
  // arrives (dropped by a faulty link) the completion outlives this
  // frame and must not dangle.
  auto cell = std::make_shared<std::pair<bool, std::string>>();
  send_request(std::move(command), [cell](const Response& response) {
    cell->first = true;
    if (response.status == Status::ok) {
      cell->second.assign(response.payload.begin(), response.payload.end());
    }
  });
  while (!cell->first && pump.step()) {
  }
  return cell->first ? cell->second : std::string{};
}

telemetry::SessionTelemetry EnclaveSession::telemetry() const {
  telemetry::SessionTelemetry t;
  static_cast<SessionStats&>(t) = stats_;
  t.name = name_;
  t.connected = connected();
  t.ready = ready();
  t.agent_boot_id = agent_boot_id_;
  t.rtt_ns = rtt_.snapshot();
  t.resync_commands = resync_sizes_.snapshot();
  return t;
}

std::string EnclaveSession::fetch_spans_json(PipePump& pump) {
  return fetch_payload(pump, core::wire::encode_get_spans());
}

std::string EnclaveSession::fetch_telemetry_delta_json(PipePump& pump,
                                                       std::uint64_t epoch,
                                                       std::uint64_t seq) {
  // A delta poll is its own (sampled) trace when no operation already
  // owns one: cp_poll root -> cp_send -> agent apply -> response.
  if (state_ == State::ready && trace_.owner == TraceOwner::none) {
    const std::int64_t id = spans().maybe_start_trace();
    if (id != 0) {
      trace_.id = id;
      trace_.owner = TraceOwner::poll;
      trace_.root =
          spans().record_linked(id, Hop::cp_poll, 0, spans().now_ns(), 0,
                                static_cast<std::int64_t>(epoch));
    }
  }
  std::string out =
      fetch_payload(pump, core::wire::encode_get_telemetry_delta(epoch, seq));
  if (trace_.owner == TraceOwner::poll) trace_ = ActiveTrace{};
  return out;
}

}  // namespace eden::controlplane
