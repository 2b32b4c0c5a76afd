#include "host.h"

#include <stdexcept>

#include "core/enclave_schema.h"
#include "ledger.h"

namespace perfbench {

std::int64_t read_clock(void* ctx) {
  return static_cast<std::atomic<std::int64_t>*>(ctx)->load(
      std::memory_order_relaxed);
}

core::EnclaveConfig enclave_config(const WorkloadSpec& w, std::uint64_t seed,
                                   bool telemetry) {
  core::EnclaveConfig c;
  c.max_messages_per_action = 0;  // bounded by idle expiry instead
  if (w.idle_timeout > 0) {
    c.message_idle_timeout_ns = w.idle_timeout;
    c.message_wheel_tick_ns = w.idle_timeout / 64;
  }
  c.rng_seed = seed;
  if (telemetry) {
    c.telemetry.enabled = true;
    c.telemetry.histogram_sample_every = 64;
    c.telemetry.span_sample_every = 128;
  }
  return c;
}

std::vector<std::string> action_names(const WorkloadSpec& w) {
  if (w.managed) return {"sff_a", "sff_b"};
  return w.functions;
}

const std::string& function_of_action(const WorkloadSpec& w,
                                      const std::string& action) {
  static const std::string kSff = "sff";
  if (w.managed) return kSff;
  for (const std::string& fn : w.functions) {
    if (fn == action) return fn;
  }
  throw std::invalid_argument("unknown action " + action);
}

std::string initial_action(const WorkloadSpec& w, std::size_t cls) {
  return action_names(w)[w.managed ? 0 : cls % w.functions.size()];
}

CountingTransport::CountingTransport(std::unique_ptr<Transport> inner,
                                     std::uint64_t* sent)
    : inner_(std::move(inner)), sent_(sent) {
  inner_->set_on_bytes([this](std::span<const std::uint8_t> data) {
    if (on_bytes_) on_bytes_(data);
  });
  inner_->set_on_disconnect([this] {
    if (on_disconnect_) on_disconnect_();
  });
}

bool CountingTransport::send(std::span<const std::uint8_t> data) {
  *sent_ += data.size();
  return inner_->send(data);
}

Host::Host(const WorkloadSpec& w, std::uint64_t seed, bool telemetry)
    : w(w),
      enclave(std::make_unique<core::Enclave>(
          "egress", registry, enclave_config(w, seed, telemetry))) {
  enclave->set_clock(&read_clock, &clock);
  install_stage_rules(w, stage);
}

bool Host::program_via_session() {
  agent = std::make_unique<controlplane::EnclaveAgent>(*enclave);
  controlplane::SessionConfig config;
  // Real time, with timeouts far beyond any healthy round trip: a
  // timeout here is a failure, not a scheduling hiccup.
  config.heartbeat_interval_ns = 100'000'000;
  config.liveness_timeout_ns = 10'000'000'000;
  config.request_timeout_ns = 5'000'000'000;
  session = std::make_unique<controlplane::EnclaveSession>(
      "egress",
      [this]() -> std::unique_ptr<controlplane::Transport> {
        auto [near, far] = controlplane::make_pipe(pump);
        agent->attach(std::move(far));
        return std::make_unique<CountingTransport>(std::move(near), &cp_bytes);
      },
      [] { return static_cast<std::uint64_t>(now_ns()); }, config);
  session->tick();
  pump.run();
  for (const std::string& action : action_names(w)) {
    const auto& fn = function_named(function_of_action(w, action));
    session->install_action(action, fn.compile(), fn.global_fields());
    for (const GlobalValue& g : globals_for(fn.name())) {
      if (g.is_array) {
        session->set_global_array(action, g.field, g.data);
      } else {
        session->set_global_scalar(action, g.field, g.scalar);
      }
    }
  }
  session->create_table("egress");
  for (std::size_t i = 0; i < w.classes; ++i) {
    rules.push_back(
        session->add_rule("egress", class_pattern(i), initial_action(w, i)));
  }
  pump.run();
  const auto table = enclave->find_table_id("egress");
  return session->ready() && session->stats().responses_error == 0 &&
         table.has_value() && enclave->rule_count(*table) == w.classes;
}

void program_enclave(core::Enclave& enclave, const WorkloadSpec& w,
                     Variant variant, const std::string& only_fn) {
  std::vector<std::pair<std::string, core::ActionId>> ids;
  for (const std::string& action : action_names(w)) {
    const std::string& fn_name = function_of_action(w, action);
    if (!only_fn.empty() && fn_name != only_fn) continue;
    const auto& fn = function_named(fn_name);
    core::ActionId id;
    if (variant == Variant::bytecode) {
      id = enclave.install_action(action, fn.compile(), fn.global_fields());
    } else {
      const lang::CompiledProgram program = fn.compile();
      core::NativeActionFn twin = fn.native();
      bool touches = program.usage.touches_scope(lang::Scope::message);
      if (variant == Variant::nostate && touches) {
        // Same compute, no message-state acquisition: the twin gets a
        // scratch block. Rungs run on one thread only.
        auto scratch = std::make_shared<lang::StateBlock>(
            lang::StateBlock::from_schema(
                core::make_enclave_schema(fn.global_fields()),
                lang::Scope::message));
        twin = [inner = std::move(twin), scratch](
                   lang::StateBlock& pkt, lang::StateBlock*,
                   lang::StateBlock* global, core::NativeCtx& ctx) {
          return inner(pkt, scratch.get(), global, ctx);
        };
        touches = false;
      }
      id = enclave.install_native_action(action, std::move(twin),
                                         program.concurrency, touches,
                                         fn.global_fields());
    }
    for (const GlobalValue& g : globals_for(fn_name)) {
      if (g.is_array) {
        enclave.set_global_array(id, g.field, g.data);
      } else {
        enclave.set_global_scalar(id, g.field, g.scalar);
      }
    }
    ids.emplace_back(action, id);
  }
  const core::TableId table = enclave.create_table("egress");
  for (std::size_t i = 0; i < w.classes; ++i) {
    const std::string action = initial_action(w, i);
    for (const auto& [name, id] : ids) {
      if (name == action) {
        enclave.add_rule(table, core::ClassPattern(class_pattern(i)), id);
      }
    }
  }
}

}  // namespace perfbench
