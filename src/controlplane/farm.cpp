#include "controlplane/farm.h"

#include <utility>

#include "core/controller.h"
#include "telemetry/flight_recorder.h"

namespace eden::controlplane {

struct AgentFarm::Slot {
  std::size_t index = 0;
  std::string name;
  std::unique_ptr<core::Enclave> enclave;
  PipePump pump;
  std::unique_ptr<EnclaveAgent> agent;
  std::unique_ptr<EnclaveSession> session;
  std::uint64_t now_ns = 0;
  bool chaos = false;
  bool killed = false;
  std::uint64_t dials = 0;
  std::uint64_t driven = 0;
  std::map<std::string, double> host_series;
};

AgentFarm::AgentFarm(FarmConfig config)
    : config_(config),
      registry_(std::make_unique<core::ClassRegistry>()) {
  // Virtual time runs in 1 ms steps; the stock SessionConfig assumes
  // wall-clock pacing, so unless the caller tuned it, shrink the
  // timeouts to the same ms scale the PR4 soak uses.
  const SessionConfig stock;
  if (config_.session.heartbeat_interval_ns == stock.heartbeat_interval_ns) {
    config_.session.heartbeat_interval_ns = 2'000'000;   // 2 ms
    config_.session.liveness_timeout_ns = 10'000'000;    // 10 ms
    config_.session.request_timeout_ns = 12'000'000;     // 12 ms
    config_.session.backoff_initial_ns = 1'000'000;      // 1 ms
    config_.session.backoff_max_ns = 20'000'000;         // 20 ms
  }
  const FaultProfile no_faults;
  if (config_.fault.drop_prob == no_faults.drop_prob &&
      config_.fault.delay_prob == no_faults.delay_prob &&
      config_.fault.duplicate_prob == no_faults.duplicate_prob &&
      config_.fault.truncate_prob == no_faults.truncate_prob &&
      config_.fault.disconnect_prob == no_faults.disconnect_prob) {
    config_.fault.drop_prob = 0.03;
    config_.fault.delay_prob = 0.08;
    config_.fault.duplicate_prob = 0.03;
    config_.fault.truncate_prob = 0.02;
    config_.fault.disconnect_prob = 0.005;
  }

  slots_.reserve(config_.agents);
  for (std::size_t i = 0; i < config_.agents; ++i) {
    auto s = std::make_unique<Slot>();
    s->index = i;
    s->name = "agent" + std::to_string(i);
    s->chaos = config_.chaos;
    s->enclave = std::make_unique<core::Enclave>(s->name, *registry_);
    attach_agent(*s);

    Slot* sp = s.get();
    auto connector = [this, sp]() -> std::unique_ptr<Transport> {
      if (sp->killed) return nullptr;
      auto [near, far] = make_pipe(sp->pump, 32);
      sp->agent->attach(std::move(far));
      if (!sp->chaos) return std::move(near);
      FaultProfile profile = config_.fault;
      // Fresh rolls per slot and per dial, all derived from the farm
      // seed so a run replays exactly.
      profile.seed =
          config_.seed * 1'000'003 + sp->index * 1'009 + ++sp->dials;
      return std::make_unique<FaultyTransport>(std::move(near), sp->pump,
                                               profile);
    };
    SessionConfig session_config = config_.session;
    session_config.seed = config_.seed * 7919 + i;
    s->session = std::make_unique<EnclaveSession>(
        s->name, std::move(connector), [sp]() { return sp->now_ns; },
        session_config);
    slots_.push_back(std::move(s));
  }
}

AgentFarm::~AgentFarm() = default;

AgentFarm::Slot& AgentFarm::slot(std::size_t i) { return *slots_.at(i); }
const AgentFarm::Slot& AgentFarm::slot(std::size_t i) const {
  return *slots_.at(i);
}

void AgentFarm::attach_agent(Slot& s) {
  s.agent = std::make_unique<EnclaveAgent>(*s.enclave);
  s.agent->set_host_series([sp = &s]() {
    return std::vector<std::pair<std::string, double>>(
        sp->host_series.begin(), sp->host_series.end());
  });
}

void AgentFarm::install_program() {
  // One shared compile; every session journals its own install so a
  // restarted slot rebuilds the program from its journal.
  core::Controller controller{*registry_};
  const lang::CompiledProgram program =
      controller.compile("mark_fn", "fun(p, m, g) -> p.path <- 7", {});
  for (auto& s : slots_) {
    s->session->install_action("mark", program, {});
    s->session->create_table("t");
    s->session->add_rule("t", "*", "mark");
  }
}

void AgentFarm::step(std::size_t i) {
  Slot& s = slot(i);
  s.now_ns += config_.step_ns;
  s.session->tick();
  s.pump.run();
}

void AgentFarm::step_all() {
  for (std::size_t i = 0; i < slots_.size(); ++i) step(i);
}

bool AgentFarm::converge(std::size_t max_rounds) {
  // Per-slot sticky convergence: once a slot has drained — ready, no
  // inflight requests, empty pump — its journaled state has landed,
  // and a later chaos-induced disconnect does not un-land it. Without
  // stickiness a thousand faulty sessions would almost never all be
  // quiet in the same round.
  std::vector<bool> done(slots_.size(), false);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    step_all();
    bool all = true;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (done[i]) continue;
      const Slot& s = *slots_[i];
      if (s.killed ||
          (s.session->ready() && s.session->inflight() == 0 &&
           s.pump.pending() == 0 && !s.enclave->txn_open())) {
        done[i] = true;
      } else {
        all = false;
      }
    }
    if (all) return true;
  }
  return false;
}

void AgentFarm::drive(std::size_t i, std::size_t packets) {
  Slot& s = slot(i);
  for (std::size_t k = 0; k < packets; ++k) {
    netsim::Packet packet;
    packet.size_bytes = 100;
    s.enclave->process(packet);
  }
  s.driven += packets;
}

std::uint64_t AgentFarm::driven(std::size_t i) const {
  return slot(i).driven;
}

std::uint64_t AgentFarm::driven_total() const {
  std::uint64_t total = 0;
  for (const auto& s : slots_) total += s->driven;
  return total;
}

void AgentFarm::set_chaos(std::size_t i, bool chaos) {
  slot(i).chaos = chaos;
}

void AgentFarm::kill(std::size_t i) {
  Slot& s = slot(i);
  s.killed = true;
  s.agent->detach();
  telemetry::FlightRecorder::instance().record(
      telemetry::FlightEventType::agent_kill, s.name,
      static_cast<std::int64_t>(i));
}

void AgentFarm::revive(std::size_t i) {
  slot(i).killed = false;
  telemetry::FlightRecorder::instance().record(
      telemetry::FlightEventType::agent_revive, slot(i).name,
      static_cast<std::int64_t>(i));
}

bool AgentFarm::killed(std::size_t i) const { return slot(i).killed; }

void AgentFarm::restart(std::size_t i) {
  Slot& s = slot(i);
  s.agent->detach();
  attach_agent(s);  // new boot id, new telemetry delta encoder
  telemetry::FlightRecorder::instance().record(
      telemetry::FlightEventType::agent_restart, s.name,
      static_cast<std::int64_t>(i),
      static_cast<std::int64_t>(s.agent->boot_id()));
}

void AgentFarm::set_host_series_value(std::size_t i, const std::string& name,
                                      double value) {
  slot(i).host_series[name] = value;
}

std::vector<telemetry::CollectorSource> AgentFarm::sources() {
  std::vector<telemetry::CollectorSource> out;
  out.reserve(slots_.size());
  for (auto& owned : slots_) {
    Slot* sp = owned.get();
    telemetry::CollectorSource src;
    src.name = sp->name;
    src.fetch_delta = [sp](std::uint64_t epoch, std::uint64_t seq) {
      return sp->session->fetch_telemetry_delta_json(sp->pump, epoch, seq);
    };
    src.session = [sp]() { return sp->session->telemetry(); };
    out.push_back(std::move(src));
  }
  return out;
}

core::Enclave& AgentFarm::enclave(std::size_t i) { return *slot(i).enclave; }

EnclaveSession& AgentFarm::session(std::size_t i) {
  return *slot(i).session;
}

}  // namespace eden::controlplane
