// In-process agent farm: N controller->enclave session stacks for
// fleet-scale tests and benches.
//
// Each slot is the full PR4 control-plane stack — an Enclave, an
// EnclaveAgent, an in-memory pipe (optionally wrapped in a seeded
// FaultyTransport) and an EnclaveSession — driven by its own PipePump
// and virtual clock, so a thousand agents fit in one process and every
// fault schedule replays from its seed. The farm exposes the fleet as
// telemetry::CollectorSource entries whose delta fetch drives the
// slot's pump; a source only ever touches its own slot, so the
// TelemetryCollector's chunked fan-out needs no additional locking as
// long as kill/restart/drive happen between polls.
//
// Ground truth: drive(i, n) pushes n packets through slot i's enclave
// and counts them farm-side. Enclave packet counters survive
// clear_all() (resyncs and restarts), so a collector whose last poll
// of every live slot succeeded must report exactly driven_total()
// packets — the invariant the fleet soak asserts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "controlplane/fault.h"
#include "controlplane/session.h"
#include "telemetry/collector.h"

namespace eden::controlplane {

struct FarmConfig {
  std::size_t agents = 16;
  std::uint64_t seed = 1;
  bool chaos = false;   // wrap pipes in FaultyTransport
  FaultProfile fault;   // profile used when chaos is on (seed is mixed
                        // per slot and per dial)
  SessionConfig session;  // overridden to ms-scale virtual timeouts in
                          // the ctor unless already customized
  std::uint64_t step_ns = 1'000'000;  // virtual time per step()
};

class AgentFarm {
 public:
  explicit AgentFarm(FarmConfig config);
  ~AgentFarm();
  AgentFarm(const AgentFarm&) = delete;
  AgentFarm& operator=(const AgentFarm&) = delete;

  std::size_t size() const { return slots_.size(); }

  // Installs a minimal mark-action + table + catch-all rule on every
  // slot through the session journal, so restarts and resyncs rebuild
  // it. Call converge() afterwards to let the installs land.
  void install_program();

  // Advances slot i's virtual clock, ticks its session and runs its
  // pump. step_all() does every live slot once.
  void step(std::size_t i);
  void step_all();
  // Steps everything until every non-killed session is ready with an
  // empty pipeline; false if max_rounds elapse first.
  bool converge(std::size_t max_rounds = 20000);

  // Ground-truth packet injection (farm-side counter + enclave stats).
  void drive(std::size_t i, std::size_t packets);
  std::uint64_t driven(std::size_t i) const;
  std::uint64_t driven_total() const;

  // Fault controls — only between collector polls.
  void set_chaos(std::size_t i, bool chaos);
  // Kill: the connector stops answering, the running connection drops.
  // The slot's enclave (and its counters) stay put; revive() lets the
  // session dial again.
  void kill(std::size_t i);
  void revive(std::size_t i);
  bool killed(std::size_t i) const;
  // Agent restart: fresh EnclaveAgent (new boot id, new telemetry
  // delta encoder), so the next delta poll is a full resync under a fresh
  // epoch and the session records agent_restarts_seen.
  void restart(std::size_t i);

  // Host-series values the slot's agent reports on telemetry polls
  // (pool exhaustion, ring depth, ... in the real stack).
  void set_host_series_value(std::size_t i, const std::string& name,
                             double value);

  // One CollectorSource per slot; fetch_delta drives the slot's pump
  // until the reply lands or the pipe drains (never blocks).
  std::vector<telemetry::CollectorSource> sources();

  core::Enclave& enclave(std::size_t i);
  EnclaveSession& session(std::size_t i);

 private:
  struct Slot;
  Slot& slot(std::size_t i);
  const Slot& slot(std::size_t i) const;
  void attach_agent(Slot& s);

  FarmConfig config_;
  std::unique_ptr<core::ClassRegistry> registry_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace eden::controlplane
