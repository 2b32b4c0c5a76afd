// The controller programming a remote enclave over the wire protocol.
//
// In production the controller and enclaves live on different machines;
// this example separates them by the actual wire encoding: every API
// call is serialized into a command frame, carried by the control-plane
// session (controlplane::EnclaveSession) across a byte pipe, and applied
// by the enclave-side agent — including shipping the compiled
// action-function bytecode. Stats come back over the same session.
// Exits non-zero unless the remote enclave ends in the programmed state.
//
// Build & run:  ./build/examples/remote_controller
#include <cstdio>
#include <memory>
#include <vector>

#include "controlplane/session.h"
#include "functions/scheduling.h"
#include "telemetry/delta.h"

int main() {
  using namespace eden;
  namespace cp = controlplane;

  // The "remote host": an enclave plus the agent that applies command
  // frames to it.
  core::ClassRegistry registry;
  core::Enclave enclave("remote-host.enclave", registry);
  cp::EnclaveAgent agent(enclave);

  // The "controller side": a session dialing the agent over an
  // in-memory pipe, in virtual time.
  cp::PipePump pump;
  std::uint64_t now_ns = 0;
  cp::EnclaveSession session(
      "remote-host",
      [&]() -> std::unique_ptr<cp::Transport> {
        auto [near, far] = cp::make_pipe(pump);
        agent.attach(std::move(far));
        return std::move(near);
      },
      [&]() { return now_ns; });
  auto idle = [&]() {
    return session.ready() && session.inflight() == 0 && pump.pending() == 0;
  };
  auto settle = [&]() {
    for (int ms = 0; ms < 1000 && !idle(); ++ms) {
      now_ns += 1'000'000;
      session.tick();
      pump.run();
    }
  };
  settle();
  std::printf("session to %s: %s\n", session.name().c_str(),
              session.ready() ? "ready" : "NOT ready");

  // Compile PIAS locally, then program the remote enclave entirely
  // through command frames.
  const functions::PiasFunction pias;
  const lang::CompiledProgram program = pias.compile();
  std::printf("compiled '%s': %zu instructions, %zu bytes of bytecode\n",
              pias.name(), program.code.size(), program.serialize().size());
  session.install_action("pias", program, pias.global_fields());
  session.set_global_array("pias", "priorities",
                           {10 * 1024, 7, 1024 * 1024, 5});
  session.create_table("sched");
  session.add_rule("sched", "*", "pias");
  settle();
  std::printf("programmed: %llu requests, %llu ok\n",
              static_cast<unsigned long long>(session.stats().requests_sent),
              static_cast<unsigned long long>(session.stats().responses_ok));

  // Data path on the remote host: a message growing through the bands.
  std::printf("\nremote enclave now enforcing PIAS (4KB chunks):\n");
  netsim::Packet packet;
  packet.size_bytes = 4 * 1024;
  packet.meta.msg_id = 1;
  std::vector<int> bands;
  for (int chunk = 1; chunk <= 300; ++chunk) {
    enclave.process(packet);
    if (bands.empty() || packet.priority != bands.back()) {
      std::printf("  after %4d KB -> priority %d\n", chunk * 4,
                  packet.priority);
      bands.push_back(packet.priority);
    }
  }

  // Stats read-back over the same session: a delta poll echoing (0, 0)
  // always earns a full snapshot.
  telemetry::DeltaDecoder stats;
  stats.apply_json(session.fetch_telemetry_delta_json(pump, 0, 0));
  const std::uint64_t packets =
      stats.snapshots().empty() ? 0 : stats.snapshots()[0].packets;
  std::printf("\nread back over the wire: %llu packets processed\n",
              static_cast<unsigned long long>(packets));

  // Errors travel back too: the agent rejects the write and the session
  // counts the error response.
  session.set_global_scalar("pias", "bogus_field", 1);
  settle();
  std::printf("bad request over the wire -> %llu error response(s)\n",
              static_cast<unsigned long long>(session.stats().responses_error));

  const auto table = enclave.find_table_id("sched");
  const bool programmed =
      enclave.find_action("pias").has_value() && table.has_value() &&
      enclave.rule_count(*table) == 1 && bands == std::vector<int>{7, 5, 0} &&
      packets == 300;
  std::printf("\nremote enclave %s the programmed state\n",
              programmed ? "is in" : "is NOT in");
  return programmed ? 0 : 1;
}
