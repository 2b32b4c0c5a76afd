// One host's egress path as the benchmark drives it: a memcached stage,
// an enclave, and, for the measured host, the EnclaveSession that
// programs the enclave over an in-memory PipePump.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/memcached_stage.h"
#include "controlplane/session.h"
#include "controlplane/transport.h"
#include "core/enclave.h"
#include "workload.h"

namespace perfbench {

// How an enclave runs the workload's action functions: as installed
// bytecode, as native twins, or as native twins that never materialize
// message state (the Fig 12-style rungs of the ledger).
enum class Variant : std::uint8_t { bytecode, native, nostate };

// The enclave clock: the packet sequence number, so idle expiry is a
// function of the inputs.
std::int64_t read_clock(void* ctx);

core::EnclaveConfig enclave_config(const WorkloadSpec& w, std::uint64_t seed,
                                   bool telemetry);

// Action names of a workload, one per function (two SFF twins, a and b,
// for managed_churn so a txn can re-point rules between them).
std::vector<std::string> action_names(const WorkloadSpec& w);
const std::string& function_of_action(const WorkloadSpec& w,
                                      const std::string& action);
// The action class i's rule points at after setup.
std::string initial_action(const WorkloadSpec& w, std::size_t cls);

// Counts the bytes the controller side sends.
class CountingTransport final : public controlplane::Transport {
 public:
  CountingTransport(std::unique_ptr<Transport> inner, std::uint64_t* sent);
  CountingTransport(const CountingTransport&) = delete;
  CountingTransport& operator=(const CountingTransport&) = delete;

  bool send(std::span<const std::uint8_t> data) override;
  void close() override { inner_->close(); }
  bool connected() const override { return inner_->connected(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::uint64_t* sent_;
};

struct Host {
  Host(const WorkloadSpec& w, std::uint64_t seed, bool telemetry);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // Programs stage and enclave through an EnclaveSession; false if the
  // session did not converge.
  bool program_via_session();

  const WorkloadSpec& w;
  std::atomic<std::int64_t> clock{0};
  core::ClassRegistry registry;
  apps::MemcachedStage stage{registry};
  std::unique_ptr<core::Enclave> enclave;

  controlplane::PipePump pump;
  std::unique_ptr<controlplane::EnclaveAgent> agent;
  std::unique_ptr<controlplane::EnclaveSession> session;
  std::uint64_t cp_bytes = 0;
  std::vector<controlplane::EnclaveSession::RuleHandle> rules;
};

// Installs the workload into `enclave` as `variant`. With `only_fn` set,
// installs that function alone, behind the rules of its classes.
void program_enclave(core::Enclave& enclave, const WorkloadSpec& w,
                     Variant variant,
                     const std::string& only_fn = "");

}  // namespace perfbench
