// Workload definitions and the seeded input stream of the egress
// benchmark.
//
// A workload fixes which action functions sit behind the enclave's class
// rules, how many messages are live at once, how long a message is, and
// how messages are scheduled onto packets. The stream is a pure function
// of (workload, seed): the measured path and the single-threaded
// reference both build one and see the same packets, with the same
// stage-assigned message ids, in the same order.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/memcached_stage.h"
#include "core/enclave.h"
#include "functions/registry.h"
#include "netsim/packet.h"

namespace perfbench {

using namespace eden;

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct WorkloadSpec {
  std::string name;
  // Action functions (functions/registry.h names). Stage class i is
  // served by functions[i % functions.size()].
  std::vector<std::string> functions;
  std::size_t classes = 0;
  std::size_t live = 0;  // concurrently live messages
  std::uint32_t min_len = 1, max_len = 1;  // packets per message
  // Round-robin visits every live message once per `live` packets, so
  // the gap between two packets of one message is exactly `live`;
  // otherwise each packet picks a live message uniformly at random.
  bool round_robin = false;
  // Message-state idle expiry, in packets: the enclave clock is the
  // packet sequence number, so expiry depends on the inputs alone. It is
  // set well above the largest gap between two packets of a live
  // message, so only finished messages ever expire and outputs never
  // depend on when expiry runs. 0 = no expiry (no message state).
  std::int64_t idle_timeout = 0;
  // Production telemetry on, and an EnclaveSession committing rule
  // re-points and threshold rewrites while packets flow.
  bool managed = false;
  // The open phase's fixed offered rate, about a quarter of the sharded
  // rate at seed 1 on a shared 4-core Xeon box: at half of it, queueing
  // amplified host slowdowns into run-to-run latency spreads above 0.25.
  double offered_pps = 0;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// One controller-installed global field value.
struct GlobalValue {
  std::string field;
  bool is_array = false;
  std::int64_t scalar = 0;
  std::vector<std::int64_t> data;
};

// Global state of `fn`. `variant` selects between two SFF threshold
// tables that differ in every limit but give the same priority for every
// flow size the stream draws, so a rewrite between them is a real
// control-plane write whose outputs stay checkable.
std::vector<GlobalValue> globals_for(const std::string& fn, int variant = 0);

const functions::NetworkFunction& function_named(const std::string& name);

// The stage rule for class i of a workload.
std::string class_key(std::size_t i);
std::string class_name(std::size_t i);     // rule-set local name
std::string class_pattern(std::size_t i);  // enclave ClassPattern

// Installs the workload's classification rules into a memcached stage.
void install_stage_rules(const WorkloadSpec& w, core::Stage& stage);

// Output digest rule: actions that draw on rand() (WCMP, message WCMP,
// VIP load balancing) are checked against their valid path set instead
// of the exact label, and every packet of a message-WCMP message must
// take the path its first packet took.
class OutputRule {
 public:
  OutputRule(const WorkloadSpec& w, core::ClassRegistry& registry);
  // Stable per-packet hash of the packet's identity, its position in its
  // shard's FIFO, and every enclave-written output. The packets of one
  // message must be hashed in stream order.
  std::uint64_t hash(const netsim::Packet& p, std::uint64_t shard_pos);
  // Packets hashed with a path outside their valid set. The reference
  // hashes them alike, so they fail on their own, not as a mismatch.
  std::uint64_t invalid() const { return invalid_; }

 private:
  enum class PathKind : std::uint8_t { exact, wcmp, message_wcmp, vip };
  std::int64_t path_token(const netsim::Packet& p);
  std::vector<PathKind> by_class_;  // indexed by ClassId
  // Message-WCMP: the path of each message's first packet.
  std::unordered_map<std::int64_t, std::int32_t> message_path_;
  std::uint64_t invalid_ = 0;
};

// The seeded packet stream. next() fills one packet; when the packet
// starts a new message it first classifies the message through the
// stage, exactly once per message, and times the call.
class InputStream {
 public:
  InputStream(const WorkloadSpec& w, std::uint64_t seed, core::Stage& stage);

  void next(netsim::Packet& p);
  std::uint64_t produced() const { return seq_; }
  std::uint64_t classify_calls() const { return next_ordinal_; }
  std::int64_t classify_ns() const { return classify_ns_; }

 private:
  struct Slot {
    std::int64_t msg_id = 0;
    std::int64_t trace_id = 0;
    std::uint32_t ordinal = 0;
    std::uint32_t class_id = 0;
    std::uint16_t remaining = 0;
    std::uint16_t sent = 0;
  };
  struct Props {
    std::size_t cls;
    std::uint32_t len;
    netsim::PacketMeta meta;
    std::uint32_t src, dst;
    std::uint16_t src_port;
    std::uint64_t port_seed;
  };
  Props props(std::uint32_t ordinal) const;
  void start_message(Slot& s);

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  core::Stage& stage_;
  std::vector<core::MessageAttrs> get_attrs_, put_attrs_;
  std::vector<Slot> slots_;
  std::uint64_t seq_ = 0;
  std::uint32_t next_ordinal_ = 0;
  std::uint64_t rng_;
  std::uint64_t rr_offset_ = 0;
  std::int64_t classify_ns_ = 0;
};

}  // namespace perfbench
