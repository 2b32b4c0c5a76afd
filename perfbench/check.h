// Output check: the measured path and a single-threaded reference fold
// every packet's outputs into per-(phase, shard, chunk) digests, which
// must agree.
//
// A chunk digest is the sum of per-packet hashes, and each hash covers
// the packet's position in its shard's FIFO, so the digests check
// ordering while letting the reference split its work by message across
// threads and add the partial sums.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/packet.h"
#include "workload.h"

namespace perfbench {

inline constexpr std::uint64_t kChunkPackets = 4096;

struct PhaseDigest {
  explicit PhaseDigest(std::size_t shard_count = 1)
      : pos(shard_count, 0), chunks(shard_count) {}

  std::size_t shards() const { return pos.size(); }
  void add(std::size_t shard, std::uint64_t position, std::uint64_t h) {
    auto& c = chunks[shard];
    const std::size_t k = position / kChunkPackets;
    if (k >= c.size()) c.resize(k + 1, 0);
    c[k] += h;
  }
  // The measured path folds in completion order, which must be the
  // shard's submission order.
  void fold(OutputRule& rule, std::size_t shard, const netsim::Packet& p) {
    const std::uint64_t position = pos[shard]++;
    add(shard, position, rule.hash(p, position));
  }

  std::vector<std::uint64_t> pos;  // packets per shard
  std::vector<std::vector<std::uint64_t>> chunks;
};

// The phases of a run; the inline, sharded and open phases take turns.
enum Phase : std::size_t { kPrefill, kInline, kSharded, kOpen, kPhases };
inline constexpr std::size_t kShardedWorkers = 2;

inline std::size_t phase_shards(std::size_t phase) {
  return phase == kSharded || phase == kOpen ? kShardedWorkers : 1;
}

// A run of consecutive stream packets that one phase consumed. Phases
// take turns in slices, so a run is a sequence of segments.
struct Segment {
  std::size_t phase;
  std::uint64_t packets;
};

struct CheckResult {
  std::uint64_t packets = 0;
  std::uint64_t failed = 0;  // packets in chunks whose digests differ
};

// Replays the stream through fresh hosts programmed directly, each
// running Enclave::process on one thread over the messages it owns, and
// compares against `measured`.
CheckResult check_against_reference(
    const WorkloadSpec& w, std::uint64_t seed,
    const std::vector<Segment>& segments,
    const std::vector<PhaseDigest>& measured, std::size_t threads);

}  // namespace perfbench
