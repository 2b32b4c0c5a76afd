#include "check.h"

#include <algorithm>
#include <thread>

#include "hoststack/dataplane.h"
#include "host.h"

namespace perfbench {

namespace {

std::vector<PhaseDigest> empty_digests() {
  std::vector<PhaseDigest> d;
  for (std::size_t p = 0; p < kPhases; ++p) d.emplace_back(phase_shards(p));
  return d;
}

void reference_part(const WorkloadSpec& w, std::uint64_t seed,
                    const std::vector<Segment>& segments,
                    std::size_t part, std::size_t parts,
                    std::vector<PhaseDigest>& out) {
  Host host(w, seed, /*telemetry=*/false);
  program_enclave(*host.enclave, w, Variant::bytecode);
  OutputRule rule(w, host.registry);
  InputStream stream(w, seed, host.stage);
  out = empty_digests();
  for (const Segment& seg : segments) {
    PhaseDigest& d = out[seg.phase];
    for (std::uint64_t i = 0; i < seg.packets; ++i) {
      netsim::Packet p;
      stream.next(p);
      host.clock.store(static_cast<std::int64_t>(stream.produced()),
                       std::memory_order_relaxed);
      const std::size_t shard =
          d.shards() == 1
              ? 0
              : hoststack::DataPlane::shard_of(
                    core::Enclave::steering_key(p), d.shards());
      const std::uint64_t position = d.pos[shard]++;
      if (mix64(static_cast<std::uint64_t>(p.meta.msg_id)) % parts != part) {
        continue;
      }
      if (!host.enclave->process(p)) p.drop_mark = true;
      d.add(shard, position, rule.hash(p, position));
    }
  }
}

}  // namespace

CheckResult check_against_reference(
    const WorkloadSpec& w, std::uint64_t seed,
    const std::vector<Segment>& segments,
    const std::vector<PhaseDigest>& measured, std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  std::vector<std::vector<PhaseDigest>> parts(threads);
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        reference_part(w, seed, segments, t, threads, parts[t]);
      });
    }
    for (auto& th : pool) th.join();
  }

  CheckResult r;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    const PhaseDigest& got = measured[phase];
    for (std::size_t s = 0; s < got.shards(); ++s) {
      const std::uint64_t want_pos = parts[0][phase].pos[s];
      r.packets += want_pos;
      const std::size_t chunks =
          static_cast<std::size_t>((want_pos + kChunkPackets - 1) / kChunkPackets);
      for (std::size_t k = 0; k < chunks; ++k) {
        std::uint64_t want = 0;
        for (const auto& part : parts) {
          const auto& c = part[phase].chunks[s];
          if (k < c.size()) want += c[k];
        }
        const std::uint64_t have =
            k < got.chunks[s].size() ? got.chunks[s][k] : 0;
        if (have != want) {
          r.failed += std::min(kChunkPackets, want_pos - k * kChunkPackets);
        }
      }
      // Packets the measured path completed beyond (or short of) the
      // reference count are failures too.
      if (got.pos[s] > want_pos) r.failed += got.pos[s] - want_pos;
    }
  }
  return r;
}

}  // namespace perfbench
