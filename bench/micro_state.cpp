// micro_state: the million-flow state engine churn benchmark. Runs the
// FlowStore through a sustained create/hit/erase churn at 10k and 1M
// live entries, with the pre-FlowStore store (shared_mutex +
// unordered_map<int64, shared_ptr<Entry>> + creation-order deque,
// replicated below) driven through the same loop, and writes
// BENCH_state.json (override with --json=PATH).
//
// Acceptance bars:
//   - sustained churn holds >= 1,000,000 live entries,
//   - end-to-end action latency p99 (enclave.process_batch running the
//     PIAS message-state action) at 1M live <= 1.5x the 10k p99,
//   - mid-churn hit-path lookup >= 3x faster than the baseline store
//     at the large population: the median over hit batches of the
//     baseline's time over the FlowStore's, timed back to back,
//   - every lookup through the FlowStore's probe path returns its own
//     key's entry, and finds every resident key.
//
// --smoke shrinks the populations (1M -> 100k) and skips the timing
// bars for CI smoke lanes; the probe check fails every lane.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/enclave.h"
#include "src/functions/scheduling.h"
#include "src/state/epoch.h"
#include "src/state/flow_store.h"

namespace {

using eden::state::EpochDomain;
using eden::state::FlowStore;
using eden::state::FlowStoreConfig;

bool g_smoke = false;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void stamp_key(void* ctx, std::int64_t* payload) {
  std::fill_n(payload, FlowStore::kPayloadWords,
              *static_cast<const std::int64_t*>(ctx));
}

// The pre-FlowStore message store, replicated verbatim in shape: one
// shared_mutex over an unordered_map of shared_ptr entries plus a
// creation-order deque for capacity eviction. Every hit takes the
// shared lock, hashes, chases the node pointer and copies the
// shared_ptr (two atomic refcount ops) — the per-packet cost the
// FlowStore exists to delete.
struct BaselineStore {
  struct Entry {
    eden::lang::StateBlock block;
    std::mutex lock;
  };

  std::shared_mutex mutex;
  std::unordered_map<std::int64_t, std::shared_ptr<Entry>> map;
  std::deque<std::int64_t> creation_order;

  std::shared_ptr<Entry> acquire(std::int64_t key) {
    {
      std::shared_lock<std::shared_mutex> lock(mutex);
      auto it = map.find(key);
      if (it != map.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex);
    auto [it, inserted] = map.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Entry>();
      it->second->block.scalars.assign(4, key);
      creation_order.push_back(key);
    }
    return it->second;
  }

  bool erase(std::int64_t key) {
    std::unique_lock<std::shared_mutex> lock(mutex);
    return map.erase(key) != 0;
  }
};

FlowStoreConfig churn_config() {
  FlowStoreConfig config;
  config.shards = 8;
  config.initial_capacity = 4096;
  config.idle_timeout_ns = 60'000'000'000;  // wheel armed, nothing expires
  config.wheel_tick_ns = 1'000'000;
  return config;
}

// --- google-benchmark hit-path microbenches ----------------------------

void BM_FlowStoreAcquireHit(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  FlowStore store(churn_config());
  {
    EpochDomain::Guard guard(store.domain());
    for (std::int64_t k = 0; k < n; ++k) {
      store.acquire(guard, k, k + 1, &stamp_key, &k);
    }
  }
  std::mt19937_64 rng(42);
  std::int64_t now = n;
  for (auto _ : state) {
    // One pin per 64 packets, the enclave's process_batch discipline.
    EpochDomain::Guard guard(store.domain());
    for (int i = 0; i < 64; ++i) {
      std::int64_t key = static_cast<std::int64_t>(rng() % n);
      benchmark::DoNotOptimize(
          store.acquire(guard, key, ++now, &stamp_key, &key));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FlowStoreAcquireHit)->Arg(10'000)->Arg(100'000);

void BM_BaselineAcquireHit(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  BaselineStore store;
  for (std::int64_t k = 0; k < n; ++k) store.acquire(k);
  std::mt19937_64 rng(42);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      const std::int64_t key = static_cast<std::int64_t>(rng() % n);
      benchmark::DoNotOptimize(store.acquire(key));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BaselineAcquireHit)->Arg(10'000)->Arg(100'000);

// --- Acceptance sweep ---------------------------------------------------

struct ChurnRow {
  std::size_t live_target = 0;
  std::size_t sustained_live = 0;
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  // Read-only hit batches sampled mid-churn: the per-lookup cost of
  // the store's hit path at this live population, caches churning.
  double lookup_ns = 0;
  // The baseline store, driven through the same loop.
  double baseline_ops_per_sec = 0;
  double baseline_p99_ns = 0;
  double baseline_lookup_ns = 0;
  // Per hit batch, baseline time over FlowStore time, the two timed
  // back to back: quartiles over `hit_batches` batches.
  double ratio_p25 = 0;
  double ratio_median = 0;
  double ratio_p75 = 0;
  std::size_t hit_batches = 0;
  // Probe-path lookups that returned another key's entry or missed (or
  // re-created) a resident key. Must be 0.
  std::size_t probe_errors = 0;
};

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double idx = p * static_cast<double>(samples.size() - 1);
  return samples[static_cast<std::size_t>(idx)];
}

// Churn at a fixed live population: 90% hits on the resident keyspace,
// 10% create-new + erase-oldest pairs that keep the population level
// while forcing slab recycling, tombstone traffic and wheel scheduling.
// Per-op latency is sampled in 64-op batches. The FlowStore batch runs
// the enclave's process_batch discipline: keys are known up front (they
// come off packet headers), so one probe per key is begun for the whole
// batch, then scanned, then consumed by the acquire, overlapping the
// table and entry cache misses of the batch before any lookup executes.
//
// The pre-FlowStore store runs in the same loop on the same keys in the
// same order, and each batch times the two stores back to back,
// alternating which goes first, so the hit-path ratio compares them
// under the same machine state instead of dividing two runs' timings.
ChurnRow run_churn(std::size_t live_target) {
  ChurnRow row;
  row.live_target = live_target;
  FlowStore store(churn_config());
  BaselineStore baseline;

  std::int64_t clock = 1;
  {
    EpochDomain::Guard guard(store.domain());
    for (std::size_t k = 0; k < live_target; ++k) {
      std::int64_t key = static_cast<std::int64_t>(k);
      store.acquire(guard, key, ++clock, &stamp_key, &key);
      baseline.acquire(key);
    }
  }

  const std::size_t total_ops =
      std::max<std::size_t>(2 * live_target, 2'000'000);
  constexpr std::size_t kBatch = 64;
  std::vector<double> samples;
  std::vector<double> baseline_samples;
  samples.reserve(total_ops / kBatch + 1);
  baseline_samples.reserve(total_ops / kBatch + 1);
  std::mt19937_64 rng(7);
  std::int64_t next_key = static_cast<std::int64_t>(live_target);
  std::int64_t oldest_key = 0;
  std::size_t min_live = store.live();

  std::int64_t keys[kBatch];
  std::int64_t erase_keys[kBatch];
  bool is_churn_pair[kBatch];
  std::size_t pairs = 0;
  FlowStore::Probe probes[kBatch];
  FlowStore::Probe erase_probes[kBatch];
  FlowStore::Entry* found[kBatch];
  bool created[kBatch];
  std::vector<double> lookup_samples;
  std::vector<double> baseline_lookup_samples;
  std::vector<double> ratios;

  const auto flow_churn = [&] {
    const double t0 = now_ns();
    // Pin once per 64-op batch, the enclave's process_batch discipline;
    // dropping the pin between batches lets retired slabs recycle.
    EpochDomain::Guard guard(store.domain());
    for (std::size_t i = 0; i < kBatch; ++i) {
      probes[i] = store.begin(guard, keys[i]);
    }
    // erase() probes its key under the shard lock; these probes only
    // warm its lines alongside the batch's.
    for (std::size_t i = 0; i < pairs; ++i) {
      erase_probes[i] = store.begin(guard, erase_keys[i]);
    }
    for (std::size_t i = 0; i < kBatch; ++i) store.scan(probes[i]);
    for (std::size_t i = 0; i < pairs; ++i) store.scan(erase_probes[i]);
    std::size_t pair = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      ++clock;
      // Churn pair: retire the oldest resident, admit a fresh key.
      if (is_churn_pair[i]) store.erase(erase_keys[pair++]);
      found[i] = store.acquire(guard, probes[i], clock, &stamp_key, &keys[i],
                               &created[i]);
    }
    return now_ns() - t0;
  };
  const auto baseline_churn = [&] {
    const double t0 = now_ns();
    std::size_t pair = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (is_churn_pair[i]) baseline.erase(erase_keys[pair++]);
      benchmark::DoNotOptimize(baseline.acquire(keys[i]));
    }
    return now_ns() - t0;
  };
  // Read-only hit batches: the FlowStore's peek path (no shard lock, no
  // refcounts, no touch stamp) against the baseline's, where every
  // lookup takes the shared lock, walks the bucket, chases the node and
  // round-trips the shared_ptr refcount: nothing to prefetch, the
  // addresses are unknowable until the probe resolves them.
  const auto flow_hits = [&] {
    const double t0 = now_ns();
    EpochDomain::Guard guard(store.domain());
    for (std::size_t i = 0; i < kBatch; ++i) {
      probes[i] = store.begin(guard, keys[i]);
    }
    for (std::size_t i = 0; i < kBatch; ++i) store.scan(probes[i]);
    for (std::size_t i = 0; i < kBatch; ++i) {
      found[i] = store.find(guard, probes[i]);
    }
    return now_ns() - t0;
  };
  const auto baseline_hits = [&] {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(baseline.acquire(keys[i]));
    }
    return now_ns() - t0;
  };
  // Runs both timings back to back, the FlowStore's first when asked.
  const auto paired = [](bool flow_first, auto& flow, auto& base,
                         double& flow_ns, double& base_ns) {
    if (flow_first) {
      flow_ns = flow();
      base_ns = base();
    } else {
      base_ns = base();
      flow_ns = flow();
    }
  };
  // Every probe-path result must be the key's own entry, and an
  // acquire creates exactly the keys `may_create` flags (the fresh
  // halves of churn pairs).
  const auto check = [&](const bool* may_create) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (found[i] == nullptr || found[i]->key != keys[i] ||
          (may_create != nullptr && created[i] != may_create[i])) {
        ++row.probe_errors;
      }
    }
  };
  const auto resident_keys = [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto span = static_cast<std::uint64_t>(next_key - oldest_key);
      keys[i] = oldest_key + static_cast<std::int64_t>(rng() % span);
    }
  };

  double store_ns = 0;
  double baseline_ns = 0;
  for (std::size_t done = 0; done < total_ops; done += kBatch) {
    const std::size_t batch_index = done / kBatch;
    // Key selection models packet arrival: the ids are in hand before
    // the batch body runs, exactly as in DataPlane::worker_main. In
    // execution order every non-pair key is resident when acquired.
    pairs = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      is_churn_pair[i] = rng() % 10 == 0;
      if (is_churn_pair[i]) {
        keys[i] = next_key++;
        erase_keys[pairs++] = oldest_key++;
      } else {
        const auto span = static_cast<std::uint64_t>(next_key - oldest_key);
        keys[i] = oldest_key + static_cast<std::int64_t>(rng() % span);
      }
    }
    double flow_batch_ns = 0;
    double base_batch_ns = 0;
    paired(batch_index % 2 == 0, flow_churn, baseline_churn, flow_batch_ns,
           base_batch_ns);
    check(is_churn_pair);
    store_ns += flow_batch_ns;
    baseline_ns += base_batch_ns;
    samples.push_back(flow_batch_ns / static_cast<double>(kBatch));
    baseline_samples.push_back(base_batch_ns / static_cast<double>(kBatch));
    if (batch_index % 128 == 0) {
      resident_keys();
      double flow_hit_ns = 0;
      double base_hit_ns = 0;
      paired((batch_index / 128) % 2 == 0, flow_hits, baseline_hits,
             flow_hit_ns, base_hit_ns);
      check(nullptr);
      lookup_samples.push_back(flow_hit_ns / static_cast<double>(kBatch));
      baseline_lookup_samples.push_back(base_hit_ns /
                                        static_cast<double>(kBatch));
      if (flow_hit_ns > 0) ratios.push_back(base_hit_ns / flow_hit_ns);
    }
    if (batch_index % 1024 == 0) {
      store.advance(clock);  // keep the wheel cursor honest
      min_live = std::min(min_live, store.live());
    }
  }

  row.sustained_live = std::min(min_live, store.live());
  row.ops_per_sec = static_cast<double>(total_ops) / (store_ns * 1e-9);
  row.p50_ns = percentile(samples, 0.50);
  row.p99_ns = percentile(samples, 0.99);
  row.lookup_ns = percentile(lookup_samples, 0.50);
  row.baseline_ops_per_sec =
      static_cast<double>(total_ops) / (baseline_ns * 1e-9);
  row.baseline_p99_ns = percentile(baseline_samples, 0.99);
  row.baseline_lookup_ns = percentile(baseline_lookup_samples, 0.50);
  row.hit_batches = ratios.size();
  row.ratio_p25 = percentile(ratios, 0.25);
  row.ratio_median = percentile(ratios, 0.50);
  row.ratio_p75 = percentile(ratios, 0.75);
  return row;
}

struct ActionRow {
  std::size_t live_target = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

// The flat-tail gate measures what the ISSUE names: p99 ACTION latency
// with N live message entries, end to end through the enclave's
// batched data path (classify, match, group by message, PIAS action
// writing message state). The message-store cost is one component of
// the action latency, and the gate asserts it stays one — the p99 at
// 1M live entries must not leave the 10k p99's regime.
ActionRow run_action_latency(std::size_t live_target) {
  using namespace eden;
  ActionRow row;
  row.live_target = live_target;

  core::EnclaveConfig config;
  config.max_messages_per_action = 0;  // population is the variable
  config.message_store_shards = 8;
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry, config);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::PiasFunction pias;
  const core::ActionId action = pias.install(enclave, false);
  const std::int64_t limits[] = {10240, 1048576};
  const std::int64_t prios[] = {7, 5};
  functions::push_priority_thresholds(enclave, action, limits, prios);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);

  constexpr std::size_t kBatch = 64;
  std::vector<netsim::PacketPtr> packets;
  for (std::size_t i = 0; i < kBatch; ++i) {
    auto p = std::make_shared<netsim::Packet>();
    p->src = 1;
    p->dst = 2;
    p->src_port = 10000;
    p->dst_port = 8000;
    p->protocol = netsim::Protocol::tcp;
    p->size_bytes = 1514;
    p->payload_bytes = 1460;
    p->meta.flow_size = 64 * 1024;
    p->classes.add(cls);
    packets.push_back(std::move(p));
  }
  std::span<netsim::PacketPtr> batch(packets);

  // Preload the live population.
  for (std::size_t base = 0; base < live_target; base += kBatch) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      packets[i]->meta.msg_id = static_cast<std::int64_t>(base + i + 1);
      packets[i]->drop_mark = false;
    }
    enclave.process_batch(batch);
  }

  const std::size_t total_ops = 2'000'000;
  std::vector<double> samples;
  samples.reserve(total_ops / kBatch + 1);
  std::mt19937_64 rng(21);
  for (std::size_t done = 0; done < total_ops; done += kBatch) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      packets[i]->meta.msg_id =
          static_cast<std::int64_t>(rng() % live_target + 1);
      packets[i]->drop_mark = false;
    }
    const double t0 = now_ns();
    enclave.process_batch(batch);
    samples.push_back((now_ns() - t0) / static_cast<double>(kBatch));
  }
  row.p50_ns = percentile(samples, 0.50);
  row.p99_ns = percentile(samples, 0.99);
  return row;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The machine a BENCH_state.json was taken on, as a JSON object.
std::string machine_fingerprint() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + cpu_model() + "\", \"compiler\": \"" +
         compiler + "\", \"asserts\": " + (asserts ? "true" : "false") + "}";
}

int run_acceptance_sweep(const std::string& json_path) {
  const std::size_t big = g_smoke ? 100'000 : 1'000'000;
  std::vector<ChurnRow> rows;
  for (const std::size_t live : {std::size_t{10'000}, big}) {
    rows.push_back(run_churn(live));
    const ChurnRow& r = rows.back();
    std::printf(
        "churn live=%-8zu sustained=%-8zu  %.2fM ops/s  p50=%.0fns  "
        "p99=%.0fns\n",
        r.live_target, r.sustained_live, r.ops_per_sec / 1e6, r.p50_ns,
        r.p99_ns);
  }
  // The head-to-head gate: the mid-churn hit-path lookup at the large
  // population against the pre-FlowStore store in the same loop, the
  // per-packet cost the engine exists to delete.
  const ChurnRow& big_row = rows.back();
  const double flow_ns = 1e9 / big_row.ops_per_sec;
  const double baseline_ns = 1e9 / big_row.baseline_ops_per_sec;
  const double speedup = big_row.ratio_median;
  std::printf(
      "churn @%zu: flow=%.1fns/op baseline=%.1fns/op  "
      "lookup flow=%.1fns baseline=%.1fns  speedup=%.2fx [%.2f, %.2f] "
      "over %zu paired hit batches\n",
      big, flow_ns, baseline_ns, big_row.lookup_ns,
      big_row.baseline_lookup_ns, speedup, big_row.ratio_p25,
      big_row.ratio_p75, big_row.hit_batches);
  std::size_t probe_errors = 0;
  for (const ChurnRow& r : rows) probe_errors += r.probe_errors;

  // Flat-tail gate: end-to-end action latency through the enclave at
  // both populations.
  std::vector<ActionRow> action_rows;
  for (const std::size_t live : {std::size_t{10'000}, big}) {
    action_rows.push_back(run_action_latency(live));
    const ActionRow& a = action_rows.back();
    std::printf("action live=%-8zu p50=%.0fns  p99=%.0fns\n", a.live_target,
                a.p50_ns, a.p99_ns);
  }
  const double p99_ratio = action_rows[0].p99_ns > 0
                               ? action_rows.back().p99_ns /
                                     action_rows[0].p99_ns
                               : 0;

  std::string json =
      "{\n  \"note\": \"Churn profile: 90% hit acquires over the resident "
      "keyspace, 10% erase-oldest+create-new pairs, wheel advanced every "
      "64k ops; per-op latency sampled in 64-op batches. The baseline "
      "store is the pre-FlowStore design (shared_mutex + unordered_map of "
      "shared_ptr entries + creation-order deque) replicated in-bench and "
      "driven through the same loop on the same keys; every 128th batch "
      "times a 64-lookup hit batch on both stores back to back, alternating "
      "which goes first, and the speedup is the median of those per-batch "
      "ratios (quartiles beside it).\",\n";
  json += "  \"smoke\": " + std::string(g_smoke ? "true" : "false") + ",\n";
  json += "  \"machine\": " + machine_fingerprint() + ",\n";
  json += "  \"probe_errors\": " + std::to_string(probe_errors) + ",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ChurnRow& r = rows[i];
    json += "    {\"live_target\": " + std::to_string(r.live_target) +
            ", \"sustained_live\": " + std::to_string(r.sustained_live) +
            ", \"ops_per_sec\": " + std::to_string(r.ops_per_sec) +
            ", \"p50_ns\": " + std::to_string(r.p50_ns) +
            ", \"p99_ns\": " + std::to_string(r.p99_ns) +
            ", \"lookup_ns\": " + std::to_string(r.lookup_ns) + "}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"action_latency\": [\n";
  for (std::size_t i = 0; i < action_rows.size(); ++i) {
    const ActionRow& a = action_rows[i];
    json += "    {\"live_target\": " + std::to_string(a.live_target) +
            ", \"p50_ns\": " + std::to_string(a.p50_ns) +
            ", \"p99_ns\": " + std::to_string(a.p99_ns) + "}";
    json += i + 1 < action_rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"hit_path\": {\"flow_churn_ns_per_op\": " +
          std::to_string(flow_ns) +
          ", \"baseline_churn_ns_per_op\": " + std::to_string(baseline_ns) +
          ", \"flow_lookup_ns\": " + std::to_string(big_row.lookup_ns) +
          ", \"baseline_lookup_ns\": " +
          std::to_string(big_row.baseline_lookup_ns) +
          ", \"baseline_p99_ns\": " + std::to_string(big_row.baseline_p99_ns) +
          ", \"speedup\": " + std::to_string(speedup) +
          ", \"speedup_p25\": " + std::to_string(big_row.ratio_p25) +
          ", \"speedup_p75\": " + std::to_string(big_row.ratio_p75) +
          ", \"paired_hit_batches\": " + std::to_string(big_row.hit_batches) +
          "},\n";
  json += "  \"headline\": {\n";
  json += "    \"sustained_live\": " +
          std::to_string(rows.back().sustained_live) + ",\n";
  json += "    \"p99_ratio_big_vs_10k\": " + std::to_string(p99_ratio) +
          ",\n";
  json += "    \"hit_path_speedup\": " + std::to_string(speedup) +
          "\n  }\n}\n";

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  // A wrong probe-path answer fails every lane; smoke lanes skip only
  // the timing bars.
  if (probe_errors != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu probe-path lookups returned another key's entry "
                 "or missed a resident key\n",
                 probe_errors);
    return 1;
  }
  if (g_smoke) return 0;

  int rc = 0;
  if (rows.back().sustained_live < 1'000'000) {
    std::fprintf(stderr, "FAIL: sustained live %zu < 1,000,000\n",
                 rows.back().sustained_live);
    rc = 1;
  }
  if (p99_ratio > 1.5) {
    std::fprintf(
        stderr,
        "FAIL: action p99 at 1M live is %.2fx the 10k p99 (> 1.5x)\n",
        p99_ratio);
    rc = 1;
  }
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: churn hit path %.2fx the baseline store (median of "
                 "paired batches, < 3x)\n",
                 speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_state.json";
  // Strip our own flags before handing argv to google-benchmark.
  for (int i = 1; i < argc;) {
    const std::string arg = argv[i];
    bool consumed = true;
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      g_smoke = true;
    } else {
      consumed = false;
    }
    if (consumed) {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_acceptance_sweep(json_path);
}
