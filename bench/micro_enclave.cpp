// Microbenchmarks of the enclave data path: full process() cost under
// each concurrency mode, match-table scaling, message-state behaviour
// and the enclave's own five-tuple classification.
#include <benchmark/benchmark.h>

#include "core/enclave.h"
#include "functions/misc.h"
#include "functions/scheduling.h"
#include "telemetry/span.h"

namespace {

using namespace eden;

netsim::Packet make_test_packet(core::ClassId cls) {
  netsim::Packet p;
  p.src = 1;
  p.dst = 2;
  p.src_port = 10000;
  p.dst_port = 8000;
  p.protocol = netsim::Protocol::tcp;
  p.size_bytes = 1514;
  p.payload_bytes = 1460;
  p.meta.msg_id = 77;
  p.meta.flow_size = 64 * 1024;
  p.classes.add(cls);
  return p;
}

void setup_thresholds(core::Enclave& enclave, core::ActionId action) {
  const std::int64_t limits[] = {10240, 1048576};
  const std::int64_t prios[] = {7, 5};
  functions::push_priority_thresholds(enclave, action, limits, prios);
}

// Full data-path cost per concurrency mode. SFF writes only packet
// state (parallel); PIAS writes message state (per_message); the
// counter writes global state (serialized).
template <typename Fn>
void bench_mode(benchmark::State& state) {
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry);
  const core::ClassId cls = registry.intern("app.rs.cls");
  Fn fn;
  const core::ActionId action = fn.install(enclave, false);
  if constexpr (std::is_same_v<Fn, functions::SffFunction> ||
                std::is_same_v<Fn, functions::PiasFunction>) {
    setup_thresholds(enclave, action);
  }
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);
  netsim::Packet packet = make_test_packet(cls);
  for (auto _ : state) {
    enclave.process(packet);
    benchmark::DoNotOptimize(packet.priority);
  }
}

void BM_Process_Parallel_Sff(benchmark::State& state) {
  bench_mode<functions::SffFunction>(state);
}
BENCHMARK(BM_Process_Parallel_Sff);

void BM_Process_PerMessage_Pias(benchmark::State& state) {
  bench_mode<functions::PiasFunction>(state);
}
BENCHMARK(BM_Process_PerMessage_Pias);

void BM_Process_Serialized_Counter(benchmark::State& state) {
  bench_mode<functions::CounterFunction>(state);
}
BENCHMARK(BM_Process_Serialized_Counter);

// Rule-scan scaling: the matching rule sits behind N-1 non-matching
// ones in the same table.
void BM_Process_TableScan(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::SffFunction sff;
  const core::ActionId action = sff.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  for (int i = 0; i + 1 < rules; ++i) {
    enclave.add_rule(table,
                     core::ClassPattern("other.rs.c" + std::to_string(i)),
                     action);
  }
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);
  netsim::Packet packet = make_test_packet(cls);
  for (auto _ : state) {
    enclave.process(packet);
    benchmark::DoNotOptimize(packet.priority);
  }
}
BENCHMARK(BM_Process_TableScan)->Arg(1)->Arg(8)->Arg(64);

// Message-state locality: same message every packet (cache hit) vs a
// new message per packet (entry creation + eventual eviction).
void BM_MessageState_Hit(benchmark::State& state) {
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::PiasFunction pias;
  const core::ActionId action = pias.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);
  netsim::Packet packet = make_test_packet(cls);
  for (auto _ : state) {
    enclave.process(packet);
  }
}
BENCHMARK(BM_MessageState_Hit);

void BM_MessageState_Miss(benchmark::State& state) {
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::PiasFunction pias;
  const core::ActionId action = pias.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);
  netsim::Packet packet = make_test_packet(cls);
  std::int64_t next_msg = 1;
  for (auto _ : state) {
    packet.meta.msg_id = next_msg++;
    enclave.process(packet);
  }
}
BENCHMARK(BM_MessageState_Miss);

// Batched execution (Section 6): amortizes message lookup, locking and
// the state copy across the batch. Items processed = packets.
void BM_ProcessBatch(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::PiasFunction pias;
  const core::ActionId action = pias.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);

  std::vector<netsim::PacketPtr> batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.push_back(netsim::make_packet());
    *batch.back() = make_test_packet(cls);
  }
  for (auto _ : state) {
    enclave.process_batch(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_ProcessBatch)->Arg(1)->Arg(8)->Arg(32);

// The enclave's own stage: five-tuple classification of unmarked
// traffic (Table 2, last row).
void BM_FlowClassification(benchmark::State& state) {
  core::ClassRegistry registry;
  core::Enclave enclave("bench", registry);
  const core::ClassId cls = registry.intern("enclave.flows.tcp");
  core::FlowClassifierRule rule;
  rule.proto = static_cast<std::int64_t>(netsim::Protocol::tcp);
  rule.class_id = cls;
  enclave.add_flow_rule(rule);
  functions::SffFunction sff;
  const core::ActionId action = sff.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("enclave.flows.*"), action);
  for (auto _ : state) {
    netsim::Packet packet = make_test_packet(cls);
    packet.classes.clear();
    packet.meta.msg_id = 0;
    enclave.process(packet);
    benchmark::DoNotOptimize(packet.priority);
  }
}
BENCHMARK(BM_FlowClassification);

// Telemetry cost ladder over the same SFF data path. The argument is
// the histogram sampling rate, or -1 for telemetry off: 0 = per-class
// counters only, N > 0 = counters + latency/steps histograms timing one
// in N executions. Adjacent rungs isolate what each instrument adds per
// packet.
void BM_Process_Telemetry(benchmark::State& state) {
  core::ClassRegistry registry;
  core::EnclaveConfig config;
  const std::int64_t rate = state.range(0);
  config.telemetry.enabled = rate >= 0;
  config.telemetry.histogram_sample_every =
      rate > 0 ? static_cast<std::uint32_t>(rate) : 0;
  core::Enclave enclave("bench", registry, config);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::SffFunction sff;
  const core::ActionId action = sff.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);
  netsim::Packet packet = make_test_packet(cls);
  for (auto _ : state) {
    enclave.process(packet);
    benchmark::DoNotOptimize(packet.priority);
  }
}
BENCHMARK(BM_Process_Telemetry)->Arg(-1)->Arg(0)->Arg(1024)->Arg(64)->Arg(1);

// Lifecycle span tracing cost on the same SFF data path. The argument
// is the sampling rate: 0 = tracing off (the single untraced-packet
// branch), 128 = production 1-in-128 sampling, 1 = every packet traced
// (worst case: one ring write per hop). The packet's trace id is
// cleared every iteration so sampling actually runs instead of reusing
// the first stamp.
void BM_Process_SpanTracing(benchmark::State& state) {
  const auto sample_every = static_cast<std::uint32_t>(state.range(0));
  core::ClassRegistry registry;
  core::EnclaveConfig config;
  config.telemetry.span_sample_every = sample_every;
  telemetry::SpanCollector::instance().reset();
  if (sample_every == 0) telemetry::SpanCollector::instance().disable();
  core::Enclave enclave("bench", registry, config);
  const core::ClassId cls = registry.intern("app.rs.cls");
  functions::SffFunction sff;
  const core::ActionId action = sff.install(enclave, false);
  setup_thresholds(enclave, action);
  const core::TableId table = enclave.create_table("t");
  enclave.add_rule(table, core::ClassPattern("app.rs.cls"), action);
  netsim::Packet packet = make_test_packet(cls);
  for (auto _ : state) {
    packet.meta.trace_id = 0;
    enclave.process(packet);
    benchmark::DoNotOptimize(packet.priority);
  }
}
BENCHMARK(BM_Process_SpanTracing)->Arg(0)->Arg(128)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
