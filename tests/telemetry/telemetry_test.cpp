// Telemetry primitives: sharded counters, log2 histograms, the metrics
// registry's exposition format, and cross-enclave snapshot aggregation.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace eden::telemetry {
namespace {

TEST(CounterTest, SingleThreadedIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, SumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, BucketOfEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  // Values past the last bucket's range are clamped into it.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST(HistogramTest, RecordAndSnapshot) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 11u);
  EXPECT_EQ(snap.counts[0], 1u);  // the value 0
  EXPECT_EQ(snap.counts[1], 1u);  // the value 1
  EXPECT_EQ(snap.counts[3], 2u);  // 5 lands in [4, 7]
  EXPECT_DOUBLE_EQ(snap.mean(), 11.0 / 4.0);
}

TEST(HistogramTest, QuantilesWithinBucketBounds) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(100);  // bucket [64, 127]
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_GE(snap.p50(), 64.0);
  EXPECT_LE(snap.p99(), 127.0 + 1.0);
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);  // empty histogram
}

TEST(HistogramTest, SnapshotMergeAddsBucketwise) {
  Histogram a, b;
  a.record(1);
  a.record(100);
  b.record(100);
  HistogramSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 3u);
  EXPECT_EQ(sa.sum, 201u);
  EXPECT_EQ(sa.counts[1], 1u);
  EXPECT_EQ(sa.counts[Histogram::bucket_of(100)], 2u);
}

TEST(SamplingTest, OneInNOverAnyAlignedWindow) {
  // Period-4 pattern: any window whose length is a multiple of 4 holds
  // exactly length/4 true decisions, whatever the starting phase.
  int hits = 0;
  for (int i = 0; i < 400; ++i) {
    if (sample_1_in(4)) ++hits;
  }
  EXPECT_EQ(hits, 100);
}

TEST(SamplingTest, ZeroDisables) {
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(sample_1_in(0));
}

TEST(RegistryTest, InstrumentsAreStableAddressed) {
  MetricsRegistry reg;
  Counter& a = reg.counter("c", {{"k", "v"}});
  Counter& b = reg.counter("c", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.counter("c", {{"k", "w"}});
  EXPECT_NE(&a, &other);
}

TEST(RegistryTest, TextExposition) {
  MetricsRegistry reg;
  reg.counter("eden_packets", {{"enclave", "host0"}}).inc(3);
  reg.gauge("eden_queue_depth").set(12);
  reg.histogram("eden_latency_ns").record(100);
  const std::string text = reg.text_exposition();
  EXPECT_NE(text.find("# TYPE eden_packets counter"), std::string::npos);
  EXPECT_NE(text.find("eden_packets{enclave=\"host0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eden_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("eden_queue_depth 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eden_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("eden_latency_ns_bucket{le=\"127\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("eden_latency_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("eden_latency_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("eden_latency_ns_sum 100"), std::string::npos);
}

TEST(RegistryTest, LabelValuesAreEscaped) {
  EXPECT_EQ(render_labels({{"k", "a\"b\\c\nd"}}),
            "{k=\"a\\\"b\\\\c\\nd\"}");
  EXPECT_EQ(render_labels({}), "");
}

EnclaveTelemetry make_enclave_snapshot(const std::string& name,
                                       std::uint64_t executions) {
  EnclaveTelemetry t;
  t.enclave = name;
  t.telemetry_enabled = true;
  t.packets = executions;
  t.matched = executions;
  ActionTelemetry a;
  a.name = "pias";
  a.executions = executions;
  a.has_histograms = true;
  a.latency_ns.counts[5] = executions;
  a.latency_ns.count = executions;
  a.latency_ns.sum = 20 * executions;
  t.actions.push_back(a);
  ClassTelemetry c;
  c.name = "enclave.flows.web";
  c.matched = executions;
  c.dropped = 1;
  t.classes.push_back(c);
  return t;
}

TEST(AggregateTest, MergesByActionAndClassName) {
  const AggregateTelemetry agg = aggregate(
      {make_enclave_snapshot("host0", 10), make_enclave_snapshot("host1", 5)});
  EXPECT_EQ(agg.enclaves.size(), 2u);
  EXPECT_EQ(agg.packets, 15u);
  EXPECT_EQ(agg.matched, 15u);
  ASSERT_EQ(agg.actions.size(), 1u);
  EXPECT_EQ(agg.actions[0].name, "pias");
  EXPECT_EQ(agg.actions[0].executions, 15u);
  EXPECT_EQ(agg.actions[0].latency_ns.count, 15u);
  EXPECT_EQ(agg.actions[0].latency_ns.counts[5], 15u);
  ASSERT_EQ(agg.classes.size(), 1u);
  EXPECT_EQ(agg.classes[0].matched, 15u);
  EXPECT_EQ(agg.classes[0].dropped, 2u);
}

// An aggregate with every section a dump can hold: message state with a
// probe histogram, a bytecode action with errors, histograms and a
// profile, its native twin, a host series and one session with both
// histograms.
AggregateTelemetry full_aggregate() {
  EnclaveTelemetry e = make_enclave_snapshot("h", 4);
  e.dropped_by_action = 1;
  e.message_entries_created = 21;
  e.message_entries_evicted = 3;
  e.message_entries_expired = 2;
  e.state.present = true;
  e.state.live = 16;
  e.state.created = 21;
  e.state.expired = 2;
  e.state.evicted = 3;
  e.state.resizes = 1;
  e.state.probe_len.counts[1] = 20;
  e.state.probe_len.counts[2] = 1;
  e.state.probe_len.count = 21;
  e.state.probe_len.sum = 22;

  ActionTelemetry& pias = e.actions[0];
  pias.errors = 3;
  pias.steps = 40;
  pias.errors_by_status[static_cast<std::size_t>(
      lang::ExecStatus::div_by_zero)] = 3;
  pias.steps_hist.counts[4] = 4;
  pias.steps_hist.count = 4;
  pias.steps_hist.sum = 40;
  pias.has_profile = true;
  pias.profile_runs = 4;
  pias.profile_instructions = 40;
  pias.hotspots.push_back({3, 25, 5, 62.5, 50.0, "add"});
  pias.hotspots.push_back({0, 15, 5, 37.5, 50.0, "load_state packet.0"});

  ActionTelemetry twin;
  twin.name = "pias_native";
  twin.native = true;
  twin.executions = 2;
  twin.has_histograms = true;
  twin.latency_ns.counts[3] = 2;
  twin.latency_ns.count = 2;
  twin.latency_ns.sum = 10;
  e.actions.push_back(twin);

  e.host_series.emplace_back("dataplane_ring_depth", 40.0);
  e.host_series.emplace_back("pool_exhausted_total", 3.0);

  AggregateTelemetry agg = aggregate({e});
  SessionTelemetry s;
  s.name = "s0";
  s.connected = true;
  s.ready = true;
  s.agent_boot_id = 77;
  s.connects = 2;
  s.teardowns = 1;
  s.resyncs = 1;
  s.last_resync_commands = 5;
  s.requests_sent = 12;
  s.responses_ok = 11;
  s.responses_error = 1;
  s.heartbeats_sent = 10;
  s.heartbeats_acked = 9;
  s.txns_committed = 2;
  s.txns_aborted = 1;
  s.agent_restarts_seen = 1;
  s.rtt_ns.counts[10] = 21;
  s.rtt_ns.count = 21;
  s.rtt_ns.sum = 21 * 700;
  s.resync_commands.counts[3] = 1;
  s.resync_commands.count = 1;
  s.resync_commands.sum = 5;
  agg.sessions.push_back(s);
  return agg;
}

TEST(AggregateTest, RendersJsonAndPrometheus) {
  const AggregateTelemetry agg = full_aggregate();
  const std::string json = to_json(agg);
  EXPECT_NE(json.find("\"name\":\"h\""), std::string::npos);
  EXPECT_NE(json.find("\"pias\""), std::string::npos);
  EXPECT_NE(json.find("enclave.flows.web"), std::string::npos);
  const std::string prom = to_prometheus(agg);
  EXPECT_NE(prom.find("eden_enclave_packets_total{enclave=\"h\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("eden_action_executions_total"), std::string::npos);
  EXPECT_NE(prom.find("eden_class_matched_total"), std::string::npos);
  EXPECT_NE(prom.find("\neden_state_live{enclave=\"h\"} 16\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\neden_session_heartbeats_acked_total{session=\"s0\"} "
                      "9\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\neden_action_errors_total{enclave=\"h\",action="
                      "\"pias\",status=\"div_by_zero\"} 3\n"),
            std::string::npos);
  // A native twin runs no bytecode, so it has no steps series.
  EXPECT_NE(prom.find("eden_action_steps_total{enclave=\"h\",action="
                      "\"pias\"}"),
            std::string::npos);
  EXPECT_EQ(prom.find("eden_action_steps_total{enclave=\"h\",action="
                      "\"pias_native\"}"),
            std::string::npos);

  // The reader is the writer's inverse: a re-read dump renders the same
  // bytes in both formats.
  const ParsedDump dump = parse_telemetry_json(json);
  AggregateTelemetry back = aggregate(dump.enclaves);
  back.sessions = dump.sessions;
  EXPECT_EQ(to_json(back), json);
  EXPECT_EQ(to_prometheus(back), prom);
}

}  // namespace
}  // namespace eden::telemetry
