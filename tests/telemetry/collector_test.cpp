// The fleet telemetry collector (telemetry/collector.h), its parallel
// aggregation tree (merge_aggregates over pooled chunks) and the health
// watchdog (telemetry/health.h). Histogram-merge behaviour is pinned
// here too: merging snapshots must preserve count/sum and yield the
// same quantiles as one histogram fed the union stream.
#include "telemetry/collector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/delta.h"
#include "telemetry/health.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace eden::telemetry {
namespace {

// --- Histogram merge pins ----------------------------------------------

std::vector<std::uint64_t> sample_stream(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out.push_back(x % 1'000'000);
  }
  return out;
}

TEST(HistogramMergeTest, MergePreservesCountSumAndUnionQuantiles) {
  Histogram a, b, both;
  for (const std::uint64_t v : sample_stream(1, 4000)) {
    a.record(v);
    both.record(v);
  }
  for (const std::uint64_t v : sample_stream(2, 2500)) {
    b.record(v);
    both.record(v);
  }
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot union_stream = both.snapshot();

  EXPECT_EQ(merged.count, 6500u);
  EXPECT_EQ(merged.count, union_stream.count);
  EXPECT_EQ(merged.sum, union_stream.sum);
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
    EXPECT_EQ(merged.counts[k], union_stream.counts[k]) << "bucket " << k;
  }
  // Same bucket contents => identical quantile estimates, bit for bit.
  EXPECT_EQ(merged.p50(), union_stream.p50());
  EXPECT_EQ(merged.p95(), union_stream.p95());
  EXPECT_EQ(merged.p99(), union_stream.p99());
}

EnclaveTelemetry snapshot_for(const std::string& name, std::uint64_t seed,
                              std::size_t samples) {
  EnclaveTelemetry e;
  e.enclave = name;
  e.packets = seed * 10;
  e.matched = seed * 7;
  e.dropped_by_action = seed;

  ActionTelemetry a;
  a.name = "pias";
  a.executions = samples;
  a.has_histograms = true;
  Histogram h;
  for (const std::uint64_t v : sample_stream(seed, samples)) h.record(v);
  a.latency_ns = h.snapshot();
  a.steps_hist = h.snapshot();
  e.actions.push_back(a);

  // A second action present only on even seeds, so merges exercise the
  // name-union path.
  if (seed % 2 == 0) {
    ActionTelemetry d;
    d.name = "dropper";
    d.executions = seed;
    e.actions.push_back(d);
  }

  ClassTelemetry c;
  c.name = "enclave.flows.web";
  c.matched = seed * 3;
  e.classes.push_back(c);
  e.host_series.emplace_back("dataplane_ring_depth",
                             static_cast<double>(seed % 128));
  return e;
}

// One agent over a hand-held counter state, answering polls through the
// agent-side DeltaEncoder. An agent restart is a fresh encoder.
struct FakeAgent {
  EnclaveTelemetry state;
  DeltaEncoder encoder;
  bool dead = false;     // replies nothing
  bool garbled = false;  // replies with a payload that does not parse

  explicit FakeAgent(std::string name) { state.enclave = std::move(name); }

  std::string poll(std::uint64_t epoch, std::uint64_t seq) {
    if (dead) return {};
    if (garbled) return "{]not json";
    return encoder.encode(state, epoch, seq);
  }

  CollectorSource source() {
    CollectorSource s;
    s.name = state.enclave;
    s.fetch_delta = [this](std::uint64_t e, std::uint64_t q) {
      return poll(e, q);
    };
    return s;
  }
};

TEST(AggregateTreeTest, AggregatePreservesHistogramTotalsAcrossEnclaves) {
  const AggregateTelemetry agg = aggregate(
      {snapshot_for("h0", 3, 1000), snapshot_for("h1", 5, 2000)});
  Histogram both;
  for (const std::uint64_t v : sample_stream(3, 1000)) both.record(v);
  for (const std::uint64_t v : sample_stream(5, 2000)) both.record(v);
  const HistogramSnapshot expect = both.snapshot();
  ASSERT_GE(agg.actions.size(), 1u);
  const ActionTelemetry& pias = agg.actions[agg.actions[0].name == "pias"
                                                ? 0
                                                : 1];
  EXPECT_EQ(pias.latency_ns.count, expect.count);
  EXPECT_EQ(pias.latency_ns.sum, expect.sum);
  EXPECT_EQ(pias.latency_ns.p50(), expect.p50());
  EXPECT_EQ(pias.latency_ns.p95(), expect.p95());
  EXPECT_EQ(pias.latency_ns.p99(), expect.p99());
}

TEST(AggregateTreeTest, MergeAggregatesMatchesSerialAggregate) {
  std::vector<EnclaveTelemetry> all;
  for (std::uint64_t i = 1; i <= 9; ++i) {
    all.push_back(snapshot_for("h" + std::to_string(i), i, 100 * i));
  }
  const std::string serial = to_json(aggregate(all));

  std::vector<EnclaveTelemetry> lo(all.begin(), all.begin() + 4);
  std::vector<EnclaveTelemetry> hi(all.begin() + 4, all.end());
  const AggregateTelemetry merged =
      merge_aggregates(aggregate(std::move(lo)), aggregate(std::move(hi)));
  EXPECT_EQ(to_json(merged), serial);
}

TEST(AggregateTreeTest, TreeMatchesSerialForAnyThreadCount) {
  std::vector<EnclaveTelemetry> all;
  for (std::uint64_t i = 1; i <= 13; ++i) {
    all.push_back(snapshot_for("h" + std::to_string(i), i, 50 * i));
  }
  const std::string serial = to_json(aggregate(all));
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u, 16u}) {
    // One agent per snapshot; the pool splits them into contiguous
    // chunks and folds the chunk aggregates pairwise.
    std::vector<std::unique_ptr<FakeAgent>> agents;
    CollectorConfig config;
    config.threads = threads;
    TelemetryCollector collector(config, [] { return std::uint64_t{0}; });
    for (const EnclaveTelemetry& e : all) {
      agents.push_back(std::make_unique<FakeAgent>(e.enclave));
      agents.back()->state = e;
      collector.add_source(agents.back()->source());
    }
    EXPECT_EQ(to_json(collector.poll()), serial) << "threads=" << threads;
  }
}

// --- Collector ---------------------------------------------------------

TEST(CollectorTest, DeltaPollingTracksGroundTruth) {
  FakeAgent a0("a0"), a1("a1");
  a0.state = snapshot_for("a0", 2, 500);
  a1.state = snapshot_for("a1", 3, 700);

  std::uint64_t now = 0;
  CollectorConfig config;
  config.threads = 2;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(a0.source());
  collector.add_source(a1.source());

  now = 1'000'000'000;
  const AggregateTelemetry& first = collector.poll();
  EXPECT_EQ(first.packets, a0.state.packets + a1.state.packets);
  EXPECT_EQ(collector.status(0).full_resyncs, 1u);
  EXPECT_EQ(collector.status(0).deltas_applied, 0u);
  const std::uint64_t full_bytes = collector.status(0).last_payload_bytes;

  a0.state.packets += 17;
  a1.state.packets += 5;
  now = 2'000'000'000;
  const AggregateTelemetry& second = collector.poll();
  EXPECT_EQ(second.packets, a0.state.packets + a1.state.packets);
  EXPECT_EQ(collector.status(0).full_resyncs, 1u);
  EXPECT_EQ(collector.status(0).deltas_applied, 1u);
  // Steady-state deltas are a fraction of the full snapshot.
  EXPECT_LT(collector.status(0).last_payload_bytes, full_bytes / 2);

  // Nothing changed: the delta is header-only and totals hold.
  now = 3'000'000'000;
  const AggregateTelemetry& third = collector.poll();
  EXPECT_EQ(third.packets, second.packets);
  EXPECT_EQ(collector.status(0).deltas_applied, 2u);

  // Series read-back and rates over the retention ring.
  const auto latest = collector.latest_value(0, "packets");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, static_cast<double>(a0.state.packets));
  const auto rate = collector.rate_per_sec(0, "packets");
  ASSERT_TRUE(rate.has_value());
  EXPECT_DOUBLE_EQ(*rate, 17.0 / 2.0);  // 17 packets over 2 s of ring
  const auto ring_depth =
      collector.latest_value(0, "dataplane_ring_depth");
  ASSERT_TRUE(ring_depth.has_value());
  EXPECT_EQ(*ring_depth, 2.0);
}

TEST(CollectorTest, AgentRestartForcesFullResync) {
  FakeAgent agent("a0");
  agent.state = snapshot_for("a0", 2, 100);

  std::uint64_t now = 0;
  CollectorConfig config;
  config.threads = 1;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(agent.source());

  collector.poll();
  agent.state.packets += 3;
  now += 1'000'000'000;
  collector.poll();
  EXPECT_EQ(collector.status(0).deltas_applied, 1u);

  // Restart: fresh encoder, counters reset under the collector.
  agent.encoder = DeltaEncoder{};
  agent.state = snapshot_for("a0", 1, 50);
  now += 1'000'000'000;
  collector.poll();
  EXPECT_EQ(collector.status(0).full_resyncs, 2u);
  EXPECT_EQ(collector.latest().packets, agent.state.packets);
}

TEST(CollectorTest, UnreachableSourceGoesStaleButKeepsLastSnapshot) {
  // A dead agent replies nothing and a confused one replies garbage;
  // neither takes down the fleet view.
  FakeAgent agent("a0"), confused("a1");
  agent.state = snapshot_for("a0", 4, 100);
  confused.state = snapshot_for("a1", 5, 100);

  std::uint64_t now = 1'000'000'000;
  CollectorConfig config;
  config.threads = 1;
  config.stale_after_ns = 3'000'000'000;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(agent.source());
  collector.add_source(confused.source());

  const std::uint64_t before = collector.poll().packets;
  EXPECT_EQ(before, agent.state.packets + confused.state.packets);
  EXPECT_TRUE(collector.status(0).reachable);
  EXPECT_FALSE(collector.status(0).stale);

  agent.dead = true;
  confused.garbled = true;
  now += 2'000'000'000;
  collector.poll();
  EXPECT_FALSE(collector.status(0).reachable);
  EXPECT_FALSE(collector.status(0).stale);  // within the window
  EXPECT_EQ(collector.status(1).rejected_payloads, 1u);
  EXPECT_EQ(collector.status(1).consecutive_failures, 1u);
  EXPECT_EQ(collector.latest().packets, before);

  now += 2'000'000'000;
  collector.poll();
  EXPECT_TRUE(collector.status(0).stale);
  EXPECT_EQ(collector.status(0).consecutive_failures, 2u);
  EXPECT_EQ(collector.status(1).rejected_payloads, 2u);
  EXPECT_EQ(collector.status(1).consecutive_failures, 2u);
  EXPECT_EQ(collector.latest().packets, before);  // last known views

  const auto stale_series = collector.latest_value(0, "collector.stale");
  ASSERT_TRUE(stale_series.has_value());
  EXPECT_EQ(*stale_series, 1.0);

  std::string prom;
  collector.append_prometheus(prom);
  EXPECT_NE(prom.find("eden_collector_agent_stale{agent=\"a0\"} 1"),
            std::string::npos);
}

// --- Health watchdog ---------------------------------------------------

TEST(HealthWatchdogTest, ThresholdTransitionsAndEventLog) {
  FakeAgent agent("a0");
  agent.state = snapshot_for("a0", 2, 10);
  agent.state.host_series[0].second = 10.0;

  std::uint64_t now = 1'000'000'000;
  CollectorConfig config;
  config.threads = 1;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(agent.source());

  std::vector<HealthRule> rules(2);
  rules[0].name = "ring-depth";
  rules[0].series = "dataplane_ring_depth";
  rules[0].op = HealthRule::Op::gt;
  rules[0].threshold = 100;
  rules[0].severity = HealthState::degraded;
  rules[1].name = "ring-depth-critical";
  rules[1].series = "dataplane_ring_depth";
  rules[1].op = HealthRule::Op::gt;
  rules[1].threshold = 500;
  rules[1].severity = HealthState::critical;
  HealthWatchdog watchdog(rules);

  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_EQ(watchdog.fleet_state(), HealthState::ok);
  EXPECT_TRUE(watchdog.events().empty());

  agent.state.host_series[0].second = 600.0;
  now += 1'000'000'000;
  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_EQ(watchdog.fleet_state(), HealthState::critical);
  ASSERT_EQ(watchdog.agents().size(), 1u);
  EXPECT_EQ(watchdog.agents()[0].state, HealthState::critical);
  // Both rules tripped, worst first.
  ASSERT_EQ(watchdog.agents()[0].tripped.size(), 2u);
  EXPECT_NE(watchdog.agents()[0].tripped[0].find("ring-depth-critical"),
            std::string::npos);
  // Agent transition + fleet transition.
  ASSERT_EQ(watchdog.events().size(), 2u);
  EXPECT_EQ(watchdog.events()[0].to, HealthState::critical);
  EXPECT_EQ(watchdog.events()[0].rule, "ring-depth-critical");

  agent.state.host_series[0].second = 5.0;
  now += 1'000'000'000;
  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_EQ(watchdog.fleet_state(), HealthState::ok);
  EXPECT_EQ(watchdog.events().size(), 4u);

  const std::string events = watchdog.events_json();
  EXPECT_NE(events.find("\"rule\":\"ring-depth-critical\""),
            std::string::npos);
  EXPECT_NE(events.find("\"scope\":\"fleet\""), std::string::npos);

  std::string prom;
  watchdog.append_prometheus(prom);
  EXPECT_NE(prom.find("eden_health_fleet 0"), std::string::npos);
  EXPECT_NE(prom.find("eden_health_agent{agent=\"a0\"} 0"),
            std::string::npos);
}

// The JSON event log is capped: a flapping rule cannot grow it without
// bound, the drop counter owns the difference, and the Prometheus
// events_total row keeps counting transitions monotonically (it is NOT
// the retained-log size).
TEST(HealthWatchdogTest, EventLogIsCappedAndCountsDrops) {
  FakeAgent agent("a0");
  agent.state = snapshot_for("a0", 2, 10);
  agent.state.host_series[0].second = 10.0;

  std::uint64_t now = 1'000'000'000;
  CollectorConfig config;
  config.threads = 1;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(agent.source());

  std::vector<HealthRule> rules(1);
  rules[0].name = "ring-depth";
  rules[0].series = "dataplane_ring_depth";
  rules[0].op = HealthRule::Op::gt;
  rules[0].threshold = 100;
  rules[0].severity = HealthState::degraded;
  HealthWatchdog watchdog(rules);

  // Flap the rule: every flip is an agent + a fleet transition.
  for (int i = 0; i < 2500; ++i) {
    agent.state.host_series[0].second = (i % 2 == 0) ? 600.0 : 5.0;
    now += 1'000'000'000;
    collector.poll();
    watchdog.evaluate(now, collector);
  }

  EXPECT_EQ(watchdog.events_total(), 5000u);
  EXPECT_GT(watchdog.events_dropped(), 0u);
  EXPECT_EQ(watchdog.events().size() + watchdog.events_dropped(),
            watchdog.events_total());

  std::string prom;
  watchdog.append_prometheus(prom);
  EXPECT_NE(prom.find("eden_health_events_total 5000"), std::string::npos);
  EXPECT_NE(prom.find("eden_health_events_dropped_total " +
                      std::to_string(watchdog.events_dropped())),
            std::string::npos);
}

TEST(HealthWatchdogTest, RateRulesAndFleetScopeUseSummedSeries) {
  FakeAgent a0("a0"), a1("a1");
  a0.state.enclave = "a0";
  a1.state.enclave = "a1";

  std::uint64_t now = 1'000'000'000;
  CollectorConfig config;
  config.threads = 1;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(a0.source());
  collector.add_source(a1.source());

  std::vector<HealthRule> rules(1);
  rules[0].name = "fleet-drops";
  rules[0].series = "dropped_by_action:rate";
  rules[0].op = HealthRule::Op::gt;
  rules[0].threshold = 100;  // per second, fleet-wide
  rules[0].severity = HealthState::degraded;
  rules[0].fleet = true;
  HealthWatchdog watchdog(rules);

  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_EQ(watchdog.fleet_state(), HealthState::ok);

  // 80/s per agent: no single agent crosses 100/s, the fleet sum does.
  a0.state.dropped_by_action += 80;
  a1.state.dropped_by_action += 80;
  now += 1'000'000'000;
  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_EQ(watchdog.fleet_state(), HealthState::degraded);
  for (const auto& agent : watchdog.agents()) {
    EXPECT_EQ(agent.state, HealthState::ok);
  }
  ASSERT_FALSE(watchdog.events().empty());
  EXPECT_EQ(watchdog.events().back().agent, "");
  EXPECT_EQ(watchdog.events().back().rule, "fleet-drops");
}

TEST(HealthWatchdogTest, StalenessRuleFiresViaDefaultRules) {
  FakeAgent agent("a0");
  agent.state = snapshot_for("a0", 1, 10);

  std::uint64_t now = 1'000'000'000;
  CollectorConfig config;
  config.threads = 1;
  config.stale_after_ns = 2'000'000'000;
  TelemetryCollector collector(config, [&]() { return now; });
  collector.add_source(agent.source());
  HealthWatchdog watchdog;  // default rule set

  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_EQ(watchdog.fleet_state(), HealthState::ok);

  agent.dead = true;
  now += 3'000'000'000;
  collector.poll();
  watchdog.evaluate(now, collector);
  EXPECT_GE(watchdog.fleet_state(), HealthState::degraded);
  ASSERT_EQ(watchdog.agents().size(), 1u);
  EXPECT_GE(watchdog.agents()[0].state, HealthState::degraded);
}

}  // namespace
}  // namespace eden::telemetry
