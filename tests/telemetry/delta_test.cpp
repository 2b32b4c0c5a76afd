// The streaming delta telemetry protocol (telemetry/delta.h): snapshot
// diffing, delta application, payload encode/parse and the decoder's
// (epoch, seq) resync discipline.
#include "telemetry/delta.h"

#include <gtest/gtest.h>

#include "telemetry/json.h"

namespace eden::telemetry {
namespace {

EnclaveTelemetry base_snapshot() {
  EnclaveTelemetry e;
  e.enclave = "host0";
  e.telemetry_enabled = true;
  e.packets = 100;
  e.matched = 80;
  e.dropped_by_action = 5;

  ActionTelemetry a;
  a.name = "pias";
  a.executions = 80;
  a.errors = 2;
  a.steps = 800;
  a.errors_by_status[1] = 2;
  a.has_histograms = true;
  a.latency_ns.counts[4] = 80;
  a.latency_ns.count = 80;
  a.latency_ns.sum = 80 * 12;
  a.has_profile = true;
  a.profile_runs = 80;
  e.actions.push_back(a);

  ActionTelemetry idle;
  idle.name = "idle";
  e.actions.push_back(idle);

  ClassTelemetry c;
  c.name = "enclave.flows.web";
  c.matched = 80;
  c.dropped = 5;
  e.classes.push_back(c);

  e.host_series.emplace_back("dataplane_ring_depth", 40.0);
  e.host_series.emplace_back("pool_exhausted_total", 3.0);
  return e;
}

EnclaveTelemetry advanced_snapshot() {
  EnclaveTelemetry e = base_snapshot();
  e.packets += 20;
  e.matched += 15;
  e.actions[0].executions += 15;
  e.actions[0].steps += 150;
  e.actions[0].latency_ns.counts[4] += 15;
  e.actions[0].latency_ns.count += 15;
  e.actions[0].latency_ns.sum += 15 * 12;
  e.classes[0].matched += 15;
  e.host_series[0].second = 22.0;  // gauge moved down — still shipped
  return e;
}

TEST(DeltaTest, EmitsOnlyChangedSeries) {
  const EnclaveTelemetry prev = base_snapshot();
  const EnclaveTelemetry now = advanced_snapshot();
  const auto d = delta_between(prev, now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->packets, 20u);
  EXPECT_EQ(d->matched, 15u);
  EXPECT_EQ(d->dropped_by_action, 0u);
  // The unchanged "idle" action and unchanged host key are omitted.
  ASSERT_EQ(d->actions.size(), 1u);
  EXPECT_EQ(d->actions[0].name, "pias");
  EXPECT_EQ(d->actions[0].executions, 15u);
  EXPECT_EQ(d->actions[0].errors, 0u);
  // Deltas never carry profile detail.
  EXPECT_FALSE(d->actions[0].has_profile);
  ASSERT_EQ(d->classes.size(), 1u);
  EXPECT_EQ(d->classes[0].matched, 15u);
  ASSERT_EQ(d->host_series.size(), 1u);
  EXPECT_EQ(d->host_series[0].first, "dataplane_ring_depth");
  EXPECT_EQ(d->host_series[0].second, 22.0);  // absolute, not a diff
}

TEST(DeltaTest, NoChangeIsEmptyDelta) {
  const EnclaveTelemetry prev = base_snapshot();
  const auto d = delta_between(prev, prev);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(delta_is_empty(*d));
}

TEST(DeltaTest, ApplyReconstructsTheNewSnapshot) {
  EnclaveTelemetry state = base_snapshot();
  const EnclaveTelemetry now = advanced_snapshot();
  const auto d = delta_between(state, now);
  ASSERT_TRUE(d.has_value());
  apply_delta(state, *d);
  EXPECT_EQ(state.packets, now.packets);
  EXPECT_EQ(state.matched, now.matched);
  ASSERT_EQ(state.actions.size(), 2u);
  EXPECT_EQ(state.actions[0].executions, now.actions[0].executions);
  EXPECT_EQ(state.actions[0].steps, now.actions[0].steps);
  EXPECT_EQ(state.actions[0].latency_ns.count, now.actions[0].latency_ns.count);
  EXPECT_EQ(state.actions[0].latency_ns.sum, now.actions[0].latency_ns.sum);
  EXPECT_EQ(state.actions[0].latency_ns.counts[4],
            now.actions[0].latency_ns.counts[4]);
  // Profile state from the last full snapshot survives delta folding.
  EXPECT_TRUE(state.actions[0].has_profile);
  EXPECT_EQ(state.classes[0].matched, now.classes[0].matched);
  EXPECT_EQ(state.host_series[0].second, 22.0);
  EXPECT_EQ(state.host_series[1].second, 3.0);
}

TEST(DeltaTest, CounterRegressionVoidsTheDelta) {
  const EnclaveTelemetry prev = base_snapshot();
  EnclaveTelemetry now = prev;
  now.packets = prev.packets - 1;  // cleared/reinstalled underneath us
  EXPECT_FALSE(delta_between(prev, now).has_value());

  now = prev;
  now.actions[0].executions -= 1;
  EXPECT_FALSE(delta_between(prev, now).has_value());

  now = prev;
  now.actions[0].latency_ns.counts[4] -= 1;
  now.actions[0].latency_ns.count -= 1;
  EXPECT_FALSE(delta_between(prev, now).has_value());

  now = prev;
  now.classes[0].dropped -= 1;
  EXPECT_FALSE(delta_between(prev, now).has_value());
}

TEST(DeltaTest, NewActionShipsWholeMinusProfile) {
  const EnclaveTelemetry prev = base_snapshot();
  EnclaveTelemetry now = prev;
  ActionTelemetry fresh;
  fresh.name = "fresh";
  fresh.executions = 7;
  fresh.has_profile = true;
  fresh.profile_runs = 7;
  now.actions.push_back(fresh);
  const auto d = delta_between(prev, now);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->actions.size(), 1u);
  EXPECT_EQ(d->actions[0].name, "fresh");
  EXPECT_EQ(d->actions[0].executions, 7u);
  EXPECT_FALSE(d->actions[0].has_profile);
  EXPECT_EQ(d->actions[0].profile_runs, 0u);
}

TEST(DeltaTest, PayloadJsonRoundTrip) {
  DeltaPayload p;
  p.epoch = 42;
  p.seq = 7;
  p.full = false;
  const auto d = delta_between(base_snapshot(), advanced_snapshot());
  ASSERT_TRUE(d.has_value());
  p.enclaves.push_back(*d);

  const std::string json = encode_delta_payload(p);
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  const DeltaPayload back = parse_delta_payload(json);
  EXPECT_EQ(back.schema_version, kTelemetrySchemaVersion);
  EXPECT_EQ(back.epoch, 42u);
  EXPECT_EQ(back.seq, 7u);
  EXPECT_FALSE(back.full);
  ASSERT_EQ(back.enclaves.size(), 1u);
  EXPECT_EQ(back.enclaves[0].packets, 20u);
  ASSERT_EQ(back.enclaves[0].host_series.size(), 1u);
  EXPECT_EQ(back.enclaves[0].host_series[0].second, 22.0);
}

TEST(DeltaDecoderTest, FullThenDeltasThenReject) {
  DeltaDecoder dec;
  EXPECT_FALSE(dec.synced());

  DeltaPayload full;
  full.epoch = 9;
  full.seq = 1;
  full.full = true;
  full.enclaves.push_back(base_snapshot());
  EXPECT_TRUE(dec.apply(full));
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.epoch(), 9u);
  EXPECT_EQ(dec.seq(), 1u);
  EXPECT_EQ(dec.stats().full_resyncs, 1u);

  DeltaPayload step;
  step.epoch = 9;
  step.seq = 2;
  step.full = false;
  step.enclaves.push_back(*delta_between(base_snapshot(),
                                         advanced_snapshot()));
  EXPECT_TRUE(dec.apply(step));
  EXPECT_EQ(dec.seq(), 2u);
  EXPECT_EQ(dec.stats().deltas_applied, 1u);
  ASSERT_EQ(dec.snapshots().size(), 1u);
  EXPECT_EQ(dec.snapshots()[0].packets, 120u);

  // A replayed (duplicate) delta and a wrong-epoch delta are both
  // rejected without touching the materialized view.
  EXPECT_FALSE(dec.apply(step));
  DeltaPayload alien = step;
  alien.epoch = 10;
  alien.seq = 3;
  EXPECT_FALSE(dec.apply(alien));
  EXPECT_EQ(dec.stats().rejected, 2u);
  EXPECT_EQ(dec.snapshots()[0].packets, 120u);

  // A fresh full payload under a new epoch resyncs unconditionally.
  DeltaPayload resync;
  resync.epoch = 10;
  resync.seq = 1;
  resync.full = true;
  resync.enclaves.push_back(advanced_snapshot());
  EXPECT_TRUE(dec.apply(resync));
  EXPECT_EQ(dec.epoch(), 10u);
  EXPECT_EQ(dec.stats().full_resyncs, 2u);
}

TEST(DeltaDecoderTest, GarbageJsonCountsAsRejected) {
  DeltaDecoder dec;
  EXPECT_FALSE(dec.apply_json("{]truncated"));
  EXPECT_EQ(dec.stats().rejected, 1u);
  EXPECT_FALSE(dec.synced());
}

TEST(DeltaDecoderTest, UnseenEnclaveInDeltaIsAdoptedAsBaseline) {
  DeltaDecoder dec;
  DeltaPayload full;
  full.epoch = 1;
  full.seq = 1;
  full.enclaves.push_back(base_snapshot());
  ASSERT_TRUE(dec.apply(full));

  DeltaPayload step;
  step.epoch = 1;
  step.seq = 2;
  step.full = false;
  EnclaveTelemetry other;
  other.enclave = "host1";
  other.packets = 3;
  step.enclaves.push_back(other);
  ASSERT_TRUE(dec.apply(step));
  ASSERT_EQ(dec.snapshots().size(), 2u);
  EXPECT_EQ(dec.snapshots()[1].enclave, "host1");
  EXPECT_EQ(dec.snapshots()[1].packets, 3u);
}

}  // namespace
}  // namespace eden::telemetry
