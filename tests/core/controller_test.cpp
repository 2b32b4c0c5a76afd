// Controller-side logic: compilation against the enclave schema,
// program distribution, telemetry read-back, and the control-plane
// computations (path weights, priority thresholds).
#include "core/controller.h"

#include <gtest/gtest.h>

#include "functions/scheduling.h"
#include "lang/source_loc.h"

namespace eden::core {
namespace {

constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;

TEST(Controller, CompileUsesEnclaveSchema) {
  ClassRegistry registry;
  Controller controller(registry);
  const auto program = controller.compile(
      "t", "fun(p, m, g) -> p.priority <- (if p.size > 1000 then 1 else 7)",
      {});
  EXPECT_EQ(program.concurrency, lang::ConcurrencyMode::parallel);
  EXPECT_EQ(program.source_name, "t");
}

TEST(Controller, CompileRejectsUnknownGlobals) {
  ClassRegistry registry;
  Controller controller(registry);
  EXPECT_THROW(controller.compile("t", "fun(p, m, g) -> g.mystery", {}),
               lang::LangError);
}

TEST(Controller, InstallEverywhereShipsSerializedBytecode) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave os_enclave("os", registry);     // the OS enclave...
  Enclave nic_enclave("nic", registry);   // ...and the NIC enclave
  controller.register_enclave(os_enclave);
  controller.register_enclave(nic_enclave);

  const auto program =
      controller.compile("p5", "fun(p, m, g) -> p.priority <- 5", {});
  const auto ids = controller.install_everywhere(program, {});
  ASSERT_EQ(ids.size(), 2u);

  // The same bytecode behaves identically on both "platforms".
  for (Enclave* enclave : {&os_enclave, &nic_enclave}) {
    const TableId table = enclave->create_table("t");
    enclave->add_rule(table, ClassPattern("*"),
                      enclave == &os_enclave ? ids[0] : ids[1]);
    netsim::Packet packet;
    packet.size_bytes = 100;
    enclave->process(packet);
    EXPECT_EQ(packet.priority, 5) << enclave->name();
  }
}

TEST(Controller, StageLookupByName) {
  ClassRegistry registry;
  Controller controller(registry);
  Stage stage("s1", {"f"}, {}, registry);
  controller.register_stage(stage);
  EXPECT_EQ(controller.stage("s1"), &stage);
  EXPECT_EQ(controller.stage("nope"), nullptr);
}

TEST(Controller, WeightedPathsProportionalToBottleneck) {
  netsim::Network net;
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  auto& a = net.add_switch("a");
  auto& b = net.add_switch("b");
  auto& c = net.add_switch("c");
  auto& d = net.add_switch("d");
  net.connect(h1, a, 20 * kGbps, 0);
  net.connect(a, b, 10 * kGbps, 0);
  net.connect(b, d, 10 * kGbps, 0);
  net.connect(a, c, 1 * kGbps, 0);
  net.connect(c, d, 1 * kGbps, 0);
  net.connect(d, h2, 20 * kGbps, 0);
  netsim::Routing routing(net);
  routing.install_all_paths();

  const auto paths = Controller::weighted_paths(routing, h1.id(), h2.id());
  ASSERT_EQ(paths.size(), 2u);
  std::int64_t total = 0;
  for (const auto& p : paths) total += p.weight;
  EXPECT_EQ(total, kWeightScale);  // exact, including rounding residue
  // 10:1 capacity ratio -> ~909 / ~91.
  EXPECT_NEAR(static_cast<double>(paths[0].weight), 909, 2);
  EXPECT_NEAR(static_cast<double>(paths[1].weight), 91, 2);
}

TEST(Controller, WeightedPathsEmptyWhenDisconnected) {
  netsim::Network net;
  net.add_host("h1");
  net.add_host("h2");
  netsim::Routing routing(net);
  routing.install_all_paths();
  EXPECT_TRUE(Controller::weighted_paths(routing, 0, 1).empty());
}

TEST(Controller, PriorityThresholdsAtQuantiles) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t i = 1; i <= 900; ++i) sizes.push_back(i * 100);
  const auto thresholds = Controller::priority_thresholds(sizes, 3);
  ASSERT_EQ(thresholds.size(), 2u);
  // Thresholds near the 1/3 and 2/3 quantiles.
  EXPECT_NEAR(static_cast<double>(thresholds[0]), 30000, 300);
  EXPECT_NEAR(static_cast<double>(thresholds[1]), 60000, 600);
}

TEST(Controller, PriorityThresholdsStrictlyIncreasing) {
  // Heavy duplication would collapse quantiles without the fix-up.
  std::vector<std::uint64_t> sizes(1000, 5000);
  const auto thresholds = Controller::priority_thresholds(sizes, 4);
  ASSERT_EQ(thresholds.size(), 3u);
  EXPECT_LT(thresholds[0], thresholds[1]);
  EXPECT_LT(thresholds[1], thresholds[2]);
}

TEST(Controller, PriorityThresholdsDegenerateInputs) {
  EXPECT_TRUE(Controller::priority_thresholds({}, 3).empty());
  const std::vector<std::uint64_t> one{42};
  EXPECT_TRUE(Controller::priority_thresholds(one, 1).empty());
}

TEST(Controller, CollectTelemetrySkipsAndReportsUnreachableRemotes) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave local("local", registry);
  controller.register_enclave(local);
  netsim::Packet p;
  p.size_bytes = 100;
  local.process(p);

  // A healthy remote answers the delta protocol for another enclave; a
  // dead session replies empty, a confused one replies garbage. The dead
  // ones must be reported, not take down the deployment-wide view.
  Enclave far("far", registry);
  far.process(p);
  far.process(p);
  telemetry::DeltaEncoder far_agent;
  telemetry::TelemetryCollector collector({}, [] { return std::uint64_t{0}; });
  for (telemetry::CollectorSource& s : controller.telemetry_sources()) {
    collector.add_source(std::move(s));
  }
  collector.add_source({"far", [&](std::uint64_t epoch, std::uint64_t seq) {
                          return far_agent.encode(far.telemetry_snapshot(),
                                                  epoch, seq);
                        }, {}});
  collector.add_source(
      {"dead", [](std::uint64_t, std::uint64_t) { return std::string{}; },
       {}});
  collector.add_source({"garbled", [](std::uint64_t, std::uint64_t) {
                          return std::string{"{]not json"};
                        }, {}});

  const telemetry::AggregateTelemetry& agg = collector.poll();
  std::vector<std::string> unreachable;
  for (const telemetry::AgentStatus& status : collector.statuses()) {
    if (status.consecutive_failures > 0) unreachable.push_back(status.name);
  }
  ASSERT_EQ(unreachable.size(), 2u);
  EXPECT_EQ(unreachable[0], "dead");
  EXPECT_EQ(unreachable[1], "garbled");
  EXPECT_EQ(collector.status(3).rejected_payloads, 1u);
  ASSERT_EQ(agg.enclaves.size(), 2u);
  EXPECT_EQ(agg.enclaves[0].enclave, "local");
  EXPECT_EQ(agg.enclaves[1].enclave, "far");
  EXPECT_EQ(agg.packets, 3u);  // 1 local + 2 merged from the remote
}

TEST(Controller, TelemetrySourcesPollMatchesTheEnclaveSnapshot) {
  // The one read path loses nothing a direct snapshot holds: a collector
  // poll over telemetry_sources() renders the same dump as aggregating
  // the enclave's own snapshot, with every optional section on (1-in-1
  // histograms, bytecode profiles, message state).
  ClassRegistry registry;
  Controller controller(registry);
  EnclaveConfig config;
  config.telemetry.enabled = true;
  config.telemetry.histogram_sample_every = 1;
  config.telemetry.profile_actions = true;
  Enclave enclave("host0", registry, config);
  controller.register_enclave(enclave);

  const functions::PiasFunction pias;  // keeps per-message state
  const ActionId action =
      enclave.install_action("pias", pias.compile(), pias.global_fields());
  enclave.set_global_array(action, "priorities", {10240, 7, 1048576, 5});
  enclave.add_rule(enclave.create_table("t"), ClassPattern("*"), action);
  for (std::int64_t i = 0; i < 200; ++i) {
    netsim::Packet packet;
    packet.size_bytes = 1000;
    packet.meta.msg_id = i % 16 + 1;
    enclave.process(packet);
  }

  telemetry::TelemetryCollector collector({}, [] { return std::uint64_t{0}; });
  for (telemetry::CollectorSource& s : controller.telemetry_sources()) {
    collector.add_source(std::move(s));
  }
  const std::string polled = telemetry::to_json(collector.poll());
  EXPECT_EQ(polled, telemetry::to_json(
                        telemetry::aggregate({enclave.telemetry_snapshot()})));
  EXPECT_EQ(collector.status(0).full_resyncs, 1u);
  for (const char* section : {"\"latency_ns\"", "\"hotspots\"", "\"state\""}) {
    EXPECT_NE(polled.find(section), std::string::npos) << section;
  }
}

}  // namespace
}  // namespace eden::core
