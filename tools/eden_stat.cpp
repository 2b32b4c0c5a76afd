// eden-stat: pretty-prints a telemetry snapshot — either live from a
// canned testbed run, or re-rendered from a TELEMETRY_*.json file that
// a bench wrote earlier.
//
// Live mode spins up a two-host testbed (client -> switch -> server),
// classifies the client's traffic into named classes with enclave flow
// rules, runs PIAS over those classes plus a random ~3% dropper on the
// background class, drives TCP traffic for a while, then polls every
// enclave with one TelemetryCollector and renders the aggregate. It
// also drives a control-plane session demo: a third "demo" enclave
// programmed over a FaultyTransport (drops, delays, duplicates,
// truncations) and polled over that session, so the session table
// shows reconnects, resyncs and transaction commits riding over a
// lossy link. File mode parses the JSON dump back into
// the same structures, so every rendering (tables, --prom, --json
// round-trip) works on saved snapshots too.
//
// Watch mode (--watch) spins up an in-process agent farm
// (controlplane/farm.h) — N full controller->enclave session stacks —
// polls it with a TelemetryCollector over the streaming delta
// protocol, runs the health watchdog over the collected series, and
// renders a live fleet table once per poll cycle: per-agent reach /
// staleness, packet totals and rates, delta-protocol counters and
// health state.
//
// Per-packet traces are lifecycle spans (telemetry/span.h): dump them
// with eden-trace or a bench's --trace-json.
//
// Usage: eden-stat [TELEMETRY.json] [--ms=SIM_MS] [--json] [--prom]
//        eden-stat --watch [--agents=N] [--rounds=N] [--chaos] [--prom]
//   TELEMETRY.json  render a saved bench snapshot instead of running
//   --ms=N      simulated milliseconds of traffic (default 200)
//   --json      print the JSON dump instead of tables
//   --prom      print the Prometheus text exposition instead of tables
//   --watch     live fleet table over an in-process agent farm
//   --agents=N  farm size in watch mode (default 8)
//   --rounds=N  poll cycles in watch mode (default 10)
//   --chaos     wrap the farm's pipes in seeded FaultyTransports
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/bench_args.h"
#include "controlplane/farm.h"
#include "controlplane/fault.h"
#include "controlplane/session.h"
#include "controlplane/transport.h"
#include "experiments/testbed.h"
#include "functions/scheduling.h"
#include "lang/compiler.h"
#include "telemetry/collector.h"
#include "telemetry/health.h"
#include "telemetry/json.h"
#include "telemetry/snapshot.h"
#include "util/table.h"

namespace {

using namespace eden;

constexpr std::uint16_t kResponsePort = 8000;
constexpr std::uint16_t kBackgroundPort = 8001;

// Drops ~3% of the class's packets at random — gives the dropped
// counters something to show.
constexpr const char* kRandomDropSource = R"(
fun(p) -> if rand(100) < 3 then p.drop <- 1 else 0
)";

// The session demo's remote action: tags packets with the epoch the
// controller last committed.
constexpr const char* kEpochSource = R"(
fun(p, m, g) -> p.queue <- g.epoch
)";

void install_functions(experiments::TestHost& client,
                       core::ClassRegistry& registry) {
  core::Enclave& enclave = *client.enclave;

  // Enclave-stage classification (Table 2, last row): port-based rules
  // binding the client's flows to named classes.
  core::FlowClassifierRule response;
  response.dst_port = kResponsePort;
  response.class_id = registry.intern("enclave.flows.response");
  enclave.add_flow_rule(response);
  core::FlowClassifierRule background;
  background.dst_port = kBackgroundPort;
  background.class_id = registry.intern("enclave.flows.background");
  enclave.add_flow_rule(background);

  const functions::PiasFunction pias;
  const core::ActionId sched = pias.install(enclave, /*use_native=*/false);
  const std::int64_t limits[] = {10 * 1024, 1024 * 1024};
  const std::int64_t prios[] = {7, 5};
  functions::push_priority_thresholds(enclave, sched, limits, prios);
  const core::TableId sched_table = enclave.create_table("sched");
  enclave.add_rule(sched_table, core::ClassPattern("enclave.flows.*"), sched);

  const lang::StateSchema schema = core::make_enclave_schema();
  const core::ActionId dropper = enclave.install_action(
      "rand_drop", lang::compile_source(kRandomDropSource, schema), {});
  const core::TableId drop_table = enclave.create_table("chaos");
  enclave.add_rule(drop_table, core::ClassPattern("enclave.flows.background"),
                   dropper);
}

// --- TELEMETRY_*.json loader -------------------------------------------

// Rebuilds the aggregate from a saved dump, one
// telemetry::parse_telemetry_json per dump it holds. Only the
// per-enclave snapshots and session entries are read back; totals
// and cross-enclave merges are recomputed by aggregate(), the same path
// the live snapshot takes. Bench dumps may concatenate runs as
// {"run label": {...}, ...}; every object with an "enclaves" array
// contributes.
telemetry::AggregateTelemetry load_telemetry_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const telemetry::Json root = telemetry::JsonParser(buffer.str()).parse();

  std::vector<const telemetry::Json*> dumps;
  if (root.get("enclaves") != nullptr) {
    dumps.push_back(&root);
  } else if (const telemetry::Json* runs = root.get("runs")) {
    // bench::combine_telemetry_runs format:
    // {"runs":[{"label":...,"telemetry":{...}}, ...]}
    for (const telemetry::Json& run : runs->items) {
      const telemetry::Json* t = run.get("telemetry");
      if (t != nullptr && t->get("enclaves") != nullptr) dumps.push_back(t);
    }
  } else {
    for (const auto& [label, v] : root.fields) {
      if (v.get("enclaves") != nullptr) dumps.push_back(&v);
    }
  }
  if (dumps.empty()) {
    throw std::runtime_error(path + ": no \"enclaves\" array found");
  }

  std::vector<telemetry::EnclaveTelemetry> enclaves;
  std::vector<telemetry::SessionTelemetry> sessions;
  for (const telemetry::Json* dump : dumps) {
    // Unversioned dumps are v1; anything newer than this binary is
    // rendered best-effort with a warning, never a crash.
    const auto version = dump->u64("schema_version", 1);
    if (version > static_cast<std::uint64_t>(
                      telemetry::kTelemetrySchemaVersion)) {
      std::fprintf(stderr,
                   "eden-stat: warning: %s has telemetry schema_version "
                   "%llu, newer than this build's %d; unknown fields will "
                   "be ignored\n",
                   path.c_str(), static_cast<unsigned long long>(version),
                   telemetry::kTelemetrySchemaVersion);
    }
    telemetry::ParsedDump parsed = telemetry::parse_telemetry_json(*dump);
    std::move(parsed.enclaves.begin(), parsed.enclaves.end(),
              std::back_inserter(enclaves));
    std::move(parsed.sessions.begin(), parsed.sessions.end(),
              std::back_inserter(sessions));
  }
  telemetry::AggregateTelemetry agg =
      telemetry::aggregate(std::move(enclaves));
  agg.sessions = std::move(sessions);
  return agg;
}

std::string error_breakdown(const telemetry::ActionTelemetry& a) {
  std::string out;
  for (std::size_t i = 0; i < a.errors_by_status.size(); ++i) {
    if (a.errors_by_status[i] == 0) continue;
    if (!out.empty()) out += " ";
    out += std::string(lang::exec_status_name(
               static_cast<lang::ExecStatus>(i))) +
           ":" + std::to_string(a.errors_by_status[i]);
  }
  return out.empty() ? "-" : out;
}

void print_sessions(const telemetry::AggregateTelemetry& agg) {
  if (agg.sessions.empty()) return;
  util::TextTable sessions;
  sessions.add_row({"session", "state", "connects", "teardowns", "resyncs",
                    "replay", "reqs", "ok", "err", "rtt p50", "rtt p95",
                    "rtt p99", "commits", "aborts", "restarts"});
  for (const telemetry::SessionTelemetry& s : agg.sessions) {
    const bool rtt = s.rtt_ns.count > 0;
    sessions.add_row(
        {s.name, s.ready ? "ready" : (s.connected ? "connecting" : "down"),
         std::to_string(s.connects), std::to_string(s.teardowns),
         std::to_string(s.resyncs), std::to_string(s.last_resync_commands),
         std::to_string(s.requests_sent), std::to_string(s.responses_ok),
         std::to_string(s.responses_error),
         rtt ? util::fmt(s.rtt_ns.p50(), 0) : "-",
         rtt ? util::fmt(s.rtt_ns.p95(), 0) : "-",
         rtt ? util::fmt(s.rtt_ns.p99(), 0) : "-",
         std::to_string(s.txns_committed), std::to_string(s.txns_aborted),
         std::to_string(s.agent_restarts_seen)});
  }
  std::printf("\nControl-plane sessions (rtt in virtual ns)\n");
  std::fputs(sessions.render().c_str(), stdout);
}

void print_tables(const telemetry::AggregateTelemetry& agg) {
  util::TextTable enclaves;
  enclaves.add_row({"enclave", "packets", "matched", "dropped",
                    "msgs created", "msgs evicted"});
  for (const telemetry::EnclaveTelemetry& e : agg.enclaves) {
    enclaves.add_row({e.enclave, std::to_string(e.packets),
                      std::to_string(e.matched),
                      std::to_string(e.dropped_by_action),
                      std::to_string(e.message_entries_created),
                      std::to_string(e.message_entries_evicted)});
  }
  std::printf("Enclaves (aggregate: %llu packets, %llu matched, %llu "
              "dropped)\n",
              static_cast<unsigned long long>(agg.packets),
              static_cast<unsigned long long>(agg.matched),
              static_cast<unsigned long long>(agg.dropped_by_action));
  std::fputs(enclaves.render().c_str(), stdout);

  // Message state engine (eden_state_*): only enclaves that actually
  // ran a FlowStore carry the section, so the table appears exactly
  // when there is state to show — in live runs and re-rendered dumps
  // alike.
  bool any_state = false;
  for (const telemetry::EnclaveTelemetry& e : agg.enclaves) {
    any_state = any_state || e.state.present;
  }
  if (any_state) {
    util::TextTable state;
    state.add_row({"enclave", "live", "created", "expired", "evicted",
                   "resizes", "probe p50", "probe p99"});
    for (const telemetry::EnclaveTelemetry& e : agg.enclaves) {
      if (!e.state.present) continue;
      const bool probe = e.state.probe_len.count > 0;
      state.add_row({e.enclave, std::to_string(e.state.live),
                     std::to_string(e.state.created),
                     std::to_string(e.state.expired),
                     std::to_string(e.state.evicted),
                     std::to_string(e.state.resizes),
                     probe ? util::fmt(e.state.probe_len.p50(), 0) : "-",
                     probe ? util::fmt(e.state.probe_len.p99(), 0) : "-"});
    }
    std::printf("\nMessage state (sampled probe lengths in slot groups)\n");
    std::fputs(state.render().c_str(), stdout);
  }

  if (!agg.classes.empty()) {
    util::TextTable classes;
    classes.add_row({"class", "matched", "dropped"});
    for (const telemetry::ClassTelemetry& c : agg.classes) {
      classes.add_row({c.name, std::to_string(c.matched),
                       std::to_string(c.dropped)});
    }
    std::printf("\nClasses\n");
    std::fputs(classes.render().c_str(), stdout);
  }

  util::TextTable actions;
  actions.add_row({"action", "kind", "execs", "errors", "steps", "p50 ns",
                   "p95 ns", "p99 ns", "error breakdown"});
  for (const telemetry::ActionTelemetry& a : agg.actions) {
    const bool h = a.has_histograms && a.latency_ns.count > 0;
    actions.add_row({a.name, a.native ? "native" : "bytecode",
                     std::to_string(a.executions), std::to_string(a.errors),
                     std::to_string(a.steps),
                     h ? util::fmt(a.latency_ns.p50(), 0) : "-",
                     h ? util::fmt(a.latency_ns.p95(), 0) : "-",
                     h ? util::fmt(a.latency_ns.p99(), 0) : "-",
                     error_breakdown(a)});
  }
  std::printf("\nActions (latency percentiles over sampled executions)\n");
  std::fputs(actions.render().c_str(), stdout);

  print_sessions(agg);

  bool any_profile = false;
  for (const telemetry::ActionTelemetry& a : agg.actions) {
    any_profile = any_profile || (a.has_profile && !a.hotspots.empty());
  }
  if (any_profile) {
    util::TextTable hot;
    hot.add_row({"action", "pc", "instruction", "count", "count %",
                 "cycles %"});
    for (const telemetry::ActionTelemetry& a : agg.actions) {
      if (!a.has_profile) continue;
      for (const telemetry::HotSpot& h : a.hotspots) {
        hot.add_row({a.name, std::to_string(h.pc), h.text,
                     std::to_string(h.count), util::fmt(h.count_pct, 1),
                     util::fmt(h.ticks_pct, 1)});
      }
    }
    std::printf("\nBytecode hot spots (top instructions per profiled "
                "action)\n");
    std::fputs(hot.render().c_str(), stdout);
  }
}

// --- Control-plane session demo ----------------------------------------
//
// Programs a third enclave over an in-memory pipe wrapped in a
// FaultyTransport: ~5% of sends dropped, 10% delayed, 5% duplicated,
// 2% truncated. The session's journal + resync machinery rides over
// the chaos; twenty transactional epoch bumps later, the demo enclave
// has converged on the final committed state and the session table has
// real reconnect/resync/commit numbers to show.
struct SessionDemo {
  core::Enclave enclave;
  controlplane::PipePump pump;
  controlplane::EnclaveAgent agent{enclave};
  std::uint64_t vclock = 0;  // virtual nanoseconds
  std::unique_ptr<controlplane::EnclaveSession> session;

  explicit SessionDemo(core::ClassRegistry& registry)
      : enclave("demo", registry, [] {
          core::EnclaveConfig config;
          config.telemetry.enabled = true;
          return config;
        }()) {}

  void run() {
    controlplane::FaultProfile faults;
    faults.drop_prob = 0.05;
    faults.delay_prob = 0.10;
    faults.duplicate_prob = 0.05;
    faults.truncate_prob = 0.02;
    faults.seed = 7;

    controlplane::SessionConfig config;
    config.heartbeat_interval_ns = 5'000'000;
    config.liveness_timeout_ns = 20'000'000;
    config.request_timeout_ns = 25'000'000;
    config.backoff_initial_ns = 1'000'000;
    config.backoff_max_ns = 50'000'000;
    config.seed = 42;

    session = std::make_unique<controlplane::EnclaveSession>(
        "controller->demo",
        [this, faults]() -> std::unique_ptr<controlplane::Transport> {
          auto [near, far] = controlplane::make_pipe(pump, 64);
          agent.attach(std::move(far));
          return std::make_unique<controlplane::FaultyTransport>(
              std::move(near), pump, faults);
        },
        [this]() { return vclock; }, config);

    std::vector<lang::FieldDef> globals(1);
    globals[0].name = "epoch";
    globals[0].access = lang::Access::read_write;
    session->install_action(
        "epoch_tag",
        lang::compile_source(kEpochSource, core::make_enclave_schema(globals)),
        globals);
    session->create_table("demo");
    session->add_rule("demo", "enclave.flows.*", "epoch_tag");

    for (std::int64_t epoch = 1; epoch <= 20; ++epoch) {
      session->begin_txn();
      session->set_global_scalar("epoch_tag", "epoch", epoch);
      session->commit_txn();
      step_ms(2);
    }
    // Settle: let outstanding requests finish or the session resync.
    for (int i = 0; i < 500 && !(session->ready() && session->inflight() == 0);
         ++i) {
      step_ms(1);
    }
  }

  void step_ms(std::uint64_t ms) {
    for (std::uint64_t i = 0; i < ms; ++i) {
      vclock += 1'000'000;
      session->tick();
      pump.run(10'000);
    }
  }
};

// --- Watch mode ---------------------------------------------------------

// Watch hides the cursor on a TTY for the live refresh; an interrupted
// run must put it back or the shell is left garbled. The handler is
// async-signal-safe (one write(2), then the default disposition).
const char kWatchRestore[] = "\x1b[0m\x1b[?25h";

void watch_signal_handler(int sig) {
  ssize_t ignored =
      ::write(STDOUT_FILENO, kWatchRestore, sizeof kWatchRestore - 1);
  (void)ignored;
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

int run_watch(int argc, char** argv) {
  const long agents = bench::int_arg(argc, argv, "--agents", 8);
  const long rounds = bench::int_arg(argc, argv, "--rounds", 10);
  const bool chaos = bench::has_flag(argc, argv, "--chaos");
  const bool as_prom = bench::has_flag(argc, argv, "--prom");

  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  if (tty) {
    struct sigaction sa = {};
    sa.sa_handler = watch_signal_handler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    std::fputs("\x1b[?25l", stdout);  // hide cursor during refresh
    std::fflush(stdout);
  }

  controlplane::FarmConfig farm_config;
  farm_config.agents = agents > 0 ? static_cast<std::size_t>(agents) : 1;
  farm_config.chaos = chaos;
  farm_config.seed = 11;
  controlplane::AgentFarm farm(farm_config);
  farm.install_program();
  if (!farm.converge()) {
    std::fprintf(stderr, "eden-stat: farm failed to converge\n");
    return 1;
  }

  std::uint64_t now_ns = 0;
  telemetry::TelemetryCollector collector({}, [&]() { return now_ns; });
  for (telemetry::CollectorSource& s : farm.sources()) {
    collector.add_source(std::move(s));
  }
  telemetry::HealthWatchdog watchdog;

  for (long round = 1; round <= rounds; ++round) {
    // Variable per-agent load plus a host gauge, so rates and the
    // watchdog have something to chew on.
    for (std::size_t i = 0; i < farm.size(); ++i) {
      farm.drive(i, 40 + (i * 37 + static_cast<std::size_t>(round) * 13) % 80);
      farm.set_host_series_value(
          i, "dataplane_ring_depth",
          static_cast<double>((i * 61 + static_cast<std::size_t>(round) * 7) %
                              128));
    }
    for (int k = 0; k < 40; ++k) farm.step_all();
    now_ns += 1'000'000'000;  // one poll cycle per virtual second
    const telemetry::AggregateTelemetry& agg = collector.poll();
    watchdog.evaluate(now_ns, collector);

    util::TextTable fleet;
    fleet.add_row({"agent", "health", "link", "packets", "pkts/s", "full",
                   "deltas", "rej", "bytes"});
    const auto& health = watchdog.agents();
    for (std::size_t i = 0; i < collector.source_count(); ++i) {
      const telemetry::AgentStatus& st = collector.status(i);
      const double pkts = collector.latest_value(i, "packets").value_or(0);
      const auto rate = collector.rate_per_sec(i, "packets");
      fleet.add_row(
          {st.name,
           i < health.size() ? telemetry::health_state_name(health[i].state)
                             : "?",
           st.stale ? "stale" : (st.reachable ? "up" : "down"),
           util::fmt(pkts, 0), rate ? util::fmt(*rate, 1) : "-",
           std::to_string(st.full_resyncs), std::to_string(st.deltas_applied),
           std::to_string(st.rejected_payloads),
           std::to_string(st.payload_bytes_total)});
    }
    std::printf("\neden-stat --watch: poll %ld/%ld  fleet=%s  agents=%zu  "
                "packets=%llu dropped=%llu\n",
                round, rounds, telemetry::health_state_name(
                                   watchdog.fleet_state()),
                collector.source_count(),
                static_cast<unsigned long long>(agg.packets),
                static_cast<unsigned long long>(agg.dropped_by_action));
    std::fputs(fleet.render().c_str(), stdout);
  }

  if (farm.driven_total() != collector.latest().packets) {
    std::printf("\nnote: collector sees %llu of %llu driven packets "
                "(in-flight polls catch up next cycle)\n",
                static_cast<unsigned long long>(collector.latest().packets),
                static_cast<unsigned long long>(farm.driven_total()));
  }
  if (!watchdog.events().empty()) {
    std::printf("\nHealth events\n%s\n", watchdog.events_json().c_str());
  }
  if (as_prom) {
    std::string prom;
    collector.append_prometheus(prom);
    watchdog.append_prometheus(prom);
    std::fputs(prom.c_str(), stdout);
  }
  if (tty) {
    std::fputs(kWatchRestore, stdout);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eden;

  const long sim_ms = bench::int_arg(argc, argv, "--ms", 200);
  const bool as_json = bench::has_flag(argc, argv, "--json");
  const bool as_prom = bench::has_flag(argc, argv, "--prom");

  if (bench::has_flag(argc, argv, "--watch")) return run_watch(argc, argv);

  std::string input_path;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') input_path = argv[i];
  }
  if (!input_path.empty()) {
    // File mode: re-render a saved bench snapshot.
    try {
      const telemetry::AggregateTelemetry agg =
          load_telemetry_file(input_path);
      if (as_json) {
        std::fputs((telemetry::to_json(agg) + "\n").c_str(), stdout);
      } else if (as_prom) {
        std::fputs(telemetry::to_prometheus(agg).c_str(), stdout);
      } else {
        std::printf("eden-stat: snapshot loaded from %s (%zu enclave(s), "
                    "%zu session(s))\n\n",
                    input_path.c_str(), agg.enclaves.size(),
                    agg.sessions.size());
        print_tables(agg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "eden-stat: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  experiments::Testbed bed;
  auto& client = bed.add_host("client");
  auto& server = bed.add_host("server");
  auto& sw = bed.add_switch("tor");
  constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;
  const netsim::SimTime delay = 5 * netsim::kMicrosecond;
  bed.connect(client, sw, 10 * kGbps, delay);
  bed.connect(server, sw, 10 * kGbps, delay);
  bed.routing().install_dest_routes();

  core::EnclaveConfig ec;
  ec.telemetry.enabled = true;
  // Display run: time every execution so the percentiles are exact.
  ec.telemetry.histogram_sample_every = 1;
  // Profile the interpreted actions so the hot-spot table has rows.
  ec.telemetry.profile_actions = true;
  bed.finalize(ec);

  experiments::TestHost& client_host = *bed.host_by_name("client");
  experiments::TestHost& server_host = *bed.host_by_name("server");
  install_functions(client_host, bed.registry());

  for (const std::uint16_t port : {kResponsePort, kBackgroundPort}) {
    server_host.stack->listen(
        port, [](transport::TcpReceiver&, const hoststack::FlowInfo&) {});
  }
  for (int i = 0; i < 4; ++i) {
    client_host.stack->open_flow(server.id(), kResponsePort)
        .start(256 * 1024);
    client_host.stack->open_flow(server.id(), kBackgroundPort)
        .start(1024 * 1024);
  }

  bed.run_for(sim_ms * netsim::kMillisecond);

  // Session demo: program a third enclave over a lossy control channel.
  SessionDemo demo(bed.registry());
  demo.run();

  // One collector poll over the testbed's enclaves plus the demo
  // session, whose controller-side view rides along with the enclave
  // snapshots, same as a real deployment's exporter would.
  telemetry::TelemetryCollector collector({}, [] { return std::uint64_t{0}; });
  for (telemetry::CollectorSource& s : bed.controller().telemetry_sources()) {
    collector.add_source(std::move(s));
  }
  telemetry::CollectorSource remote;
  remote.name = "demo";
  remote.fetch_delta = [&demo](std::uint64_t epoch, std::uint64_t seq) {
    return demo.session->fetch_telemetry_delta_json(demo.pump, epoch, seq);
  };
  remote.session = [&demo]() { return demo.session->telemetry(); };
  collector.add_source(std::move(remote));
  const telemetry::AggregateTelemetry& agg = collector.poll();

  if (as_json) {
    std::fputs((telemetry::to_json(agg) + "\n").c_str(), stdout);
  } else if (as_prom) {
    std::fputs(telemetry::to_prometheus(agg).c_str(), stdout);
  } else {
    std::printf("eden-stat: %ld ms of simulated traffic, 2 hosts, PIAS + "
                "random dropper, session demo over a faulty link\n\n",
                sim_ms);
    for (const telemetry::AgentStatus& status : collector.statuses()) {
      if (status.consecutive_failures == 0) continue;
      std::printf("warning: enclave %s unreachable; skipped\n\n",
                  status.name.c_str());
    }
    print_tables(agg);
  }
  return 0;
}
