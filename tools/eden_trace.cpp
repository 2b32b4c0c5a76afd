// eden-trace: message lifecycle tracing demo and exporter.
//
// Runs the Fig. 9 flow-scheduling workload with lifecycle span tracing
// enabled, then exports every recorded hop as Chrome trace_event JSON.
// Load the output in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: each traced message is one track (tid = trace id),
// with slices for the timed hops (action execution, token-bucket waits)
// and instants for the rest (classification, enqueue/dequeue, NIC tx).
//
//   eden-trace --scheme=pias --ms=200 --sample=64 --out=TRACE_fig9.json
//
// The summary printed afterwards counts recorded hops per type and
// verifies that at least one message shows the full egress sequence
// stage -> host stack -> enclave -> NIC.
//
// Merge mode stitches span dumps from different processes — the
// controller's own dump and agent-side get_spans dumps (as
// EnclaveSession::fetch_spans_json returns them) — into one Perfetto
// timeline. Trace and span ids come from one process-wide allocator,
// so events from different dumps that share a tid really are one
// operation:
//
//   eden-trace merge --out=MERGED.json controller.json agent0.json ...
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_args.h"
#include "experiments/fig9_scheduling.h"
#include "telemetry/json.h"
#include "telemetry/span.h"

namespace {

void usage() {
  std::printf(
      "eden-trace: run a fig9 workload with lifecycle tracing and export\n"
      "Chrome trace_event JSON for Perfetto / chrome://tracing.\n\n"
      "  --scheme=pias|sff|baseline  scheduling scheme (default pias)\n"
      "  --ms=N                      measured duration (default 100)\n"
      "  --sample=N                  trace 1 in N messages (default 64)\n"
      "  --out=PATH                  output file (default TRACE_fig9.json)\n"
      "  --quick                     short run (20 ms, sample 16)\n\n"
      "merge mode:\n"
      "  eden-trace merge [--out=MERGED.json] FILE...\n"
      "    merges span dumps (controller + agents) into one timeline\n");
}

// Re-emits a parsed Json tree. Numbers keep their source text in the
// parser, so 64-bit ids round-trip exactly.
void dump_json(const eden::telemetry::Json& j, std::string& out) {
  using Kind = eden::telemetry::Json::Kind;
  switch (j.kind) {
    case Kind::null: out += "null"; return;
    case Kind::boolean: out += j.boolean ? "true" : "false"; return;
    case Kind::number: out += j.text; return;
    case Kind::string:
      out += '"';
      for (const char c : j.text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return;
    case Kind::array: {
      out += '[';
      for (std::size_t i = 0; i < j.items.size(); ++i) {
        if (i != 0) out += ',';
        dump_json(j.items[i], out);
      }
      out += ']';
      return;
    }
    case Kind::object: {
      out += '{';
      for (std::size_t i = 0; i < j.fields.size(); ++i) {
        if (i != 0) out += ',';
        out += '"';
        out += j.fields[i].first;
        out += "\":";
        dump_json(j.fields[i].second, out);
      }
      out += '}';
      return;
    }
  }
}

int run_merge(int argc, char** argv) {
  using namespace eden;

  const std::string out_path =
      bench::str_arg(argc, argv, "--out", "MERGED.json");
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) continue;
    inputs.push_back(arg);
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "eden-trace merge: no input files\n");
    return 1;
  }

  std::vector<telemetry::Json> events;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "eden-trace merge: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    telemetry::Json root;
    try {
      root = telemetry::JsonParser(ss.str()).parse();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "eden-trace merge: %s: %s\n", path.c_str(),
                   e.what());
      return 1;
    }
    // Same contract as eden-stat's file mode: a dump from a newer
    // build gets a warning, never a crash or a silent misparse.
    const std::int64_t version =
        root.i64("schema_version", telemetry::kSpanSchemaVersion);
    if (version > telemetry::kSpanSchemaVersion) {
      std::fprintf(stderr,
                   "eden-trace merge: warning: %s has span schema_version "
                   "%lld, this build reads %d; newer fields are ignored\n",
                   path.c_str(), static_cast<long long>(version),
                   telemetry::kSpanSchemaVersion);
    }
    const telemetry::Json* trace_events = root.get("traceEvents");
    if (trace_events == nullptr ||
        trace_events->kind != telemetry::Json::Kind::array) {
      std::fprintf(stderr, "eden-trace merge: %s has no traceEvents array\n",
                   path.c_str());
      return 1;
    }
    std::printf("  %s: %zu events\n", path.c_str(),
                trace_events->items.size());
    for (const telemetry::Json& e : trace_events->items) {
      events.push_back(e);
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const telemetry::Json& a, const telemetry::Json& b) {
                     return a.num("ts") < b.num("ts");
                   });

  // Causal-link audit: every non-zero parent should resolve to a span
  // somewhere in the merged set. Dangling links are possible (ring
  // wraparound sheds old events), so they warn rather than fail.
  std::set<std::int64_t> span_ids;
  std::set<std::int64_t> traces;
  std::size_t linked = 0;
  for (const telemetry::Json& e : events) {
    traces.insert(e.i64("tid"));
    if (const telemetry::Json* args = e.get("args")) {
      const std::int64_t span = args->i64("span");
      if (span != 0) span_ids.insert(span);
    }
  }
  std::size_t dangling = 0;
  for (const telemetry::Json& e : events) {
    const telemetry::Json* args = e.get("args");
    if (args == nullptr) continue;
    const std::int64_t parent = args->i64("parent");
    if (parent == 0) continue;
    ++linked;
    if (span_ids.count(parent) == 0) ++dangling;
  }

  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    dump_json(events[i], out);
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "],\"displayTimeUnit\":\"ns\",\"schema_version\":";
  out += std::to_string(telemetry::kSpanSchemaVersion);
  out += "}\n";
  if (!bench::write_text_file(out_path, out)) {
    std::fprintf(stderr, "eden-trace merge: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }

  std::printf(
      "eden-trace merge: %zu events from %zu files, %zu traces, "
      "%zu parent links (%zu dangling)\n",
      events.size(), inputs.size(), traces.size(), linked, dangling);
  if (dangling > 0) {
    std::fprintf(stderr,
                 "eden-trace merge: warning: %zu parent links point at "
                 "spans outside the merged dumps (ring wraparound?)\n",
                 dangling);
  }
  std::printf("  wrote %s (open in https://ui.perfetto.dev)\n",
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eden;

  if (bench::has_flag(argc, argv, "--help")) {
    usage();
    return 0;
  }
  if (argc > 1 && std::string(argv[1]) == "merge") {
    return run_merge(argc, argv);
  }

  const bool quick = bench::has_flag(argc, argv, "--quick");
  const long ms = bench::int_arg(argc, argv, "--ms", quick ? 20 : 100);
  const long sample = bench::int_arg(argc, argv, "--sample", quick ? 16 : 64);
  const std::string scheme = bench::str_arg(argc, argv, "--scheme", "pias");
  const std::string out_path =
      bench::str_arg(argc, argv, "--out", "TRACE_fig9.json");

  experiments::Fig9Config cfg;
  cfg.scheme = scheme == "sff" ? experiments::SchedulingScheme::sff
               : scheme == "baseline"
                   ? experiments::SchedulingScheme::baseline
                   : experiments::SchedulingScheme::pias;
  cfg.variant = experiments::SchedulingVariant::eden;
  cfg.duration = static_cast<netsim::SimTime>(ms) * netsim::kMillisecond;
  cfg.warmup = 10 * netsim::kMillisecond;
  cfg.telemetry.span_sample_every = static_cast<std::uint32_t>(sample);

  telemetry::SpanCollector::instance().reset();
  const experiments::Fig9Result result = experiments::run_fig9(cfg);

  const std::vector<telemetry::SpanEvent> events =
      telemetry::SpanCollector::instance().snapshot();
  const std::string json = telemetry::to_trace_event_json(events);
  if (!bench::write_text_file(out_path, json)) {
    std::fprintf(stderr, "eden-trace: cannot write %s\n", out_path.c_str());
    return 1;
  }

  // --- Summary -----------------------------------------------------------

  std::map<telemetry::Hop, std::uint64_t> hop_counts;
  std::map<std::int64_t, std::set<telemetry::Hop>> per_trace;
  for (const telemetry::SpanEvent& e : events) {
    ++hop_counts[e.hop];
    per_trace[e.trace_id].insert(e.hop);
  }

  std::size_t full_sequences = 0;
  for (const auto& [id, hops] : per_trace) {
    const bool enclave_hop = hops.count(telemetry::Hop::enclave_match) > 0 ||
                             hops.count(telemetry::Hop::action_exec) > 0;
    if (hops.count(telemetry::Hop::stage_classify) > 0 &&
        hops.count(telemetry::Hop::host_enqueue) > 0 && enclave_hop &&
        hops.count(telemetry::Hop::nic_tx) > 0) {
      ++full_sequences;
    }
  }

  std::printf("eden-trace: %s, %ld ms measured, 1-in-%ld sampling\n",
              to_string(cfg.scheme).c_str(), ms, sample);
  std::printf("  completed flows:   %llu\n",
              static_cast<unsigned long long>(result.completed_flows));
  std::printf("  span events:       %zu (%zu traced messages)\n",
              events.size(), per_trace.size());
  for (const auto& [hop, count] : hop_counts) {
    std::printf("  %-16s %10llu\n", telemetry::hop_name(hop),
                static_cast<unsigned long long>(count));
  }
  std::printf("  full stage->host->enclave->nic sequences: %zu\n",
              full_sequences);
  std::printf("  wrote %s (open in https://ui.perfetto.dev)\n",
              out_path.c_str());

  if (events.empty() || full_sequences == 0) {
    std::fprintf(stderr,
                 "eden-trace: no complete lifecycle trace recorded\n");
    return 1;
  }
  return 0;
}
