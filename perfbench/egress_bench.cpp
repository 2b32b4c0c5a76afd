// egress_bench: Eden's egress path end to end, for one workload and one
// seed.
//
//   egress_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--git-sha SHA] [--spans-out PATH] [--plant-fault SEQ]
//
// The path, through public calls only: Stage::classify (once per
// message) -> make_packet (pool) -> DataPlane::submit_burst -> workers in
// Enclave::process_batch -> DataPlane::drain_completions. A run sets up
// several times (set-up time is the median), then measures three phases
// that take turns in kWindows slices over one continuous seeded stream:
// inline (one thread calls process_batch directly), sharded (closed loop,
// 1 producer + 2 workers) and open (1 producer + 2 workers at the
// workload's fixed offered rate). Each slice's inputs are generated
// before its timer starts and its outputs checked after it stops. Every
// output is checked against a single-threaded Enclave::process reference
// over the same stream. The last stdout line is the result object; with
// --trace 1 it carries the per-layer ledger instead of the end-to-end
// metrics. Exit status is 0 only when every output checked out.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "telemetry/span.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::string git_sha = "unknown";
  std::string spans_out;
  BenchOptions opt;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "egress_bench: %s\nusage: egress_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--spans-out PATH] "
               "[--plant-fault SEQ]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = v;
      } else if (key == "--seed") {
        a.opt.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.opt.seconds = std::stod(v);
      } else if (key == "--trace") {
        a.opt.trace = v == "1";
      } else if (key == "--git-sha") {
        a.git_sha = v;
      } else if (key == "--spans-out") {
        a.spans_out = v;
      } else if (key == "--plant-fault") {
        a.opt.plant_fault = std::stoll(v);
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.opt.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
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

std::string fingerprint(const Args& a) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::string flags = EDEN_BENCH_CXX_FLAGS;
  bool sanitizer = flags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitizer = true;
#endif
  const std::string build_type = EDEN_BENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  const bool flagged = sanitizer || asserts || build_type == "Debug";
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"compiler\": \"" << json_escape(compiler) << "\""
    << ", \"build_type\": \"" << json_escape(build_type) << "\""
    << ", \"sanitizer\": " << (sanitizer ? "true" : "false")
    << ", \"asserts\": " << (asserts ? "true" : "false")
    << ", \"debug_or_sanitizer_build\": " << (flagged ? "true" : "false")
    << ", \"git_sha\": \"" << json_escape(a.git_sha) << "\""
    << ", \"seed\": " << a.opt.seed << "}";
  if (flagged) {
    std::printf("WARNING: debug or sanitizer build; timings are not comparable\n");
  }
  return o.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Mean of the values between the first and third quartile: robust to a
// few spiking slices like the median, but it averages the host's slow and
// fast spells within a run instead of snapping to one of them.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Open-loop latency is summarised per group of kLatencyGroup consecutive
// completions: the reported p50 and p99 are the interquartile means over
// groups of each group's p50 and p99 (p99 of 4096 samples leaves 40
// beyond it). Host-level hiccups on a shared box land in a few groups and
// move the result little, where they would dominate one pooled p99.
constexpr std::size_t kLatencyGroup = 4096;

struct Latency {
  double p50 = 0, p99 = 0;
  std::size_t samples = 0;
};

Latency open_latency(const Bench& b) {
  Latency l;
  std::vector<double> p50, p99;
  std::vector<float> group;
  for (const auto& slice : b.latency_us) {
    l.samples += slice.size();
    for (const float us : slice) {
      group.push_back(us);
      if (group.size() == kLatencyGroup) {
        p50.push_back(quantile(group, 0.50));
        p99.push_back(quantile(group, 0.99));
        group.clear();
      }
    }
  }
  l.p50 = interquartile_mean(p50);
  l.p99 = interquartile_mean(p99);
  return l;
}

// The end-to-end set. Open-loop latency and txn p50 and p99 are
// reported with the per-layer metrics instead: on a shared VM their
// spread over ten seeds, or their shift between two sets of the same
// code, reached the 0.25 bound a later change is held to. Txn p99 of
// ~1000 samples moved with the few host stalls of several ms that hit
// some runs; p90 leaves ~100 samples beyond it.
//
// Every end-to-end time is normalised: each slice's (or set-up's, or
// txn's) wall time is divided by the reference kernel's time beside it on
// the same CPUs and multiplied by the kernel's idle time (calib.h), so it
// is stated at an idle core's speed. Raw wall-clock times moved by 0.3 to
// 0.45 of their median between runs of the same code as the host's load
// changed; normalised, by 0.02 to 0.15. The wall-clock figures and the
// kernel's own time are per-layer metrics, written into b.layer here.
//
// The closed loop runs on three CPUs, so its rate is normalised by their
// mean kernel time. Medians over slices leave out the slices a short
// stall hit; a txn is normalised by the producer CPU of its slice.
std::vector<Metric> end_to_end(Bench& b) {
  const double idle = ReferenceKernel::kIdleNs;
  std::vector<double> inline_ns, pps, wall_inline_ns, wall_pps, setup_s, txn_us;
  for (std::size_t i = 0; i < kWindows; ++i) {
    if (b.inline_windows.packets[i] > 0) {
      const double ns = static_cast<double>(b.inline_windows.ns[i]) /
                        static_cast<double>(b.inline_windows.packets[i]);
      wall_inline_ns.push_back(ns);
      inline_ns.push_back(ns * idle / b.inline_ref_ns[i]);
    }
    if (b.sharded_windows.ns[i] > 0) {
      const double rate = static_cast<double>(b.sharded_windows.packets[i]) * 1e9 /
                          static_cast<double>(b.sharded_windows.ns[i]);
      const auto& ref = b.sharded_ref_ns[i];
      wall_pps.push_back(rate);
      pps.push_back(rate * (ref[0] + ref[1] + ref[2]) / 3 / idle);
    }
  }
  for (std::size_t k = 0; k < b.setup_s.size(); ++k) {
    setup_s.push_back(b.setup_s[k] * idle / b.setup_ref_ns[k]);
  }
  for (std::size_t k = 0; k < b.txn_us.size(); ++k) {
    txn_us.push_back(b.txn_us[k] * idle / b.sharded_ref_ns[b.txn_slice[k]][0]);
  }
  b.layer["bench.inline_wall_ns_per_pkt"] = median(wall_inline_ns);
  b.layer["bench.wall_pkts_per_s"] = median(wall_pps);
  b.layer["bench.ref_kernel_ns"] =
      median(std::vector<double>(b.inline_ref_ns.begin(), b.inline_ref_ns.end()));
  return {
      {"setup_s", median(setup_s), "s"},
      {"pkts_per_s", median(pps), "1/s"},
      {"inline_ns_per_pkt", median(inline_ns), "ns"},
      {"txn_p90_us", quantile(txn_us, 0.90), "us"},
      {"peak_rss_mb", b.peak_rss_mb, "MB"},
  };
}

std::string layer_unit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string suf = s;
    return name.size() >= suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_frac")) return "frac";
  if (ends("_per_kpkt") || name == "stage.classify_calls") return "count/kpkt";
  if (ends("_per_s")) return "1/s";
  if (name == "cp.bytes_per_txn" || name == "telemetry.delta_bytes") return "bytes";
  if (name.find("ns") != std::string::npos) return "ns";
  if (name == "interp.steps_per_pkt" || name == "dataplane.batch_mean" ||
      name == "state.probe_len_p99" || name == "dataplane.imbalance") {
    return "ratio";
  }
  return "count";
}

void write_spans(const Tracer& t, const std::string& path) {
  std::ofstream out(path);
  out << "{\"layers\": [";
  for (std::size_t i = 0; i < Tracer::kLayers; ++i) {
    out << (i ? ", " : "") << '"' << layer_name(static_cast<Layer>(i)) << '"';
  }
  out << "],\n \"fields\": [\"id\", \"parent\", \"layer\", \"start_ns\", "
         "\"end_ns\"],\n \"spans\": [";
  bool first = true;
  for (const auto& s : t.raw()) {
    out << (first ? "\n" : ",\n") << '[' << s.id << ", " << s.parent << ", "
        << static_cast<int>(s.layer) << ", " << s.start_ns << ", " << s.end_ns
        << ']';
    first = false;
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  const std::string fp = fingerprint(args);

  Bench bench(*w, args.opt);
  if (!bench.run()) {
    std::fprintf(stderr, "egress_bench: control-plane set-up failed\n");
    return 1;
  }
  telemetry::SpanCollector::instance().disable();

  const std::size_t ref_threads = std::max<std::size_t>(
      1, std::min<std::size_t>(3, std::thread::hardware_concurrency() - 1));
  const CheckResult check = check_against_reference(
      *w, args.opt.seed, bench.segments, bench.digests, ref_threads);
  std::uint64_t stream = 0;
  for (const std::uint64_t n : bench.phase_packets) stream += n;

  const std::uint64_t action_errors =
      static_cast<std::uint64_t>(bench.layer["interp.errors"]);
  const std::uint64_t attempted = stream + bench.txns;
  const std::uint64_t failed = check.failed + bench.pool_failures +
                               bench.bad_outputs + bench.invalid_paths +
                               action_errors + bench.txn_failed;
  const bool correct = failed == 0 && check.packets == stream;
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  const Latency lat = open_latency(bench);
  const std::size_t lat_samples = lat.samples;
  const std::vector<Metric> e2e = end_to_end(bench);
  bench.layer["lat_p50_us"] = lat.p50;
  bench.layer["lat_p99_us"] = lat.p99;
  bench.layer["txn_p50_us"] = quantile(bench.txn_us, 0.50);
  bench.layer["txn_p99_us"] = quantile(bench.txn_us, 0.99);
  std::vector<Metric> layers;
  for (const auto& [name, v] : bench.layer) layers.push_back({name, v, layer_unit(name)});

  std::printf("workload %s seed %llu: %llu packets (prefill %llu, inline %llu, "
              "sharded %llu, open %llu), %llu txns\n",
              w->name.c_str(), static_cast<unsigned long long>(args.opt.seed),
              static_cast<unsigned long long>(stream),
              static_cast<unsigned long long>(bench.phase_packets[kPrefill]),
              static_cast<unsigned long long>(bench.phase_packets[kInline]),
              static_cast<unsigned long long>(bench.phase_packets[kSharded]),
              static_cast<unsigned long long>(bench.phase_packets[kOpen]),
              static_cast<unsigned long long>(bench.txns));
  std::printf("check: %llu outputs compared, %llu failed (mismatch %llu, pool "
              "%llu, stray %llu, invalid path %llu, action errors %llu, "
              "txns %llu); fail_frac %.6g\n",
              static_cast<unsigned long long>(check.packets),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(bench.pool_failures),
              static_cast<unsigned long long>(bench.bad_outputs),
              static_cast<unsigned long long>(bench.invalid_paths),
              static_cast<unsigned long long>(action_errors),
              static_cast<unsigned long long>(bench.txn_failed), fail_frac);
  std::printf("open loop: offered %.0f pkt/s, %zu latency samples; %zu txn "
              "samples\n",
              bench.open_issued_pps, lat_samples, bench.txn_us.size());
  std::printf("windows: inline ns/pkt");
  for (std::size_t i = 0; i < kWindows; ++i) {
    std::printf(" %.0f", static_cast<double>(bench.inline_windows.ns[i]) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, bench.inline_windows.packets[i])));
  }
  std::printf("; sharded kpkt/s");
  for (std::size_t i = 0; i < kWindows; ++i) {
    std::printf(" %.0f", static_cast<double>(bench.sharded_windows.packets[i]) *
                             1e6 / static_cast<double>(std::max<std::int64_t>(
                                       1, bench.sharded_windows.ns[i])));
  }
  std::printf("; ref inline us");
  for (const double ns : bench.inline_ref_ns) std::printf(" %.1f", ns / 1e3);
  const char* roles[3] = {"producer", "worker0", "worker1"};
  for (int c = 0; c < 3; ++c) {
    std::printf("; ref %s us", roles[c]);
    for (const auto& r : bench.sharded_ref_ns) std::printf(" %.1f", r[c] / 1e3);
  }
  for (int k = 0; k < 4; ++k) {
    std::printf("; alt%d us", k);
    for (const auto& r : bench.alt_ref) std::printf(" %.1f", r[k] / 1e3);
  }
  std::printf("; setup us");
  for (const double s : bench.setup_s) std::printf(" %.1f", s * 1e6);
  std::printf("; ref setup us");
  for (const double ns : bench.setup_ref_ns) std::printf(" %.1f", ns / 1e3);
  std::printf("; txn us p50 %.0f p90 %.0f p99 %.0f max %.0f",
              quantile(bench.txn_us, 0.5), quantile(bench.txn_us, 0.9),
              quantile(bench.txn_us, 0.99), quantile(bench.txn_us, 1.0));
  std::printf("; open p99 us");
  for (std::size_t i = 0; i < kWindows; ++i) {
    std::printf(" %.0f", quantile(bench.latency_us[i], 0.99));
  }
  std::printf("\n");
  const auto& shown = args.opt.trace ? layers : e2e;
  for (const Metric& m : shown) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.opt.trace) {
    std::printf("inline ledger (ns/pkt, traced batches):\n");
    for (const auto& [name, ns] : bench.ledger) {
      std::printf("  %-34s %10.2f\n", name.c_str(), ns);
    }
    if (!args.spans_out.empty()) write_spans(bench.tracer(), args.spans_out);
  }

  std::ostringstream detail;
  detail << "{\"workload\": \"" << w->name << "\", \"trace\": "
         << (args.opt.trace ? 1 : 0) << ", \"fingerprint\": " << fp
         << ", \"fail_frac\": " << num(fail_frac)
         << ", \"latency_samples\": " << lat_samples
         << ", \"txn_samples\": " << bench.txn_us.size()
         << ", \"offered_pkts_per_s\": " << num(bench.open_issued_pps)
         << ", \"ledger_ns_per_pkt\": {";
  bool first = true;
  for (const auto& [name, ns] : bench.ledger) {
    detail << (first ? "" : ", ") << '"' << name << "\": " << num(ns);
    first = false;
  }
  detail << "}}";
  std::printf("DETAIL %s\n", detail.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < shown.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                shown[i].name.c_str(), num(shown[i].value).c_str(),
                shown[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
