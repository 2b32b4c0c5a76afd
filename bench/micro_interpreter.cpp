// Microbenchmarks of the EAL toolchain: interpreter dispatch, the
// paper's action functions interpreted vs their native twins, the
// tail-call-optimization ablation, compile and serialize costs.
//
// Besides the google-benchmark suite, main() runs a fixed-format sweep
// of every Table-1 function at -O0, -O1 and native and writes the
// results to BENCH_interpreter.json (override with --json=PATH), so the
// optimizer's speedup is tracked as a build artifact. The sweep also
// runs each function through a full enclave three times — telemetry
// off, telemetry on (counters + sampled histograms), and lifecycle span
// tracing at 1-in-128 — to track both instruments' overhead, and dumps
// the telemetry-enabled enclaves' aggregated snapshot to
// TELEMETRY_interpreter.json (override with --telemetry-json=PATH).
// --smoke shrinks every loop for CI.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/enclave.h"
#include "core/enclave_schema.h"
#include "functions/registry.h"
#include "functions/scheduling.h"
#include "functions/wcmp.h"
#include "lang/compiler.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "telemetry/snapshot.h"
#include "telemetry/span.h"

namespace {

using namespace eden;

struct ProgramFixture {
  lang::StateSchema schema;
  lang::CompiledProgram program;
  lang::StateBlock packet, message, global;
  lang::Interpreter interp;

  ProgramFixture(const functions::NetworkFunction& fn, bool tco = true,
                 lang::OptLevel level = lang::OptLevel::O0)
      : schema(core::make_enclave_schema(fn.global_fields())) {
    lang::CompileOptions options;
    options.tail_call_optimization = tco;
    options.opt_level = level;
    program = lang::compile_source(fn.source(), schema, options, fn.name());
    packet = lang::StateBlock::from_schema(schema, lang::Scope::packet);
    message = lang::StateBlock::from_schema(schema, lang::Scope::message);
    global = lang::StateBlock::from_schema(schema, lang::Scope::global);
  }
};

void BM_Interpret_ArithmeticLoop(benchmark::State& state) {
  // Pure dispatch cost: a counted loop of arithmetic, no state access.
  // The benchmark argument is the optimization level.
  lang::StateSchema schema;
  lang::CompileOptions options;
  options.opt_level = state.range(0) == 0 ? lang::OptLevel::O0
                                          : lang::OptLevel::O1;
  const auto program = lang::compile_source(R"(fun(p) ->
      let i = 0 in
      let acc = 0 in
      (while i < 100 do acc <- acc + i * 3 - 1; i <- i + 1 done; acc))",
                                            schema, options);
  lang::Interpreter interp;
  for (auto _ : state) {
    auto r = interp.execute(program, nullptr, nullptr, nullptr);
    benchmark::DoNotOptimize(r.value);
  }
  state.SetItemsProcessed(state.iterations() * 100);  // loop iterations
}
BENCHMARK(BM_Interpret_ArithmeticLoop)->Arg(0)->Arg(1);

void BM_Pias_Interpreted(benchmark::State& state) {
  functions::PiasFunction pias;
  ProgramFixture fx(pias, /*tco=*/true,
                    state.range(0) == 0 ? lang::OptLevel::O0
                                        : lang::OptLevel::O1);
  fx.global.arrays[0].stride = 2;
  fx.global.arrays[0].data = {10240, 7, 1048576, 5};
  fx.packet.scalars[core::PacketSlot::size] = 1514;
  fx.message.scalars[core::MessageSlot::priority] = 1;
  for (auto _ : state) {
    fx.message.scalars[core::MessageSlot::size] = 0;
    auto r = fx.interp.execute(fx.program, &fx.packet, &fx.message,
                               &fx.global);
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_Pias_Interpreted)->Arg(0)->Arg(1);

void BM_Pias_Interpreted_NoTCO(benchmark::State& state) {
  functions::PiasFunction pias;
  ProgramFixture fx(pias, /*tco=*/false);
  fx.global.arrays[0].stride = 2;
  fx.global.arrays[0].data = {10240, 7, 1048576, 5};
  fx.packet.scalars[core::PacketSlot::size] = 1514;
  fx.message.scalars[core::MessageSlot::priority] = 1;
  // Large message so the threshold search recurses deeper.
  for (auto _ : state) {
    fx.message.scalars[core::MessageSlot::size] = 500000;
    auto r = fx.interp.execute(fx.program, &fx.packet, &fx.message,
                               &fx.global);
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_Pias_Interpreted_NoTCO);

void BM_Pias_NativeTwin(benchmark::State& state) {
  functions::PiasFunction pias;
  ProgramFixture fx(pias);
  fx.global.arrays[0].stride = 2;
  fx.global.arrays[0].data = {10240, 7, 1048576, 5};
  fx.packet.scalars[core::PacketSlot::size] = 1514;
  fx.message.scalars[core::MessageSlot::priority] = 1;
  auto native = pias.native();
  util::Rng rng(7);
  core::NativeCtx ctx{rng, 0};
  for (auto _ : state) {
    fx.message.scalars[core::MessageSlot::size] = 0;
    auto status = native(fx.packet, &fx.message, &fx.global, ctx);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_Pias_NativeTwin);

void BM_Wcmp_Interpreted(benchmark::State& state) {
  functions::WcmpFunction wcmp;
  ProgramFixture fx(wcmp, /*tco=*/true,
                    state.range(0) == 0 ? lang::OptLevel::O0
                                        : lang::OptLevel::O1);
  fx.global.arrays[0].stride = 3;
  fx.global.arrays[0].data = {2, 11, 909, 2, 12, 91};  // dst,label,weight
  fx.packet.scalars[core::PacketSlot::dst] = 2;
  for (auto _ : state) {
    auto r = fx.interp.execute(fx.program, &fx.packet, &fx.message,
                               &fx.global);
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_Wcmp_Interpreted)->Arg(0)->Arg(1);

void BM_Compile_Pias(benchmark::State& state) {
  functions::PiasFunction pias;
  const auto schema = core::make_enclave_schema(pias.global_fields());
  for (auto _ : state) {
    auto program = lang::compile_source(pias.source(), schema);
    benchmark::DoNotOptimize(program.code.size());
  }
}
BENCHMARK(BM_Compile_Pias);

void BM_Optimize_Pias(benchmark::State& state) {
  functions::PiasFunction pias;
  const auto schema = core::make_enclave_schema(pias.global_fields());
  const auto program = lang::compile_source(pias.source(), schema);
  for (auto _ : state) {
    auto optimized = lang::optimize(program, lang::OptLevel::O1);
    benchmark::DoNotOptimize(optimized.code.size());
  }
}
BENCHMARK(BM_Optimize_Pias);

void BM_Serialize_RoundTrip(benchmark::State& state) {
  functions::PiasFunction pias;
  const auto schema = core::make_enclave_schema(pias.global_fields());
  const auto program = lang::compile_source(pias.source(), schema);
  for (auto _ : state) {
    auto copy = lang::CompiledProgram::deserialize(program.serialize());
    benchmark::DoNotOptimize(copy.code.size());
  }
}
BENCHMARK(BM_Serialize_RoundTrip);

// --- Table-1 sweep: -O0 vs -O1 vs native, emitted as JSON ---------------

struct SweepState {
  lang::StateBlock packet, message, global;
};

// Plausible inputs shared by every function (mirrors the differential
// test sweep): a full-size packet, a mid-flight message and three
// records of global table content.
SweepState make_inputs(const lang::StateSchema& schema) {
  SweepState s;
  s.packet = lang::StateBlock::from_schema(schema, lang::Scope::packet);
  s.message = lang::StateBlock::from_schema(schema, lang::Scope::message);
  s.global = lang::StateBlock::from_schema(schema, lang::Scope::global);
  util::Rng vary(4242);
  s.packet.scalars[core::PacketSlot::size] = 1460;
  s.packet.scalars[core::PacketSlot::dst] = vary.range(0, 3);
  s.packet.scalars[core::PacketSlot::dst_port] = vary.range(1000, 1005);
  s.packet.scalars[core::PacketSlot::tenant] = vary.range(0, 2);
  s.packet.scalars[core::PacketSlot::msg_type] = vary.range(1, 2);
  s.packet.scalars[core::PacketSlot::msg_size] = vary.range(0, 100000);
  s.packet.scalars[core::PacketSlot::flow_size] = vary.range(0, 3000000);
  s.packet.scalars[core::PacketSlot::app_priority] = vary.range(0, 2);
  s.packet.scalars[core::PacketSlot::key_hash] = vary.range(0, 1 << 20);
  s.message.scalars[core::MessageSlot::size] = vary.range(0, 100000);
  s.message.scalars[core::MessageSlot::priority] = vary.range(0, 2);
  for (auto& arr : s.global.arrays) {
    for (int r = 0; r < 3 * arr.stride; ++r) {
      arr.data.push_back(vary.range(1, 1000));
    }
  }
  for (auto& scalar : s.global.scalars) scalar = vary.range(0, 2);
  return s;
}

// Loop sizes for the sweep; --smoke shrinks them for CI smoke runs.
int g_sweep_warmup = 5000;
int g_sweep_batch = 50000;
int g_sweep_repeats = 3;

// Best-of-N batches of a packet-processing loop, ns per packet.
// State evolves across iterations (identically for every variant of the
// same function, since the programs are semantically equal).
template <typename RunFn>
double time_ns_per_run(RunFn&& run) {
  const int kWarmup = g_sweep_warmup;
  const int kBatch = g_sweep_batch;
  const int kRepeats = g_sweep_repeats;
  for (int i = 0; i < kWarmup; ++i) run();
  double best = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        kBatch;
    if (ns < best) best = ns;
  }
  return best;
}

// A simulator packet whose marshalled packet-scope state matches the
// sweep inputs above, so the enclave path executes the functions on the
// same data as the bare-interpreter path.
netsim::Packet make_sweep_packet(const SweepState& s) {
  netsim::Packet p;
  const auto& sc = s.packet.scalars;
  p.size_bytes = static_cast<std::uint32_t>(sc[core::PacketSlot::size]);
  p.dst = static_cast<std::uint32_t>(sc[core::PacketSlot::dst]);
  p.dst_port = static_cast<std::uint16_t>(sc[core::PacketSlot::dst_port]);
  p.meta.msg_id = 1;  // stable key: message state persists across runs
  p.meta.msg_type = sc[core::PacketSlot::msg_type];
  p.meta.msg_size = sc[core::PacketSlot::msg_size];
  p.meta.tenant = sc[core::PacketSlot::tenant];
  p.meta.key_hash = sc[core::PacketSlot::key_hash];
  p.meta.flow_size = sc[core::PacketSlot::flow_size];
  p.meta.app_priority = sc[core::PacketSlot::app_priority];
  return p;
}

// Installs `fn` as bytecode behind a match-any rule and loads the sweep
// global state, returning the action id.
core::ActionId install_for_sweep(core::Enclave& enclave,
                                 const functions::NetworkFunction& fn,
                                 const lang::StateSchema& schema,
                                 const SweepState& s) {
  const core::ActionId action = fn.install(enclave, /*use_native=*/false);
  for (const lang::FieldDef& field : fn.global_fields()) {
    const auto slot = schema.find(lang::Scope::global, field.name);
    if (!slot) continue;
    if (slot->kind == lang::FieldKind::scalar) {
      enclave.set_global_scalar(action, field.name,
                                s.global.scalars[slot->slot]);
    } else {
      enclave.set_global_array(action, field.name,
                               s.global.arrays[slot->slot].data);
    }
  }
  const core::TableId table = enclave.create_table("sweep");
  enclave.add_rule(table, core::ClassPattern("*"), action);
  return action;
}

int run_table1_sweep(const std::string& json_path,
                     const std::string& telemetry_path) {
  struct Row {
    std::string name;
    double o0_ns = 0, o1_ns = 0, native_ns = 0;
    double enclave_o1_ns = 0, enclave_tele_ns = 0, enclave_span_ns = 0;
    std::string status = "ok";
  };
  std::vector<Row> rows;
  std::vector<telemetry::EnclaveTelemetry> telemetry_snapshots;

  for (const auto& fn : functions::all_functions()) {
    Row row;
    row.name = fn->name();
    const lang::StateSchema schema =
        core::make_enclave_schema(fn->global_fields());
    const auto o0 = lang::compile_source(fn->source(), schema, {},
                                         fn->name());
    auto o1 = lang::optimize(o0, lang::OptLevel::O1);
    lang::verify_program(o1, schema, lang::ExecLimits{});
    o1.preverified = true;  // the enclave install path the data plane uses

    // Each variant mutates its own copy of identical initial state.
    SweepState s0 = make_inputs(schema);
    SweepState s1 = s0, sn = s0;

    lang::Interpreter i0(lang::ExecLimits{}, 7), i1(lang::ExecLimits{}, 7);
    const auto first =
        i0.execute(o0, &s0.packet, &s0.message, &s0.global).status;
    if (first != lang::ExecStatus::ok) {
      row.status = lang::exec_status_name(first);
      rows.push_back(row);
      continue;
    }

    row.o0_ns = time_ns_per_run([&] {
      auto r = i0.execute(o0, &s0.packet, &s0.message, &s0.global);
      benchmark::DoNotOptimize(r.status);
    });
    row.o1_ns = time_ns_per_run([&] {
      auto r = i1.execute(o1, &s1.packet, &s1.message, &s1.global);
      benchmark::DoNotOptimize(r.status);
    });
    auto native = fn->native();
    util::Rng rng(7);
    core::NativeCtx ctx{rng, 0};
    row.native_ns = time_ns_per_run([&] {
      auto status = native(sn.packet, &sn.message, &sn.global, ctx);
      benchmark::DoNotOptimize(status);
    });

    // Full enclave path (classify -> match -> marshal -> interpret at
    // the install-time -O1), telemetry off vs on. The delta is the
    // Table-1 acceptance number for the instrumentation cost. The two
    // variants' timed batches are interleaved so clock-frequency drift
    // and scheduler noise hit both sides equally; each keeps its best.
    core::ClassRegistry registry;
    core::EnclaveConfig ec_plain;
    core::EnclaveConfig ec_tele;
    ec_tele.telemetry.enabled = true;
    // Third variant: counters/histograms off, lifecycle span tracing on
    // at the production 1-in-128 rate — isolates the span cost from the
    // PR 2 instruments. Acceptance target: <5% geomean overhead.
    core::EnclaveConfig ec_span;
    ec_span.telemetry.span_sample_every = 128;
    core::Enclave plain(std::string("sweep.") + fn->name() + ".plain",
                        registry, ec_plain);
    core::Enclave tele(std::string("sweep.") + fn->name() + ".tele",
                       registry, ec_tele);
    core::Enclave span(std::string("sweep.") + fn->name() + ".span",
                       registry, ec_span);
    install_for_sweep(plain, *fn, schema, make_inputs(schema));
    install_for_sweep(tele, *fn, schema, make_inputs(schema));
    install_for_sweep(span, *fn, schema, make_inputs(schema));
    netsim::Packet pkt_plain = make_sweep_packet(make_inputs(schema));
    netsim::Packet pkt_tele = pkt_plain;
    netsim::Packet pkt_span = pkt_plain;
    row.enclave_o1_ns = 1e30;
    row.enclave_tele_ns = 1e30;
    row.enclave_span_ns = 1e30;
    for (int round = 0; round < 5; ++round) {
      const double ns_plain = time_ns_per_run([&] {
        pkt_plain.drop_mark = false;
        benchmark::DoNotOptimize(plain.process(pkt_plain));
      });
      if (ns_plain < row.enclave_o1_ns) row.enclave_o1_ns = ns_plain;
      const double ns_tele = time_ns_per_run([&] {
        pkt_tele.drop_mark = false;
        benchmark::DoNotOptimize(tele.process(pkt_tele));
      });
      if (ns_tele < row.enclave_tele_ns) row.enclave_tele_ns = ns_tele;
      const double ns_span = time_ns_per_run([&] {
        // Clear the stamp so sampling keeps running — a persistent
        // packet would stay traced forever after the first 1-in-128
        // hit and overstate the cost.
        pkt_span.meta.trace_id = 0;
        pkt_span.drop_mark = false;
        benchmark::DoNotOptimize(span.process(pkt_span));
      });
      if (ns_span < row.enclave_span_ns) row.enclave_span_ns = ns_span;
    }
    telemetry_snapshots.push_back(tele.telemetry_snapshot());
    rows.push_back(row);
  }

  double log_sum = 0;
  int measured = 0;
  double tele_log_sum = 0;
  int tele_measured = 0;
  double span_log_sum = 0;
  int span_measured = 0;
  for (const Row& r : rows) {
    if (r.status == "ok" && r.o1_ns > 0) {
      log_sum += std::log(r.o0_ns / r.o1_ns);
      ++measured;
    }
    if (r.status == "ok" && r.enclave_o1_ns > 0 && r.enclave_tele_ns > 0) {
      tele_log_sum += std::log(r.enclave_tele_ns / r.enclave_o1_ns);
      ++tele_measured;
    }
    if (r.status == "ok" && r.enclave_o1_ns > 0 && r.enclave_span_ns > 0) {
      span_log_sum += std::log(r.enclave_span_ns / r.enclave_o1_ns);
      ++span_measured;
    }
  }
  const double geomean =
      measured > 0 ? std::exp(log_sum / measured) : 0.0;
  // Geomean ratio of enclave ns/packet with telemetry on vs off, minus
  // one: 0.03 = 3% instrumentation overhead. Acceptance target: <5%.
  const double geomean_tele_overhead =
      tele_measured > 0 ? std::exp(tele_log_sum / tele_measured) - 1.0 : 0.0;
  // Same ratio for span tracing at 1-in-128 vs off. Same <5% target.
  const double geomean_span_overhead =
      span_measured > 0 ? std::exp(span_log_sum / span_measured) - 1.0 : 0.0;

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"table1_interpreter\",\n");
  std::fprintf(out, "  \"dispatch\": \"threaded\",\n");
  std::fprintf(out, "  \"functions\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"status\": \"%s\", "
                 "\"o0_ns\": %.1f, \"o1_ns\": %.1f, \"native_ns\": %.1f, "
                 "\"speedup_o1\": %.3f, \"interp_penalty_o1\": %.2f, "
                 "\"enclave_o1_ns\": %.1f, \"enclave_tele_ns\": %.1f, "
                 "\"tele_overhead\": %.4f, \"enclave_span_ns\": %.1f, "
                 "\"span_overhead\": %.4f}%s\n",
                 r.name.c_str(), r.status.c_str(), r.o0_ns, r.o1_ns,
                 r.native_ns, r.o1_ns > 0 ? r.o0_ns / r.o1_ns : 0.0,
                 r.native_ns > 0 ? r.o1_ns / r.native_ns : 0.0,
                 r.enclave_o1_ns, r.enclave_tele_ns,
                 r.enclave_o1_ns > 0
                     ? r.enclave_tele_ns / r.enclave_o1_ns - 1.0
                     : 0.0,
                 r.enclave_span_ns,
                 r.enclave_o1_ns > 0
                     ? r.enclave_span_ns / r.enclave_o1_ns - 1.0
                     : 0.0,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"geomean_speedup_o1\": %.3f,\n"
               "  \"geomean_telemetry_overhead\": %.4f,\n"
               "  \"geomean_span_overhead\": %.4f\n}\n",
               geomean, geomean_tele_overhead, geomean_span_overhead);
  std::fclose(out);

  if (!telemetry_snapshots.empty()) {
    const std::string dump =
        telemetry::to_json(
            telemetry::aggregate(std::move(telemetry_snapshots))) +
        "\n";
    std::FILE* tf = std::fopen(telemetry_path.c_str(), "w");
    if (tf != nullptr) {
      std::fwrite(dump.data(), 1, dump.size(), tf);
      std::fclose(tf);
    }
  }

  std::printf("\nTable-1 sweep (%d functions measured): "
              "geomean -O1 speedup %.2fx, telemetry overhead %+.1f%%,\n"
              "span tracing (1-in-128) overhead %+.1f%%,\n"
              "written to %s (telemetry dump: %s)\n",
              measured, geomean, 100.0 * geomean_tele_overhead,
              100.0 * geomean_span_overhead, json_path.c_str(),
              telemetry_path.c_str());
  for (const Row& r : rows) {
    std::printf("  %-16s %-12s o0 %7.1f ns  o1 %7.1f ns  native %6.1f ns"
                "  speedup %.2fx  enclave %7.1f ns  +tele %7.1f ns"
                "  +span %7.1f ns\n",
                r.name.c_str(), r.status.c_str(), r.o0_ns, r.o1_ns,
                r.native_ns, r.o1_ns > 0 ? r.o0_ns / r.o1_ns : 0.0,
                r.enclave_o1_ns, r.enclave_tele_ns, r.enclave_span_ns);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_interpreter.json";
  std::string telemetry_path = "TELEMETRY_interpreter.json";
  // Strip our own flags before handing argv to google-benchmark.
  for (int i = 1; i < argc;) {
    const std::string arg = argv[i];
    bool consumed = true;
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--telemetry-json=", 0) == 0) {
      telemetry_path = arg.substr(17);
    } else if (arg == "--smoke") {
      g_sweep_warmup = 50;
      g_sweep_batch = 500;
      g_sweep_repeats = 1;
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
  return run_table1_sweep(json_path, telemetry_path);
}
