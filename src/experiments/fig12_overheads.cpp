#include "experiments/fig12_overheads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>

#include "apps/memcached_stage.h"
#include "core/enclave.h"
#include "functions/scheduling.h"
#include "lang/interpreter.h"
#include "util/stats.h"

namespace eden::experiments {

namespace {

using Clock = std::chrono::steady_clock;

// Stand-in for the per-packet work of the vanilla stack. We cannot run
// the paper's Windows kernel stack, so we emulate the dominant per-
// packet costs of a software TCP send path: segment the payload
// (user -> stack copy), compute the Internet checksum, stamp headers
// and hand off through the driver queue (stack -> NIC copy). Everything
// Eden adds is measured on top of this baseline.
struct VanillaPath {
  alignas(64) unsigned char user_buf[netsim::kMssBytes];
  alignas(64) unsigned char stack_buf[netsim::kMssBytes];
  alignas(64) unsigned char nic_buf[netsim::kMssBytes];
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;

  VanillaPath() {
    for (std::size_t i = 0; i < sizeof user_buf; ++i) {
      user_buf[i] = static_cast<unsigned char>(i * 31 + 7);
    }
  }

  static std::uint16_t internet_checksum(const unsigned char* data,
                                         std::size_t len) {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i + 1 < len; i += 2) {
      sum += static_cast<std::uint32_t>(data[i]) << 8 |
             static_cast<std::uint32_t>(data[i + 1]);
    }
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
  }

  inline void prepare(netsim::Packet& p) {
    // user -> stack segment copy + checksum (the kernel's copy+csum).
    std::memcpy(stack_buf, user_buf, sizeof stack_buf);
    sink += internet_checksum(stack_buf, sizeof stack_buf);

    p.src = 1;
    p.dst = 2;
    p.src_port = 10000;
    p.dst_port = 8000;
    p.protocol = netsim::Protocol::tcp;
    p.flow_id = 42;
    p.seq = seq;
    seq += netsim::kMssBytes;
    p.payload_bytes = netsim::kMssBytes;
    p.size_bytes = netsim::kMssBytes + netsim::kHeaderBytes;
    p.priority = 0;
    p.path_label = -1;
    p.rl_queue = -1;
    p.drop_mark = false;
    p.charge_bytes = 0;
  }

  inline void consume(netsim::Packet& p) {
    // stack -> driver DMA-staging copy plus header fold, so the compiler
    // cannot elide the work.
    std::memcpy(nic_buf, stack_buf, sizeof nic_buf);
    sink += nic_buf[1] + p.size_bytes + p.priority +
            static_cast<std::uint64_t>(p.seq);
  }
};

LayerCost summarize(util::Percentiles& samples) {
  LayerCost cost;
  cost.avg_ns = samples.mean();
  cost.p95_ns = samples.p95();
  return cost;
}

}  // namespace

Fig12Result run_fig12(const Fig12Config& config) {
  Fig12Result result;

  core::ClassRegistry registry;
  apps::MemcachedStage stage(registry);
  stage.create_rule("r1", {core::FieldPattern::exact("GET"),
                           core::FieldPattern::any()},
                    "GET");
  stage.create_rule("r1", {core::FieldPattern::exact("PUT"),
                           core::FieldPattern::any()},
                    "PUT");
  const core::MessageAttrs attrs = apps::MemcachedStage::get_attrs("key42");

  // Two enclaves: one with the native no-op twin (isolates match-action
  // + marshalling cost), one with the bytecode program (adds pure
  // interpretation).
  core::EnclaveConfig enclave_config;
  enclave_config.telemetry = config.telemetry;
  core::Enclave native_enclave("fig12.native", registry, enclave_config);
  core::Enclave eden_enclave("fig12.eden", registry, enclave_config);

  const functions::PiasFunction pias;
  const functions::SffFunction sff;
  const functions::NetworkFunction& fn =
      config.use_pias ? static_cast<const functions::NetworkFunction&>(pias)
                      : sff;

  const core::ActionId native_action = fn.install(native_enclave, true);
  const core::ActionId eden_action = fn.install(eden_enclave, false);
  const std::int64_t limits[] = {10 * 1024, 1024 * 1024};
  const std::int64_t prios[] = {7, 5};
  functions::push_priority_thresholds(native_enclave, native_action, limits,
                                      prios);
  functions::push_priority_thresholds(eden_enclave, eden_action, limits,
                                      prios);
  for (core::Enclave* enclave : {&native_enclave, &eden_enclave}) {
    const core::TableId table = enclave->create_table("sched");
    enclave->add_rule(table, core::ClassPattern("*"),
                      enclave == &native_enclave ? native_action
                                                 : eden_action);
  }

  // Classification happens per message; packets of the message carry the
  // result. We re-classify every kPacketsPerMessage packets.
  constexpr std::uint64_t kPacketsPerMessage = 16;

  enum class Layer { vanilla, api, enclave, interpreter };
  auto measure = [&](Layer layer, std::uint64_t packets) {
    VanillaPath path;
    util::Percentiles samples;
    netsim::PacketMeta available;
    available.msg_size = 64 * 1024;
    available.flow_size = 64 * 1024;
    core::Classification cls;
    netsim::Packet packet;

    const std::uint64_t total = config.warmup_packets + packets;
    std::uint64_t in_batch = 0;
    Clock::time_point batch_start{};
    for (std::uint64_t i = 0; i < total; ++i) {
      const bool measuring = i >= config.warmup_packets;
      if (measuring && in_batch == 0) batch_start = Clock::now();

      path.prepare(packet);
      if (layer != Layer::vanilla) {
        // The Eden API: per-message classification, per-packet stamping.
        if (i % kPacketsPerMessage == 0) {
          cls = stage.classify(attrs, available);
        }
        packet.classes = cls.classes;
        packet.meta = cls.meta;
        packet.meta.flow_size = available.flow_size;
      }
      if (layer == Layer::enclave) {
        native_enclave.process(packet);
      } else if (layer == Layer::interpreter) {
        eden_enclave.process(packet);
      }
      path.consume(packet);

      if (measuring && ++in_batch == config.batch) {
        const auto elapsed = Clock::now() - batch_start;
        samples.add(static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            elapsed)
                            .count()) /
                    static_cast<double>(config.batch));
        in_batch = 0;
      }
    }
    return summarize(samples);
  };

  // The layers are measured in interleaved rounds and each reports its
  // cheapest round: a scheduler stall or clock dip on a shared machine
  // lands on one round of one layer and drops out, instead of inflating
  // that layer's whole pass and reordering the layers.
  constexpr std::uint64_t kRounds = 5;
  const std::uint64_t round_packets =
      std::max(config.packets / kRounds, config.batch);
  const Layer layers[] = {Layer::vanilla, Layer::api, Layer::enclave,
                          Layer::interpreter};
  LayerCost* const costs[] = {&result.vanilla, &result.api, &result.enclave,
                              &result.interpreter};
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::size_t l = 0; l < std::size(layers); ++l) {
      const LayerCost cost = measure(layers[l], round_packets);
      if (round == 0 || cost.avg_ns < costs[l]->avg_ns) *costs[l] = cost;
    }
  }

  auto overhead = [](double with, double without) {
    return without > 0.0 ? (with - without) / without : 0.0;
  };
  result.api_overhead_avg = overhead(result.api.avg_ns, result.vanilla.avg_ns);
  result.api_overhead_p95 = overhead(result.api.p95_ns, result.vanilla.p95_ns);
  result.enclave_overhead_avg =
      overhead(result.enclave.avg_ns, result.vanilla.avg_ns);
  result.enclave_overhead_p95 =
      overhead(result.enclave.p95_ns, result.vanilla.p95_ns);
  result.interpreter_overhead_avg =
      overhead(result.interpreter.avg_ns, result.vanilla.avg_ns);
  result.interpreter_overhead_p95 =
      overhead(result.interpreter.p95_ns, result.vanilla.p95_ns);

  // Section 5.4 footprint: execute the program once against scratch
  // state and read the high-water marks.
  {
    const lang::CompiledProgram program = fn.compile();
    const lang::StateSchema schema =
        core::make_enclave_schema(fn.global_fields());
    lang::StateBlock pkt =
        lang::StateBlock::from_schema(schema, lang::Scope::packet);
    lang::StateBlock msg =
        lang::StateBlock::from_schema(schema, lang::Scope::message);
    lang::StateBlock glb =
        lang::StateBlock::from_schema(schema, lang::Scope::global);
    glb.arrays[0].stride = 2;
    glb.arrays[0].data = {10 * 1024, 7, 1024 * 1024, 5};
    lang::Interpreter interp;
    const lang::ExecResult r = interp.execute(program, &pkt, &msg, &glb);
    result.operand_stack_bytes = r.max_stack * 8ULL;
    result.locals_bytes = r.max_locals * 8ULL;
    result.bytecode_instructions = program.code.size();
  }
  if (config.telemetry.enabled) {
    // No controller here: the two standalone enclaves aggregate by hand.
    result.telemetry_json = telemetry::to_json(telemetry::aggregate(
        {native_enclave.telemetry_snapshot(), eden_enclave.telemetry_snapshot()}));
  }
  return result;
}

}  // namespace eden::experiments
