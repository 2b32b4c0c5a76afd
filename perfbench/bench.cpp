#include "bench.h"

#include <algorithm>
#include <cmath>

#include "hoststack/dataplane.h"
#include "netsim/packet_pool.h"

namespace perfbench {

namespace {

constexpr std::size_t kBurst = 64;

// Inline batches alternate between traced and untraced runs of this
// many batches, so the traced run prices its own spans.
constexpr std::uint64_t kTraceStride = 32;

// The first slice of a phase assumes this rate; later slices take the
// rate the phase's previous slice measured.
constexpr double kFirstRate = 1e6;

}  // namespace

Bench::Bench(const WorkloadSpec& w, BenchOptions opt)
    : w_(w), opt_(opt), tr_(opt.trace ? &tracer_ : nullptr) {
  for (std::size_t p = 0; p < kPhases; ++p) digests.emplace_back(phase_shards(p));
  // Sized and touched here, outside set-up, so every run holds the same
  // buffer memory.
  slice_.in.resize(kSliceCapacity);
  slice_.out.resize(kSliceCapacity);
  rung_batch_.resize(kBurst);
  rate_.fill(kFirstRate);
}

bool Bench::setup() {
  rungs_.clear();
  stream_.reset();
  rule_.reset();
  host_.reset();
  digests[kPrefill] = PhaseDigest(phase_shards(kPrefill));

  const double ref0 = ref_.time();
  const std::int64_t t0 = now_ns();
  host_ = std::make_unique<Host>(w_, opt_.seed, w_.managed);
  if (!host_->program_via_session()) return false;
  stream_ = std::make_unique<InputStream>(w_, opt_.seed, host_->stage);
  rule_ = std::make_unique<OutputRule>(w_, host_->registry);
  if (opt_.trace) make_rungs();
  // Prefill: one packet per live message slot, so the state the phases
  // run against is resident before timing starts.
  Batch batch(kBurst);
  for (std::uint64_t left = w_.live; left > 0;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kSliceCapacity));
    generate(n);
    for (std::size_t k = 0; k < n; k += kBurst) {
      const std::size_t m = std::min(kBurst, n - k);
      inline_batch(batch, k, m);
      if (!rungs_.empty()) feed_rungs(k, m, false);
    }
    fold(digests[kPrefill]);
    left -= n;
  }
  setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  setup_ref_ns.push_back((ref0 + ref_.time()) / 2);
  return true;
}

bool Bench::setup_again() {
  std::unique_ptr<Host> host = std::move(host_);
  std::unique_ptr<InputStream> stream = std::move(stream_);
  std::unique_ptr<OutputRule> rule = std::move(rule_);
  PhaseDigest prefill = std::move(digests[kPrefill]);
  const std::int64_t enclave_ns = main_enclave_ns_;
  const std::uint64_t enclave_packets = main_enclave_packets_;
  const bool ok = setup();
  host_ = std::move(host);
  stream_ = std::move(stream);
  rule_ = std::move(rule);
  digests[kPrefill] = std::move(prefill);
  main_enclave_ns_ = enclave_ns;
  main_enclave_packets_ = enclave_packets;
  return ok;
}

void Bench::add_segment(std::size_t phase, std::uint64_t since) {
  const std::uint64_t n = stream_->produced() - since;
  if (n == 0) return;
  if (!segments.empty() && segments.back().phase == phase) {
    segments.back().packets += n;
  } else {
    segments.push_back(Segment{phase, n});
  }
  phase_packets[phase] += n;
}

void Bench::add_spans(std::size_t phase) {
  const auto& t = tracer_.all_totals();
  for (std::size_t l = 0; l < Tracer::kLayers; ++l) {
    spans_[phase][l].total_ns += t[l].total_ns;
    spans_[phase][l].self_ns += t[l].self_ns;
    spans_[phase][l].spans += t[l].spans;
  }
  tracer_.reset_totals();
}

void Bench::make_rungs() {
  fn_of_class_.assign(host_->registry.size() + w_.classes, -1);
  for (std::size_t i = 0; i < w_.classes; ++i) {
    const core::ClassId id = host_->registry.intern(class_pattern(i));
    if (fn_of_class_.size() <= id) fn_of_class_.resize(id + 1, -1);
    fn_of_class_[id] = static_cast<int>(i % w_.functions.size());
  }
  const auto add = [&](std::string name, std::string only_fn, Variant v,
                       bool telemetry) {
    Rung r;
    r.name = std::move(name);
    r.only_fn = std::move(only_fn);
    r.enclave = std::make_unique<core::Enclave>(
        "rung." + r.name, host_->registry,
        enclave_config(w_, opt_.seed, telemetry));
    r.clock = std::make_unique<std::atomic<std::int64_t>>(0);
    r.enclave->set_clock(&read_clock, r.clock.get());
    program_enclave(*r.enclave, w_, v, r.only_fn);
    rungs_.push_back(std::move(r));
  };
  add("bytecode", "", Variant::bytecode, w_.managed);
  add("native", "", Variant::native, w_.managed);
  add("nostate", "", Variant::nostate, w_.managed);
  if (w_.managed) add("telemetry_off", "", Variant::bytecode, false);
  if (w_.functions.size() > 1) {
    for (const std::string& fn : w_.functions) {
      add("bytecode:" + fn, fn, Variant::bytecode, w_.managed);
      add("native:" + fn, fn, Variant::native, w_.managed);
    }
  }
}

void Bench::generate(std::size_t n) {
  slice_.base = stream_->produced();
  slice_.size = n;
  slice_.outputs = 0;
  const std::int64_t classify0 = stream_->classify_ns();
  for (std::size_t i = 0; i < n; ++i) {
    netsim::Packet& p = slice_.in[i];
    p = netsim::Packet{};
    stream_->next(p);
  }
  slice_.classify_ns = stream_->classify_ns() - classify0;
}

std::size_t Bench::slice_packets(std::size_t phase, double seconds) const {
  const auto n = static_cast<std::size_t>(rate_[phase] * seconds);
  return std::clamp<std::size_t>(n / kBurst * kBurst, kBurst, kSliceCapacity);
}

void Bench::make_packets(Batch& batch, std::size_t n) {
  Span span(tr_, Layer::pool_make);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i] = netsim::try_make_packet();
    if (!batch[i]) {
      // Counted as a failure; the heap copy keeps the stream intact.
      ++pool_failures;
      batch[i] = netsim::make_packet();
    }
  }
}

void Bench::fill(Batch& batch, std::size_t first, std::size_t n) {
  Span span(tr_, Layer::bench_gen);
  for (std::size_t i = 0; i < n; ++i) *batch[i] = slice_.in[first + i];
  host_->clock.store(static_cast<std::int64_t>(slice_.base + first + n),
                     std::memory_order_relaxed);
}

void Bench::take_outputs(Batch& batch, std::size_t n, std::int64_t done_ns) {
  {
    Span span(tr_, Layer::bench_check);
    for (std::size_t i = 0; i < n; ++i) {
      const netsim::Packet& p = *batch[i];
      if (slice_.outputs == slice_.out.size()) {
        ++bad_outputs;
        continue;
      }
      const std::uint64_t index = p.debug_id - slice_.base;
      slice_.out[slice_.outputs++] = Output{
          index < slice_.size ? static_cast<std::uint32_t>(index) : UINT32_MAX,
          p.priority, p.drop_mark, p.path_label, p.rl_queue, p.charge_bytes,
          done_ns};
    }
  }
  Span span(tr_, Layer::pool_release);
  for (std::size_t i = 0; i < n; ++i) batch[i].reset();
}

void Bench::fold(PhaseDigest& d) {
  for (std::size_t i = 0; i < slice_.outputs; ++i) {
    const Output& o = slice_.out[i];
    if (o.index >= slice_.size) {
      ++bad_outputs;
      continue;
    }
    netsim::Packet& p = slice_.in[o.index];
    p.priority = o.priority;
    p.drop_mark = o.drop_mark;
    p.path_label = o.path_label;
    p.rl_queue = o.rl_queue;
    p.charge_bytes = o.charge_bytes;
    if (static_cast<std::int64_t>(p.debug_id) == opt_.plant_fault) {
      p.priority ^= 1;
    }
    const std::size_t shard =
        d.shards() == 1 ? 0
                        : hoststack::DataPlane::shard_of(
                              core::Enclave::steering_key(p), d.shards());
    d.fold(*rule_, shard, p);
  }
}

void Bench::inline_batch(Batch& batch, std::size_t first, std::size_t n) {
  Span root(tr_, Layer::inline_batch);
  make_packets(batch, n);
  fill(batch, first, n);
  {
    Span span(tr_, Layer::enclave_batch);
    const std::int64_t t0 = now_ns();
    host_->enclave->process_batch(std::span(batch.data(), n));
    main_enclave_ns_ += now_ns() - t0;
    main_enclave_packets_ += n;
  }
  take_outputs(batch, n, 0);
}

void Bench::feed_rungs(std::size_t first, std::size_t n, bool timed) {
  for (Rung& r : rungs_) {
    std::size_t m = 0;
    for (std::size_t i = first; i < first + n; ++i) {
      const netsim::Packet& in = slice_.in[i];
      if (!r.only_fn.empty() &&
          w_.functions[static_cast<std::size_t>(fn_of_class_[in.classes[0]])] !=
              r.only_fn) {
        continue;
      }
      rung_batch_[m] = netsim::make_packet();
      *rung_batch_[m] = in;
      ++m;
    }
    if (m == 0) continue;
    r.clock->fetch_add(static_cast<std::int64_t>(m), std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    r.enclave->process_batch(std::span(rung_batch_.data(), m));
    const std::int64_t t1 = now_ns();
    if (timed) {
      r.ns += t1 - t0;
      r.packets += m;
    }
    for (std::size_t j = 0; j < m; ++j) rung_batch_[j].reset();
  }
}

void Bench::run_inline(double seconds, std::size_t slice) {
  const std::size_t n = slice_packets(kInline, seconds);
  generate(n);
  Batch batch(kBurst);
  tracer_.reset_totals();
  std::int64_t ns = 0;
  for (std::size_t k = 0; k < n; k += kBurst) {
    const bool traced = opt_.trace && (inline_batches_++ / kTraceStride) % 2 == 1;
    tracer_.on = traced;
    const std::int64_t t0 = now_ns();
    inline_batch(batch, k, kBurst);
    const std::int64_t dt = now_ns() - t0;
    tracer_.on = false;
    ns += dt;
    (traced ? traced_ns_ : untraced_ns_) += dt;
    (traced ? traced_pk_ : untraced_pk_) += kBurst;
    if (!rungs_.empty()) feed_rungs(k, kBurst, true);
  }
  rate_[kInline] = static_cast<double>(n) * 1e9 / static_cast<double>(ns);
  // The stage's share of the path ran while the slice was generated.
  inline_windows.ns[slice] += ns + slice_.classify_ns;
  inline_windows.packets[slice] += n;
  inline_classify_ns_ += slice_.classify_ns;
  add_spans(kInline);
  add_segment(kInline, slice_.base);
  fold(digests[kInline]);
}

void Bench::finish_inline() {
  if (!opt_.trace || traced_pk_ == 0 || untraced_pk_ == 0) return;
  // The ledger: per-packet self time of each layer in the traced
  // batches, against the untraced batches' wall time per packet.
  const auto per_pkt = [&](Layer l) {
    return static_cast<double>(spans_[kInline][static_cast<std::size_t>(l)].self_ns) /
           static_cast<double>(traced_pk_);
  };
  // Stage::classify is timed on its own while slices are generated.
  const double classify = static_cast<double>(inline_classify_ns_) /
                          static_cast<double>(traced_pk_ + untraced_pk_);
  const double untraced =
      static_cast<double>(untraced_ns_) / static_cast<double>(untraced_pk_) + classify;
  const double traced =
      static_cast<double>(traced_ns_) / static_cast<double>(traced_pk_) + classify;
  ledger["pool.make"] = per_pkt(Layer::pool_make);
  ledger["bench.gen"] = per_pkt(Layer::bench_gen);
  ledger["stage.classify"] = classify;
  ledger["enclave.batch"] = per_pkt(Layer::enclave_batch);
  ledger["bench.check"] = per_pkt(Layer::bench_check);
  ledger["pool.release"] = per_pkt(Layer::pool_release);
  double sum = 0;
  for (const auto& [name, ns] : ledger) sum += ns;
  ledger["sum_of_layers"] = sum;
  ledger["inline_traced"] = traced;
  ledger["inline_untraced"] = untraced;
  layer["bench.trace_overhead_frac"] = traced / untraced - 1.0;
  layer["bench.ledger_gap_frac"] = std::abs(sum - untraced) / untraced;
  layer["bench.gen_ns_per_pkt"] = ledger["bench.gen"];
  layer["bench.check_ns_per_pkt"] = ledger["bench.check"];
  layer["pool.release_ns_per_pkt"] = ledger["pool.release"];

  // Fig 12-style split of process_batch from rungs on identical inputs;
  // the rungs share one history, which differs from the measured
  // enclave's, so the split is taken between rungs only.
  const auto rung_ns = [&](const std::string& name) {
    for (const Rung& r : rungs_) {
      if (r.name == name && r.packets > 0) {
        return static_cast<double>(r.ns) / static_cast<double>(r.packets);
      }
    }
    return 0.0;
  };
  const double bytecode = rung_ns("bytecode");
  const double native = rung_ns("native");
  const double nostate = rung_ns("nostate");
  layer["enclave.ns_per_pkt"] = static_cast<double>(main_enclave_ns_) /
                                static_cast<double>(main_enclave_packets_);
  layer["enclave.native_ns_per_pkt"] = native;
  layer["enclave.nostate_ns_per_pkt"] = nostate;
  layer["interp.ns_per_pkt"] = bytecode - native;
  layer["state.ns_per_pkt"] = native - nostate;
  layer["telemetry.on_ns_per_pkt"] =
      w_.managed ? bytecode - rung_ns("telemetry_off") : 0.0;
  for (const auto& fn : functions::all_functions()) {
    const std::string name = fn->name();
    double v = 0;
    if (w_.functions.size() > 1) {
      v = rung_ns("bytecode:" + name) - rung_ns("native:" + name);
    } else if (w_.functions[0] == name) {
      v = bytecode - native;
    }
    layer["interp.ns_per_pkt." + name] = v;
  }
}

}  // namespace perfbench
