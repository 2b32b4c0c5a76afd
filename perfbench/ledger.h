// Benchmark-side spans for the layer ledger.
//
// The traced run wraps each public call into a layer (packet pool,
// enclave batch, data-plane submit/drain, session txn) in a span.
// Stage::classify runs while a slice's inputs are generated, before its
// timer starts; the input stream times it on its own. Spans nest; a layer's self time is its duration minus the
// time its child spans cover. Totals are aggregated as spans close, and
// the first kRawCapacity spans are also kept verbatim in memory so they
// can be written out when the run ends. With the tracer off a span is
// one branch.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  inline_batch,    // root of one inline-phase batch
  pool_make,       // netsim::try_make_packet
  bench_gen,       // copying the slice's generated fields into the packet
  enclave_batch,   // core::Enclave::process_batch
  bench_check,     // copying the packet's outputs out for the check
  pool_release,    // dropping the last PacketPtr (slot back to the pool)
  dp_submit,       // hoststack::DataPlane::submit_burst
  dp_drain,        // hoststack::DataPlane::drain_completions
  cp_txn,          // one session transaction, end to end
  cp_stage,        // session calls staging the txn's commands
  cp_pump,         // PipePump delivery: agent apply, publish, response
  tele_poll,       // EnclaveSession::fetch_telemetry_delta_json
  count_
};

inline const char* layer_name(Layer l) {
  static constexpr const char* kNames[] = {
      "inline.batch",   "pool.make",      "bench.gen",
      "enclave.batch",  "bench.check",
      "pool.release",   "dataplane.submit", "dataplane.drain",
      "cp.txn",         "cp.stage",       "cp.pump",
      "telemetry.poll"};
  return kNames[static_cast<int>(l)];
}

class Tracer {
 public:
  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::count_);
  static constexpr std::size_t kRawCapacity = 1 << 18;

  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t spans = 0;
  };
  struct RawSpan {
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool on = false;

  void begin(Layer l) {
    Open o;
    o.layer = l;
    o.id = ++next_id_;
    o.parent = stack_.empty() ? 0 : stack_.back().id;
    o.start = now_ns();
    stack_.push_back(o);
  }

  void end() {
    const std::int64_t t = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - o.start;
    Totals& tot = totals_[static_cast<std::size_t>(o.layer)];
    tot.total_ns += dur;
    tot.self_ns += dur - o.children;
    ++tot.spans;
    if (!stack_.empty()) stack_.back().children += dur;
    if (raw_.size() < kRawCapacity) {
      raw_.push_back(RawSpan{o.id, o.parent, o.layer, o.start, t});
    }
  }

  const std::array<Totals, kLayers>& all_totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }
  const std::vector<RawSpan>& raw() const { return raw_; }

 private:
  struct Open {
    Layer layer;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::int64_t start = 0;
    std::int64_t children = 0;
  };
  std::vector<Open> stack_;
  std::array<Totals, kLayers> totals_{};
  std::vector<RawSpan> raw_;
  std::uint32_t next_id_ = 0;
};

class Span {
 public:
  Span(Tracer* t, Layer l) : t_(t != nullptr && t->on ? t : nullptr) {
    if (t_ != nullptr) t_->begin(l);
  }
  ~Span() {
    if (t_ != nullptr) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
