// The measured run: set-up, then the inline, sharded and open phases over
// one continuous seeded stream, with the traced run's rungs and spans.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calib.h"
#include "check.h"
#include "host.h"
#include "hoststack/dataplane.h"
#include "ledger.h"
#include "telemetry/delta.h"
#include "workload.h"

namespace perfbench {

struct BenchOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Test hook: flip one output of the packet with this stream sequence
  // number before it is checked (-1 = off).
  std::int64_t plant_fault = -1;
};

// The measured time is cut into kWindows slices; each slice runs the
// inline, sharded and open phases in turn. Every phase thus samples the
// whole run, and end-to-end rates are quantiles over slices, so
// interference that hits a few slices does not move them.
// Slices are short enough that no phase reaches kSliceCapacity in a
// 20-second run.
inline constexpr std::size_t kWindows = 160;

// Packets of one phase slice at most; a fast phase ends its slice early
// rather than grow the input buffers, so peak RSS does not follow speed.
inline constexpr std::size_t kSliceCapacity = std::size_t{1} << 18;

// What the measured path wrote into one packet, in completion order.
struct Output {
  std::uint32_t index;  // into Slice::in
  std::uint8_t priority;
  bool drop_mark;
  std::int32_t path_label;
  std::int32_t rl_queue;
  std::uint32_t charge_bytes;
  std::int64_t done_ns;  // open phase: when the producer took the completion
};

// One phase slice's packets. Their fields are generated, and their
// messages classified, before the slice's timer starts; their outputs are
// folded into the check digests after it stops. The timed loop thus runs
// the egress path, copies fields in and outputs out, and nothing else.
struct Slice {
  std::uint64_t base = 0;  // stream sequence number of in[0]
  std::size_t size = 0;    // packets in use
  std::size_t outputs = 0;
  std::int64_t classify_ns = 0;  // Stage::classify time spent generating
  std::vector<netsim::Packet> in;
  std::vector<Output> out;
};

// Pins the calling thread to `cpus` (threads it creates inherit the
// mask); a no-op on machines with fewer than four CPUs.
void pin_current_thread(std::initializer_list<int> cpus);
void unpin_current_thread();

// Where one slice runs. The roles rotate over CPUs 0-3 from slice to
// slice: on a VM, each vCPU is slowed by whatever shares its physical
// core at the time, and rotating spreads every phase over all four
// vCPUs' spells instead of one's. The sharded and open phases use three
// CPUs (producer and two workers) and leave the inline phase's CPU free.
struct CpuPlan {
  int inline_cpu;
  int producer;
  int workers[2];
};
CpuPlan cpu_plan(std::size_t slice);

// A rung: the inline batch replayed on another enclave over the same
// generated inputs, timed around process_batch only. Rungs see only the
// inline share of the stream, so each runs on its own clock (the packets
// it has seen): on the shared clock their message state would age out in
// bursts while the data-plane phases run, and those bursts would land in
// the rung's timing.
struct Rung {
  std::string name;
  std::string only_fn;  // empty = every function
  std::unique_ptr<std::atomic<std::int64_t>> clock;
  std::unique_ptr<core::Enclave> enclave;
  std::int64_t ns = 0;
  std::uint64_t packets = 0;
};

struct WindowSum {
  std::array<std::int64_t, kWindows> ns{};
  std::array<std::uint64_t, kWindows> packets{};
};

class Bench {
 public:
  Bench(const WorkloadSpec& w, BenchOptions opt);
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Runs every phase; fills the public results below.
  bool run();
  const Tracer& tracer() const { return tracer_; }

  // --- Results ----------------------------------------------------------
  std::vector<double> setup_s;
  WindowSum inline_windows;
  WindowSum sharded_windows;
  std::array<std::vector<float>, kWindows> latency_us;  // by slice
  std::vector<float> lag_us;                            // per open burst
  // Reference-kernel times (calib.h), each the mean of one run before
  // and one after the phase on the phase's CPU: the inline CPU, and the
  // producer's and workers' CPUs of the sharded phase.
  std::array<double, kWindows> inline_ref_ns{};
  std::array<std::array<double, 3>, kWindows> sharded_ref_ns{};
  std::vector<double> setup_ref_ns;  // one per setup_s entry
  std::array<std::array<double, 4>, kWindows> alt_ref{};  // EXPERIMENT
  std::vector<double> txn_us, apply_us, poll_us;
  std::vector<std::uint32_t> txn_slice;  // the slice each txn_us entry ran in
  std::uint64_t delta_bytes = 0, txns = 0, txn_failed = 0, polls = 0;
  std::uint64_t txn_bytes = 0;  // controller bytes sent by txns
  std::uint64_t pool_failures = 0;
  std::uint64_t bad_outputs = 0;  // completions naming no packet of the slice
  std::uint64_t invalid_paths = 0;  // see OutputRule::invalid()
  double peak_rss_mb = 0;
  double open_issued_pps = 0;
  std::vector<Segment> segments;
  std::array<std::uint64_t, kPhases> phase_packets{};
  std::vector<PhaseDigest> digests;
  std::map<std::string, double> layer;  // per-layer metrics
  std::map<std::string, double> ledger;  // inline ledger rows (ns/pkt)

 private:
  using Batch = std::vector<netsim::PacketPtr>;

  // Builds host_, stream_ and rule_ through the session and prefills
  // message state; appends the time taken to setup_s.
  bool setup();
  // A throwaway set-up between slices, timed like the first one, so that
  // set-up time samples the whole run as the phases do.
  bool setup_again();
  void make_rungs();
  // Generates the next n stream packets into slice_ (n <= kSliceCapacity).
  void generate(std::size_t n);
  // Packets for a phase slice of `seconds`, from the phase's last rate.
  std::size_t slice_packets(std::size_t phase, double seconds) const;
  void make_packets(Batch& batch, std::size_t n);
  void fill(Batch& batch, std::size_t first, std::size_t n);
  void take_outputs(Batch& batch, std::size_t n, std::int64_t done_ns);
  void fold(PhaseDigest& d);
  void inline_batch(Batch& batch, std::size_t first, std::size_t n);
  void feed_rungs(std::size_t first, std::size_t n, bool timed);
  void add_segment(std::size_t phase, std::uint64_t since);
  void add_spans(std::size_t phase);
  void run_inline(double seconds, std::size_t slice);
  void run_sharded(double seconds, std::size_t slice);
  void run_open(double seconds, std::size_t slice);
  void finish_inline();
  void finish_dataplane();
  void drain(hoststack::DataPlane& dp);
  void managed_tick(std::int64_t t);
  void txn();
  void poll();
  void collect_stats();
  // Moves the calling thread to `cpu` and times the reference kernel there.
  double time_ref(int cpu);

  const WorkloadSpec& w_;
  BenchOptions opt_;
  Tracer tracer_;
  Tracer* tr_ = nullptr;  // &tracer_ in the traced run
  std::unique_ptr<Host> host_;
  std::unique_ptr<hoststack::DataPlane> dp_;
  std::unique_ptr<InputStream> stream_;
  std::unique_ptr<OutputRule> rule_;
  std::vector<Rung> rungs_;
  std::vector<int> fn_of_class_;  // ClassId -> index into w_.functions
  Slice slice_;
  ReferenceKernel ref_;
  Batch rung_batch_;
  Batch done_;
  std::int64_t main_enclave_ns_ = 0;
  std::uint64_t main_enclave_packets_ = 0;

  // Accumulated over slices.
  std::array<double, kPhases> rate_{};  // packets per timed second, last slice
  std::array<std::array<Tracer::Totals, Tracer::kLayers>, kPhases> spans_{};
  std::uint64_t classify_calls0_ = 0;
  std::int64_t classify_ns0_ = 0, inline_classify_ns_ = 0;
  std::uint64_t inline_batches_ = 0;
  std::int64_t traced_ns_ = 0, untraced_ns_ = 0;
  std::uint64_t traced_pk_ = 0, untraced_pk_ = 0;
  hoststack::DataPlaneStats sharded_dp_, open_dp_;
  std::int64_t sharded_wall_ns_ = 0;
  std::uint64_t open_issued_ = 0;
  std::uint64_t open_depth_max_ = 0;
  double open_seconds_ = 0;

  // Control plane.
  telemetry::DeltaDecoder decoder_;
  std::int64_t next_txn_ = 0, next_poll_ = 0, next_tick_ = 0;
  std::uint32_t slice_now_ = 0;
  std::uint64_t txn_flip_ = 0;
  std::uint64_t version0_ = 0;
  netsim::PacketPoolStats pool0_;
  state::FlowStoreStats state0_;
};

}  // namespace perfbench
