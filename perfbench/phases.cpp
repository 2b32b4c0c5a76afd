// The data-plane phases, the control-plane traffic that runs beside them,
// and the run's counters.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "bench.h"
#include "netsim/packet_pool.h"

namespace perfbench {

namespace {

constexpr std::size_t kBurst = 64;
// A 64-rule re-point is ~130 session commands and takes ~0.4 ms of the
// producer's time on a 2 GHz Xeon core; at 200 txns/s the packets
// still see the data path, not the txn schedule.
constexpr std::int64_t kTxnPeriodNs = 5'000'000;
constexpr std::int64_t kPollPeriodNs = 20'000'000;  // 50 polls/s
constexpr std::int64_t kTickPeriodNs = 10'000'000;
constexpr std::size_t kProbeTxns = 960;
constexpr std::size_t kProbeEvery = 4;  // slices per burst of probe txns
constexpr std::size_t kWarmShare = 8;   // 1/8 of a sharded slice is untimed

hoststack::DataPlaneConfig dataplane_config() {
  hoststack::DataPlaneConfig c;
  c.workers = kShardedWorkers;
  c.ring_capacity = 1024;
  c.max_batch = kBurst;
  return c;
}

// Builds the data plane with its workers on the CPUs `plan` gives them,
// then moves the calling thread, the producer, to its own CPU.
std::unique_ptr<hoststack::DataPlane> make_dataplane(core::Enclave& enclave,
                                                     const CpuPlan& plan) {
  pin_current_thread({plan.workers[0], plan.workers[1]});
  auto dp = std::make_unique<hoststack::DataPlane>(enclave, dataplane_config());
  pin_current_thread({plan.producer});
  return dp;
}

// Adds what the data plane's counters gained over one slice to a run
// total.
void accumulate(hoststack::DataPlaneStats& acc, const hoststack::DataPlaneStats& before,
                const hoststack::DataPlaneStats& after) {
  if (acc.workers.size() < after.workers.size()) acc.workers.resize(after.workers.size());
  for (std::size_t i = 0; i < after.workers.size(); ++i) {
    auto& a = acc.workers[i];
    const auto& b = before.workers[i];
    const auto& w = after.workers[i];
    a.enqueued += w.enqueued - b.enqueued;
    a.processed += w.processed - b.processed;
    a.dropped += w.dropped - b.dropped;
    a.batches += w.batches - b.batches;
    a.busy_ns += w.busy_ns - b.busy_ns;
  }
  acc.submitted += after.submitted - before.submitted;
  acc.drained += after.drained - before.drained;
  acc.submit_backpressure += after.submit_backpressure - before.submit_backpressure;
}

}  // namespace

void pin_current_thread(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double Bench::time_ref(int cpu) {
  pin_current_thread({cpu});
  return ref_.time();
}

CpuPlan cpu_plan(std::size_t slice) {
  const int first = static_cast<int>(slice % 4);
  return CpuPlan{first, (first + 1) % 4, {(first + 2) % 4, (first + 3) % 4}};
}

void unpin_current_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < std::thread::hardware_concurrency(); ++c) {
    CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void Bench::drain(hoststack::DataPlane& dp) {
  Span span(tr_, Layer::dp_drain);
  dp.drain_completions(
      [this](netsim::PacketPtr p) { done_.push_back(std::move(p)); });
}

void Bench::run_sharded(double seconds, std::size_t slice) {
  const std::size_t n = slice_packets(kSharded, seconds);
  generate(n);
  hoststack::DataPlane& dp = *dp_;
  const hoststack::DataPlaneStats dp0 = dp.stats();
  Batch burst(kBurst);
  const auto settle = [&] {
    if (done_.empty()) return;
    take_outputs(done_, done_.size(), 0);
    done_.clear();
  };
  tracer_.reset_totals();
  tracer_.on = opt_.trace;
  // The slice's data plane is new: the first packets wake its workers'
  // CPUs and warm their caches, and the timer starts after them.
  const std::size_t warm = n / kWarmShare / kBurst * kBurst;
  const std::int64_t first = now_ns();
  std::int64_t start = first;
  next_txn_ = next_poll_ = next_tick_ = start;
  for (std::size_t k = 0; k < n; k += kBurst) {
    if (k == warm) start = now_ns();
    make_packets(burst, kBurst);
    fill(burst, k, kBurst);
    std::size_t sent = 0;
    for (;;) {
      {
        Span span(tr_, Layer::dp_submit);
        sent += dp.submit_burst(std::span(burst.data(), kBurst));
      }
      if (sent == kBurst) break;
      drain(dp);
      settle();
    }
    drain(dp);
    settle();
    if (w_.managed) managed_tick(now_ns());
  }
  {
    Span span(tr_, Layer::dp_drain);
    dp.flush([this](netsim::PacketPtr p) { done_.push_back(std::move(p)); });
  }
  settle();
  const std::int64_t end = now_ns();
  const std::int64_t wall = end - start;
  const std::size_t timed = n - warm;
  tracer_.on = false;
  rate_[kSharded] = static_cast<double>(timed) * 1e9 / static_cast<double>(wall);
  // The producer classified the slice's messages before the timer
  // started; it would have spent that time between its bursts.
  sharded_windows.ns[slice] +=
      wall + slice_.classify_ns * static_cast<std::int64_t>(timed) /
                 static_cast<std::int64_t>(n);
  sharded_windows.packets[slice] += timed;
  sharded_wall_ns_ += end - first;
  add_spans(kSharded);
  add_segment(kSharded, slice_.base);
  accumulate(sharded_dp_, dp0, dp.stats());
  fold(digests[kSharded]);
}

void Bench::run_open(double seconds, std::size_t slice) {
  const auto n = std::min<std::size_t>(
      static_cast<std::size_t>(w_.offered_pps * seconds), kSliceCapacity);
  generate(n);
  hoststack::DataPlane& dp = *dp_;
  const hoststack::DataPlaneStats dp0 = dp.stats();
  Batch burst(kBurst);
  const double interval = 1e9 / w_.offered_pps;
  const std::int64_t start = now_ns() + 100'000;
  next_txn_ = next_poll_ = next_tick_ = start;
  const auto due_of = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * interval);
  };
  // Latency runs from the packet's due time to the moment the producer
  // takes its completion off the ring.
  const auto settle = [&] {
    if (done_.empty()) return;
    take_outputs(done_, done_.size(), now_ns());
    done_.clear();
  };
  std::size_t issued = 0;
  while (issued < n) {
    const std::int64_t t = now_ns();
    if (t >= start) {
      const auto due_total = std::min<std::size_t>(
          n, static_cast<std::size_t>(static_cast<double>(t - start) / interval) + 1);
      if (due_total > issued) {
        const std::size_t m = std::min(kBurst, due_total - issued);
        lag_us.push_back(static_cast<float>(static_cast<double>(t - due_of(issued)) / 1e3));
        make_packets(burst, m);
        fill(burst, issued, m);
        std::size_t sent = 0;
        for (;;) {
          sent += dp.submit_burst(std::span(burst.data(), m));
          if (sent == m) break;
          drain(dp);
          settle();
        }
        issued += m;
        open_depth_max_ = std::max(open_depth_max_, dp.pending());
      }
    }
    drain(dp);
    settle();
    if (w_.managed) managed_tick(t);
  }
  dp.flush([this](netsim::PacketPtr p) { done_.push_back(std::move(p)); });
  settle();
  std::vector<float>& lat = latency_us[slice];
  for (std::size_t i = 0; i < slice_.outputs; ++i) {
    const Output& o = slice_.out[i];
    lat.push_back(static_cast<float>(
        static_cast<double>(o.done_ns - due_of(o.index)) / 1e3));
  }
  open_issued_ += issued;
  open_seconds_ += seconds;
  add_segment(kOpen, slice_.base);
  accumulate(open_dp_, dp0, dp.stats());
  fold(digests[kOpen]);
}

void Bench::finish_dataplane() {
  const auto& sp = spans_[kSharded];
  const auto total = [&](Layer l) {
    return static_cast<double>(sp[static_cast<std::size_t>(l)].total_ns);
  };
  const double pk = static_cast<double>(phase_packets[kSharded]);
  // Over every measured phase: the stage runs while slices are generated.
  const auto calls = static_cast<double>(stream_->classify_calls() - classify_calls0_);
  const double measured = static_cast<double>(
      phase_packets[kInline] + phase_packets[kSharded] + phase_packets[kOpen]);
  layer["stage.classify_ns"] =
      calls > 0 ? static_cast<double>(stream_->classify_ns() - classify_ns0_) / calls : 0;
  layer["stage.classify_calls"] = calls * 1000.0 / measured;
  layer["pool.make_ns"] = total(Layer::pool_make) / pk;
  layer["dataplane.submit_ns_per_pkt"] = total(Layer::dp_submit) / pk;
  layer["dataplane.drain_ns_per_pkt"] = total(Layer::dp_drain) / pk;

  double busy = 0, processed = 0, batches = 0, enqueued_max = 0, enqueued = 0;
  for (const auto& ws : sharded_dp_.workers) {
    busy += static_cast<double>(ws.busy_ns);
    processed += static_cast<double>(ws.processed);
    batches += static_cast<double>(ws.batches);
    enqueued += static_cast<double>(ws.enqueued);
    enqueued_max = std::max(enqueued_max, static_cast<double>(ws.enqueued));
  }
  const double workers = static_cast<double>(sharded_dp_.workers.size());
  layer["dataplane.worker_ns_per_pkt"] = processed > 0 ? busy / processed : 0;
  layer["dataplane.worker_busy_frac"] =
      busy / (workers * static_cast<double>(sharded_wall_ns_));
  layer["dataplane.batch_mean"] = batches > 0 ? processed / batches : 0;
  layer["dataplane.imbalance"] = enqueued > 0 ? enqueued_max * workers / enqueued : 0;

  // Packets submitted and not yet drained, at its highest in the open
  // phase (the workers' own ring high-water marks also cover the closed
  // loop, which always fills the rings).
  layer["dataplane.ring_depth_max"] = static_cast<double>(open_depth_max_);
  layer["dataplane.backpressure_frac"] =
      open_dp_.submitted > 0 ? static_cast<double>(open_dp_.submit_backpressure) /
                                   static_cast<double>(open_dp_.submitted)
                             : 0;
  open_issued_pps = static_cast<double>(open_issued_) / open_seconds_;
  layer["loadgen.offered_pkts_per_s"] = open_issued_pps;
}

void Bench::managed_tick(std::int64_t t) {
  if (t >= next_tick_) {
    host_->session->tick();
    host_->pump.run();
    next_tick_ = t + kTickPeriodNs;
  }
  if (t >= next_txn_) {
    txn();
    next_txn_ += kTxnPeriodNs;
    if (next_txn_ < t) next_txn_ = t + kTxnPeriodNs;
  }
  if (t >= next_poll_) {
    poll();
    next_poll_ = t + kPollPeriodNs;
  }
}

// One control-plane transaction: re-point every class rule and rewrite
// one action's globals. On managed_churn the rules alternate between the
// twin SFF actions and the thresholds between two output-equivalent
// tables; elsewhere the txn re-installs the same rules and values.
void Bench::txn() {
  controlplane::EnclaveSession& s = *host_->session;
  const controlplane::SessionStats before = s.stats();
  const std::vector<std::string> actions = action_names(w_);
  const int variant = w_.managed ? static_cast<int>((txn_flip_ + 1) % 2) : 0;
  const std::uint64_t bytes0 = host_->cp_bytes;
  Span span(tr_, Layer::cp_txn);
  const std::int64_t t0 = now_ns();
  {
    Span staging(tr_, Layer::cp_stage);
    s.begin_txn();
    for (std::size_t i = 0; i < w_.classes; ++i) {
      const std::string target =
          w_.managed ? actions[static_cast<std::size_t>(variant)] : initial_action(w_, i);
      s.remove_rule("egress", host_->rules[i]);
      host_->rules[i] = s.add_rule("egress", class_pattern(i), target);
    }
    const std::string& rewritten = actions[static_cast<std::size_t>(variant)];
    for (const GlobalValue& g :
         globals_for(function_of_action(w_, rewritten), variant)) {
      if (g.is_array) {
        s.set_global_array(rewritten, g.field, g.data);
      } else {
        s.set_global_scalar(rewritten, g.field, g.scalar);
      }
    }
    s.commit_txn();
  }
  const std::int64_t t1 = now_ns();
  {
    Span pump(tr_, Layer::cp_pump);
    host_->pump.run();
  }
  const std::int64_t t2 = now_ns();
  txn_bytes += host_->cp_bytes - bytes0;
  if (w_.managed) ++txn_flip_;
  ++txns;
  txn_us.push_back(static_cast<double>(t2 - t0) / 1e3);
  txn_slice.push_back(slice_now_);
  apply_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  const controlplane::SessionStats after = s.stats();
  if (after.responses_error != before.responses_error ||
      after.request_timeouts != before.request_timeouts || s.inflight() != 0) {
    ++txn_failed;
  }
}

void Bench::poll() {
  Span span(tr_, Layer::tele_poll);
  const std::int64_t t0 = now_ns();
  const std::string json = host_->session->fetch_telemetry_delta_json(
      host_->pump, decoder_.epoch(), decoder_.seq());
  poll_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  ++polls;
  delta_bytes += json.size();
  if (!json.empty()) decoder_.apply_json(json);
}

void Bench::collect_stats() {
  core::Enclave& e = *host_->enclave;
  const core::EnclaveStats st = e.stats();
  const double measured = static_cast<double>(
      phase_packets[kInline] + phase_packets[kSharded] + phase_packets[kOpen]);
  const double packets = static_cast<double>(st.packets);
  layer["enclave.matched_frac"] =
      packets > 0 ? static_cast<double>(st.matched) / packets : 0;
  double steps = 0, errors = 0;
  state::FlowStoreStats fs;
  double probe_p99 = 0;
  for (const std::string& name : action_names(w_)) {
    const auto id = e.find_action(name);
    if (!id) continue;
    const core::ActionStats as = e.action_stats(*id);
    steps += static_cast<double>(as.steps);
    errors += static_cast<double>(as.errors);
    const state::FlowStoreStats m = e.message_store_stats(*id);
    fs.live += m.live;
    fs.created += m.created;
    fs.expired += m.expired;
    fs.evicted += m.evicted;
    fs.resizes += m.resizes;
    if (m.probe_len.count > 0) probe_p99 = std::max(probe_p99, m.probe_len.p99());
  }
  layer["interp.steps_per_pkt"] = packets > 0 ? steps / packets : 0;
  layer["interp.errors"] = errors;
  layer["state.live"] = static_cast<double>(fs.live);
  const auto per_kpkt = [&](std::uint64_t now, std::uint64_t then) {
    return static_cast<double>(now - then) * 1000.0 / measured;
  };
  layer["state.created_per_kpkt"] = per_kpkt(fs.created, state0_.created);
  layer["state.expired_per_kpkt"] = per_kpkt(fs.expired, state0_.expired);
  layer["state.evicted_per_kpkt"] = per_kpkt(fs.evicted, state0_.evicted);
  layer["state.probe_len_p99"] = probe_p99;
  layer["state.resizes"] = static_cast<double>(fs.resizes);

  const netsim::PacketPoolStats ps = netsim::default_packet_pool().stats();
  layer["pool.exhausted"] = static_cast<double>(ps.exhausted_total - pool0_.exhausted_total);
  layer["pool.heap_fallback"] =
      static_cast<double>(ps.heap_fallback_total - pool0_.heap_fallback_total);
  layer["pool.refills_per_kpkt"] = per_kpkt(ps.magazine_refills, pool0_.magazine_refills);

  layer["enclave.publishes"] = static_cast<double>(e.ruleset_version() - version0_);
  const controlplane::SessionStats ss = host_->session->stats();
  layer["cp.timeouts"] = static_cast<double>(ss.request_timeouts);
  layer["cp.resyncs"] = static_cast<double>(ss.resyncs);
  layer["cp.bytes_per_txn"] =
      txns > 0 ? static_cast<double>(txn_bytes) / static_cast<double>(txns) : 0;
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  layer["cp.apply_us"] = mean(apply_us);
  layer["telemetry.poll_us"] = mean(poll_us);
  layer["telemetry.delta_bytes"] =
      polls > 0 ? static_cast<double>(delta_bytes) / static_cast<double>(polls) : 0;
  std::vector<float> lag = lag_us;
  if (!lag.empty()) {
    const auto k = static_cast<std::size_t>(0.99 * static_cast<double>(lag.size() - 1));
    std::nth_element(lag.begin(), lag.begin() + static_cast<std::ptrdiff_t>(k), lag.end());
    layer["loadgen.lag_p99_us"] = lag[k];
  } else {
    layer["loadgen.lag_p99_us"] = 0;
  }
}

bool Bench::run() {
  pin_current_thread({1});
  // The traced run reports no set-up time, so it sets up once. Otherwise
  // set-up time is the median over several set-ups: where set-up is
  // cheap, one follows each slice; a million-message prefill is set up
  // three times before the run instead, as a second one beside the live
  // host would double peak RSS.
  const bool big = w_.live > 100'000;
  for (int r = opt_.trace || !big ? 1 : 3; r > 0; --r) {
    if (!setup()) return false;
  }
  add_segment(kPrefill, 0);
  // Baselines: counters below report what the measured phases added.
  pool0_ = netsim::default_packet_pool().stats();
  version0_ = host_->enclave->ruleset_version();
  classify_calls0_ = stream_->classify_calls();
  classify_ns0_ = stream_->classify_ns();
  for (const std::string& name : action_names(w_)) {
    const auto id = host_->enclave->find_action(name);
    if (!id) continue;
    const state::FlowStoreStats m = host_->enclave->message_store_stats(*id);
    state0_.created += m.created;
    state0_.expired += m.expired;
    state0_.evicted += m.evicted;
  }

  main_enclave_ns_ = 0;
  main_enclave_packets_ = 0;
  // The open phase feeds per-layer metrics only, so the end-to-end
  // phases get most of the time.
  const double slice = opt_.seconds / kWindows;
  for (std::size_t i = 0; i < kWindows; ++i) {
    slice_now_ = static_cast<std::uint32_t>(i);
    const CpuPlan cpus = cpu_plan(i);
    const int dp_cpus[3] = {cpus.producer, cpus.workers[0], cpus.workers[1]};
    inline_ref_ns[i] = time_ref(cpus.inline_cpu);
    for (int k = 0; k < 4; ++k) alt_ref[i][k] = ref_.alt(k);
    run_inline(slice * 0.35, i);
    inline_ref_ns[i] = (inline_ref_ns[i] + ref_.time()) / 2;
    for (int k = 0; k < 4; ++k) alt_ref[i][k] = (alt_ref[i][k] + ref_.alt(k)) / 2;
    // The workers' CPUs are timed while no worker runs there.
    for (int c = 0; c < 3; ++c) sharded_ref_ns[i][c] = time_ref(dp_cpus[c]);
    // Each slice's sharded and open phases get a data plane of their own:
    // idle workers spin, and on a VM whose vCPUs share physical cores
    // with other guests, spinning beside the inline phase or a set-up
    // slows it by a share that changes from second to second.
    dp_ = make_dataplane(*host_->enclave, cpus);
    run_sharded(slice * 0.45, i);
    run_open(slice * 0.20, i);
    dp_->stop();
    dp_.reset();
    for (int c : {1, 2, 0}) {
      sharded_ref_ns[i][c] = (sharded_ref_ns[i][c] + time_ref(dp_cpus[c])) / 2;
    }
    if (!w_.managed && i % kProbeEvery == kProbeEvery - 1) {
      // No control traffic rode along with the packets: price the same
      // txn on the idle data path, spread over the run like the rest.
      // The first txn after a phase runs on cold caches; in bursts of a
      // few txns that share made p90 jump between two modes.
      for (std::size_t t = 0; t < kProbeTxns * kProbeEvery / kWindows; ++t) txn();
    }
    if (!opt_.trace && !big && !setup_again()) return false;
  }
  finish_inline();
  finish_dataplane();
  collect_stats();
  invalid_paths = rule_->invalid();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  rungs_.clear();
  host_.reset();
  unpin_current_thread();
  return true;
}

}  // namespace perfbench
