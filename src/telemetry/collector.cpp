#include "telemetry/collector.h"

#include <algorithm>
#include <utility>

namespace eden::telemetry {

TelemetryCollector::TelemetryCollector(CollectorConfig config, ClockFn clock)
    : config_(config), clock_(std::move(clock)) {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.retention_depth < 2) config_.retention_depth = 2;
  if (config_.threads > 1) {
    pool_.reserve(config_.threads);
    for (std::size_t w = 0; w < config_.threads; ++w) {
      pool_.emplace_back([this, w]() { worker_loop(w); });
    }
  }
}

TelemetryCollector::~TelemetryCollector() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : pool_) t.join();
}

std::size_t TelemetryCollector::add_source(CollectorSource source) {
  auto state = std::make_unique<SourceState>();
  state->source = std::move(source);
  state->status.name = state->source.name;
  sources_.push_back(std::move(state));
  return sources_.size() - 1;
}

const AgentStatus& TelemetryCollector::status(std::size_t i) const {
  return sources_.at(i)->status;
}

std::vector<AgentStatus> TelemetryCollector::statuses() const {
  std::vector<AgentStatus> out;
  out.reserve(sources_.size());
  for (const auto& s : sources_) out.push_back(s->status);
  return out;
}

void TelemetryCollector::record_point(SourceState& s,
                                      const std::string& series, double value,
                                      std::uint64_t now) {
  std::deque<SeriesPoint>& ring = s.rings[series];
  ring.push_back({now, value});
  while (ring.size() > config_.retention_depth) ring.pop_front();
}

void TelemetryCollector::record_series(SourceState& s, std::uint64_t now) {
  std::uint64_t packets = 0;
  std::uint64_t matched = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errors = 0;
  for (const EnclaveTelemetry& e : s.snapshots) {
    packets += e.packets;
    matched += e.matched;
    dropped += e.dropped_by_action;
    for (const ActionTelemetry& a : e.actions) errors += a.errors;
  }
  record_point(s, "packets", static_cast<double>(packets), now);
  record_point(s, "matched", static_cast<double>(matched), now);
  record_point(s, "dropped_by_action", static_cast<double>(dropped), now);
  record_point(s, "action_errors", static_cast<double>(errors), now);
  for (const EnclaveTelemetry& e : s.snapshots) {
    for (const auto& [name, value] : e.host_series) {
      record_point(s, name, value, now);
    }
  }
  if (s.has_session) {
    record_point(s, "session.connected", s.session.ready ? 1.0 : 0.0, now);
    record_point(s, "session.liveness_timeouts",
                 static_cast<double>(s.session.liveness_timeouts), now);
    record_point(s, "session.request_timeouts",
                 static_cast<double>(s.session.request_timeouts), now);
    record_point(s, "session.responses_error",
                 static_cast<double>(s.session.responses_error), now);
    record_point(s, "session.corrupt_streams",
                 static_cast<double>(s.session.corrupt_streams), now);
    record_point(s, "session.resyncs",
                 static_cast<double>(s.session.resyncs), now);
  }
}

void TelemetryCollector::poll_source(SourceState& s, std::uint64_t now) {
  s.status.last_attempt_ns = now;
  ++s.status.polls;
  const std::string payload =
      s.source.fetch_delta(s.decoder.epoch(), s.decoder.seq());
  const bool got_payload = !payload.empty();
  const bool advanced = got_payload && s.decoder.apply_json(payload);
  if (advanced) s.snapshots = s.decoder.snapshots();
  const DeltaDecoder::Stats& ds = s.decoder.stats();
  s.status.full_resyncs = ds.full_resyncs;
  s.status.deltas_applied = ds.deltas_applied;
  s.status.rejected_payloads = ds.rejected;
  s.status.last_payload_bytes = payload.size();
  s.status.payload_bytes_total += payload.size();
  if (advanced) {
    s.status.reachable = true;
    s.status.consecutive_failures = 0;
    s.status.last_success_ns = now;
  } else {
    // Either unreachable, or a payload that could not be folded in
    // (out-of-sequence delta after a dropped reply) — the stale echo
    // forces the agent into the full-resync arm next poll. Both keep
    // the last-known snapshots in the aggregate.
    s.status.reachable = got_payload;
    ++s.status.failures;
    ++s.status.consecutive_failures;
  }
  s.status.stale =
      now - s.status.last_success_ns >= config_.stale_after_ns;
  if (s.source.session) {
    s.session = s.source.session();
    s.has_session = true;
  }
}

const AggregateTelemetry& TelemetryCollector::poll() {
  const std::uint64_t now = clock_();
  const std::size_t n = sources_.size();
  if (n == 0) {
    latest_ = {};
    last_poll_ns_ = now;
    ++polls_;
    return latest_;
  }
  const std::size_t chunks = std::min(config_.threads, n);
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<AggregateTelemetry> partials(chunks);

  auto run_chunk = [this, now, n, per, &partials](std::size_t c) {
    const std::size_t lo = std::min(c * per, n);
    const std::size_t hi = std::min(lo + per, n);
    std::vector<EnclaveTelemetry> snaps;
    std::vector<SessionTelemetry> sessions;
    for (std::size_t i = lo; i < hi; ++i) {
      SourceState& s = *sources_[i];
      poll_source(s, now);
      record_series(s, now);
      snaps.insert(snaps.end(), s.snapshots.begin(), s.snapshots.end());
      if (s.has_session) sessions.push_back(s.session);
    }
    partials[c] = aggregate(std::move(snaps));
    partials[c].sessions = std::move(sessions);
  };

  if (chunks <= 1 || pool_.empty()) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      chunk_tasks_.assign(chunks, {});
      for (std::size_t c = 0; c < chunks; ++c) {
        chunk_tasks_[c] = [&run_chunk, c]() { run_chunk(c); };
      }
    }
    run_chunks(chunks);
  }

  for (std::size_t stride = 1; stride < partials.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
      partials[i] = merge_aggregates(std::move(partials[i]),
                                     std::move(partials[i + stride]));
    }
  }
  latest_ = std::move(partials[0]);
  last_poll_ns_ = now;
  ++polls_;
  last_poll_duration_ns_ = clock_() - now;
  return latest_;
}

void TelemetryCollector::run_chunks(std::size_t /*chunks*/) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = pool_.size();  // every worker checks in, tasked or not
    ++generation_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this]() { return pending_ == 0; });
  chunk_tasks_.clear();
}

void TelemetryCollector::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock,
                    [&]() { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (worker < chunk_tasks_.size()) task = chunk_tasks_[worker];
    }
    if (task) task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    cv_done_.notify_one();
  }
}

std::optional<double> TelemetryCollector::latest_value(
    std::size_t i, const std::string& series) const {
  const SourceState& s = *sources_.at(i);
  if (series == "collector.stale") return s.status.stale ? 1.0 : 0.0;
  if (series == "collector.consecutive_failures") {
    return static_cast<double>(s.status.consecutive_failures);
  }
  auto it = s.rings.find(series);
  if (it == s.rings.end() || it->second.empty()) return std::nullopt;
  return it->second.back().value;
}

std::optional<double> TelemetryCollector::rate_per_sec(
    std::size_t i, const std::string& series) const {
  const SourceState& s = *sources_.at(i);
  auto it = s.rings.find(series);
  if (it == s.rings.end() || it->second.size() < 2) return std::nullopt;
  const SeriesPoint& first = it->second.front();
  const SeriesPoint& last = it->second.back();
  if (last.t_ns <= first.t_ns) return std::nullopt;
  return (last.value - first.value) * 1e9 /
         static_cast<double>(last.t_ns - first.t_ns);
}

const std::deque<SeriesPoint>* TelemetryCollector::series_history(
    std::size_t i, const std::string& series) const {
  const SourceState& s = *sources_.at(i);
  auto it = s.rings.find(series);
  return it == s.rings.end() ? nullptr : &it->second;
}

void TelemetryCollector::append_prometheus(std::string& out) const {
  auto row = [&out](const char* name, const std::string& agent,
                    std::uint64_t value) {
    out += name;
    if (!agent.empty()) {
      out += "{agent=\"";
      out += agent;
      out += "\"}";
    }
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  out += "# TYPE eden_collector_agents gauge\n";
  row("eden_collector_agents", {}, sources_.size());
  out += "# TYPE eden_collector_polls_total counter\n";
  row("eden_collector_polls_total", {}, polls_);
  out += "# TYPE eden_collector_last_poll_duration_ns gauge\n";
  row("eden_collector_last_poll_duration_ns", {}, last_poll_duration_ns_);
  out += "# TYPE eden_collector_agent_up gauge\n";
  for (const auto& s : sources_) {
    row("eden_collector_agent_up", s->status.name,
        s->status.reachable ? 1 : 0);
  }
  out += "# TYPE eden_collector_agent_stale gauge\n";
  for (const auto& s : sources_) {
    row("eden_collector_agent_stale", s->status.name,
        s->status.stale ? 1 : 0);
  }
  out += "# TYPE eden_collector_consecutive_failures gauge\n";
  for (const auto& s : sources_) {
    row("eden_collector_consecutive_failures", s->status.name,
        s->status.consecutive_failures);
  }
  out += "# TYPE eden_collector_full_resyncs_total counter\n";
  for (const auto& s : sources_) {
    row("eden_collector_full_resyncs_total", s->status.name,
        s->status.full_resyncs);
  }
  out += "# TYPE eden_collector_deltas_applied_total counter\n";
  for (const auto& s : sources_) {
    row("eden_collector_deltas_applied_total", s->status.name,
        s->status.deltas_applied);
  }
  out += "# TYPE eden_collector_rejected_payloads_total counter\n";
  for (const auto& s : sources_) {
    row("eden_collector_rejected_payloads_total", s->status.name,
        s->status.rejected_payloads);
  }
  out += "# TYPE eden_collector_payload_bytes_total counter\n";
  for (const auto& s : sources_) {
    row("eden_collector_payload_bytes_total", s->status.name,
        s->status.payload_bytes_total);
  }
}

}  // namespace eden::telemetry
