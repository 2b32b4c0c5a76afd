#include "telemetry/delta.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "telemetry/json.h"

namespace eden::telemetry {

namespace {

// Bucket-wise histogram diff; nullopt when any bucket (or count/sum)
// went backwards, which means the underlying histogram was replaced
// and the caller must fall back to a full snapshot.
std::optional<HistogramSnapshot> hist_diff(const HistogramSnapshot& prev,
                                           const HistogramSnapshot& now) {
  if (now.count < prev.count || now.sum < prev.sum) return std::nullopt;
  HistogramSnapshot d;
  d.count = now.count - prev.count;
  d.sum = now.sum - prev.sum;
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
    if (now.counts[k] < prev.counts[k]) return std::nullopt;
    d.counts[k] = now.counts[k] - prev.counts[k];
  }
  return d;
}

bool hist_empty(const HistogramSnapshot& h) {
  return h.count == 0 && h.sum == 0;
}

// Diff of one action against its previous report. nullopt(regressed)
// signals the whole delta attempt is void; an engaged optional holding
// nullopt-like "no change" is modeled by the `changed` flag instead.
struct ActionDiff {
  bool regressed = false;
  bool changed = false;
  ActionTelemetry delta;
};

ActionDiff diff_action(const ActionTelemetry& prev,
                       const ActionTelemetry& now) {
  ActionDiff out;
  if (now.executions < prev.executions || now.errors < prev.errors ||
      now.steps < prev.steps) {
    out.regressed = true;
    return out;
  }
  ActionTelemetry d;
  d.name = now.name;
  d.native = now.native;
  d.executions = now.executions - prev.executions;
  d.errors = now.errors - prev.errors;
  d.steps = now.steps - prev.steps;
  for (std::size_t i = 0; i < d.errors_by_status.size(); ++i) {
    if (now.errors_by_status[i] < prev.errors_by_status[i]) {
      out.regressed = true;
      return out;
    }
    d.errors_by_status[i] = now.errors_by_status[i] - prev.errors_by_status[i];
  }
  bool hist_changed = false;
  if (now.has_histograms) {
    if (!prev.has_histograms) {
      d.latency_ns = now.latency_ns;
      d.steps_hist = now.steps_hist;
      hist_changed = !hist_empty(d.latency_ns) || !hist_empty(d.steps_hist);
      d.has_histograms = hist_changed;
    } else {
      auto lat = hist_diff(prev.latency_ns, now.latency_ns);
      auto steps = hist_diff(prev.steps_hist, now.steps_hist);
      if (!lat || !steps) {
        out.regressed = true;
        return out;
      }
      d.latency_ns = *lat;
      d.steps_hist = *steps;
      hist_changed = !hist_empty(d.latency_ns) || !hist_empty(d.steps_hist);
      // Unchanged histograms stay off the wire: an action whose counters
      // moved but whose samples did not would otherwise ship two empty
      // bucket tables per poll. apply_delta skips absent histograms, so
      // this is pure payload savings.
      d.has_histograms = hist_changed;
    }
  }
  // Profiles ride only on full snapshots; the decoder keeps the last
  // full's hotspot tables for this action.
  out.changed = d.executions != 0 || d.errors != 0 || d.steps != 0 ||
                hist_changed || now.native != prev.native;
  out.delta = std::move(d);
  return out;
}

template <typename T>
const T* find_by_name(const std::vector<T>& v, const std::string& name) {
  for (const T& t : v) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

template <typename T>
T* find_by_name(std::vector<T>& v, const std::string& name) {
  for (T& t : v) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace

std::optional<EnclaveTelemetry> delta_between(const EnclaveTelemetry& prev,
                                              const EnclaveTelemetry& now) {
  if (now.packets < prev.packets || now.matched < prev.matched ||
      now.dropped_by_action < prev.dropped_by_action ||
      now.message_entries_created < prev.message_entries_created ||
      now.message_entries_evicted < prev.message_entries_evicted ||
      now.message_entries_expired < prev.message_entries_expired ||
      now.trace_sampled < prev.trace_sampled) {
    return std::nullopt;
  }
  EnclaveTelemetry d;
  d.enclave = now.enclave;
  d.telemetry_enabled = now.telemetry_enabled;
  d.packets = now.packets - prev.packets;
  d.matched = now.matched - prev.matched;
  d.dropped_by_action = now.dropped_by_action - prev.dropped_by_action;
  d.message_entries_created =
      now.message_entries_created - prev.message_entries_created;
  d.message_entries_evicted =
      now.message_entries_evicted - prev.message_entries_evicted;
  d.message_entries_expired =
      now.message_entries_expired - prev.message_entries_expired;
  d.trace_sampled = now.trace_sampled - prev.trace_sampled;
  d.trace_sample_every = now.trace_sample_every;

  // State section: counters diff, `live` is a gauge and ships absolute.
  // A probe histogram going backwards means the stores were replaced —
  // void the delta like any other regression.
  if (now.state.present) {
    if (prev.state.present &&
        (now.state.created < prev.state.created ||
         now.state.expired < prev.state.expired ||
         now.state.evicted < prev.state.evicted ||
         now.state.resizes < prev.state.resizes)) {
      return std::nullopt;
    }
    const StateTelemetry base = prev.state.present ? prev.state
                                                   : StateTelemetry{};
    auto probe = hist_diff(base.probe_len, now.state.probe_len);
    if (!probe) return std::nullopt;
    StateTelemetry sd;
    sd.live = now.state.live;
    sd.created = now.state.created - base.created;
    sd.expired = now.state.expired - base.expired;
    sd.evicted = now.state.evicted - base.evicted;
    sd.resizes = now.state.resizes - base.resizes;
    sd.probe_len = *probe;
    // An untouched section stays off the wire (and out of
    // delta_is_empty's way).
    sd.present = !prev.state.present || sd.created != 0 || sd.expired != 0 ||
                 sd.evicted != 0 || sd.resizes != 0 ||
                 now.state.live != base.live || !hist_empty(sd.probe_len);
    if (sd.present) d.state = std::move(sd);
  }

  for (const ActionTelemetry& a : now.actions) {
    const ActionTelemetry* p = find_by_name(prev.actions, a.name);
    if (p == nullptr) {
      // New action: ships whole (it diffs against zero), minus the
      // profile, which waits for the next full snapshot.
      ActionTelemetry whole = a;
      whole.has_profile = false;
      whole.profile_runs = 0;
      whole.profile_instructions = 0;
      whole.hotspots.clear();
      d.actions.push_back(std::move(whole));
      continue;
    }
    ActionDiff ad = diff_action(*p, a);
    if (ad.regressed) return std::nullopt;
    if (ad.changed) d.actions.push_back(std::move(ad.delta));
  }

  for (const ClassTelemetry& c : now.classes) {
    const ClassTelemetry* p = find_by_name(prev.classes, c.name);
    if (p == nullptr) {
      if (c.matched != 0 || c.dropped != 0) d.classes.push_back(c);
      continue;
    }
    if (c.matched < p->matched || c.dropped < p->dropped) return std::nullopt;
    ClassTelemetry cd;
    cd.name = c.name;
    cd.matched = c.matched - p->matched;
    cd.dropped = c.dropped - p->dropped;
    if (cd.matched != 0 || cd.dropped != 0) d.classes.push_back(std::move(cd));
  }

  // Host series carry absolute values (gauges move both ways); only
  // keys whose value changed — or appeared — are shipped. Keys that
  // vanish keep their last value at the decoder, which is the right
  // call for *_total counters and harmless for gauges.
  for (const auto& [name, value] : now.host_series) {
    const auto it = std::find_if(
        prev.host_series.begin(), prev.host_series.end(),
        [&name = name](const auto& kv) { return kv.first == name; });
    if (it == prev.host_series.end() || it->second != value) {
      d.host_series.emplace_back(name, value);
    }
  }
  return d;
}

bool delta_is_empty(const EnclaveTelemetry& d) {
  return d.packets == 0 && d.matched == 0 && d.dropped_by_action == 0 &&
         d.message_entries_created == 0 && d.message_entries_evicted == 0 &&
         d.message_entries_expired == 0 && !d.state.present &&
         d.trace_sampled == 0 && d.actions.empty() && d.classes.empty() &&
         d.host_series.empty();
}

void apply_delta(EnclaveTelemetry& base, const EnclaveTelemetry& delta) {
  base.telemetry_enabled = delta.telemetry_enabled;
  base.packets += delta.packets;
  base.matched += delta.matched;
  base.dropped_by_action += delta.dropped_by_action;
  base.message_entries_created += delta.message_entries_created;
  base.message_entries_evicted += delta.message_entries_evicted;
  base.message_entries_expired += delta.message_entries_expired;
  if (delta.state.present) {
    base.state.present = true;
    base.state.live = delta.state.live;  // gauge: absolute
    base.state.created += delta.state.created;
    base.state.expired += delta.state.expired;
    base.state.evicted += delta.state.evicted;
    base.state.resizes += delta.state.resizes;
    base.state.probe_len.merge(delta.state.probe_len);
  }
  base.trace_sampled += delta.trace_sampled;
  if (delta.trace_sample_every != 0) {
    base.trace_sample_every = delta.trace_sample_every;
  }
  for (const ActionTelemetry& a : delta.actions) {
    ActionTelemetry* t = find_by_name(base.actions, a.name);
    if (t == nullptr) {
      base.actions.push_back(a);
      continue;
    }
    t->native = a.native;
    t->executions += a.executions;
    t->errors += a.errors;
    t->steps += a.steps;
    for (std::size_t i = 0; i < t->errors_by_status.size(); ++i) {
      t->errors_by_status[i] += a.errors_by_status[i];
    }
    if (a.has_histograms) {
      t->has_histograms = true;
      t->latency_ns.merge(a.latency_ns);
      t->steps_hist.merge(a.steps_hist);
    }
    // Profile state stays — deltas never carry it.
  }
  for (const ClassTelemetry& c : delta.classes) {
    ClassTelemetry* t = find_by_name(base.classes, c.name);
    if (t == nullptr) {
      base.classes.push_back(c);
      continue;
    }
    t->matched += c.matched;
    t->dropped += c.dropped;
  }
  for (const auto& [name, value] : delta.host_series) {
    auto it = std::find_if(base.host_series.begin(), base.host_series.end(),
                           [&name = name](const auto& kv) {
                             return kv.first == name;
                           });
    if (it == base.host_series.end()) {
      base.host_series.emplace_back(name, value);
    } else {
      it->second = value;
    }
  }
}

std::string encode_delta_payload(const DeltaPayload& p) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(p.schema_version);
  out += ",\"epoch\":";
  out += std::to_string(p.epoch);
  out += ",\"seq\":";
  out += std::to_string(p.seq);
  out += ",\"full\":";
  out += p.full ? "true" : "false";
  out += ",\"enclaves\":[";
  for (std::size_t i = 0; i < p.enclaves.size(); ++i) {
    if (i != 0) out += ',';
    append_enclave_json(out, p.enclaves[i]);
  }
  out += "]}";
  return out;
}

DeltaPayload parse_delta_payload(const std::string& text) {
  const Json root = JsonParser(text).parse();
  DeltaPayload p;
  p.schema_version = static_cast<int>(root.u64("schema_version", 1));
  p.epoch = root.u64("epoch");
  p.seq = root.u64("seq");
  p.full = root.flag("full");
  if (const Json* enclaves = root.get("enclaves")) {
    for (const Json& ej : enclaves->items) {
      p.enclaves.push_back(enclave_from_json(ej));
    }
  }
  return p;
}

namespace {

// Process-global epoch allocator: every full resync — from any encoder
// in the process — gets a distinct stamp, so a controller that decoded
// a pre-restart full can never mistake a post-restart delta stream for
// its own.
std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string DeltaEncoder::encode(EnclaveTelemetry now, std::uint64_t epoch,
                                 std::uint64_t seq) {
  if (host_series_) now.host_series = host_series_();
  DeltaPayload p;
  if (primed_ && epoch == epoch_ && seq == seq_) {
    if (auto d = delta_between(prev_, now)) {
      ++seq_;
      p.full = false;
      p.epoch = epoch_;
      p.seq = seq_;
      if (!delta_is_empty(*d)) p.enclaves.push_back(*std::move(d));
      prev_ = std::move(now);
      return encode_delta_payload(p);
    }
    // A counter went backwards (action reinstalled after a reset, ...):
    // fall through to the full-resync arm.
  }
  epoch_ = next_epoch();
  seq_ = 1;
  primed_ = true;
  p.epoch = epoch_;
  p.seq = seq_;
  p.enclaves.push_back(now);
  prev_ = std::move(now);
  return encode_delta_payload(p);
}

bool DeltaDecoder::apply(const DeltaPayload& p) {
  if (p.full) {
    snapshots_ = p.enclaves;
    epoch_ = p.epoch;
    seq_ = p.seq;
    synced_ = true;
    ++stats_.full_resyncs;
    return true;
  }
  if (!synced_ || p.epoch != epoch_ || p.seq != seq_ + 1) {
    ++stats_.rejected;
    return false;
  }
  for (const EnclaveTelemetry& d : p.enclaves) {
    auto it = std::find_if(snapshots_.begin(), snapshots_.end(),
                           [&](const EnclaveTelemetry& e) {
                             return e.enclave == d.enclave;
                           });
    if (it == snapshots_.end()) {
      // An enclave we have never seen whole: adopt the delta as its
      // baseline (it diffs against zero on the agent, so this is the
      // true cumulative state minus trace/profile detail).
      snapshots_.push_back(d);
    } else {
      apply_delta(*it, d);
    }
  }
  seq_ = p.seq;
  ++stats_.deltas_applied;
  return true;
}

bool DeltaDecoder::apply_json(const std::string& text) {
  try {
    return apply(parse_delta_payload(text));
  } catch (const std::runtime_error&) {
    ++stats_.rejected;
    return false;
  }
}

}  // namespace eden::telemetry
