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

// Series-wise diff of `now` against `prev` into `d`: counters carry the
// increment, gauges their absolute value. False when a counter went
// backwards, which voids the whole delta.
template <typename T, std::size_t N>
bool diff_series(const Series<T> (&table)[N], const T& prev, const T& now,
                 T& d) {
  for (const Series<T>& s : table) {
    if (s.kind == SeriesKind::counter && now.*s.member < prev.*s.member) {
      return false;
    }
    d.*s.member = s.kind == SeriesKind::gauge
                      ? now.*s.member
                      : now.*s.member - prev.*s.member;
  }
  return true;
}

// True when `d`, diff_series' result against `prev`, moved a series: a
// counter increment is nonzero or a gauge differs from `prev`.
template <typename T, std::size_t N>
bool series_moved(const Series<T> (&table)[N], const T& prev, const T& d) {
  for (const Series<T>& s : table) {
    const bool moved = s.kind == SeriesKind::gauge
                           ? d.*s.member != prev.*s.member
                           : d.*s.member != 0;
    if (moved) return true;
  }
  return false;
}

// Diff of one action against its previous report; nullopt when a
// counter or histogram bucket regressed.
std::optional<ActionTelemetry> diff_action(const ActionTelemetry& prev,
                                           const ActionTelemetry& now) {
  ActionTelemetry d;
  d.name = now.name;
  d.native = now.native;
  if (!diff_series(kActionSeries, prev, now, d)) return std::nullopt;
  for (std::size_t i = 0; i < d.errors_by_status.size(); ++i) {
    if (now.errors_by_status[i] < prev.errors_by_status[i]) {
      return std::nullopt;
    }
    d.errors_by_status[i] = now.errors_by_status[i] - prev.errors_by_status[i];
  }
  if (now.has_histograms) {
    const HistogramSnapshot none;
    auto lat = hist_diff(prev.has_histograms ? prev.latency_ns : none,
                         now.latency_ns);
    auto steps = hist_diff(prev.has_histograms ? prev.steps_hist : none,
                           now.steps_hist);
    if (!lat || !steps) return std::nullopt;
    d.latency_ns = *lat;
    d.steps_hist = *steps;
    // Unchanged histograms stay off the wire: an action whose counters
    // moved but whose samples did not would otherwise ship two empty
    // bucket tables per poll. apply_delta skips absent histograms, so
    // this is pure payload savings.
    d.has_histograms = !hist_empty(d.latency_ns) || !hist_empty(d.steps_hist);
  }
  // Profiles ride only on full snapshots; the decoder keeps the last
  // full's hotspot tables for this action.
  return d;
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
  // A delta cannot say "gone": an action that vanished, or a state
  // section gone with the last message-state action, would linger in
  // the decoder's view. Void the delta, like a counter regression.
  if (prev.state.present && !now.state.present) return std::nullopt;
  for (const ActionTelemetry& a : prev.actions) {
    if (find_by_name(now.actions, a.name) == nullptr) return std::nullopt;
  }
  EnclaveTelemetry d;
  d.enclave = now.enclave;
  d.telemetry_enabled = now.telemetry_enabled;
  if (!diff_series(kEnclaveSeries, prev, now, d)) return std::nullopt;

  // State section: counters diff, `live` is a gauge and ships absolute.
  // A probe histogram going backwards means the stores were replaced —
  // void the delta like any other regression.
  if (now.state.present) {
    const StateTelemetry base = prev.state.present ? prev.state
                                                   : StateTelemetry{};
    StateTelemetry sd;
    if (!diff_series(kStateSeries, base, now.state, sd)) return std::nullopt;
    auto probe = hist_diff(base.probe_len, now.state.probe_len);
    if (!probe) return std::nullopt;
    sd.probe_len = *probe;
    // An untouched section stays off the wire (and out of
    // delta_is_empty's way).
    sd.present = !prev.state.present || series_moved(kStateSeries, base, sd) ||
                 !hist_empty(sd.probe_len);
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
    std::optional<ActionTelemetry> ad = diff_action(*p, a);
    if (!ad) return std::nullopt;
    if (series_moved(kActionSeries, *p, *ad) || ad->has_histograms ||
        a.native != p->native) {
      d.actions.push_back(*std::move(ad));
    }
  }

  for (const ClassTelemetry& c : now.classes) {
    const ClassTelemetry* p = find_by_name(prev.classes, c.name);
    const ClassTelemetry none;
    const ClassTelemetry& base = p != nullptr ? *p : none;
    ClassTelemetry cd;
    cd.name = c.name;
    if (!diff_series(kClassSeries, base, c, cd)) return std::nullopt;
    if (series_moved(kClassSeries, base, cd)) d.classes.push_back(std::move(cd));
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
  return !series_moved(kEnclaveSeries, EnclaveTelemetry{}, d) &&
         !d.state.present &&
         d.actions.empty() && d.classes.empty() && d.host_series.empty();
}

void apply_delta(EnclaveTelemetry& base, const EnclaveTelemetry& delta) {
  base.telemetry_enabled = delta.telemetry_enabled;
  fold_series(kEnclaveSeries, base, delta);
  if (delta.state.present) {
    base.state.present = true;
    fold_series(kStateSeries, base.state, delta.state);
    base.state.probe_len.merge(delta.state.probe_len);
  }
  for (const ActionTelemetry& a : delta.actions) {
    ActionTelemetry* t = find_by_name(base.actions, a.name);
    if (t == nullptr) {
      base.actions.push_back(a);
      continue;
    }
    t->native = a.native;
    // Deltas never carry profiles, so the base's hot spots stay.
    merge_action(*t, a);
  }
  for (const ClassTelemetry& c : delta.classes) {
    ClassTelemetry* t = find_by_name(base.classes, c.name);
    if (t == nullptr) {
      base.classes.push_back(c);
      continue;
    }
    fold_series(kClassSeries, *t, c);
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
      // true cumulative state minus profile detail).
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
