#include "telemetry/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

namespace eden::telemetry {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void accumulate(ActionTelemetry& t, const ActionTelemetry& a) {
  merge_action(t, a);
}

void accumulate(ClassTelemetry& t, const ClassTelemetry& c) {
  fold_series(kClassSeries, t, c);
}

template <typename T>
void merge_by_name(std::map<std::string, T>& into, const T& x) {
  auto [it, fresh] = into.try_emplace(x.name, x);
  if (!fresh) accumulate(it->second, x);
}

// Merges two name-sorted telemetry vectors, accumulating entries whose
// names collide. Both inputs come out of aggregate()'s std::map walk,
// so they are already sorted and the merge is linear.
template <typename T>
std::vector<T> merge_sorted(std::vector<T> a, std::vector<T> b) {
  std::vector<T> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].name < b[j].name) {
      out.push_back(std::move(a[i++]));
    } else if (b[j].name < a[i].name) {
      out.push_back(std::move(b[j++]));
    } else {
      accumulate(a[i], b[j]);
      out.push_back(std::move(a[i]));
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) out.push_back(std::move(a[i]));
  for (; j < b.size(); ++j) out.push_back(std::move(b[j]));
  return out;
}

void append_histogram_json(std::string& out, const char* key,
                           const HistogramSnapshot& h) {
  out += '"';
  out += key;
  out += "\":{\"count\":";
  out += std::to_string(h.count);
  out += ",\"sum\":";
  out += std::to_string(h.sum);
  out += ",\"mean\":";
  out += std::to_string(h.mean());
  out += ",\"p50\":";
  out += std::to_string(h.p50());
  out += ",\"p95\":";
  out += std::to_string(h.p95());
  out += ",\"p99\":";
  out += std::to_string(h.p99());
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
    if (h.counts[k] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "[";
    out += std::to_string(bucket_upper_bound(k));
    out += ',';
    out += std::to_string(h.counts[k]);
    out += ']';
  }
  out += "]}";
}

// Writes `r`'s series as "key":value pairs, each after a comma except
// the first when `leading_comma` is false.
template <typename T, std::size_t N>
void append_series_json(std::string& out, const Series<T> (&table)[N],
                        const T& r, bool leading_comma = true) {
  for (const Series<T>& s : table) {
    if (leading_comma) out += ',';
    leading_comma = true;
    out += '"';
    out += s.key;
    out += "\":";
    out += std::to_string(r.*s.member);
  }
}

void append_action_json(std::string& out, const ActionTelemetry& a) {
  out += "{\"name\":\"";
  out += json_escape(a.name);
  out += "\",\"native\":";
  out += a.native ? "true" : "false";
  append_series_json(out, kActionSeries, a);
  out += ",\"errors_by_status\":{";
  bool first = true;
  for (std::size_t i = 0; i < a.errors_by_status.size(); ++i) {
    if (a.errors_by_status[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(
        lang::exec_status_name(static_cast<lang::ExecStatus>(i)));
    out += "\":";
    out += std::to_string(a.errors_by_status[i]);
  }
  out += '}';
  if (a.has_histograms) {
    out += ',';
    append_histogram_json(out, "latency_ns", a.latency_ns);
    if (!a.native) {
      out += ',';
      append_histogram_json(out, "steps_hist", a.steps_hist);
    }
  }
  if (a.has_profile) {
    out += ",\"profile\":{\"runs\":";
    out += std::to_string(a.profile_runs);
    out += ",\"instructions\":";
    out += std::to_string(a.profile_instructions);
    out += ",\"hotspots\":[";
    for (std::size_t i = 0; i < a.hotspots.size(); ++i) {
      const HotSpot& h = a.hotspots[i];
      if (i != 0) out += ',';
      out += "{\"pc\":";
      out += std::to_string(h.pc);
      out += ",\"count\":";
      out += std::to_string(h.count);
      out += ",\"ticks\":";
      out += std::to_string(h.ticks);
      out += ",\"count_pct\":";
      out += std::to_string(h.count_pct);
      out += ",\"ticks_pct\":";
      out += std::to_string(h.ticks_pct);
      out += ",\"text\":\"";
      out += json_escape(h.text);
      out += "\"}";
    }
    out += "]}";
  }
  out += '}';
}

void append_class_json(std::string& out, const ClassTelemetry& c) {
  out += "{\"class\":\"";
  out += json_escape(c.name);
  out += '"';
  append_series_json(out, kClassSeries, c);
  out += '}';
}

void append_session_json(std::string& out, const SessionTelemetry& s) {
  out += "{\"name\":\"";
  out += json_escape(s.name);
  out += "\",\"connected\":";
  out += s.connected ? "true" : "false";
  out += ",\"ready\":";
  out += s.ready ? "true" : "false";
  append_series_json(out, kSessionSeries, s);
  out += ',';
  append_histogram_json(out, "rtt_ns", s.rtt_ns);
  out += ',';
  append_histogram_json(out, "resync_commands", s.resync_commands);
  out += '}';
}

template <typename T, typename Fn>
void append_array(std::string& out, const std::vector<T>& items, Fn&& fn) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    fn(out, items[i]);
  }
  out += ']';
}

void append_sample(std::string& out, const char* name, const Labels& labels,
                   std::uint64_t value) {
  out += name;
  out += render_labels(labels);
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

// One "# TYPE" block per exported series of `table`. `rows(series,
// emit)` calls emit(labels, record) for each record the block covers.
template <typename T, std::size_t N, typename Rows>
void append_series_exposition(std::string& out, const Series<T> (&table)[N],
                              Rows&& rows) {
  for (const Series<T>& s : table) {
    if (s.prom == nullptr) continue;
    out += "# TYPE ";
    out += s.prom;
    out += s.kind == SeriesKind::counter ? " counter\n" : " gauge\n";
    rows(s, [&](const Labels& labels, const T& r) {
      append_sample(out, s.prom, labels, r.*s.member);
    });
  }
}

// Shortest round-trippable rendering of a host-series value (%.17g —
// the parser keeps number text, so 64-bit-ish counters survive).
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

void merge_action(ActionTelemetry& t, const ActionTelemetry& a) {
  fold_series(kActionSeries, t, a);
  for (std::size_t i = 0; i < t.errors_by_status.size(); ++i) {
    t.errors_by_status[i] += a.errors_by_status[i];
  }
  if (a.has_histograms) {
    t.has_histograms = true;
    t.latency_ns.merge(a.latency_ns);
    t.steps_hist.merge(a.steps_hist);
  }
  if (a.has_profile) {
    // Same action name = same program (the controller ships identical
    // bytecode), so hot-spot rows merge by pc. Percentages are
    // recomputed against the merged totals.
    t.has_profile = true;
    t.profile_runs += a.profile_runs;
    t.profile_instructions += a.profile_instructions;
    for (const HotSpot& h : a.hotspots) {
      auto it = std::find_if(t.hotspots.begin(), t.hotspots.end(),
                             [&](const HotSpot& x) { return x.pc == h.pc; });
      if (it == t.hotspots.end()) {
        t.hotspots.push_back(h);
      } else {
        it->count += h.count;
        it->ticks += h.ticks;
      }
    }
    std::sort(t.hotspots.begin(), t.hotspots.end(),
              [](const HotSpot& x, const HotSpot& y) {
                return x.count != y.count ? x.count > y.count : x.pc < y.pc;
              });
    std::uint64_t tick_total = 0;
    for (const HotSpot& h : t.hotspots) tick_total += h.ticks;
    for (HotSpot& h : t.hotspots) {
      h.count_pct = t.profile_instructions > 0
                        ? 100.0 * static_cast<double>(h.count) /
                              static_cast<double>(t.profile_instructions)
                        : 0.0;
      h.ticks_pct = tick_total > 0 ? 100.0 * static_cast<double>(h.ticks) /
                                         static_cast<double>(tick_total)
                                   : 0.0;
    }
  }
}

AggregateTelemetry aggregate(std::vector<EnclaveTelemetry> enclaves) {
  AggregateTelemetry agg;
  std::map<std::string, ActionTelemetry> actions;
  std::map<std::string, ClassTelemetry> classes;
  for (const EnclaveTelemetry& e : enclaves) {
    agg.packets += e.packets;
    agg.matched += e.matched;
    agg.dropped_by_action += e.dropped_by_action;
    for (const ActionTelemetry& a : e.actions) merge_by_name(actions, a);
    for (const ClassTelemetry& c : e.classes) merge_by_name(classes, c);
  }
  for (auto& [name, a] : actions) agg.actions.push_back(std::move(a));
  for (auto& [name, c] : classes) agg.classes.push_back(std::move(c));
  agg.enclaves = std::move(enclaves);
  return agg;
}

AggregateTelemetry merge_aggregates(AggregateTelemetry a,
                                    AggregateTelemetry b) {
  AggregateTelemetry out = std::move(a);
  out.packets += b.packets;
  out.matched += b.matched;
  out.dropped_by_action += b.dropped_by_action;
  out.enclaves.insert(out.enclaves.end(),
                      std::make_move_iterator(b.enclaves.begin()),
                      std::make_move_iterator(b.enclaves.end()));
  out.sessions.insert(out.sessions.end(),
                      std::make_move_iterator(b.sessions.begin()),
                      std::make_move_iterator(b.sessions.end()));
  out.actions = merge_sorted(std::move(out.actions), std::move(b.actions));
  out.classes = merge_sorted(std::move(out.classes), std::move(b.classes));
  return out;
}

void append_enclave_json(std::string& out, const EnclaveTelemetry& e) {
  out += "{\"name\":\"";
  out += json_escape(e.enclave);
  out += "\",\"telemetry_enabled\":";
  out += e.telemetry_enabled ? "true" : "false";
  append_series_json(out, kEnclaveSeries, e);
  if (e.state.present) {
    out += ",\"state\":{";
    append_series_json(out, kStateSeries, e.state, false);
    out += ',';
    append_histogram_json(out, "probe_len", e.state.probe_len);
    out += '}';
  }
  out += ",\"actions\":";
  append_array(out, e.actions, [](std::string& o, const ActionTelemetry& a) {
    append_action_json(o, a);
  });
  out += ",\"classes\":";
  append_array(out, e.classes, [](std::string& o, const ClassTelemetry& c) {
    append_class_json(o, c);
  });
  if (!e.host_series.empty()) {
    out += ",\"host_series\":{";
    bool first = true;
    for (const auto& [name, value] : e.host_series) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += json_escape(name);
      out += "\":";
      append_double(out, value);
    }
    out += '}';
  }
  out += '}';
}

std::string to_json(const AggregateTelemetry& agg) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(kTelemetrySchemaVersion);
  out += ",\"enclaves\":[";
  for (std::size_t i = 0; i < agg.enclaves.size(); ++i) {
    if (i != 0) out += ',';
    append_enclave_json(out, agg.enclaves[i]);
  }
  out += "],\"sessions\":";
  append_array(out, agg.sessions, [](std::string& o, const SessionTelemetry& s) {
    append_session_json(o, s);
  });
  out += ",\"total\":{\"packets\":";
  out += std::to_string(agg.packets);
  out += ",\"matched\":";
  out += std::to_string(agg.matched);
  out += ",\"dropped_by_action\":";
  out += std::to_string(agg.dropped_by_action);
  out += ",\"actions\":";
  append_array(out, agg.actions, [](std::string& o, const ActionTelemetry& a) {
    append_action_json(o, a);
  });
  out += ",\"classes\":";
  append_array(out, agg.classes, [](std::string& o, const ClassTelemetry& c) {
    append_class_json(o, c);
  });
  out += "}}";
  return out;
}

std::string to_prometheus(const AggregateTelemetry& agg) {
  std::string out;
  append_series_exposition(out, kEnclaveSeries, [&](const auto&, auto&& emit) {
    for (const EnclaveTelemetry& e : agg.enclaves) {
      emit({{"enclave", e.enclave}}, e);
    }
  });

  // Message-state store section (FlowStore), one row set per enclave
  // that holds message state.
  append_series_exposition(out, kStateSeries, [&](const auto&, auto&& emit) {
    for (const EnclaveTelemetry& e : agg.enclaves) {
      if (e.state.present) emit({{"enclave", e.enclave}}, e.state);
    }
  });
  {
    bool state_hist_header = false;
    for (const EnclaveTelemetry& e : agg.enclaves) {
      if (!e.state.present || e.state.probe_len.count == 0) continue;
      if (!state_hist_header) {
        out += "# TYPE eden_state_probe_len histogram\n";
        state_hist_header = true;
      }
      append_histogram_exposition(out, "eden_state_probe_len",
                                  render_labels({{"enclave", e.enclave}}),
                                  e.state.probe_len);
    }
  }

  append_series_exposition(out, kClassSeries, [&](const auto&, auto&& emit) {
    for (const EnclaveTelemetry& e : agg.enclaves) {
      for (const ClassTelemetry& c : e.classes) {
        emit({{"enclave", e.enclave}, {"class", c.name}}, c);
      }
    }
  });

  append_series_exposition(
      out, kActionSeries, [&](const auto& series, auto&& emit) {
        for (const EnclaveTelemetry& e : agg.enclaves) {
          for (const ActionTelemetry& a : e.actions) {
            // A native twin runs no bytecode, so it has no steps series.
            if (a.native && series.member == &ActionTelemetry::steps) continue;
            emit({{"enclave", e.enclave}, {"action", a.name}}, a);
          }
        }
      });
  out += "# TYPE eden_action_errors_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ActionTelemetry& a : e.actions) {
      for (std::size_t i = 0; i < a.errors_by_status.size(); ++i) {
        if (a.errors_by_status[i] == 0) continue;
        append_sample(out, "eden_action_errors_total",
                      {{"enclave", e.enclave},
                       {"action", a.name},
                       {"status", std::string(lang::exec_status_name(
                                      static_cast<lang::ExecStatus>(i)))}},
                      a.errors_by_status[i]);
      }
    }
  }

  bool histogram_header = false;
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ActionTelemetry& a : e.actions) {
      if (!a.has_histograms) continue;
      if (!histogram_header) {
        out += "# TYPE eden_action_latency_ns histogram\n";
        histogram_header = true;
      }
      append_histogram_exposition(
          out, "eden_action_latency_ns",
          render_labels({{"enclave", e.enclave}, {"action", a.name}}),
          a.latency_ns);
    }
  }
  histogram_header = false;
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ActionTelemetry& a : e.actions) {
      if (!a.has_histograms || a.native) continue;
      if (!histogram_header) {
        out += "# TYPE eden_action_steps histogram\n";
        histogram_header = true;
      }
      append_histogram_exposition(
          out, "eden_action_steps",
          render_labels({{"enclave", e.enclave}, {"action", a.name}}),
          a.steps_hist);
    }
  }

  if (!agg.sessions.empty()) {
    append_series_exposition(
        out, kSessionSeries, [&](const auto&, auto&& emit) {
          for (const SessionTelemetry& s : agg.sessions) {
            emit({{"session", s.name}}, s);
          }
        });
    out += "# TYPE eden_session_connected gauge\n";
    for (const SessionTelemetry& s : agg.sessions) {
      append_sample(out, "eden_session_connected", {{"session", s.name}},
                    s.ready ? 1 : 0);
    }
    out += "# TYPE eden_session_rtt_ns histogram\n";
    for (const SessionTelemetry& s : agg.sessions) {
      append_histogram_exposition(out, "eden_session_rtt_ns",
                                  render_labels({{"session", s.name}}),
                                  s.rtt_ns);
    }
    out += "# TYPE eden_session_resync_commands histogram\n";
    for (const SessionTelemetry& s : agg.sessions) {
      append_histogram_exposition(out, "eden_session_resync_commands",
                                  render_labels({{"session", s.name}}),
                                  s.resync_commands);
    }
  }
  return out;
}

}  // namespace eden::telemetry
