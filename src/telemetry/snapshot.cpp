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

// Adds `a`'s counts into `t` (same action name). Shared by the
// map-based aggregate() and the sorted-vector merge_aggregates().
void accumulate_action(ActionTelemetry& t, const ActionTelemetry& a) {
  t.executions += a.executions;
  t.errors += a.errors;
  t.steps += a.steps;
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

void merge_action(std::map<std::string, ActionTelemetry>& into,
                  const ActionTelemetry& a) {
  auto [it, fresh] = into.try_emplace(a.name, a);
  if (!fresh) accumulate_action(it->second, a);
}

void merge_class(std::map<std::string, ClassTelemetry>& into,
                 const ClassTelemetry& c) {
  ClassTelemetry& t = into.try_emplace(c.name).first->second;
  t.name = c.name;
  t.matched += c.matched;
  t.dropped += c.dropped;
}

// Merges two name-sorted telemetry vectors, accumulating entries whose
// names collide. Both inputs come out of aggregate()'s std::map walk,
// so they are already sorted and the merge is linear.
template <typename T, typename Fn>
std::vector<T> merge_sorted(std::vector<T> a, std::vector<T> b,
                            Fn&& accumulate) {
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

void append_action_json(std::string& out, const ActionTelemetry& a) {
  out += "{\"name\":\"";
  out += json_escape(a.name);
  out += "\",\"native\":";
  out += a.native ? "true" : "false";
  out += ",\"executions\":";
  out += std::to_string(a.executions);
  out += ",\"errors\":";
  out += std::to_string(a.errors);
  out += ",\"steps\":";
  out += std::to_string(a.steps);
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
  out += "\",\"matched\":";
  out += std::to_string(c.matched);
  out += ",\"dropped\":";
  out += std::to_string(c.dropped);
  out += '}';
}

void append_session_json(std::string& out, const SessionTelemetry& s) {
  out += "{\"name\":\"";
  out += json_escape(s.name);
  out += "\",\"connected\":";
  out += s.connected ? "true" : "false";
  out += ",\"ready\":";
  out += s.ready ? "true" : "false";
  out += ",\"agent_boot_id\":";
  out += std::to_string(s.agent_boot_id);
  auto field = [&](const char* key, std::uint64_t value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  field("connects", s.connects);
  field("connect_failures", s.connect_failures);
  field("teardowns", s.teardowns);
  field("resyncs", s.resyncs);
  field("last_resync_commands", s.last_resync_commands);
  field("requests_sent", s.requests_sent);
  field("responses_ok", s.responses_ok);
  field("responses_error", s.responses_error);
  field("request_timeouts", s.request_timeouts);
  field("heartbeats_sent", s.heartbeats_sent);
  field("heartbeats_acked", s.heartbeats_acked);
  field("liveness_timeouts", s.liveness_timeouts);
  field("corrupt_streams", s.corrupt_streams);
  field("txns_committed", s.txns_committed);
  field("txns_aborted", s.txns_aborted);
  field("agent_restarts_seen", s.agent_restarts_seen);
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

// Shortest round-trippable rendering of a host-series value (%.17g —
// the parser keeps number text, so 64-bit-ish counters survive).
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

AggregateTelemetry aggregate(std::vector<EnclaveTelemetry> enclaves) {
  AggregateTelemetry agg;
  std::map<std::string, ActionTelemetry> actions;
  std::map<std::string, ClassTelemetry> classes;
  for (const EnclaveTelemetry& e : enclaves) {
    agg.packets += e.packets;
    agg.matched += e.matched;
    agg.dropped_by_action += e.dropped_by_action;
    for (const ActionTelemetry& a : e.actions) merge_action(actions, a);
    for (const ClassTelemetry& c : e.classes) merge_class(classes, c);
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
  out.actions = merge_sorted(
      std::move(out.actions), std::move(b.actions),
      [](ActionTelemetry& t, const ActionTelemetry& x) {
        accumulate_action(t, x);
      });
  out.classes = merge_sorted(std::move(out.classes), std::move(b.classes),
                             [](ClassTelemetry& t, const ClassTelemetry& x) {
                               t.matched += x.matched;
                               t.dropped += x.dropped;
                             });
  return out;
}

void append_enclave_json(std::string& out, const EnclaveTelemetry& e) {
  out += "{\"name\":\"";
  out += json_escape(e.enclave);
  out += "\",\"telemetry_enabled\":";
  out += e.telemetry_enabled ? "true" : "false";
  out += ",\"packets\":";
  out += std::to_string(e.packets);
  out += ",\"matched\":";
  out += std::to_string(e.matched);
  out += ",\"dropped_by_action\":";
  out += std::to_string(e.dropped_by_action);
  out += ",\"message_entries_created\":";
  out += std::to_string(e.message_entries_created);
  out += ",\"message_entries_evicted\":";
  out += std::to_string(e.message_entries_evicted);
  out += ",\"message_entries_expired\":";
  out += std::to_string(e.message_entries_expired);
  if (e.state.present) {
    out += ",\"state\":{\"live\":";
    out += std::to_string(e.state.live);
    out += ",\"created\":";
    out += std::to_string(e.state.created);
    out += ",\"expired\":";
    out += std::to_string(e.state.expired);
    out += ",\"evicted\":";
    out += std::to_string(e.state.evicted);
    out += ",\"resizes\":";
    out += std::to_string(e.state.resizes);
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
  auto series = [&](const char* name, const Labels& labels,
                    std::uint64_t value) {
    out += name;
    out += render_labels(labels);
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };

  out += "# TYPE eden_enclave_packets_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    series("eden_enclave_packets_total", {{"enclave", e.enclave}}, e.packets);
  }
  out += "# TYPE eden_enclave_matched_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    series("eden_enclave_matched_total", {{"enclave", e.enclave}}, e.matched);
  }
  out += "# TYPE eden_enclave_dropped_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    series("eden_enclave_dropped_total", {{"enclave", e.enclave}},
           e.dropped_by_action);
  }
  out += "# TYPE eden_enclave_message_entries_created_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    series("eden_enclave_message_entries_created_total",
           {{"enclave", e.enclave}}, e.message_entries_created);
  }
  out += "# TYPE eden_enclave_message_entries_evicted_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    series("eden_enclave_message_entries_evicted_total",
           {{"enclave", e.enclave}}, e.message_entries_evicted);
  }
  out += "# TYPE eden_enclave_message_entries_expired_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    series("eden_enclave_message_entries_expired_total",
           {{"enclave", e.enclave}}, e.message_entries_expired);
  }

  // Message-state store section (FlowStore), one row set per enclave
  // that holds message state.
  out += "# TYPE eden_state_live gauge\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    if (e.state.present) {
      series("eden_state_live", {{"enclave", e.enclave}}, e.state.live);
    }
  }
  out += "# TYPE eden_state_created_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    if (e.state.present) {
      series("eden_state_created_total", {{"enclave", e.enclave}},
             e.state.created);
    }
  }
  out += "# TYPE eden_state_expired_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    if (e.state.present) {
      series("eden_state_expired_total", {{"enclave", e.enclave}},
             e.state.expired);
    }
  }
  out += "# TYPE eden_state_evicted_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    if (e.state.present) {
      series("eden_state_evicted_total", {{"enclave", e.enclave}},
             e.state.evicted);
    }
  }
  out += "# TYPE eden_state_resizes_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    if (e.state.present) {
      series("eden_state_resizes_total", {{"enclave", e.enclave}},
             e.state.resizes);
    }
  }
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

  out += "# TYPE eden_class_matched_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ClassTelemetry& c : e.classes) {
      series("eden_class_matched_total",
             {{"enclave", e.enclave}, {"class", c.name}}, c.matched);
    }
  }
  out += "# TYPE eden_class_dropped_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ClassTelemetry& c : e.classes) {
      series("eden_class_dropped_total",
             {{"enclave", e.enclave}, {"class", c.name}}, c.dropped);
    }
  }

  out += "# TYPE eden_action_executions_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ActionTelemetry& a : e.actions) {
      series("eden_action_executions_total",
             {{"enclave", e.enclave}, {"action", a.name}}, a.executions);
    }
  }
  out += "# TYPE eden_action_steps_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ActionTelemetry& a : e.actions) {
      if (a.native) continue;
      series("eden_action_steps_total",
             {{"enclave", e.enclave}, {"action", a.name}}, a.steps);
    }
  }
  out += "# TYPE eden_action_errors_total counter\n";
  for (const EnclaveTelemetry& e : agg.enclaves) {
    for (const ActionTelemetry& a : e.actions) {
      for (std::size_t i = 0; i < a.errors_by_status.size(); ++i) {
        if (a.errors_by_status[i] == 0) continue;
        series("eden_action_errors_total",
               {{"enclave", e.enclave},
                {"action", a.name},
                {"status",
                 std::string(lang::exec_status_name(
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
    struct CounterSeries {
      const char* name;
      std::uint64_t SessionTelemetry::* member;
    };
    static constexpr CounterSeries kSessionCounters[] = {
        {"eden_session_connects_total", &SessionTelemetry::connects},
        {"eden_session_connect_failures_total",
         &SessionTelemetry::connect_failures},
        {"eden_session_teardowns_total", &SessionTelemetry::teardowns},
        {"eden_session_resyncs_total", &SessionTelemetry::resyncs},
        {"eden_session_requests_total", &SessionTelemetry::requests_sent},
        {"eden_session_responses_ok_total", &SessionTelemetry::responses_ok},
        {"eden_session_responses_error_total",
         &SessionTelemetry::responses_error},
        {"eden_session_request_timeouts_total",
         &SessionTelemetry::request_timeouts},
        {"eden_session_heartbeats_sent_total",
         &SessionTelemetry::heartbeats_sent},
        {"eden_session_heartbeats_acked_total",
         &SessionTelemetry::heartbeats_acked},
        {"eden_session_liveness_timeouts_total",
         &SessionTelemetry::liveness_timeouts},
        {"eden_session_corrupt_streams_total",
         &SessionTelemetry::corrupt_streams},
        {"eden_session_txns_committed_total",
         &SessionTelemetry::txns_committed},
        {"eden_session_txns_aborted_total", &SessionTelemetry::txns_aborted},
        {"eden_session_agent_restarts_total",
         &SessionTelemetry::agent_restarts_seen},
    };
    for (const CounterSeries& cs : kSessionCounters) {
      out += "# TYPE ";
      out += cs.name;
      out += " counter\n";
      for (const SessionTelemetry& s : agg.sessions) {
        series(cs.name, {{"session", s.name}}, s.*cs.member);
      }
    }
    out += "# TYPE eden_session_connected gauge\n";
    for (const SessionTelemetry& s : agg.sessions) {
      series("eden_session_connected", {{"session", s.name}},
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
