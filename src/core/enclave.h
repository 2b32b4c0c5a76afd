// The Eden enclave (Section 3.4): the programmable data plane that sits
// in the end-host stack.
//
// An enclave holds
//  * match-action tables whose rules match on *class names* (not packet
//    headers) and whose action part is a real program;
//  * installed actions: bytecode executed by the interpreter, or native
//    C++ twins used as the paper's "native" baseline;
//  * the runtime state machinery: per-action global state, per-message
//    state keyed by the packet's message identifier, marshalling between
//    packets and state blocks, and the concurrency model derived from
//    the access annotations (Section 3.4.4);
//  * its own packet-granularity classification (last row of Table 2):
//    five-tuple rules that let the enclave classify traffic of
//    unmodified applications into flow-level messages.
//
// process() is the data path: thread-compatible, lock-free for
// `parallel` actions, per-message locked for `per_message`, fully locked
// for `serialized` — exactly the model of Section 3.4.4.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/class_name.h"
#include "core/enclave_schema.h"
#include "lang/interpreter.h"
#include "state/flow_store.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/snapshot.h"
#include "telemetry/span.h"
#include "util/rng.h"

namespace eden::core {

namespace detail {
struct ThreadState;  // per-thread execution resources (enclave.cpp)
}
namespace wire {
struct AgentAccess;  // the wire agent's way to add_rule's id form (wire.cpp)
}

using ActionId = std::uint32_t;
using TableId = std::uint32_t;
using MatchRuleId = std::uint64_t;
inline constexpr ActionId kInvalidAction = 0xffffffffu;

// Context handed to native twin actions so they can mirror builtins.
struct NativeCtx {
  util::Rng& rng;
  std::int64_t now_ns;
};

// A native action operates on the same state blocks as interpreted
// bytecode, so both variants share marshalling and state management and
// the native-vs-Eden comparison isolates pure interpretation cost.
using NativeActionFn = std::function<lang::ExecStatus(
    lang::StateBlock& packet, lang::StateBlock* message,
    lang::StateBlock* global, NativeCtx& ctx)>;

using ActionStats = telemetry::ActionCounts;

struct EnclaveStats : telemetry::EnclaveCounts {
  // Currently resident entries, summed over installed actions.
  std::uint64_t message_entries_live = 0;
};

// Hot-path telemetry knobs (src/telemetry). Off by default: the
// always-on ActionStats / EnclaveStats counters are separate and cost a
// relaxed atomic add each. With `enabled` set, the enclave keeps
// per-class match/drop counters (1,024 class slots plus a shared
// overflow slot) and sampled per-action latency and steps histograms.
struct TelemetryConfig {
  bool enabled = false;
  // Per-action execution-latency and weighted-steps histograms,
  // recorded for one in `histogram_sample_every` executions (1 = every
  // execution, 0 = no histograms). Sampling keeps the hot-path cost to
  // a per-thread countdown for the packets that are not timed; the
  // default keeps the measured overhead of histograms-on under 5% of
  // enclave ns/packet even for the cheapest Table-1 functions (see
  // bench/micro_interpreter and the BM_Process_Telemetry cost ladder in
  // bench/micro_enclave).
  std::uint32_t histogram_sample_every = 64;
  // Cross-layer lifecycle span tracing (telemetry/span.h): a non-zero
  // value enables the process-global SpanCollector at 1-in-N message
  // sampling and makes this enclave record match/exec/drop hops for
  // packets whose meta carries a trace id — starting a trace itself for
  // packets that arrive unstamped (direct process() callers without a
  // stage in front). A traced packet's action_exec hop carries its
  // class, the execution status and the weighted steps. Works
  // independently of `enabled`: spans are paced by their own countdown
  // and cost one branch per hop when a packet is untraced.
  std::uint32_t span_sample_every = 0;
  // Per-action bytecode hot-spot profiles (telemetry/profile.h):
  // per-pc execution counts plus cycle attribution sampled every 64th
  // fetch. Opt-in diagnostics — profiled executions of the same action
  // serialize on the profile, so leave this off on production data
  // paths.
  bool profile_actions = false;
};

struct EnclaveConfig {
  // Bound on per-action message-state entries; 0 = unlimited. Beyond
  // the bound the store evicts the idlest entry (minimum last-touch
  // within the timer wheel's oldest cohort), so hot long-lived
  // messages survive churn that pure creation-order eviction would
  // kill them under.
  std::size_t max_messages_per_action = 65536;
  // Idle expiry for message-state entries: an entry untouched for this
  // long is expired by the per-shard timer wheel (0 = disabled).
  // Advance happens opportunistically on the data path (paced) and on
  // explicit advance_message_expiry() calls from worker loops.
  std::int64_t message_idle_timeout_ns = 0;
  // Shards of each action's FlowStore (rounded up to a power of two).
  // Shard selection uses the same splitmix64-whitened key the
  // dataplane steers on, so per-worker traffic stays shard-local.
  // 1 shard gives deterministic single-queue eviction order.
  std::size_t message_store_shards = 8;
  // Timer-wheel granularity for idle expiry.
  std::int64_t message_wheel_tick_ns = 1'000'000;  // 1 ms
  lang::ExecLimits exec_limits;
  std::uint64_t rng_seed = 42;
  TelemetryConfig telemetry;

  // The OS-resident enclave: ample resources, no cycle cap — the paper
  // deliberately leaves the budget to the administrator (Section 6).
  static EnclaveConfig os_default() { return EnclaveConfig{}; }

  // A programmable-NIC enclave: the same bytecode but a hard per-packet
  // instruction budget and tighter memory, reflecting firmware limits.
  static EnclaveConfig nic_default() {
    EnclaveConfig config;
    config.max_messages_per_action = 8192;
    config.exec_limits.max_steps = 4096;
    config.exec_limits.max_operand_stack = 64;
    config.exec_limits.max_locals = 256;
    config.exec_limits.max_call_depth = 16;
    return config;
  }
};

// Five-tuple classification rule for the enclave's own stage. Value -1
// means wildcard.
struct FlowClassifierRule {
  std::int64_t src = -1;
  std::int64_t dst = -1;
  std::int64_t src_port = -1;
  std::int64_t dst_port = -1;
  std::int64_t proto = -1;
  ClassId class_id = kInvalidClass;
  // Direction-symmetric message keys: both directions of a connection
  // map to the same message (required by stateful functions such as
  // connection tracking).
  bool symmetric = false;

  bool matches(const netsim::Packet& p) const {
    return (src < 0 || p.src == static_cast<netsim::HostId>(src)) &&
           (dst < 0 || p.dst == static_cast<netsim::HostId>(dst)) &&
           (src_port < 0 || p.src_port == src_port) &&
           (dst_port < 0 || p.dst_port == dst_port) &&
           (proto < 0 || static_cast<std::int64_t>(p.protocol) == proto);
  }
};

class Enclave {
 public:
  Enclave(std::string name, ClassRegistry& registry,
          EnclaveConfig config = {});
  ~Enclave();
  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  // --- Enclave API (controller side) ------------------------------------

  // Installs a compiled action. `global_fields` must be the fields the
  // program was compiled against (they size the global state block).
  // Runs the bytecode optimizer at -O1 (lang/optimizer.h) and statically
  // verifies the result against the action schema and this enclave's
  // execution limits (install-time verification, so the per-packet path
  // runs the interpreter's pre-verified fast dispatch). Throws
  // lang::LangError if the program fails verification.
  ActionId install_action(const std::string& name,
                          lang::CompiledProgram program,
                          std::vector<lang::FieldDef> global_fields = {});

  // Installs a native twin. `touches_message` tells the runtime whether
  // to materialize message state for it; `global_fields` sizes its
  // global state block (same layout the interpreted twin compiles
  // against).
  ActionId install_native_action(const std::string& name, NativeActionFn fn,
                                 lang::ConcurrencyMode mode,
                                 bool touches_message,
                                 std::vector<lang::FieldDef> global_fields = {});

  void remove_action(ActionId id);
  std::optional<ActionId> find_action(const std::string& name) const;

  // Tables are evaluated in creation order; within a table the first
  // matching rule fires.
  TableId create_table(const std::string& name);
  void delete_table(TableId table);
  std::optional<TableId> find_table_id(const std::string& name) const;
  // Adds a rule under a fresh enclave-assigned id and returns it. Throws
  // std::invalid_argument for an unknown table or action.
  MatchRuleId add_rule(TableId table, ClassPattern pattern, ActionId action);
  bool remove_rule(TableId table, MatchRuleId rule);
  std::size_t rule_count(TableId table) const;

  // --- Transactions -------------------------------------------------------
  //
  // Every control-plane mutation, global writes included, takes one
  // path: it edits a copy of the rule-set snapshot and a publish swaps
  // the copy in. Alone, each mutation publishes at once. A transaction
  // stages every mutation between begin and commit in one shadow copy
  // and the commit is that copy's publish, so the data path never
  // observes a partial rule batch or a half-updated action set (the
  // controller's WCMP weight or rule updates land all-or-nothing). One
  // transaction may be open at a time; begin_txn throws
  // std::invalid_argument when one already is. abort_txn drops the copy
  // and the pending global writes, and is idempotent.
  void begin_txn();
  std::uint64_t commit_txn();  // returns the committed rule-set version
  void abort_txn();
  bool txn_open() const;
  // Version of the currently published (committed) rule-set snapshot.
  // Starts at 0 for the empty state; every publish increments it.
  std::uint64_t ruleset_version() const;
  // Drops every action, table, rule and flow rule (inside a transaction:
  // stages the wipe). Used by the control-plane resync protocol to bring
  // an enclave of unknown state back to a blank slate before replay.
  void clear_all();

  // Global state of an action, addressed by schema field name. A write
  // waits for the next publish (its own, or the commit's inside a
  // transaction), which applies it under the action's global lock just
  // before the swap, so each action's globals flip atomically against
  // the data path mid-run. Throws std::invalid_argument, changing
  // nothing, for an unknown action or field or a partial record.
  void set_global_scalar(ActionId id, const std::string& field,
                         std::int64_t value);
  void set_global_array(ActionId id, const std::string& field,
                        std::vector<std::int64_t> data);
  std::int64_t read_global_scalar(ActionId id, const std::string& field) const;

  // Enclave-stage classification (five-tuple rules).
  void add_flow_rule(FlowClassifierRule rule);
  void clear_flow_rules();

  // Clock source for the clock() builtin and native ctx (the simulator
  // injects virtual time).
  void set_clock(lang::ClockFn fn, void* ctx) {
    clock_fn_ = fn;
    clock_ctx_ = ctx;
  }

  // --- Data path ---------------------------------------------------------

  // Runs the packet through flow classification and every table. Returns
  // false if an action asked for the packet to be dropped.
  bool process(netsim::Packet& packet);

  // Shard-steering key for multi-core data planes (hoststack/dataplane):
  // every packet of one message maps to the same key, so hashing it to a
  // shard preserves the per-message ordering that process()'s
  // message-lifetime state contract requires. Stage-stamped msg_id when
  // present; otherwise a direction-insensitive connection hash, so both
  // directions of a symmetric-keyed flow co-shard.
  static std::uint64_t steering_key(const netsim::Packet& packet);

  // Batched execution (Section 6): the enclave pre-processes the batch,
  // splits it by message, and runs each message's packets under a single
  // lock acquisition and state copy. Semantically identical to calling
  // process() per packet (packet order inside each message is
  // preserved, messages run in the order their first packet arrived,
  // and a faulty execution still rolls back only its own
  // packet). Falls back to per-packet processing when more than one
  // table is installed. Sets drop_mark on dropped packets and returns
  // the number of surviving packets.
  std::size_t process_batch(std::span<netsim::PacketPtr> batch);

  // Expires idle message-state entries (config.message_idle_timeout_ns)
  // and reclaims epoch-retired memory across every installed action.
  // Stripe-partitioned so N workers can split the shard space
  // (worker i of N passes (i, N)); (0, 1) covers everything. Safe to
  // call concurrently with the data path. The data path also paces
  // this internally, so calling it is an optimization, not a
  // correctness requirement.
  void advance_message_expiry(std::size_t stripe = 0, std::size_t stripes = 1);

  // --- Introspection -------------------------------------------------------

  // Counter snapshots. Internally counters are relaxed atomics (the
  // data path is concurrent), so reads reconcile to a plain struct.
  EnclaveStats stats() const;
  ActionStats action_stats(ActionId id) const;

  // Per-action FlowStore statistics (live/created/expired/evicted/
  // resizes + probe-length histogram); zeros when the action holds no
  // message state.
  state::FlowStoreStats message_store_stats(ActionId id) const;

  // Full telemetry snapshot (counters, per-class match/drop, sampled
  // latency/steps histograms, profiles) with ids resolved to names.
  // Always valid; histogram/class/profile sections are empty unless
  // config.telemetry enabled them.
  telemetry::EnclaveTelemetry telemetry_snapshot() const;

  const EnclaveConfig& config() const { return config_; }
  const std::string& name() const { return name_; }
  ClassRegistry& registry() { return registry_; }
  const lang::StateSchema& base_schema() const { return base_schema_; }

  // Peeks at a message-state scalar (tests / debugging).
  std::optional<std::int64_t> peek_message_state(ActionId id,
                                                 std::int64_t msg_key,
                                                 std::uint16_t slot) const;

 private:
  // Always-on per-action counters; relaxed atomics because `parallel`
  // actions execute concurrently. Snapshotted into ActionStats on read.
  struct ActionCounters {
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> steps{0};
    // Faulty executions by lang::ExecStatus; their sum is the error count.
    std::array<std::atomic<std::uint64_t>, lang::kNumExecStatus> by_status{};

    ActionStats read() const;
  };

  // Per-class match/drop counters, indexed by dense ClassId. One cache
  // line each so parallel executions of different classes do not false-
  // share.
  struct alignas(64) ClassCounters {
    std::atomic<std::uint64_t> matched{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  struct EnclaveCounters {
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> matched{0};
    std::atomic<std::uint64_t> dropped_by_action{0};
    std::atomic<std::uint64_t> message_entries_created{0};
    std::atomic<std::uint64_t> message_entries_evicted{0};
    std::atomic<std::uint64_t> message_entries_expired{0};
  };

  struct ActionEntry {
    ActionId id = kInvalidAction;
    std::string name;
    bool native = false;
    lang::CompiledProgram program;
    NativeActionFn native_fn;
    lang::ConcurrencyMode mode = lang::ConcurrencyMode::parallel;
    bool touches_message = false;
    lang::StateSchema schema;  // base + action-specific global fields
    lang::StateBlock global_state;
    // Held exclusively by a serialized action's executions and by
    // publishes of global writes, shared by every other execution
    // (Section 3.4.4).
    mutable std::shared_mutex global_mutex;
    // Per-message state: sharded open-addressing FlowStore with
    // epoch-reclaimed entries and timer-wheel idle expiry
    // (src/state/flow_store.h). Created at install time when the
    // action touches message state, null otherwise. Each entry holds
    // the message block inline; init_message_state writes a new one
    // from the message's first packet.
    std::unique_ptr<state::FlowStore> messages;
    ActionCounters counters;
    // Set at install time when config.telemetry histograms are on;
    // instruments live in metrics_, so raw pointers stay valid.
    telemetry::Histogram* latency_hist = nullptr;
    telemetry::Histogram* steps_hist = nullptr;
    // Hot-spot profile (config.telemetry.profile_actions, bytecode
    // actions only). Guarded by profile_mutex: plain uint64 cells, so
    // concurrent profiled executions serialize on it.
    std::unique_ptr<telemetry::ProgramProfile> profile;
    mutable std::mutex profile_mutex;
  };

  struct MatchRule {
    MatchRuleId id;
    // A wildcard or match-any rule's pattern, shared by every snapshot
    // holding the rule; null for an exact rule, which `cls` names. So
    // neither a snapshot copy nor an erase moves strings.
    std::shared_ptr<const ClassPattern> pattern;
    ActionId action;
    // The class an exact pattern names, resolved (interned) at add_rule;
    // kInvalidClass for wildcard and match-any patterns.
    ClassId cls = kInvalidClass;
  };

  struct Table {
    TableId id;
    std::string name;
    std::vector<MatchRule> rules;
    // Match index over `rules`, rebuilt by publish_locked: by class id,
    // the position of the first exact rule for that class (kNoRule if
    // none); and, in rule order, the positions of the wildcard and
    // match-any rules, the only ones match_in_table tests by name.
    static constexpr std::uint32_t kNoRule = 0xffffffffu;
    std::vector<std::uint32_t> exact_index;
    std::vector<std::uint32_t> wildcard_rules;

    void build_index();
  };

  // A table hit plus the class that matched (kInvalidClass when a
  // match-any rule fired on an unclassified packet), so per-class
  // counters can attribute the execution.
  struct TableMatch {
    const MatchRule* rule = nullptr;
    ClassId cls = kInvalidClass;
  };

  // The published rule-set: an immutable snapshot of tables, flow rules
  // and the action vector, swapped in wholesale on every control-plane
  // publish (RCU style). Defined in enclave.cpp; the header only ever
  // holds it through a shared_ptr.
  struct RuleState;
  struct GlobalWrite;
  friend struct detail::ThreadState;
  friend struct wire::AgentAccess;

  bool process_one(detail::ThreadState& ts, const RuleState& rules,
                   netsim::Packet& packet);
  void run_action(detail::ThreadState& ts, ActionEntry& entry,
                  netsim::Packet& packet);
  void run_action_batch(detail::ThreadState& ts, ActionEntry& entry,
                        std::span<netsim::Packet* const> packets,
                        const state::FlowStore::Probe* probe);
  TableMatch match_in_table(const Table& table,
                            const netsim::Packet& packet) const;
  ClassCounters* class_counter(ClassId cls);
  std::string class_display_name(ClassId cls) const;
  void attach_instruments(ActionEntry& entry);
  void classify_flow(const RuleState& rules, netsim::Packet& packet) const;
  std::int64_t now_ns() const;
  void maybe_advance_expiry(detail::ThreadState& ts, const RuleState& rules);
  static std::int64_t message_key(const netsim::Packet& p);
  static std::int64_t symmetric_message_key(const netsim::Packet& p);

  // Data-path snapshot access: one acquire load of the publish epoch per
  // call; the shared_ptr itself is refetched (under publish_mutex_) only
  // when the epoch moved, so steady-state reads touch no reference
  // count and take no lock.
  detail::ThreadState& thread_state() const;
  const RuleState& data_snapshot(detail::ThreadState& ts) const;

  // Control-plane helpers. _locked variants require control_mutex_.
  std::shared_ptr<const RuleState> committed() const;
  const RuleState& control_view_locked() const;
  std::shared_ptr<RuleState> begin_mutation_locked();
  void end_mutation_locked(std::shared_ptr<RuleState> next);
  std::uint64_t publish_locked(std::shared_ptr<RuleState> next);
  std::shared_ptr<ActionEntry> checked_entry(ActionId id) const;
  std::shared_ptr<ActionEntry> checked_entry_locked(ActionId id) const;
  ActionId install_entry(std::shared_ptr<ActionEntry> entry);
  // The one rule add, under `id`: a fresh enclave id (add_rule) or the
  // rule handle a remote controller's session chose (the wire agent's
  // add_rule_named). False, with nothing changed, when the table
  // already holds a rule with that id. Throws like add_rule.
  bool add_rule_locked(TableId table, ClassPattern pattern, ActionId action,
                       MatchRuleId id);

  std::string name_;
  ClassRegistry& registry_;
  EnclaveConfig config_;
  lang::StateSchema base_schema_;
  std::uint64_t instance_id_;
  lang::ClockFn clock_fn_ = nullptr;
  void* clock_ctx_ = nullptr;
  // Cached once: instance() is out of line and guarded by the magic
  // static check, which is too much for a per-packet call site.
  telemetry::SpanCollector& spans_ = telemetry::SpanCollector::instance();

  // rules_ is the committed snapshot; readers cache it per thread and
  // revalidate against rules_epoch_ (the snapshot's version) on every
  // packet. control_mutex_ serializes mutators; publish_mutex_ only
  // guards the pointer hand-off between a publish and a reader refresh.
  mutable std::mutex control_mutex_;
  mutable std::mutex publish_mutex_;
  std::shared_ptr<const RuleState> rules_;
  std::atomic<std::uint64_t> rules_epoch_{0};
  std::uint64_t next_version_ = 1;
  // The open transaction's staged snapshot; null when none is open.
  std::shared_ptr<RuleState> txn_;
  // Global writes the next publish applies, in call order.
  std::vector<GlobalWrite> pending_writes_;
  // Above every id a table holds, so add_rule never meets a live one.
  MatchRuleId next_rule_id_ = 1;
  TableId next_table_id_ = 0;

  EnclaveCounters counters_;
  // Allocated in the constructor when config.telemetry.enabled: slots
  // [0, kMaxClasses) by ClassId, then one "unclassified" and one
  // overflow slot.
  std::unique_ptr<ClassCounters[]> class_counters_;
  telemetry::MetricsRegistry metrics_;
};

// Number of per-enclave ThreadState blocks the calling thread currently
// retains (test hook for the registry-leak fix: destroyed enclaves'
// blocks are swept on this thread's next enclave interaction).
std::size_t enclave_thread_state_count();

}  // namespace eden::core
