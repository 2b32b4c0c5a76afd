#include "core/enclave.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "lang/disasm.h"
#include "lang/optimizer.h"
#include "util/prefetch.h"

namespace eden::core {

// The immutable rule-set snapshot the data path runs against. Mutators
// copy the current snapshot, edit the copy and publish it with a single
// pointer swap; ActionEntry objects are *shared* between snapshots, so
// an action's global/message state, counters and locks survive rule
// churn, and snapshots only pay for the vector copies. A removed action
// stays alive until the last reader drops the snapshot referencing it.
struct Enclave::RuleState {
  std::uint64_t version = 0;
  std::vector<Table> tables;
  std::vector<FlowClassifierRule> flow_rules;
  std::vector<std::shared_ptr<ActionEntry>> actions;
};

// A controller write to an action's global state. ActionEntry objects
// are shared with the published snapshot, so a write cannot land on the
// entry at once (the data path would see it mid-transaction): it waits
// here, and publish_locked applies it just before the next swap.
struct Enclave::GlobalWrite {
  std::shared_ptr<ActionEntry> entry;
  std::uint16_t slot = 0;
  bool is_array = false;
  std::int64_t scalar = 0;
  std::vector<std::int64_t> data;
  std::uint16_t stride = 1;
};

namespace detail {

// Per-thread execution resources for one enclave instance: the
// interpreter (operand stack, heap, rng) plus scratch packet- and
// message-scope state blocks. Reused across packets so the steady-state
// data path does not allocate. Also caches the last rule-set snapshot
// this thread saw, keyed by its version, so the per-packet snapshot
// check is one atomic load and a compare.
struct ThreadState {
  lang::Interpreter interp;
  lang::StateBlock packet_block;
  // Scratch copy of one message's payload; committed on success.
  lang::StateBlock message_block;
  util::Rng rng;
  // Per-thread histogram pacing (1-in-N executions); a plain countdown
  // here is cheaper than a thread_local on the per-packet path —
  // ThreadState is already hot.
  std::uint32_t hist_countdown = 1;
  // Paces the data path's opportunistic timer-wheel advance (idle
  // expiry + epoch reclaim) to one sweep per ~kExpiryPacePackets
  // packets per thread.
  std::uint32_t expiry_countdown = 1;
  std::shared_ptr<const Enclave::RuleState> cached_rules;
  std::uint64_t cached_epoch = ~0ull;

  // process_batch scratch, reused so a steady-state batch allocates
  // nothing. One pass groups the matched packets by (action, message):
  // `batch_groups` holds the groups in the order their first packet
  // arrived, each chaining its packets through `batch_items` in arrival
  // order. `group_slots` finds a packet's group: an open-addressed table
  // whose slots count as empty unless stamped with this batch's
  // `group_stamp`, so it is never cleared between batches.
  static constexpr std::uint32_t kNoItem = 0xffffffffu;
  struct BatchItem {
    netsim::Packet* pkt;
    Enclave::ClassCounters* cls;  // per-class slot, for drop attribution
    std::uint32_t group;
    std::uint32_t next;  // the group's next packet; kNoItem at its tail
  };
  struct BatchGroup {
    Enclave::ActionEntry* entry;
    std::int64_t key;
    std::uint32_t head;
    std::uint32_t tail;
  };
  struct GroupSlot {
    std::uint32_t stamp = 0;
    std::uint32_t group = 0;
  };
  std::vector<BatchItem> batch_items;
  std::vector<BatchGroup> batch_groups;
  std::vector<GroupSlot> group_slots;  // power-of-two size
  unsigned group_shift = 64;           // 64 - log2(group_slots.size())
  std::uint32_t group_stamp = 0;
  std::vector<netsim::Packet*> batch_group;

  ThreadState(const EnclaveConfig& config, const lang::StateSchema& schema)
      : interp(config.exec_limits, config.rng_seed),
        packet_block(
            lang::StateBlock::from_schema(schema, lang::Scope::packet)),
        message_block(
            lang::StateBlock::from_schema(schema, lang::Scope::message)),
        rng(config.rng_seed ^ 0x517cc1b727220a95ULL) {}

  // Readies the grouping scratch for a batch of `packets` packets: at
  // most that many groups, so a table twice that size stays at most
  // half full. The table only grows; a new stamp empties it.
  void begin_grouping(std::size_t packets) {
    batch_items.clear();
    batch_groups.clear();
    std::size_t slots = 16;
    while (slots < 2 * packets) slots <<= 1;
    if (group_slots.size() < slots) {
      group_slots.assign(slots, GroupSlot{});
      group_shift = 64 - static_cast<unsigned>(std::countr_zero(slots));
      group_stamp = 0;
    }
    if (++group_stamp == 0) {
      std::fill(group_slots.begin(), group_slots.end(), GroupSlot{});
      group_stamp = 1;
    }
  }

  // Appends a matched packet to its (entry, key) group, opening the
  // group if this batch has not seen it. Runs of one group skip the
  // table.
  void group_packet(Enclave::ActionEntry* entry, std::int64_t key,
                    netsim::Packet* pkt, Enclave::ClassCounters* cls) {
    const auto item = static_cast<std::uint32_t>(batch_items.size());
    std::uint32_t g = batch_items.empty() ? kNoItem : batch_items.back().group;
    if (g == kNoItem || batch_groups[g].entry != entry ||
        batch_groups[g].key != key) {
      // Fibonacci hashing: the top bits of the product mix every bit of
      // the key and the entry address.
      std::size_t i = static_cast<std::size_t>(
          ((static_cast<std::uint64_t>(key) ^
            reinterpret_cast<std::uintptr_t>(entry)) *
           0x9e3779b97f4a7c15ULL) >>
          group_shift);
      const std::size_t mask = group_slots.size() - 1;
      for (;; i = (i + 1) & mask) {
        GroupSlot& slot = group_slots[i];
        if (slot.stamp != group_stamp) {
          g = static_cast<std::uint32_t>(batch_groups.size());
          slot = GroupSlot{group_stamp, g};
          batch_groups.push_back(BatchGroup{entry, key, kNoItem, kNoItem});
          break;
        }
        const BatchGroup& seen = batch_groups[slot.group];
        if (seen.entry == entry && seen.key == key) {
          g = slot.group;
          break;
        }
      }
    }
    batch_items.push_back(BatchItem{pkt, cls, g, kNoItem});
    BatchGroup& group = batch_groups[g];
    if (group.tail == kNoItem) {
      group.head = item;
    } else {
      batch_items[group.tail].next = item;
    }
    group.tail = item;
  }
};

}  // namespace detail

using detail::ThreadState;

namespace {

std::atomic<std::uint64_t> g_enclave_instance_counter{1};

// One opportunistic expiry/reclaim sweep per this many packets per
// thread. A sweep with nothing due is a handful of loads per shard, so
// the amortized data-path cost is negligible.
constexpr std::uint32_t kExpiryPacePackets = 1024;

// Per-class match/drop counter slots; classes interned past this bound
// share the overflow slot.
constexpr std::size_t kMaxClasses = 1024;

// Profiled executions attribute cycles to one in this many fetches.
constexpr std::uint32_t kProfileCycleSampleEvery = 64;

static_assert(kInvalidClass == telemetry::kNoSpanClass);

// The message scope is MessageSlot::count_ scalars, carried inline in
// each FlowStore entry and copied whole in and out of the scratch block.
static_assert(state::FlowStore::kPayloadWords == MessageSlot::count_);
constexpr std::size_t kMessageBytes =
    sizeof(std::int64_t) * state::FlowStore::kPayloadWords;

std::uint64_t flow_hash(const netsim::Packet& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  };
  mix(p.src);
  mix(p.dst);
  mix(p.src_port);
  mix(p.dst_port);
  mix(static_cast<std::uint64_t>(p.protocol));
  return h;
}

// Direction-insensitive connection hash: both (a -> b) and (b -> a)
// packets of one connection map to the same value.
std::uint64_t symmetric_flow_hash(const netsim::Packet& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  };
  const std::uint64_t ep_a =
      (static_cast<std::uint64_t>(p.src) << 16) | p.src_port;
  const std::uint64_t ep_b =
      (static_cast<std::uint64_t>(p.dst) << 16) | p.dst_port;
  mix(ep_a < ep_b ? ep_a : ep_b);
  mix(ep_a < ep_b ? ep_b : ep_a);
  mix(static_cast<std::uint64_t>(p.protocol));
  return h;
}

}  // namespace

// Keyed by a unique instance id (not `this`) so a recycled address never
// aliases another enclave's thread state.
//
// Lifetime: each thread owns its ThreadState blocks, but a destroyed
// enclave's blocks must not accumulate (a long-lived worker thread that
// outlives many short-lived enclaves would otherwise leak one
// ThreadState per dead enclave forever). Enclave construction and
// destruction maintain a process-wide live-id set plus a death
// generation counter; get() compares the generation against the last
// one this thread saw and sweeps dead ids lazily. The sweep only runs
// on threads that keep using *some* enclave — an entirely idle thread
// frees its map at thread exit as before.
struct EnclaveThreadRegistry {
  using Map = std::unordered_map<std::uint64_t, std::unique_ptr<ThreadState>>;

  static std::mutex& live_mutex() {
    static std::mutex m;
    return m;
  }
  static std::unordered_set<std::uint64_t>& live_ids() {
    static std::unordered_set<std::uint64_t> ids;
    return ids;
  }
  static std::atomic<std::uint64_t>& death_generation() {
    static std::atomic<std::uint64_t> gen{0};
    return gen;
  }

  static Map& tls_map() {
    static thread_local Map map;
    return map;
  }

  static void note_created(std::uint64_t instance_id) {
    std::lock_guard lock(live_mutex());
    live_ids().insert(instance_id);
  }

  static void note_destroyed(std::uint64_t instance_id) {
    {
      std::lock_guard lock(live_mutex());
      live_ids().erase(instance_id);
    }
    death_generation().fetch_add(1, std::memory_order_release);
  }

  static ThreadState& get(std::uint64_t instance_id,
                          const EnclaveConfig& config,
                          const lang::StateSchema& schema) {
    Map& map = tls_map();
    static thread_local std::uint64_t seen_generation = 0;
    const std::uint64_t gen =
        death_generation().load(std::memory_order_acquire);
    if (gen != seen_generation) [[unlikely]] {
      seen_generation = gen;
      std::lock_guard lock(live_mutex());
      std::erase_if(map, [](const auto& kv) {
        return live_ids().count(kv.first) == 0;
      });
    }
    auto& slot = map[instance_id];
    if (!slot) slot = std::make_unique<ThreadState>(config, schema);
    return *slot;
  }
};

std::size_t enclave_thread_state_count() {
  return EnclaveThreadRegistry::tls_map().size();
}

Enclave::Enclave(std::string name, ClassRegistry& registry,
                 EnclaveConfig config)
    : name_(std::move(name)),
      registry_(registry),
      config_(config),
      base_schema_(make_enclave_schema()),
      instance_id_(g_enclave_instance_counter.fetch_add(1)),
      rules_(std::make_shared<RuleState>()) {
  if (config_.telemetry.enabled) {
    // +2: an "unclassified" slot and an overflow slot past kMaxClasses.
    class_counters_ = std::make_unique<ClassCounters[]>(kMaxClasses + 2);
    // Calibrate the latency tick clock now, not inside a timed region.
    if (config_.telemetry.histogram_sample_every != 0) telemetry::warm_clock();
  }
  // Lifecycle span tracing rendezvouses in the process-global collector;
  // enabling is idempotent, so every enclave configured for spans just
  // (re)arms it with its sampling rate.
  if (config_.telemetry.span_sample_every > 0) {
    spans_.enable(config_.telemetry.span_sample_every);
  }
  EnclaveThreadRegistry::note_created(instance_id_);
}

Enclave::~Enclave() {
  EnclaveThreadRegistry::note_destroyed(instance_id_);
}

// --- Snapshot plumbing ----------------------------------------------------

ThreadState& Enclave::thread_state() const {
  return EnclaveThreadRegistry::get(instance_id_, config_, base_schema_);
}

const Enclave::RuleState& Enclave::data_snapshot(ThreadState& ts) const {
  const std::uint64_t epoch = rules_epoch_.load(std::memory_order_acquire);
  if (ts.cached_epoch != epoch) [[unlikely]] {
    std::lock_guard lock(publish_mutex_);
    ts.cached_rules = rules_;
    // The snapshot read under the lock may already be newer than the
    // epoch that triggered the refresh; key the cache off what was
    // actually read.
    ts.cached_epoch = ts.cached_rules->version;
  }
  return *ts.cached_rules;
}

std::shared_ptr<const Enclave::RuleState> Enclave::committed() const {
  std::lock_guard lock(publish_mutex_);
  return rules_;
}

const Enclave::RuleState& Enclave::control_view_locked() const {
  if (txn_ != nullptr) return *txn_;
  // control_mutex_ is held, so no publish can race this read.
  return *rules_;
}

// Returns the state a mutation should edit: the transaction's shadow
// copy when one is open (changes stay staged), or a fresh copy of the
// committed snapshot otherwise.
std::shared_ptr<Enclave::RuleState> Enclave::begin_mutation_locked() {
  if (txn_ != nullptr) return txn_;
  return std::make_shared<RuleState>(*committed());
}

void Enclave::end_mutation_locked(std::shared_ptr<RuleState> next) {
  if (txn_ != nullptr) return;  // staged; published by commit_txn
  publish_locked(std::move(next));
}

void Enclave::Table::build_index() {
  exact_index.clear();
  wildcard_rules.clear();
  for (std::uint32_t pos = 0; pos < rules.size(); ++pos) {
    const ClassId cls = rules[pos].cls;
    if (cls == kInvalidClass) {
      wildcard_rules.push_back(pos);
      continue;
    }
    if (cls >= exact_index.size()) exact_index.resize(cls + 1, kNoRule);
    if (exact_index[cls] == kNoRule) exact_index[cls] = pos;
  }
}

std::uint64_t Enclave::publish_locked(std::shared_ptr<RuleState> next) {
  // The pending global writes land first, grouped so each action's lock
  // is taken once: the data path sees each action flip its globals
  // atomically, and any *new* rules referencing those actions only
  // appear with the swap below, i.e. after their state is in place.
  auto& writes = pending_writes_;
  std::stable_sort(writes.begin(), writes.end(),
                   [](const GlobalWrite& a, const GlobalWrite& b) {
                     return a.entry.get() < b.entry.get();
                   });
  for (std::size_t i = 0; i < writes.size();) {
    ActionEntry* entry = writes[i].entry.get();
    std::unique_lock glock(entry->global_mutex);
    for (; i < writes.size() && writes[i].entry.get() == entry; ++i) {
      GlobalWrite& w = writes[i];
      if (w.is_array) {
        entry->global_state.arrays[w.slot].stride = w.stride;
        entry->global_state.arrays[w.slot].data = std::move(w.data);
      } else {
        entry->global_state.scalars[w.slot] = w.scalar;
      }
    }
  }
  writes.clear();
  for (Table& table : next->tables) table.build_index();
  next->version = next_version_++;
  std::shared_ptr<const RuleState> published = std::move(next);
  const std::uint64_t version = published->version;
  {
    std::lock_guard lock(publish_mutex_);
    rules_ = std::move(published);
  }
  rules_epoch_.store(version, std::memory_order_release);
  return version;
}

// --- Transactions ---------------------------------------------------------

void Enclave::begin_txn() {
  std::lock_guard lock(control_mutex_);
  if (txn_ != nullptr) throw std::invalid_argument("transaction already open");
  txn_ = std::make_shared<RuleState>(*committed());
}

std::uint64_t Enclave::commit_txn() {
  std::lock_guard lock(control_mutex_);
  if (txn_ == nullptr) throw std::invalid_argument("no open transaction");
  return publish_locked(std::move(txn_));
}

void Enclave::abort_txn() {
  std::lock_guard lock(control_mutex_);
  txn_.reset();
  pending_writes_.clear();
}

bool Enclave::txn_open() const {
  std::lock_guard lock(control_mutex_);
  return txn_ != nullptr;
}

std::uint64_t Enclave::ruleset_version() const {
  return rules_epoch_.load(std::memory_order_acquire);
}

void Enclave::clear_all() {
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  state->actions.clear();
  state->tables.clear();
  state->flow_rules.clear();
  pending_writes_.clear();  // they target state that just got wiped
  end_mutation_locked(std::move(state));
}

// --- Enclave API (controller side) ----------------------------------------

ActionId Enclave::install_entry(std::shared_ptr<ActionEntry> entry) {
  // Runtime state machinery, shared by both install paths. The
  // FlowStore mirrors its created/expired/evicted counts into the
  // enclave counters, so enclave-lifetime accounting survives the
  // store being torn down with its action.
  if (entry->touches_message && entry->messages == nullptr) {
    state::FlowStoreConfig fc;
    fc.shards = config_.message_store_shards;
    fc.max_entries = config_.max_messages_per_action;
    fc.idle_timeout_ns = config_.message_idle_timeout_ns;
    fc.wheel_tick_ns = config_.message_wheel_tick_ns;
    fc.sink.created = &counters_.message_entries_created;
    fc.sink.expired = &counters_.message_entries_expired;
    fc.sink.evicted = &counters_.message_entries_evicted;
    entry->messages = std::make_unique<state::FlowStore>(fc);
  }
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  // Reinstalling a live name replaces the entry in its slot: the id —
  // and every rule addressing it — survives, so the data path flips to
  // the new program at the snapshot swap and name lookups can never
  // resolve to a stale duplicate. Snapshots still holding the old entry
  // keep it alive until their readers drain.
  std::shared_ptr<ActionEntry> replaced;
  std::size_t slot = state->actions.size();
  for (std::size_t i = 0; i < state->actions.size(); ++i) {
    if (state->actions[i] != nullptr &&
        state->actions[i]->name == entry->name) {
      replaced = state->actions[i];
      slot = i;
      break;
    }
  }
  entry->id = static_cast<ActionId>(slot);
  attach_instruments(*entry);
  const ActionId id = entry->id;
  if (slot == state->actions.size()) {
    state->actions.push_back(std::move(entry));
  } else {
    state->actions[slot] = std::move(entry);
    // Writes pending against the replaced entry would land on a dead
    // object at commit; the new program starts from schema defaults.
    std::erase_if(pending_writes_,
                  [&](const GlobalWrite& w) { return w.entry == replaced; });
  }
  end_mutation_locked(std::move(state));
  return id;
}

ActionId Enclave::install_action(const std::string& name,
                                 lang::CompiledProgram program,
                                 std::vector<lang::FieldDef> global_fields) {
  auto entry = std::make_shared<ActionEntry>();
  entry->name = name;
  entry->native = false;
  entry->mode = program.concurrency;
  entry->touches_message =
      program.usage.touches_scope(lang::Scope::message);
  entry->schema = make_enclave_schema(std::move(global_fields));
  // Install-time lowering: reject malformed bytecode up front (it may
  // have arrived over the wire), optimize, and verify the result so the
  // data path can take the pre-verified dispatch. The second verify
  // doubles as a regression guard on the optimizer itself.
  lang::verify_program(program, entry->schema, config_.exec_limits);
  program = lang::optimize(std::move(program), lang::OptLevel::O1);
  lang::verify_program(program, entry->schema, config_.exec_limits);
  program.preverified = true;
  entry->program = std::move(program);
  entry->global_state =
      lang::StateBlock::from_schema(entry->schema, lang::Scope::global);
  if (config_.telemetry.profile_actions) {
    entry->profile = std::make_unique<telemetry::ProgramProfile>();
  }
  return install_entry(std::move(entry));
}

ActionId Enclave::install_native_action(
    const std::string& name, NativeActionFn fn, lang::ConcurrencyMode mode,
    bool touches_message, std::vector<lang::FieldDef> global_fields) {
  auto entry = std::make_shared<ActionEntry>();
  entry->name = name;
  entry->native = true;
  entry->native_fn = std::move(fn);
  entry->mode = mode;
  entry->touches_message = touches_message;
  entry->schema = make_enclave_schema(std::move(global_fields));
  entry->global_state =
      lang::StateBlock::from_schema(entry->schema, lang::Scope::global);
  return install_entry(std::move(entry));
}

// Resolves the action's histogram instruments once at install time, so
// the data path records through raw pointers (null = histograms off).
// Reinstalling an action under the same name reuses its series.
void Enclave::attach_instruments(ActionEntry& entry) {
  if (!config_.telemetry.enabled ||
      config_.telemetry.histogram_sample_every == 0) {
    return;
  }
  const telemetry::Labels labels{{"enclave", name_}, {"action", entry.name}};
  entry.latency_hist = &metrics_.histogram("eden_action_latency_ns", labels);
  if (!entry.native) {
    entry.steps_hist = &metrics_.histogram("eden_action_steps", labels);
  }
}

void Enclave::remove_action(ActionId id) {
  std::lock_guard lock(control_mutex_);
  const RuleState& view = control_view_locked();
  if (id >= view.actions.size() || view.actions[id] == nullptr) return;
  auto state = begin_mutation_locked();
  // Remove any rules pointing at the action, then drop it. The slot is
  // left as a hole so action ids stay stable.
  for (Table& table : state->tables) {
    std::erase_if(table.rules,
                  [id](const MatchRule& r) { return r.action == id; });
  }
  state->actions[id] = nullptr;
  end_mutation_locked(std::move(state));
}

std::optional<ActionId> Enclave::find_action(const std::string& name) const {
  std::lock_guard lock(control_mutex_);
  for (const auto& entry : control_view_locked().actions) {
    if (entry != nullptr && entry->name == name) return entry->id;
  }
  return std::nullopt;
}

TableId Enclave::create_table(const std::string& name) {
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  const TableId id = next_table_id_++;
  state->tables.push_back(Table{id, name, {}, {}, {}});
  end_mutation_locked(std::move(state));
  return id;
}

void Enclave::delete_table(TableId table) {
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  std::erase_if(state->tables,
                [table](const Table& t) { return t.id == table; });
  end_mutation_locked(std::move(state));
}

std::optional<TableId> Enclave::find_table_id(const std::string& name) const {
  std::lock_guard lock(control_mutex_);
  for (const Table& t : control_view_locked().tables) {
    if (t.name == name) return t.id;
  }
  return std::nullopt;
}

MatchRuleId Enclave::add_rule(TableId table, ClassPattern pattern,
                              ActionId action) {
  std::lock_guard lock(control_mutex_);
  const MatchRuleId id = next_rule_id_;
  add_rule_locked(table, std::move(pattern), action, id);
  return id;
}

bool Enclave::add_rule_locked(TableId table, ClassPattern pattern,
                              ActionId action, MatchRuleId id) {
  auto state = begin_mutation_locked();
  Table* t = nullptr;
  for (Table& candidate : state->tables) {
    if (candidate.id == table) {
      t = &candidate;
      break;
    }
  }
  if (t == nullptr) throw std::invalid_argument("no such table");
  if (action >= state->actions.size() ||
      state->actions[action] == nullptr) {
    throw std::invalid_argument("no such action");
  }
  if (std::any_of(t->rules.begin(), t->rules.end(),
                  [id](const MatchRule& r) { return r.id == id; })) {
    return false;
  }
  // An exact pattern names one class: resolve it now, interning a name
  // no stage has registered yet, so the data path finds it by id.
  const ClassId cls =
      pattern.exact() ? registry_.intern(pattern.name()) : kInvalidClass;
  auto wildcard = cls == kInvalidClass
                      ? std::make_shared<const ClassPattern>(std::move(pattern))
                      : nullptr;
  t->rules.push_back(MatchRule{id, std::move(wildcard), action, cls});
  next_rule_id_ = std::max(next_rule_id_, id + 1);
  end_mutation_locked(std::move(state));
  return true;
}

bool Enclave::remove_rule(TableId table, MatchRuleId rule) {
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  bool removed = false;
  for (Table& t : state->tables) {
    if (t.id != table) continue;
    const auto before = t.rules.size();
    std::erase_if(t.rules,
                  [rule](const MatchRule& r) { return r.id == rule; });
    removed = t.rules.size() != before;
    break;
  }
  if (removed) end_mutation_locked(std::move(state));
  return removed;
}

std::size_t Enclave::rule_count(TableId table) const {
  std::lock_guard lock(control_mutex_);
  for (const Table& t : control_view_locked().tables) {
    if (t.id == table) return t.rules.size();
  }
  return 0;
}

void Enclave::add_flow_rule(FlowClassifierRule rule) {
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  state->flow_rules.push_back(rule);
  end_mutation_locked(std::move(state));
}

void Enclave::clear_flow_rules() {
  std::lock_guard lock(control_mutex_);
  auto state = begin_mutation_locked();
  state->flow_rules.clear();
  end_mutation_locked(std::move(state));
}

void Enclave::set_global_scalar(ActionId id, const std::string& field,
                                std::int64_t value) {
  std::lock_guard lock(control_mutex_);
  std::shared_ptr<ActionEntry> entry = checked_entry_locked(id);
  const auto slot = entry->schema.find(lang::Scope::global, field);
  if (!slot || slot->kind != lang::FieldKind::scalar) {
    throw std::invalid_argument("no global scalar '" + field + "'");
  }
  pending_writes_.push_back(
      GlobalWrite{std::move(entry), slot->slot, false, value, {}, 1});
  end_mutation_locked(begin_mutation_locked());
}

void Enclave::set_global_array(ActionId id, const std::string& field,
                               std::vector<std::int64_t> data) {
  std::lock_guard lock(control_mutex_);
  std::shared_ptr<ActionEntry> entry = checked_entry_locked(id);
  const auto slot = entry->schema.find(lang::Scope::global, field);
  if (!slot || slot->kind == lang::FieldKind::scalar) {
    throw std::invalid_argument("no global array '" + field + "'");
  }
  if (data.size() % slot->stride != 0) {
    throw std::invalid_argument("array data for '" + field +
                                "' is not a whole number of records");
  }
  pending_writes_.push_back(GlobalWrite{std::move(entry), slot->slot, true, 0,
                                        std::move(data), slot->stride});
  end_mutation_locked(begin_mutation_locked());
}

std::int64_t Enclave::read_global_scalar(ActionId id,
                                         const std::string& field) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  const auto slot = entry->schema.find(lang::Scope::global, field);
  if (!slot || slot->kind != lang::FieldKind::scalar) {
    throw std::invalid_argument("no global scalar '" + field + "'");
  }
  std::shared_lock glock(entry->global_mutex);
  return entry->global_state.scalars[slot->slot];
}

std::shared_ptr<Enclave::ActionEntry> Enclave::checked_entry(
    ActionId id) const {
  std::lock_guard lock(control_mutex_);
  return checked_entry_locked(id);
}

std::shared_ptr<Enclave::ActionEntry> Enclave::checked_entry_locked(
    ActionId id) const {
  const RuleState& view = control_view_locked();
  if (id >= view.actions.size() || view.actions[id] == nullptr) {
    throw std::invalid_argument("no such action");
  }
  return view.actions[id];
}

std::int64_t Enclave::message_key(const netsim::Packet& p) {
  if (p.meta.msg_id != 0) return p.meta.msg_id;
  // Flow-granularity fallback: high bit set so flow keys never collide
  // with stage-assigned message ids (positive counters).
  return static_cast<std::int64_t>(flow_hash(p) | 0x8000000000000000ULL);
}

std::int64_t Enclave::symmetric_message_key(const netsim::Packet& p) {
  if (p.meta.msg_id != 0) return p.meta.msg_id;
  return static_cast<std::int64_t>(symmetric_flow_hash(p) |
                                   0x8000000000000000ULL);
}

std::uint64_t Enclave::steering_key(const netsim::Packet& p) {
  // Unstamped packets get their message identity assigned inside the
  // enclave from the five-tuple (classify_flow), so steering by a
  // five-tuple hash keeps every packet of that future message on one
  // shard; the symmetric variant also co-shards both directions of a
  // connection, which symmetric flow rules require.
  if (p.meta.msg_id != 0) return static_cast<std::uint64_t>(p.meta.msg_id);
  return symmetric_flow_hash(p);
}

std::int64_t Enclave::now_ns() const {
  // The injected clock (simulators) wins; otherwise the monotonic
  // clock, which is all the idleness machinery needs.
  if (clock_fn_ != nullptr) return clock_fn_(clock_ctx_);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// FlowStore init callback: runs under the shard lock for a freshly
// created (possibly recycled) entry, and writes every payload word.
void init_message_payload(void* packet, std::int64_t* payload) {
  init_message_state(*static_cast<const netsim::Packet*>(packet), payload);
}
}  // namespace

state::FlowStore::Entry* Enclave::message_entry(
    const state::EpochDomain::Guard& guard, ActionEntry& entry,
    const netsim::Packet& p) {
  return entry.messages->acquire(guard, message_key(p), now_ns(),
                                 &init_message_payload,
                                 const_cast<netsim::Packet*>(&p));
}

// Opportunistic idle expiry: every thread on the data path advances the
// timer wheels (and reclaims epoch-retired memory) once per
// kExpiryPacePackets packets. Workers that want tighter expiry latency
// or stripe partitioning call advance_message_expiry() themselves.
void Enclave::maybe_advance_expiry(detail::ThreadState& ts,
                                   const RuleState& rules) {
  if (--ts.expiry_countdown != 0) [[likely]] {
    return;
  }
  ts.expiry_countdown = kExpiryPacePackets;
  const std::int64_t now = now_ns();
  for (const auto& entry : rules.actions) {
    if (entry != nullptr && entry->messages != nullptr) {
      entry->messages->advance(now);
    }
  }
}

void Enclave::advance_message_expiry(std::size_t stripe,
                                     std::size_t stripes) {
  if (stripes == 0) stripes = 1;
  const std::shared_ptr<const RuleState> rules = committed();
  const std::int64_t now = now_ns();
  for (const auto& entry : rules->actions) {
    if (entry != nullptr && entry->messages != nullptr) {
      entry->messages->advance_stripe(stripe, stripes, now);
    }
  }
}

void Enclave::classify_flow(const RuleState& rules,
                            netsim::Packet& packet) const {
  // Enclave-stage classification (Table 2, last row): five-tuple rules
  // assign a class and a flow-granularity message id.
  for (const FlowClassifierRule& rule : rules.flow_rules) {
    if (rule.matches(packet)) {
      packet.classes.add(rule.class_id);
      if (packet.meta.msg_id == 0) {
        packet.meta.msg_id = rule.symmetric ? symmetric_message_key(packet)
                                            : message_key(packet);
      }
      break;
    }
  }
}

// First match in rule order, as a scan of every rule would find it: the
// earliest exact rule for any of the packet's classes comes from the
// index, and only the wildcard rules ahead of it are tested by name.
Enclave::TableMatch Enclave::match_in_table(
    const Table& table, const netsim::Packet& packet) const {
  std::uint32_t best = Table::kNoRule;
  ClassId best_cls = kInvalidClass;
  for (std::size_t i = 0; i < packet.classes.size(); ++i) {
    const ClassId cls = packet.classes[i];
    if (cls < table.exact_index.size() && table.exact_index[cls] < best) {
      best = table.exact_index[cls];
      best_cls = cls;
    }
  }
  for (const std::uint32_t pos : table.wildcard_rules) {
    if (pos > best) break;
    const MatchRule& rule = table.rules[pos];
    if (rule.pattern->match_any()) {
      // Attribute a match-any hit to the packet's primary class, if the
      // packet carries one.
      return {&rule,
              packet.classes.size() > 0 ? packet.classes[0] : kInvalidClass};
    }
    for (std::size_t i = 0; i < packet.classes.size(); ++i) {
      if (rule.pattern->matches(packet.classes[i], registry_)) {
        return {&rule, packet.classes[i]};
      }
    }
  }
  if (best == Table::kNoRule) return {};
  return {&table.rules[best], best_cls};
}

// Per-class counter slot, or null when per-class telemetry is off.
// Classes interned past kMaxClasses share the overflow slot.
Enclave::ClassCounters* Enclave::class_counter(ClassId cls) {
  if (class_counters_ == nullptr) return nullptr;
  const std::size_t n = kMaxClasses;
  const std::size_t idx = cls == kInvalidClass ? n : (cls < n ? cls : n + 1);
  return &class_counters_[idx];
}

bool Enclave::process(netsim::Packet& packet) {
  ThreadState& ts = thread_state();
  const RuleState& rules = data_snapshot(ts);
  counters_.packets.fetch_add(1, std::memory_order_relaxed);
  if (config_.message_idle_timeout_ns > 0) maybe_advance_expiry(ts, rules);
  return process_one(ts, rules, packet);
}

// One packet against an already-acquired snapshot. Shared by process()
// and the multi-table fallback of process_batch(), so a batch always
// pays for exactly one epoch check however it executes. Does not touch
// the packets counter (the entry points account for it).
bool Enclave::process_one(detail::ThreadState& ts, const RuleState& rules,
                          netsim::Packet& packet) {
  // Packets that arrive unstamped (direct callers without a stage in
  // front) start a lifecycle trace here, paced by the collector's own
  // 1-in-N countdown. Everything downstream keys off meta.trace_id, so
  // an untraced packet costs one branch per hop.
  if (config_.telemetry.span_sample_every != 0 && packet.meta.trace_id == 0) {
    packet.meta.trace_id = spans_.maybe_start_trace();
  }
  classify_flow(rules, packet);

  const std::int64_t trace_id = packet.meta.trace_id;
  std::int64_t span_t0 = 0;
  if (trace_id != 0) span_t0 = spans_.now_ns();

  for (const Table& table : rules.tables) {
    const TableMatch hit = match_in_table(table, packet);
    if (hit.rule == nullptr) continue;
    ActionEntry* entry = hit.rule->action < rules.actions.size()
                             ? rules.actions[hit.rule->action].get()
                             : nullptr;
    if (entry == nullptr) continue;
    if (trace_id != 0) {
      const std::int64_t now = spans_.now_ns();
      spans_.record(trace_id, telemetry::Hop::enclave_match, now,
                    now - span_t0, entry->id);
    }
    // With per-class telemetry on, the class slot is the sole counter
    // for this packet and stats() folds the slots back into the totals;
    // matching costs the same single fetch_add either way.
    ClassCounters* cls = class_counter(hit.cls);
    if (cls != nullptr) {
      cls->matched.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.matched.fetch_add(1, std::memory_order_relaxed);
    }
    run_action(ts, *entry, packet);
    if (packet.drop_mark) {
      if (cls != nullptr) {
        cls->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.dropped_by_action.fetch_add(1, std::memory_order_relaxed);
      }
      if (trace_id != 0) {
        spans_.record_now(trace_id, telemetry::Hop::enclave_drop, entry->id);
      }
      return false;
    }
  }
  return true;
}

std::size_t Enclave::process_batch(std::span<netsim::PacketPtr> batch) {
  ThreadState& ts = thread_state();
  const RuleState& rules = data_snapshot(ts);
  counters_.packets.fetch_add(batch.size(), std::memory_order_relaxed);
  if (config_.message_idle_timeout_ns > 0) maybe_advance_expiry(ts, rules);
  // Multiple tables compose per packet; run the per-packet path, still
  // against the batch's one snapshot acquisition.
  if (rules.tables.size() > 1) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i + util::kPrefetchAhead < batch.size()) {
        util::prefetch_write(batch[i + util::kPrefetchAhead].get());
      }
      if (process_one(ts, rules, *batch[i])) ++kept;
    }
    return kept;
  }

  const Table* table = rules.tables.empty() ? nullptr : &rules.tables.front();

  // Pre-process: classify, match, and group by (action, message) so the
  // lock and state copy are taken once per message rather than once per
  // packet. One linear pass over reusable per-thread scratch: a
  // steady-state batch allocates nothing, each group keeps its packets
  // in arrival order, and groups run in the order their first packet
  // arrived.
  ts.begin_grouping(batch.size());
  const bool span_start = config_.telemetry.span_sample_every != 0;
  // Matches with no per-class slot, added to the enclave total once.
  std::uint64_t matched = 0;
  for (std::size_t bi = 0; bi < batch.size(); ++bi) {
    // Prefetch-ahead: packet bi+k's header/meta lines are on their way
    // while bi classifies and matches, hiding the pointer-chase miss
    // that otherwise dominates a cold batch.
    if (bi + util::kPrefetchAhead < batch.size()) {
      util::prefetch_write(batch[bi + util::kPrefetchAhead].get());
    }
    const netsim::PacketPtr& p = batch[bi];
    if (span_start && p->meta.trace_id == 0) {
      p->meta.trace_id = spans_.maybe_start_trace();
    }
    classify_flow(rules, *p);
    if (table == nullptr) continue;
    const TableMatch hit = match_in_table(*table, *p);
    if (hit.rule == nullptr) continue;
    ActionEntry* entry = hit.rule->action < rules.actions.size()
                             ? rules.actions[hit.rule->action].get()
                             : nullptr;
    if (entry == nullptr) continue;
    if (p->meta.trace_id != 0) {
      // Match duration is folded into the pre-process pass here; record
      // the hop as an instant so the batched and per-packet paths emit
      // the same sequence.
      spans_.record_now(p->meta.trace_id, telemetry::Hop::enclave_match,
                        entry->id);
    }
    // Sole matched/dropped accounting when per-class telemetry is on
    // (stats() folds the slots back into the totals).
    ClassCounters* cls = class_counter(hit.cls);
    if (cls != nullptr) {
      cls->matched.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++matched;
    }
    const std::int64_t key = entry->touches_message ? message_key(*p) : 0;
    ts.group_packet(entry, key, p.get(), cls);
  }
  if (matched != 0) {
    counters_.matched.fetch_add(matched, std::memory_order_relaxed);
  }
  if (ts.batch_items.empty()) return batch.size();
  {
    // One epoch pin for the whole batch: the guard each group takes in
    // run_action_batch nests inside it, so the groups skip the pin's
    // seq_cst store and fence.
    state::EpochDomain::Guard guard(state::EpochDomain::instance());
    // Overlap the message-store misses across the whole batch: the
    // first wave warms each group's table lines, the second chases the
    // slot pointers and pulls both entry lines write-intent, so the
    // acquire and the payload copy inside run_action_batch hit cache
    // even at millions of live messages.
    const auto has_store = [](const ThreadState::BatchGroup& g) {
      return g.entry->touches_message && g.entry->messages != nullptr;
    };
    for (const ThreadState::BatchGroup& g : ts.batch_groups) {
      if (has_store(g)) g.entry->messages->prefetch(guard, g.key);
    }
    for (const ThreadState::BatchGroup& g : ts.batch_groups) {
      if (has_store(g)) g.entry->messages->prefetch_entry(guard, g.key);
    }
    for (std::size_t gi = 0; gi < ts.batch_groups.size(); ++gi) {
      const ThreadState::BatchGroup& group = ts.batch_groups[gi];
      ts.batch_group.clear();
      for (std::uint32_t i = group.head; i != ThreadState::kNoItem;
           i = ts.batch_items[i].next) {
        ts.batch_group.push_back(ts.batch_items[i].pkt);
      }
      // Warm the next group's head while this group executes.
      if (gi + 1 < ts.batch_groups.size()) {
        util::prefetch_write(ts.batch_items[ts.batch_groups[gi + 1].head].pkt);
      }
      run_action_batch(ts, *group.entry, ts.batch_group);
    }
  }

  // Only an action drops a packet, so the matched items are the only
  // candidates; each drop is attributed exactly as process_one does.
  std::size_t kept = batch.size();
  std::uint64_t dropped = 0;  // drops with no per-class slot
  for (const ThreadState::BatchItem& it : ts.batch_items) {
    if (!it.pkt->drop_mark) continue;
    --kept;
    if (it.cls != nullptr) {
      it.cls->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++dropped;
    }
    if (it.pkt->meta.trace_id != 0) {
      spans_.record_now(it.pkt->meta.trace_id, telemetry::Hop::enclave_drop,
                        ts.batch_groups[it.group].entry->id);
    }
  }
  if (dropped != 0) {
    counters_.dropped_by_action.fetch_add(dropped, std::memory_order_relaxed);
  }
  return kept;
}

void Enclave::run_action(detail::ThreadState& ts, ActionEntry& entry,
                         netsim::Packet& packet) {
  netsim::Packet* one = &packet;
  run_action_batch(ts, entry, std::span<netsim::Packet* const>(&one, 1));
}

// Executes the action for every packet of one message (all packets in
// `packets` share the message key, or the action does not touch message
// state). Locking and the message-state copy happen once for the whole
// group; each packet still commits or rolls back independently.
void Enclave::run_action_batch(detail::ThreadState& ts, ActionEntry& entry,
                               std::span<netsim::Packet* const> packets) {
  if (packets.empty()) return;

  // Message-state entries are epoch-protected: the guard keeps
  // msg_entry (and the table it was probed through) alive for the
  // whole group even if concurrent expiry, capacity eviction or a
  // shard resize unlinks it mid-run. Under process_batch it nests in
  // the batch's pin.
  state::EpochDomain::Guard guard(state::EpochDomain::instance());
  state::FlowStore::Entry* msg_entry = nullptr;
  if (entry.touches_message) {
    msg_entry = message_entry(guard, entry, *packets[0]);
  }

  // Concurrency model of Section 3.4.4: writable global state fully
  // serializes; writable message state serializes per message; otherwise
  // executions proceed in parallel. Readers always take the global lock
  // shared so controller updates stay atomic with respect to a run.
  std::shared_lock<std::shared_mutex> global_shared;
  std::unique_lock<std::shared_mutex> global_unique;
  std::unique_lock<std::mutex> msg_lock;
  if (entry.mode == lang::ConcurrencyMode::serialized) {
    global_unique = std::unique_lock(entry.global_mutex);
  } else {
    global_shared = std::shared_lock(entry.global_mutex);
    if (entry.mode == lang::ConcurrencyMode::per_message &&
        msg_entry != nullptr) {
      msg_lock = std::unique_lock(msg_entry->lock);
    }
  }

  // The function runs against a consistent *copy* of the message state
  // (Section 3.4.4); the authoritative payload is updated only from
  // successful executions, so a faulty action never leaves partial
  // message-state writes behind. Each success commits its copy, which
  // makes the payload the checkpoint a later fault rewinds to.
  lang::StateBlock* msg_block = nullptr;
  std::int64_t* msg_scratch = ts.message_block.scalars.data();
  const bool writes_message =
      entry.native ? entry.touches_message
                   : entry.program.usage.writes_scope(lang::Scope::message);
  if (msg_entry != nullptr) {
    std::memcpy(msg_scratch, msg_entry->payload, kMessageBytes);
    msg_block = &ts.message_block;
  }

  if (!entry.native) ts.interp.set_clock(clock_fn_, clock_ctx_);
  // Hot-spot profiling (opt-in diagnostics): the profile's cells are
  // plain counters, so profiled executions of this action serialize on
  // the profile mutex for the whole group.
  std::unique_lock<std::mutex> profile_lock;
  if (!entry.native && entry.profile != nullptr) {
    profile_lock = std::unique_lock(entry.profile_mutex);
    ts.interp.set_profile(entry.profile.get(), kProfileCycleSampleEvery);
  }

  // Telemetry is pay-for-what-you-enable: with histograms off the
  // per-packet cost is the relaxed counter adds; with them on, the
  // not-sampled packets add a thread-local counter check and only every
  // histogram_sample_every-th execution is actually timed.
  const std::uint32_t hist_every =
      entry.latency_hist != nullptr ? config_.telemetry.histogram_sample_every
                                    : 0;

  // The group's executions and steps reach the shared counters once,
  // after the loop; each fault still counts under its status.
  std::uint64_t group_steps = 0;
  for (std::size_t pi = 0; pi < packets.size(); ++pi) {
    netsim::Packet* packet = packets[pi];
    // Overlap the next packet's state-load miss with this execution.
    if (pi + 1 < packets.size()) util::prefetch_write(packets[pi + 1]);
    load_packet_state(*packet, ts.packet_block);

    bool sampled = false;
    if (hist_every != 0 && --ts.hist_countdown == 0) {
      ts.hist_countdown = hist_every;
      sampled = true;
    }
    const std::uint64_t t0 = sampled ? telemetry::now_ticks() : 0;
    const std::int64_t span_id = packet->meta.trace_id;
    std::int64_t span_t0 = 0;
    if (span_id != 0) span_t0 = spans_.now_ns();

    lang::ExecStatus status;
    std::uint64_t steps = 0;
    if (entry.native) {
      NativeCtx ctx{ts.rng,
                    clock_fn_ != nullptr ? clock_fn_(clock_ctx_) : 0};
      status = entry.native_fn(ts.packet_block, msg_block,
                               &entry.global_state, ctx);
    } else {
      const lang::ExecResult result = ts.interp.execute(
          entry.program, &ts.packet_block, msg_block, &entry.global_state);
      status = result.status;
      steps = result.steps;
      group_steps += steps;
    }

    if (sampled) {
      entry.latency_hist->record(
          telemetry::ticks_to_ns(telemetry::now_ticks() - t0));
      if (entry.steps_hist != nullptr) entry.steps_hist->record(steps);
    }
    if (span_id != 0) {
      const std::int64_t now = spans_.now_ns();
      spans_.record(
          span_id, telemetry::Hop::action_exec, now, now - span_t0, entry.id,
          /*span_id=*/0, /*parent_id=*/0,
          packet->classes.size() > 0 ? packet->classes[0] : kInvalidClass,
          static_cast<std::uint8_t>(status), steps);
    }

    if (status != lang::ExecStatus::ok) {
      // A faulty execution terminates without touching the packet or
      // the message state (Section 3.4.3): rewind to the last committed
      // payload so the next packet of the batch starts clean.
      entry.counters.by_status[static_cast<std::size_t>(status)].fetch_add(
          1, std::memory_order_relaxed);
      if (msg_entry != nullptr && writes_message) {
        std::memcpy(msg_scratch, msg_entry->payload, kMessageBytes);
      }
      continue;
    }
    store_packet_state(ts.packet_block, *packet);
    if (msg_entry != nullptr && writes_message) {
      std::memcpy(msg_entry->payload, msg_scratch, kMessageBytes);
    }
  }
  entry.counters.executions.fetch_add(packets.size(),
                                      std::memory_order_relaxed);
  if (!entry.native) {
    entry.counters.steps.fetch_add(group_steps, std::memory_order_relaxed);
  }

  if (profile_lock.owns_lock()) ts.interp.set_profile(nullptr);
}

EnclaveStats Enclave::stats() const {
  EnclaveStats s;
  s.packets = counters_.packets.load(std::memory_order_relaxed);
  s.matched = counters_.matched.load(std::memory_order_relaxed);
  s.dropped_by_action =
      counters_.dropped_by_action.load(std::memory_order_relaxed);
  // With per-class telemetry on, matched/dropped live in the class
  // slots (the data path increments exactly one counter per packet
  // either way); fold them back into the totals here.
  if (class_counters_ != nullptr) {
    for (std::size_t i = 0; i < kMaxClasses + 2; ++i) {
      s.matched += class_counters_[i].matched.load(std::memory_order_relaxed);
      s.dropped_by_action +=
          class_counters_[i].dropped.load(std::memory_order_relaxed);
    }
  }
  s.message_entries_created =
      counters_.message_entries_created.load(std::memory_order_relaxed);
  s.message_entries_evicted =
      counters_.message_entries_evicted.load(std::memory_order_relaxed);
  s.message_entries_expired =
      counters_.message_entries_expired.load(std::memory_order_relaxed);
  // Live entries are per-store state, not a monotonic counter: sum the
  // currently installed actions' stores.
  const std::shared_ptr<const RuleState> rules = committed();
  for (const auto& entry : rules->actions) {
    if (entry != nullptr && entry->messages != nullptr) {
      s.message_entries_live += entry->messages->live();
    }
  }
  return s;
}

state::FlowStoreStats Enclave::message_store_stats(ActionId id) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  if (entry->messages == nullptr) return {};
  return entry->messages->stats();
}

ActionStats Enclave::ActionCounters::read() const {
  ActionStats s;
  s.executions = executions.load(std::memory_order_relaxed);
  s.steps = steps.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.errors_by_status.size(); ++i) {
    s.errors_by_status[i] = by_status[i].load(std::memory_order_relaxed);
    s.errors += s.errors_by_status[i];
  }
  return s;
}

ActionStats Enclave::action_stats(ActionId id) const {
  return checked_entry(id)->counters.read();
}

std::string Enclave::class_display_name(ClassId cls) const {
  if (cls == kInvalidClass) return "(unclassified)";
  if (cls >= registry_.size()) return "(unknown)";
  return registry_.name(cls).full();
}

telemetry::EnclaveTelemetry Enclave::telemetry_snapshot() const {
  telemetry::EnclaveTelemetry t;
  t.enclave = name_;
  t.telemetry_enabled = config_.telemetry.enabled;

  static_cast<telemetry::EnclaveCounts&>(t) = stats();

  const std::shared_ptr<const RuleState> rules = committed();
  // Message-state store section: totals across the installed actions'
  // FlowStores (eden_state_* series).
  for (const auto& entry : rules->actions) {
    if (entry == nullptr || entry->messages == nullptr) continue;
    const state::FlowStoreStats fs = entry->messages->stats();
    t.state.present = true;
    t.state.live += fs.live;
    t.state.created += fs.created;
    t.state.expired += fs.expired;
    t.state.evicted += fs.evicted;
    t.state.resizes += fs.resizes;
    t.state.probe_len.merge(fs.probe_len);
  }
  for (const auto& entry : rules->actions) {
    if (entry == nullptr) continue;
    telemetry::ActionTelemetry a;
    a.name = entry->name;
    a.native = entry->native;
    static_cast<ActionStats&>(a) = entry->counters.read();
    if (entry->latency_hist != nullptr) {
      a.has_histograms = true;
      a.latency_ns = entry->latency_hist->snapshot();
      if (entry->steps_hist != nullptr) {
        a.steps_hist = entry->steps_hist->snapshot();
      }
    }
    if (entry->profile != nullptr) {
      telemetry::ProgramProfile prof;
      {
        std::lock_guard plock(entry->profile_mutex);
        prof = *entry->profile;
      }
      if (!prof.empty()) {
        a.has_profile = true;
        a.profile_runs = prof.runs;
        a.profile_instructions = prof.total_count();
        a.hotspots = telemetry::hottest(prof);
        for (telemetry::HotSpot& h : a.hotspots) {
          h.text = lang::disassemble_instr(entry->program, h.pc);
        }
      }
    }
    t.actions.push_back(std::move(a));
  }

  if (class_counters_ != nullptr) {
    const std::size_t n = kMaxClasses;
    for (std::size_t i = 0; i < n + 2; ++i) {
      const std::uint64_t matched =
          class_counters_[i].matched.load(std::memory_order_relaxed);
      const std::uint64_t dropped =
          class_counters_[i].dropped.load(std::memory_order_relaxed);
      if (matched == 0 && dropped == 0) continue;
      telemetry::ClassTelemetry c;
      c.matched = matched;
      c.dropped = dropped;
      if (i == n) {
        c.name = "(unclassified)";
      } else if (i == n + 1) {
        c.name = "(overflow)";
      } else {
        c.name = class_display_name(static_cast<ClassId>(i));
      }
      t.classes.push_back(std::move(c));
    }
  }

  return t;
}

std::optional<std::int64_t> Enclave::peek_message_state(
    ActionId id, std::int64_t msg_key, std::uint16_t slot) const {
  const std::shared_ptr<ActionEntry> entry = checked_entry(id);
  if (entry->messages == nullptr) return std::nullopt;
  // Peek semantics: find() does not stamp last_touch, so peeking never
  // keeps an idle entry alive. The guard pins the entry; its lock
  // orders the read against per-message writers.
  state::EpochDomain::Guard guard(entry->messages->domain());
  state::FlowStore::Entry* e = entry->messages->find(guard, msg_key);
  if (e == nullptr) return std::nullopt;
  std::lock_guard elock(e->lock);
  if (slot >= state::FlowStore::kPayloadWords) return std::nullopt;
  return e->payload[slot];
}

}  // namespace eden::core
