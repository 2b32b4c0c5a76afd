// FlowStore — the million-flow state engine (ISSUE 9 tentpole).
//
// A sharded, cache-friendly open-addressing table for per-message
// state. Replaces the enclave's per-action
// `shared_mutex + unordered_map<int64, shared_ptr<MessageEntry>>`:
//
//   * Shards are selected by the same splitmix64-whitened key the
//     dataplane steers on (`util::mix64`), so under RSS a shard is
//     effectively owned by one worker and its slots stay cache-hot.
//   * Within a shard, a Swiss-table-style layout: a control-byte array
//     (7-bit tag per slot, probed in groups of 16) in front of a slot
//     array of Entry pointers. Entries live in a stable slab arena and
//     NEVER move, so resize just rebuilds the index arrays — the
//     payload, the per-entry mutex the action runtime locks, and the
//     timer node all keep their addresses.
//   * An entry is two cache lines at fixed offsets (with glibc's
//     40-byte std::mutex): the first holds the timer node, key, touch
//     stamp and entry lock, the second the message block's
//     kPayloadWords words inline. A hit touches both; the expiry walk
//     touches only the first.
//   * The hit path takes NO shard lock: readers probe the published
//     table under an EpochDomain guard; insert/resize/expiry/eviction
//     serialize on the shard mutex and retire unlinked memory through
//     the epoch protocol (see epoch.h) so nothing is freed or reused
//     while an in-flight execution can still touch it.
//   * A per-shard hierarchical TimerWheel orders entries by idleness:
//     every acquire stamps last_touch (touch-on-access, no wheel
//     movement); advance() lazily cascades and either expires a fired
//     entry (last_touch + idle_timeout <= now) or re-arms it at its
//     fresh deadline. Capacity eviction picks its victim from the
//     wheel's oldest cohort by minimum last_touch — idle flows go
//     first, hot long-lived flows survive. Expiry and capacity
//     eviction are accounted separately.
//
// Concurrency contract: find/acquire may run from any thread with a
// live EpochDomain::Guard; the returned Entry* (and everything hanging
// off it) stays valid until the guard is released, even if the entry
// is concurrently expired, evicted or the table resized. Mutating an
// entry's payload requires holding entry->lock (per-message
// exclusivity, unchanged from the old MessageEntry).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "state/epoch.h"
#include "state/timer_wheel.h"
#include "telemetry/metrics.h"

namespace eden::state {

// Optional mirror counters (e.g. the enclave's stats block) bumped in
// addition to the store's own, so enclave-lifetime accounting survives
// individual stores being torn down with their actions.
struct FlowStoreSink {
  std::atomic<std::uint64_t>* created = nullptr;
  std::atomic<std::uint64_t>* expired = nullptr;
  std::atomic<std::uint64_t>* evicted = nullptr;
};

struct FlowStoreConfig {
  std::size_t shards = 8;             // rounded up to a power of two
  std::size_t initial_capacity = 64;  // slots per shard, power of two
  std::size_t max_entries = 0;        // total live cap; 0 = unlimited
  std::int64_t idle_timeout_ns = 0;   // 0 = idle expiry disabled
  std::int64_t wheel_tick_ns = 1'000'000;  // 1 ms
  FlowStoreSink sink;
};

struct FlowStoreStats {
  std::uint64_t live = 0;
  std::uint64_t created = 0;
  std::uint64_t expired = 0;   // idle-timeout removals
  std::uint64_t evicted = 0;   // capacity removals
  std::uint64_t resizes = 0;
  telemetry::HistogramSnapshot probe_len;
};

class FlowStore {
 public:
  // Words of state each entry carries inline.
  static constexpr std::size_t kPayloadWords = 8;

  struct alignas(64) Entry {
    // First member: the wheel hands back TimerNode*, and entry_of()
    // relies on the node sitting at offset 0.
    TimerNode timer;
    std::int64_t key = 0;
    std::atomic<std::int64_t> last_touch_ns{0};
    std::mutex lock;  // per-message exclusivity, as MessageEntry had
    // The message block, on its own line. A slab slot on the free list
    // holds no message, so the free-list link reuses the line.
    union alignas(64) {
      std::int64_t payload[kPayloadWords] = {};
      Entry* free_next;
    };
  };

  // Runs under the shard lock for a freshly created entry. The payload
  // may hold a recycled predecessor's words; the callback must write
  // all kPayloadWords of them.
  using InitFn = void (*)(void* ctx, std::int64_t* payload);

  explicit FlowStore(FlowStoreConfig config,
                     EpochDomain& domain = EpochDomain::instance());
  ~FlowStore();
  FlowStore(const FlowStore&) = delete;
  FlowStore& operator=(const FlowStore&) = delete;

  // Lock-free lookup; does NOT touch (peek semantics).
  Entry* find(const EpochDomain::Guard& guard, std::int64_t key) const;

  // Find-or-create; stamps last_touch either way. `init`/`ctx` run only
  // on creation. Sets *created when the entry is new.
  Entry* acquire(const EpochDomain::Guard& guard, std::int64_t key,
                 std::int64_t now_ns, InitFn init, void* ctx,
                 bool* created = nullptr);

  // Removes `key` if present (controller/test path). Bumps neither the
  // expired nor the evicted counter: the caller asked for the removal
  // and accounts for it.
  bool erase(std::int64_t key);

  // Batch warm-up for the hit path. Lookups at large populations pay
  // two dependent cache misses (the table lines, then the entry's two
  // lines); issuing `prefetch` for every key in a batch and then
  // `prefetch_entry` for the same keys overlaps those misses across
  // the whole batch instead of serializing them per lookup. Both are
  // hints: they never fault, never touch stats, and are safe for keys
  // that are absent. `prefetch_entry` assumes the table lines are
  // already warm (i.e. `prefetch` ran earlier in the same batch).
  void prefetch(const EpochDomain::Guard& guard, std::int64_t key) const;
  void prefetch_entry(const EpochDomain::Guard& guard,
                      std::int64_t key) const;

  // Batched peek: looks up `n` keys (n <= kMaxFindBatch) and writes
  // out[i] = entry or nullptr. Equivalent to n find() calls but runs
  // the prefetch waves internally, hashing and probing each key once:
  // wave 1 issues the table-line prefetches for every key, wave 2
  // probes (now-warm lines) and prefetches each candidate entry, wave
  // 3 validates candidates against the (now-warm) entry lines. At
  // large populations this overlaps the dependent misses of the whole
  // batch instead of serializing three per lookup.
  static constexpr std::size_t kMaxFindBatch = 256;
  void find_batch(const EpochDomain::Guard& guard,
                  const std::int64_t* keys, std::size_t n,
                  Entry** out) const;

  // Expires idle entries whose shard index falls in the given stripe
  // and reclaims retired memory. `advance` covers every shard.
  void advance(std::int64_t now_ns) { advance_stripe(0, 1, now_ns); }
  void advance_stripe(std::size_t stripe, std::size_t stripes,
                      std::int64_t now_ns);

  FlowStoreStats stats() const;
  std::uint64_t live() const {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t shard_count() const { return shards_count_; }
  EpochDomain& domain() const { return domain_; }
  const FlowStoreConfig& config() const { return config_; }

 private:
  struct Table;
  struct Shard;

  static Entry* entry_of(TimerNode* node) {
    return reinterpret_cast<Entry*>(node);
  }

  Shard& shard_for(std::uint64_t hash) const;
  Entry* probe_find(const Table& t, std::uint64_t hash, std::int64_t key,
                    std::size_t* probe_out = nullptr) const;
  Entry* insert_locked(Shard& sh, std::uint64_t hash, std::int64_t key,
                       std::int64_t now_ns, InitFn init, void* ctx);
  // How an entry left the table: kErased is a caller-requested removal
  // and bumps no counter (callers account for it); kExpired/kEvicted
  // feed the matching stat and sink.
  enum class RemoveKind { kErased, kExpired, kEvicted };
  void remove_locked(Shard& sh, Entry* e, RemoveKind kind);
  void resize_locked(Shard& sh, std::size_t new_capacity);
  void ensure_capacity(std::size_t preferred_shard, std::int64_t now_ns);
  bool evict_one(std::size_t preferred_shard, std::int64_t now_ns);
  Entry* alloc_entry(Shard& sh);
  void maybe_reclaim(Shard& sh, bool force);

  FlowStoreConfig config_;
  EpochDomain& domain_;
  std::size_t shards_count_;
  std::uint64_t shard_mask_;
  int shard_bits_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> resizes_{0};
  telemetry::Histogram probe_hist_;
};

}  // namespace eden::state
