#include "state/flow_store.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <memory>
#include <new>

#include "util/hash.h"

namespace eden::state {

namespace {

// Control bytes: 0x00 empty, 0x01 tombstone, 0x80|tag7 occupied. Tags
// come from the top 7 hash bits, which never overlap the slot-index
// bits, so a one-byte compare rejects almost every non-matching slot
// without touching the entry line.
constexpr std::uint8_t kEmpty = 0x00;
constexpr std::uint8_t kTombstone = 0x01;
constexpr std::size_t kGroup = 16;       // slots probed per group
constexpr std::size_t kSlabEntries = 256;
constexpr std::size_t kReclaimBatch = 64;
constexpr std::size_t kEvictScan = 32;   // oldest-cohort sample size
// acquire() records one in this many probe lengths (hits and inserts).
constexpr std::uint32_t kProbeSampleEvery = 64;

std::uint8_t tag_of(std::uint64_t h) {
  return static_cast<std::uint8_t>(0x80u | (h >> 57));
}

std::size_t ceil_pow2(std::size_t v) {
  return v < 2 ? 2 : std::bit_ceil(v);
}

// A slab is a plain byte buffer one cache line longer than its entries,
// aligned by hand. Aligned operator new would go through memalign,
// which splits each slab's chunk and leaves small free fragments all
// over the heap; the enclave's control-plane allocations then land in
// them and run on scattered, cold lines.
constexpr std::size_t kSlabBytes =
    sizeof(FlowStore::Entry) * kSlabEntries + alignof(FlowStore::Entry);

FlowStore::Entry* slab_entries(std::byte* slab) {
  void* p = slab;
  std::size_t space = kSlabBytes;
  return static_cast<FlowStore::Entry*>(
      std::align(alignof(FlowStore::Entry),
                 sizeof(FlowStore::Entry) * kSlabEntries, p, space));
}

}  // namespace

struct FlowStore::Table {
  explicit Table(std::size_t capacity)
      : mask(capacity - 1),
        ctrl(new std::atomic<std::uint8_t>[capacity]),
        slots(new std::atomic<Entry*>[capacity]) {
    for (std::size_t i = 0; i < capacity; ++i) {
      ctrl[i].store(kEmpty, std::memory_order_relaxed);
      slots[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  std::size_t capacity() const { return mask + 1; }

  const std::size_t mask;
  std::unique_ptr<std::atomic<std::uint8_t>[]> ctrl;
  std::unique_ptr<std::atomic<Entry*>[]> slots;
};

struct alignas(64) FlowStore::Shard {
  std::mutex lock;
  std::atomic<Table*> table{nullptr};
  std::unique_ptr<TimerWheel> wheel;
  std::size_t size = 0;        // live entries, under lock
  std::size_t tombstones = 0;  // under lock

  Entry* free_head = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> slabs;

  struct Retired {
    void* ptr;
    std::uint64_t epoch;
    bool is_table;
  };
  std::vector<Retired> retired;  // under lock
};

FlowStore::FlowStore(FlowStoreConfig config, EpochDomain& domain)
    : config_(config), domain_(domain) {
  shards_count_ = ceil_pow2(config_.shards == 0 ? 1 : config_.shards);
  shard_mask_ = shards_count_ - 1;
  shard_bits_ = std::countr_zero(shards_count_);
  config_.initial_capacity = ceil_pow2(
      config_.initial_capacity < kGroup ? kGroup : config_.initial_capacity);
  shards_ = std::make_unique<Shard[]>(shards_count_);
  for (std::size_t i = 0; i < shards_count_; ++i) {
    shards_[i].wheel = std::make_unique<TimerWheel>(config_.wheel_tick_ns);
  }
}

FlowStore::~FlowStore() {
  // Contract: no guard still references this store's entries when the
  // destructor runs (the enclave guarantees it via the rule-snapshot
  // lifetime), so everything can be freed unconditionally.
  for (std::size_t s = 0; s < shards_count_; ++s) {
    Shard& sh = shards_[s];
    delete sh.table.load(std::memory_order_relaxed);
    for (const auto& r : sh.retired) {
      if (r.is_table) delete static_cast<Table*>(r.ptr);
      // Retired entries live in the slabs below; destroyed there.
    }
    for (auto& slab : sh.slabs) {
      Entry* entries = slab_entries(slab.get());
      for (std::size_t i = 0; i < kSlabEntries; ++i) entries[i].~Entry();
    }
  }
}

FlowStore::Shard& FlowStore::shard_for(std::uint64_t hash) const {
  return shards_[hash & shard_mask_];
}

FlowStore::Entry* FlowStore::probe_find(const Table& t, std::uint64_t hash,
                                        std::int64_t key,
                                        std::size_t* probe_out) const {
  const std::uint8_t tag = tag_of(hash);
  const std::size_t mask = t.mask;
  std::size_t base = (hash >> shard_bits_) & mask;
  for (std::size_t probed = 0; probed <= mask;) {
    bool saw_empty = false;
    for (std::size_t j = 0; j < kGroup && probed <= mask; ++j, ++probed) {
      const std::size_t i = (base + j) & mask;
      const std::uint8_t c = t.ctrl[i].load(std::memory_order_acquire);
      if (c == tag) {
        Entry* e = t.slots[i].load(std::memory_order_acquire);
        if (e != nullptr && e->key == key) {
          if (probe_out != nullptr) *probe_out = probed + 1;
          return e;
        }
      } else if (c == kEmpty) {
        saw_empty = true;
      }
    }
    // An empty slot anywhere in the group terminates the probe chain:
    // inserts never skip an empty slot, so the key cannot be further.
    if (saw_empty) return nullptr;
    base = (base + kGroup) & mask;
  }
  return nullptr;
}

FlowStore::Probe FlowStore::begin(const EpochDomain::Guard&,
                                  std::int64_t key) const {
  Probe p;
  p.key_ = key;
  p.hash_ = util::mix64(static_cast<std::uint64_t>(key));
  p.table_ = shard_for(p.hash_).table.load(std::memory_order_acquire);
  if (p.table_ != nullptr) {
    const std::size_t base = (p.hash_ >> shard_bits_) & p.table_->mask;
    __builtin_prefetch(&p.table_->ctrl[base], 0, 3);
    __builtin_prefetch(&p.table_->slots[base], 0, 3);
  }
  return p;
}

void FlowStore::scan(Probe& p) const {
  const Table* t = p.table_;
  if (t == nullptr) {
    p.saw_empty_ = true;
    return;
  }
  const std::uint8_t tag = tag_of(p.hash_);
  const std::size_t mask = t->mask;
  const std::size_t base = (p.hash_ >> shard_bits_) & mask;
  // First probe group only: with the fill capped at 7/8 and tombstone
  // rehashing, nearly every key resolves here, and the rest fall back
  // to the full probe. Verifying the candidate's key would BE the miss
  // this wave exists to overlap, so a tag match is enough.
  for (std::size_t j = 0; j < kGroup; ++j) {
    const std::size_t i = (base + j) & mask;
    const std::uint8_t c = t->ctrl[i].load(std::memory_order_acquire);
    if (c == tag) {
      Entry* e = t->slots[i].load(std::memory_order_acquire);
      if (e != nullptr) {
        __builtin_prefetch(e, 1, 3);
        __builtin_prefetch(e->payload, 1, 3);
        p.candidate_ = e;
        p.slot_ = static_cast<std::uint32_t>(i);
        p.probe_len_ = static_cast<std::uint32_t>(j + 1);
        return;
      }
    } else if (c == kEmpty) {
      p.saw_empty_ = true;
      return;
    }
  }
}

// The scanned candidate, if it is still linked in `current` (the
// shard's table now) under the probe's key. An erased entry keeps its
// key while a guard pins it, so the key alone does not say it is
// linked; the same table and slot do, because nothing the guard pins
// is reclaimed and reused.
FlowStore::Entry* FlowStore::linked_candidate(const Probe& p,
                                              const Table* current) {
  Entry* e = p.candidate_;
  if (e == nullptr || p.table_ != current ||
      current->slots[p.slot_].load(std::memory_order_acquire) != e ||
      e->key != p.key_) {
    return nullptr;
  }
  return e;
}

FlowStore::Entry* FlowStore::find(const EpochDomain::Guard&,
                                  const Probe& p) const {
  const Table* t = shard_for(p.hash_).table.load(std::memory_order_acquire);
  if (Entry* e = linked_candidate(p, t)) return e;
  return t == nullptr ? nullptr : probe_find(*t, p.hash_, p.key_);
}

FlowStore::Entry* FlowStore::find(const EpochDomain::Guard& guard,
                                  std::int64_t key) const {
  Probe p = begin(guard, key);
  scan(p);
  return find(guard, p);
}

FlowStore::Entry* FlowStore::acquire(const EpochDomain::Guard& guard,
                                     std::int64_t key, std::int64_t now_ns,
                                     InitFn init, void* ctx, bool* created) {
  Probe p = begin(guard, key);
  scan(p);
  return acquire(guard, p, now_ns, init, ctx, created);
}

FlowStore::Entry* FlowStore::acquire(const EpochDomain::Guard&,
                                     const Probe& p, std::int64_t now_ns,
                                     InitFn init, void* ctx, bool* created) {
  if (created != nullptr) *created = false;
  Shard& sh = shard_for(p.hash_);
  const Table* t = sh.table.load(std::memory_order_acquire);
  std::size_t probe_len = p.probe_len_;
  Entry* e = linked_candidate(p, t);
  if (e == nullptr && !p.saw_empty_ && t != nullptr) {
    e = probe_find(*t, p.hash_, p.key_, &probe_len);
  }
  if (e != nullptr) {
    e->last_touch_ns.store(now_ns, std::memory_order_relaxed);
    if (telemetry::sample_1_in(kProbeSampleEvery)) {
      probe_hist_.record(probe_len);
    }
    return e;
  }
  // Probable miss: make room BEFORE taking our shard lock, so eviction
  // can lock sibling shards without ever holding two shard locks.
  if (config_.max_entries != 0) ensure_capacity(p.hash_ & shard_mask_, now_ns);
  std::lock_guard<std::mutex> lock(sh.lock);
  t = sh.table.load(std::memory_order_relaxed);
  if (t != nullptr) {
    e = probe_find(*t, p.hash_, p.key_);
    if (e != nullptr) {
      e->last_touch_ns.store(now_ns, std::memory_order_relaxed);
      return e;
    }
  }
  if (created != nullptr) *created = true;
  return insert_locked(sh, p.hash_, p.key_, now_ns, init, ctx);
}

FlowStore::Entry* FlowStore::insert_locked(Shard& sh, std::uint64_t hash,
                                           std::int64_t key,
                                           std::int64_t now_ns, InitFn init,
                                           void* ctx) {
  Table* t = sh.table.load(std::memory_order_relaxed);
  if (t == nullptr) {
    // First entry in this shard: install the table and anchor the
    // wheel cursor at the current time so the first advance does not
    // walk an epoch-sized tick gap.
    t = new Table(config_.initial_capacity);
    sh.table.store(t, std::memory_order_release);
    sh.wheel->reanchor(now_ns);
  }
  if ((sh.size + sh.tombstones + 1) * 8 > t->capacity() * 7) {
    // Past 7/8 fill: grow when genuinely full, otherwise rehash in
    // place (same capacity) to flush tombstone litter.
    std::size_t new_capacity = t->capacity();
    if ((sh.size + 1) * 4 >= t->capacity() * 3) new_capacity *= 2;
    resize_locked(sh, new_capacity);
    t = sh.table.load(std::memory_order_relaxed);
  }

  const std::uint8_t tag = tag_of(hash);
  const std::size_t mask = t->mask;
  std::size_t base = (hash >> shard_bits_) & mask;
  std::size_t slot = mask + 1;  // sentinel: not found yet
  std::size_t probe_len = 0;
  for (std::size_t probed = 0; probed <= mask && slot > mask;) {
    for (std::size_t j = 0; j < kGroup && probed <= mask; ++j, ++probed) {
      const std::size_t i = (base + j) & mask;
      const std::uint8_t c = t->ctrl[i].load(std::memory_order_relaxed);
      if (c == kEmpty || c == kTombstone) {
        slot = i;
        probe_len = probed + 1;
        break;
      }
    }
    base = (base + kGroup) & mask;
  }
  assert(slot <= mask && "load factor keeps a free slot reachable");

  Entry* e = alloc_entry(sh);
  e->key = key;
  e->last_touch_ns.store(now_ns, std::memory_order_relaxed);
  init(ctx, e->payload);
  if (t->ctrl[slot].load(std::memory_order_relaxed) == kTombstone) {
    --sh.tombstones;
  }
  // Publish order matters: slot pointer first, control byte last, so a
  // reader that sees the tag also sees the fully initialized entry.
  t->slots[slot].store(e, std::memory_order_release);
  t->ctrl[slot].store(tag, std::memory_order_release);
  ++sh.size;
  live_.fetch_add(1, std::memory_order_relaxed);
  created_.fetch_add(1, std::memory_order_relaxed);
  if (config_.sink.created != nullptr) {
    config_.sink.created->fetch_add(1, std::memory_order_relaxed);
  }
  if (telemetry::sample_1_in(kProbeSampleEvery)) {
    probe_hist_.record(probe_len);
  }

  const std::int64_t deadline =
      config_.idle_timeout_ns > 0 ? now_ns + config_.idle_timeout_ns : now_ns;
  sh.wheel->schedule(e->timer, deadline);
  return e;
}

void FlowStore::remove_locked(Shard& sh, Entry* e, RemoveKind kind) {
  const std::uint64_t h = util::mix64(static_cast<std::uint64_t>(e->key));
  Table* t = sh.table.load(std::memory_order_relaxed);
  const std::uint8_t tag = tag_of(h);
  const std::size_t mask = t->mask;
  std::size_t base = (h >> shard_bits_) & mask;
  for (std::size_t probed = 0; probed <= mask;) {
    for (std::size_t j = 0; j < kGroup && probed <= mask; ++j, ++probed) {
      const std::size_t i = (base + j) & mask;
      if (t->ctrl[i].load(std::memory_order_relaxed) == tag &&
          t->slots[i].load(std::memory_order_relaxed) == e) {
        t->slots[i].store(nullptr, std::memory_order_release);
        t->ctrl[i].store(kTombstone, std::memory_order_release);
        ++sh.tombstones;
        --sh.size;
        sh.wheel->cancel(e->timer);
        live_.fetch_sub(1, std::memory_order_relaxed);
        if (kind != RemoveKind::kErased) {
          const bool expired = kind == RemoveKind::kExpired;
          auto& counter = expired ? expired_ : evicted_;
          counter.fetch_add(1, std::memory_order_relaxed);
          auto* sink =
              expired ? config_.sink.expired : config_.sink.evicted;
          if (sink != nullptr) sink->fetch_add(1, std::memory_order_relaxed);
        }
        sh.retired.push_back({e, domain_.stamp_retire(), false});
        maybe_reclaim(sh, false);
        return;
      }
    }
    base = (base + kGroup) & mask;
  }
  assert(false && "remove_locked: entry not present in its shard");
}

void FlowStore::resize_locked(Shard& sh, std::size_t new_capacity) {
  Table* old = sh.table.load(std::memory_order_relaxed);
  Table* fresh = new Table(new_capacity);
  for (std::size_t i = 0; i <= old->mask; ++i) {
    if (old->ctrl[i].load(std::memory_order_relaxed) < 0x80u) continue;
    Entry* e = old->slots[i].load(std::memory_order_relaxed);
    const std::uint64_t h = util::mix64(static_cast<std::uint64_t>(e->key));
    const std::size_t mask = fresh->mask;
    std::size_t base = (h >> shard_bits_) & mask;
    for (;;) {
      bool placed = false;
      for (std::size_t j = 0; j < kGroup; ++j) {
        const std::size_t k = (base + j) & mask;
        if (fresh->ctrl[k].load(std::memory_order_relaxed) == kEmpty) {
          fresh->slots[k].store(e, std::memory_order_relaxed);
          fresh->ctrl[k].store(tag_of(h), std::memory_order_relaxed);
          placed = true;
          break;
        }
      }
      if (placed) break;
      base = (base + kGroup) & mask;
    }
  }
  // The release store publishes every slot written above; readers load
  // the table pointer with acquire.
  sh.table.store(fresh, std::memory_order_release);
  sh.tombstones = 0;
  resizes_.fetch_add(1, std::memory_order_relaxed);
  sh.retired.push_back({old, domain_.stamp_retire(), true});
  maybe_reclaim(sh, false);
}

void FlowStore::ensure_capacity(std::size_t preferred_shard,
                                std::int64_t now_ns) {
  while (live_.load(std::memory_order_acquire) >= config_.max_entries) {
    if (!evict_one(preferred_shard, now_ns)) break;
  }
}

bool FlowStore::evict_one(std::size_t preferred_shard, std::int64_t now_ns) {
  (void)now_ns;
  for (std::size_t k = 0; k < shards_count_; ++k) {
    Shard& sh = shards_[(preferred_shard + k) & shard_mask_];
    std::lock_guard<std::mutex> lock(sh.lock);
    if (sh.size == 0) continue;
    TimerNode* cohort[kEvictScan];
    const std::size_t n = sh.wheel->collect_oldest(cohort, kEvictScan);
    if (n == 0) continue;
    Entry* victim = entry_of(cohort[0]);
    std::int64_t victim_touch =
        victim->last_touch_ns.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < n; ++i) {
      Entry* e = entry_of(cohort[i]);
      const std::int64_t touch =
          e->last_touch_ns.load(std::memory_order_relaxed);
      if (touch < victim_touch) {
        victim = e;
        victim_touch = touch;
      }
    }
    remove_locked(sh, victim, RemoveKind::kEvicted);
    return true;
  }
  return false;
}

bool FlowStore::erase(std::int64_t key) {
  const std::uint64_t h = util::mix64(static_cast<std::uint64_t>(key));
  Shard& sh = shard_for(h);
  std::lock_guard<std::mutex> lock(sh.lock);
  Table* t = sh.table.load(std::memory_order_relaxed);
  if (t == nullptr) return false;
  Entry* e = probe_find(*t, h, key);
  if (e == nullptr) return false;
  remove_locked(sh, e, RemoveKind::kErased);
  return true;
}

void FlowStore::advance_stripe(std::size_t stripe, std::size_t stripes,
                               std::int64_t now_ns) {
  if (stripes == 0) stripes = 1;
  for (std::size_t i = stripe; i < shards_count_; i += stripes) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.lock);
    if (config_.idle_timeout_ns > 0 && sh.size > 0) {
      sh.wheel->advance(now_ns, [&](TimerNode* node) {
        Entry* e = entry_of(node);
        const std::int64_t deadline =
            e->last_touch_ns.load(std::memory_order_relaxed) +
            config_.idle_timeout_ns;
        if (deadline > now_ns) {
          // Touched since it was armed: lazily re-arm at the real
          // deadline instead of relocating the node on every access.
          sh.wheel->schedule(e->timer, deadline);
          return;
        }
        remove_locked(sh, e, RemoveKind::kExpired);
      });
    } else if (config_.idle_timeout_ns > 0) {
      sh.wheel->reanchor(now_ns);
    }
    maybe_reclaim(sh, !sh.retired.empty());
  }
}

FlowStore::Entry* FlowStore::alloc_entry(Shard& sh) {
  if (sh.free_head == nullptr) {
    auto slab = std::make_unique<std::byte[]>(kSlabBytes);
    Entry* entries = slab_entries(slab.get());
    for (std::size_t i = 0; i < kSlabEntries; ++i) {
      Entry* e = new (&entries[i]) Entry();
      e->free_next = sh.free_head;
      sh.free_head = e;
    }
    sh.slabs.push_back(std::move(slab));
  }
  Entry* e = sh.free_head;
  sh.free_head = e->free_next;
  return e;
}

void FlowStore::maybe_reclaim(Shard& sh, bool force) {
  if (!force && sh.retired.size() < kReclaimBatch) return;
  if (sh.retired.empty()) return;
  const std::uint64_t horizon = domain_.reclaim_horizon();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < sh.retired.size(); ++i) {
    const Shard::Retired& r = sh.retired[i];
    if (r.epoch >= horizon) {
      sh.retired[keep++] = r;
      continue;
    }
    if (r.is_table) {
      delete static_cast<Table*>(r.ptr);
    } else {
      // Unreachable by every guard: recycle the slab slot; a later
      // insert re-initializes its payload in place.
      Entry* e = static_cast<Entry*>(r.ptr);
      e->free_next = sh.free_head;
      sh.free_head = e;
    }
  }
  sh.retired.resize(keep);
}

FlowStoreStats FlowStore::stats() const {
  FlowStoreStats s;
  s.live = live_.load(std::memory_order_relaxed);
  s.created = created_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.evicted = evicted_.load(std::memory_order_relaxed);
  s.resizes = resizes_.load(std::memory_order_relaxed);
  s.probe_len = probe_hist_.snapshot();
  return s;
}

}  // namespace eden::state
