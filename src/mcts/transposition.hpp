// TranspositionTable: a sharded, lock-free cache of position statistics
// keyed by Game::hash, shared by every tree of a search (and, in the
// serving layer, by every session of a service). DESIGN.md §16.
//
// The paper's trees are transposition-blind: identical positions reached in
// different trees, sessions, or games re-learn their statistics from
// scratch. This table closes that gap as a *cache*, never as the source of
// truth — authoritative statistics stay in the trees; the table seeds
// freshly expanded children with prior (visits, wins) and a best-move hint,
// and backpropagation feeds per-simulation deltas back. Losing an update
// under contention therefore costs a little information, never correctness.
//
// Lock-free entry protocol (the classic XOR-validation scheme, cf. Hyatt's
// "Lockless Transposition Table" as used by Crafty/Stockfish): an entry is
// two relaxed/acq-rel 64-bit atomics,
//     check = key ^ data          data = packed statistics
// A reader accepts an entry only when check ^ data reproduces the probed
// key. A torn pair — reader interleaving with a writer, or two writers
// racing — fails validation and reads as a miss; a racing double-update
// loses one delta. Both degrade hit-rate, neither corrupts a result.
//
// Packing (64 bits): visits:24 | wins_half:25 | move_hint:8 | epoch:4.
// Wins are fixed-point half-points (win = 2, draw = 1, loss = 0), the same
// convention as ConcurrentTree::Node::wins_half, so draw-heavy workloads
// accumulate exactly; 25 bits hold 2 x the 24-bit visit cap, so the
// half-point total round-trips exactly until visits saturate (then the
// entry freezes rather than truncating).
//
// Sharding: the top key bits select a shard (an independent open-addressed
// sub-table with its own slot mask), the low bits the slot; a small linear
// probe window handles collisions. Replacement prefers, in order: an empty
// slot, the shallowest stale-epoch entry, then the shallowest current
// entry — and the shallowest incumbent is only displaced by at least as
// many visits ("replace shallower"). bump_epoch() (called once per move
// decision by the owning searcher) ages every entry logically in O(1).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "util/check.hpp"

namespace gpu_mcts::mcts {

class TranspositionTable {
 public:
  /// Saturation caps of the packed fields. wins_half's cap is 2 x the
  /// visit cap, so any legal half-point total fits while visits do.
  static constexpr std::uint32_t kMaxVisits = (1u << 24) - 1;
  static constexpr std::uint64_t kMaxWinsHalf = (1ull << 25) - 1;
  /// Move hints are a single byte (every built-in game's Move fits); this
  /// value means "no hint".
  static constexpr std::uint8_t kNoHint = 0xff;
  /// Linear probe window per shard (clamped to the shard size).
  static constexpr std::size_t kProbeWindow = 4;
  static constexpr std::uint8_t kEpochMask = 0x0f;

  /// A validated read: statistics for the *side to move* at the keyed
  /// position (wins in half-points), plus the best-move hint byte.
  struct View {
    std::uint32_t visits = 0;
    std::uint64_t wins_half = 0;
    std::uint8_t move_hint = kNoHint;
    std::uint8_t epoch = 0;
  };

  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t stores = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /// Stores dropped because every window slot held a deeper, current
    /// entry (the replace-shallower policy refusing to thrash).
    std::uint64_t dropped = 0;

    [[nodiscard]] double hit_rate() const noexcept {
      return probes > 0 ? static_cast<double>(hits) /
                              static_cast<double>(probes)
                        : 0.0;
    }
  };

  /// Entries occupying `mb` megabytes (16 bytes per entry).
  [[nodiscard]] static constexpr std::size_t entries_for_megabytes(
      int mb) noexcept {
    return static_cast<std::size_t>(mb) * (1024 * 1024 / sizeof(Entry));
  }

  /// A table of at least `min_entries` slots. Geometry: shard and per-shard
  /// slot counts are rounded to powers of two (tiny tables collapse to one
  /// shard so adversarial 2-entry tests exercise eviction directly).
  explicit TranspositionTable(std::size_t min_entries) {
    util::expects(min_entries >= 1, "transposition table holds an entry");
    shards_ = 1;
    while (shards_ < 16 && (min_entries / (shards_ * 2)) >= 64) shards_ *= 2;
    std::size_t per_shard = 1;
    while (per_shard * 2 * shards_ <= min_entries) per_shard *= 2;
    slots_per_shard_ = per_shard;
    window_ = kProbeWindow < per_shard ? kProbeWindow : per_shard;
    entries_ = allocate_entries(shards_ * slots_per_shard_);
  }

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  // -- packing -----------------------------------------------------------
  // Exposed so tests can pin the half-point round-trip at the entry
  // boundary without going through the atomics.

  [[nodiscard]] static constexpr std::uint64_t pack(
      std::uint32_t visits, std::uint64_t wins_half, std::uint8_t move_hint,
      std::uint8_t epoch) noexcept {
    return static_cast<std::uint64_t>(visits & kMaxVisits) |
           ((wins_half & kMaxWinsHalf) << 24) |
           (static_cast<std::uint64_t>(move_hint) << 49) |
           (static_cast<std::uint64_t>(epoch & kEpochMask) << 57);
  }

  [[nodiscard]] static constexpr View unpack(std::uint64_t data) noexcept {
    View v;
    v.visits = static_cast<std::uint32_t>(data & kMaxVisits);
    v.wins_half = (data >> 24) & kMaxWinsHalf;
    v.move_hint = static_cast<std::uint8_t>(data >> 49);
    v.epoch = static_cast<std::uint8_t>((data >> 57) & kEpochMask);
    return v;
  }

  // -- the lock-free hot path --------------------------------------------

  /// Validated lookup. A hit returns the entry regardless of its epoch —
  /// prior-move statistics are exactly the cross-move reuse the table
  /// exists for; the epoch only steers replacement.
  [[nodiscard]] std::optional<View> probe(std::uint64_t key) const {
    key = sanitize(key);
    stats_probes_.fetch_add(1, std::memory_order_relaxed);
    const Entry* shard = shard_for(key);
    const std::size_t base = slot_for(key);
    for (std::size_t i = 0; i < window_; ++i) {
      const Entry& e = shard[(base + i) & (slots_per_shard_ - 1)];
      const std::uint64_t check = e.check.load(std::memory_order_acquire);
      const std::uint64_t data = e.data.load(std::memory_order_relaxed);
      if ((check ^ data) == key) {
        stats_hits_.fetch_add(1, std::memory_order_relaxed);
        return unpack(data);
      }
    }
    return std::nullopt;
  }

  /// Accumulates a delta into the keyed entry (visits += delta_visits,
  /// wins_half += delta_wins_half, from the perspective of the side to move
  /// at the keyed position), refreshing its epoch and — when `move_hint` is
  /// not kNoHint — its best-move hint. Inserts (possibly evicting, see the
  /// replacement order above) when the key is absent. Safe from any number
  /// of threads; racing writers may lose a delta, never corrupt an entry.
  /// Only shared:W stores concurrently: the GPU cohort schemes and the
  /// service backpropagate on one thread in tree order (DESIGN.md §9.2),
  /// so their stores and evictions are the same at every exec thread count.
  void store(std::uint64_t key, std::uint32_t delta_visits,
             std::uint64_t delta_wins_half,
             std::uint8_t move_hint = kNoHint) {
    key = sanitize(key);
    stats_stores_.fetch_add(1, std::memory_order_relaxed);
    const std::uint8_t now = epoch_.load(std::memory_order_relaxed);
    Entry* shard = shard_for_mutable(key);
    const std::size_t base = slot_for(key);

    // Pass 1: accumulate into an existing entry for this key.
    for (std::size_t i = 0; i < window_; ++i) {
      Entry& e = shard[(base + i) & (slots_per_shard_ - 1)];
      const std::uint64_t check = e.check.load(std::memory_order_acquire);
      const std::uint64_t data = e.data.load(std::memory_order_relaxed);
      if ((check ^ data) != key) continue;
      View v = unpack(data);
      if (v.visits < kMaxVisits) {  // saturated entries freeze, not truncate
        v.visits = saturate_visits(v.visits, delta_visits);
        v.wins_half = saturate_wins(v.wins_half, delta_wins_half);
      }
      if (move_hint != kNoHint) v.move_hint = move_hint;
      publish(e, key, pack(v.visits, v.wins_half, v.move_hint, now));
      return;
    }

    // Pass 2: insert. Victim preference: empty, then shallowest stale,
    // then shallowest current (displaced only by >= visits).
    Entry* victim = nullptr;
    bool victim_stale = false;
    std::uint32_t victim_visits = 0;
    bool victim_empty = false;
    for (std::size_t i = 0; i < window_; ++i) {
      Entry& e = shard[(base + i) & (slots_per_shard_ - 1)];
      const std::uint64_t check = e.check.load(std::memory_order_acquire);
      const std::uint64_t data = e.data.load(std::memory_order_relaxed);
      if (check == 0 && data == 0) {
        victim = &e;
        victim_empty = true;
        break;
      }
      const View v = unpack(data);
      const bool stale = v.epoch != now;
      const bool better =
          victim == nullptr ||
          (stale && !victim_stale) ||
          (stale == victim_stale && v.visits < victim_visits);
      if (better) {
        victim = &e;
        victim_stale = stale;
        victim_visits = v.visits;
      }
    }
    const std::uint32_t visits =
        delta_visits < kMaxVisits ? delta_visits : kMaxVisits;
    const std::uint64_t wins =
        delta_wins_half < kMaxWinsHalf ? delta_wins_half : kMaxWinsHalf;
    if (victim_empty) {
      stats_inserts_.fetch_add(1, std::memory_order_relaxed);
    } else if (victim_stale || victim_visits <= visits) {
      stats_inserts_.fetch_add(1, std::memory_order_relaxed);
      stats_evictions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // every incumbent is current and deeper: keep them
    }
    publish(*victim, key, pack(visits, wins, move_hint, now));
  }

  /// Advances the aging epoch (mod 16). Called once per move decision by
  /// the table's owner; entries written under previous epochs become
  /// replacement-preferred but stay probe-able.
  void bump_epoch() noexcept {
    epoch_.store(
        static_cast<std::uint8_t>(
            (epoch_.load(std::memory_order_relaxed) + 1) & kEpochMask),
        std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint8_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return shards_ * slots_per_shard_;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }

  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    s.probes = stats_probes_.load(std::memory_order_relaxed);
    s.hits = stats_hits_.load(std::memory_order_relaxed);
    s.stores = stats_stores_.load(std::memory_order_relaxed);
    s.inserts = stats_inserts_.load(std::memory_order_relaxed);
    s.evictions = stats_evictions_.load(std::memory_order_relaxed);
    s.dropped = stats_dropped_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    std::atomic<std::uint64_t> check{0};
    std::atomic<std::uint64_t> data{0};
  };
  static_assert(sizeof(Entry) == 16, "two-word lock-free entry");
  static_assert(std::is_trivially_destructible_v<Entry>,
                "entries are freed without running destructors");

  /// On Linux the entries start on a 2 MiB boundary and are advised as
  /// transparent huge pages before they are zeroed, so a 64 MB table
  /// faults in 32 pages instead of 16,384; elsewhere the alignment is
  /// plain.
#if defined(__linux__)
  static constexpr std::size_t kEntriesAlignment = std::size_t{2} << 20;
#else
  static constexpr std::size_t kEntriesAlignment = alignof(Entry);
#endif

  struct FreeEntries {
    void operator()(Entry* entries) const noexcept {
      ::operator delete(entries, std::align_val_t{kEntriesAlignment});
    }
  };

  static std::unique_ptr<Entry[], FreeEntries> allocate_entries(
      std::size_t count) {
    const std::size_t bytes = count * sizeof(Entry);
    void* raw = ::operator new(bytes, std::align_val_t{kEntriesAlignment});
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // Advice only: where huge pages are unavailable the table still works.
    (void)::madvise(raw, bytes, MADV_HUGEPAGE);
#endif
    std::uninitialized_value_construct_n(static_cast<Entry*>(raw), count);
    return std::unique_ptr<Entry[], FreeEntries>(static_cast<Entry*>(raw));
  }

  /// Key 0 would collide with the empty-slot encoding (check == data == 0
  /// validates key 0); remap it to an arbitrary fixed odd constant.
  [[nodiscard]] static constexpr std::uint64_t sanitize(
      std::uint64_t key) noexcept {
    return key != 0 ? key : 0x9e3779b97f4a7c15ULL;
  }

  [[nodiscard]] static constexpr std::uint32_t saturate_visits(
      std::uint32_t v, std::uint32_t d) noexcept {
    const std::uint64_t sum = static_cast<std::uint64_t>(v) + d;
    return sum < kMaxVisits ? static_cast<std::uint32_t>(sum) : kMaxVisits;
  }

  [[nodiscard]] static constexpr std::uint64_t saturate_wins(
      std::uint64_t w, std::uint64_t d) noexcept {
    const std::uint64_t sum = w + d;
    return sum < kMaxWinsHalf && sum >= w ? sum : kMaxWinsHalf;
  }

  /// Writer publication order: data first (relaxed), then the matching
  /// check with release. A reader that acquires the new check sees the new
  /// data or fails validation — never a silently mixed pair.
  static void publish(Entry& e, std::uint64_t key,
                      std::uint64_t data) noexcept {
    e.data.store(data, std::memory_order_relaxed);
    e.check.store(key ^ data, std::memory_order_release);
  }

  /// Top bits pick the shard, low bits the slot — independent streams of a
  /// well-mixed 64-bit key.
  [[nodiscard]] const Entry* shard_for(std::uint64_t key) const noexcept {
    return entries_.get() + ((key >> 58) & (shards_ - 1)) * slots_per_shard_;
  }
  [[nodiscard]] Entry* shard_for_mutable(std::uint64_t key) noexcept {
    return entries_.get() + ((key >> 58) & (shards_ - 1)) * slots_per_shard_;
  }
  [[nodiscard]] std::size_t slot_for(std::uint64_t key) const noexcept {
    return key & (slots_per_shard_ - 1);
  }

  std::size_t shards_ = 1;
  std::size_t slots_per_shard_ = 1;
  std::size_t window_ = 1;
  std::unique_ptr<Entry[], FreeEntries> entries_;
  std::atomic<std::uint8_t> epoch_{0};
  mutable std::atomic<std::uint64_t> stats_probes_{0};
  mutable std::atomic<std::uint64_t> stats_hits_{0};
  std::atomic<std::uint64_t> stats_stores_{0};
  std::atomic<std::uint64_t> stats_inserts_{0};
  std::atomic<std::uint64_t> stats_evictions_{0};
  std::atomic<std::uint64_t> stats_dropped_{0};
};

}  // namespace gpu_mcts::mcts
