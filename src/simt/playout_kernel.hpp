// The Monte Carlo playout kernel — the only code the paper runs on the GPU
// ("the trees are still controlled by the CPU threads, GPU simulates only").
//
// Each lane receives its block's root state, plays uniformly random moves to
// the end of the game (one ply per SIMT step, so warp divergence reflects the
// spread of playout lengths), and accumulates (value, count) into its block's
// result slot. With one shared root this is leaf parallelism; with one root
// per block it is the paper's block parallelism.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "game/game_traits.hpp"
#include "simt/geometry.hpp"
#include "simt/kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::simt {

/// Per-block simulation tally, from the first player's (black's) perspective;
/// searchers convert to per-node perspective during backpropagation.
struct BlockResult {
  double value_first = 0.0;     ///< sum of playout values for player 0
  double value_sq_first = 0.0;  ///< sum of squared values (variance input)
  std::uint32_t simulations = 0;
  std::uint64_t total_plies = 0;
};

template <game::Game G>
class PlayoutKernel {
 public:
  struct LaneState {
    typename G::State state{};
    util::CounterRng rng{};
    std::int32_t plies = 0;
    std::uint8_t done = 0;
    float value_first = 0.5f;

    /// Lane-for-lane equality for the verify backend (available whenever
    /// the game's State is equality-comparable; deleted otherwise).
    friend constexpr bool operator==(const LaneState&,
                                     const LaneState&) = default;
  };

  /// @param roots one state per block, or a single state shared by every
  ///        block (leaf parallelism).
  /// @param seed  experiment seed; lanes derive independent streams from
  ///        (seed, global thread id, round) so repeated launches differ.
  PlayoutKernel(std::span<const typename G::State> roots, std::uint64_t seed,
                std::uint64_t round, std::span<BlockResult> results)
      : roots_(roots), results_(results), seed_(seed), round_(round) {
    util::expects(!roots.empty(), "kernel needs at least one root");
    util::expects(!results.empty(), "kernel needs result storage");
  }

  [[nodiscard]] LaneState make_lane(const LaneId& id) const {
    LaneState lane;
    const std::size_t root_index =
        roots_.size() == 1 ? 0 : static_cast<std::size_t>(id.block);
    lane.state = roots_[root_index];
    lane.rng = util::CounterRng(
        seed_, (round_ << 24) ^ static_cast<std::uint64_t>(id.global_thread));
    return lane;
  }

  [[nodiscard]] bool lane_step(LaneState& lane) const {
    if (lane.done) return false;
    if constexpr (requires(typename G::State& s, util::CounterRng& r) {
                    G::playout_step(s, r);
                  }) {
      if (G::playout_step(lane.state, lane.rng)) {
        lane.plies += 1;
        return true;
      }
    } else {
      // Deliberately not value-initialized: legal_moves overwrites the
      // first n slots and only moves[pick] (pick < n) is read, so zeroing
      // kMaxMoves entries every ply is pure waste in the hot loop.
      std::array<typename G::Move, static_cast<std::size_t>(G::kMaxMoves)>
          moves;
      const int n = G::legal_moves(lane.state, std::span(moves));
      if (n > 0) {
        const auto pick = lane.rng.next_below(static_cast<std::uint32_t>(n));
        lane.state = G::apply(lane.state, moves[pick]);
        lane.plies += 1;
        return true;
      }
    }
    lane.value_first = static_cast<float>(game::value_of(
        G::outcome_for(lane.state, game::Player::kFirst)));
    lane.done = 1;
    return false;
  }

  void lane_finish(const LaneState& lane, const LaneId& id) {
    BlockResult sum;
    tally(sum, lane.value_first, lane.plies);
    commit(id.block, sum);
  }

 protected:
  /// Adds one retired lane to a local tally.
  static void tally(BlockResult& sum, float value_first,
                    std::int32_t plies) noexcept {
    const double v = static_cast<double>(value_first);
    sum.value_first += v;
    sum.value_sq_first += v * v;
    sum.simulations += 1;
    sum.total_plies += static_cast<std::uint64_t>(plies);
  }

  /// Adds a tally into `block`'s result slot. Blocks finish concurrently
  /// and in no fixed order (kernel.hpp), and under leaf parallelism every
  /// block shares one slot, so each field is added atomically. The order
  /// cannot show in the result: every playout value is 0, 0.5 or 1 and
  /// every square 0, 0.25 or 1, so each partial sum is a multiple of 1/4
  /// below 2^51 and exact in a double — the slot ends with the same bits
  /// whichever block commits first.
  void commit(std::int32_t block, const BlockResult& sum) noexcept {
    BlockResult& r =
        results_[results_.size() == 1 ? 0 : static_cast<std::size_t>(block)];
    std::atomic_ref(r.value_first)
        .fetch_add(sum.value_first, std::memory_order_relaxed);
    std::atomic_ref(r.value_sq_first)
        .fetch_add(sum.value_sq_first, std::memory_order_relaxed);
    std::atomic_ref(r.simulations)
        .fetch_add(sum.simulations, std::memory_order_relaxed);
    std::atomic_ref(r.total_plies)
        .fetch_add(sum.total_plies, std::memory_order_relaxed);
  }

 private:
  std::span<const typename G::State> roots_;
  std::span<BlockResult> results_;
  std::uint64_t seed_;
  std::uint64_t round_;
};

/// Games a PlayoutKernel can execute warp-batched: the game's batched
/// traits must accept the kernel's per-lane CounterRng streams.
template <typename G>
concept BatchedPlayoutGame =
    game::Game<G> && game::BatchedGameWith<G, util::CounterRng>;

/// Warp-batched playout kernel (DESIGN.md §17): the same per-lane protocol
/// as PlayoutKernel — it *is* one, and falls back to it wherever the
/// executor runs scalar — plus the WarpKernel extension that advances all
/// lanes of a warp through the game's SoA batched step. Bit-identical to
/// the scalar path by construction: lanes are seeded via make_lane, each
/// lane draws from its own stream in the scalar order, and warp_finish
/// commits the same exact tally lane_finish would.
template <game::Game G>
  requires BatchedPlayoutGame<G>
class WarpPlayoutKernel : public PlayoutKernel<G> {
 public:
  using Base = PlayoutKernel<G>;
  using LaneState = typename Base::LaneState;
  using Batched = typename G::Batched;
  static constexpr int kWarpWidth = Batched::kWidth;

  using Base::Base;

  struct WarpState {
    typename Batched::Lanes lanes;
    util::CounterRng rng[kWarpWidth];
    std::int32_t plies[kWarpWidth];
    float value_first[kWarpWidth];
    std::uint32_t active = 0;
    std::int32_t lane_count = 0;
  };

  [[nodiscard]] WarpState make_warp(const WarpSpan& span) const {
    WarpState w{};  // zero-fill: dead lanes hold benign empty boards
    w.lane_count = span.lanes;
    w.active = span.lanes >= 32 ? ~0u : (1u << span.lanes) - 1u;
    for (int i = 0; i < span.lanes; ++i) {
      const LaneState lane = this->make_lane(lane_id_at(span, i));
      Batched::load(w.lanes, i, lane.state);
      w.rng[i] = lane.rng;
      w.value_first[i] = 0.5f;
    }
    return w;
  }

  /// One lockstep step. Returns the entry mask: exactly the lanes the
  /// scalar executor would have counted active this pass (a lane's final
  /// step — where it discovers the game is over — is included, matching
  /// the scalar loop, which charges the step on which lane_step returns
  /// false).
  [[nodiscard]] std::uint32_t warp_step(WarpState& w) const {
    const std::uint32_t entry = w.active;
    if (entry == 0) return 0;
    const std::uint32_t advanced = Batched::step(w.lanes, entry, w.rng);
    for (std::uint32_t f = entry & ~advanced; f != 0; f &= f - 1) {
      const int lane = std::countr_zero(f);
      w.value_first[lane] = static_cast<float>(game::value_of(G::outcome_for(
          Batched::extract(w.lanes, lane), game::Player::kFirst)));
    }
    for (std::uint32_t a = advanced; a != 0; a &= a - 1) {
      w.plies[std::countr_zero(a)] += 1;
    }
    w.active = advanced;
    return entry;
  }

  /// Sums the warp's lanes into a local tally, then commits it once: the
  /// same exact sums the scalar path's lane_finish loop reaches (see
  /// commit), with four atomic adds per warp instead of four per lane.
  void warp_finish(const WarpState& w, const WarpSpan& span) {
    BlockResult sum;
    for (int i = 0; i < w.lane_count; ++i) {
      Base::tally(sum, w.value_first[i], w.plies[i]);
    }
    this->commit(span.first.block, sum);
  }

  [[nodiscard]] LaneState lane_state_of(const WarpState& w, int lane) const {
    LaneState s;
    s.state = Batched::extract(w.lanes, lane);
    s.rng = w.rng[lane];
    s.plies = w.plies[lane];
    s.done = ((w.active >> lane) & 1u) != 0 ? 0 : 1;
    s.value_first = w.value_first[lane];
    return s;
  }
};

namespace detail {
template <game::Game G>
struct PlayoutKernelSelect {
  using type = PlayoutKernel<G>;
};
template <game::Game G>
  requires BatchedPlayoutGame<G>
struct PlayoutKernelSelect<G> {
  using type = WarpPlayoutKernel<G>;
};
}  // namespace detail

/// The playout kernel drivers instantiate: warp-batched when the game
/// provides batched traits, the scalar protocol otherwise. Both satisfy
/// LaneKernel with identical constructors and per-lane semantics, so the
/// choice never changes results — only how fast warps execute.
template <game::Game G>
using PlayoutKernelFor = typename detail::PlayoutKernelSelect<G>::type;

}  // namespace gpu_mcts::simt
