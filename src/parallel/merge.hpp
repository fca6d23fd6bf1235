// Root-statistics merging: the aggregation step shared by root parallelism,
// block parallelism, and the distributed (multi-GPU) searcher — "the root
// node has to be updated by summing up results from all other trees processed
// in parallel" (paper §II.4).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/tree.hpp"
#include "util/check.hpp"

namespace gpu_mcts::parallel {

/// Accumulated statistics for one candidate root move across trees.
template <typename MoveT>
struct MergedMove {
  MoveT move{};
  std::uint64_t visits = 0;
  double wins = 0.0;
};

/// Sums per-tree root child statistics by move.
template <game::Game G>
[[nodiscard]] std::vector<MergedMove<typename G::Move>> merge_root_stats(
    const std::vector<std::vector<typename mcts::Tree<G>::RootChildStat>>&
        per_tree) {
  // Moves are small integers for every supported game; an ordered map keeps
  // the result deterministic.
  std::map<typename G::Move, MergedMove<typename G::Move>> acc;
  for (const auto& tree_stats : per_tree) {
    for (const auto& stat : tree_stats) {
      auto& slot = acc[stat.move];
      slot.move = stat.move;
      slot.visits += stat.visits;
      slot.wins += stat.wins;
    }
  }
  std::vector<MergedMove<typename G::Move>> out;
  out.reserve(acc.size());
  for (const auto& [move, merged] : acc) out.push_back(merged);
  return out;
}

/// Majority-vote winner: most total visits, win rate as tie-break.
///
/// Degenerate case: every merged move can carry zero visits — all GPU rounds
/// faulted before a single backpropagation and the deadline passed before
/// any CPU fallback iteration ran. There is no evidence to vote on, so the
/// fallback is *explicitly* the smallest move in the move ordering (for the
/// in-tree games, the lowest board square) — a deliberate, documented, and
/// deterministic choice rather than an accident of map iteration order.
template <typename MoveT>
[[nodiscard]] MoveT best_merged_move(
    const std::vector<MergedMove<MoveT>>& merged) {
  util::expects(!merged.empty(), "no root statistics to merge");
  bool any_visits = false;
  for (const auto& m : merged) any_visits = any_visits || m.visits > 0;
  if (!any_visits) {
    MoveT lowest = merged.front().move;
    for (const auto& m : merged) {
      if (m.move < lowest) lowest = m.move;
    }
    return lowest;
  }
  const MergedMove<MoveT>* best = &merged.front();
  for (const auto& m : merged) {
    const double rate_m =
        m.visits > 0 ? m.wins / static_cast<double>(m.visits) : 0.0;
    const double rate_b = best->visits > 0
                              ? best->wins / static_cast<double>(best->visits)
                              : 0.0;
    if (m.visits > best->visits ||
        (m.visits == best->visits && rate_m > rate_b)) {
      best = &m;
    }
  }
  return best->move;
}

}  // namespace gpu_mcts::parallel
