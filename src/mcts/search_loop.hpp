// The one CPU search loop (DESIGN.md §12): what an MCTS iteration does,
// kept apart from how a scheme schedules it.
//
//  * StopCheck — the single cancel → wall-deadline check every scheme runs
//    at its round boundaries, with the latch that records which bound fired
//    first. The virtual budget stays each caller's own comparison, because
//    the schemes account virtual time differently (one clock, a clock per
//    tree, a shared spend counter).
//  * evaluate_leaf — a selected leaf's value: the exact outcome of a
//    terminal position, otherwise one uniformly random playout.
//  * iterate — one sequential iteration on a Tree: select, evaluate,
//    backpropagate, charge the host cost model.
//  * run_until — the do-while every loop shares: at least one step (the
//    anytime contract), then stop on a latched bound or the virtual
//    deadline (search_finished, also the served rounds' test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "game/game_traits.hpp"
#include "mcts/budget.hpp"
#include "mcts/playout.hpp"
#include "mcts/stats.hpp"
#include "mcts/tree.hpp"
#include "obs/trace.hpp"
#include "simt/cost_model.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"

namespace gpu_mcts::mcts {

/// The supervision bounds of one search: the budget's cancellation token,
/// an optional second token (the serving layer's), and the wall deadline,
/// measured from construction. The virtual budget is not checked here.
class StopCheck {
 public:
  explicit StopCheck(const SearchBudget& budget,
                     util::CancelToken* extra_cancel = nullptr)
      : cancel_(budget.cancel),
        extra_cancel_(extra_cancel),
        wall_ms_(budget.wall_ms) {}

  /// The bound that has fired right now, if any: the budget's token, then
  /// the extra token, then the wall deadline — an explicit cancel beats a
  /// deadline expiring in the same instant. Thread-safe; latches nothing.
  [[nodiscard]] std::optional<StopReason> poll() const {
    if ((cancel_ != nullptr && cancel_->cancelled()) ||
        (extra_cancel_ != nullptr && extra_cancel_->cancelled())) {
      return StopReason::kCancelled;
    }
    if (wall_ms_.has_value() && elapsed_ms() >= *wall_ms_) {
      return StopReason::kWallDeadline;
    }
    return std::nullopt;
  }

  /// Latching poll for the controlling thread: once a search decides to
  /// stop it never un-decides, and the first reason is kept.
  [[nodiscard]] bool should_stop() {
    if (!stopped_) {
      if (const std::optional<StopReason> reason = poll()) latch(*reason);
    }
    return stopped_;
  }

  /// Latches a reason the caller detected itself (tree saturation). A
  /// reason already latched wins.
  void latch(StopReason reason) noexcept {
    if (stopped_) return;
    stopped_ = true;
    reason_ = reason;
  }

  /// Whether a stop is latched, without polling the bounds again.
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// The latched reason; kBudget while nothing is latched.
  [[nodiscard]] StopReason reason() const noexcept { return reason_; }

  /// Wall time left before the deadline, never negative; infinite without
  /// a deadline. Clamps the hang watchdog on stream waits.
  [[nodiscard]] double remaining_wall_ms() const {
    if (!wall_ms_.has_value()) return std::numeric_limits<double>::infinity();
    return std::max(*wall_ms_ - elapsed_ms(), 0.0);
  }

 private:
  [[nodiscard]] double elapsed_ms() const {
    return wall_.elapsed_seconds() * 1000.0;
  }

  util::CancelToken* cancel_;
  util::CancelToken* extra_cancel_;
  std::optional<double> wall_ms_;
  util::WallTimer wall_;
  bool stopped_ = false;
  StopReason reason_ = StopReason::kBudget;
};

/// The value of a selected leaf for Player::kFirst and the plies played to
/// get it: a terminal leaf scores its exact outcome in zero plies and draws
/// nothing from `rng`.
template <game::Game G, typename Rng>
[[nodiscard]] PlayoutResult evaluate_leaf(const Selection<G>& sel, Rng& rng) {
  if (sel.terminal) {
    return {.value_first = game::value_of(
                G::outcome_for(sel.state, game::Player::kFirst)),
            .plies = 0};
  }
  return random_playout<G>(sel.state, rng);
}

/// One sequential MCTS iteration on `tree`: select, evaluate the leaf,
/// backpropagate, and charge one tree operation plus the playout's plies to
/// `clock`. Counts one simulation and CPU iteration; the caller counts
/// rounds, since what a round is depends on the scheme.
template <game::Game G, typename Rng>
void iterate(Tree<G>& tree, Rng& rng, util::VirtualClock& clock,
             const simt::CostModel& cost, SearchStats& stats,
             obs::Tracer* tracer) {
  const Selection<G> sel = tree.select();
  const PlayoutResult leaf = evaluate_leaf<G>(sel, rng);
  tree.backpropagate(sel.node, leaf.value_first, 1,
                     leaf.value_first * leaf.value_first);
  clock.advance(static_cast<std::uint64_t>(
      cost.host_tree_op_cycles +
      cost.host_cycles_per_ply * static_cast<double>(leaf.plies)));
  stats.simulations += 1;
  stats.cpu_iterations += 1;
  if (tracer != nullptr) {
    tracer->metrics().histogram("playout_plies").observe(leaf.plies);
  }
}

/// run_until's loop test: true once `stop` latches a bound or `clock`
/// reaches `deadline`. For callers that drive the steps themselves.
[[nodiscard]] inline bool search_finished(StopCheck& stop,
                                          const util::VirtualClock& clock,
                                          std::uint64_t deadline) {
  return stop.should_stop() || clock.cycles() >= deadline;
}

/// Runs `step` once, then again until search_finished. The first step is
/// unconditional, so even a search that starts cancelled or past its
/// deadline has a visited root.
template <typename Step>
void run_until(StopCheck& stop, const util::VirtualClock& clock,
               std::uint64_t deadline, Step&& step) {
  do {
    step();
  } while (!search_finished(stop, clock, deadline));
}

}  // namespace gpu_mcts::mcts
