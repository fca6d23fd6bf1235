// Flat Monte Carlo search: no tree at all — distribute the budget's playouts
// uniformly over the root moves and play the best sample mean. The classic
// pre-MCTS baseline; included so the benches can show what the *tree* part
// of MCTS buys (the paper motivates MCTS over plain random simulation in
// §I-II).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::mcts {

template <game::Game G>
class FlatMonteCarloSearcher final : public Searcher<G> {
 public:
  explicit FlatMonteCarloSearcher(
      SearchConfig config = {},
      simt::HostProperties host = simt::xeon_x5670(),
      simt::CostModel cost = simt::default_cost_model())
      : config_(config), host_(host), cost_(cost), seed_(config.seed) {}

  using Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const SearchBudget& budget) override {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    StopCheck stop(budget);
    util::VirtualClock clock(host_.clock_hz);
    const std::uint64_t deadline = clock.to_cycles(budget.virtual_seconds);
    util::XorShift128Plus rng(util::derive_seed(seed_, move_counter_++));

    std::array<typename G::Move, static_cast<std::size_t>(G::kMaxMoves)>
        moves{};
    const int n = G::legal_moves(state, std::span(moves));
    util::check(n > 0, "non-terminal state has moves");

    std::array<double, static_cast<std::size_t>(G::kMaxMoves)> value_sum{};
    std::array<std::uint64_t, static_cast<std::size_t>(G::kMaxMoves)>
        visits{};

    const game::Player mover = G::player_to_move(state);
    stats_ = {};
    int cursor = 0;
    run_until(stop, clock, deadline, [&] {
      const int i = cursor;
      cursor = (cursor + 1) % n;  // round-robin: uniform allocation
      const typename G::State child = G::apply(state, moves[i]);
      const PlayoutResult leaf = evaluate_leaf<G>(
          Selection<G>{.state = child, .terminal = G::is_terminal(child)},
          rng);
      value_sum[i] += mover == game::Player::kFirst ? leaf.value_first
                                                    : 1.0 - leaf.value_first;
      visits[i] += 1;
      clock.advance(static_cast<std::uint64_t>(
          cost_.host_cycles_per_ply * static_cast<double>(leaf.plies) +
          cost_.host_tree_op_cycles / 4.0));  // no tree: cheaper bookkeeping
      stats_.simulations += 1;
      stats_.rounds += 1;
      stats_.cpu_iterations += 1;
    });
    stats_.stop_reason = stop.reason();

    int best = 0;
    for (int i = 1; i < n; ++i) {
      const double rate_i =
          visits[i] > 0 ? value_sum[i] / static_cast<double>(visits[i]) : 0.0;
      const double rate_b =
          visits[best] > 0
              ? value_sum[best] / static_cast<double>(visits[best])
              : 0.0;
      if (rate_i > rate_b) best = i;
    }

    stats_.tree_nodes = static_cast<std::uint64_t>(n) + 1;
    stats_.max_depth = 1;
    stats_.virtual_seconds = clock.seconds();
    return moves[best];
  }

  [[nodiscard]] const SearchStats& last_stats() const noexcept override {
    return stats_;
  }

  [[nodiscard]] std::string name() const override {
    return "flat Monte Carlo (1 core)";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

 private:
  SearchConfig config_;
  simt::HostProperties host_;
  simt::CostModel cost_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
  SearchStats stats_;
};

}  // namespace gpu_mcts::mcts
