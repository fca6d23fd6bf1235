// The baseline: single-threaded MCTS on one CPU core — the opponent every
// GPU player faces in the paper's Figures 5-8 ("a GPU Player is playing
// against one CPU core running sequential MCTS").
//
// Each iteration is mcts::iterate (select -> expand -> one playout ->
// backpropagate), which charges the virtual clock with the host cost
// model's tree-op cost plus the playout's measured ply count, grounding the
// calibrated ~10^4 iterations/second rate in actual playout lengths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "mcts/stats.hpp"
#include "mcts/tree.hpp"
#include "obs/trace.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::mcts {

template <game::Game G>
class SequentialSearcher final : public Searcher<G> {
 public:
  explicit SequentialSearcher(SearchConfig config = {},
                              simt::HostProperties host = simt::xeon_x5670(),
                              simt::CostModel cost = simt::default_cost_model())
      : config_(config), host_(host), cost_(cost), seed_(config.seed) {}

  using Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state, const SearchBudget& budget) override {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    StopCheck stop(budget);
    util::VirtualClock clock(host_.clock_hz);
    const std::uint64_t deadline = clock.to_cycles(budget.virtual_seconds);

    Tree<G> tree(state, config_, util::derive_seed(seed_, move_counter_));
    util::XorShift128Plus rng(util::derive_seed(seed_, move_counter_ ^ 0xfeedULL));
    ++move_counter_;

    stats_ = {};
    if (tracer_ != nullptr) {
      (void)tracer_->begin_search(name());
      tracer_->set_frequency(clock.frequency_hz());
      tracer_->begin(obs::Tracer::kHostTrack, "search", clock.cycles());
    }
    run_until(stop, clock, deadline, [&] {
      iterate<G>(tree, rng, clock, cost_, stats_, tracer_);
      stats_.rounds += 1;
    });

    stats_.stop_reason = stop.reason();
    stats_.tree_nodes = tree.node_count();
    stats_.max_depth = tree.max_depth();
    stats_.virtual_seconds = clock.seconds();
    if (tracer_ != nullptr) {
      tracer_->end(obs::Tracer::kHostTrack, "search", clock.cycles());
      tracer_->counter(obs::Tracer::kHostTrack, "iterations", clock.cycles(),
                       static_cast<double>(stats_.simulations));
      tracer_->metrics().counter("cpu_iterations").add(stats_.cpu_iterations);
    }
    return tree.best_move();
  }

  [[nodiscard]] const SearchStats& last_stats() const noexcept override {
    return stats_;
  }

  [[nodiscard]] std::string name() const override {
    return "sequential CPU (1 core)";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

  void set_tracer(obs::Tracer* tracer) noexcept override { tracer_ = tracer; }

 private:
  SearchConfig config_;
  simt::HostProperties host_;
  simt::CostModel cost_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
  SearchStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace gpu_mcts::mcts
