// Root parallelism — the CPU scheme the paper scales to thousands of threads
// in its prior work [4] and uses as the baseline of Figure 7: n threads build
// n independent trees for the full move budget, then vote by summed root
// visits.
//
// Execution model: each virtual CPU thread runs the complete budget on its
// own virtual clock (they are concurrent in model time), so `n` threads do
// n x (rate x budget) simulations total regardless of host core count. The
// trees are searched one after another on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "mcts/tree.hpp"
#include "obs/trace.hpp"
#include "parallel/merge.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel {

template <game::Game G>
class RootParallelSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    int threads = 2;
  };

  RootParallelSearcher(Options options, mcts::SearchConfig config = {},
                       simt::HostProperties host = simt::xeon_x5670(),
                       simt::CostModel cost = simt::default_cost_model())
      : options_(options),
        config_(config),
        host_(host),
        cost_(cost),
        seed_(config.seed) {
    util::expects(options.threads >= 1, "at least one root-parallel thread");
  }

  using mcts::Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    const auto n = static_cast<std::size_t>(options_.threads);
    std::vector<std::vector<typename mcts::Tree<G>::RootChildStat>> stats(n);
    std::vector<mcts::SearchStats> per_tree(n);
    // One stop check for every tree: they are concurrent in model time, so
    // the wall deadline runs from the start of the move. Once one tree
    // latches a bound, the rest each run their one guaranteed iteration.
    mcts::StopCheck stop(budget);

    for (std::size_t t = 0; t < n; ++t) {
      const std::uint64_t tree_seed =
          util::derive_seed(seed_, (move_counter_ << 16) ^ t);
      mcts::Tree<G> tree(state, config_, tree_seed);
      util::XorShift128Plus rng(util::derive_seed(tree_seed, 0x9a10ULL));
      util::VirtualClock clock(host_.clock_hz);
      const std::uint64_t deadline = clock.to_cycles(budget.virtual_seconds);
      mcts::SearchStats& s = per_tree[t];
      mcts::run_until(stop, clock, deadline, [&] {
        mcts::iterate<G>(tree, rng, clock, cost_, s, nullptr);
        s.rounds += 1;
      });
      s.tree_nodes = tree.node_count();
      s.max_depth = tree.max_depth();
      s.virtual_seconds = clock.seconds();
      stats[t] = tree.root_child_stats();
    }
    ++move_counter_;

    stats_ = {};
    for (const auto& s : per_tree) {
      stats_.simulations += s.simulations;
      stats_.rounds += s.rounds;
      stats_.cpu_iterations += s.cpu_iterations;
      stats_.tree_nodes += s.tree_nodes;
      if (s.max_depth > stats_.max_depth) stats_.max_depth = s.max_depth;
      // Threads are concurrent in model time: elapsed = max over trees.
      if (s.virtual_seconds > stats_.virtual_seconds)
        stats_.virtual_seconds = s.virtual_seconds;
    }
    stats_.stop_reason = stop.reason();

    if (tracer_ != nullptr) {
      // Trees are concurrent in model time but searched one after another,
      // so their spans are emitted here, post-hoc, from the per-tree stats.
      (void)tracer_->begin_search(name());
      tracer_->set_frequency(host_.clock_hz);
      for (std::size_t t = 0; t < n; ++t) {
        const int track = tracer_->track("tree" + std::to_string(t));
        const auto end_cycle = static_cast<std::uint64_t>(
            per_tree[t].virtual_seconds * host_.clock_hz);
        tracer_->begin(track, "tree_search", 0,
                       {{"simulations",
                         static_cast<double>(per_tree[t].simulations)},
                        {"nodes",
                         static_cast<double>(per_tree[t].tree_nodes)}});
        tracer_->end(track, "tree_search", end_cycle);
      }
      tracer_->metrics().counter("cpu_iterations").add(stats_.cpu_iterations);
    }

    const auto merged = merge_root_stats<G>(stats);
    return best_merged_move(merged);
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return stats_;
  }

  [[nodiscard]] std::string name() const override {
    return "root-parallel CPU (" + std::to_string(options_.threads) +
           " threads)";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

  void set_tracer(obs::Tracer* tracer) noexcept override { tracer_ = tracer; }

 private:
  Options options_;
  mcts::SearchConfig config_;
  simt::HostProperties host_;
  simt::CostModel cost_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
  mcts::SearchStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace gpu_mcts::parallel
