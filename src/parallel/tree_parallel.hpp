// Tree parallelism with virtual loss — the third classical scheme of the
// paper's reference [3] (Chaslot, Winands, van den Herik, "Parallel
// Monte-Carlo Tree Search", 2008). Not evaluated in the paper itself (it
// needs fine-grained synchronization that GPUs cannot provide, which is
// exactly why the paper proposes block parallelism instead); included here
// as the missing CPU baseline so the bench suite can compare all of
// leaf / root / tree / block on equal footing.
//
// Model: k virtual workers share ONE tree. Each round, every worker selects
// a leaf with *virtual losses* applied (each in-flight selection temporarily
// counts as a lost visit, pushing later workers toward different subtrees),
// then all playouts run concurrently (one iteration of wall time), then all
// results are backpropagated and the virtual losses removed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "mcts/tree.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel {

template <game::Game G>
class TreeParallelSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    int workers = 4;
    /// Visits temporarily charged per in-flight selection.
    std::uint32_t virtual_loss = 1;
  };

  TreeParallelSearcher(Options options, mcts::SearchConfig config = {},
                       simt::HostProperties host = simt::xeon_x5670(),
                       simt::CostModel cost = simt::default_cost_model())
      : options_(options),
        config_(config),
        host_(host),
        cost_(cost),
        seed_(config.seed) {
    util::expects(options.workers >= 1, "at least one worker");
  }

  using mcts::Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    mcts::StopCheck stop(budget);
    util::VirtualClock clock(host_.clock_hz);
    const std::uint64_t deadline = clock.to_cycles(budget.virtual_seconds);
    const std::uint64_t search_seed =
        util::derive_seed(seed_, move_counter_++);

    mcts::Tree<G> tree(state, config_, search_seed);
    util::XorShift128Plus rng(util::derive_seed(search_seed, 0x4eeULL));
    const auto workers = static_cast<std::size_t>(options_.workers);
    std::vector<mcts::Selection<G>> batch(workers);

    stats_ = {};
    // One round per step: the W selections are the batch the workers run
    // concurrently.
    mcts::run_until(stop, clock, deadline, [&] {
      // Phase 1: every worker selects with virtual losses in place, so the
      // batch spreads across the tree instead of piling on one leaf.
      for (std::size_t w = 0; w < workers; ++w) {
        batch[w] = tree.select();
        tree.apply_virtual_loss(batch[w].node, options_.virtual_loss);
      }
      // Phase 2+3: playouts run concurrently (one iteration of model time,
      // the whole point of tree parallelism), then sequential backprop.
      std::uint32_t max_plies = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        tree.remove_virtual_loss(batch[w].node, options_.virtual_loss);
        const mcts::PlayoutResult leaf = mcts::evaluate_leaf<G>(batch[w], rng);
        tree.backpropagate(batch[w].node, leaf.value_first, 1,
                           leaf.value_first * leaf.value_first);
        if (leaf.plies > max_plies) max_plies = leaf.plies;
        stats_.simulations += 1;
        stats_.cpu_iterations += 1;
      }
      // Workers are concurrent: charge the slowest playout once, plus the
      // serialized tree operations (selection needs the shared tree's lock).
      clock.advance(static_cast<std::uint64_t>(
          static_cast<double>(workers) * cost_.host_tree_op_cycles +
          cost_.host_cycles_per_ply * static_cast<double>(max_plies)));
      stats_.rounds += 1;
    });

    stats_.stop_reason = stop.reason();
    stats_.tree_nodes = tree.node_count();
    stats_.max_depth = tree.max_depth();
    stats_.virtual_seconds = clock.seconds();
    return tree.best_move();
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return stats_;
  }

  [[nodiscard]] std::string name() const override {
    return "tree-parallel CPU (" + std::to_string(options_.workers) +
           " workers, virtual loss " + std::to_string(options_.virtual_loss) +
           ")";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

 private:
  Options options_;
  mcts::SearchConfig config_;
  simt::HostProperties host_;
  simt::CostModel cost_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
  mcts::SearchStats stats_;
};

}  // namespace gpu_mcts::parallel
