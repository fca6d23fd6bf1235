// Shared-tree parallelism on real host threads — N workers run the full
// select → expand → playout → backprop loop concurrently against one
// ConcurrentTree. This is the scheme the paper's §II dismisses for
// 2011-era GPUs ("fine-grained synchronization" was unavailable) built the
// modern way on the CPU side: atomic node statistics, per-node expansion
// latches, and virtual loss / WU-UCT to keep concurrent selections from
// piling onto one leaf. The modeled TreeParallelSearcher (tree:W) remains
// the deterministic single-threaded reference; this searcher trades that
// determinism (at workers > 1) for actual wall-clock scaling, which
// bench/ablation_shared_tree.cpp measures.
//
// Supervision contract: every worker polls the shared mcts::StopCheck
// (cancel token → wall deadline), then the virtual budget, at its round
// boundary; the first stop reason wins (a lock-free CAS latch), and every
// worker completes at least one simulation before checking — preserving
// the anytime guarantee even under a pre-cancelled token.
//
// Virtual-time accounting: each worker charges its own tree-op + playout
// cycles to a shared counter; the search stops once the *sum* reaches
// workers x budget, modeling the N-way concurrency (each worker burns its
// own core). Reported virtual_seconds is the per-worker share, so at equal
// virtual budget shared:N completes ~N times the simulations of seq —
// the same convention the other parallel schemes use.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "game/game_traits.hpp"
#include "mcts/concurrent_tree.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gpu_mcts::parallel {

template <game::Game G>
class SharedTreeSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    /// Host threads mutating the shared tree concurrently.
    int workers = 4;
    /// Visits each in-flight selection counts for under classic virtual
    /// loss. Ignored when wu_uct is set (the in-flight count then feeds
    /// the exploration term instead of the mean).
    std::uint32_t virtual_loss = 1;
    /// Use the WU-UCT bound (PAPERS.md, "Watch the Unobserved") instead of
    /// virtual-loss-adjusted UCB1.
    bool wu_uct = false;
  };

  SharedTreeSearcher(Options options, mcts::SearchConfig config = {},
                     simt::HostProperties host = simt::xeon_x5670(),
                     simt::CostModel cost = simt::default_cost_model())
      : options_(options),
        config_(config),
        host_(host),
        cost_(cost),
        seed_(config.seed),
        pool_(static_cast<std::size_t>(
            options.workers >= 1 ? options.workers : 1)) {
    util::expects(options.workers >= 1, "at least one worker");
  }

  using mcts::Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    const mcts::StopCheck stop_check(budget);
    const util::VirtualClock clock(host_.clock_hz);
    // Sum-over-workers cycle budget; compared in double so a huge virtual
    // budget times the worker count cannot wrap uint64.
    const double total_budget_cycles =
        static_cast<double>(clock.to_cycles(budget.virtual_seconds)) *
        static_cast<double>(options_.workers);
    const std::uint64_t search_seed =
        util::derive_seed(seed_, move_counter_++);

    mcts::ConcurrentTree<G> tree(state, config_, options_.virtual_loss,
                                 options_.wu_uct);
    std::atomic<std::uint64_t> spent_cycles{0};
    std::atomic<std::uint64_t> simulations{0};
    std::atomic<bool> stop{false};
    std::atomic<int> first_reason{-1};

    // First thread to observe a stop condition wins the attribution; the
    // release store of `stop` is what the other workers acquire.
    const auto signal_stop = [&](mcts::StopReason reason) {
      int expected = -1;
      first_reason.compare_exchange_strong(expected,
                                           static_cast<int>(reason),
                                           std::memory_order_relaxed);
      stop.store(true, std::memory_order_release);
    };

    pool_.parallel_for(
        static_cast<std::size_t>(options_.workers), [&](std::size_t w) {
          util::XorShift128Plus rng(
              util::derive_seed(search_seed, 0x5a11ULL + w));
          do {
            const mcts::Selection<G> sel = tree.select(rng);
            const mcts::PlayoutResult leaf = mcts::evaluate_leaf<G>(sel, rng);
            tree.backpropagate(sel.node, leaf.value_first);
            simulations.fetch_add(1, std::memory_order_relaxed);
            const auto charge = static_cast<std::uint64_t>(
                cost_.host_tree_op_cycles +
                cost_.host_cycles_per_ply * static_cast<double>(leaf.plies));
            const std::uint64_t spent =
                spent_cycles.fetch_add(charge, std::memory_order_relaxed) +
                charge;
            // Round-boundary supervision: the shared stop check's bounds,
            // then this worker's view of the summed virtual budget.
            if (const std::optional<mcts::StopReason> reason =
                    stop_check.poll()) {
              signal_stop(*reason);
              break;
            }
            if (static_cast<double>(spent) >= total_budget_cycles) {
              signal_stop(mcts::StopReason::kBudget);
              break;
            }
          } while (!stop.load(std::memory_order_acquire));
        });

#ifdef GPU_MCTS_SANITIZE_ENABLED
    util::check(tree.outstanding_losses() == 0,
                "in-flight selections all backpropagated after join");
#endif
    stats_ = {};
    const std::uint64_t sims = simulations.load(std::memory_order_relaxed);
    stats_.simulations = sims;
    stats_.rounds = sims;
    stats_.cpu_iterations = sims;
    stats_.tree_nodes = tree.node_count();
    stats_.max_depth = tree.max_depth();
    // Per-worker share of the summed spend — the modeled elapsed time with
    // every worker on its own core.
    stats_.virtual_seconds =
        static_cast<double>(spent_cycles.load(std::memory_order_relaxed)) /
        static_cast<double>(options_.workers) /
        static_cast<double>(host_.clock_hz);
    const int reason = first_reason.load(std::memory_order_relaxed);
    stats_.stop_reason = reason >= 0 ? static_cast<mcts::StopReason>(reason)
                                     : mcts::StopReason::kBudget;
    return tree.best_move();
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return stats_;
  }

  [[nodiscard]] std::string name() const override {
    std::string out = "shared-tree CPU (" +
                      std::to_string(options_.workers) + " threads, ";
    if (options_.wu_uct) {
      out += "wu-uct";
    } else {
      out += "virtual loss " + std::to_string(options_.virtual_loss);
    }
    return out + ")";
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
  util::ThreadPool pool_;
};

}  // namespace gpu_mcts::parallel
