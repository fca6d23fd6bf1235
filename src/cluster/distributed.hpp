// Distributed root parallelism across multiple (virtual) GPUs — the MPI-GPU
// configuration of the paper's Figure 9 ("No of GPUs (112 block x 64
// Threads)"): every rank drives one GPU with the block-parallel searcher,
// and per move the ranks allreduce their root statistics and play the
// majority-vote move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/comm.hpp"
#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/searcher.hpp"
#include "obs/trace.hpp"
#include "parallel/block_parallel.hpp"
#include "parallel/merge.hpp"
#include "util/check.hpp"

namespace gpu_mcts::cluster {

template <game::Game G>
class DistributedRootSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    int ranks = 2;
    /// Per-rank GPU geometry; Figure 9 uses 112 blocks x 64 threads.
    simt::LaunchConfig launch{.blocks = 112, .threads_per_block = 64};
    CommCosts comm{};
    /// Ranks that die before the search (fault-injection scenario): they
    /// contribute nothing and the allreduce proceeds with the survivors
    /// after the collective timeout. Must leave at least one rank alive.
    std::vector<int> dead_ranks{};
    /// Message drop/delay faults on the communication layer.
    util::FaultPolicy comm_faults{};
  };

  DistributedRootSearcher(Options options, mcts::SearchConfig config = {},
                          simt::VirtualGpu gpu = simt::VirtualGpu())
      : options_(options), config_(config), seed_(config.seed) {
    util::expects(options.ranks >= 1, "at least one rank");
    ranks_.reserve(static_cast<std::size_t>(options.ranks));
    // Every rank searches on a copy of this device, one rank after another;
    // creating the pool first makes each copy borrow it instead of starting
    // its own.
    (void)gpu.worker_pool();
    for (int r = 0; r < options.ranks; ++r) {
      mcts::SearchConfig rank_config = config;
      rank_config.seed = util::derive_seed(config.seed, 0xa110c ^ r);
      ranks_.push_back(
          std::make_unique<parallel::BlockParallelGpuSearcher<G>>(
              typename parallel::BlockParallelGpuSearcher<G>::Options{
                  options.launch},
              rank_config, gpu));
    }
  }

  using mcts::Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    const double budget_seconds = budget.virtual_seconds;
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    Communicator comm(options_.ranks, options_.comm);
    comm.set_fault_injector(util::FaultInjector(
        options_.comm_faults, util::derive_seed(seed_, 0xfa117ULL)));
    for (const int dead : options_.dead_ranks) comm.kill_rank(dead);
    util::expects(comm.alive_ranks() >= 1, "at least one surviving rank");

    if (tracer_ != nullptr) {
      (void)tracer_->begin_search(name());
      tracer_->set_frequency(comm.clock(0).frequency_hz());
      comm.set_tracer(tracer_);
    }

    // Each rank spends the move budget minus its share of communication
    // (the allreduce must fit inside the move clock).
    const double comm_seconds =
        comm.allreduce_cost_cycles(kReduceWords) / comm.clock(0).frequency_hz();
    const double rank_budget =
        std::max(budget_seconds * 0.05, budget_seconds - comm_seconds);

    // Root statistics are exchanged as fixed-size (visits, wins) tables
    // indexed by move id — the wire format a real MPI implementation would
    // use (move space is static and small for board games).
    std::vector<std::vector<double>> contributions(
        static_cast<std::size_t>(options_.ranks),
        std::vector<double>(kReduceWords, 0.0));

    stats_ = {};
    for (int r = 0; r < options_.ranks; ++r) {
      // A dead rank never starts its search: its contribution table stays
      // zero and its clock stops mattering to the collective.
      if (!comm.alive(r)) continue;
      auto& searcher = *ranks_[static_cast<std::size_t>(r)];
      (void)searcher.choose_move(state, rank_budget);
      const auto& rank_stats = searcher.last_stats();
      stats_.simulations += rank_stats.simulations;
      stats_.rounds += rank_stats.rounds;
      stats_.cpu_iterations += rank_stats.cpu_iterations;
      stats_.gpu_simulations += rank_stats.gpu_simulations;
      stats_.tree_nodes += rank_stats.tree_nodes;
      if (rank_stats.max_depth > stats_.max_depth)
        stats_.max_depth = rank_stats.max_depth;
      comm.clock(r).advance(static_cast<std::uint64_t>(
          rank_stats.virtual_seconds * comm.clock(r).frequency_hz()));
      if (tracer_ != nullptr) {
        // Ranks are concurrent in model time (searched serially here), so
        // each gets its own track with a span covering its search window.
        const int track = tracer_->track("rank" + std::to_string(r));
        tracer_->begin(track, "rank_search", 0,
                       {{"simulations",
                         static_cast<double>(rank_stats.simulations)},
                        {"gpu_simulations",
                         static_cast<double>(rank_stats.gpu_simulations)}});
        tracer_->end(track, "rank_search", comm.clock(r).cycles());
      }

      auto& table = contributions[static_cast<std::size_t>(r)];
      for (const auto& m : searcher.last_root_stats()) {
        const auto slot = static_cast<std::size_t>(m.move);
        util::check(slot < kMoveSlots, "move id fits the reduce table");
        table[2 * slot] += static_cast<double>(m.visits);
        table[2 * slot + 1] += m.wins;
      }
      stats_.faults.accumulate(searcher.last_stats().faults);
    }

    // The collective completes even with dead ranks: survivors wait out the
    // timeout, then merge only surviving contributions.
    const AllreduceResult reduced = comm.allreduce_sum(contributions);
    const std::vector<double>& summed = reduced.sum;

    // Model time for the move: the slowest surviving rank's clock after the
    // collective.
    double elapsed = 0.0;
    for (int r = 0; r < options_.ranks; ++r) {
      if (!comm.alive(r)) continue;
      elapsed = std::max(elapsed, comm.clock(r).seconds());
    }
    stats_.virtual_seconds = elapsed;
    stats_.faults.accumulate(comm.fault_injector().log());

    std::vector<parallel::MergedMove<typename G::Move>> merged;
    for (std::size_t slot = 0; slot < kMoveSlots; ++slot) {
      const auto visits = static_cast<std::uint64_t>(summed[2 * slot]);
      if (visits == 0) continue;
      merged.push_back({static_cast<typename G::Move>(slot), visits,
                        summed[2 * slot + 1]});
    }
    return parallel::best_merged_move(merged);
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return stats_;
  }

  [[nodiscard]] std::string name() const override {
    return "distributed root-parallel (" + std::to_string(options_.ranks) +
           " GPUs, " + std::to_string(options_.launch.blocks) + "x" +
           std::to_string(options_.launch.threads_per_block) + ")";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      ranks_[r]->reseed(util::derive_seed(seed, 0xa110c ^ r));
    }
  }

  /// The tracer covers the cluster level (per-rank spans, comm collectives);
  /// it is deliberately not forwarded into the per-rank block searchers,
  /// whose per-round events would interleave meaninglessly across ranks.
  void set_tracer(obs::Tracer* tracer) noexcept override { tracer_ = tracer; }

 private:
  /// Move ids for supported games are < 128 (Reversi: 0..64 incl. pass).
  static constexpr std::size_t kMoveSlots = 128;
  static constexpr std::size_t kReduceWords = 2 * kMoveSlots;

  Options options_;
  mcts::SearchConfig config_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<parallel::BlockParallelGpuSearcher<G>>> ranks_;
  mcts::SearchStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace gpu_mcts::cluster
