// Block parallelism — the paper's contribution (§III.6).
//
// One GPU block serves one MCTS tree; the threads of the block run
// independent playouts from that tree's selected leaf. The single host core
// drives every tree: per kernel round it performs selection/expansion for
// each tree, launches one kernel whose block b simulates tree b's leaf, then
// backpropagates each block's aggregate result. The sequential host part is
// charged per tree, reproducing the paper's observation that
// simulations/second falls as the number of blocks grows while *strength*
// rises (more trees diminish "the effect of being stuck in a local
// extremum").
//
// Thin policy bundle over the RoundDriver engine (DESIGN.md §11): cohort
// source (one tree per block), per-tree sink, CPU fallback (retry, per-
// cohort abandonment, sequential degradation). Pipelined rounds
// (Options::pipeline, DESIGN.md §10) rotate the tree set across
// Options::pipeline_depth stream cohorts; every tree's evolution — results,
// stats, virtual time — is bit-identical with pipelining on or off.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/searcher.hpp"
#include "obs/trace.hpp"
#include "parallel/driver/round_driver.hpp"
#include "parallel/merge.hpp"
#include "simt/vgpu.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel {

template <game::Game G>
class BlockParallelGpuSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    /// blocks = trees, threads = playouts per tree per round; the paper's
    /// flagship configuration is 112 blocks x 128 threads.
    simt::LaunchConfig launch{.blocks = 112, .threads_per_block = 128};
    /// Retry budget for failed launches and transfers (faults only occur
    /// under an enabled util::FaultInjector on the VirtualGpu).
    util::RetryPolicy retry{};
    /// Consecutive unrecoverable GPU rounds before the searcher stops
    /// launching and degrades to CPU-only sequential iterations. In
    /// pipelined mode the counter is per cohort: one cohort can abandon its
    /// stream while the others keep launching.
    int max_failed_rounds = 2;
    /// Pipelined rounds over pipeline_depth streams (requires at least two
    /// blocks; ignored otherwise). Results, stats, and per-tree evolution
    /// are bit-identical with this on or off.
    bool pipeline = false;
    /// Number of stream cohorts per pipelined round.
    int pipeline_depth = 2;
  };

  using Driver = driver::CohortRoundDriver<G>;

  /// The round engine as this searcher configures it. serve::SearchService
  /// runs one per in-flight ticket, so a served search is this scheme's.
  [[nodiscard]] static std::unique_ptr<Driver> make_driver(
      const Options& options, const mcts::SearchConfig& config,
      simt::VirtualGpu gpu) {
    return std::make_unique<Driver>(
        typename Driver::Config{
            .launch = options.launch,
            .pipeline_depth = options.pipeline ? options.pipeline_depth : 1,
            .mode = driver::SimulateMode::kSync},
        typename driver::CohortTreesSource<G>::Options{
            .expansion_instant = true},
        typename driver::PerTreeSink<G>::Options{
            .playout_plies_histogram = true},
        typename driver::CpuFallback<G>::Options{
            .retry = options.retry,
            .max_failed_rounds = options.max_failed_rounds,
            .rng_salt = 0xfa11ULL},
        config, std::move(gpu));
  }

  [[nodiscard]] static std::string name_for(const Options& options) {
    return "block-parallel GPU (" + std::to_string(options.launch.blocks) +
           "x" + std::to_string(options.launch.threads_per_block) +
           driver::pipeline_suffix(options.pipeline, options.pipeline_depth) +
           ")";
  }

  BlockParallelGpuSearcher(Options options, mcts::SearchConfig config = {},
                           simt::VirtualGpu gpu = simt::VirtualGpu())
      : options_(options),
        driver_(make_driver(options, config, std::move(gpu))),
        seed_(config.seed) {}

  using mcts::Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    const std::uint64_t search_seed =
        util::derive_seed(seed_, move_counter_++);
    driver::SearchOutcome<G> outcome =
        driver_->run(state, budget, search_seed, name());
    last_root_stats_ = std::move(outcome.root_stats);
    return outcome.move;
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return driver_->stats();
  }

  /// Merged root statistics of the last search — what a multi-GPU rank
  /// contributes to the cluster-wide vote (cluster::DistributedRootSearcher).
  [[nodiscard]] const std::vector<MergedMove<typename G::Move>>&
  last_root_stats() const noexcept {
    return last_root_stats_;
  }

  [[nodiscard]] std::string name() const override {
    return name_for(options_);
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

  void set_tracer(obs::Tracer* tracer) noexcept override {
    driver_->set_tracer(tracer);
  }

 private:
  Options options_;
  std::unique_ptr<Driver> driver_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
  std::vector<MergedMove<typename G::Move>> last_root_stats_;
};

}  // namespace gpu_mcts::parallel
