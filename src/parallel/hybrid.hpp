// Hybrid CPU/GPU processing (paper §III-A, Figure 4): the kernel is launched
// asynchronously and the controlling CPU spends the kernel's execution time
// running ordinary sequential MCTS iterations on the same trees, increasing
// their depth ("the trees formed by our algorithm using GPUs are not as deep
// as the trees when CPUs are used ... as a solution I experimented on using
// hybrid CPU-GPU algorithm").
//
// The effect reproduced in Figure 8: hybrid trees are deeper and the late
// game (smaller search space, where depth matters most) improves.
//
// Thin policy bundle over the RoundDriver engine (DESIGN.md §11): the same
// cohort source and CPU-iteration engine as the block scheme, run in
// kAsyncOverlap mode — the fallback policy's iterations double as the
// overlap work. Pipelined rounds (Options::pipeline, DESIGN.md §10) rotate
// the trees across pipeline_depth stream cohorts and overlap CPU iterations
// against each in-flight cohort kernel, in wall time as well as virtual
// time; the synchronous round's overlap is virtual only (VirtualGpu::
// launch_async runs the grid before the CPU iterations start).
#pragma once

#include <cstdint>
#include <string>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/searcher.hpp"
#include "obs/trace.hpp"
#include "parallel/driver/round_driver.hpp"
#include "simt/vgpu.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel {

template <game::Game G>
class HybridSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    simt::LaunchConfig launch{.blocks = 112, .threads_per_block = 128};
    /// When false the CPU idles during kernel execution — that is exactly
    /// the plain block-parallel searcher, kept here as an ablation toggle.
    bool cpu_overlap = true;
    /// Retry budget for failed launches and transfers (faults only occur
    /// under an enabled util::FaultInjector on the VirtualGpu).
    util::RetryPolicy retry{};
    /// Consecutive unrecoverable GPU rounds before the searcher stops
    /// launching and degrades to CPU-only sequential iterations.
    int max_failed_rounds = 2;
    /// Pipelined rounds over pipeline_depth stream cohorts, with CPU
    /// overlap against each in-flight cohort kernel (requires at least two
    /// blocks; ignored otherwise).
    bool pipeline = false;
    /// Number of stream cohorts per pipelined round.
    int pipeline_depth = 2;
  };

  HybridSearcher(Options options, mcts::SearchConfig config = {},
                 simt::VirtualGpu gpu = simt::VirtualGpu())
      : options_(options),
        driver_({.launch = options.launch,
                 .pipeline_depth = options.pipeline ? options.pipeline_depth
                                                    : 1,
                 .mode = driver::SimulateMode::kAsyncOverlap,
                 .cpu_overlap = options.cpu_overlap},
                {.expansion_instant = false},
                {.playout_plies_histogram = false},
                {.retry = options.retry,
                 .max_failed_rounds = options.max_failed_rounds,
                 .rng_salt = 0xc0deULL},
                config, std::move(gpu)),
        seed_(config.seed) {}

  using mcts::Searcher<G>::choose_move;

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    const std::uint64_t search_seed =
        util::derive_seed(seed_, move_counter_++);
    return driver_.run(state, budget, search_seed, name()).move;
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return driver_.stats();
  }

  /// CPU-side simulations contributed during kernel overlap in the last
  /// choose_move — the quantity the hybrid scheme adds over GPU-only.
  [[nodiscard]] std::uint64_t cpu_overlap_simulations() const noexcept {
    return driver_.stats().cpu_iterations;
  }

  [[nodiscard]] std::string name() const override {
    // Depth 2 keeps the seed's bare ", pipelined" spelling.
    std::string pipelined;
    if (options_.pipeline) {
      const int depth = options_.pipeline_depth;
      pipelined = depth == 2 ? ", pipelined"
                             : ", pipelined:" + std::to_string(depth);
    }
    return std::string(options_.cpu_overlap ? "hybrid CPU+GPU ("
                                            : "block-parallel GPU-only (") +
           std::to_string(options_.launch.blocks) + "x" +
           std::to_string(options_.launch.threads_per_block) + pipelined +
           ")";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

  void set_tracer(obs::Tracer* tracer) noexcept override {
    driver_.set_tracer(tracer);
  }

 private:
  using Driver = driver::CohortRoundDriver<G>;

  Options options_;
  Driver driver_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
};

}  // namespace gpu_mcts::parallel
