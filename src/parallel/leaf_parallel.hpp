// Leaf parallelism on the virtual GPU — the paper's comparison scheme
// (§III.5): one tree on the host; each kernel round plays `blocks x threads`
// random games from the single selected leaf and backpropagates the
// aggregate. Simple, but every round samples the same node, so accuracy
// saturates (Figure 6: win ratio stalls near 0.75 at ~1024 threads).
//
// Thin policy bundle over the RoundDriver engine (DESIGN.md §11):
// shared-root source (one tree feeds the whole grid), summed sink (the grid
// tallies into one slot), no fallback (rounds are fault-oblivious: a failed
// launch contributes a zero tally). Rounds are synchronous.
#pragma once

#include <cstdint>
#include <string>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/searcher.hpp"
#include "obs/trace.hpp"
#include "parallel/driver/round_driver.hpp"
#include "simt/vgpu.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel {

template <game::Game G>
class LeafParallelGpuSearcher final : public mcts::Searcher<G> {
 public:
  struct Options {
    /// Grid geometry; the paper's leaf experiments use block size 64.
    simt::LaunchConfig launch{.blocks = 1, .threads_per_block = 64};
  };

  LeafParallelGpuSearcher(Options options, mcts::SearchConfig config = {},
                          simt::VirtualGpu gpu = simt::VirtualGpu())
      : options_(options),
        driver_({.launch = options.launch}, {}, {}, {}, config,
                std::move(gpu)),
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

  [[nodiscard]] std::string name() const override {
    return "leaf-parallel GPU (" + std::to_string(options_.launch.blocks) +
           "x" + std::to_string(options_.launch.threads_per_block) + ")";
  }

  void reseed(std::uint64_t seed) override {
    seed_ = seed;
    move_counter_ = 0;
  }

  void set_tracer(obs::Tracer* tracer) noexcept override {
    driver_.set_tracer(tracer);
  }

 private:
  using Driver =
      driver::RoundDriver<G, driver::SharedLeafSource<G>,
                          driver::SummedTallySink<G>, driver::NoFallback>;

  Options options_;
  Driver driver_;
  std::uint64_t seed_;
  std::uint64_t move_counter_ = 0;
};

}  // namespace gpu_mcts::parallel
