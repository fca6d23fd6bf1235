// Round policies: the three small concepts the RoundDriver engine is
// parameterized over (DESIGN.md §11). A parallel scheme is a bundle of
//
//  * RoundSource — which trees/leaves feed which grid slices: owns the MCTS
//    tree(s), runs the selection phase (with its trace spans and virtual-time
//    charges), and concludes the search (final move, merged root stats).
//    Two shapes exist, distinguished by `kSharedRoot`:
//      - cohort sources (kSharedRoot == false): one tree per grid block;
//        cohorts are contiguous tree ranges (block/hybrid parallelism);
//      - shared-root sources (kSharedRoot == true): one tree whose selected
//        leaf feeds the whole grid, which tallies into one result slot
//        (leaf parallelism).
//  * RoundSink — how kernel tallies fold back into the trees: backprop
//    (per-tree or summed) plus the per-tally stats/histogram observations.
//  * FallbackPolicy — what happens when the device misbehaves: the retry
//    budget, the abandon threshold, and the CPU-simulate degradation path
//    (which doubles as the hybrid scheme's overlap iteration engine). A
//    disabled policy (`kEnabled == false`) makes the round fault-oblivious:
//    no retries, no fault log, a failed launch simply contributes a zero
//    tally (the leaf scheme's seed semantics).
//
// The driver owns everything else — cohort construction, stream rotation,
// upload/launch/wait/download sequencing, and all remaining
// SearchStats/tracer bookkeeping (round_driver.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "mcts/tree.hpp"
#include "obs/trace.hpp"
#include "parallel/merge.hpp"
#include "simt/cost_model.hpp"
#include "simt/playout_kernel.hpp"
#include "util/clock.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel::driver {

/// What a source hands back when the search concludes.
template <game::Game G>
struct SearchOutcome {
  typename G::Move move{};
  /// Merged root statistics (cohort sources only; empty for shared-root) —
  /// what a multi-GPU rank contributes to the cluster-wide vote.
  std::vector<MergedMove<typename G::Move>> root_stats;
};

// ---------------------------------------------------------------------------
// Concepts
// ---------------------------------------------------------------------------

/// Cohort-shaped source: one tree per grid block, selected in ranges.
template <typename S, typename G>
concept CohortRoundSource =
    game::Game<G> && !S::kSharedRoot &&
    requires(S s, const typename G::State& state, mcts::SearchConfig cfg,
             obs::Tracer* tracer, util::VirtualClock& clock,
             const simt::CostModel& cost,
             std::span<typename G::State> roots, std::size_t i,
             mcts::SearchStats& stats) {
      s.init(state, cfg, std::uint64_t{}, i);
      s.select(tracer, clock, cost, roots, i, i, int{});
      { s.count() } -> std::convertible_to<std::size_t>;
      { s.conclude(stats) } -> std::same_as<SearchOutcome<G>>;
    };

/// Shared-root source: one tree; one selection feeds the whole grid.
template <typename S, typename G>
concept SharedRootRoundSource =
    game::Game<G> && S::kSharedRoot &&
    requires(S s, const typename G::State& state, mcts::SearchConfig cfg,
             obs::Tracer* tracer, util::VirtualClock& clock,
             const simt::CostModel& cost, mcts::SearchStats& stats) {
      s.init(state, cfg, std::uint64_t{}, std::size_t{});
      { s.select(tracer, clock, cost) } -> std::convertible_to<bool>;
      s.shortcut(stats);
      { s.selected_state() } -> std::convertible_to<const typename G::State&>;
      { s.conclude(stats) } -> std::same_as<SearchOutcome<G>>;
    };

template <typename S, typename G>
concept RoundSource = CohortRoundSource<S, G> || SharedRootRoundSource<S, G>;

/// Sink: folds a contiguous range of kernel tallies back into the source's
/// trees (backprop) and records the per-tally stats/histograms (observe).
template <typename Sk, typename G, typename Src>
concept RoundSink =
    requires(Sk sink, Src& src, std::size_t i,
             std::span<const simt::BlockResult> tallies,
             obs::Tracer* tracer, mcts::SearchStats& stats) {
      sink.backprop(src, i, i, tallies);
      sink.observe(tracer, stats, tallies);
    };

/// Fallback: retry/abandon configuration plus the CPU-simulate engine.
template <typename F, typename G, typename Src>
concept FallbackPolicy =
    requires(F f, Src& src, std::size_t i, util::VirtualClock& clock,
             const simt::CostModel& cost, mcts::SearchStats& stats,
             obs::Tracer* tracer) {
      { F::kEnabled } -> std::convertible_to<bool>;
      f.init(std::uint64_t{}, std::size_t{});
    };

// ---------------------------------------------------------------------------
// Cohort source: one tree per grid block (block and hybrid parallelism)
// ---------------------------------------------------------------------------

template <game::Game G>
class CohortTreesSource {
 public:
  static constexpr bool kSharedRoot = false;

  struct Options {
    /// Emit per-round "expansion" instants with the node-count delta (the
    /// block scheme traces expansion; the hybrid scheme does not).
    bool expansion_instant = false;
  };

  explicit CohortTreesSource(Options options) : options_(options) {}

  void init(const typename G::State& state, const mcts::SearchConfig& config,
            std::uint64_t search_seed, std::size_t trees_n) {
    trees_.clear();
    trees_.reserve(trees_n);
    for (std::size_t t = 0; t < trees_n; ++t) {
      trees_.push_back(std::make_unique<mcts::Tree<G>>(
          state, config, util::derive_seed(search_seed, t)));
    }
    leaves_.assign(trees_n, {});
  }

  [[nodiscard]] std::size_t count() const noexcept { return trees_.size(); }

  /// Selection phase for trees [begin, begin + count): emits the "selection"
  /// span (with a "cohort" arg when `cohort >= 0`), writes each tree's
  /// selected state into `roots_host`, records the leaf nodes, and charges
  /// one host tree op per tree to `clock`. Runs on the calling thread: a
  /// selection costs too little to repay a pool dispatch.
  void select(obs::Tracer* tracer, util::VirtualClock& clock,
              const simt::CostModel& cost,
              std::span<typename G::State> roots_host, std::size_t begin,
              std::size_t count, int cohort) {
    constexpr int host_track = obs::Tracer::kHostTrack;
    std::uint64_t nodes_before = 0;
    if (tracer != nullptr && options_.expansion_instant) {
      for (std::size_t t = begin; t < begin + count; ++t) {
        nodes_before += trees_[t]->node_count();
      }
    }
    {
      std::optional<obs::ScopedSpan> span;
      if (cohort >= 0) {
        span.emplace(tracer, host_track, "selection", clock,
                     std::initializer_list<obs::Arg>{
                         {"trees", static_cast<double>(count)},
                         {"cohort", static_cast<double>(cohort)}});
      } else {
        span.emplace(tracer, host_track, "selection", clock,
                     std::initializer_list<obs::Arg>{
                         {"trees", static_cast<double>(count)}});
      }
      for (std::size_t t = begin; t < begin + count; ++t) {
        const mcts::Selection<G> sel = trees_[t]->select();
        roots_host[t] = sel.state;
        leaves_[t] = sel.node;
      }
      // The host core still performs every tree operation in the model;
      // the bulk charge equals the per-tree sum exactly.
      clock.advance(count *
                    static_cast<std::uint64_t>(cost.host_tree_op_cycles));
    }
    if (tracer != nullptr && options_.expansion_instant) {
      std::uint64_t nodes_after = 0;
      for (std::size_t t = begin; t < begin + count; ++t) {
        nodes_after += trees_[t]->node_count();
      }
      const auto added = static_cast<double>(nodes_after - nodes_before);
      if (cohort >= 0) {
        tracer->instant(host_track, "expansion", clock.cycles(),
                        {{"nodes_added", added},
                         {"cohort", static_cast<double>(cohort)}});
      } else {
        tracer->instant(host_track, "expansion", clock.cycles(),
                        {{"nodes_added", added}});
      }
    }
  }

  [[nodiscard]] mcts::Tree<G>& tree(std::size_t t) { return *trees_[t]; }
  [[nodiscard]] mcts::NodeIndex leaf(std::size_t t) const {
    return leaves_[t];
  }

  /// Final per-tree node stats plus the merged-root majority vote.
  [[nodiscard]] SearchOutcome<G> conclude(mcts::SearchStats& stats) {
    std::vector<std::vector<typename mcts::Tree<G>::RootChildStat>> per_tree;
    per_tree.reserve(trees_.size());
    for (const auto& tree : trees_) {
      per_tree.push_back(tree->root_child_stats());
      stats.tree_nodes += tree->node_count();
      if (tree->max_depth() > stats.max_depth) {
        stats.max_depth = tree->max_depth();
      }
    }
    SearchOutcome<G> out;
    out.root_stats = merge_root_stats<G>(per_tree);
    out.move = best_merged_move(out.root_stats);
    return out;
  }

 private:
  Options options_;
  std::vector<std::unique_ptr<mcts::Tree<G>>> trees_;
  std::vector<mcts::NodeIndex> leaves_;
};

// ---------------------------------------------------------------------------
// Shared-root source: one tree feeding the whole grid (leaf parallelism)
// ---------------------------------------------------------------------------

template <game::Game G>
class SharedLeafSource {
 public:
  static constexpr bool kSharedRoot = true;

  struct Options {};

  explicit SharedLeafSource(Options) {}

  void init(const typename G::State& state, const mcts::SearchConfig& config,
            std::uint64_t search_seed, std::size_t /*trees_n*/) {
    tree_.emplace(state, config, search_seed);
  }

  [[nodiscard]] std::size_t count() const noexcept { return 1; }

  /// One tree operation (selection + expansion) inside a "selection" span,
  /// charged to `clock`. Returns true when the selected leaf is terminal —
  /// the driver then takes the CPU shortcut instead of launching.
  [[nodiscard]] bool select(obs::Tracer* tracer, util::VirtualClock& clock,
                            const simt::CostModel& cost) {
    obs::ScopedSpan span(tracer, obs::Tracer::kHostTrack, "selection", clock);
    sel_ = tree_->select();
    clock.advance(static_cast<std::uint64_t>(cost.host_tree_op_cycles));
    return sel_.terminal;
  }

  /// Terminal leaf: nothing to simulate, score it directly on the CPU.
  void shortcut(mcts::SearchStats& stats) {
    const double v =
        game::value_of(G::outcome_for(sel_.state, game::Player::kFirst));
    tree_->backpropagate(sel_.node, v, 1, v * v);
    stats.simulations += 1;
    stats.cpu_iterations += 1;
  }

  [[nodiscard]] const typename G::State& selected_state() const noexcept {
    return sel_.state;
  }
  [[nodiscard]] mcts::NodeIndex selected_node() const noexcept {
    return sel_.node;
  }
  [[nodiscard]] mcts::Tree<G>& tree() { return *tree_; }

  [[nodiscard]] SearchOutcome<G> conclude(mcts::SearchStats& stats) {
    stats.tree_nodes = tree_->node_count();
    stats.max_depth = tree_->max_depth();
    SearchOutcome<G> out;
    out.move = tree_->best_move();
    return out;
  }

 private:
  std::optional<mcts::Tree<G>> tree_;
  mcts::Selection<G> sel_{};
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Per-tree fold: tally slot i backpropagates into tree (begin + i), in
/// tree order on the calling thread. Trees may share a transposition table,
/// and which entries an insert evicts depends on the stores before it, so
/// this order is what keeps the table identical at every exec thread count.
template <game::Game G>
class PerTreeSink {
 public:
  struct Options {
    /// Observe per-tally mean playout length into the "playout_plies"
    /// histogram (the block scheme does; the hybrid scheme does not).
    bool playout_plies_histogram = false;
  };

  explicit PerTreeSink(Options options) : options_(options) {}

  void backprop(CohortTreesSource<G>& source, std::size_t begin,
                std::size_t count,
                std::span<const simt::BlockResult> tallies) {
    for (std::size_t i = 0; i < count; ++i) {
      source.tree(begin + i).backpropagate(
          source.leaf(begin + i), tallies[i].value_first,
          tallies[i].simulations, tallies[i].value_sq_first);
    }
  }

  void observe(obs::Tracer* tracer, mcts::SearchStats& stats,
               std::span<const simt::BlockResult> tallies) {
    for (const simt::BlockResult& tally : tallies) {
      stats.simulations += tally.simulations;
      stats.gpu_simulations += tally.simulations;
      if (tracer != nullptr) {
        tracer->metrics()
            .histogram("block_simulations")
            .observe(tally.simulations);
        if (options_.playout_plies_histogram && tally.simulations > 0) {
          tracer->metrics().histogram("playout_plies").observe(
              static_cast<double>(tally.total_plies) /
              static_cast<double>(tally.simulations));
        }
      }
    }
  }

 private:
  Options options_;
};

/// Summed fold: the kernel sums every lane of the grid into the round's one
/// tally slot, backpropagated at the shared selected leaf.
template <game::Game G>
class SummedTallySink {
 public:
  struct Options {};

  explicit SummedTallySink(Options) {}

  void backprop(SharedLeafSource<G>& source, std::size_t /*begin*/,
                std::size_t /*count*/,
                std::span<const simt::BlockResult> tallies) {
    const simt::BlockResult& tally = tallies[0];
    source.tree().backpropagate(source.selected_node(), tally.value_first,
                                tally.simulations, tally.value_sq_first);
  }

  void observe(obs::Tracer* tracer, mcts::SearchStats& stats,
               std::span<const simt::BlockResult> tallies) {
    const simt::BlockResult& tally = tallies[0];
    stats.simulations += tally.simulations;
    stats.gpu_simulations += tally.simulations;
    if (tracer != nullptr && tally.simulations > 0) {
      tracer->metrics().histogram("playout_plies").observe(
          static_cast<double>(tally.total_plies) /
          static_cast<double>(tally.simulations));
    }
  }
};

// ---------------------------------------------------------------------------
// Fallback policies
// ---------------------------------------------------------------------------

/// Retry/abandon/CPU-simulate (block and hybrid): failed launches and
/// transfers retry under `retry`; `max_failed_rounds` consecutive lost
/// rounds abandon the device (per cohort when pipelined); lost rounds get
/// one sequential CPU iteration per tree. The same iteration engine — one
/// shared RNG and rotating tree cursor, so order is load-bearing — also
/// drives the hybrid scheme's kernel-overlap iterations.
template <game::Game G>
class CpuFallback {
 public:
  static constexpr bool kEnabled = true;

  struct Options {
    util::RetryPolicy retry{};
    int max_failed_rounds = 2;
    /// Salt for the fallback RNG stream, derived from the search seed
    /// (0xfa11 for the block scheme, 0xc0de for hybrid — kept distinct so
    /// the two schemes' CPU playout streams stay independent).
    std::uint64_t rng_salt = 0xfa11ULL;
  };

  explicit CpuFallback(Options options) : options_(options) {}

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  void init(std::uint64_t search_seed, std::size_t trees_n) {
    rng_.emplace(util::derive_seed(search_seed, options_.rng_salt));
    cursor_ = 0;
    trees_n_ = trees_n;
  }

  /// One ordinary sequential MCTS iteration on tree `t`.
  void iterate_on(CohortTreesSource<G>& source, std::size_t t,
                  util::VirtualClock& clock, const simt::CostModel& cost,
                  mcts::SearchStats& stats, obs::Tracer* tracer) {
    mcts::iterate<G>(source.tree(t), *rng_, clock, cost, stats, tracer);
  }

  /// One iteration on the rotating cursor (batch fallback + hybrid overlap).
  void iterate_rotating(CohortTreesSource<G>& source, util::VirtualClock& clock,
                        const simt::CostModel& cost, mcts::SearchStats& stats,
                        obs::Tracer* tracer) {
    iterate_on(source, cursor_, clock, cost, stats, tracer);
    cursor_ = (cursor_ + 1) % trees_n_;
  }

 private:
  Options options_;
  std::optional<util::XorShift128Plus> rng_;
  std::size_t cursor_ = 0;
  std::size_t trees_n_ = 1;
};

/// Fault-oblivious rounds (leaf parallelism): no retries, no fault log, no
/// CPU degradation — a failed launch left its zeroed tally slot untouched
/// and simply contributes nothing, and the round still counts as a GPU
/// round (the seed scheme's semantics, pinned by the bit-exactness suite).
struct NoFallback {
  static constexpr bool kEnabled = false;

  struct Options {};

  explicit NoFallback(Options) {}

  void init(std::uint64_t /*search_seed*/, std::size_t /*trees_n*/) {}
};

}  // namespace gpu_mcts::parallel::driver
