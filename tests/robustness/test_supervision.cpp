// Search supervision (DESIGN.md §12): wall-clock deadlines, cooperative
// cancellation, the hang watchdog, and the anytime contract — every scheme
// must return a legal best-so-far move within a small multiple of its wall
// bound, no matter what the (virtual) GPU does.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mcts/budget.hpp"
#include "mcts/flat_mc.hpp"
#include "mcts/policy_searcher.hpp"
#include "mcts/rave.hpp"
#include "mcts/reuse_searcher.hpp"
#include "mcts/sequential.hpp"
#include "parallel/block_parallel.hpp"
#include "parallel/hybrid.hpp"
#include "parallel/leaf_parallel.hpp"
#include "parallel/root_parallel.hpp"
#include "parallel/shared_tree.hpp"
#include "parallel/tree_parallel.hpp"
#include "reversi/reversi_game.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace gpu_mcts {
namespace {

using G = reversi::ReversiGame;

[[nodiscard]] bool is_legal(const typename G::State& state,
                            typename G::Move move) {
  std::array<typename G::Move, static_cast<std::size_t>(G::kMaxMoves)> moves{};
  const int n = G::legal_moves(state, std::span(moves));
  return std::find(moves.begin(), moves.begin() + n, move) !=
         moves.begin() + n;
}

[[nodiscard]] simt::VirtualGpu hanging_gpu(double probability,
                                           double timeout_ms,
                                           std::uint64_t seed) {
  util::FaultPolicy policy;
  policy.kernel_hang = probability;
  policy.hang_timeout_ms = timeout_ms;
  simt::VirtualGpu gpu;
  gpu.set_fault_injector(util::FaultInjector(policy, seed));
  return gpu;
}

[[nodiscard]] std::unique_ptr<mcts::Searcher<G>> make_gpu_searcher(
    const std::string& scheme, int depth, simt::VirtualGpu gpu,
    std::uint64_t seed) {
  mcts::SearchConfig config;
  config.seed = seed;
  config.ucb_c = mcts::kBatchUcbC;
  const simt::LaunchConfig launch{.blocks = 6, .threads_per_block = 32};
  const bool pipelined = depth >= 2;
  if (scheme == "leaf") {
    parallel::LeafParallelGpuSearcher<G>::Options o;
    o.launch = launch;
    o.pipeline = pipelined;
    o.pipeline_depth = depth;
    return std::make_unique<parallel::LeafParallelGpuSearcher<G>>(
        o, config, std::move(gpu));
  }
  if (scheme == "block") {
    parallel::BlockParallelGpuSearcher<G>::Options o;
    o.launch = launch;
    o.pipeline = pipelined;
    o.pipeline_depth = depth;
    return std::make_unique<parallel::BlockParallelGpuSearcher<G>>(
        o, config, std::move(gpu));
  }
  parallel::HybridSearcher<G>::Options o;
  o.launch = launch;
  o.pipeline = pipelined;
  o.pipeline_depth = depth;
  return std::make_unique<parallel::HybridSearcher<G>>(o, config,
                                                       std::move(gpu));
}

// --- The acceptance matrix ------------------------------------------------
// Every launch hangs forever. A synchronous hang charges only virtual time,
// ~2 ms per hung round for ~4 us of wall time on a 4-core AVX-512 Xeon, so
// a 100-virtual-second budget ran out in ~0.2 s of wall time: a host 1.4x
// faster than that one stopped on the budget before the 150 ms deadline.
// 1e5 virtual seconds would take ~200 s of wall time to spend, so the
// virtual budget alone never ends the search. With a wall deadline set,
// every scheme at every pipeline depth must return a legal move within 2x
// the deadline (plus scheduling slack for slow CI), report kWallDeadline
// with budget left over, and account for every injected hang through the
// watchdog.
TEST(Supervision, AllSchemesSurviveTotalHangStormWithinWallBound) {
  constexpr double kWallMs = 150.0;
  const auto state = G::initial_state();
  for (const std::string scheme : {"leaf", "block", "hybrid"}) {
    for (int depth = 1; depth <= 3; ++depth) {
      SCOPED_TRACE(scheme + " depth " + std::to_string(depth));
      auto searcher = make_gpu_searcher(
          scheme, depth, hanging_gpu(1.0, 2.0, 23), 23);
      mcts::SearchBudget budget;
      budget.virtual_seconds = 1e5;
      budget.wall_ms = kWallMs;
      util::WallTimer timer;
      const auto move = searcher->choose_move(state, budget);
      const double elapsed_ms = timer.elapsed_seconds() * 1000.0;
      EXPECT_LE(elapsed_ms, 2.0 * kWallMs + 1000.0);
      EXPECT_TRUE(is_legal(state, move));
      const auto& stats = searcher->last_stats();
      EXPECT_EQ(stats.stop_reason, mcts::StopReason::kWallDeadline);
      EXPECT_LT(stats.virtual_seconds, budget.virtual_seconds);
      EXPECT_GT(stats.watchdog_timeouts, 0u);
      if (scheme != "leaf") {
        // Schemes with a CPU fallback must back the move with real search
        // even when every kernel hangs (the anytime guard), and they export
        // the injector's log: every drawn hang surfaces through the
        // watchdog exactly once. Leaf has no fallback rung — a total hang
        // storm leaves zero completed playouts and the move comes from
        // best_merged_move's deterministic smallest-legal fallback.
        EXPECT_GT(stats.simulations, 0u);
        EXPECT_EQ(stats.watchdog_timeouts,
                  stats.faults.count(util::FaultKind::kKernelHang));
      }
    }
  }
}

TEST(Supervision, HealthyGpuStopsOnWallDeadlineMidBudget) {
  // No faults at all: the deadline alone cuts a huge virtual budget short.
  auto searcher =
      make_gpu_searcher("block", 1, simt::VirtualGpu(), 7);
  mcts::SearchBudget budget;
  budget.virtual_seconds = 100.0;
  budget.wall_ms = 60.0;
  const auto state = G::initial_state();
  util::WallTimer timer;
  const auto move = searcher->choose_move(state, budget);
  EXPECT_LE(timer.elapsed_seconds() * 1000.0, 2.0 * 60.0 + 1000.0);
  EXPECT_TRUE(is_legal(state, move));
  const auto& stats = searcher->last_stats();
  EXPECT_EQ(stats.stop_reason, mcts::StopReason::kWallDeadline);
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_LT(stats.virtual_seconds, 100.0);
  EXPECT_EQ(stats.watchdog_timeouts, 0u);
}

// --- Cancellation ---------------------------------------------------------

TEST(Supervision, CancellationFromAnotherThreadStopsGpuSearch) {
  auto searcher = make_gpu_searcher("hybrid", 2, simt::VirtualGpu(), 13);
  util::CancelToken token;
  mcts::SearchBudget budget;
  budget.virtual_seconds = 100.0;
  budget.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  const auto state = G::initial_state();
  const auto move = searcher->choose_move(state, budget);
  canceller.join();
  EXPECT_TRUE(is_legal(state, move));
  EXPECT_EQ(searcher->last_stats().stop_reason, mcts::StopReason::kCancelled);
  EXPECT_GT(searcher->last_stats().simulations, 0u);
}

TEST(Supervision, CancellationOutranksWallDeadline) {
  // Both bounds would fire; a pre-cancelled token must win the attribution.
  auto searcher = make_gpu_searcher("block", 1, simt::VirtualGpu(), 3);
  util::CancelToken token;
  token.cancel();
  mcts::SearchBudget budget;
  budget.virtual_seconds = 0.004;
  budget.wall_ms = 0.0;  // already expired too
  budget.cancel = &token;
  const auto state = G::initial_state();
  const auto move = searcher->choose_move(state, budget);
  EXPECT_TRUE(is_legal(state, move));
  EXPECT_EQ(searcher->last_stats().stop_reason, mcts::StopReason::kCancelled);
  EXPECT_GT(searcher->last_stats().simulations, 0u);  // anytime guard
}

TEST(Supervision, CpuSchemesHonorPreCancelledToken) {
  util::CancelToken token;
  token.cancel();
  mcts::SearchBudget budget;
  budget.virtual_seconds = 1.0;
  budget.cancel = &token;
  const auto state = G::initial_state();

  mcts::SequentialSearcher<G> sequential({.seed = 1});
  parallel::TreeParallelSearcher<G> tree({.workers = 4}, {.seed = 1});
  parallel::RootParallelSearcher<G> root({.threads = 2}, {.seed = 1});
  // Regression: these four silently ignored cancel/wall_ms and never set
  // stop_reason; they now run the same round-boundary check as the rest.
  mcts::RaveSearcher<G> rave({.seed = 1});
  mcts::FlatMonteCarloSearcher<G> flat({.seed = 1});
  mcts::PolicySearcher<G, mcts::UniformPolicy> policy(
      mcts::UniformPolicy{}, "uniform", {.seed = 1});
  mcts::ReuseSequentialSearcher<G> reuse({.seed = 1});
  parallel::SharedTreeSearcher<G> shared({.workers = 4}, {.seed = 1});
  const std::array<mcts::Searcher<G>*, 8> searchers{
      &sequential, &tree, &root, &rave, &flat, &policy, &reuse, &shared};
  for (mcts::Searcher<G>* s : searchers) {
    SCOPED_TRACE(s->name());
    const auto move = s->choose_move(state, budget);
    EXPECT_TRUE(is_legal(state, move));
    EXPECT_EQ(s->last_stats().stop_reason, mcts::StopReason::kCancelled);
    // The anytime contract holds even for an instantly-cancelled search:
    // at least one iteration ran so the root has visited children.
    EXPECT_GT(s->last_stats().simulations, 0u);
  }
}

TEST(Supervision, CpuSchemesHonorWallDeadline) {
  mcts::SearchBudget budget;
  budget.virtual_seconds = 1000.0;  // would take minutes unsupervised
  budget.wall_ms = 50.0;
  const auto state = G::initial_state();

  mcts::SequentialSearcher<G> sequential({.seed = 2});
  parallel::TreeParallelSearcher<G> tree({.workers = 4}, {.seed = 2});
  parallel::RootParallelSearcher<G> root_host({.threads = 2,
                                               .use_host_threads = true},
                                              {.seed = 2});
  // Regression: these four used to burn the whole (here: enormous) virtual
  // budget with the deadline long gone.
  mcts::RaveSearcher<G> rave({.seed = 2});
  mcts::FlatMonteCarloSearcher<G> flat({.seed = 2});
  mcts::PolicySearcher<G, mcts::UniformPolicy> policy(
      mcts::UniformPolicy{}, "uniform", {.seed = 2});
  mcts::ReuseSequentialSearcher<G> reuse({.seed = 2});
  parallel::SharedTreeSearcher<G> shared({.workers = 4}, {.seed = 2});
  const std::array<mcts::Searcher<G>*, 8> searchers{
      &sequential, &tree, &root_host, &rave, &flat, &policy, &reuse, &shared};
  for (mcts::Searcher<G>* s : searchers) {
    SCOPED_TRACE(s->name());
    util::WallTimer timer;
    const auto move = s->choose_move(state, budget);
    EXPECT_LE(timer.elapsed_seconds() * 1000.0, 2.0 * 50.0 + 1000.0);
    EXPECT_TRUE(is_legal(state, move));
    EXPECT_EQ(s->last_stats().stop_reason, mcts::StopReason::kWallDeadline);
    EXPECT_GT(s->last_stats().simulations, 0u);
  }
}

TEST(Supervision, CpuSchemesStopOnCrossThreadCancellation) {
  // Cancel arrives mid-search from another thread; every CPU searcher must
  // notice at a round boundary, attribute kCancelled, and still return a
  // legal move. The virtual budget (1000 s) would otherwise run for minutes.
  const auto state = G::initial_state();

  mcts::RaveSearcher<G> rave({.seed = 3});
  mcts::FlatMonteCarloSearcher<G> flat({.seed = 3});
  mcts::PolicySearcher<G, mcts::UniformPolicy> policy(
      mcts::UniformPolicy{}, "uniform", {.seed = 3});
  mcts::ReuseSequentialSearcher<G> reuse({.seed = 3});
  parallel::SharedTreeSearcher<G> shared({.workers = 4}, {.seed = 3});
  const std::array<mcts::Searcher<G>*, 5> searchers{&rave, &flat, &policy,
                                                    &reuse, &shared};
  for (mcts::Searcher<G>* s : searchers) {
    SCOPED_TRACE(s->name());
    util::CancelToken token;
    mcts::SearchBudget budget;
    budget.virtual_seconds = 1000.0;
    budget.cancel = &token;
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      token.cancel();
    });
    util::WallTimer timer;
    const auto move = s->choose_move(state, budget);
    canceller.join();
    EXPECT_LE(timer.elapsed_seconds(), 10.0);  // generous CI slack
    EXPECT_TRUE(is_legal(state, move));
    EXPECT_EQ(s->last_stats().stop_reason, mcts::StopReason::kCancelled);
    EXPECT_GT(s->last_stats().simulations, 0u);
  }
}

// --- Bit-exactness of the unsupervised path -------------------------------

TEST(Supervision, DefaultBudgetIsBitIdenticalToDoubleOverload) {
  // A SearchBudget carrying only virtual_seconds must reproduce the classic
  // overload exactly: same move, same stats, kBudget stop reason. This is
  // the contract that keeps the PR-5 bit-exactness goldens valid.
  const auto state = G::initial_state();
  auto classic = make_gpu_searcher("block", 2, simt::VirtualGpu(), 5);
  auto budgeted = make_gpu_searcher("block", 2, simt::VirtualGpu(), 5);
  const auto move_a = classic->choose_move(state, 0.008);
  const auto move_b = budgeted->choose_move(
      state, mcts::SearchBudget::from_seconds(0.008));
  EXPECT_EQ(move_a, move_b);
  EXPECT_EQ(classic->last_stats().simulations,
            budgeted->last_stats().simulations);
  EXPECT_EQ(classic->last_stats().virtual_seconds,
            budgeted->last_stats().virtual_seconds);
  EXPECT_EQ(classic->last_stats().rounds, budgeted->last_stats().rounds);
  EXPECT_EQ(budgeted->last_stats().stop_reason, mcts::StopReason::kBudget);
  EXPECT_EQ(budgeted->last_stats().watchdog_timeouts, 0u);
}

// --- Tree saturation ------------------------------------------------------

TEST(Supervision, TreeSaturationStopsWhenOptedIn) {
  // A tiny arena freezes quickly; with the opt-in set, the search stops as
  // soon as a full round allocates no node instead of burning the rest of
  // the virtual budget re-sampling a frozen tree.
  mcts::SearchConfig config;
  config.seed = 9;
  config.ucb_c = mcts::kBatchUcbC;
  config.max_nodes = 256;
  parallel::BlockParallelGpuSearcher<G>::Options options;
  options.launch = {.blocks = 6, .threads_per_block = 32};
  parallel::BlockParallelGpuSearcher<G> searcher(options, config,
                                                 simt::VirtualGpu());
  mcts::SearchBudget budget;
  budget.virtual_seconds = 1.0;
  budget.wall_ms = 10'000.0;  // safety net only; saturation should win
  budget.stop_on_tree_saturation = true;
  const auto state = G::initial_state();
  const auto move = searcher.choose_move(state, budget);
  EXPECT_TRUE(is_legal(state, move));
  const auto& stats = searcher.last_stats();
  EXPECT_EQ(stats.stop_reason, mcts::StopReason::kTreeSaturated);
  EXPECT_LT(stats.virtual_seconds, 1.0);  // it really stopped early
  EXPECT_GT(stats.simulations, 0u);
}

// --- The anytime guard ----------------------------------------------------

TEST(Supervision, AnytimeGuardYieldsRealMoveWhenFirstRoundHangs) {
  // The hang charge (5ms of virtual time) exceeds the whole virtual budget
  // (4ms), so the first and only round produces zero merged simulations.
  // best_merged_move on empty stats would throw; the guard runs one CPU
  // iteration so the returned move is backed by real search.
  auto searcher = make_gpu_searcher("block", 1, hanging_gpu(1.0, 5.0, 41), 41);
  mcts::SearchBudget budget;
  budget.virtual_seconds = 0.004;
  budget.wall_ms = 10'000.0;  // supervised, but the virtual budget wins
  const auto state = G::initial_state();
  const auto move = searcher->choose_move(state, budget);
  EXPECT_TRUE(is_legal(state, move));
  const auto& stats = searcher->last_stats();
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_EQ(stats.gpu_simulations, 0u);
  EXPECT_GT(stats.watchdog_timeouts, 0u);
  EXPECT_EQ(stats.watchdog_timeouts,
            stats.faults.count(util::FaultKind::kKernelHang));
}

// --- CancelToken mechanics ------------------------------------------------

TEST(Supervision, CancelTokenIsStickyUntilReset) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

}  // namespace
}  // namespace gpu_mcts
