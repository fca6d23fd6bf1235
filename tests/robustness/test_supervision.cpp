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

#include "engine/factory.hpp"
#include "mcts/budget.hpp"
#include "parallel/block_parallel.hpp"
#include "parallel/hybrid.hpp"
#include "parallel/leaf_parallel.hpp"
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

// --- The CPU schemes ------------------------------------------------------
// Every CPU scheme stops through the one mcts::StopCheck. One table of spec
// strings, built the way users build them; each row runs three stop cases,
// with a virtual budget (1000 s) that would run for minutes unsupervised.
// Each case must stop with its own reason, return a legal move, and keep the
// anytime contract: at least one iteration, so the root has visited
// children.

constexpr std::array<const char*, 5> kCpuSpecs = {"seq", "flat", "root:2",
                                                  "tree:4", "shared:4"};

enum class StopCase { kPreCancelled, kWallDeadline, kCrossThreadCancel };

void expect_cpu_schemes_stop(StopCase stop_case) {
  constexpr double kWallMs = 50.0;
  const auto state = G::initial_state();
  for (const char* text : kCpuSpecs) {
    SCOPED_TRACE(text);
    auto searcher = engine::make_searcher<G>(
        engine::SchemeSpec::parse(text).with_seed(1));
    util::CancelToken token;
    mcts::SearchBudget budget;
    budget.virtual_seconds = 1000.0;
    mcts::StopReason expected = mcts::StopReason::kCancelled;
    double max_elapsed_ms = 10'000.0;  // generous CI slack
    std::thread canceller;
    switch (stop_case) {
      case StopCase::kPreCancelled:
        token.cancel();
        budget.cancel = &token;
        break;
      case StopCase::kWallDeadline:
        budget.wall_ms = kWallMs;
        expected = mcts::StopReason::kWallDeadline;
        max_elapsed_ms = 2.0 * kWallMs + 1000.0;
        break;
      case StopCase::kCrossThreadCancel:
        budget.cancel = &token;
        canceller = std::thread([&token] {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          token.cancel();
        });
        break;
    }
    util::WallTimer timer;
    const auto move = searcher->choose_move(state, budget);
    if (canceller.joinable()) canceller.join();
    EXPECT_LE(timer.elapsed_seconds() * 1000.0, max_elapsed_ms);
    EXPECT_TRUE(is_legal(state, move));
    EXPECT_EQ(searcher->last_stats().stop_reason, expected);
    EXPECT_GT(searcher->last_stats().simulations, 0u);
  }
}

TEST(Supervision, CpuSchemesHonorPreCancelledToken) {
  expect_cpu_schemes_stop(StopCase::kPreCancelled);
}

TEST(Supervision, CpuSchemesHonorWallDeadline) {
  expect_cpu_schemes_stop(StopCase::kWallDeadline);
}

TEST(Supervision, CpuSchemesStopOnCrossThreadCancellation) {
  expect_cpu_schemes_stop(StopCase::kCrossThreadCancel);
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
