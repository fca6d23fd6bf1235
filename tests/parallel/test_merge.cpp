#include "parallel/merge.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "game/tictactoe.hpp"
#include "mcts/playout.hpp"
#include "parallel/block_parallel.hpp"
#include "simt/vgpu.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::parallel {
namespace {

using game::TicTacToe;
using Stat = mcts::Tree<TicTacToe>::RootChildStat;

TEST(Merge, SumsVisitsAndWinsByMove) {
  std::vector<std::vector<Stat>> per_tree = {
      {{0, 10, 5.0}, {1, 20, 8.0}},
      {{1, 5, 4.0}, {2, 7, 7.0}},
  };
  const auto merged = merge_root_stats<TicTacToe>(per_tree);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].move, 0);
  EXPECT_EQ(merged[0].visits, 10u);
  EXPECT_EQ(merged[1].move, 1);
  EXPECT_EQ(merged[1].visits, 25u);
  EXPECT_DOUBLE_EQ(merged[1].wins, 12.0);
  EXPECT_EQ(merged[2].move, 2);
}

TEST(Merge, BestMergedMoveIsMostVisited) {
  std::vector<MergedMove<TicTacToe::Move>> merged = {
      {0, 10, 9.0}, {1, 25, 5.0}, {2, 7, 7.0}};
  EXPECT_EQ(best_merged_move(merged), 1);
}

TEST(Merge, TieBrokenByWinRate) {
  std::vector<MergedMove<TicTacToe::Move>> merged = {
      {3, 10, 4.0}, {5, 10, 9.0}};
  EXPECT_EQ(best_merged_move(merged), 5);
}

TEST(Merge, AllZeroVisitsFallsBackToSmallestMove) {
  // No tree ever backpropagated: there is no evidence to vote on, and the
  // winner must be the *documented* deterministic fallback (the smallest
  // move), not an accident of container iteration order.
  const std::vector<MergedMove<TicTacToe::Move>> merged = {
      {7, 0, 0.0}, {2, 0, 0.0}, {4, 0, 0.0}};
  EXPECT_EQ(best_merged_move(merged), 2);
}

TEST(Merge, AllFaultedSearchStillReturnsSmallestMoveDeterministically) {
  // End-to-end: every kernel launch fails and the budget expires before a
  // single CPU fallback iteration can run, so every root child of every
  // tree still has zero visits when the vote happens.
  BlockParallelGpuSearcher<TicTacToe>::Options options;
  options.launch = {.blocks = 4, .threads_per_block = 32};
  mcts::SearchConfig config;
  config.seed = 9;
  simt::VirtualGpu gpu;
  gpu.set_fault_injector(util::FaultInjector(
      util::FaultPolicy{.kernel_launch_failure = 1.0}, /*seed=*/31));
  BlockParallelGpuSearcher<TicTacToe> searcher(options, config,
                                               std::move(gpu));
  const TicTacToe::Move move =
      searcher.choose_move(TicTacToe::initial_state(), 1e-7);
  EXPECT_EQ(searcher.last_stats().simulations, 0u);
  EXPECT_EQ(move, 0);  // smallest legal opening move, by contract
}

TEST(Merge, EmptyThrows) {
  std::vector<MergedMove<TicTacToe::Move>> merged;
  EXPECT_THROW((void)best_merged_move(merged), util::ContractViolation);
}

TEST(Merge, MergeOfRealTreesMatchesManualSum) {
  // Two real trees over the same position; merged visits must equal the sum
  // of per-tree root visits (every tree iteration lands in some root child).
  mcts::Tree<TicTacToe> t1(TicTacToe::initial_state(), {}, 1);
  mcts::Tree<TicTacToe> t2(TicTacToe::initial_state(), {}, 2);
  util::XorShift128Plus rng(3);
  for (int i = 0; i < 100; ++i) {
    for (auto* t : {&t1, &t2}) {
      const auto sel = t->select();
      const double v =
          sel.terminal
              ? game::value_of(TicTacToe::outcome_for(sel.state,
                                                      game::Player::kFirst))
              : mcts::random_playout<TicTacToe>(sel.state, rng).value_first;
      t->backpropagate(sel.node, v, 1);
    }
  }
  std::vector<std::vector<Stat>> per_tree = {t1.root_child_stats(),
                                             t2.root_child_stats()};
  const auto merged = merge_root_stats<TicTacToe>(per_tree);
  std::uint64_t total = 0;
  for (const auto& m : merged) total += m.visits;
  EXPECT_EQ(total, 200u);
}

}  // namespace
}  // namespace gpu_mcts::parallel
