#include "parallel/root_parallel.hpp"

#include <gtest/gtest.h>

#include <array>

#include "reversi/reversi_game.hpp"

namespace gpu_mcts::parallel {
namespace {

using reversi::ReversiGame;

TEST(RootParallel, ReturnsLegalMove) {
  RootParallelSearcher<ReversiGame> searcher({.threads = 4});
  const auto state = ReversiGame::initial_state();
  const auto move = searcher.choose_move(state, 0.005);
  std::array<ReversiGame::Move, ReversiGame::kMaxMoves> moves{};
  const int n = ReversiGame::legal_moves(state, std::span(moves));
  bool legal = false;
  for (int i = 0; i < n; ++i) legal = legal || moves[i] == move;
  EXPECT_TRUE(legal);
}

TEST(RootParallel, SimulationsScaleWithThreads) {
  RootParallelSearcher<ReversiGame> one({.threads = 1});
  RootParallelSearcher<ReversiGame> eight({.threads = 8});
  (void)one.choose_move(ReversiGame::initial_state(), 0.02);
  (void)eight.choose_move(ReversiGame::initial_state(), 0.02);
  const double ratio =
      static_cast<double>(eight.last_stats().simulations) /
      static_cast<double>(one.last_stats().simulations);
  EXPECT_NEAR(ratio, 8.0, 1.0);  // concurrent virtual timelines
}

TEST(RootParallel, VirtualTimeIsBudgetNotThreadsTimesBudget) {
  RootParallelSearcher<ReversiGame> searcher({.threads = 16});
  (void)searcher.choose_move(ReversiGame::initial_state(), 0.02);
  // Elapsed model time ~ budget (threads run concurrently), never 16x.
  EXPECT_LT(searcher.last_stats().virtual_seconds, 0.03);
  EXPECT_GE(searcher.last_stats().virtual_seconds, 0.02);
}

TEST(RootParallel, SingleThreadDegeneratesToSequentialRate) {
  RootParallelSearcher<ReversiGame> searcher({.threads = 1});
  (void)searcher.choose_move(ReversiGame::initial_state(), 0.05);
  const double rate = searcher.last_stats().simulations_per_second();
  EXPECT_GT(rate, 2.5e3);
  EXPECT_LT(rate, 1.0e4);
}

TEST(RootParallel, RequiresPositiveThreads) {
  EXPECT_THROW(RootParallelSearcher<ReversiGame>({.threads = 0}),
               util::ContractViolation);
}

TEST(RootParallel, NameMentionsThreadCount) {
  RootParallelSearcher<ReversiGame> searcher({.threads = 256});
  EXPECT_NE(searcher.name().find("256"), std::string::npos);
}

}  // namespace
}  // namespace gpu_mcts::parallel
