// Searcher construction through the engine API — the coverage the retired
// harness player factory used to provide: every scheme builds and plays a
// legal opening move, thread-count helpers split grids the way the paper's
// configurations expect, and bad geometry is rejected.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "engine/factory.hpp"
#include "mcts/searcher.hpp"
#include "reversi/reversi_game.hpp"
#include "util/check.hpp"

namespace gpu_mcts::harness {
namespace {

using reversi::ReversiGame;

bool is_legal_opening_move(reversi::Move move) {
  const auto state = ReversiGame::initial_state();
  std::array<ReversiGame::Move, ReversiGame::kMaxMoves> moves{};
  const int n = ReversiGame::legal_moves(state, std::span(moves));
  for (int i = 0; i < n; ++i) {
    if (moves[i] == move) return true;
  }
  return false;
}

TEST(PlayerFactory, BuildsEveryScheme) {
  const std::array<engine::SchemeSpec, 6> specs = {
      engine::SchemeSpec::sequential().with_seed(1),
      engine::SchemeSpec::root_parallel(4).with_seed(2),
      engine::SchemeSpec::leaf_gpu_threads(128, 64).with_seed(3),
      engine::SchemeSpec::block_gpu_threads(256, 32).with_seed(4),
      engine::SchemeSpec::hybrid(8, 32, true).with_seed(5),
      engine::SchemeSpec::distributed(2, 8, 32).with_seed(6),
  };
  for (const auto& spec : specs) {
    std::unique_ptr<mcts::Searcher<ReversiGame>> player =
        engine::make_searcher<ReversiGame>(spec);
    ASSERT_NE(player, nullptr) << spec.scheme;
    const auto move =
        player->choose_move(ReversiGame::initial_state(), 0.005);
    EXPECT_TRUE(is_legal_opening_move(move)) << player->name();
    EXPECT_FALSE(player->name().empty());
  }
}

TEST(PlayerFactory, GridSplitsThreadCounts) {
  // 14336 threads at block size 128 -> the paper's 112-block flagship.
  const engine::SchemeSpec c = engine::SchemeSpec::block_gpu_threads(14336, 128);
  EXPECT_EQ(c.blocks, 112);
  EXPECT_EQ(c.threads_per_block, 128);
  // Sub-block counts collapse to one partial block.
  const engine::SchemeSpec s = engine::SchemeSpec::leaf_gpu_threads(16, 64);
  EXPECT_EQ(s.blocks, 1);
  EXPECT_EQ(s.threads_per_block, 16);
}

TEST(PlayerFactory, IndivisibleThreadCountRejected) {
  EXPECT_THROW((void)engine::SchemeSpec::leaf_gpu_threads(100, 64),
               util::ContractViolation);
}

TEST(PlayerFactory, SchemeNamesAreCanonical) {
  EXPECT_EQ(engine::SchemeSpec::sequential().scheme, "sequential");
  EXPECT_EQ(engine::SchemeSpec::block_gpu(8, 32).scheme, "block-gpu");
  EXPECT_EQ(engine::SchemeSpec::distributed(2, 8, 32).scheme, "distributed");
}

}  // namespace
}  // namespace gpu_mcts::harness
