// Searcher-contract conformance, parameterized over every scheme the
// library ships: any Searcher must (a) return legal moves from arbitrary
// reachable positions, (b) reject terminal states, (c) populate statistics,
// (d) be bit-for-bit reproducible under reseed, and (e) respect the virtual
// budget's order of magnitude.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <string>

#include "engine/factory.hpp"
#include "reversi/notation.hpp"
#include "reversi/reversi_game.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::harness {
namespace {

using reversi::ReversiGame;

struct SchemeCase {
  std::string label;
  engine::SchemeSpec spec;
};

// Without it gtest prints the parameter as raw bytes, and the std::string's
// heap pointer among them makes every test name differ from run to run.
void PrintTo(const SchemeCase& c, std::ostream* os) { *os << c.label; }

std::vector<SchemeCase> all_schemes() {
  return {
      {"sequential", engine::SchemeSpec::sequential().with_seed(1)},
      {"flat-mc", engine::SchemeSpec::flat_mc().with_seed(2)},
      {"root-parallel-8", engine::SchemeSpec::root_parallel(8).with_seed(3)},
      {"tree-parallel-4", engine::SchemeSpec::tree_parallel(4).with_seed(4)},
      // Real host threads share one tree; at workers > 1 results are
      // interleaving-dependent, so only the deterministic single-worker
      // variant belongs in a suite that pins reseed reproducibility.
      {"shared-tree-1", engine::SchemeSpec::shared_tree(1).with_seed(9)},
      {"leaf-gpu-128",
       engine::SchemeSpec::leaf_gpu_threads(128, 64).with_seed(5)},
      {"block-gpu-256",
       engine::SchemeSpec::block_gpu_threads(256, 32).with_seed(6)},
      {"hybrid-8x32", engine::SchemeSpec::hybrid(8, 32, true).with_seed(7)},
      {"distributed-2",
       engine::SchemeSpec::distributed(2, 4, 32).with_seed(8)},
  };
}

class SearcherConformance : public ::testing::TestWithParam<SchemeCase> {};

/// A mid-game position reached by a fixed random line.
ReversiGame::State midgame_position(std::uint64_t seed, int plies) {
  util::XorShift128Plus rng(seed);
  ReversiGame::State s = ReversiGame::initial_state();
  std::array<ReversiGame::Move, ReversiGame::kMaxMoves> moves{};
  for (int p = 0; p < plies && !ReversiGame::is_terminal(s); ++p) {
    const int n = ReversiGame::legal_moves(s, std::span(moves));
    s = ReversiGame::apply(s, moves[rng.next_below(static_cast<std::uint32_t>(n))]);
  }
  return s;
}

TEST_P(SearcherConformance, LegalMovesFromManyPositions) {
  auto searcher = engine::make_searcher<reversi::ReversiGame>(GetParam().spec);
  std::array<ReversiGame::Move, ReversiGame::kMaxMoves> moves{};
  for (const int plies : {0, 10, 25, 45}) {
    const auto state = midgame_position(99 + plies, plies);
    if (ReversiGame::is_terminal(state)) continue;
    const auto move = searcher->choose_move(state, 0.004);
    const int n = ReversiGame::legal_moves(state, std::span(moves));
    bool legal = false;
    for (int i = 0; i < n; ++i) legal = legal || moves[i] == move;
    EXPECT_TRUE(legal) << GetParam().label << " at ply " << plies << " chose "
                       << reversi::move_to_string(move);
  }
}

TEST_P(SearcherConformance, RejectsTerminalPositions) {
  auto searcher = engine::make_searcher<reversi::ReversiGame>(GetParam().spec);
  // Play a full random game to reach a genuine terminal position.
  auto state = midgame_position(5, ReversiGame::kMaxGameLength);
  ASSERT_TRUE(ReversiGame::is_terminal(state));
  EXPECT_THROW((void)searcher->choose_move(state, 0.004),
               util::ContractViolation)
      << GetParam().label;
}

TEST_P(SearcherConformance, StatsArePopulated) {
  auto searcher = engine::make_searcher<reversi::ReversiGame>(GetParam().spec);
  (void)searcher->choose_move(ReversiGame::initial_state(), 0.01);
  const mcts::SearchStats& stats = searcher->last_stats();
  EXPECT_GT(stats.simulations, 0u) << GetParam().label;
  EXPECT_GT(stats.rounds, 0u) << GetParam().label;
  EXPECT_GT(stats.virtual_seconds, 0.0) << GetParam().label;
  EXPECT_GT(stats.simulations_per_second(), 0.0) << GetParam().label;
  EXPECT_FALSE(searcher->name().empty());
}

TEST_P(SearcherConformance, ReseedGivesIdenticalDecisions) {
  auto a = engine::make_searcher<reversi::ReversiGame>(GetParam().spec);
  auto b = engine::make_searcher<reversi::ReversiGame>(GetParam().spec);
  a->reseed(123);
  b->reseed(123);
  const auto state = midgame_position(7, 12);
  ASSERT_FALSE(ReversiGame::is_terminal(state));
  EXPECT_EQ(a->choose_move(state, 0.008), b->choose_move(state, 0.008))
      << GetParam().label;
  EXPECT_EQ(a->last_stats().simulations, b->last_stats().simulations);
  EXPECT_EQ(a->last_stats().virtual_seconds, b->last_stats().virtual_seconds);
}

TEST_P(SearcherConformance, BudgetIsRespectedWithinOneRound) {
  auto searcher = engine::make_searcher<reversi::ReversiGame>(GetParam().spec);
  (void)searcher->choose_move(ReversiGame::initial_state(), 0.02);
  const double elapsed = searcher->last_stats().virtual_seconds;
  EXPECT_GE(elapsed, 0.02) << GetParam().label;
  // No scheme's single round exceeds ~25 ms of model time at these grids;
  // allow 3x slack for the largest.
  EXPECT_LE(elapsed, 0.1) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SearcherConformance, ::testing::ValuesIn(all_schemes()),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gpu_mcts::harness
