#include "mcts/tree.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "game/tictactoe.hpp"
#include "mcts/playout.hpp"
#include "reversi/reversi_game.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::mcts {
namespace {

using game::TicTacToe;
using reversi::ReversiGame;

TEST(Tree, StartsWithLoneRoot) {
  const Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 1);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.root_visits(), 0u);
  EXPECT_EQ(tree.max_depth(), 0u);
}

TEST(Tree, FirstSelectExpandsRootAndDescendsOnce) {
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 1);
  const Selection<TicTacToe> sel = tree.select();
  EXPECT_FALSE(sel.terminal);
  EXPECT_EQ(sel.depth, 1u);
  // Root expanded: 9 children + root.
  EXPECT_EQ(tree.node_count(), 10u);
}

TEST(Tree, EachIterationVisitsNewChildUntilAllTried) {
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 1);
  std::set<NodeIndex> seen;
  for (int i = 0; i < 9; ++i) {
    const Selection<TicTacToe> sel = tree.select();
    EXPECT_EQ(sel.depth, 1u);
    EXPECT_TRUE(seen.insert(sel.node).second)
        << "unvisited children must be tried before any repeat";
    tree.backpropagate(sel.node, 0.5, 1);
  }
  EXPECT_EQ(seen.size(), 9u);
  // 10th selection goes deeper (all root children visited once).
  const Selection<TicTacToe> sel = tree.select();
  EXPECT_EQ(sel.depth, 2u);
}

TEST(Tree, BackpropagationAccumulatesToRoot) {
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 1);
  for (int i = 0; i < 5; ++i) {
    const Selection<TicTacToe> sel = tree.select();
    tree.backpropagate(sel.node, 1.0, 1);  // black always wins
  }
  EXPECT_EQ(tree.root_visits(), 5u);
  // Root children were made by black (first player): their wins = 5 total.
  double child_wins = 0;
  std::uint64_t child_visits = 0;
  for (const auto& stat : tree.root_child_stats()) {
    child_wins += stat.wins;
    child_visits += stat.visits;
  }
  EXPECT_EQ(child_visits, 5u);
  EXPECT_DOUBLE_EQ(child_wins, 5.0);
}

TEST(Tree, PerspectiveFlipsBetweenLevels) {
  // Root: black to move -> root children were moved by black; their children
  // by white. A black win (value 1) adds 1 to black-moved nodes, 0 to
  // white-moved nodes.
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 7);
  // Visit all 9 children once, then force a depth-2 selection.
  for (int i = 0; i < 9; ++i) {
    const auto sel = tree.select();
    tree.backpropagate(sel.node, 1.0, 1);
  }
  const auto sel = tree.select();
  ASSERT_EQ(sel.depth, 2u);
  tree.backpropagate(sel.node, 1.0, 1);
  const auto& leaf = tree.node(sel.node);
  EXPECT_EQ(leaf.mover, game::Player::kSecond);
  EXPECT_EQ(leaf.visits, 1u);
  EXPECT_DOUBLE_EQ(leaf.wins, 0.0);  // white lost this playout
}

TEST(Tree, AggregatedBackpropagation) {
  // GPU-style: 64 simulations with 40 black wins in one call.
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 3);
  const auto sel = tree.select();
  tree.backpropagate(sel.node, 40.0, 64);
  EXPECT_EQ(tree.root_visits(), 64u);
  const auto& leaf = tree.node(sel.node);
  EXPECT_EQ(leaf.visits, 64u);
  EXPECT_DOUBLE_EQ(leaf.wins, 40.0);  // leaf.mover is black
}

TEST(Tree, BackpropagateValidatesArguments) {
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 3);
  const auto sel = tree.select();
  EXPECT_THROW(tree.backpropagate(sel.node, 2.0, 1),
               util::ContractViolation);
  EXPECT_THROW(tree.backpropagate(9999, 0.5, 1), util::ContractViolation);
}

TEST(Tree, BestMovePrefersMostVisited) {
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 3);
  // Make child of move 4 (whichever node holds it) clearly best: every
  // playout through it wins for black, others lose.
  for (int i = 0; i < 200; ++i) {
    const auto sel = tree.select();
    // Reward only paths whose first move is cell 4.
    NodeIndex first = sel.node;
    while (tree.node(first).parent != 0) first = tree.node(first).parent;
    const bool through4 = tree.node(first).move == 4;
    tree.backpropagate(sel.node, through4 ? 1.0 : 0.0, 1);
  }
  EXPECT_EQ(tree.best_move(), 4);
}

TEST(Tree, NodeCapStopsGrowthButSearchContinues) {
  SearchConfig config;
  config.max_nodes = 12;  // root + 9 children + almost nothing else
  Tree<TicTacToe> tree(TicTacToe::initial_state(), config, 3);
  for (int i = 0; i < 50; ++i) {
    const auto sel = tree.select();
    tree.backpropagate(sel.node, 0.5, 1);
  }
  EXPECT_LE(tree.node_count(), 12u);
  EXPECT_EQ(tree.root_visits(), 50u);
}

TEST(Tree, TerminalSelectionIsFlagged) {
  // Drive a Tic-Tac-Toe tree with real playout values (so UCB concentrates
  // on forcing lines) until selections reach terminal states.
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 11);
  util::XorShift128Plus rng(11);
  bool saw_terminal = false;
  for (int i = 0; i < 3000 && !saw_terminal; ++i) {
    const auto sel = tree.select();
    saw_terminal = sel.terminal;
    const double v =
        sel.terminal
            ? game::value_of(
                  TicTacToe::outcome_for(sel.state, game::Player::kFirst))
            : random_playout<TicTacToe>(sel.state, rng).value_first;
    tree.backpropagate(sel.node, v, 1);
  }
  EXPECT_TRUE(saw_terminal);
  // Terminal flag must agree with the game rules at the selected state.
}

TEST(Tree, UcbSelectionPrefersUnvisitedChildren) {
  // Regression: children can legitimately carry zero visits when UCB
  // selection runs (hybrid overlap iterations between kernel launch and
  // backpropagation; fault-failed rounds losing their updates). The old
  // argmax computed 0/0 = NaN for such children; every NaN comparison is
  // false, so the argmax silently degraded to "first child" — the one
  // visited arm — instead of trying an unvisited one.
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 5);
  std::vector<NodeIndex> selected;
  for (int i = 0; i < 9; ++i) {
    const Selection<TicTacToe> sel = tree.select();
    EXPECT_EQ(sel.depth, 1u);
    selected.push_back(sel.node);
  }
  // Only the first child's playout ever lands: the other eight stay at
  // zero visits while selection must keep descending.
  tree.backpropagate(selected.front(), 1.0, 1);

  const Selection<TicTacToe> sel = tree.select();
  NodeIndex ancestor = sel.node;
  while (tree.node(ancestor).parent != 0) {
    ancestor = tree.node(ancestor).parent;
  }
  // First-play urgency: an unvisited arm has an infinite confidence bound,
  // so selection must descend one of the zero-visit children — not funnel
  // into the lone visited child via NaN-poisoned scores.
  EXPECT_NE(ancestor, selected.front());
  EXPECT_EQ(tree.node(ancestor).visits, 0u);
}

TEST(Tree, VirtualLossRoundTripsBitwise) {
  // apply + remove with the same leaf and amount must restore the arena's
  // stored bytes exactly — any residue would silently skew the robust-child
  // ranking of best_move()/root_child_stats().
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 13);
  for (int i = 0; i < 40; ++i) {
    const auto sel = tree.select();
    tree.backpropagate(sel.node, 0.5, 1);
  }
  const auto sel = tree.select();
  const std::size_t bytes = tree.node_count() * sizeof(Node<TicTacToe>);
  std::vector<unsigned char> before(bytes);
  std::memcpy(before.data(), &tree.node(0), bytes);

  EXPECT_EQ(tree.outstanding_virtual_loss(), 0u);
  tree.apply_virtual_loss(sel.node, 3);
  EXPECT_EQ(tree.outstanding_virtual_loss(), 3u);
  tree.remove_virtual_loss(sel.node, 3);
  EXPECT_EQ(tree.outstanding_virtual_loss(), 0u);

  std::vector<unsigned char> after(bytes);
  std::memcpy(after.data(), &tree.node(0), bytes);
  EXPECT_EQ(std::memcmp(before.data(), after.data(), bytes), 0);
  tree.backpropagate(sel.node, 0.5, 1);  // balance the open selection
}

TEST(Tree, RemoveVirtualLossRejectsOverdraw) {
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 13);
  const auto sel = tree.select();
  tree.apply_virtual_loss(sel.node, 1);
  EXPECT_THROW(tree.remove_virtual_loss(sel.node, 2),
               util::ContractViolation);
  tree.remove_virtual_loss(sel.node, 1);
  tree.backpropagate(sel.node, 0.5, 1);
}

#ifdef GPU_MCTS_SANITIZE_ENABLED
TEST(Tree, OutstandingLossTripsReadChecksInSanitizeBuilds) {
  // The read APIs rank children by visit counts; an outstanding virtual
  // loss inflates those counts, so sanitize builds refuse to read through
  // one instead of silently returning a skewed answer.
  Tree<TicTacToe> tree(TicTacToe::initial_state(), {}, 17);
  for (int i = 0; i < 20; ++i) {
    const auto sel = tree.select();
    tree.backpropagate(sel.node, 0.5, 1);
  }
  const auto sel = tree.select();
  tree.apply_virtual_loss(sel.node, 1);
  EXPECT_THROW((void)tree.best_move(), util::ContractViolation);
  EXPECT_THROW((void)tree.root_child_stats(), util::ContractViolation);
  tree.remove_virtual_loss(sel.node, 1);
  tree.backpropagate(sel.node, 0.5, 1);
  EXPECT_NO_THROW((void)tree.best_move());
  EXPECT_NO_THROW((void)tree.root_child_stats());
}
#endif

TEST(Tree, ResetClearsState) {
  Tree<ReversiGame> tree(ReversiGame::initial_state(), {}, 3);
  for (int i = 0; i < 10; ++i) {
    const auto sel = tree.select();
    tree.backpropagate(sel.node, 0.5, 1);
  }
  EXPECT_GT(tree.node_count(), 1u);
  tree.reset(ReversiGame::initial_state());
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.root_visits(), 0u);
  EXPECT_EQ(tree.max_depth(), 0u);
}

}  // namespace
}  // namespace gpu_mcts::mcts
