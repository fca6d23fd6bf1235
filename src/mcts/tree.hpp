// The MCTS game tree: arena-allocated nodes, UCB1 selection, one-node
// expansion per iteration, and (wins, visits) backpropagation — the four
// steps of the paper's Figure 1.
//
// Conventions:
//  * Playout values are always expressed for Player::kFirst (black); a node
//    stores wins from the perspective of the player who *made* its incoming
//    move, so backpropagation flips the value per level implicitly via the
//    stored mover.
//  * Children are allocated en bloc (shuffled) the first time a node is
//    selected through; "expansion adds one node per iteration" is realized by
//    visiting one previously-unvisited child per selection pass.
//  * States are not stored in nodes: selection replays moves from the root,
//    which for bitboard Reversi is cheaper than the memory traffic of cached
//    states and keeps nodes at 32 bytes.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/config.hpp"
#include "mcts/transposition.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::mcts {

using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNoNode = std::numeric_limits<NodeIndex>::max();

template <game::Game G>
struct Node {
  NodeIndex parent = kNoNode;
  NodeIndex first_child = kNoNode;
  std::uint16_t num_children = 0;
  /// Children [0, next_unexpanded) have been visited at least once.
  std::uint16_t next_unexpanded = 0;
  typename G::Move move{};
  /// Player who played `move` to reach this node.
  game::Player mover = game::Player::kSecond;
  /// True once children were allocated (or the node is terminal). A node
  /// that hit the arena's max_nodes cap stays *un*expanded: a playout leaf
  /// whose expansion is re-attempted on each visit.
  bool expanded = false;
  std::uint32_t visits = 0;
  /// Win credit for `mover` (draws count 0.5).
  double wins = 0.0;
  /// Sum of squared per-playout values from `mover`'s perspective —
  /// the variance input of UCB1-Tuned selection.
  double win_squares = 0.0;
};

/// Result of one selection pass.
template <game::Game G>
struct Selection {
  NodeIndex node = kNoNode;
  typename G::State state{};
  /// Depth of `node` below the root.
  std::uint32_t depth = 0;
  bool terminal = false;
};

template <game::Game G>
class Tree {
 public:
  using State = typename G::State;
  using Move = typename G::Move;

  Tree(const State& root_state, const SearchConfig& config,
       std::uint64_t seed)
      : config_(config), rng_(seed) {
    reset(root_state);
  }

  /// Reinitializes the tree on a new root position.
  void reset(const State& root_state) {
    nodes_.clear();
    // A move's search touches about 10-12 nodes per tree on the GPU grids
    // (tree_nodes_per_op / trees, block:112x128 and hybrid:448x32), so 16
    // covers it at 640 B a tree. Longer searches grow the arena
    // geometrically.
    nodes_.reserve(16);
    root_state_ = root_state;
    max_depth_ = 0;
    outstanding_virtual_loss_ = 0;
    Node<G> root;
    root.mover = game::opponent_of(G::player_to_move(root_state));
    nodes_.push_back(root);
    hashes_.clear();
    if (config_.transposition != nullptr) {
      hashes_.push_back(G::hash(root_state));
    }
  }

  /// One selection + (implicit) expansion pass: descends by UCB, visiting an
  /// unvisited child when one exists, and returns the playout start node.
  [[nodiscard]] Selection<G> select() {
    Selection<G> sel;
    sel.node = 0;
    sel.state = root_state_;
    for (;;) {
      if (G::is_terminal(sel.state)) {
        sel.terminal = true;
        break;
      }
      Node<G>& node = nodes_[sel.node];
      if (!node.expanded) {
        expand(sel.node, sel.state);
      }
      Node<G>& fresh = nodes_[sel.node];  // expand may reallocate
      if (fresh.num_children == 0) {
        // Node pool exhausted: treat as playout leaf.
        break;
      }
      NodeIndex next;
      if (fresh.next_unexpanded < fresh.num_children) {
        next = fresh.first_child + fresh.next_unexpanded;
        ++nodes_[sel.node].next_unexpanded;
        sel.state = G::apply(sel.state, nodes_[next].move);
        sel.node = next;
        ++sel.depth;
        // Newly expanded node: stop and play out from here (flagging
        // terminal states so callers can score them exactly).
        sel.terminal = G::is_terminal(sel.state);
        break;
      }
      next = best_ucb_child(sel.node);
      sel.state = G::apply(sel.state, nodes_[next].move);
      sel.node = next;
      ++sel.depth;
    }
    if (sel.depth > max_depth_) max_depth_ = sel.depth;
    return sel;
  }

  /// Adds `sims` visits along the path to the root. `value_first_sum` is the
  /// summed playout value for Player::kFirst over those sims;
  /// `value_sq_first_sum` the summed squares (for UCB1-Tuned variance
  /// estimates). The default (= value sum) is exact for win/loss outcomes
  /// and a slight overestimate for draws, which only makes UCB1-Tuned
  /// marginally more exploratory — callers with exact squares pass them.
  void backpropagate(NodeIndex leaf, double value_first_sum,
                     std::uint32_t sims = 1,
                     double value_sq_first_sum = -1.0) {
    util::expects(leaf < nodes_.size(), "backpropagate into live node");
    util::expects(value_first_sum >= 0.0 &&
                      value_first_sum <= static_cast<double>(sims),
                  "value sum within [0, sims]");
    if (value_sq_first_sum < 0.0) value_sq_first_sum = value_first_sum;
    const double n_d = static_cast<double>(sims);
    for (NodeIndex n = leaf; n != kNoNode; n = nodes_[n].parent) {
      Node<G>& node = nodes_[n];
      node.visits += sims;
      if (node.mover == game::Player::kFirst) {
        node.wins += value_first_sum;
        node.win_squares += value_sq_first_sum;
      } else {
        node.wins += n_d - value_first_sum;
        // sum (1-x)^2 = sims - 2*sum x + sum x^2
        node.win_squares += n_d - 2.0 * value_first_sum + value_sq_first_sum;
      }
    }
    if (TranspositionTable* tt = config_.transposition; tt != nullptr) {
      // Feed *deltas only* into the shared table — priors seeded at
      // expansion are already in there, so re-storing node totals would
      // double-count. Playout values are multiples of 0.5, so 2x the sum
      // is an exact integer half-point count.
      const auto half_first =
          static_cast<std::uint64_t>(std::llround(value_first_sum * 2.0));
      std::uint8_t hint = TranspositionTable::kNoHint;
      for (NodeIndex n = leaf; n != kNoNode; n = nodes_[n].parent) {
        const Node<G>& node = nodes_[n];
        // Table entries score the *side to move* at the keyed position —
        // the opponent of node.mover.
        const std::uint64_t half_stm = node.mover == game::Player::kFirst
                                           ? 2ull * sims - half_first
                                           : half_first;
        tt->store(hashes_[n], sims, half_stm, hint);
        // The parent's hint is the move just walked: the move *into* n.
        hint = static_cast<std::uint8_t>(node.move);
      }
    }
  }

  /// Temporarily charges `amount` visits (with no wins) along the path to
  /// the root — the *virtual loss* of tree parallelism: in-flight selections
  /// look like losses so concurrent workers spread across the tree.
  void apply_virtual_loss(NodeIndex leaf, std::uint32_t amount) {
    util::expects(leaf < nodes_.size(), "virtual loss on live node");
    outstanding_virtual_loss_ += amount;
    for (NodeIndex n = leaf; n != kNoNode; n = nodes_[n].parent) {
      nodes_[n].visits += amount;
    }
  }

  /// Reverts apply_virtual_loss (must be called with the same leaf/amount).
  void remove_virtual_loss(NodeIndex leaf, std::uint32_t amount) {
    util::expects(leaf < nodes_.size(), "virtual loss on live node");
    util::expects(outstanding_virtual_loss_ >= amount,
                  "virtual loss balance");
    outstanding_virtual_loss_ -= amount;
    for (NodeIndex n = leaf; n != kNoNode; n = nodes_[n].parent) {
      util::expects(nodes_[n].visits >= amount, "virtual loss balance");
      nodes_[n].visits -= amount;
    }
  }

  /// Total virtual-loss visits currently applied and not yet removed. The
  /// read APIs below require this to be zero — a leaked loss silently skews
  /// the visit ranking — so sanitize builds assert it at those points.
  [[nodiscard]] std::uint64_t outstanding_virtual_loss() const noexcept {
    return outstanding_virtual_loss_;
  }

  /// The move with the most visits at the root (ties broken by win rate) —
  /// the standard "robust child" final selection.
  [[nodiscard]] Move best_move() const {
#ifdef GPU_MCTS_SANITIZE_ENABLED
    util::check(outstanding_virtual_loss_ == 0,
                "no outstanding virtual losses at best_move");
#endif
    const Node<G>& root = nodes_[0];
    util::check(root.num_children > 0, "best_move needs an expanded root");
    NodeIndex best = root.first_child;
    for (NodeIndex c = root.first_child;
         c < root.first_child + root.num_children; ++c) {
      const Node<G>& cand = nodes_[c];
      const Node<G>& incumbent = nodes_[best];
      if (cand.visits > incumbent.visits ||
          (cand.visits == incumbent.visits &&
           win_rate(cand) > win_rate(incumbent))) {
        best = c;
      }
    }
    return nodes_[best].move;
  }

  /// Per-root-child (move, visits, wins) rows — what root parallelism sums
  /// across trees ("the root node has to be updated by summing up results
  /// from all other trees", paper §II.4).
  struct RootChildStat {
    Move move{};
    std::uint32_t visits = 0;
    double wins = 0.0;
  };

  [[nodiscard]] std::vector<RootChildStat> root_child_stats() const {
#ifdef GPU_MCTS_SANITIZE_ENABLED
    util::check(outstanding_virtual_loss_ == 0,
                "no outstanding virtual losses at root_child_stats");
#endif
    std::vector<RootChildStat> out;
    const Node<G>& root = nodes_[0];
    out.reserve(root.num_children);
    for (NodeIndex c = root.first_child;
         c < root.first_child + root.num_children; ++c) {
      out.push_back({nodes_[c].move, nodes_[c].visits, nodes_[c].wins});
    }
    return out;
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::uint32_t max_depth() const noexcept { return max_depth_; }
  [[nodiscard]] std::uint32_t root_visits() const noexcept {
    return nodes_[0].visits;
  }
  [[nodiscard]] const State& root_state() const noexcept {
    return root_state_;
  }
  [[nodiscard]] const Node<G>& node(NodeIndex i) const {
    return nodes_.at(i);
  }

 private:
  static double win_rate(const Node<G>& n) noexcept {
    return n.visits > 0 ? n.wins / static_cast<double>(n.visits) : 0.0;
  }

  /// Generates legal moves (shuffled) and allocates all children.
  void expand(NodeIndex index, const State& state) {
    std::array<Move, static_cast<std::size_t>(G::kMaxMoves)> moves{};
    const int n = G::legal_moves(state, std::span(moves));
    if (n == 0) {
      // Terminal (select() normally catches this earlier): permanently a
      // leaf, so remember the verdict.
      nodes_[index].expanded = true;
      return;
    }
    if (nodes_.size() + static_cast<std::size_t>(n) > config_.max_nodes) {
      // Pool cap: a *capped* node is not expanded — it stays a playout
      // leaf. The re-attempt on its next visit draws no RNG (the shuffle
      // below only runs on success), so it perturbs no stream.
      return;
    }
    nodes_[index].expanded = true;
    // Shuffle so unvisited-child order is unbiased (Fisher-Yates).
    for (int i = n - 1; i > 0; --i) {
      const auto j = static_cast<int>(
          rng_.next_below(static_cast<std::uint32_t>(i + 1)));
      std::swap(moves[i], moves[j]);
    }
    TranspositionTable* tt = config_.transposition;
    if (tt != nullptr) {
      // Front-load the table's best-move hint so it is the first unvisited
      // child tried. Done *after* the shuffle — the RNG stream stays
      // identical with and without a table attached.
      if (const auto here = tt->probe(hashes_[index]);
          here && here->move_hint != TranspositionTable::kNoHint) {
        for (int i = 0; i < n; ++i) {
          if (static_cast<std::uint8_t>(moves[i]) == here->move_hint) {
            std::swap(moves[0], moves[i]);
            break;
          }
        }
      }
    }
    const auto first = static_cast<NodeIndex>(nodes_.size());
    const game::Player mover = G::player_to_move(state);
    for (int i = 0; i < n; ++i) {
      Node<G> child;
      child.parent = index;
      child.move = moves[i];
      child.mover = mover;
      if (tt != nullptr) {
        const State child_state = G::apply(state, moves[i]);
        const std::uint64_t h = G::hash(child_state);
        hashes_.push_back(h);
        if (const auto hit = tt->probe(h); hit && hit->visits > 0) {
          // Seed the child with a capped prior. Table wins score the side
          // to move at child_state (the opponent of `mover`), so the
          // node's mover-perspective wins are the complement. The scaled
          // half-point total is re-expressed in points (x0.5).
          const std::uint32_t sv = hit->visits < kTtSeedVisitCap
                                       ? hit->visits
                                       : kTtSeedVisitCap;
          const double stm_points = static_cast<double>(hit->wins_half) *
                                    (static_cast<double>(sv) /
                                     static_cast<double>(hit->visits)) /
                                    2.0;
          child.visits = sv;
          child.wins = static_cast<double>(sv) - stm_points;
          // Win/loss-shaped prior (values in {0,1}): squares = wins.
          child.win_squares = child.wins;
        }
      }
      nodes_.push_back(child);
    }
    nodes_[index].first_child = first;
    nodes_[index].num_children = static_cast<std::uint16_t>(n);
    nodes_[index].next_unexpanded = 0;
  }

  /// Selection-bound argmax over the children of `index`. Children are
  /// normally all visited by the time this runs, but a child can legitimately
  /// carry zero visits: in the hybrid scheme the GPU round's selections sit
  /// un-backpropagated while overlap iterations descend the same tree, and a
  /// fault-failed round loses its backpropagation entirely. Such children are
  /// preferred outright (first-play urgency — an unvisited arm has an
  /// infinite upper confidence bound); dividing by their zero visit count
  /// would produce NaN scores that silently degrade the argmax to "first
  /// child".
  [[nodiscard]] NodeIndex best_ucb_child(NodeIndex index) const {
    const Node<G>& node = nodes_[index];
    const double log_parent =
        std::log(static_cast<double>(std::max(1u, node.visits)));
    NodeIndex best = node.first_child;
    double best_score = -1.0;
    for (NodeIndex c = node.first_child;
         c < node.first_child + node.num_children; ++c) {
      const Node<G>& child = nodes_[c];
      if (child.visits == 0) return c;
      const double v = static_cast<double>(child.visits);
      const double mean = child.wins / v;
      double explore;
      if (config_.selection == SelectionPolicy::kUcb1Tuned) {
        // Auer et al.: cap the per-arm variance bound at 1/4 (Bernoulli max).
        const double variance =
            std::max(0.0, child.win_squares / v - mean * mean);
        const double bound =
            variance + std::sqrt(2.0 * log_parent / v);
        explore = std::sqrt(log_parent / v * std::min(0.25, bound));
      } else {
        explore = std::sqrt(log_parent / v);
      }
      const double score = mean + config_.ucb_c * explore;
#ifdef GPU_MCTS_SANITIZE_ENABLED
      util::check(!std::isnan(score), "UCB score must not be NaN");
#endif
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    return best;
  }

  /// Cap on transposition-seeded prior visits: enough to steer early
  /// selection, small enough that live search evidence overturns a wrong
  /// (or stale) prior within a few dozen iterations.
  static constexpr std::uint32_t kTtSeedVisitCap = 64;

  SearchConfig config_;
  util::XorShift128Plus rng_;
  std::vector<Node<G>> nodes_;
  /// Per-node position hashes, maintained (parallel to nodes_) only when
  /// config_.transposition is attached; empty otherwise.
  std::vector<std::uint64_t> hashes_;
  State root_state_{};
  std::uint32_t max_depth_ = 0;
  /// Applied-but-not-removed virtual-loss visits (see apply_virtual_loss).
  std::uint64_t outstanding_virtual_loss_ = 0;
};

}  // namespace gpu_mcts::mcts
