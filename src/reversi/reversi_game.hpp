// Adapter exposing the Reversi engine through the Game concept consumed by
// the MCTS core and the SIMT playout kernel.
#pragma once

#include <cstdint>
#include <span>

#include "game/game_traits.hpp"
#include "reversi/position.hpp"
#include "reversi/zobrist.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::reversi {

// ---------------------------------------------------------------------------
// The playout ply, scalar and batched (DESIGN.md §17.4).
//
// Both are compiled out-of-line in bitboard_batch.cpp, which builds one
// shared body three times (AVX-512, AVX2, baseline x86-64) and binds each
// entry point to the best variant the host runs once, at load time. Every
// variant holds the whole ply: both Kogge-Stone floods, a hardware popcnt,
// the RNG draw, the k-th-move select and the apply. Only the AVX-512
// variant selects with pdep; the others clear the k lowest bits one by one,
// because Zen 1/2 run pdep in microcode and have no AVX-512 anyway. The
// scalar ply lives in the same unit as the batched one: a build that moved
// only the batched ply ran the shared-tree searcher ~10% slower, a
// code-layout effect, although no function that searcher calls changed.
// ---------------------------------------------------------------------------

/// Lane count of the batched ply: one SIMT warp.
inline constexpr int kPlyLanes = 32;

/// Structure-of-arrays lanes of the batched ply, each position held in its
/// side-to-move frame (own/opp), which makes apply a pure swap-and-mask:
/// own' = opp & ~flips, opp' = own | flips | placed. A pass is the same
/// dataflow with zero flips and placement, so pass lanes ride the batched
/// apply instead of diverging.
struct PlyLanes {
  Bitboard own[kPlyLanes];
  Bitboard opp[kPlyLanes];
  std::uint8_t to_move[kPlyLanes];
};

/// Advances `s` by one uniformly random legal move: the k-th set bit of the
/// placement mask, k = rng.next_below(n), drawn only when n >= 2. A blocked
/// mover passes without a draw. Returns false (state unchanged) when
/// neither side can move.
[[nodiscard]] bool playout_ply(Position& s, util::XorShift128Plus& rng) noexcept;
[[nodiscard]] bool playout_ply(Position& s, util::CounterRng& rng) noexcept;

/// playout_ply on every lane in `mask`, each with its own rngs[lane] stream:
/// the same draws, moves and resulting states as the scalar ply, lane by
/// lane. Returns the lanes that advanced; a terminal lane drops out with
/// its state untouched, and lanes outside `mask` are preserved bit for bit.
[[nodiscard]] std::uint32_t playout_ply_batch(PlyLanes& l, std::uint32_t mask,
                                              util::CounterRng* rngs) noexcept;

class ReversiGame {
 public:
  using State = Position;
  using Move = reversi::Move;

  /// 33 placements is impossible; 32 empties reachable mid-game is a safe
  /// bound, and +1 leaves room for the pass move representation.
  static constexpr int kMaxMoves = 33;
  /// 60 placements + worst-case interleaved passes.
  static constexpr int kMaxGameLength = 80;

  [[nodiscard]] static State initial_state() noexcept {
    return initial_position();
  }

  [[nodiscard]] static int legal_moves(const State& s,
                                       std::span<Move> out) noexcept {
    return reversi::legal_moves(s, out);
  }

  [[nodiscard]] static State apply(const State& s, Move m) noexcept {
    return apply_move(s, m);
  }

  [[nodiscard]] static bool is_terminal(const State& s) noexcept {
    return reversi::is_terminal(s);
  }

  [[nodiscard]] static game::Player player_to_move(const State& s) noexcept {
    return static_cast<game::Player>(s.to_move);
  }

  [[nodiscard]] static game::Outcome outcome_for(const State& s,
                                                 game::Player p) noexcept {
    return reversi::outcome_for(s, p);
  }

  [[nodiscard]] static int score_difference(const State& s,
                                            game::Player p) noexcept {
    return disc_difference(s, p);
  }

  [[nodiscard]] static std::uint64_t hash(const State& s) noexcept {
    return Zobrist::hash(s);
  }

  /// Fast playout step (optional Game extension, detected by the playout
  /// code): advances `s` by one uniformly random legal move without
  /// materializing a move list. Returns false (state unchanged) when
  /// terminal. Reversi's playouts draw from exactly these two engines (CPU
  /// searchers and the scalar warp interpreter), and both forward to the
  /// ISA-dispatched playout_ply.
  [[nodiscard]] static bool playout_step(State& s,
                                         util::XorShift128Plus& rng) noexcept {
    return playout_ply(s, rng);
  }
  [[nodiscard]] static bool playout_step(State& s,
                                         util::CounterRng& rng) noexcept {
    return playout_ply(s, rng);
  }

  /// Batched playout traits (game::BatchedGameWith, DESIGN.md §17): a
  /// 32-lane structure-of-arrays mirror of playout_step over the kernel's
  /// CounterRng streams, forwarding to playout_ply_batch.
  struct Batched {
    static constexpr int kWidth = kPlyLanes;
    using Lanes = PlyLanes;

    static void load(Lanes& l, int lane, const Position& s) noexcept {
      l.own[lane] = s.own();
      l.opp[lane] = s.opp();
      l.to_move[lane] = s.to_move;
    }

    [[nodiscard]] static Position extract(const Lanes& l, int lane) noexcept {
      Position s;
      s.discs[l.to_move[lane]] = l.own[lane];
      s.discs[1 - l.to_move[lane]] = l.opp[lane];
      s.to_move = l.to_move[lane];
      return s;
    }

    [[nodiscard]] static std::uint32_t step(Lanes& l, std::uint32_t mask,
                                            util::CounterRng* rngs) noexcept {
      return playout_ply_batch(l, mask, rngs);
    }
  };
};

static_assert(game::Game<ReversiGame>);

}  // namespace gpu_mcts::reversi
