// 64-bit bitboard primitives for Reversi.
//
// Square numbering: bit i = file + 8*rank, a1 = 0, h1 = 7, a8 = 56, h8 = 63.
// Direction shifts mask off the wrapping file so east/west rays never leak
// across board edges. Move generation uses the classic Kogge-Stone flood:
// propagate from own discs through opponent discs, then step once more into
// empty squares.
//
// The scalar primitives are constexpr and branch-light: the playout ply
// (reversi_game.hpp) inlines them, scalar and batched.
#pragma once

#include <bit>
#include <cstdint>

namespace gpu_mcts::reversi {

using Bitboard = std::uint64_t;

inline constexpr Bitboard kFileA = 0x0101010101010101ULL;
inline constexpr Bitboard kFileH = 0x8080808080808080ULL;
inline constexpr Bitboard kAll = ~0ULL;

inline constexpr int kBoardSize = 8;
inline constexpr int kSquares = 64;

/// The eight ray directions.
enum class Direction : std::uint8_t {
  kNorth, kSouth, kEast, kWest, kNorthEast, kNorthWest, kSouthEast, kSouthWest
};

inline constexpr Direction kAllDirections[] = {
    Direction::kNorth,     Direction::kSouth,     Direction::kEast,
    Direction::kWest,      Direction::kNorthEast, Direction::kNorthWest,
    Direction::kSouthEast, Direction::kSouthWest,
};

/// One step in a direction, with edge masking.
[[nodiscard]] constexpr Bitboard shift(Bitboard b, Direction d) noexcept {
  switch (d) {
    case Direction::kNorth: return b << 8;
    case Direction::kSouth: return b >> 8;
    case Direction::kEast: return (b & ~kFileH) << 1;
    case Direction::kWest: return (b & ~kFileA) >> 1;
    case Direction::kNorthEast: return (b & ~kFileH) << 9;
    case Direction::kNorthWest: return (b & ~kFileA) << 7;
    case Direction::kSouthEast: return (b & ~kFileH) >> 7;
    case Direction::kSouthWest: return (b & ~kFileA) >> 9;
  }
  return 0;
}

[[nodiscard]] constexpr int popcount(Bitboard b) noexcept {
  return std::popcount(b);
}

/// Index of the lowest set bit; b must be non-zero.
[[nodiscard]] constexpr int lsb_index(Bitboard b) noexcept {
  return std::countr_zero(b);
}

/// Clears and returns the lowest set bit's index.
constexpr int pop_lsb(Bitboard& b) noexcept {
  const int idx = lsb_index(b);
  b &= b - 1;
  return idx;
}

[[nodiscard]] constexpr Bitboard square_bit(int square) noexcept {
  return 1ULL << square;
}

[[nodiscard]] constexpr int file_of(int square) noexcept { return square & 7; }
[[nodiscard]] constexpr int rank_of(int square) noexcept { return square >> 3; }
[[nodiscard]] constexpr int square_at(int file, int rank) noexcept {
  return rank * 8 + file;
}

/// All squares where `own` can legally place a disc given `opp` occupancy.
[[nodiscard]] constexpr Bitboard legal_moves_mask(Bitboard own,
                                                  Bitboard opp) noexcept {
  const Bitboard empty = ~(own | opp);
  Bitboard moves = 0;
  for (const Direction d : kAllDirections) {
    // Flood own discs through up to six opponent discs, then one more step
    // lands on the capturing square (which must be empty).
    Bitboard flood = shift(own, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    moves |= shift(flood, d) & empty;
  }
  return moves;
}

/// Discs flipped by playing on `square` (a single-bit board). Returns 0 when
/// the move captures nothing (i.e. it is illegal).
///
/// Implementation: the dual of legal_moves_mask — flood the placed disc
/// through opponent discs in each direction, then commit the ray only if one
/// more step lands on an own disc. Branch-free per direction; this is the
/// hot instruction stream of every playout ply.
[[nodiscard]] constexpr Bitboard flips_for_move(Bitboard own, Bitboard opp,
                                                int square) noexcept {
  const Bitboard placed = square_bit(square);
  Bitboard flips = 0;
  for (const Direction d : kAllDirections) {
    Bitboard flood = shift(placed, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    flood |= shift(flood, d) & opp;
    // Bracketed iff the next step past the flood hits an own disc.
    if ((shift(flood, d) & own) != 0) flips |= flood;
  }
  return flips;
}

// ---------------------------------------------------------------------------
// Structure-of-arrays batch primitives (DESIGN.md §17).
//
// The same Kogge-Stone floods as above, but over parallel arrays of
// positions: direction-outer, lane-inner loops whose bodies are pure bitwise
// dataflow, so the compiler autovectorizes the lane loop (8 u64 lanes per
// AVX-512 register, 4 per AVX2). The scalar bracket branch in
// flips_for_move becomes a `0 - (cond)` select mask — branch-free, so one
// lane's divergence never serializes the batch.
//
// They are compiled out-of-line in bitboard_batch.cpp together with the
// playout ply that inlines them, and bound at load time to the host's
// best ISA variant (reversi_game.hpp, DESIGN.md §17.4).
// ---------------------------------------------------------------------------

/// moves[i] = legal_moves_mask(own[i], opp[i]) for n lanes.
void legal_moves_mask_batch(const Bitboard* own, const Bitboard* opp,
                            Bitboard* moves, int n) noexcept;

/// flips[i] = the discs flipped by placing placed[i] (a single-bit board;
/// 0 yields 0 flips) against own[i]/opp[i], for n lanes.
void flips_for_moves_batch(const Bitboard* own, const Bitboard* opp,
                           const Bitboard* placed, Bitboard* flips,
                           int n) noexcept;

/// 8-fold board symmetry transforms, used by property tests to check that
/// move generation commutes with symmetry.
[[nodiscard]] constexpr Bitboard mirror_horizontal(Bitboard b) noexcept {
  constexpr Bitboard k1 = 0x5555555555555555ULL;
  constexpr Bitboard k2 = 0x3333333333333333ULL;
  constexpr Bitboard k4 = 0x0f0f0f0f0f0f0f0fULL;
  b = ((b >> 1) & k1) | ((b & k1) << 1);
  b = ((b >> 2) & k2) | ((b & k2) << 2);
  b = ((b >> 4) & k4) | ((b & k4) << 4);
  return b;
}

[[nodiscard]] constexpr Bitboard byteswap_board(Bitboard b) noexcept {
  b = ((b >> 8) & 0x00ff00ff00ff00ffULL) | ((b & 0x00ff00ff00ff00ffULL) << 8);
  b = ((b >> 16) & 0x0000ffff0000ffffULL) | ((b & 0x0000ffff0000ffffULL) << 16);
  b = (b >> 32) | (b << 32);
  return b;
}

[[nodiscard]] constexpr Bitboard mirror_vertical(Bitboard b) noexcept {
  return byteswap_board(b);
}

[[nodiscard]] constexpr Bitboard transpose_board(Bitboard b) noexcept {
  Bitboard t = (b ^ (b >> 7)) & 0x00aa00aa00aa00aaULL;
  b ^= t ^ (t << 7);
  t = (b ^ (b >> 14)) & 0x0000cccc0000ccccULL;
  b ^= t ^ (t << 14);
  t = (b ^ (b >> 28)) & 0x00000000f0f0f0f0ULL;
  b ^= t ^ (t << 28);
  return b;
}

}  // namespace gpu_mcts::reversi
