// The per-ISA variants behind the dispatched Reversi ply (DESIGN.md §17.4).
//
// Callers use the dispatched entry points (legal_moves_mask_batch and
// flips_for_moves_batch in bitboard.hpp, playout_ply and playout_ply_batch
// in reversi_game.hpp). This header exists so tests can run every variant
// the host supports directly, side by side, without a runtime switch in the
// program.
#pragma once

#include <cstdint>
#include <span>

#include "reversi/reversi_game.hpp"

namespace gpu_mcts::reversi::detail {

/// One compiled variant of the shared ply body.
struct PlyVariant {
  /// "avx512f", "avx2" or "default": the names perfbench's batch_isa uses.
  const char* isa;
  /// The host has every instruction set the variant was compiled for.
  bool host_runs;
  void (*legal_moves_mask_batch)(const Bitboard*, const Bitboard*, Bitboard*,
                                 int) noexcept;
  void (*flips_for_moves_batch)(const Bitboard*, const Bitboard*,
                                const Bitboard*, Bitboard*, int) noexcept;
  /// The k-th lowest set bit of `moves` as a one-bit board; k < popcount.
  Bitboard (*select_kth)(Bitboard moves, std::uint32_t k) noexcept;
  bool (*ply_xorshift)(Position&, util::XorShift128Plus&) noexcept;
  bool (*ply_counter)(Position&, util::CounterRng&) noexcept;
  std::uint32_t (*ply_batch)(PlyLanes&, std::uint32_t,
                             util::CounterRng*) noexcept;
};

/// Every variant this build compiled, widest instruction set first. The
/// dispatched entry points are bound to the first one the host runs.
[[nodiscard]] std::span<const PlyVariant> ply_variants() noexcept;

}  // namespace gpu_mcts::reversi::detail
