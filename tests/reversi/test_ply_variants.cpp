// Every compiled ISA variant of the Reversi ply that this host can run,
// checked lane for lane against the ply as it was written before it moved
// into the dispatched unit (the reference bodies below), plus the flood
// primitives and the k-th-move select on edge boards.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "reversi/bitboard.hpp"
#include "reversi/ply_variants.hpp"
#include "reversi/position.hpp"
#include "reversi/reversi_game.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::reversi {
namespace {

using detail::PlyVariant;

// ---------------------------------------------------------------------------
// Reference: the header-inline playout_step and Batched::step bodies the
// dispatched ply replaced, with the batch floods spelled out per lane
// through the scalar primitives.

template <typename Rng>
bool reference_ply(Position& s, Rng& rng) {
  Bitboard mask = placement_mask(s);
  if (mask == 0) {
    if (legal_moves_mask(s.opp(), s.own()) == 0) return false;  // terminal
    s = apply_move(s, kPassMove);
    return true;
  }
  const int n = popcount(mask);
  if (n > 1) {
    for (auto k = rng.next_below(static_cast<std::uint32_t>(n)); k > 0; --k) {
      mask &= mask - 1;
    }
  }
  s = apply_move(s, static_cast<Move>(lsb_index(mask)));
  return true;
}

std::uint32_t reference_ply_batch(PlyLanes& l, std::uint32_t mask,
                                  util::CounterRng* rngs) {
  Bitboard moves[kPlyLanes];
  for (int i = 0; i < kPlyLanes; ++i) {
    moves[i] = legal_moves_mask(l.own[i], l.opp[i]);
  }
  Bitboard placed[kPlyLanes] = {};
  std::uint32_t advanced = mask;
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    Bitboard pick = moves[lane];
    if (pick == 0) {
      if (legal_moves_mask(l.opp[lane], l.own[lane]) == 0) {
        advanced &= ~(1u << lane);
      }
      continue;
    }
    const int n = popcount(pick);
    if (n > 1) {
      for (auto k = rngs[lane].next_below(static_cast<std::uint32_t>(n));
           k > 0; --k) {
        pick &= pick - 1;
      }
    }
    placed[lane] = pick & (~pick + 1);
  }
  Bitboard flips[kPlyLanes];
  for (int i = 0; i < kPlyLanes; ++i) {
    flips[i] = placed[i] == 0
                   ? 0
                   : flips_for_move(l.own[i], l.opp[i], lsb_index(placed[i]));
  }
  for (int i = 0; i < kPlyLanes; ++i) {
    const Bitboard sel = static_cast<Bitboard>(0) -
                         static_cast<Bitboard>((advanced >> i) & 1u);
    const Bitboard next_own = l.opp[i] & ~flips[i];
    const Bitboard next_opp = l.own[i] | flips[i] | placed[i];
    l.own[i] = (next_own & sel) | (l.own[i] & ~sel);
    l.opp[i] = (next_opp & sel) | (l.opp[i] & ~sel);
    l.to_move[i] ^= static_cast<std::uint8_t>((advanced >> i) & 1u);
  }
  return advanced;
}

// ---------------------------------------------------------------------------
// Inputs

/// c1 to move against a1+b1: the mover is blocked (its only ray runs off
/// the board), the opponent can play d1 — a forced pass.
Position pass_position() {
  Position p;
  p.discs[0] = square_bit(square_at(2, 0));
  p.discs[1] = square_bit(square_at(0, 0)) | square_bit(square_at(1, 0));
  return p;
}

/// One disc each on a1 and h8: neither side can move.
Position terminal_position() {
  Position p;
  p.discs[0] = square_bit(0);
  p.discs[1] = square_bit(63);
  p.to_move = 1;
  return p;
}

/// Every position of a few uniformly random games (terminal ones included),
/// plus the crafted pass and terminal positions.
std::vector<Position> position_suite() {
  std::vector<Position> out = {pass_position(), terminal_position()};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::XorShift128Plus rng(seed);
    Position p = initial_position();
    out.push_back(p);
    while (reference_ply(p, rng)) out.push_back(p);
  }
  return out;
}

const std::vector<Position>& suite() {
  static const std::vector<Position> positions = position_suite();
  return positions;
}

std::vector<const PlyVariant*> runnable_variants() {
  std::vector<const PlyVariant*> out;
  for (const PlyVariant& v : detail::ply_variants()) {
    if (v.host_runs) out.push_back(&v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tests

TEST(PlyVariants, BaselineAlwaysRunsAndDispatchMatchesBatchIsa) {
  const auto all = detail::ply_variants();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.back().isa, "default");
  EXPECT_TRUE(all.back().host_runs);
  const auto runnable = runnable_variants();
  ASSERT_FALSE(runnable.empty());
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  // The dispatched entry points bind the first runnable variant; it must be
  // the ISA perfbench's batch_isa header reports.
  __builtin_cpu_init();
  const char* expected = __builtin_cpu_supports("avx512f") ? "avx512f"
                         : __builtin_cpu_supports("avx2")  ? "avx2"
                                                           : "default";
  EXPECT_STREQ(runnable.front()->isa, expected);
  EXPECT_EQ(all.size(), 3u);
#endif
}

TEST(PlyVariants, SuiteCoversPassAndTerminalPositions) {
  int passes = 0;
  int terminals = 0;
  for (const Position& p : suite()) {
    if (placement_mask(p) != 0) continue;
    ++(is_terminal(p) ? terminals : passes);
  }
  EXPECT_GT(passes, 0);
  EXPECT_GT(terminals, 0);
}

TEST(PlyVariants, FloodsMatchScalarPrimitivesAtEveryWidth) {
  const auto& positions = suite();
  for (const PlyVariant* v : runnable_variants()) {
    SCOPED_TRACE(v->isa);
    for (const int n : {1, 5, 8, 32, 37}) {
      for (std::size_t start = 0; start + n <= positions.size();
           start += 97) {
        std::vector<Bitboard> own(n), opp(n), placed(n), moves(n, ~0ULL),
            flips(n, ~0ULL);
        for (int i = 0; i < n; ++i) {
          own[i] = positions[start + i].own();
          opp[i] = positions[start + i].opp();
        }
        v->legal_moves_mask_batch(own.data(), opp.data(), moves.data(), n);
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(moves[i], legal_moves_mask(own[i], opp[i]));
          // Alternate the lowest and highest move; no move places nothing.
          placed[i] = moves[i] == 0 ? 0
                      : (i & 1)     ? square_bit(63 - std::countl_zero(moves[i]))
                                    : moves[i] & (~moves[i] + 1);
        }
        v->flips_for_moves_batch(own.data(), opp.data(), placed.data(),
                                 flips.data(), n);
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(flips[i], placed[i] == 0
                                  ? 0
                                  : flips_for_move(own[i], opp[i],
                                                   lsb_index(placed[i])));
        }
      }
    }
  }
}

TEST(PlyVariants, SelectKthOnEdgeBoards) {
  // Bit 0 and bit 63 alone, both together (c1/b1 and f8/g8 bracket them),
  // the full board, and the highest mobility the suite reaches.
  Position corners;
  corners.discs[0] = square_bit(2) | square_bit(61);
  corners.discs[1] = square_bit(1) | square_bit(62);
  ASSERT_EQ(placement_mask(corners), square_bit(0) | square_bit(63));
  Bitboard busiest = 0;
  for (const Position& p : suite()) {
    if (popcount(placement_mask(p)) > popcount(busiest)) {
      busiest = placement_mask(p);
    }
  }
  ASSERT_GE(popcount(busiest), 15);
  const Bitboard masks[] = {square_bit(0), square_bit(63),
                            placement_mask(corners), kAll, busiest};
  for (const PlyVariant* v : runnable_variants()) {
    SCOPED_TRACE(v->isa);
    for (const Bitboard mask : masks) {
      Bitboard rest = mask;
      for (std::uint32_t k = 0; k < static_cast<std::uint32_t>(popcount(mask));
           ++k) {
        ASSERT_EQ(v->select_kth(mask, k), rest & (~rest + 1))
            << "mask " << mask << " k " << k;
        rest &= rest - 1;
      }
    }
  }
}

template <typename Rng, typename MakeRng>
void check_scalar_ply(bool (*ply)(Position&, Rng&) noexcept,
                      MakeRng make_rng) {
  const auto& positions = suite();
  for (std::size_t i = 0; i < positions.size(); i += 7) {
    Rng rng = make_rng(i);
    Rng ref_rng = rng;
    Position s = positions[i];
    Position ref = s;
    for (;;) {
      const bool advanced = ply(s, rng);
      ASSERT_EQ(advanced, reference_ply(ref, ref_rng)) << "start " << i;
      ASSERT_EQ(s, ref) << "start " << i;
      // Same stream position: the next draws agree.
      Rng a = rng;
      Rng b = ref_rng;
      ASSERT_EQ(a(), b()) << "start " << i;
      if (!advanced) break;
    }
  }
}

TEST(PlyVariants, ScalarPlyMatchesReferenceWithXorShift) {
  for (const PlyVariant* v : runnable_variants()) {
    SCOPED_TRACE(v->isa);
    check_scalar_ply<util::XorShift128Plus>(v->ply_xorshift, [](std::size_t i) {
      return util::XorShift128Plus(0x5eed0000ULL + i);
    });
  }
}

TEST(PlyVariants, ScalarPlyMatchesReferenceWithCounterRng) {
  for (const PlyVariant* v : runnable_variants()) {
    SCOPED_TRACE(v->isa);
    check_scalar_ply<util::CounterRng>(v->ply_counter, [](std::size_t i) {
      return util::CounterRng(7, i);
    });
  }
}

struct Warp {
  PlyLanes lanes{};
  util::CounterRng rngs[kPlyLanes];
};

/// A warp whose lanes start from suite positions; lane 0 is the crafted
/// pass position and lane 1 the crafted terminal one, so both are always
/// present.
Warp make_warp(std::uint64_t seed) {
  const auto& positions = suite();
  util::XorShift128Plus pick(seed);
  Warp w;
  for (int i = 0; i < kPlyLanes; ++i) {
    const Position p =
        i == 0   ? pass_position()
        : i == 1 ? terminal_position()
                 : positions[pick.next_below(
                       static_cast<std::uint32_t>(positions.size()))];
    ReversiGame::Batched::load(w.lanes, i, p);
    w.rngs[i] = util::CounterRng(seed, static_cast<std::uint64_t>(i));
  }
  return w;
}

void expect_same_warp(const Warp& got, const Warp& want) {
  for (int i = 0; i < kPlyLanes; ++i) {
    ASSERT_EQ(got.lanes.own[i], want.lanes.own[i]) << "lane " << i;
    ASSERT_EQ(got.lanes.opp[i], want.lanes.opp[i]) << "lane " << i;
    ASSERT_EQ(got.lanes.to_move[i], want.lanes.to_move[i]) << "lane " << i;
    ASSERT_EQ(got.rngs[i], want.rngs[i]) << "lane " << i;
  }
}

TEST(PlyVariants, BatchedPlyMatchesReferenceToTheEnd) {
  for (const PlyVariant* v : runnable_variants()) {
    SCOPED_TRACE(v->isa);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      // Random entry masks, then every step re-enters with what advanced,
      // as the warp kernel does, until every lane has retired.
      util::XorShift128Plus masks(seed * 977);
      Warp w = make_warp(seed);
      Warp ref = w;
      std::uint32_t mask =
          seed == 1 ? ~0u : static_cast<std::uint32_t>(masks()) | 3u;
      int steps = 0;
      while (mask != 0) {
        const std::uint32_t got = v->ply_batch(w.lanes, mask, w.rngs);
        ASSERT_EQ(got, reference_ply_batch(ref.lanes, mask, ref.rngs));
        ASSERT_NO_FATAL_FAILURE(expect_same_warp(w, ref));
        // The terminal lane never advances; the pass lane always does on
        // its first step.
        if ((mask & 2u) != 0) {
          EXPECT_EQ(got & 2u, 0u);
        }
        if (steps == 0) {
          EXPECT_NE(got & 1u, 0u);
        }
        mask = got;
        ASSERT_LT(++steps, 200);
      }
    }
  }
}

TEST(PlyVariants, BatchedPlyLeavesLanesOutsideTheMaskUntouched) {
  for (const PlyVariant* v : runnable_variants()) {
    SCOPED_TRACE(v->isa);
    // Every single-lane mask, the empty mask, and a sparse mixed mask.
    std::vector<std::uint32_t> masks = {0u, 0x80000001u, 0x00ff00f3u};
    for (int lane = 0; lane < kPlyLanes; ++lane) masks.push_back(1u << lane);
    for (const std::uint32_t mask : masks) {
      Warp w = make_warp(mask ^ 0x1234u);
      Warp ref = w;
      const Warp before = w;
      const std::uint32_t got = v->ply_batch(w.lanes, mask, w.rngs);
      ASSERT_EQ(got, reference_ply_batch(ref.lanes, mask, ref.rngs));
      EXPECT_EQ(got & ~mask, 0u);
      ASSERT_NO_FATAL_FAILURE(expect_same_warp(w, ref));
      for (int i = 0; i < kPlyLanes; ++i) {
        if ((mask >> i) & 1u) continue;
        EXPECT_EQ(w.lanes.own[i], before.lanes.own[i]) << "lane " << i;
        EXPECT_EQ(w.lanes.opp[i], before.lanes.opp[i]) << "lane " << i;
        EXPECT_EQ(w.lanes.to_move[i], before.lanes.to_move[i]) << "lane " << i;
        EXPECT_EQ(w.rngs[i], before.rngs[i]) << "lane " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gpu_mcts::reversi
