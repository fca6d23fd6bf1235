// The Reversi playout ply and its SoA flood primitives, compiled once per
// instruction set and bound at load time (DESIGN.md §17.4).
//
// The build stays baseline-x86-64 portable. On GCC for x86-64 this unit
// compiles the shared body (ply_body.inc) three times, inside
// `#pragma GCC target` regions for AVX-512, AVX2 and the baseline, and each
// public entry point is an ifunc whose resolver picks the first variant the
// host runs. One body cannot simply carry target_clones: the clones share
// its source, so the baseline clone could not call _pdep_u64, and GCC
// rejects always_inline of a target("bmi2") helper into a generic template.
// Other compilers and targets build the baseline variant alone.
//
// The lane loops are pure u64 bitwise dataflow over parallel arrays, which
// vectorizes only at -O3 (src/reversi/CMakeLists.txt sets it for this file
// in every build type). Compiling the ply out-of-line also pins its
// codegen: as a header inline its quality swung with the including TU's
// inlining budget, which made cross-TU wall-clock comparisons lie.
#include <bit>
#include <cstdint>
#include <span>

#include "reversi/ply_variants.hpp"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GPU_MCTS_PLY_DISPATCH 1
#include <immintrin.h>
#else
#define GPU_MCTS_PLY_DISPATCH 0
#endif

// The body's entry points inline everything they call, so the header
// helpers they use (shift, the scalar floods, the RNG draws) are compiled
// for the variant's instruction set rather than called in baseline form.
#if defined(__GNUC__)
#define GPU_MCTS_PLY_ENTRY __attribute__((flatten))
#else
#define GPU_MCTS_PLY_ENTRY
#endif

namespace gpu_mcts::reversi {
namespace detail {

/// The k-th lowest set bit of `moves` (k < popcount): clear the k lowest,
/// keep the new lowest. One dependent step per k.
inline Bitboard select_kth_by_pop(Bitboard moves, std::uint32_t k) noexcept {
  for (; k > 0; --k) moves &= moves - 1;
  return moves & (~moves + 1);
}

namespace base {
inline Bitboard select_kth(Bitboard moves, std::uint32_t k) noexcept {
  return select_kth_by_pop(moves, k);
}
#include "reversi/ply_body.inc"
}  // namespace base

#if GPU_MCTS_PLY_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,bmi,popcnt")
namespace avx2 {
inline Bitboard select_kth(Bitboard moves, std::uint32_t k) noexcept {
  return select_kth_by_pop(moves, k);
}
#include "reversi/ply_body.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,bmi,bmi2,popcnt")
namespace avx512 {
/// pdep deposits the single bit 1 << k onto the k-th set bit of `moves`.
inline Bitboard select_kth(Bitboard moves, std::uint32_t k) noexcept {
  return _pdep_u64(Bitboard{1} << k, moves);
}
#include "reversi/ply_body.inc"
}  // namespace avx512
#pragma GCC pop_options

/// The variants this host runs; the baseline always runs.
struct HostIsa {
  bool avx512 = false;
  bool avx2 = false;
};

// Runs inside the ifunc resolvers, which the dynamic loader calls before
// any constructor and before the sanitizer runtimes start, so neither may
// be instrumented. That includes ThreadSanitizer: the resolvers run from
// the binary's IRELATIVE relocations, before the TSan runtime has started,
// and an instrumented resolver crashes the program before main. AVX-512 is
// keyed on avx512f, as perfbench's batch_isa reports it; every AVX-512F
// part also has BMI2 and POPCNT, and every AVX2 part BMI1 and POPCNT, so
// the extra checks only keep an unusual virtual CPU from faulting.
__attribute__((no_sanitize("address", "thread", "undefined"))) inline HostIsa
host_isa() noexcept {
  __builtin_cpu_init();
  const bool bmi_popcnt =
      __builtin_cpu_supports("bmi") && __builtin_cpu_supports("popcnt");
  HostIsa host;
  host.avx2 = __builtin_cpu_supports("avx2") && bmi_popcnt;
  host.avx512 = host.avx2 && __builtin_cpu_supports("avx512f") &&
                __builtin_cpu_supports("bmi2");
  return host;
}
#endif

}  // namespace detail

#if GPU_MCTS_PLY_DISPATCH
// One resolver per entry point; `type` names the overload it binds.
#define GPU_MCTS_PLY_RESOLVER(resolver, fn, type)                           \
  extern "C" __attribute__((no_sanitize("address", "thread", "undefined"))) \
  type resolver() noexcept {                                                \
    const detail::HostIsa host = detail::host_isa();                        \
    if (host.avx512) return &detail::avx512::fn;                            \
    if (host.avx2) return &detail::avx2::fn;                                \
    return &detail::base::fn;                                               \
  }

using MovesBatchFn = void (*)(const Bitboard*, const Bitboard*, Bitboard*,
                              int) noexcept;
using FlipsBatchFn = void (*)(const Bitboard*, const Bitboard*,
                              const Bitboard*, Bitboard*, int) noexcept;
using PlyXorShiftFn = bool (*)(Position&, util::XorShift128Plus&) noexcept;
using PlyCounterFn = bool (*)(Position&, util::CounterRng&) noexcept;
using PlyBatchFn = std::uint32_t (*)(PlyLanes&, std::uint32_t,
                                     util::CounterRng*) noexcept;

GPU_MCTS_PLY_RESOLVER(gpu_mcts_reversi_resolve_moves_batch,
                      legal_moves_mask_batch, MovesBatchFn)
GPU_MCTS_PLY_RESOLVER(gpu_mcts_reversi_resolve_flips_batch,
                      flips_for_moves_batch, FlipsBatchFn)
GPU_MCTS_PLY_RESOLVER(gpu_mcts_reversi_resolve_ply_xorshift, playout_ply,
                      PlyXorShiftFn)
GPU_MCTS_PLY_RESOLVER(gpu_mcts_reversi_resolve_ply_counter, playout_ply,
                      PlyCounterFn)
GPU_MCTS_PLY_RESOLVER(gpu_mcts_reversi_resolve_ply_batch, playout_ply_batch,
                      PlyBatchFn)
#undef GPU_MCTS_PLY_RESOLVER

void legal_moves_mask_batch(const Bitboard* own, const Bitboard* opp,
                            Bitboard* moves, int n) noexcept
    __attribute__((ifunc("gpu_mcts_reversi_resolve_moves_batch")));
void flips_for_moves_batch(const Bitboard* own, const Bitboard* opp,
                           const Bitboard* placed, Bitboard* flips,
                           int n) noexcept
    __attribute__((ifunc("gpu_mcts_reversi_resolve_flips_batch")));
bool playout_ply(Position& s, util::XorShift128Plus& rng) noexcept
    __attribute__((ifunc("gpu_mcts_reversi_resolve_ply_xorshift")));
bool playout_ply(Position& s, util::CounterRng& rng) noexcept
    __attribute__((ifunc("gpu_mcts_reversi_resolve_ply_counter")));
std::uint32_t playout_ply_batch(PlyLanes& l, std::uint32_t mask,
                                util::CounterRng* rngs) noexcept
    __attribute__((ifunc("gpu_mcts_reversi_resolve_ply_batch")));
#else
void legal_moves_mask_batch(const Bitboard* own, const Bitboard* opp,
                            Bitboard* moves, int n) noexcept {
  detail::base::legal_moves_mask_batch(own, opp, moves, n);
}
void flips_for_moves_batch(const Bitboard* own, const Bitboard* opp,
                           const Bitboard* placed, Bitboard* flips,
                           int n) noexcept {
  detail::base::flips_for_moves_batch(own, opp, placed, flips, n);
}
bool playout_ply(Position& s, util::XorShift128Plus& rng) noexcept {
  return detail::base::playout_ply(s, rng);
}
bool playout_ply(Position& s, util::CounterRng& rng) noexcept {
  return detail::base::playout_ply(s, rng);
}
std::uint32_t playout_ply_batch(PlyLanes& l, std::uint32_t mask,
                                util::CounterRng* rngs) noexcept {
  return detail::base::playout_ply_batch(l, mask, rngs);
}
#endif

#define GPU_MCTS_PLY_VARIANT(ns, isa, host_runs)                        \
  detail::PlyVariant {                                                  \
    isa, host_runs, &detail::ns::legal_moves_mask_batch,                \
        &detail::ns::flips_for_moves_batch, &detail::ns::select_kth,    \
        &detail::ns::playout_ply, &detail::ns::playout_ply,             \
        &detail::ns::playout_ply_batch                                  \
  }

std::span<const detail::PlyVariant> detail::ply_variants() noexcept {
#if GPU_MCTS_PLY_DISPATCH
  static const HostIsa host = host_isa();
  static const PlyVariant variants[] = {
      GPU_MCTS_PLY_VARIANT(avx512, "avx512f", host.avx512),
      GPU_MCTS_PLY_VARIANT(avx2, "avx2", host.avx2),
      GPU_MCTS_PLY_VARIANT(base, "default", true),
  };
#else
  static const PlyVariant variants[] = {
      GPU_MCTS_PLY_VARIANT(base, "default", true),
  };
#endif
  return variants;
}
#undef GPU_MCTS_PLY_VARIANT

}  // namespace gpu_mcts::reversi
