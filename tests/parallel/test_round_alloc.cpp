// Steady-state heap discipline for the round drivers (own binary: replacing
// global operator new is program-wide, so this instrumentation must not ride
// along with the other suites).
//
// The per-round hot path — cohort ticket/launch/trace bookkeeping in
// RoundDriver, the shared root/result staging buffers, the kernel rebuild —
// is hoisted into per-search scratch that rounds reuse. What a steady-state
// round may still allocate is bounded and small (tree growth, the launch's
// warp-trace vector); regressing to per-round vector churn shows up here as
// a jump in allocations-per-round.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine/factory.hpp"
#include "engine/spec.hpp"
#include "reversi/reversi_game.hpp"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// Count every allocation path the implementation may route through.
void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gpu_mcts::parallel {
namespace {

using reversi::ReversiGame;

constexpr double kShortBudget = 0.02;
constexpr double kLongBudget = 0.08;

struct Measured {
  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
};

Measured measure(mcts::Searcher<ReversiGame>& searcher, double budget) {
  const auto root = ReversiGame::initial_state();
  const std::uint64_t before =
      g_new_calls.load(std::memory_order_relaxed);
  (void)searcher.choose_move(root, budget);
  Measured out;
  out.allocs = g_new_calls.load(std::memory_order_relaxed) - before;
  out.rounds = searcher.last_stats().rounds;
  return out;
}

void expect_bounded_per_round(const engine::SchemeSpec& spec,
                              double max_per_round) {
  auto searcher =
      engine::make_searcher<ReversiGame>(spec.with_exec_threads(1));
  // Warm-up search: lazy pools, scratch capacity, device buffers.
  (void)measure(*searcher, kShortBudget);
  const Measured short_run = measure(*searcher, kShortBudget);
  const Measured long_run = measure(*searcher, kLongBudget);
  ASSERT_GT(long_run.rounds, short_run.rounds) << spec.to_string();
  const double extra_rounds =
      static_cast<double>(long_run.rounds - short_run.rounds);
  const double per_round =
      (static_cast<double>(long_run.allocs) -
       static_cast<double>(short_run.allocs)) /
      extra_rounds;
  EXPECT_LE(per_round, max_per_round)
      << spec.to_string() << ": " << short_run.allocs << " allocs / "
      << short_run.rounds << " rounds vs " << long_run.allocs << " allocs / "
      << long_run.rounds << " rounds";
}

TEST(RoundAlloc, LeafSyncRoundsAreNearAllocationFree) {
  // Leaf parallelism barely grows the tree, so steady-state rounds should
  // cost at most the launch's trace vector and the odd tree node.
  expect_bounded_per_round(engine::SchemeSpec::leaf_gpu(4, 64).with_seed(7),
                           8.0);
}

TEST(RoundAlloc, LeafPipelinedRoundsAreBounded) {
  // The pipelined path's per-round ticket/launch/flag/trace vectors are
  // hoisted; what remains is the stream machinery itself (a queued op and
  // a warp-trace vector per launch, two launches per round), which this
  // bound admits. The driver's old per-round vector churn sat well above
  // it.
  expect_bounded_per_round(
      engine::SchemeSpec::leaf_gpu(4, 64).with_seed(7).with_pipeline(),
      24.0);
}

TEST(RoundAlloc, BlockSyncRoundsAreNearAllocationFree) {
  // The synchronous block round is also every served ticket's round
  // (serve::SearchService). It measured 6 allocations per round when this
  // bound was set; the bound keeps the leaf sync case's headroom.
  expect_bounded_per_round(engine::SchemeSpec::block_gpu(8, 32).with_seed(7),
                           8.0);
}

TEST(RoundAlloc, BlockPipelinedRoundsStayBounded) {
  // Block parallelism legitimately allocates tree nodes every round; the
  // bound admits that growth while still catching per-round vector churn.
  expect_bounded_per_round(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(7).with_pipeline(),
      64.0);
}

}  // namespace
}  // namespace gpu_mcts::parallel
