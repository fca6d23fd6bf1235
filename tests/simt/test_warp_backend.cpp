// Warp-batched execution backend (DESIGN.md §17): a WarpKernel-capable
// kernel running under WarpBackend::kBatched must be indistinguishable from
// the scalar lane interpreter in everything but wall-clock time — kernel
// outputs, modeled device cycles, divergence statistics, trace events, and
// fault behaviour are all bit-identical. kVerify proves it per warp by
// running both protocols and asserting bitwise equality.
#include "simt/vgpu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "game/connect4.hpp"
#include "game/gomoku.hpp"
#include "game/tictactoe.hpp"
#include "obs/trace.hpp"
#include "reversi/reversi_game.hpp"
#include "simt/multiplex_kernel.hpp"
#include "simt/playout_kernel.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace gpu_mcts::simt {
namespace {

using reversi::ReversiGame;

// The protocol split is a compile-time fact worth pinning: Reversi opts in
// through game::BatchedTraits and gets the warp kernel; the other games
// fall back to the scalar PlayoutKernel (and a scalar kernel under a
// batched policy just runs the interpreter).
static_assert(BatchedPlayoutGame<ReversiGame>);
static_assert(WarpKernel<WarpPlayoutKernel<ReversiGame>>);
static_assert(WarpKernel<MultiplexKernel<WarpPlayoutKernel<ReversiGame>>>);
static_assert(std::same_as<PlayoutKernelFor<ReversiGame>,
                           WarpPlayoutKernel<ReversiGame>>);
static_assert(!BatchedPlayoutGame<game::TicTacToe>);
static_assert(!WarpKernel<PlayoutKernel<game::TicTacToe>>);
static_assert(std::same_as<PlayoutKernelFor<game::TicTacToe>,
                           PlayoutKernel<game::TicTacToe>>);
static_assert(std::same_as<PlayoutKernelFor<game::ConnectFour>,
                           PlayoutKernel<game::ConnectFour>>);
static_assert(std::same_as<PlayoutKernelFor<game::Gomoku>,
                           PlayoutKernel<game::Gomoku>>);

struct LaunchCapture {
  std::vector<BlockResult> results;
  LaunchResult launch;
  std::uint64_t host_cycles = 0;
};

/// One PlayoutKernelFor<G> launch under the given warp backend (and exec
/// thread count). `result_slots` below the block count exercises the
/// aliased-slot (leaf parallelism) commit.
template <typename G>
LaunchCapture run_playout(WarpBackend backend, const LaunchConfig& cfg,
                          std::size_t result_slots, int threads = 1) {
  VirtualGpu gpu;
  gpu.set_execution_policy(
      ExecutionPolicy{.threads = threads, .warp_backend = backend});
  const auto root = G::initial_state();
  // Per-block roots are indexed by the *global* block id, so an offset
  // slice needs the whole logical grid's roots behind it.
  const std::vector<typename G::State> roots(
      result_slots == 1
          ? 1
          : static_cast<std::size_t>(cfg.block_offset + cfg.blocks),
      root);
  LaunchCapture out;
  out.results.assign(result_slots, BlockResult{});
  PlayoutKernelFor<G> kernel(roots, 2011, 3, std::span(out.results));
  util::VirtualClock clock(gpu.host().clock_hz);
  out.launch = gpu.launch(cfg, kernel, clock);
  out.host_cycles = clock.cycles();
  return out;
}

void expect_identical(const LaunchCapture& a, const LaunchCapture& b) {
  EXPECT_EQ(a.launch.device_cycles, b.launch.device_cycles);
  EXPECT_EQ(a.launch.status, b.launch.status);
  EXPECT_EQ(a.launch.stats.warps, b.launch.stats.warps);
  EXPECT_EQ(a.launch.stats.max_warp_steps, b.launch.stats.max_warp_steps);
  EXPECT_EQ(a.launch.stats.total_warp_steps, b.launch.stats.total_warp_steps);
  EXPECT_EQ(a.launch.stats.total_active_lane_steps,
            b.launch.stats.total_active_lane_steps);
  EXPECT_EQ(a.launch.stats.total_lane_slots, b.launch.stats.total_lane_slots);
  EXPECT_EQ(a.host_cycles, b.host_cycles);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    // Bitwise floating-point equality: warp_finish commits one tally per
    // warp where the scalar path commits per lane, and both are exact.
    EXPECT_EQ(a.results[i].value_first, b.results[i].value_first) << i;
    EXPECT_EQ(a.results[i].value_sq_first, b.results[i].value_sq_first) << i;
    EXPECT_EQ(a.results[i].simulations, b.results[i].simulations) << i;
    EXPECT_EQ(a.results[i].total_plies, b.results[i].total_plies) << i;
  }
}

TEST(WarpBackend, BatchedBitIdenticalToScalarPerBlock) {
  const LaunchConfig cfg{.blocks = 8, .threads_per_block = 64};
  expect_identical(run_playout<ReversiGame>(WarpBackend::kScalar, cfg, 8),
                   run_playout<ReversiGame>(WarpBackend::kBatched, cfg, 8));
}

TEST(WarpBackend, BatchedKeepsAliasedSlotAccumulationOrder) {
  // Leaf parallelism: every lane of every block accumulates into ONE shared
  // tally, batched per warp on one side and per lane on the other.
  const LaunchConfig cfg{.blocks = 6, .threads_per_block = 64};
  expect_identical(run_playout<ReversiGame>(WarpBackend::kScalar, cfg, 1),
                   run_playout<ReversiGame>(WarpBackend::kBatched, cfg, 1));
}

TEST(WarpBackend, PartialWarpsMatchScalar) {
  // 70 threads/block = two full warps + a 6-lane partial warp; 7 threads =
  // a single deeply partial warp.
  for (const int tpb : {70, 7, 33}) {
    SCOPED_TRACE(tpb);
    const LaunchConfig cfg{.blocks = 5, .threads_per_block = tpb};
    expect_identical(run_playout<ReversiGame>(WarpBackend::kScalar, cfg, 5),
                     run_playout<ReversiGame>(WarpBackend::kBatched, cfg, 5));
  }
}

TEST(WarpBackend, BlockOffsetSlicesMatchScalar) {
  // block_offset grids are how pipelined searchers slice one logical launch
  // across streams: lane identities (and so RNG streams) must survive the
  // batched path's WarpSpan construction.
  const LaunchConfig cfg{
      .blocks = 3, .threads_per_block = 64, .block_offset = 5};
  expect_identical(run_playout<ReversiGame>(WarpBackend::kScalar, cfg, 8),
                   run_playout<ReversiGame>(WarpBackend::kBatched, cfg, 8));
}

TEST(WarpBackend, ThreadedExecutionMatchesSequentialBatched) {
  const LaunchConfig cfg{.blocks = 8, .threads_per_block = 64};
  const LaunchCapture seq =
      run_playout<ReversiGame>(WarpBackend::kBatched, cfg, 8, 1);
  expect_identical(seq,
                   run_playout<ReversiGame>(WarpBackend::kBatched, cfg, 8, 4));
  expect_identical(seq,
                   run_playout<ReversiGame>(WarpBackend::kScalar, cfg, 8, 4));
}

TEST(WarpBackend, VerifyModeRunsGreen) {
  // kVerify executes every warp through BOTH protocols and asserts trace
  // and per-lane bitwise equality — sequential and threaded.
  const LaunchConfig cfg{.blocks = 4, .threads_per_block = 70};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    expect_identical(run_playout<ReversiGame>(WarpBackend::kScalar, cfg, 4),
                     run_playout<ReversiGame>(WarpBackend::kVerify, cfg, 4,
                                              threads));
  }
}

TEST(WarpBackend, ScalarGamesRunUnchangedUnderBatchedPolicy) {
  // Games without batched traits fall back to the interpreter: a batched
  // policy must be a no-op for them, at any thread count.
  const LaunchConfig cfg{.blocks = 4, .threads_per_block = 32};
  expect_identical(run_playout<game::TicTacToe>(WarpBackend::kScalar, cfg, 4),
                   run_playout<game::TicTacToe>(WarpBackend::kBatched, cfg, 4));
  expect_identical(run_playout<game::ConnectFour>(WarpBackend::kScalar, cfg, 4),
                   run_playout<game::ConnectFour>(WarpBackend::kVerify, cfg, 4));
  expect_identical(run_playout<game::Gomoku>(WarpBackend::kScalar, cfg, 4),
                   run_playout<game::Gomoku>(WarpBackend::kBatched, cfg, 4, 4));
}

TEST(WarpBackend, WideWarpDeviceFallsBackToScalar) {
  // A device whose warps are wider than the kernel's SoA batch cannot use
  // the batched protocol; the executor must quietly interpret instead.
  DeviceProperties wide = tesla_c2050();
  wide.warp_size = 64;
  const LaunchConfig cfg{.blocks = 4, .threads_per_block = 128};
  const auto run_wide = [&](WarpBackend backend) {
    VirtualGpu gpu(wide, xeon_x5670(), default_cost_model());
    gpu.set_execution_policy(
        ExecutionPolicy{.threads = 1, .warp_backend = backend});
    const std::vector<ReversiGame::State> roots(4,
                                                ReversiGame::initial_state());
    LaunchCapture out;
    out.results.assign(4, BlockResult{});
    PlayoutKernelFor<ReversiGame> kernel(roots, 7, 1, std::span(out.results));
    util::VirtualClock clock(gpu.host().clock_hz);
    out.launch = gpu.launch(cfg, kernel, clock);
    out.host_cycles = clock.cycles();
    return out;
  };
  expect_identical(run_wide(WarpBackend::kScalar),
                   run_wide(WarpBackend::kBatched));
}

TEST(WarpBackend, TraceEventsIdenticalAcrossBackends) {
  const LaunchConfig cfg{.blocks = 4, .threads_per_block = 64};
  const auto trace_run = [&](WarpBackend backend) {
    VirtualGpu gpu;
    gpu.set_execution_policy(
        ExecutionPolicy{.threads = 1, .warp_backend = backend});
    obs::Tracer tracer;
    gpu.set_tracer(&tracer);
    const std::vector<ReversiGame::State> roots(4,
                                                ReversiGame::initial_state());
    std::vector<BlockResult> results(4);
    PlayoutKernelFor<ReversiGame> kernel(roots, 5, 0, std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    (void)gpu.launch(cfg, kernel, clock);
    return tracer.merged();
  };
  const auto scalar = trace_run(WarpBackend::kScalar);
  const auto batched = trace_run(WarpBackend::kBatched);
  ASSERT_EQ(scalar.size(), batched.size());
  ASSERT_FALSE(scalar.empty());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].cycles, batched[i].cycles);
    EXPECT_STREQ(scalar[i].name, batched[i].name);
    EXPECT_EQ(scalar[i].arg_count, batched[i].arg_count);
    for (std::uint8_t k = 0; k < scalar[i].arg_count; ++k) {
      EXPECT_STREQ(scalar[i].args[k].name, batched[i].args[k].name);
      EXPECT_EQ(scalar[i].args[k].value, batched[i].args[k].value);
    }
  }
}

TEST(WarpBackend, MultiplexedTenantsMatchScalar) {
  // Serve-layer shape: two tenants with private roots/results/seeds packed
  // into one grid. The multiplexer forwards the warp protocol (a warp never
  // spans blocks, hence never tenants), so batched serve launches must
  // reproduce the scalar multiplex run bit for bit.
  const int tpb = 64;
  const LaunchConfig cfg{.blocks = 5, .threads_per_block = tpb};
  const auto run_mux = [&](WarpBackend backend) {
    VirtualGpu gpu;
    gpu.set_execution_policy(
        ExecutionPolicy{.threads = 1, .warp_backend = backend});
    const std::vector<ReversiGame::State> roots_a(
        3, ReversiGame::initial_state());
    const std::vector<ReversiGame::State> roots_b(
        2, ReversiGame::apply(ReversiGame::initial_state(), 19));
    LaunchCapture out;
    out.results.assign(5, BlockResult{});
    const std::span<BlockResult> all(out.results);
    PlayoutKernelFor<ReversiGame> a(roots_a, 11, 4, all.subspan(0, 3));
    PlayoutKernelFor<ReversiGame> b(roots_b, 23, 9, all.subspan(3, 2));
    using Mux = MultiplexKernel<PlayoutKernelFor<ReversiGame>>;
    std::vector<Mux::Segment> segments{{0, 3, &a}, {3, 2, &b}};
    Mux mux(std::move(segments), tpb);
    util::VirtualClock clock(gpu.host().clock_hz);
    const TracedLaunch traced = gpu.launch_traced(cfg, mux, clock);
    out.launch = traced.result;
    out.host_cycles = clock.cycles();
    return out;
  };
  expect_identical(run_mux(WarpBackend::kScalar),
                   run_mux(WarpBackend::kBatched));
  expect_identical(run_mux(WarpBackend::kScalar),
                   run_mux(WarpBackend::kVerify));
}

/// Stream launches with fault injection: draws happen on the controlling
/// thread at enqueue, so the fault schedule — and every status, cycle, and
/// surviving result — must be backend-invariant.
struct StreamCapture {
  std::vector<LaunchStatus> statuses;
  std::vector<std::uint64_t> completions;
  std::vector<BlockResult> results;
  std::uint64_t host_cycles = 0;
};

StreamCapture run_faulty_streams(WarpBackend backend) {
  VirtualGpu gpu;
  gpu.set_execution_policy(
      ExecutionPolicy{.threads = 1, .warp_backend = backend});
  gpu.set_fault_injector(util::FaultInjector(
      util::FaultPolicy{.kernel_launch_failure = 0.4, .kernel_stall = 0.3},
      /*seed=*/17));
  const LaunchConfig cfg{.blocks = 2, .threads_per_block = 64};
  const std::vector<ReversiGame::State> roots(2,
                                              ReversiGame::initial_state());
  StreamCapture out;
  out.results.assign(2, BlockResult{});
  util::VirtualClock clock(gpu.host().clock_hz);
  for (int round = 0; round < 6; ++round) {
    PlayoutKernelFor<ReversiGame> kernel(
        roots, 99, static_cast<std::uint64_t>(round), std::span(out.results));
    const StreamTicket ticket = gpu.launch_on(round % 2, cfg, kernel, clock);
    const StreamLaunch done = gpu.wait(ticket, clock);
    out.statuses.push_back(done.result.status);
    out.completions.push_back(done.completion_cycle);
  }
  out.host_cycles = clock.cycles();
  return out;
}

TEST(WarpBackend, FaultScheduleOnStreamsIsBackendInvariant) {
  const StreamCapture scalar = run_faulty_streams(WarpBackend::kScalar);
  const StreamCapture batched = run_faulty_streams(WarpBackend::kBatched);
  EXPECT_EQ(scalar.statuses, batched.statuses);
  EXPECT_EQ(scalar.completions, batched.completions);
  EXPECT_EQ(scalar.host_cycles, batched.host_cycles);
  ASSERT_EQ(scalar.results.size(), batched.results.size());
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    EXPECT_EQ(scalar.results[i].value_first, batched.results[i].value_first);
    EXPECT_EQ(scalar.results[i].simulations, batched.results[i].simulations);
    EXPECT_EQ(scalar.results[i].total_plies, batched.results[i].total_plies);
  }
  // The schedule actually exercised both fault and success paths.
  bool any_failed = false;
  bool any_executed = false;
  for (const LaunchStatus s : scalar.statuses) {
    if (s == LaunchStatus::kFailed) any_failed = true;
    if (s == LaunchStatus::kOk || s == LaunchStatus::kStalled) {
      any_executed = true;
    }
  }
  EXPECT_TRUE(any_failed);
  EXPECT_TRUE(any_executed);
}

TEST(WarpBackend, BackendFromEnvParses) {
  const char* saved = std::getenv("GPU_MCTS_WARP_BACKEND");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("GPU_MCTS_WARP_BACKEND");
  EXPECT_EQ(warp_backend_from_env(), WarpBackend::kBatched);
  ::setenv("GPU_MCTS_WARP_BACKEND", "scalar", 1);
  EXPECT_EQ(warp_backend_from_env(), WarpBackend::kScalar);
  EXPECT_EQ(ExecutionPolicy{}.warp_backend, WarpBackend::kScalar);
  ::setenv("GPU_MCTS_WARP_BACKEND", "batched", 1);
  EXPECT_EQ(warp_backend_from_env(), WarpBackend::kBatched);
  ::setenv("GPU_MCTS_WARP_BACKEND", "verify", 1);
  EXPECT_EQ(warp_backend_from_env(), WarpBackend::kVerify);
  EXPECT_EQ(ExecutionPolicy::from_env().warp_backend, WarpBackend::kVerify);
  ::setenv("GPU_MCTS_WARP_BACKEND", "nonsense", 1);
  EXPECT_EQ(warp_backend_from_env(), WarpBackend::kBatched);

  EXPECT_STREQ(warp_backend_name(WarpBackend::kScalar), "scalar");
  EXPECT_STREQ(warp_backend_name(WarpBackend::kBatched), "batched");
  EXPECT_STREQ(warp_backend_name(WarpBackend::kVerify), "verify");

  if (saved != nullptr) {
    ::setenv("GPU_MCTS_WARP_BACKEND", saved_value.c_str(), 1);
  } else {
    ::unsetenv("GPU_MCTS_WARP_BACKEND");
  }
}

TEST(WarpBackend, WarpBatchCounterCountsBatchedWarpsOnly) {
  const LaunchConfig cfg{.blocks = 4, .threads_per_block = 64};  // 8 warps
  const auto warp_batch_count = [&](WarpBackend backend) {
    VirtualGpu gpu;
    gpu.set_execution_policy(
        ExecutionPolicy{.threads = 1, .warp_backend = backend});
    obs::Tracer tracer;
    gpu.set_tracer(&tracer);
    const std::vector<ReversiGame::State> roots(4,
                                                ReversiGame::initial_state());
    std::vector<BlockResult> results(4);
    PlayoutKernelFor<ReversiGame> kernel(roots, 5, 0, std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    (void)gpu.launch(cfg, kernel, clock);
    return tracer.metrics().counter("warp_batch").value();
  };
  EXPECT_EQ(warp_batch_count(WarpBackend::kBatched), 8u);
  EXPECT_EQ(warp_batch_count(WarpBackend::kScalar), 0u);
}

}  // namespace
}  // namespace gpu_mcts::simt
