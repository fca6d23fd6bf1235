// Multi-threaded execution backend (DESIGN.md §9): a VirtualGpu running
// under any thread count must be indistinguishable from the sequential
// backend in everything but wall-clock time — kernel outputs, modeled
// device cycles, divergence statistics, and emitted trace events are all
// bit-identical.
#include "simt/vgpu.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "reversi/reversi_game.hpp"
#include "simt/playout_kernel.hpp"
#include "util/clock.hpp"

namespace gpu_mcts::simt {
namespace {

using reversi::ReversiGame;

struct LaunchCapture {
  std::vector<BlockResult> results;
  LaunchResult launch;
  std::uint64_t host_cycles = 0;
};

/// One playout-kernel launch under the given policy. `result_slots` below
/// the block count exercises the aliased-slot (leaf parallelism) layout.
LaunchCapture run_playout(int threads, const LaunchConfig& cfg,
                          std::size_t result_slots) {
  VirtualGpu gpu;
  gpu.set_execution_policy(ExecutionPolicy{.threads = threads});
  const auto root = ReversiGame::initial_state();
  const std::vector<ReversiGame::State> roots(
      result_slots == 1 ? 1 : static_cast<std::size_t>(cfg.blocks), root);
  LaunchCapture out;
  out.results.assign(result_slots, BlockResult{});
  PlayoutKernel<ReversiGame> kernel(roots, 2011, 3,
                                    std::span(out.results));
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
    // Bitwise floating-point equality: blocks commit in no fixed order, but
    // every partial sum of playout values is exact, so any order gives the
    // sequential bits.
    EXPECT_EQ(a.results[i].value_first, b.results[i].value_first) << i;
    EXPECT_EQ(a.results[i].value_sq_first, b.results[i].value_sq_first) << i;
    EXPECT_EQ(a.results[i].simulations, b.results[i].simulations) << i;
    EXPECT_EQ(a.results[i].total_plies, b.results[i].total_plies) << i;
  }
}

TEST(ExecBackend, PerBlockResultsBitIdenticalAcrossThreadCounts) {
  const LaunchConfig cfg{.blocks = 8, .threads_per_block = 64};
  const LaunchCapture sequential = run_playout(1, cfg, 8);
  for (const int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE(threads);
    expect_identical(sequential, run_playout(threads, cfg, 8));
  }
}

TEST(ExecBackend, AliasedResultSlotKeepsSequentialAccumulationOrder) {
  // Leaf parallelism: every block's lanes accumulate into ONE shared slot,
  // which workers commit into concurrently and in any order. The threaded
  // backend must still reproduce the sequential sum bit for bit.
  const LaunchConfig cfg{.blocks = 6, .threads_per_block = 64};
  const LaunchCapture sequential = run_playout(1, cfg, 1);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    expect_identical(sequential, run_playout(threads, cfg, 1));
  }
}

TEST(ExecBackend, PartialWarpGridMatchesSequential) {
  // 70 threads/block = two full warps + a 6-lane partial warp per block.
  const LaunchConfig cfg{.blocks = 5, .threads_per_block = 70};
  expect_identical(run_playout(1, cfg, 5), run_playout(4, cfg, 5));
}

/// Launches the playout kernel drivers use (warp-batched for Reversi) on
/// `gpu` and captures its outputs; `result_slots` of 1 aliases every block
/// into one slot.
LaunchCapture run_warp_playout(VirtualGpu& gpu, const LaunchConfig& cfg,
                               std::size_t result_slots) {
  const auto root = ReversiGame::initial_state();
  const std::vector<ReversiGame::State> roots(
      result_slots == 1 ? 1 : static_cast<std::size_t>(cfg.blocks), root);
  LaunchCapture out;
  out.results.assign(result_slots, BlockResult{});
  PlayoutKernelFor<ReversiGame> kernel(roots, 2011, 7,
                                       std::span(out.results));
  util::VirtualClock clock(gpu.host().clock_hz);
  out.launch = gpu.launch(cfg, kernel, clock);
  out.host_cycles = clock.cycles();
  return out;
}

TEST(ExecBackend, ConcurrentCommitsMatchOneThreadUnderEveryWarpBackend) {
  // Workers claim blocks and commit each one as it finishes, so blocks
  // commit concurrently and in a different order on every launch. A grid
  // wider than any pool, with a 6-lane partial warp per block, must still
  // give the 1-thread scalar bits under every warp backend, into per-block
  // slots and into one aliased slot. Twenty launches per pool size sample
  // many interleavings.
  const LaunchConfig cfg{.blocks = 37, .threads_per_block = 70};
  for (const std::size_t slots : {std::size_t{37}, std::size_t{1}}) {
    VirtualGpu reference_gpu;
    reference_gpu.set_execution_policy(ExecutionPolicy{
        .threads = 1, .warp_backend = WarpBackend::kScalar});
    const LaunchCapture reference =
        run_warp_playout(reference_gpu, cfg, slots);
    for (const WarpBackend backend :
         {WarpBackend::kScalar, WarpBackend::kBatched, WarpBackend::kVerify}) {
      for (const int threads : {2, 4, 8}) {
        SCOPED_TRACE(std::string(warp_backend_name(backend)) + " threads=" +
                     std::to_string(threads) +
                     " slots=" + std::to_string(slots));
        VirtualGpu gpu;
        gpu.set_execution_policy(
            ExecutionPolicy{.threads = threads, .warp_backend = backend});
        for (int launch = 0; launch < 20; ++launch) {
          expect_identical(reference, run_warp_playout(gpu, cfg, slots));
        }
      }
    }
  }
}

TEST(ExecBackend, SingleBlockGridRunsUnderThreadedPolicy) {
  // One block cannot be partitioned; the threaded policy must still work
  // (it runs on the calling thread).
  const LaunchConfig cfg{.blocks = 1, .threads_per_block = 64};
  expect_identical(run_playout(1, cfg, 1), run_playout(4, cfg, 1));
}

TEST(ExecBackend, TraceEventsIdenticalAcrossThreadCounts) {
  const LaunchConfig cfg{.blocks = 4, .threads_per_block = 64};
  const auto trace_run = [&](int threads) {
    VirtualGpu gpu;
    gpu.set_execution_policy(ExecutionPolicy{.threads = threads});
    obs::Tracer tracer;
    gpu.set_tracer(&tracer);
    const auto root = ReversiGame::initial_state();
    const std::vector<ReversiGame::State> roots(4, root);
    std::vector<BlockResult> results(4);
    PlayoutKernel<ReversiGame> kernel(roots, 5, 0, std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    (void)gpu.launch(cfg, kernel, clock);
    return tracer.merged();
  };
  const auto seq = trace_run(1);
  const auto par = trace_run(4);
  ASSERT_EQ(seq.size(), par.size());
  ASSERT_FALSE(seq.empty());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].cycles, par[i].cycles);
    EXPECT_STREQ(seq[i].name, par[i].name);
    EXPECT_EQ(seq[i].arg_count, par[i].arg_count);
    for (std::uint8_t k = 0; k < seq[i].arg_count; ++k) {
      EXPECT_STREQ(seq[i].args[k].name, par[i].args[k].name);
      EXPECT_EQ(seq[i].args[k].value, par[i].args[k].value);
    }
  }
}

/// Counts lanes and throws from one block's first step. The count is
/// atomic because workers finish different blocks' lanes concurrently.
struct ThrowingKernel {
  struct LaneState {
    int block = 0;
  };
  int throwing_block = 0;
  std::atomic<int> finished{0};

  [[nodiscard]] LaneState make_lane(const LaneId& id) const {
    return {id.block};
  }
  [[nodiscard]] bool lane_step(LaneState& lane) const {
    if (lane.block == throwing_block) throw std::runtime_error("lane fault");
    return false;
  }
  void lane_finish(const LaneState&, const LaneId&) { finished += 1; }
};

TEST(ExecBackend, WorkerExceptionReachesCallerWithoutHanging) {
  // Workers claim blocks from one cursor; a worker that throws stops, the
  // others must still drain the grid, and the exception must reach the
  // caller without leaving the pool wedged.
  VirtualGpu gpu;
  gpu.set_execution_policy(ExecutionPolicy{.threads = 4});
  const LaunchConfig cfg{.blocks = 32, .threads_per_block = 32};
  util::VirtualClock clock(gpu.host().clock_hz);
  for (const int block : {0, 13, 31}) {
    SCOPED_TRACE(block);
    ThrowingKernel kernel{.throwing_block = block};
    EXPECT_THROW((void)gpu.launch(cfg, kernel, clock), std::runtime_error);
  }
  ThrowingKernel healthy{.throwing_block = -1};
  (void)gpu.launch(cfg, healthy, clock);  // the pool still runs launches
  EXPECT_EQ(healthy.finished, cfg.blocks * cfg.threads_per_block);
}

TEST(ExecBackend, PolicyValidatesAndReleasesPool) {
  // The default policy tracks GPU_MCTS_EXEC_THREADS (CI's TSan job runs
  // this suite with it set), so pin an explicit policy before asserting.
  VirtualGpu gpu;
  gpu.set_execution_policy(ExecutionPolicy{.threads = 1});
  EXPECT_EQ(gpu.worker_pool(), nullptr);  // sequential: no pool
  gpu.set_execution_policy(ExecutionPolicy{.threads = 3});
  ASSERT_NE(gpu.worker_pool(), nullptr);
  EXPECT_EQ(gpu.worker_pool()->worker_count(), 3u);
  gpu.set_execution_policy(ExecutionPolicy{.threads = 1});
  EXPECT_EQ(gpu.worker_pool(), nullptr);
  EXPECT_THROW(gpu.set_execution_policy(ExecutionPolicy{.threads = 0}),
               util::ContractViolation);
}

TEST(ExecBackend, PolicyFromEnvParsesAndClamps) {
  const char* saved = std::getenv("GPU_MCTS_EXEC_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  // Unset: every CPU the process may run on.
  ::unsetenv("GPU_MCTS_EXEC_THREADS");
  EXPECT_EQ(ExecutionPolicy::from_env().threads, host_cpu_count());
  EXPECT_GE(host_cpu_count(), 1);
  EXPECT_LE(host_cpu_count(), 1024);
  ::setenv("GPU_MCTS_EXEC_THREADS", "6", 1);
  EXPECT_EQ(ExecutionPolicy::from_env().threads, 6);
  ::setenv("GPU_MCTS_EXEC_THREADS", "0", 1);
  EXPECT_EQ(ExecutionPolicy::from_env().threads, 1);
  ::setenv("GPU_MCTS_EXEC_THREADS", "99999", 1);
  EXPECT_EQ(ExecutionPolicy::from_env().threads, 1024);

  if (saved != nullptr) {
    ::setenv("GPU_MCTS_EXEC_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("GPU_MCTS_EXEC_THREADS");
  }
}

}  // namespace
}  // namespace gpu_mcts::simt
