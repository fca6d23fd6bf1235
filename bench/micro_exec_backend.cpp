// Wall-clock microbenchmark for the VirtualGpu execution backend
// (DESIGN.md §9): the same 112x128 launch of the kernel every Reversi
// search runs (PlayoutKernelFor, warp-batched), executed
// sequentially and on worker pools of increasing size. Results are
// bit-identical for every thread count — this measures the only thing the
// knob changes, host throughput. The per-iteration lane count is reported
// through SetItemsProcessed, so `items_per_second` is directly comparable
// across thread counts (the acceptance bar is >= 2x at 4 workers).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "reversi/reversi_game.hpp"
#include "simt/playout_kernel.hpp"
#include "simt/vgpu.hpp"
#include "util/clock.hpp"

namespace {

using namespace gpu_mcts;
using reversi::ReversiGame;

// One full-device launch (the paper's 112x128 grid) per iteration; the
// benchmark argument is the execution policy's thread count.
void BM_ExecBackendLaunch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kBlocks = 112;
  constexpr int kThreadsPerBlock = 128;

  simt::VirtualGpu gpu;
  gpu.set_execution_policy(simt::ExecutionPolicy{.threads = threads});
  const simt::LaunchConfig cfg{.blocks = kBlocks,
                               .threads_per_block = kThreadsPerBlock};
  const auto root = ReversiGame::initial_state();
  std::vector<ReversiGame::State> roots(kBlocks, root);
  std::vector<simt::BlockResult> results(kBlocks);
  std::uint64_t round = 0;

  for (auto _ : state) {
    for (auto& r : results) r = simt::BlockResult{};
    simt::PlayoutKernelFor<ReversiGame> kernel(roots, 7, round++,
                                               std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    benchmark::DoNotOptimize(gpu.launch(cfg, kernel, clock));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks * kThreadsPerBlock);
  state.counters["exec_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ExecBackendLaunch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A serve-sized launch: 78 blocks x 32 threads, the combined grid of a
// SearchService packing 32-thread sessions into 112x32 at 0.695 occupancy.
// Each launch is short, so the wake-up of the grid's threads shows here.
void BM_ExecBackendServeLaunch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kBlocks = 78;
  constexpr int kThreadsPerBlock = 32;

  simt::VirtualGpu gpu;
  gpu.set_execution_policy(simt::ExecutionPolicy{.threads = threads});
  const simt::LaunchConfig cfg{.blocks = kBlocks,
                               .threads_per_block = kThreadsPerBlock};
  const auto root = ReversiGame::initial_state();
  std::vector<ReversiGame::State> roots(kBlocks, root);
  std::vector<simt::BlockResult> results(kBlocks);
  std::uint64_t round = 0;

  for (auto _ : state) {
    for (auto& r : results) r = simt::BlockResult{};
    simt::PlayoutKernelFor<ReversiGame> kernel(roots, 7, round++,
                                               std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    benchmark::DoNotOptimize(gpu.launch(cfg, kernel, clock));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks * kThreadsPerBlock);
  state.counters["exec_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ExecBackendServeLaunch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The same grid split into two block_offset halves enqueued on two streams
// (the shape of a pipelined hybrid round, DESIGN.md §10) — the direct
// pipelined-vs-synchronous comparison row for this backend. Lane work is
// identical to BM_ExecBackendLaunch, so items_per_second is comparable
// between the two benchmarks at equal thread counts.
void BM_ExecBackendPipelined(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kBlocks = 112;
  constexpr int kThreadsPerBlock = 128;
  constexpr int kHalf = kBlocks / 2;

  simt::VirtualGpu gpu;
  gpu.set_execution_policy(simt::ExecutionPolicy{.threads = threads});
  const simt::LaunchConfig half_cfg[2] = {
      {.blocks = kHalf, .threads_per_block = kThreadsPerBlock,
       .block_offset = 0},
      {.blocks = kBlocks - kHalf, .threads_per_block = kThreadsPerBlock,
       .block_offset = kHalf}};
  const auto root = ReversiGame::initial_state();
  std::vector<ReversiGame::State> roots(kBlocks, root);
  std::vector<simt::BlockResult> results(kBlocks);
  std::uint64_t round = 0;

  for (auto _ : state) {
    for (auto& r : results) r = simt::BlockResult{};
    simt::PlayoutKernelFor<ReversiGame> kernel(roots, 7, round++,
                                               std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    const simt::StreamTicket tickets[2] = {
        gpu.launch_on(0, half_cfg[0], kernel, clock),
        gpu.launch_on(1, half_cfg[1], kernel, clock)};
    benchmark::DoNotOptimize(gpu.wait(tickets[0], clock));
    benchmark::DoNotOptimize(gpu.wait(tickets[1], clock));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks * kThreadsPerBlock);
  state.counters["exec_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ExecBackendPipelined)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The warp backend row (DESIGN.md §17): the same 112x128 grid through the
// scalar lane interpreter and the warp-batched SoA path, at 1 and 4 exec
// threads. Results are bit-identical across backends — the `backend`
// counter (0 = scalar, 1 = batched) labels which wall-clock row is which,
// and the acceptance bar is batched >= 2x scalar items_per_second at equal
// thread count.
void BM_WarpBackend(benchmark::State& state) {
  const auto backend = static_cast<simt::WarpBackend>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kBlocks = 112;
  constexpr int kThreadsPerBlock = 128;

  simt::VirtualGpu gpu;
  gpu.set_execution_policy(
      simt::ExecutionPolicy{.threads = threads, .warp_backend = backend});
  const simt::LaunchConfig cfg{.blocks = kBlocks,
                               .threads_per_block = kThreadsPerBlock};
  const auto root = ReversiGame::initial_state();
  std::vector<ReversiGame::State> roots(kBlocks, root);
  std::vector<simt::BlockResult> results(kBlocks);
  std::uint64_t round = 0;

  for (auto _ : state) {
    for (auto& r : results) r = simt::BlockResult{};
    simt::PlayoutKernelFor<ReversiGame> kernel(roots, 7, round++,
                                               std::span(results));
    util::VirtualClock clock(gpu.host().clock_hz);
    benchmark::DoNotOptimize(gpu.launch(cfg, kernel, clock));
  }
  state.SetItemsProcessed(state.iterations() * kBlocks * kThreadsPerBlock);
  state.counters["exec_threads"] = static_cast<double>(threads);
  state.counters["backend"] = static_cast<double>(state.range(0));
  state.SetLabel(simt::warp_backend_name(backend));
}
BENCHMARK(BM_WarpBackend)
    ->ArgsProduct({{static_cast<long>(simt::WarpBackend::kScalar),
                    static_cast<long>(simt::WarpBackend::kBatched)},
                   {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// BENCHMARK_MAIN(), plus a default --benchmark_out: unless the caller
// already passed one, results also land in BENCH_micro_exec_backend.json
// (machine-readable, same data as the console table).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_exec_backend.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
