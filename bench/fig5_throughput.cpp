// Figure 5 — "Block parallelism vs Leaf parallelism, speed":
// simulations/second as a function of total GPU threads for
//   * leaf parallelism, block size 64
//   * block parallelism, block size 32
//   * block parallelism, block size 128
//
// Paper shape: leaf rises to ~8-9e5 sims/s at 14336 threads; block curves
// sit below it, and block(32) falls behind block(128) as the tree count
// grows ("as I decrease the number of threads per block and at the same time
// increase the number of trees, the number of simulations per second
// decreases. This is due to the CPU's sequential part").
//
// Besides the table, the run emits BENCH_fig5_throughput.json: every row in
// machine-readable form plus a pipeline-depth sweep of the hybrid scheme
// (hybrid:112x128 at depths 1-3, wall-clock and virtual sims/s), the only
// scheme whose stream rounds overlap CPU work.
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "engine/factory.hpp"
#include "reversi/reversi_game.hpp"
#include "simt/vgpu.hpp"
#include "util/table.hpp"

namespace {

using namespace gpu_mcts;

/// The warp backend every launch in this process uses (DESIGN.md §17) —
/// recorded per row so JSON consumers can tell a scalar sweep from a
/// batched one when comparing wall-clock rates across runs.
const char* exec_backend() {
  return simt::warp_backend_name(simt::warp_backend_from_env());
}

struct Measurement {
  double virtual_rate = 0.0;  // simulations per *virtual* second
  double wall_seconds = 0.0;
  std::uint64_t simulations = 0;

  [[nodiscard]] double wall_rate() const {
    return wall_seconds > 0.0
               ? static_cast<double>(simulations) / wall_seconds
               : 0.0;
  }
};

Measurement measure(const engine::SchemeSpec& spec, double budget,
                    bench::TraceSession& trace) {
  auto player = engine::make_searcher<reversi::ReversiGame>(spec);
  trace.attach(*player);
  const auto start = std::chrono::steady_clock::now();
  (void)player->choose_move(reversi::ReversiGame::initial_state(), budget);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  Measurement m;
  m.virtual_rate = player->last_stats().simulations_per_second();
  m.wall_seconds = elapsed.count();
  m.simulations = player->last_stats().simulations;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  auto flags = bench::CommonFlags::parse(args);
  // Throughput needs no games; budget controls measurement length.
  flags.budget = args.get_double("budget", flags.quick ? 0.02 : 0.05);
  bench::print_header("Figure 5: simulations/second vs GPU threads", flags);

  const bool full = args.get_bool("full", !flags.quick);
  bench::TraceSession trace(flags);
  util::Table table({"threads", "leaf_bs64_sims_per_s", "block_bs32_sims_per_s",
                     "block_bs128_sims_per_s"});
  std::vector<bench::JsonRow> json_rows;

  for (const int threads : bench::thread_axis(full)) {
    table.begin_row().add(threads);

    const engine::SchemeSpec specs[] = {
        engine::SchemeSpec::leaf_gpu_threads(threads, 64)
            .with_seed(flags.seed),
        engine::SchemeSpec::block_gpu_threads(threads, 32)
            .with_seed(flags.seed),
        engine::SchemeSpec::block_gpu_threads(threads, 128)
            .with_seed(flags.seed),
    };
    for (const engine::SchemeSpec& spec : specs) {
      const Measurement m = measure(spec, flags.budget, trace);
      table.add(m.virtual_rate, 0);
      json_rows.push_back({{"scheme", bench::jstr(spec.to_string())},
                           {"threads", bench::jint(
                               static_cast<std::uint64_t>(threads))},
                           {"virtual_sims_per_s", bench::jnum(m.virtual_rate)},
                           {"wall_seconds", bench::jnum(m.wall_seconds)},
                           {"wall_sims_per_s", bench::jnum(m.wall_rate())},
                           {"simulations", bench::jint(m.simulations)},
                           {"exec_backend", bench::jstr(exec_backend())}});
    }
  }

  bench::emit(table, flags, "fig5_throughput");

  // Pipeline-depth sweep (DESIGN.md §10): hybrid:112x128 at stream depths
  // 1, 2 and 3, the one scheme whose streams overlap CPU work. Depth 1 is
  // the synchronous round; deeper rounds fold their overlap iterations into
  // the one virtual timeline, so both clocks are reported per depth.
  const engine::SchemeSpec hybrid =
      engine::SchemeSpec::hybrid(112, 128).with_seed(flags.seed);
  util::Table depth_table({"config", "depth", "wall_seconds",
                           "wall_sims_per_s", "virtual_sims_per_s"});
  double depth_rate[4] = {};
  for (const int depth : {1, 2, 3}) {
    const engine::SchemeSpec spec =
        hybrid.with_pipeline().with_pipeline_depth(depth);
    const Measurement m = measure(spec, flags.budget, trace);
    depth_rate[depth] = m.wall_rate();
    depth_table.begin_row()
        .add(spec.to_string())
        .add(depth)
        .add(m.wall_seconds)
        .add(m.wall_rate(), 0)
        .add(m.virtual_rate, 0);
    json_rows.push_back(
        {{"scheme", bench::jstr("pipeline_depth_sweep")},
         {"config", bench::jstr(spec.to_string())},
         {"pipeline_depth", bench::jint(static_cast<std::uint64_t>(depth))},
         {"wall_seconds", bench::jnum(m.wall_seconds)},
         {"wall_sims_per_s", bench::jnum(m.wall_rate())},
         {"virtual_sims_per_s", bench::jnum(m.virtual_rate)},
         {"simulations", bench::jint(m.simulations)},
         {"exec_backend", bench::jstr(exec_backend())}});
  }
  std::cout << "Pipeline-depth sweep, hybrid (depth 1 is synchronous):\n";
  bench::emit(depth_table, flags, "fig5_pipeline_depth_sweep");
  const double ratio =
      depth_rate[1] > 0.0 ? depth_rate[2] / depth_rate[1] : 0.0;
  std::cout << "depth-2/depth-1 wall-clock speedup: " << ratio
            << " (host has " << std::thread::hardware_concurrency()
            << " hardware threads)\n\n";
  json_rows.push_back({{"scheme", bench::jstr("pipeline_comparison")},
                       {"config", bench::jstr(hybrid.to_string())},
                       {"sync_wall_sims_per_s", bench::jnum(depth_rate[1])},
                       {"pipelined_wall_sims_per_s",
                        bench::jnum(depth_rate[2])},
                       {"wall_speedup", bench::jnum(ratio)},
                       {"exec_backend", bench::jstr(exec_backend())}});
  bench::write_bench_json(
      "fig5_throughput",
      {{"bench", bench::jstr("fig5_throughput")},
       {"budget_virtual_seconds", bench::jnum(flags.budget)},
       {"seed", bench::jint(flags.seed)},
       {"exec_threads", bench::jint(
           static_cast<std::uint64_t>(flags.exec_threads))},
       {"hardware_concurrency",
        bench::jint(std::thread::hardware_concurrency())},
       {"exec_backend", bench::jstr(exec_backend())}},
      "rows", json_rows);
  trace.finish();

  std::cout << "Expected shape (paper): leaf(64) tops out ~8-9e5 sims/s at "
               "14336 threads;\nblock(128) below leaf; block(32) lowest at "
               "high thread counts (CPU sequential part).\n";
  return 0;
}
