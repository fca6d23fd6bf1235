// SessionCohortSource: the cross-session generalization of the block
// scheme's round (DESIGN.md §13). Where one RoundDriver feeds one search's
// trees to one grid, this packs the trees of *many* concurrent searches —
// each its own block-scheme RoundDriver — into a single combined launch.
//
// The round is the drivers' own synchronous round, split at its launch:
// every driver stages (selection, upload, kernel built), the kernels
// execute once for everyone (simt::MultiplexKernel over one combined
// grid), and every driver settles. Each driver is charged exactly what
// its own launch would have cost — its slice of the warp traces, rebased
// to segment-local block identities, priced through the same timing model
// — so a tenant's move, bitwise stats, and trace-event stream are identical
// to the standalone BlockParallelGpuSearcher no matter who shares the grid
// (tests/serve/test_service.cpp pins it, trace hash included).
//
// Isolation: results and RNG streams are session-local by construction
// (MultiplexKernel remaps lane identities to segment-local ones), each
// driver's clock/stats/tracer are its own, and host phases run driver by
// driver on the controlling thread. Tenants couple only through the
// *service* timeline — the shared combined launch is what the scheduler's
// RoundCharge prices, so contention shows up as queueing latency, never as
// a perturbation of a tenant's search.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "game/game_traits.hpp"
#include "parallel/driver/round_driver.hpp"
#include "simt/multiplex_kernel.hpp"
#include "simt/playout_kernel.hpp"
#include "simt/timing.hpp"
#include "simt/vgpu.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"

namespace gpu_mcts::parallel::driver {

/// The cross-session round engine: packs the given drivers into one
/// combined grid, launches once, and settles each driver with its slice.
/// Stateless — the serving layer owns driver lifetimes and scheduling;
/// this owns only the packing, the launch, and the slicing.
template <game::Game G>
class SessionCohortSource {
 public:
  /// What one combined round costs, for the service's own timeline: the
  /// shared launch charge (paid once — the tenants ride the same kernel)
  /// plus the sum of the drivers' serialized host phases (selection,
  /// transfers, backprop: one controlling core does them driver by driver).
  struct RoundCharge {
    std::uint64_t kernel_cycles = 0;
    std::uint64_t host_cycles = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
      return kernel_cycles + host_cycles;
    }
  };

  /// Runs one combined round. Drivers must share the service's block size
  /// and their block counts must sum to at most the device's grid limit
  /// (the scheduler's packing invariant).
  static RoundCharge run_round(simt::VirtualGpu& gpu,
                               std::span<CohortRoundDriver<G>* const> drivers) {
    util::expects(!drivers.empty(), "combined round has drivers");
    const int tpb = drivers.front()->config().launch.threads_per_block;

    std::vector<std::uint64_t> cycles_before;
    cycles_before.reserve(drivers.size());
    std::vector<typename simt::MultiplexKernel<simt::PlayoutKernelFor<G>>::Segment>
        segments;
    segments.reserve(drivers.size());
    int total_blocks = 0;
    for (CohortRoundDriver<G>* driver : drivers) {
      const simt::LaunchConfig& own = driver->config().launch;
      util::expects(own.threads_per_block == tpb,
                    "drivers share the service block size");
      cycles_before.push_back(driver->clock_cycles());
      segments.push_back({total_blocks, own.blocks, &driver->stage_round()});
      total_blocks += own.blocks;
    }

    const simt::LaunchConfig cfg{.blocks = total_blocks,
                                 .threads_per_block = tpb};
    simt::MultiplexKernel<simt::PlayoutKernelFor<G>> mux(std::move(segments),
                                                      tpb);
    // Scratch clock: the launch's charge lands on each driver (and the
    // service timeline) explicitly; the fault-free service never takes the
    // traced launch's fault branches.
    util::VirtualClock launch_clock(gpu.host().clock_hz);
    simt::TracedLaunch combined = gpu.launch_traced(cfg, mux, launch_clock);
    util::check(combined.result.ok(), "service launches are fault-free");

    RoundCharge charge;
    // The service pays for the *combined* launch once — that is where
    // device contention lands (as queueing latency), while each driver's
    // own timeline is charged only its standalone-equivalent kernel cost.
    charge.kernel_cycles = gpu.host_cycles_for(combined.result);
    const auto warps_per_block =
        static_cast<std::size_t>(cfg.warps_per_block(gpu.device()));
    std::size_t trace_offset = 0;
    int block_offset = 0;
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      CohortRoundDriver<G>* driver = drivers[i];
      const simt::LaunchConfig& own = driver->config().launch;
      // Rebase the slice to the block identities a launch of this grid
      // would have traced; SM assignment (block % sm_count) feeds the
      // timing model.
      const std::span<simt::WarpTrace> slice(
          combined.traces.data() + trace_offset,
          static_cast<std::size_t>(own.blocks) * warps_per_block);
      for (simt::WarpTrace& w : slice) w.block -= block_offset;
      simt::LaunchResult priced;
      priced.device_cycles =
          simt::device_cycles_for(slice, own, gpu.device(), gpu.cost());
      priced.stats = simt::aggregate_stats(slice, gpu.device());
      driver->settle_round(priced);
      trace_offset += slice.size();
      block_offset += own.blocks;
      charge.host_cycles += (driver->clock_cycles() - cycles_before[i]) -
                            gpu.host_cycles_for(priced);
    }
    return charge;
  }
};

}  // namespace gpu_mcts::parallel::driver
