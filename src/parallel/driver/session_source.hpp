// SessionCohortSource: the cross-session generalization of the block
// scheme's round (DESIGN.md §13). Where CohortTreesSource feeds one search's
// trees to one grid, this engine packs the trees of *many* concurrent search
// sessions into a single combined launch: each session riding a round is a
// SessionRider holding exactly the per-search state RoundDriver keeps for
// the block scheme — CohortTreesSource + PerTreeSink, persistent device
// buffers, a private virtual clock, stats, and (optionally) a private
// tracer.
//
// The round is a per-rider mirror of RoundDriver's fault-free synchronous
// cohort round, phase for phase and charge for charge, with one exception:
// the kernel executes once for everyone (simt::MultiplexKernel over one
// combined grid). Each rider's *search timeline* is still charged exactly
// what its own standalone launch would have cost — its slice of the warp
// traces, rebased to segment-local block identities, priced through the
// same timing model — so a tenant's move, bitwise stats, and trace-event
// stream are identical to the standalone BlockParallelGpuSearcher no matter
// who shares the grid (tests/serve/test_service.cpp pins it, trace hash
// included).
//
// Isolation: results and RNG streams are session-local by construction
// (MultiplexKernel remaps lane identities to segment-local ones), each
// rider's clock/stats/tracer are its own, and host phases run rider by
// rider on the controlling thread. Tenants couple only through the
// *service* timeline — the shared combined launch is what the scheduler's
// RoundCharge prices, so contention shows up as queueing latency, never as
// a perturbation of a tenant's search.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/budget.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/stats.hpp"
#include "obs/trace.hpp"
#include "parallel/driver/policies.hpp"
#include "simt/device_buffer.hpp"
#include "simt/multiplex_kernel.hpp"
#include "simt/playout_kernel.hpp"
#include "simt/timing.hpp"
#include "simt/vgpu.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace gpu_mcts::parallel::driver {

/// One session's in-flight search: the per-ticket state of a supervised
/// block-parallel search, advanced one shared round at a time by
/// SessionCohortSource::run_round. Construction is the RoundDriver
/// preamble; conclude() is its postamble.
template <game::Game G>
class SessionRider {
 public:
  /// `service_cancel` is the serving layer's own cancellation channel
  /// (serve::SearchService::cancel), checked alongside the budget's token;
  /// either one stops the search with StopReason::kCancelled. `gpu_track`
  /// is the rider tracer's "gpu" track id (created at session open, so the
  /// track layout matches a standalone searcher's set_tracer order).
  SessionRider(const typename G::State& state,
               const mcts::SearchConfig& config, std::uint64_t search_seed,
               std::size_t blocks, int threads_per_block,
               const mcts::SearchBudget& budget,
               util::CancelToken* service_cancel, obs::Tracer* tracer,
               int gpu_track, const std::string& label, double clock_hz)
      : source_({.expansion_instant = true}),
        sink_({.playout_plies_histogram = true}),
        roots_(blocks),
        results_(blocks),
        clock_(clock_hz),
        blocks_(blocks),
        tpb_(threads_per_block),
        search_seed_(search_seed),
        budget_(budget),
        stop_(budget, service_cancel),
        tracer_(tracer),
        gpu_track_(gpu_track) {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    util::expects(blocks_ >= 1, "rider owns at least one block");
    deadline_ = clock_.to_cycles(budget_.virtual_seconds);
    source_.init(state, config, search_seed_, blocks_);
    // Matches RoundDriver's `supervised`: the *budget's* bounds only. The
    // service token is checked silently so an uncancelled service ticket
    // keeps the unsupervised trace stream (and hash) of the standalone
    // searcher.
    user_supervised_ = budget_.wall_ms.has_value() ||
                       budget_.cancel != nullptr ||
                       budget_.stop_on_tree_saturation;
    if (tracer_ != nullptr) {
      (void)tracer_->begin_search(label);
      tracer_->set_frequency(clock_.frequency_hz());
    }
  }

  SessionRider(const SessionRider&) = delete;
  SessionRider& operator=(const SessionRider&) = delete;

  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  [[nodiscard]] int threads_per_block() const noexcept { return tpb_; }
  [[nodiscard]] std::uint64_t clock_cycles() const noexcept {
    return clock_.cycles();
  }
  /// True once a round boundary decided to stop (deadline, wall, cancel,
  /// saturation). The rider must then be concluded, not staged again.
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] const mcts::SearchStats& stats() const noexcept {
    return stats_;
  }
  /// The staged kernel for the current round (valid between stage_round and
  /// settle_round; the combined launch borrows it).
  [[nodiscard]] simt::PlayoutKernelFor<G>& kernel() { return *kernel_; }

  /// Round phase A — everything the synchronous round does before its
  /// launch: selection (span + bulk charge + expansion instant), root
  /// upload, the "kernel" span opening, result zeroing, kernel staging.
  void stage_round(const simt::VirtualGpu& gpu, util::ThreadPool* pool) {
    util::expects(!finished_, "staging a finished rider");
    if (budget_.stop_on_tree_saturation) {
      nodes_before_round_ = total_tree_nodes();
    }
    source_.select(tracer_, clock_, pool, gpu.cost(), roots_.host(), 0,
                   blocks_, /*cohort=*/-1);
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "upload", clock_);
      roots_.upload(clock_);
    }
    kernel_begin_cycle_ = clock_.cycles();
    if (tracer_ != nullptr) {
      tracer_->begin(kHostTrack, "kernel", kernel_begin_cycle_,
                     {{"blocks", static_cast<double>(blocks_)},
                      {"threads_per_block", static_cast<double>(tpb_)}});
    }
    const std::span<simt::BlockResult> device_results = results_.device_view();
    for (simt::BlockResult& r : device_results) r = simt::BlockResult{};
    kernel_.emplace(roots_.device_view(), search_seed_, round_,
                    device_results);
  }

  /// Round phase B — everything after the launch, charged and emitted
  /// exactly as the standalone round would: the rider's warp-trace slice is
  /// rebased to segment-local block identities and priced through the same
  /// timing model a standalone launch of this rider's grid would use, so
  /// the "kernel_launch" instant, the host kernel charge, and everything
  /// downstream (divergence counter, download, backprop, stop decision) are
  /// bit-identical to the unshared search. Returns the rider's own kernel
  /// host charge (the scheduler subtracts it when pricing the service
  /// round). `block_offset` is the rider's segment origin in the combined
  /// grid; `slice` its contiguous run of warp traces.
  std::uint64_t settle_round(const simt::VirtualGpu& gpu,
                             util::ThreadPool* pool, int block_offset,
                             std::span<const simt::WarpTrace> slice) {
    // Rebase to the block identities a standalone launch would have traced;
    // SM assignment (block % sm_count) feeds the timing model.
    std::vector<simt::WarpTrace> local(slice.begin(), slice.end());
    for (simt::WarpTrace& w : local) w.block -= block_offset;
    const simt::LaunchConfig my_cfg{.blocks = static_cast<int>(blocks_),
                                    .threads_per_block = tpb_};
    simt::LaunchResult mine;
    mine.device_cycles =
        simt::device_cycles_for(local, my_cfg, gpu.device(), gpu.cost());
    mine.stats = simt::aggregate_stats(local, gpu.device());
    const double divergence = mine.stats.divergence_waste();
    if (tracer_ != nullptr) {
      tracer_->instant(
          gpu_track_, "kernel_launch", kernel_begin_cycle_,
          {{"blocks", static_cast<double>(blocks_)},
           {"threads_per_block", static_cast<double>(tpb_)},
           {"device_cycles", mine.device_cycles},
           {"divergence", divergence}});
      tracer_->metrics()
          .histogram("kernel_divergence",
                     {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75})
          .observe(divergence);
    }
    const std::uint64_t kernel_charge = gpu.host_cycles_for(mine);
    clock_.advance(kernel_charge);
    if (tracer_ != nullptr) {
      tracer_->end(kHostTrack, "kernel", clock_.cycles());
      tracer_->counter(kHostTrack, "divergence", clock_.cycles(), divergence);
    }
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "download", clock_);
      results_.download(clock_);
    }
    const std::span<const simt::BlockResult> tallies =
        results_.host_checked();
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "backprop", clock_);
      sink_.backprop(source_, 0, blocks_, tallies, pool);
    }
    sink_.observe(tracer_, stats_, tallies);
    waste_sum_ += divergence;
    stats_.gpu_rounds += 1;
    kernel_.reset();
    ++round_;
    stats_.rounds += 1;
    if (budget_.stop_on_tree_saturation && !stop_.stopped() &&
        total_tree_nodes() == nodes_before_round_) {
      stop_.latch(mcts::StopReason::kTreeSaturated);
    }
    // RoundDriver's loop condition (mcts::run_until), one round at a time.
    finished_ = stop_.should_stop() || clock_.cycles() >= deadline_;
    return kernel_charge;
  }

  /// RoundDriver postamble: final move + merged stats + closing trace
  /// bookkeeping. Every rider rode at least one full GPU round (blocks x
  /// threads simulations), so the driver's supervised anytime guard — one
  /// CPU iteration when a stopped search simulated nothing — can never
  /// apply here, and the fault-free service omits the fallback machinery
  /// entirely (stats_.faults stays the empty log a disabled injector
  /// produces).
  [[nodiscard]] SearchOutcome<G> conclude() {
    SearchOutcome<G> outcome = source_.conclude(stats_);
    stats_.stop_reason = stop_.reason();
    stats_.virtual_seconds = clock_.seconds();
    if (stats_.gpu_rounds > 0) {
      stats_.divergence_waste =
          waste_sum_ / static_cast<double>(stats_.gpu_rounds);
    }
    if (tracer_ != nullptr) {
      tracer_->counter(kHostTrack, "simulations", clock_.cycles(),
                       static_cast<double>(stats_.simulations));
      tracer_->metrics().counter("gpu_simulations").add(stats_.gpu_simulations);
      tracer_->metrics().counter("cpu_iterations").add(stats_.cpu_iterations);
      tracer_->metrics().counter("kernel_rounds").add(stats_.rounds);
      // Gated like the driver's: a budget-supervised ticket always gets the
      // instant; an unsupervised one only when the service actually stopped
      // it early (hash parity holds for the standalone-comparable case).
      if (user_supervised_ ||
          stats_.stop_reason != mcts::StopReason::kBudget) {
        tracer_->instant(kHostTrack, "stop_reason", clock_.cycles(),
                         {{"reason", static_cast<double>(static_cast<unsigned>(
                               stats_.stop_reason))}});
      }
    }
    return outcome;
  }

 private:
  static constexpr int kHostTrack = obs::Tracer::kHostTrack;

  [[nodiscard]] std::uint64_t total_tree_nodes() {
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < blocks_; ++t) {
      n += source_.tree(t).node_count();
    }
    return n;
  }

  CohortTreesSource<G> source_;
  PerTreeSink<G> sink_;
  simt::DeviceBuffer<typename G::State> roots_;
  simt::DeviceBuffer<simt::BlockResult> results_;
  util::VirtualClock clock_;
  std::size_t blocks_;
  int tpb_;
  std::uint64_t search_seed_;
  mcts::SearchBudget budget_;
  /// The budget's bounds plus the service token, which stops the search
  /// with StopReason::kCancelled just like the budget's own.
  mcts::StopCheck stop_;
  obs::Tracer* tracer_;
  int gpu_track_;
  std::uint64_t deadline_ = 0;
  bool user_supervised_ = false;
  mcts::SearchStats stats_;
  std::optional<simt::PlayoutKernelFor<G>> kernel_;
  std::uint64_t kernel_begin_cycle_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t nodes_before_round_ = 0;
  double waste_sum_ = 0.0;
  bool finished_ = false;
};

/// The cross-session round engine: packs the given riders into one combined
/// grid, launches once, and settles each rider's slice. Stateless — the
/// serving layer owns rider lifetimes and scheduling; this owns only the
/// round's mechanics.
template <game::Game G>
class SessionCohortSource {
 public:
  /// What one combined round costs, for the service's own timeline: the
  /// shared launch charge (paid once — the tenants ride the same kernel)
  /// plus the sum of the riders' serialized host phases (selection,
  /// transfers, backprop: one controlling core does them rider by rider).
  struct RoundCharge {
    std::uint64_t kernel_cycles = 0;
    std::uint64_t host_cycles = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
      return kernel_cycles + host_cycles;
    }
  };

  /// Runs one combined round. Riders must share the service's block size
  /// and their block counts must sum to at most the device's grid limit
  /// (the scheduler's packing invariant).
  static RoundCharge run_round(simt::VirtualGpu& gpu,
                               std::span<SessionRider<G>* const> riders) {
    util::expects(!riders.empty(), "combined round has riders");
    const int tpb = riders.front()->threads_per_block();
    util::ThreadPool* pool = gpu.worker_pool();

    std::vector<std::uint64_t> cycles_before;
    cycles_before.reserve(riders.size());
    std::vector<typename simt::MultiplexKernel<simt::PlayoutKernelFor<G>>::Segment>
        segments;
    segments.reserve(riders.size());
    int total_blocks = 0;
    for (SessionRider<G>* rider : riders) {
      util::expects(rider->threads_per_block() == tpb,
                    "riders share the service block size");
      cycles_before.push_back(rider->clock_cycles());
      rider->stage_round(gpu, pool);
      segments.push_back({total_blocks, static_cast<int>(rider->blocks()),
                          &rider->kernel()});
      total_blocks += static_cast<int>(rider->blocks());
    }

    const simt::LaunchConfig cfg{.blocks = total_blocks,
                                 .threads_per_block = tpb};
    simt::MultiplexKernel<simt::PlayoutKernelFor<G>> mux(std::move(segments),
                                                      tpb);
    // Scratch clock: the launch's charge lands on each rider (and the
    // service timeline) explicitly; the fault-free service never takes the
    // traced launch's fault branches.
    util::VirtualClock launch_clock(gpu.host().clock_hz);
    const simt::TracedLaunch combined =
        gpu.launch_traced(cfg, mux, launch_clock);
    util::check(combined.result.ok(), "service launches are fault-free");

    RoundCharge charge;
    // The service pays for the *combined* launch once — that is where
    // device contention lands (as queueing latency), while each rider's own
    // timeline is charged only its standalone-equivalent kernel cost.
    charge.kernel_cycles = gpu.host_cycles_for(combined.result);
    const int warps_per_block = cfg.warps_per_block(gpu.device());
    const std::span<const simt::WarpTrace> traces(combined.traces);
    std::size_t trace_offset = 0;
    int block_offset = 0;
    for (std::size_t i = 0; i < riders.size(); ++i) {
      SessionRider<G>* rider = riders[i];
      const std::size_t warps =
          rider->blocks() * static_cast<std::size_t>(warps_per_block);
      const std::uint64_t rider_kernel_charge = rider->settle_round(
          gpu, pool, block_offset, traces.subspan(trace_offset, warps));
      trace_offset += warps;
      block_offset += static_cast<int>(rider->blocks());
      charge.host_cycles +=
          (rider->clock_cycles() - cycles_before[i]) - rider_kernel_charge;
    }
    return charge;
  }
};

}  // namespace gpu_mcts::parallel::driver
