// RoundDriver: the one pipelined GPU round engine behind every parallel
// scheme (DESIGN.md §11). A scheme — leaf, block, hybrid — is a policy
// bundle (RoundSource × RoundSink × FallbackPolicy, policies.hpp) plus a
// Config; the driver owns everything those schemes used to duplicate:
//
//  * the round loop and deadline decisions, resumable round by round so
//    standalone and served search (serve::SearchService) share one engine,
//  * cohort construction and N-way stream rotation (Config::pipeline_depth
//    generalizes the two-stream ping-pong; depth 2 is bit-exact to it),
//  * upload/launch/wait/download sequencing, enqueue-time fault surfacing,
//    retry, per-cohort abandonment, and CPU degradation,
//  * the dual-clock canonical charges of pipelined rounds,
//  * and all SearchStats / obs::Tracer bookkeeping.
//
// Determinism of the N-way rotation (the argument DESIGN.md §11 spells out):
// cohort grids are block_offset slices of the one logical grid, so the union
// of their lanes — identities, RNG streams, SM placement — is exactly the
// covering synchronous launch's; each tree's rounds stay totally ordered
// inside its cohort; and stats/tracer folds run on the controlling thread in
// cohort-then-tree order. Virtual time is either charged canonically (the
// fault-free dual-clock mode advances the main clock once per round by the
// exact synchronous totals) or honestly (faults, and the hybrid overlap,
// where the interleaved schedule *is* the timeline).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "game/game_traits.hpp"
#include "mcts/budget.hpp"
#include "mcts/config.hpp"
#include "mcts/search_loop.hpp"
#include "mcts/searcher.hpp"
#include "obs/trace.hpp"
#include "parallel/driver/policies.hpp"
#include "parallel/merge.hpp"
#include "simt/device_buffer.hpp"
#include "simt/playout_kernel.hpp"
#include "simt/timing.hpp"
#include "simt/vgpu.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace gpu_mcts::parallel::driver {

/// Human-readable scheme-name suffix for a pipelined configuration — the
/// seed spelling for the legacy two-stream depth, an explicit depth
/// otherwise ("" / ", pipelined" / ", pipelined:3").
[[nodiscard]] inline std::string pipeline_suffix(bool pipeline, int depth) {
  if (!pipeline) return "";
  if (depth == 2) return ", pipelined";
  return ", pipelined:" + std::to_string(depth);
}

/// How a round's kernel time is spent on the host side.
enum class SimulateMode {
  /// Launch and block: the host idles for the kernel's duration.
  kSync,
  /// Launch asynchronously and run the fallback policy's CPU iterations
  /// until the kernel completes (the paper's "CPU can work here!" overlap).
  kAsyncOverlap,
};

template <game::Game G, typename SourceT, typename SinkT, typename FallbackT>
  requires RoundSource<SourceT, G> && RoundSink<SinkT, G, SourceT> &&
           FallbackPolicy<FallbackT, G, SourceT>
class RoundDriver {
  static_assert(SourceT::kSharedRoot || FallbackT::kEnabled,
                "cohort rounds degrade through the CPU fallback");

 public:
  struct Config {
    simt::LaunchConfig launch;
    /// Number of stream cohorts per round. 1 = synchronous rounds; >= 2
    /// rotates the round across that many VirtualGpu streams (clamped to
    /// kMaxStreams and the block count — a 1-block grid cannot split).
    int pipeline_depth = 1;
    SimulateMode mode = SimulateMode::kSync;
    /// kAsyncOverlap only: when false the host idles during kernel
    /// execution (the block-parallel ablation of the hybrid scheme).
    bool cpu_overlap = true;
  };

  RoundDriver(Config config, typename SourceT::Options source_options,
              typename SinkT::Options sink_options,
              typename FallbackT::Options fallback_options,
              mcts::SearchConfig search_config,
              simt::VirtualGpu gpu = simt::VirtualGpu())
      : config_(config), source_(source_options), sink_(sink_options),
        fallback_(fallback_options), search_config_(search_config),
        gpu_(std::move(gpu)) {
    simt::validate(config_.launch, gpu_.device());
    util::expects(config_.pipeline_depth >= 1, "pipeline depth positive");
  }

  /// Cohorts a round actually splits into (1 = synchronous).
  [[nodiscard]] int effective_depth() const noexcept {
    int depth = config_.pipeline_depth;
    if (depth > simt::VirtualGpu::kMaxStreams) {
      depth = simt::VirtualGpu::kMaxStreams;
    }
    // A D-way split needs at least one block per cohort; a 1-block grid
    // cannot split at all (the seed schemes' `blocks >= 2` gate).
    if (depth > config_.launch.blocks) depth = config_.launch.blocks;
    return depth;
  }

  [[nodiscard]] SearchOutcome<G> run(const typename G::State& state,
                                     double budget_seconds,
                                     std::uint64_t search_seed,
                                     const std::string& label) {
    return run(state, mcts::SearchBudget::from_seconds(budget_seconds),
               search_seed, label);
  }

  /// Supervised run (DESIGN.md §12): the virtual budget plus an optional
  /// wall-clock deadline, cancellation token, and saturation stop. All of
  /// them are checked at round boundaries, the wall deadline and token
  /// additionally at cohort boundaries inside a pipelined round, and the
  /// wall deadline clamps the hang watchdog on every stream wait — so even
  /// under injected hangs the call returns within a small multiple of
  /// wall_ms, always with a legal best-so-far move (the anytime contract).
  /// A default-constructed budget takes exactly the unsupervised paths: no
  /// extra fault draws, no extra trace events, bit-identical results.
  [[nodiscard]] SearchOutcome<G> run(const typename G::State& state,
                                     const mcts::SearchBudget& budget,
                                     std::uint64_t search_seed,
                                     const std::string& label) {
    begin(state, budget, search_seed, label);
    Search& s = *search_;
    mcts::run_until(s.stop, s.clock, s.deadline, [&] { step(); });
    return conclude();
  }

  // ---- Resumable search: begin -> rounds -> conclude ---------------------
  //
  // run() is exactly this sequence. serve::SearchService drives it one
  // round at a time for every in-flight ticket, splitting each synchronous
  // round at its launch (stage_round / settle_round) so that one combined
  // launch serves many searches.

  /// Opens a search: trees, device buffers, cohorts, the tracer epoch.
  /// `extra_cancel` (the serving layer's per-ticket token) stops the search
  /// with StopReason::kCancelled like the budget's own token, but does not
  /// make it supervised: an uncancelled ticket keeps the unsupervised trace
  /// stream.
  void begin(const typename G::State& state, const mcts::SearchBudget& budget,
             std::uint64_t search_seed, const std::string& label,
             util::CancelToken* extra_cancel = nullptr) {
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    search_ =
        std::make_unique<Search>(budget, extra_cancel, gpu_.host().clock_hz);
    Search& s = *search_;
    s.search_seed = search_seed;
    s.trees_n = SourceT::kSharedRoot
                    ? 1
                    : static_cast<std::size_t>(config_.launch.blocks);
    source_.init(state, search_config_, search_seed, s.trees_n);
    fallback_.init(search_seed, s.trees_n);
    stats_ = {};

    if constexpr (FallbackT::kEnabled) gpu_.fault_injector().reset_log();

    // Cohort sources keep persistent kernel I/O buffers for the search:
    // roots up, results down, with PCIe transfer costs charged per round.
    // Only a fault-handling bundle attaches the injector — a disabled
    // fallback means transfers never fault and launches never retry.
    if constexpr (!SourceT::kSharedRoot) {
      s.roots.emplace(s.trees_n);
      s.results.emplace(s.trees_n);
      if constexpr (FallbackT::kEnabled) {
        s.roots->set_fault_injector(&gpu_.fault_injector());
        s.roots->set_retry_policy(fallback_.options().retry);
        s.results->set_fault_injector(&gpu_.fault_injector());
        s.results->set_retry_policy(fallback_.options().retry);
      }
    }
    // Threaded execution backend: the same pool that partitions kernel
    // grids also fans out the per-tree host phases (each tree owns its RNG
    // and arena, so parallel order cannot change results). nullptr =
    // sequential.
    s.pool = gpu_.worker_pool();

    // Two timelines (DESIGN.md §10). The overlap clock is the honest
    // overlapped schedule of a pipelined round. Without faults, in kSync
    // mode, the *main* clock instead advances once per round by exactly the
    // synchronous round total — the canonical timeline that keeps deadline
    // decisions, and therefore every result and stat, bit-identical with
    // pipelining off. Under faults (retries and fallbacks restructure the
    // round) and in kAsyncOverlap mode (overlap iterations are real host
    // work) the honest schedule is the only schedule, so pipe() is the
    // main clock.
    const int depth = effective_depth();
    s.pipelined = depth >= 2;
    s.dual_clock = s.pipelined && !gpu_.fault_injector().enabled() &&
                   config_.mode == SimulateMode::kSync;
    if (s.pipelined) {
      gpu_.reset_stream_timeline();
      // Cohort c covers [c*B/D, (c+1)*B/D) of the logical grid on stream c
      // — for D = 2 exactly the seed schemes' half = B/2 ping-pong split.
      const auto d = static_cast<std::size_t>(depth);
      const auto total = static_cast<std::size_t>(config_.launch.blocks);
      for (std::size_t c = 0; c < d; ++c) {
        const std::size_t first = total * c / d;
        const std::size_t end = total * (c + 1) / d;
        s.cohorts.push_back(
            {first, end - first, static_cast<int>(c),
             simt::LaunchConfig{
                 .blocks = static_cast<int>(end - first),
                 .threads_per_block = config_.launch.threads_per_block,
                 .block_offset = static_cast<int>(first)}});
      }
    }
    // Per-round scratch, sized once per search: a search runs thousands of
    // rounds, and re-allocating these each round was the driver's
    // steady-state heap traffic (tests/parallel/test_round_alloc.cpp pins
    // the bound). Stream kernels must outlive their wait (the worker holds
    // a reference).
    s.kernels.resize(s.cohorts.size());
    s.round_tickets.resize(s.cohorts.size());
    s.round_launches.resize(s.cohorts.size());
    s.round_enqueued.resize(s.cohorts.size(), 0);
    s.round_ok.resize(s.cohorts.size(), 0);
    // Shared-root kernel I/O is likewise persistent across rounds.
    if constexpr (SourceT::kSharedRoot) {
      s.shared_root.emplace(1);
      s.shared_result.emplace(s.pipelined ? s.cohorts.size() : 1);
    }

    s.gpu_track = config_.mode == SimulateMode::kAsyncOverlap &&
                          tracer_ != nullptr
                      ? tracer_->track("gpu")
                      : 0;
    if (tracer_ != nullptr) {
      (void)tracer_->begin_search(label);
      tracer_->set_frequency(s.clock.frequency_hz());
    }
  }

  /// run()'s loop test after a round: a bound latched or the virtual
  /// budget spent. Polls the stop check, so call it once per round.
  [[nodiscard]] bool finished() {
    Search& s = *search_;
    return mcts::search_finished(s.stop, s.clock, s.deadline);
  }

  /// A served round, phase "staged": everything the synchronous round does
  /// before its launch — selection, root upload, the "kernel" span opened,
  /// results zeroed, the kernel built. The caller launches the returned
  /// kernel (alone or inside a combined grid) and then calls settle_round.
  [[nodiscard]] simt::PlayoutKernelFor<G>& stage_round() {
    util::expects(!SourceT::kSharedRoot && !search_->pipelined &&
                      config_.mode == SimulateMode::kSync,
                  "served rounds are synchronous cohort rounds");
    begin_round();
    stage_sync();
    return *search_->kernel;
  }

  /// A served round, phase "settled": `priced` is what a launch of this
  /// driver's own grid would have returned. Charges it and emits its
  /// launch instant (VirtualGpu::finish_launch), then runs the
  /// rest of the synchronous round: span close, divergence counter,
  /// download, backprop, observe, and the round bookkeeping.
  void settle_round(const simt::LaunchResult& priced) {
    Search& s = *search_;
    gpu_.finish_launch(config_.launch, priced, s.clock, s.kernel_begin);
    record_gpu_round(settle_sync(true, priced.stats));
    end_round();
  }

  /// Closes the search: the anytime guard, the final move and merged
  /// stats, and the closing trace bookkeeping.
  [[nodiscard]] SearchOutcome<G> conclude() {
    Search& s = *search_;
    // Anytime guard (supervised only): an early stop — or a hang that
    // swallowed the whole virtual budget — can leave every tree without a
    // single completed simulation; one CPU iteration on tree 0 makes the
    // returned move backed by real search. Unsupervised runs keep the seed
    // contract instead: zero simulations fall through to best_merged_move's
    // deterministic smallest-legal-move fallback.
    if constexpr (FallbackT::kEnabled && !SourceT::kSharedRoot) {
      if (s.supervised && stats_.simulations == 0) {
        fallback_.iterate_on(source_, 0, s.clock, gpu_.cost(), stats_,
                             tracer_);
      }
    }
    SearchOutcome<G> outcome = source_.conclude(stats_);
    stats_.stop_reason = s.stop.reason();
    stats_.virtual_seconds = s.clock.seconds();
    // Averaged over rounds that actually produced kernel results: failed,
    // CPU-fallback, and terminal-shortcut rounds ran no kernel (or lost its
    // results) and would dilute the figure.
    if (stats_.gpu_rounds > 0) {
      stats_.divergence_waste =
          s.waste_sum / static_cast<double>(stats_.gpu_rounds);
    }
    if constexpr (FallbackT::kEnabled) stats_.faults = fault_log();

    if (tracer_ != nullptr) {
      tracer_->counter(kHostTrack, "simulations", s.clock.cycles(),
                       static_cast<double>(stats_.simulations));
      tracer_->metrics().counter("gpu_simulations").add(stats_.gpu_simulations);
      tracer_->metrics().counter("cpu_iterations").add(stats_.cpu_iterations);
      tracer_->metrics().counter("kernel_rounds").add(stats_.rounds);
      // Supervision observability — gated so an unsupervised run's trace
      // stream (and hash) is byte-identical to the seed's. Only the extra
      // cancel token can stop an unsupervised search early, and then the
      // instant says so.
      if (s.supervised || stats_.stop_reason != mcts::StopReason::kBudget) {
        tracer_->instant(
            kHostTrack, "stop_reason", s.clock.cycles(),
            {{"reason", static_cast<double>(static_cast<unsigned>(
                            stats_.stop_reason))}});
      }
      if (stats_.watchdog_timeouts > 0) {
        tracer_->metrics()
            .counter("watchdog_timeouts")
            .add(stats_.watchdog_timeouts);
      }
    }
    search_.reset();
    return outcome;
  }

  [[nodiscard]] const mcts::SearchStats& stats() const noexcept {
    return stats_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The open search's virtual clock, in cycles.
  [[nodiscard]] std::uint64_t clock_cycles() const noexcept {
    return search_->clock.cycles();
  }

  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    gpu_.set_tracer(tracer);
  }

 private:
  static constexpr int kHostTrack = obs::Tracer::kHostTrack;

  struct Cohort {
    std::size_t begin = 0;  ///< first tree (cohort) / first block (slice)
    std::size_t count = 0;
    int stream = 0;
    simt::LaunchConfig cfg;
    int failed_rounds = 0;
    bool abandoned = false;
  };

  /// Everything one search keeps between its rounds, allocated by begin()
  /// and freed by conclude().
  struct Search {
    Search(const mcts::SearchBudget& budget, util::CancelToken* extra_cancel,
           double clock_hz)
        : stop(budget, extra_cancel),
          clock(clock_hz),
          overlap_clock(clock_hz),
          deadline(clock.to_cycles(budget.virtual_seconds)),
          supervised(budget.wall_ms.has_value() || budget.cancel != nullptr ||
                     budget.stop_on_tree_saturation),
          stop_on_tree_saturation(budget.stop_on_tree_saturation) {}

    /// The honest timeline of a pipelined round: the overlap clock in
    /// dual-clock mode, else the main clock.
    [[nodiscard]] util::VirtualClock& pipe() noexcept {
      return dual_clock ? overlap_clock : clock;
    }

    mcts::StopCheck stop;
    util::VirtualClock clock;
    util::VirtualClock overlap_clock;
    std::uint64_t deadline;
    /// Supervision (DESIGN.md §12): the budget's own bounds only.
    bool supervised;
    bool stop_on_tree_saturation;
    std::uint64_t search_seed = 0;
    std::size_t trees_n = 1;
    util::ThreadPool* pool = nullptr;
    bool pipelined = false;
    bool dual_clock = false;
    int gpu_track = 0;
    std::optional<simt::DeviceBuffer<typename G::State>> roots;
    std::optional<simt::DeviceBuffer<simt::BlockResult>> results;
    std::vector<Cohort> cohorts;
    std::vector<std::optional<simt::PlayoutKernelFor<G>>> kernels;
    std::vector<simt::StreamTicket> round_tickets;
    std::vector<simt::StreamLaunch> round_launches;
    std::vector<std::uint8_t> round_enqueued;
    std::vector<std::uint8_t> round_ok;
    std::vector<simt::WarpTrace> round_traces;
    std::optional<simt::DeviceBuffer<typename G::State>> shared_root;
    std::optional<simt::DeviceBuffer<simt::BlockResult>> shared_result;
    /// The synchronous cohort round's kernel, built when the round stages.
    std::optional<simt::PlayoutKernelFor<G>> kernel;
    /// Host cycle the synchronous round's launch starts at.
    std::uint64_t kernel_begin = 0;
    double waste_sum = 0.0;
    std::uint64_t round = 0;
    int failed_rounds = 0;
    bool gpu_abandoned = false;
    std::uint64_t nodes_before_round = 0;
  };

  [[nodiscard]] util::FaultLog& fault_log() noexcept {
    return gpu_.fault_injector().log();
  }

  /// One full round and its bookkeeping: the body run() loops over.
  void step() {
    begin_round();
    if (search_->pipelined) {
      if constexpr (SourceT::kSharedRoot) {
        pipelined_shared_round();
      } else {
        pipelined_cohort_round();
      }
    } else {
      if constexpr (SourceT::kSharedRoot) {
        shared_sync_round();
      } else {
        cohort_sync_round();
      }
    }
    end_round();
  }

  void begin_round() {
    Search& s = *search_;
    if (s.stop_on_tree_saturation) s.nodes_before_round = total_tree_nodes();
  }

  void end_round() {
    Search& s = *search_;
    ++s.round;
    stats_.rounds += 1;
    // Saturation: a full round that grew no tree — every arena is at its
    // node cap (or the position is exhausted); further rounds only
    // re-sample.
    if (s.stop_on_tree_saturation && !s.stop.stopped() &&
        total_tree_nodes() == s.nodes_before_round) {
      s.stop.latch(mcts::StopReason::kTreeSaturated);
    }
  }

  /// Live node count across the source's trees, for the opt-in saturation
  /// stop. Only sampled when that stop is requested.
  [[nodiscard]] std::uint64_t total_tree_nodes() {
    if constexpr (SourceT::kSharedRoot) {
      return source_.tree().node_count();
    } else {
      std::uint64_t n = 0;
      for (std::size_t t = 0; t < search_->trees_n; ++t) {
        n += source_.tree(t).node_count();
      }
      return n;
    }
  }

  /// Hang-watchdog bound for stream waits: the fault policy's interval,
  /// clamped to the remaining wall time so a hang surfacing right at the
  /// deadline costs ~nothing extra. Ordinary launches are never timed out
  /// (VirtualGpu::wait_for only fires for injected hangs), so the bound is
  /// free on the happy path.
  simt::StreamLaunch supervised_wait(const simt::StreamTicket& ticket,
                                     util::VirtualClock& clk) {
    const double watchdog_ms =
        std::min(gpu_.fault_injector().policy().hang_timeout_ms,
                 search_->stop.remaining_wall_ms());
    simt::StreamLaunch done = gpu_.wait_for(ticket, clk, watchdog_ms);
    if (done.result.status == simt::LaunchStatus::kHungTimeout) {
      stats_.watchdog_timeouts += 1;
    }
    return done;
  }

  /// Degradation batch: one CPU iteration per tree on the rotating cursor,
  /// for rounds that produced no device results.
  void fallback_batch() {
    Search& s = *search_;
    obs::ScopedSpan span(tracer_, kHostTrack, "cpu_fallback", s.clock);
    for (std::size_t i = 0; i < s.trees_n && s.clock.cycles() < s.deadline &&
                            !s.stop.should_stop();
         ++i) {
      fallback_.iterate_rotating(source_, s.clock, gpu_.cost(), stats_,
                                 tracer_);
    }
  }

  // ---- Synchronous cohort round (block-parallel; hybrid overlap) ---------

  void cohort_sync_round() {
    Search& s = *search_;
    if (s.gpu_abandoned) {
      fallback_batch();
      return;
    }
    bool gpu_round_ok = false;
    try {
      stage_sync();
      gpu_round_ok = config_.mode == SimulateMode::kSync ? launch_sync()
                                                         : launch_overlapped();
    } catch (const util::FaultError&) {
      // Transfer retries exhausted: this round's GPU work is lost.
    }
    record_gpu_round(gpu_round_ok);
    if (!gpu_round_ok) fallback_batch();
  }

  /// Selection, root upload, (kSync) the "kernel" span, and the kernel.
  /// Throws util::FaultError when the upload's retry budget is exhausted.
  void stage_sync() {
    Search& s = *search_;
    source_.select(tracer_, s.clock, s.pool, gpu_.cost(), s.roots->host(), 0,
                   s.trees_n, /*cohort=*/-1);
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "upload", s.clock);
      s.roots->upload(s.clock);
    }
    s.kernel_begin = s.clock.cycles();
    if (config_.mode == SimulateMode::kSync && tracer_ != nullptr) {
      tracer_->begin(
          kHostTrack, "kernel", s.kernel_begin,
          {{"blocks", static_cast<double>(config_.launch.blocks)},
           {"threads_per_block",
            static_cast<double>(config_.launch.threads_per_block)}});
    }
    build_sync_kernel();
  }

  /// Zeroes the round's results and builds its kernel over them (again on
  /// every launch retry).
  void build_sync_kernel() {
    Search& s = *search_;
    const std::span<simt::BlockResult> device_results =
        s.results->device_view();
    for (simt::BlockResult& r : device_results) r = simt::BlockResult{};
    s.kernel.emplace(s.roots->device_view(), s.search_seed, s.round,
                     device_results);
  }

  /// kSync: launch with retries, then settle.
  bool launch_sync() {
    Search& s = *search_;
    simt::LaunchResult launch;
    const bool launched = util::with_retry(
        fallback_.options().retry, s.clock, &fault_log(), [&](int attempt) {
          if (attempt > 0) build_sync_kernel();
          launch = gpu_.launch(config_.launch, *s.kernel, s.clock);
          if (launch.status == simt::LaunchStatus::kHungTimeout) {
            stats_.watchdog_timeouts += 1;
          }
          return launch.ok();
        });
    return settle_sync(launched, launch.stats);
  }

  /// The synchronous round after its launch was charged: closes the
  /// "kernel" span and, when the launch delivered, folds its results.
  /// Throws util::FaultError when the download's retry budget is exhausted.
  bool settle_sync(bool launched, const simt::LaunchStats& launch) {
    Search& s = *search_;
    if (tracer_ != nullptr) {
      tracer_->end(kHostTrack, "kernel", s.clock.cycles());
      if (launched) {
        tracer_->counter(kHostTrack, "divergence", s.clock.cycles(),
                         launch.divergence_waste());
      }
    }
    if (launched) fold_results(launch.divergence_waste());
    return launched;
  }

  /// kAsyncOverlap: launch asynchronously with retries, run CPU iterations
  /// on the same trees until the kernel completes, then fold its results.
  bool launch_overlapped() {
    Search& s = *search_;
    simt::Event event;
    const bool launched = util::with_retry(
        fallback_.options().retry, s.clock, &fault_log(), [&](int attempt) {
          if (attempt > 0) build_sync_kernel();
          event = gpu_.launch_async(config_.launch, *s.kernel, s.clock);
          if (event.result.status == simt::LaunchStatus::kHungTimeout) {
            stats_.watchdog_timeouts += 1;
          }
          return event.result.ok();
        });
    if (!launched) return false;
    if (tracer_ != nullptr) {
      // The device timeline is known up front (virtual time): emit the
      // kernel span with explicit begin/end stamps so the export shows the
      // CPU overlap alongside it.
      tracer_->begin(
          s.gpu_track, "kernel", s.clock.cycles(),
          {{"blocks", static_cast<double>(config_.launch.blocks)},
           {"threads_per_block",
            static_cast<double>(config_.launch.threads_per_block)}});
      tracer_->end(s.gpu_track, "kernel", event.completion_host_cycle);
      tracer_->counter(kHostTrack, "divergence", s.clock.cycles(),
                       event.result.stats.divergence_waste());
    }
    // "CPU can work here!" — iterate sequential MCTS on the same trees
    // until the gpu-ready event fires.
    {
      const std::uint64_t overlap_start = stats_.cpu_iterations;
      obs::ScopedSpan span(tracer_, kHostTrack, "cpu_overlap", s.clock);
      while (config_.cpu_overlap && !simt::VirtualGpu::query(event, s.clock)) {
        fallback_.iterate_rotating(source_, s.clock, gpu_.cost(), stats_,
                                   tracer_);
      }
      if (tracer_ != nullptr) {
        tracer_->counter(kHostTrack, "overlap_iterations", s.clock.cycles(),
                         static_cast<double>(stats_.cpu_iterations -
                                             overlap_start));
      }
    }
    gpu_.wait_for(event, s.clock);
    fold_results(event.result.stats.divergence_waste());
    return true;
  }

  /// Download, backprop, and observe a synchronous round's tallies.
  void fold_results(double divergence) {
    Search& s = *search_;
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "download", s.clock);
      s.results->download(s.clock);
    }
    const std::span<const simt::BlockResult> tallies =
        s.results->host_checked();
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "backprop", s.clock);
      sink_.backprop(source_, 0, s.trees_n, tallies, s.pool);
    }
    // Stats and tracer observations on the controlling thread, in tree
    // order — identical with and without the pool.
    sink_.observe(tracer_, stats_, tallies);
    // Divergence is averaged over *successful* GPU rounds only: a failed
    // or CPU-fallback round launched no kernel (or lost its results), and
    // counting it in the denominator understates divergence under faults.
    s.waste_sum += divergence;
    stats_.gpu_rounds += 1;
  }

  /// Consecutive lost rounds abandon the device.
  void record_gpu_round(bool gpu_round_ok) {
    Search& s = *search_;
    if (gpu_round_ok) {
      s.failed_rounds = 0;
    } else if (++s.failed_rounds >= fallback_.options().max_failed_rounds) {
      s.gpu_abandoned = true;
      fault_log().record_recovery(util::RecoveryKind::kCpuFallback,
                                  s.clock.cycles(), s.failed_rounds);
      if (tracer_ != nullptr) {
        tracer_->instant(kHostTrack, "gpu_abandoned", s.clock.cycles());
      }
    }
  }

  // ---- Synchronous shared-root round (leaf-parallel) ---------------------

  void shared_sync_round() {
    Search& s = *search_;
    if (source_.select(tracer_, s.clock, gpu_.cost())) {
      source_.shortcut(stats_);
      return;
    }
    // One root up, one aggregate tally down per round, through the
    // search-persistent buffers.
    simt::DeviceBuffer<typename G::State>& root = *s.shared_root;
    simt::DeviceBuffer<simt::BlockResult>& result = *s.shared_result;
    root.host()[0] = source_.selected_state();
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "upload", s.clock);
      root.upload(s.clock);
    }
    const std::span<simt::BlockResult> device_result = result.device_view();
    device_result[0] = simt::BlockResult{};
    simt::PlayoutKernelFor<G> kernel(root.device_view(), s.search_seed,
                                     s.round, device_result);
    simt::LaunchResult launch;
    {
      obs::ScopedSpan span(
          tracer_, kHostTrack, "kernel", s.clock,
          {{"blocks", static_cast<double>(config_.launch.blocks)},
           {"threads_per_block",
            static_cast<double>(config_.launch.threads_per_block)}});
      launch = gpu_.launch(config_.launch, kernel, s.clock);
      if (launch.status == simt::LaunchStatus::kHungTimeout) {
        stats_.watchdog_timeouts += 1;
      }
    }
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "download", s.clock);
      result.download(s.clock);
    }
    const std::span<const simt::BlockResult> tallies = result.host_checked();
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "backprop", s.clock);
      sink_.backprop(source_, 0, 1, tallies, s.pool);
    }
    sink_.observe(tracer_, stats_, tallies);
    stats_.gpu_rounds += 1;
    s.waste_sum += launch.stats.divergence_waste();
    if (tracer_ != nullptr) {
      tracer_->counter(kHostTrack, "divergence", s.clock.cycles(),
                       launch.stats.divergence_waste());
    }
  }

  // ---- Pipelined cohort round (block / hybrid over N streams) ------------
  //
  // select c0 -> enqueue c0 -> select c1 (overlaps kernel c0) -> enqueue
  // c1 -> ... -> wait c0 -> backprop c0 (overlaps the later kernels) ->
  // wait c1 -> ... Per-cohort fault recovery; kAsyncOverlap additionally
  // runs CPU iterations against each cohort's peeked completion before
  // waiting on it.
  void pipelined_cohort_round() {
    Search& s = *search_;
    util::VirtualClock& clock = s.clock;
    util::VirtualClock& pipe = s.pipe();
    std::vector<simt::StreamTicket>& tickets = s.round_tickets;
    std::vector<simt::StreamLaunch>& launches = s.round_launches;
    std::vector<std::uint8_t>& enqueued = s.round_enqueued;
    std::vector<std::uint8_t>& ok = s.round_ok;
    std::fill(enqueued.begin(), enqueued.end(), std::uint8_t{0});
    std::fill(ok.begin(), ok.end(), std::uint8_t{0});

    // Range-scoped re-zero: marking the whole buffer dirty would re-poison
    // a sibling cohort's slots after it already downloaded them (a retry
    // re-zeroes mid-round).
    const auto zero_cohort_results = [&](const Cohort& c) {
      const std::span<simt::BlockResult> device_results =
          s.results->device_view_partial(c.begin, c.count);
      for (std::size_t t = c.begin; t < c.begin + c.count; ++t) {
        device_results[t] = simt::BlockResult{};
      }
    };

    // Upload + enqueue one cohort; throws util::FaultError when the upload's
    // retry budget is exhausted. The kernel gets this cohort's buffer slices
    // and grid slice, so transfers and kernels of different cohorts touch
    // disjoint element ranges.
    const auto enqueue_cohort = [&](const Cohort& c) {
      {
        obs::ScopedSpan span(tracer_, kHostTrack, "upload", pipe,
                             {{"cohort", static_cast<double>(c.stream)}});
        s.roots->upload_range(pipe, c.begin, c.count);
      }
      zero_cohort_results(c);
      s.kernels[static_cast<std::size_t>(c.stream)].emplace(
          s.roots->device_view_partial(c.begin, c.count), s.search_seed,
          s.round, s.results->device_view_partial(c.begin, c.count));
      return gpu_.launch_on(c.stream, c.cfg,
                            *s.kernels[static_cast<std::size_t>(c.stream)],
                            pipe);
    };

    // Waits for one cohort's kernel and backpropagates its tallies. Attempt
    // 0 consumes the ticket enqueued earlier (so the other cohorts' kernels
    // kept overlapping); failed launches re-enqueue on the same stream.
    // Returns false when the launch retry budget is exhausted; throws
    // util::FaultError when the download's is.
    const auto wait_cohort = [&](const Cohort& c, simt::StreamTicket ticket,
                                 simt::StreamLaunch& out) {
      bool launched = false;
      {
        obs::ScopedSpan span(
            tracer_, kHostTrack, "kernel", pipe,
            {{"blocks", static_cast<double>(c.cfg.blocks)},
             {"block_offset", static_cast<double>(c.cfg.block_offset)},
             {"threads_per_block",
              static_cast<double>(c.cfg.threads_per_block)}});
        launched = util::with_retry(
            fallback_.options().retry, pipe, &fault_log(), [&](int attempt) {
              if (attempt > 0) {
                zero_cohort_results(c);
                ticket = gpu_.launch_on(
                    c.stream, c.cfg,
                    *s.kernels[static_cast<std::size_t>(c.stream)], pipe);
              }
              out = supervised_wait(ticket, pipe);
              return out.result.ok();
            });
      }
      if (!launched) return false;
      {
        obs::ScopedSpan span(tracer_, kHostTrack, "download", pipe,
                             {{"cohort", static_cast<double>(c.stream)}});
        s.results->download_range(pipe, c.begin, c.count);
      }
      obs::ScopedSpan span(tracer_, kHostTrack, "backprop", pipe,
                           {{"cohort", static_cast<double>(c.stream)}});
      sink_.backprop(source_, c.begin, c.count,
                     s.results->host_checked_range(c.begin, c.count), s.pool);
      return true;
    };

    // Degradation without stalling the other cohorts: a failed (or
    // abandoned) cohort's trees each get one CPU iteration this round.
    const auto cohort_fallback = [&](const Cohort& c) {
      obs::ScopedSpan span(tracer_, kHostTrack, "cpu_fallback", pipe,
                           {{"cohort", static_cast<double>(c.stream)}});
      for (std::size_t i = 0; i < c.count && clock.cycles() < s.deadline &&
                              !s.stop.should_stop();
           ++i) {
        fallback_.iterate_on(source_, c.begin + i, clock, gpu_.cost(), stats_,
                             tracer_);
      }
    };

    for (Cohort& c : s.cohorts) {
      if (c.abandoned) continue;
      // Cohort boundary: once the search decides to stop, later cohorts are
      // not enqueued (the ones already in flight are drained below).
      if (s.stop.should_stop()) break;
      source_.select(tracer_, pipe, s.pool, gpu_.cost(), s.roots->host(),
                     c.begin, c.count, c.stream);
      try {
        tickets[static_cast<std::size_t>(c.stream)] = enqueue_cohort(c);
        enqueued[static_cast<std::size_t>(c.stream)] = 1;
      } catch (const util::FaultError&) {
        // Upload retries exhausted: this cohort's round is lost; the other
        // cohorts proceed untouched.
      }
    }
    for (Cohort& c : s.cohorts) {
      const auto i = static_cast<std::size_t>(c.stream);
      if (c.abandoned || enqueued[i] == 0) continue;
      // Cohort boundary: every enqueued ticket is still waited (the stream
      // FIFO must drain, and its results only sharpen the final move), but
      // a stopping search skips the optional overlap work.
      const bool draining = s.stop.should_stop();
      if (!draining && config_.mode == SimulateMode::kAsyncOverlap) {
        // Hybrid overlap against this cohort's kernel: CPU iterations until
        // its peeked completion cycle. Earlier cohorts were already retired
        // in rotation order, so the peek is exact; a failed launch peeks as
        // its enqueue cycle and the loop runs zero iterations (the failure
        // surfaces at wait below).
        const std::uint64_t completion = gpu_.peek_completion(tickets[i]);
        const std::uint64_t overlap_start = stats_.cpu_iterations;
        obs::ScopedSpan span(tracer_, kHostTrack, "cpu_overlap", pipe,
                             {{"cohort", static_cast<double>(c.stream)}});
        while (config_.cpu_overlap && pipe.cycles() < completion) {
          fallback_.iterate_rotating(source_, pipe, gpu_.cost(), stats_,
                                     tracer_);
        }
        if (tracer_ != nullptr) {
          tracer_->counter(kHostTrack, "overlap_iterations", pipe.cycles(),
                           static_cast<double>(stats_.cpu_iterations -
                                               overlap_start));
        }
      }
      try {
        ok[i] = wait_cohort(c, tickets[i], launches[i]) ? 1 : 0;
      } catch (const util::FaultError&) {
        ok[i] = 0;
      }
    }
    // Stats and tracer observations on the controlling thread in tree order
    // (cohort 0 holds the lowest tree indices) — identical to the
    // synchronous path's order and to any exec thread count.
    s.round_traces.clear();
    bool any_ok = false;
    for (const Cohort& c : s.cohorts) {
      const auto i = static_cast<std::size_t>(c.stream);
      if (ok[i] == 0) continue;
      any_ok = true;
      sink_.observe(tracer_, stats_,
                    s.results->host_checked_range(c.begin, c.count));
      s.round_traces.insert(s.round_traces.end(), launches[i].traces.begin(),
                            launches[i].traces.end());
    }
    if (any_ok) {
      // One divergence sample per successful GPU round, aggregated over the
      // successful cohorts' traces — with every cohort ok this equals the
      // covering synchronous launch's figure exactly (integer sums).
      const simt::LaunchStats agg =
          simt::aggregate_stats(s.round_traces, gpu_.device());
      if (tracer_ != nullptr) {
        tracer_->counter(kHostTrack, "divergence", pipe.cycles(),
                         agg.divergence_waste());
      }
      s.waste_sum += agg.divergence_waste();
      stats_.gpu_rounds += 1;
    }
    if (s.dual_clock) {
      // Canonical charge: selection for every tree + full-buffer upload +
      // one launch overhead + device time of the combined traces + full
      // readback — term for term the synchronous round's clock advances.
      const double combined_cycles = simt::device_cycles_for(
          s.round_traces, config_.launch, gpu_.device(), gpu_.cost());
      clock.advance(
          s.trees_n *
              static_cast<std::uint64_t>(gpu_.cost().host_tree_op_cycles) +
          s.roots->costs().cost(s.roots->bytes()) +
          gpu_.launch_overhead_cycles() +
          static_cast<std::uint64_t>(gpu_.cost().device_to_host_cycles(
              combined_cycles, gpu_.device(), gpu_.host())) +
          s.results->costs().cost(s.results->bytes()));
    }
    // A stopping round skips the failure bookkeeping and degradation batch:
    // abandonment is a policy about *future* rounds, and there are none.
    if (s.stop.stopped()) return;
    bool all_abandoned = true;
    for (Cohort& c : s.cohorts) {
      const auto i = static_cast<std::size_t>(c.stream);
      if (!c.abandoned) {
        if (ok[i] != 0) {
          c.failed_rounds = 0;
        } else if (++c.failed_rounds >= fallback_.options().max_failed_rounds) {
          c.abandoned = true;
          fault_log().record_recovery(util::RecoveryKind::kCpuFallback,
                                      clock.cycles(), c.failed_rounds);
          if (tracer_ != nullptr) {
            tracer_->instant(kHostTrack, "cohort_abandoned", clock.cycles(),
                             {{"cohort", static_cast<double>(c.stream)}});
          }
        }
      }
      if (ok[i] == 0) cohort_fallback(c);
      all_abandoned = all_abandoned && c.abandoned;
    }
    if (all_abandoned && !s.gpu_abandoned) {
      s.gpu_abandoned = true;
      if (tracer_ != nullptr) {
        tracer_->instant(kHostTrack, "gpu_abandoned", clock.cycles());
      }
    }
  }

  // ---- Pipelined shared-root round (leaf-parallel sliced grid) -----------
  //
  // A single tree gives each round a strict select -> simulate -> backprop
  // dependency, so nothing can double-buffer *across* rounds without
  // changing results. Instead the round's grid splits into D block_offset
  // slices on D streams; each slice tallies into its own slot, and the
  // slot-order sum reproduces the covering launch's accumulation bit for
  // bit (sum_tallies in merge.hpp).
  void pipelined_shared_round() {
    Search& s = *search_;
    util::VirtualClock& pipe = s.pipe();
    const bool terminal = source_.select(tracer_, pipe, gpu_.cost());
    if (s.dual_clock) {
      // Canonical charge for the selection the overlapped timeline paid.
      s.clock.advance(
          static_cast<std::uint64_t>(gpu_.cost().host_tree_op_cycles));
    }
    if (terminal) {
      source_.shortcut(stats_);
      return;
    }
    // One root up (shared by all slices), one tally slot per slice down,
    // through the search-persistent buffers.
    simt::DeviceBuffer<typename G::State>& root = *s.shared_root;
    simt::DeviceBuffer<simt::BlockResult>& result = *s.shared_result;
    root.host()[0] = source_.selected_state();
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "upload", pipe);
      root.upload(pipe);
    }
    const std::span<simt::BlockResult> device_result = result.device_view();
    for (auto& slot : device_result) slot = simt::BlockResult{};
    // Each slice is a block_offset slice, so its lanes carry the same
    // identities and RNG streams the covering launch would hand them.
    for (const Cohort& c : s.cohorts) {
      const auto i = static_cast<std::size_t>(c.stream);
      s.kernels[i].emplace(root.device_view(), s.search_seed, s.round,
                           device_result.subspan(i, 1));
      s.round_tickets[i] = gpu_.launch_on(c.stream, c.cfg, *s.kernels[i], pipe);
    }
    s.round_traces.clear();
    for (const Cohort& c : s.cohorts) {
      const simt::StreamLaunch done = supervised_wait(
          s.round_tickets[static_cast<std::size_t>(c.stream)], pipe);
      // Fault-oblivious like the synchronous path: a failed slice left its
      // zeroed slot untouched and contributes nothing to the tally.
      if (done.result.ok()) {
        s.round_traces.insert(s.round_traces.end(), done.traces.begin(),
                              done.traces.end());
      }
    }
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "download", pipe);
      for (const Cohort& c : s.cohorts) {
        result.download_range(pipe, static_cast<std::size_t>(c.stream), 1);
      }
    }
    const std::span<const simt::BlockResult> tallies =
        result.host_checked_range(0, s.cohorts.size());
    {
      obs::ScopedSpan span(tracer_, kHostTrack, "backprop", pipe);
      sink_.backprop(source_, 0, s.cohorts.size(), tallies, s.pool);
    }
    const simt::LaunchStats agg =
        simt::aggregate_stats(s.round_traces, gpu_.device());
    sink_.observe(tracer_, stats_, tallies);
    stats_.gpu_rounds += 1;
    s.waste_sum += agg.divergence_waste();
    if (tracer_ != nullptr) {
      tracer_->counter(kHostTrack, "divergence", pipe.cycles(),
                       agg.divergence_waste());
    }
    if (s.dual_clock) {
      // Canonical charge: full-root upload + one launch overhead + device
      // time of the combined slice traces + a single-tally readback — term
      // for term the synchronous round's advances.
      const double combined_cycles = simt::device_cycles_for(
          s.round_traces, config_.launch, gpu_.device(), gpu_.cost());
      s.clock.advance(
          root.costs().cost(root.bytes()) + gpu_.launch_overhead_cycles() +
          static_cast<std::uint64_t>(gpu_.cost().device_to_host_cycles(
              combined_cycles, gpu_.device(), gpu_.host())) +
          result.costs().cost(sizeof(simt::BlockResult)));
    }
  }

  Config config_;
  SourceT source_;
  SinkT sink_;
  FallbackT fallback_;
  mcts::SearchConfig search_config_;
  simt::VirtualGpu gpu_;
  mcts::SearchStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<Search> search_;
};

/// The block scheme's bundle — one tree per block, per-tree backprop, CPU
/// fallback. The hybrid scheme runs the same bundle in kAsyncOverlap mode,
/// and serve::SearchService runs one per in-flight ticket.
template <game::Game G>
using CohortRoundDriver =
    RoundDriver<G, CohortTreesSource<G>, PerTreeSink<G>, CpuFallback<G>>;

}  // namespace gpu_mcts::parallel::driver
