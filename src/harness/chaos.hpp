// Seeded chaos-soak episodes: randomized fault schedules (launch failures,
// stalls, corrupt readbacks, genuine kernel hangs) x {leaf, block, hybrid at
// pipeline depths 1-3}, with wall deadlines and cancellation at random
// points — the supervision layer's torture track (DESIGN.md §12).
//
// One episode = one supervised choose_move under a configuration derived
// deterministically from the episode seed, checked against the supervision
// contract: termination within the wall bound, a legal move, and coherent
// stats. Shared by tests/robustness/test_chaos_soak.cpp (fixed seeds in CI,
// TSan-clean) and the tools/chaos_soak CLI (arbitrary seed ranges, artifact
// dump on failure).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "mcts/budget.hpp"
#include "mcts/config.hpp"
#include "mcts/searcher.hpp"
#include "obs/trace.hpp"
#include "parallel/block_parallel.hpp"
#include "parallel/hybrid.hpp"
#include "parallel/leaf_parallel.hpp"
#include "reversi/reversi_game.hpp"
#include "simt/vgpu.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::harness {

struct ChaosEpisodeConfig {
  std::uint64_t seed = 0;
  std::string scheme;  ///< "leaf" | "block" | "hybrid"
  int pipeline_depth = 1;  ///< stream cohorts; >= 2 only for hybrid
  int opening_plies = 0;
  util::FaultPolicy faults;
  double virtual_seconds = 0.0;
  double wall_ms = 0.0;
  /// Cancel from a second thread after this many ms; <0 = no cancellation.
  double cancel_after_ms = -1.0;
};

struct ChaosOutcome {
  bool ok = true;
  std::string failure;  ///< first violated invariant, empty when ok
  ChaosEpisodeConfig config;
  mcts::SearchStats stats;
  double elapsed_ms = 0.0;
  std::string searcher_name;
};

/// Derives the full episode configuration from its seed. Pure function of
/// the seed, so a failing episode reported by CI reproduces exactly from the
/// one number.
[[nodiscard]] inline ChaosEpisodeConfig make_chaos_config(std::uint64_t seed) {
  util::XorShift128Plus rng(util::derive_seed(seed, 0xc4a05ULL));
  ChaosEpisodeConfig c;
  c.seed = seed;
  switch (rng.next_below(3)) {
    case 0: c.scheme = "leaf"; break;
    case 1: c.scheme = "block"; break;
    default: c.scheme = "hybrid"; break;
  }
  // Drawn for every scheme, so each seed's later fields stay put; only
  // hybrid rounds pipeline.
  const int depth = 1 + static_cast<int>(rng.next_below(3));
  c.pipeline_depth = c.scheme == "hybrid" ? depth : 1;
  c.opening_plies = static_cast<int>(rng.next_below(9));
  // Fault schedule: each knob is off ~half the time so fault-free and
  // single-fault episodes stay in the mix alongside full-storm ones.
  if (rng.next_below(2) != 0) {
    c.faults.kernel_launch_failure = 0.1 * (1 + rng.next_below(4));
  }
  if (rng.next_below(2) != 0) {
    c.faults.kernel_stall = 0.25;
    c.faults.stall_multiplier = 2.0 + rng.next_below(3);
  }
  if (rng.next_below(2) != 0) {
    c.faults.transfer_failure = 0.05 * (1 + rng.next_below(3));
  }
  if (rng.next_below(2) != 0) {
    c.faults.corrupt_readback = 0.05 * (1 + rng.next_below(3));
  }
  if (rng.next_below(2) != 0) {
    // Hangs up to probability 1.0 — the watchdog must carry even a GPU that
    // never completes another launch. Short timeout: each surfaced hang
    // costs its interval in real time when the launch went through a stream.
    c.faults.kernel_hang = 0.25 * (1 + rng.next_below(4));
    c.faults.hang_timeout_ms = 2.0;
  }
  c.virtual_seconds = 0.002 * (1 + rng.next_below(8));
  c.wall_ms = 40.0 + 10.0 * rng.next_below(8);
  if (rng.next_below(3) == 0) {
    c.cancel_after_ms = static_cast<double>(rng.next_below(
        static_cast<std::uint32_t>(c.wall_ms / 2.0)));
  }
  return c;
}

/// Runs one episode; `tracer` (optional) is attached to the searcher so a
/// failing seed can be re-run with full observability.
[[nodiscard]] inline ChaosOutcome run_chaos_episode(std::uint64_t seed,
                                                    obs::Tracer* tracer =
                                                        nullptr) {
  using G = reversi::ReversiGame;
  ChaosOutcome out;
  out.config = make_chaos_config(seed);
  const ChaosEpisodeConfig& c = out.config;

  // Opening: a few random plies so episodes see shrinking move sets.
  util::XorShift128Plus opening_rng(util::derive_seed(seed, 0x09e4ULL));
  typename G::State state = G::initial_state();
  for (int ply = 0; ply < c.opening_plies && !G::is_terminal(state); ++ply) {
    std::array<typename G::Move, static_cast<std::size_t>(G::kMaxMoves)>
        moves{};
    const int n = G::legal_moves(state, std::span(moves));
    state = G::apply(
        state, moves[opening_rng.next_below(static_cast<std::uint32_t>(n))]);
  }
  if (G::is_terminal(state)) state = G::initial_state();

  simt::VirtualGpu gpu;
  if (c.faults.any()) {
    gpu.set_fault_injector(util::FaultInjector(c.faults, seed));
  }
  const simt::LaunchConfig launch{.blocks = 6, .threads_per_block = 32};
  mcts::SearchConfig search;
  search.seed = seed;
  search.ucb_c = mcts::kBatchUcbC;
  std::unique_ptr<mcts::Searcher<G>> searcher;
  if (c.scheme == "leaf") {
    parallel::LeafParallelGpuSearcher<G>::Options o;
    o.launch = launch;
    searcher = std::make_unique<parallel::LeafParallelGpuSearcher<G>>(
        o, search, std::move(gpu));
  } else if (c.scheme == "block") {
    parallel::BlockParallelGpuSearcher<G>::Options o;
    o.launch = launch;
    searcher = std::make_unique<parallel::BlockParallelGpuSearcher<G>>(
        o, search, std::move(gpu));
  } else {
    parallel::HybridSearcher<G>::Options o;
    o.launch = launch;
    o.pipeline = c.pipeline_depth >= 2;
    o.pipeline_depth = c.pipeline_depth;
    searcher = std::make_unique<parallel::HybridSearcher<G>>(o, search,
                                                             std::move(gpu));
  }
  if (tracer != nullptr) searcher->set_tracer(tracer);
  out.searcher_name = searcher->name();

  util::CancelToken token;
  mcts::SearchBudget budget;
  budget.virtual_seconds = c.virtual_seconds;
  budget.wall_ms = c.wall_ms;
  budget.cancel = &token;
  std::optional<std::thread> canceller;
  if (c.cancel_after_ms >= 0.0) {
    canceller.emplace([&token, delay = c.cancel_after_ms] {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay));
      token.cancel();
    });
  }

  util::WallTimer timer;
  const typename G::Move move = searcher->choose_move(state, budget);
  out.elapsed_ms = timer.elapsed_seconds() * 1000.0;
  if (canceller) canceller->join();
  out.stats = searcher->last_stats();

  const auto fail = [&](const std::string& what) {
    out.ok = false;
    if (out.failure.empty()) out.failure = what;
  };

  // --- The supervision contract -----------------------------------------
  // Termination: within 2x the wall deadline (the acceptance bound; the
  // watchdog is clamped to the remaining wall time, so even a hang storm
  // cannot push past it by more than one watchdog interval per stream).
  // The additive slack absorbs scheduler jitter on loaded/sanitized CI.
  if (out.elapsed_ms > 2.0 * c.wall_ms + 1000.0) {
    std::ostringstream msg;
    msg << "took " << out.elapsed_ms << "ms against a " << c.wall_ms
        << "ms wall deadline";
    fail(msg.str());
  }
  // Anytime contract: a legal move, always.
  {
    std::array<typename G::Move, static_cast<std::size_t>(G::kMaxMoves)>
        moves{};
    const int n = G::legal_moves(state, std::span(moves));
    bool legal = false;
    for (int i = 0; i < n; ++i) legal = legal || moves[i] == move;
    if (!legal) fail("returned an illegal move");
  }
  // Stats invariants. The leaf scheme runs without a CPU fallback
  // (NoFallback), so a fault schedule that can kill rounds outright may
  // legitimately leave zero completed playouts — the move then comes from
  // best_merged_move's deterministic smallest-legal fallback. Every other
  // scheme (and fault-free leaf) must have real simulations behind its move.
  const mcts::SearchStats& s = out.stats;
  const bool leaf_may_lose_every_round =
      c.scheme == "leaf" &&
      (c.faults.kernel_hang > 0.0 || c.faults.kernel_launch_failure > 0.0 ||
       c.faults.transfer_failure > 0.0 || c.faults.corrupt_readback > 0.0);
  if (s.simulations == 0 && !leaf_may_lose_every_round) {
    fail("zero simulations (anytime guard missed)");
  }
  if (s.simulations != s.cpu_iterations + s.gpu_simulations) {
    fail("simulations != cpu_iterations + gpu_simulations");
  }
  if (s.rounds == 0) fail("zero rounds");
  if (s.virtual_seconds <= 0.0) fail("no virtual time elapsed");
  if (s.divergence_waste < 0.0 || s.divergence_waste > 1.0) {
    fail("divergence_waste outside [0,1]");
  }
  if (static_cast<std::size_t>(s.stop_reason) >= mcts::kStopReasons) {
    fail("stop_reason out of range");
  }
  // Every hang the injector drew must have surfaced through the watchdog
  // exactly once. The leaf scheme runs without a fault-handling fallback
  // bundle and does not export the injector's log into its stats, so the
  // cross-check only binds where the log is carried.
  if (c.scheme != "leaf" &&
      s.watchdog_timeouts !=
          s.faults.count(util::FaultKind::kKernelHang)) {
    std::ostringstream msg;
    msg << "watchdog timeouts (" << s.watchdog_timeouts
        << ") != injected hangs ("
        << s.faults.count(util::FaultKind::kKernelHang) << ")";
    fail(msg.str());
  }
  return out;
}

/// Formats an episode's configuration + outcome for logs and CI artifacts.
[[nodiscard]] inline std::string describe(const ChaosOutcome& out) {
  std::ostringstream os;
  const ChaosEpisodeConfig& c = out.config;
  os << "episode seed=" << c.seed << " scheme=" << c.scheme << " depth="
     << c.pipeline_depth << " plies=" << c.opening_plies
     << " vbudget=" << c.virtual_seconds << "s wall=" << c.wall_ms << "ms";
  if (c.cancel_after_ms >= 0.0) os << " cancel@" << c.cancel_after_ms << "ms";
  os << " faults{launch=" << c.faults.kernel_launch_failure
     << " stall=" << c.faults.kernel_stall
     << " transfer=" << c.faults.transfer_failure
     << " corrupt=" << c.faults.corrupt_readback
     << " hang=" << c.faults.kernel_hang << "}";
  os << " -> " << (out.ok ? "ok" : ("FAIL: " + out.failure)) << " in "
     << out.elapsed_ms << "ms, stop_reason="
     << static_cast<int>(out.stats.stop_reason)
     << " sims=" << out.stats.simulations
     << " watchdog=" << out.stats.watchdog_timeouts;
  return os.str();
}

}  // namespace gpu_mcts::harness
