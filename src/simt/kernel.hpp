// The LaneKernel concept and the statistics a launch produces.
//
// A kernel is expressed per-lane as an init / step / finish triple so the
// executor can run warps in true lockstep: within a warp every active lane
// advances exactly one step per warp-step, and a warp retires only when its
// slowest lane has finished. This is what makes the timing model's
// divergence accounting (idle lanes at the tail of a warp) honest rather
// than assumed.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "simt/geometry.hpp"

namespace gpu_mcts::simt {

// clang-format off
/// Per-lane kernel protocol:
///  * make_lane(id)        — construct the lane's private state (registers).
///  * lane_step(state)     — execute one SIMT step; false once the lane is done.
///  * lane_finish(state,id)— commit the lane's result to output buffers.
///
/// Threaded execution contract (simt::ExecutionPolicy with threads > 1):
///  * make_lane and lane_step may run concurrently for lanes of *different
///    blocks* and must therefore not mutate kernel-shared state — they
///    should read shared inputs and write only the lane's own state, exactly
///    as a real GPU kernel body would.
///  * lane_finish (and warp_finish) calls for lanes of different blocks may
///    also run concurrently, and blocks commit in no fixed order.
///  * One thread finishes all of a block's lanes, in lane order, so a slot
///    only that block writes needs no synchronization.
///  * A kernel whose output slots alias across blocks (leaf parallelism:
///    one tally for the whole grid) must commit into them atomically and in
///    a way whose result does not depend on order, or it loses determinism.
template <typename K>
concept LaneKernel = requires(K k, typename K::LaneState& lane,
                              const LaneId& id) {
  typename K::LaneState;
  requires std::is_trivially_copyable_v<typename K::LaneState>;
  { k.make_lane(id) } -> std::same_as<typename K::LaneState>;
  { k.lane_step(lane) } -> std::same_as<bool>;
  { k.lane_finish(lane, id) };
};
// clang-format on

/// A warp's slice of the grid: the identity of its first lane plus how many
/// lanes it actually carries (the last warp of a block may be partial).
/// Warp lanes are thread-contiguous, so lane i's identity is
/// lane_id_at(span, i).
struct WarpSpan {
  LaneId first;
  int lanes = 0;
};

[[nodiscard]] constexpr LaneId lane_id_at(const WarpSpan& span,
                                          int lane) noexcept {
  LaneId id = span.first;
  id.thread += lane;
  id.lane_in_warp += lane;
  id.global_thread += lane;
  return id;
}

// clang-format off
/// Opt-in warp-batched refinement of LaneKernel (DESIGN.md §17): the kernel
/// can additionally execute a whole warp as one structure-of-arrays unit.
///  * make_warp(span)          — build the warp's SoA state (kWarpWidth lanes
///                               wide; span.lanes of them live).
///  * warp_step(state)         — run one lockstep step for every active lane;
///                               returns the mask of lanes active at entry
///                               (0 = the warp has retired and no step ran).
///  * warp_finish(state, span) — commit every lane, with results
///                               bit-identical to lane_finish over the
///                               scalar path's retired lanes.
///  * lane_state_of(state, i)  — lane i's equivalent scalar LaneState (used
///                               by the verify backend's comparison).
///
/// Contract: batched execution must be *bit-identical* to the scalar lane
/// protocol — same per-lane RNG draws and outputs, and step masks that
/// reproduce the scalar executor's counting exactly (a lane's final step,
/// where it discovers it is done, is still in the mask). The executor
/// asserts precisely this per warp under WarpBackend::kVerify.
template <typename K>
concept WarpKernel = LaneKernel<K> &&
    requires(K k, typename K::WarpState& warp,
             const typename K::WarpState& cwarp, const WarpSpan& span) {
  typename K::WarpState;
  requires std::is_trivially_copyable_v<typename K::WarpState>;
  { K::kWarpWidth } -> std::convertible_to<int>;
  { k.make_warp(span) } -> std::same_as<typename K::WarpState>;
  { k.warp_step(warp) } -> std::same_as<std::uint32_t>;
  { k.warp_finish(cwarp, span) };
  { k.lane_state_of(cwarp, 0) } -> std::same_as<typename K::LaneState>;
};
// clang-format on

/// Per-warp execution trace: the raw material of the timing model.
struct WarpTrace {
  std::int32_t block = 0;
  std::int32_t warp_in_block = 0;
  /// Lockstep steps this warp issued (= max over its lanes' step counts).
  std::uint32_t steps = 0;
  /// Sum of per-lane active steps (<= steps * lanes; the gap is divergence
  /// waste).
  std::uint64_t active_lane_steps = 0;
  /// Lanes this warp actually carried (last warp of a block may be partial).
  std::int32_t lanes = 0;
};

/// Aggregate statistics for one launch.
struct LaunchStats {
  std::uint64_t total_warp_steps = 0;
  std::uint64_t total_active_lane_steps = 0;
  std::uint64_t total_lane_slots = 0;  ///< warp_steps * warp_size summed
  std::uint32_t max_warp_steps = 0;
  std::int32_t warps = 0;

  /// Fraction of SIMD lane-slots wasted by divergence / early lane exit.
  [[nodiscard]] double divergence_waste() const noexcept {
    if (total_lane_slots == 0) return 0.0;
    return 1.0 - static_cast<double>(total_active_lane_steps) /
                     static_cast<double>(total_lane_slots);
  }
};

/// How a launch ended. Failures and stalls only occur under fault injection
/// (util::FaultInjector); without an injector every launch is kOk.
enum class LaunchStatus : std::uint8_t {
  kOk = 0,
  /// The launch errored out; nothing executed and no results were produced
  /// (the driver-call overhead was still charged).
  kFailed,
  /// The kernel completed correctly but took stall_multiplier times its
  /// modeled device time (a straggler, not an error).
  kStalled,
  /// The launch never completed; the hang watchdog (VirtualGpu::wait_for)
  /// timed the wait out. No results were produced.
  kHungTimeout,
};

/// Result of a (synchronous) launch: how long the device took, plus stats.
struct LaunchResult {
  double device_cycles = 0.0;
  LaunchStatus status = LaunchStatus::kOk;
  LaunchStats stats;

  [[nodiscard]] bool ok() const noexcept {
    return status != LaunchStatus::kFailed &&
           status != LaunchStatus::kHungTimeout;
  }
};

}  // namespace gpu_mcts::simt
