// Launch geometry: grid/block dimensions and per-lane identity, mirroring the
// CUDA blockIdx/threadIdx model the paper's Figure 3 maps onto hardware.
#pragma once

#include <cstdint>

#include "simt/device_props.hpp"
#include "util/check.hpp"

namespace gpu_mcts::simt {

/// A 1-D launch: the paper's kernels are all 1-D grids of 1-D blocks
/// ("n = blocks(trees) x threads (simulations at once)").
///
/// `block_offset` makes the launch a *slice* of a larger logical grid:
/// lane identities (LaneId::block / global_thread), warp-trace block ids,
/// and the SM assignment all use the global block index
/// `block_offset + local_block`. Two launches covering [0, k) and [k, n)
/// therefore execute exactly the lanes — same RNG streams, same root/result
/// slots, same SM placement — that one launch of n blocks would, which is
/// what lets the pipelined hybrid round split across streams without
/// changing any tree's evolution (DESIGN.md §10).
struct LaunchConfig {
  int blocks = 1;
  int threads_per_block = 32;
  /// Global index of this launch's first block (0 = a whole grid).
  int block_offset = 0;

  [[nodiscard]] constexpr int total_threads() const noexcept {
    return blocks * threads_per_block;
  }
  [[nodiscard]] constexpr int warps_per_block(
      const DeviceProperties& dev) const noexcept {
    return (threads_per_block + dev.warp_size - 1) / dev.warp_size;
  }
  [[nodiscard]] constexpr int total_warps(
      const DeviceProperties& dev) const noexcept {
    return blocks * warps_per_block(dev);
  }
};

/// Validates a config against device limits; throws ContractViolation.
inline void validate(const LaunchConfig& cfg, const DeviceProperties& dev) {
  util::expects(cfg.blocks >= 1 && cfg.blocks <= dev.max_blocks,
                "block count within device limits");
  util::expects(cfg.threads_per_block >= 1 &&
                    cfg.threads_per_block <= dev.max_threads_per_block,
                "threads per block within device limits");
  util::expects(cfg.block_offset >= 0 &&
                    cfg.block_offset + cfg.blocks <= dev.max_blocks,
                "grid slice within device limits");
}

/// Identity of one lane during kernel execution. `block` and `global_thread`
/// are *logical-grid* indices: a sliced launch (block_offset > 0) hands its
/// lanes the same identities the covering full-grid launch would.
struct LaneId {
  int block = 0;           ///< blockIdx.x, in the logical grid
  int thread = 0;          ///< threadIdx.x
  int warp_in_block = 0;   ///< threadIdx.x / warpSize
  int lane_in_warp = 0;    ///< threadIdx.x % warpSize
  int global_thread = 0;   ///< blockIdx.x * blockDim.x + threadIdx.x
};

[[nodiscard]] constexpr LaneId make_lane_id(const LaunchConfig& cfg,
                                            const DeviceProperties& dev,
                                            int block, int thread) noexcept {
  LaneId id;
  id.block = cfg.block_offset + block;
  id.thread = thread;
  id.warp_in_block = thread / dev.warp_size;
  id.lane_in_warp = thread % dev.warp_size;
  id.global_thread = id.block * cfg.threads_per_block + thread;
  return id;
}

/// Round-robin block scheduling onto SMs (how the model assigns work; real
/// hardware uses a dynamic scheduler but round-robin preserves the load
/// balance properties that matter for timing shape).
[[nodiscard]] constexpr int sm_of_block(int block,
                                        const DeviceProperties& dev) noexcept {
  return block % dev.sm_count;
}

}  // namespace gpu_mcts::simt
