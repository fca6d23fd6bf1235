// SchemeSpec: one value that fully describes a searcher to construct —
// which parallelization scheme, its geometry (CPU threads / GPU grid /
// rank count), the search parameters, and the modeled hardware. This is
// the configuration half of the engine API (DESIGN.md §8); the factory
// half (engine/factory.hpp) turns a spec into a `mcts::Searcher<G>` for
// any game.
//
// Specs come from three places:
//  * SchemeSpec::parse("block:112x128") — the command-line string form
//    every example and bench binary accepts (see the grammar below);
//  * the static builders (SchemeSpec::block_gpu(112, 128), ...) — the
//    programmatic form, which also apply the per-scheme search defaults
//    (batch-backpropagating schemes get mcts::kBatchUcbC);
//  * field-by-field construction, for experiments that override the device
//    or cost model.
//
// Grammar accepted by parse():
//   "seq" | "sequential"            sequential UCT, 1 CPU core
//   "flat" | "flat-mc"              flat Monte Carlo (no tree)
//   "root:<threads>"                root parallelism on CPU threads
//   "tree:<workers>[:vl=<loss>]"    tree parallelism + virtual loss (modeled)
//   "shared:<workers>[:vl=<loss>][:wu]"
//                                   shared-tree on real host threads
//                                   (atomic tree; ":wu" selects WU-UCT)
//   "leaf:<blocks>x<tpb>"           leaf parallelism on the virtual GPU
//   "block:<blocks>x<tpb>"          block parallelism (the paper's scheme)
//   "hybrid:<blocks>x<tpb>"         block parallelism + CPU overlap
//   "gpu-only:<blocks>x<tpb>"       hybrid plumbing, overlap disabled
//   "dist:<ranks>x<blocks>x<tpb>"   distributed root parallelism
//   ("distributed:..." is accepted as an alias for "dist:...".)
// The hybrid and gpu-only forms accept a "+pipeline[:<depth>]" suffix —
// e.g. "hybrid:112x128+pipeline" or "hybrid:112x128+pipeline:3" — enabling
// the stream-pipelined rounds of DESIGN.md §10 over <depth> stream cohorts
// (default 2), with CPU iterations overlapped against each in-flight
// cohort kernel. Leaf and block rounds are synchronous.
// The seq, shared, leaf, block, hybrid, and gpu-only forms accept a
// "+tt:<mb>" suffix — e.g. "seq+tt:64" or "hybrid:112x128+pipeline+tt:64"
// (suffixes compose in any order) — attaching a shared transposition table
// of <mb> megabytes to every tree of the searcher (DESIGN.md §16). Without
// the suffix every scheme is bit-exact with a build that predates the
// table.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/comm.hpp"
#include "mcts/config.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "simt/geometry.hpp"
#include "util/fault.hpp"

namespace gpu_mcts::engine {

struct SchemeSpec {
  /// Canonical scheme name; the factory's registry key. Built-ins:
  /// "sequential", "flat-mc", "root-parallel", "tree-parallel",
  /// "shared-tree", "leaf-gpu", "block-gpu", "hybrid", "distributed".
  std::string scheme = "sequential";

  /// CPU thread/worker count (root-parallel, tree-parallel, shared-tree).
  int cpu_threads = 1;
  /// Visits charged per in-flight selection (tree-parallel and shared-tree;
  /// the ":vl=<loss>" spec option). 0 disables virtual loss.
  int virtual_loss = 1;
  /// Shared-tree only: score with the WU-UCT bound instead of
  /// virtual-loss-adjusted UCB1 (the ":wu" spec option).
  bool wu_uct = false;
  /// GPU grid geometry (GPU schemes).
  int blocks = 112;
  int threads_per_block = 128;
  /// Rank count (distributed only).
  int ranks = 1;
  /// Hybrid: disable to get a GPU-only control with identical plumbing.
  bool cpu_overlap = true;
  /// Hybrid (and gpu-only): pipelined rounds over stream cohorts, with CPU
  /// iterations overlapped against each in-flight cohort kernel (the
  /// "+pipeline[:<depth>]" spec suffix, DESIGN.md §10). parse() rejects
  /// the suffix on every other scheme, and make_searcher rejects the field
  /// on leaf-gpu and block-gpu.
  bool pipeline = false;
  /// Stream cohorts per pipelined round (the ":<depth>" of the suffix,
  /// default 2). Clamped to the device stream count and block count by the
  /// driver.
  int pipeline_depth = 2;
  /// Shared transposition table size in megabytes (the "+tt:<mb>" spec
  /// suffix); 0 (the default) searches without one — bit-exact with the
  /// pre-table engine. The factory owns the table and shares it across
  /// every tree the searcher builds; see mcts/transposition.hpp.
  int tt_mb = 0;
  /// Host worker threads for the VirtualGpu execution backend (kernel
  /// grids; results are bit-identical for every value — the knob only buys
  /// wall-clock speed, see DESIGN.md §9). 0 (the
  /// default) takes ExecutionPolicy::from_env(): GPU_MCTS_EXEC_THREADS when
  /// set, else every CPU the process may run on.
  int exec_threads = 0;

  /// Search parameters (seed, UCB constant, node cap).
  mcts::SearchConfig search{};

  /// Modeled hardware (swapped by ablation benches).
  simt::DeviceProperties device = simt::tesla_c2050();
  simt::HostProperties host = simt::xeon_x5670();
  simt::CostModel cost = simt::default_cost_model();
  cluster::CommCosts comm{};

  /// Fault-injection scenario (distributed: ranks dead from the start;
  /// any GPU scheme: launch/transfer faults on the virtual GPU).
  std::vector<int> dead_ranks{};
  util::FaultPolicy comm_faults{};
  util::FaultPolicy gpu_faults{};
  /// Seed for the GPU fault injector; 0 derives one from `search.seed`.
  std::uint64_t fault_seed = 0;

  /// Parses the spec-string grammar above. Throws std::invalid_argument
  /// (listing the accepted forms) on anything it does not recognize.
  [[nodiscard]] static SchemeSpec parse(std::string_view text);

  // Programmatic builders, one per scheme. The GPU/batch builders set
  // search.ucb_c = mcts::kBatchUcbC, matching what parse() produces.
  [[nodiscard]] static SchemeSpec sequential();
  [[nodiscard]] static SchemeSpec flat_mc();
  [[nodiscard]] static SchemeSpec root_parallel(int threads);
  [[nodiscard]] static SchemeSpec tree_parallel(int workers,
                                               int virtual_loss = 1);
  [[nodiscard]] static SchemeSpec shared_tree(int workers,
                                              int virtual_loss = 1,
                                              bool wu_uct = false);
  [[nodiscard]] static SchemeSpec leaf_gpu(int blocks, int threads_per_block);
  [[nodiscard]] static SchemeSpec block_gpu(int blocks, int threads_per_block);
  [[nodiscard]] static SchemeSpec hybrid(int blocks, int threads_per_block,
                                         bool cpu_overlap = true);
  [[nodiscard]] static SchemeSpec distributed(int ranks, int blocks,
                                              int threads_per_block);

  /// Thread-sweep variants: split a total thread count into a grid the way
  /// the paper's figures do (single partial block below one full block;
  /// otherwise the count must divide evenly).
  [[nodiscard]] static SchemeSpec leaf_gpu_threads(int total_threads,
                                                   int block_size);
  [[nodiscard]] static SchemeSpec block_gpu_threads(int total_threads,
                                                    int block_size);

  /// Returns a copy with `search.seed` replaced — the common chaining form:
  ///   make_searcher<G>(SchemeSpec::block_gpu(112, 128).with_seed(seed))
  [[nodiscard]] SchemeSpec with_seed(std::uint64_t seed) const;

  /// Returns a copy with `exec_threads` replaced (the --exec-threads flag).
  [[nodiscard]] SchemeSpec with_exec_threads(int threads) const;

  /// Returns a copy with `pipeline` set. Only the hybrid scheme takes it;
  /// make_searcher rejects it for leaf-gpu and block-gpu.
  [[nodiscard]] SchemeSpec with_pipeline(bool on = true) const;

  /// Returns a copy with `pipeline_depth` replaced (1..8; the
  /// "+pipeline:<depth>" suffix). Depth 1 runs synchronous rounds even
  /// with `pipeline` set.
  [[nodiscard]] SchemeSpec with_pipeline_depth(int depth) const;

  /// Returns a copy with `tt_mb` replaced (0..4096; the "+tt:<mb>" suffix,
  /// 0 = no table). Only meaningful for the transposition-capable schemes
  /// (seq, shared, leaf, block, hybrid, gpu-only).
  [[nodiscard]] SchemeSpec with_tt(int megabytes) const;

  /// Canonical spec string; parse(to_string()) reproduces the geometry.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] simt::LaunchConfig launch() const noexcept {
    return simt::LaunchConfig{blocks, threads_per_block};
  }
};

/// The paper's thread-sweep split (shared by the *_threads builders): totals
/// at or below one block run a single partial block; larger totals must be
/// block-size-divisible.
[[nodiscard]] simt::LaunchConfig grid_for(int total_threads, int block_size);

}  // namespace gpu_mcts::engine
