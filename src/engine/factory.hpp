// make_searcher<G>(spec): the engine factory — one entry point that turns a
// SchemeSpec into a searcher for *any* game satisfying game::Game. This is
// the sole construction path; the former Reversi-only harness player
// factory has been removed.
//
//   auto searcher = engine::make_searcher<reversi::ReversiGame>(
//       engine::SchemeSpec::parse("block:112x128").with_seed(42));
//
// Construction goes through a per-game SearcherRegistry keyed by canonical
// scheme name. The built-in schemes are registered on first use; experiments
// can add their own with
//   engine::SearcherRegistry<G>::instance().add("my-scheme", builder);
// and select them with SchemeSpec{.scheme = "my-scheme", ...}.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/distributed.hpp"
#include "engine/spec.hpp"
#include "game/game_traits.hpp"
#include "mcts/flat_mc.hpp"
#include "mcts/searcher.hpp"
#include "mcts/sequential.hpp"
#include "mcts/transposition.hpp"
#include "parallel/block_parallel.hpp"
#include "parallel/hybrid.hpp"
#include "parallel/leaf_parallel.hpp"
#include "parallel/root_parallel.hpp"
#include "parallel/shared_tree.hpp"
#include "parallel/tree_parallel.hpp"
#include "simt/vgpu.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::engine {

/// Builds the virtual GPU a spec describes, arming the fault injector only
/// when the spec carries a fault scenario (the common no-fault path is
/// identical to constructing VirtualGpu directly).
template <typename Spec = SchemeSpec>
[[nodiscard]] inline simt::VirtualGpu make_vgpu(const Spec& spec) {
  simt::VirtualGpu gpu(spec.device, spec.host, spec.cost);
  if (spec.gpu_faults.any()) {
    const std::uint64_t seed =
        spec.fault_seed != 0
            ? spec.fault_seed
            : util::derive_seed(spec.search.seed, 0x6f0a17ULL);
    gpu.set_fault_injector(util::FaultInjector(spec.gpu_faults, seed));
  }
  if (spec.exec_threads > 0) {
    gpu.set_execution_policy(
        simt::ExecutionPolicy{.threads = spec.exec_threads});
  }
  return gpu;
}

/// Name -> builder registry for one game type. Function-local singleton per
/// G; built-in schemes register in the constructor.
template <game::Game G>
class SearcherRegistry {
 public:
  using SearcherPtr = std::unique_ptr<mcts::Searcher<G>>;
  using Builder = std::function<SearcherPtr(const SchemeSpec&)>;

  [[nodiscard]] static SearcherRegistry& instance() {
    static SearcherRegistry registry;
    return registry;
  }

  /// Registers (or replaces) a scheme builder.
  void add(const std::string& name, Builder builder) {
    builders_[name] = std::move(builder);
  }

  [[nodiscard]] SearcherPtr make(const SchemeSpec& spec) const {
    const auto it = builders_.find(spec.scheme);
    if (it == builders_.end()) {
      std::string known;
      for (const auto& [name, builder] : builders_) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw std::invalid_argument("unknown scheme \"" + spec.scheme +
                                  "\"; registered: " + known);
    }
    return it->second(spec);
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(builders_.size());
    for (const auto& [name, builder] : builders_) out.push_back(name);
    return out;
  }

 private:
  SearcherRegistry() { register_builtins(); }

  void register_builtins() {
    add("sequential", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<mcts::SequentialSearcher<G>>(
          spec.search, spec.host, spec.cost);
    });
    add("flat-mc", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<mcts::FlatMonteCarloSearcher<G>>(
          spec.search, spec.host, spec.cost);
    });
    add("root-parallel", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<parallel::RootParallelSearcher<G>>(
          typename parallel::RootParallelSearcher<G>::Options{
              .threads = spec.cpu_threads},
          spec.search, spec.host, spec.cost);
    });
    add("tree-parallel", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<parallel::TreeParallelSearcher<G>>(
          typename parallel::TreeParallelSearcher<G>::Options{
              .workers = spec.cpu_threads,
              .virtual_loss =
                  static_cast<std::uint32_t>(spec.virtual_loss)},
          spec.search, spec.host, spec.cost);
    });
    add("shared-tree", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<parallel::SharedTreeSearcher<G>>(
          typename parallel::SharedTreeSearcher<G>::Options{
              .workers = spec.cpu_threads,
              .virtual_loss = static_cast<std::uint32_t>(spec.virtual_loss),
              .wu_uct = spec.wu_uct},
          spec.search, spec.host, spec.cost);
    });
    add("leaf-gpu", [](const SchemeSpec& spec) -> SearcherPtr {
      util::expects(!spec.pipeline, "leaf-gpu rounds do not pipeline");
      return std::make_unique<parallel::LeafParallelGpuSearcher<G>>(
          typename parallel::LeafParallelGpuSearcher<G>::Options{
              .launch = spec.launch()},
          spec.search, make_vgpu(spec));
    });
    add("block-gpu", [](const SchemeSpec& spec) -> SearcherPtr {
      util::expects(!spec.pipeline, "block-gpu rounds do not pipeline");
      return std::make_unique<parallel::BlockParallelGpuSearcher<G>>(
          typename parallel::BlockParallelGpuSearcher<G>::Options{
              .launch = spec.launch()},
          spec.search, make_vgpu(spec));
    });
    add("hybrid", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<parallel::HybridSearcher<G>>(
          typename parallel::HybridSearcher<G>::Options{
              .launch = spec.launch(),
              .cpu_overlap = spec.cpu_overlap,
              .pipeline = spec.pipeline,
              .pipeline_depth = spec.pipeline_depth},
          spec.search, make_vgpu(spec));
    });
    add("distributed", [](const SchemeSpec& spec) -> SearcherPtr {
      return std::make_unique<cluster::DistributedRootSearcher<G>>(
          typename cluster::DistributedRootSearcher<G>::Options{
              .ranks = spec.ranks,
              .launch = spec.launch(),
              .comm = spec.comm,
              .dead_ranks = spec.dead_ranks,
              .comm_faults = spec.comm_faults},
          spec.search, make_vgpu(spec));
    });
  }

  std::map<std::string, Builder> builders_;
};

/// Decorator the factory wraps around a scheme when `spec.tt_mb > 0`: owns
/// the shared TranspositionTable every tree of the inner searcher attaches
/// to (via SearchConfig::transposition) and advances the table's aging
/// epoch once per move decision. Everything else forwards verbatim, so a
/// spec without "+tt" never constructs this class and stays bit-exact with
/// the pre-table engine.
template <game::Game G>
class TranspositionScopedSearcher final : public mcts::Searcher<G> {
 public:
  TranspositionScopedSearcher(std::shared_ptr<mcts::TranspositionTable> table,
                              std::unique_ptr<mcts::Searcher<G>> inner)
      : table_(std::move(table)), inner_(std::move(inner)) {}

  [[nodiscard]] typename G::Move choose_move(
      const typename G::State& state,
      const mcts::SearchBudget& budget) override {
    table_->bump_epoch();
    return inner_->choose_move(state, budget);
  }

  [[nodiscard]] const mcts::SearchStats& last_stats() const noexcept override {
    return inner_->last_stats();
  }

  [[nodiscard]] std::string name() const override {
    return inner_->name() + " + transposition";
  }

  void reseed(std::uint64_t seed) override { inner_->reseed(seed); }

  void set_tracer(obs::Tracer* tracer) noexcept override {
    inner_->set_tracer(tracer);
  }

  [[nodiscard]] const mcts::TranspositionTable* transposition()
      const noexcept override {
    return table_.get();
  }

 private:
  std::shared_ptr<mcts::TranspositionTable> table_;
  std::unique_ptr<mcts::Searcher<G>> inner_;
};

/// Builds the searcher described by `spec`.
template <game::Game G>
[[nodiscard]] std::unique_ptr<mcts::Searcher<G>> make_searcher(
    const SchemeSpec& spec) {
  if (spec.tt_mb > 0 && spec.search.transposition == nullptr) {
    auto table = std::make_shared<mcts::TranspositionTable>(
        mcts::TranspositionTable::entries_for_megabytes(spec.tt_mb));
    SchemeSpec wired = spec;
    wired.search.transposition = table.get();
    return std::make_unique<TranspositionScopedSearcher<G>>(
        std::move(table), SearcherRegistry<G>::instance().make(wired));
  }
  return SearcherRegistry<G>::instance().make(spec);
}

/// Convenience: parse + build in one call.
template <game::Game G>
[[nodiscard]] std::unique_ptr<mcts::Searcher<G>> make_searcher(
    std::string_view spec_string) {
  return make_searcher<G>(SchemeSpec::parse(spec_string));
}

}  // namespace gpu_mcts::engine
