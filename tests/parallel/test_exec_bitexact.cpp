// Scheme-level guarantees of the multi-threaded execution backend
// (DESIGN.md §9): a full choose_move under exec_threads = N must be
// bit-identical to exec_threads = 1 — same move, same SearchStats to the
// last bit, same trace event stream — and the divergence audit must average
// over successful GPU rounds only, under faults included.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/factory.hpp"
#include "engine/spec.hpp"
#include "mcts/transposition.hpp"
#include "obs/trace.hpp"
#include "reversi/reversi_game.hpp"

namespace gpu_mcts::parallel {
namespace {

using reversi::ReversiGame;

constexpr double kBudget = 0.004;

struct SearchCapture {
  reversi::Move move{};
  mcts::SearchStats stats;
  std::vector<obs::TraceEvent> events;
};

SearchCapture run_search(const engine::SchemeSpec& spec, int exec_threads,
                         double budget = kBudget) {
  SearchCapture out;
  obs::Tracer tracer;
  auto searcher = engine::make_searcher<ReversiGame>(
      spec.with_exec_threads(exec_threads));
  searcher->set_tracer(&tracer);
  out.move = searcher->choose_move(ReversiGame::initial_state(), budget);
  out.stats = searcher->last_stats();
  out.events = tracer.merged();
  return out;
}

void expect_bit_identical(const SearchCapture& a, const SearchCapture& b) {
  EXPECT_EQ(a.move, b.move);
  EXPECT_EQ(a.stats.simulations, b.stats.simulations);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.gpu_rounds, b.stats.gpu_rounds);
  EXPECT_EQ(a.stats.cpu_iterations, b.stats.cpu_iterations);
  EXPECT_EQ(a.stats.gpu_simulations, b.stats.gpu_simulations);
  EXPECT_EQ(a.stats.tree_nodes, b.stats.tree_nodes);
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth);
  // Bitwise double equality — the backend must not change a single FP op.
  EXPECT_EQ(a.stats.virtual_seconds, b.stats.virtual_seconds);
  EXPECT_EQ(a.stats.divergence_waste, b.stats.divergence_waste);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].track, b.events[i].track) << i;
    EXPECT_EQ(a.events[i].cycles, b.events[i].cycles) << i;
    EXPECT_STREQ(a.events[i].name, b.events[i].name) << i;
    EXPECT_EQ(a.events[i].value, b.events[i].value) << i;
    ASSERT_EQ(a.events[i].arg_count, b.events[i].arg_count) << i;
    for (std::uint8_t k = 0; k < a.events[i].arg_count; ++k) {
      EXPECT_EQ(a.events[i].args[k].value, b.events[i].args[k].value) << i;
    }
  }
}

TEST(ExecBitExact, BlockParallelSearchIdenticalAcrossExecThreads) {
  const auto spec = engine::SchemeSpec::block_gpu(8, 32).with_seed(14);
  const SearchCapture sequential = run_search(spec, 1);
  EXPECT_GT(sequential.stats.gpu_rounds, 0u);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    expect_bit_identical(sequential, run_search(spec, threads));
  }
}

TEST(ExecBitExact, HybridSearchIdenticalAcrossExecThreads) {
  const auto spec = engine::SchemeSpec::hybrid(8, 32).with_seed(16);
  const SearchCapture sequential = run_search(spec, 1);
  EXPECT_GT(sequential.stats.cpu_iterations, 0u);  // overlap really ran
  expect_bit_identical(sequential, run_search(spec, 4));
}

TEST(ExecBitExact, LeafParallelSearchIdenticalAcrossExecThreads) {
  // Leaf parallelism aliases one result slot across all blocks — the
  // strictest FP-accumulation-order case.
  const auto spec = engine::SchemeSpec::leaf_gpu(4, 64).with_seed(13);
  expect_bit_identical(run_search(spec, 1), run_search(spec, 4));
}

TEST(ExecBitExact, FaultedSearchIdenticalAcrossExecThreads) {
  auto spec = engine::SchemeSpec::block_gpu(8, 32).with_seed(14);
  spec.gpu_faults.kernel_launch_failure = 0.3;
  spec.fault_seed = 77;
  expect_bit_identical(run_search(spec, 1), run_search(spec, 4));
}

/// Consecutive moves of one game on one searcher, with the table stats
/// after each move and the whole game's trace on the last move.
struct GameCapture {
  std::vector<SearchCapture> moves;
  std::vector<mcts::TranspositionTable::Stats> table;
};

GameCapture run_game(const engine::SchemeSpec& spec, int exec_threads,
                     int moves) {
  GameCapture out;
  obs::Tracer tracer;
  auto searcher = engine::make_searcher<ReversiGame>(
      spec.with_exec_threads(exec_threads));
  searcher->set_tracer(&tracer);
  auto state = ReversiGame::initial_state();
  for (int m = 0; m < moves; ++m) {
    SearchCapture move;
    move.move = searcher->choose_move(state, 2 * kBudget);
    move.stats = searcher->last_stats();
    out.moves.push_back(std::move(move));
    out.table.push_back(searcher->transposition()->stats());
    state = ReversiGame::apply(state, out.moves.back().move);
  }
  out.moves.back().events = tracer.merged();
  return out;
}

TEST(ExecBitExact, BlockWithTableIdenticalAcrossExecThreads) {
  // All trees share the table and the root key, so their stores must land
  // in tree order at every exec thread count. The table outlives each move,
  // so a misordered store shows up in a later move's expansions.
  const auto spec =
      engine::SchemeSpec::parse("block:32x32+tt:1").with_seed(14);
  constexpr int kMoves = 6;
  const GameCapture sequential = run_game(spec, 1, kMoves);
  ASSERT_GT(sequential.table.back().stores, 0u);
  for (int rep = 0; rep < 3; ++rep) {
    const GameCapture pooled = run_game(spec, 4, kMoves);
    for (int m = 0; m < kMoves; ++m) {
      SCOPED_TRACE(testing::Message() << "rep " << rep << " move " << m);
      expect_bit_identical(sequential.moves[m], pooled.moves[m]);
      const auto& a = sequential.table[m];
      const auto& b = pooled.table[m];
      EXPECT_EQ(a.probes, b.probes);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.stores, b.stores);
      EXPECT_EQ(a.inserts, b.inserts);
      EXPECT_EQ(a.evictions, b.evictions);
      EXPECT_EQ(a.dropped, b.dropped);
    }
  }
}

/// Mean of the tracer's per-round "divergence" counter samples.
struct DivergenceSamples {
  double sum = 0.0;
  std::uint64_t count = 0;
};

DivergenceSamples divergence_samples(const std::vector<obs::TraceEvent>& ev) {
  DivergenceSamples out;
  for (const obs::TraceEvent& e : ev) {
    if (e.kind == obs::TraceEvent::Kind::kCounter &&
        std::string_view(e.name) == "divergence") {
      out.sum += e.value;
      out.count += 1;
    }
  }
  return out;
}

TEST(ExecBitExact, BlockDivergenceAveragesOverSuccessfulGpuRoundsOnly) {
  // Launch faults make some rounds produce no kernel results; those rounds
  // must not dilute the divergence average. The tracer emits one
  // "divergence" sample per *successful* launch round, so the audit is:
  // sample count == gpu_rounds and mean(samples) == divergence_waste.
  // A round only fails when all retry attempts fail (p^3), so the fault
  // rate is high and the budget long enough for several rounds.
  auto spec = engine::SchemeSpec::block_gpu(8, 32).with_seed(14);
  spec.gpu_faults.kernel_launch_failure = 0.8;
  spec.fault_seed = 99;
  const SearchCapture run = run_search(spec, 1, 8 * kBudget);
  ASSERT_GT(run.stats.gpu_rounds, 0u);
  EXPECT_LT(run.stats.gpu_rounds, run.stats.rounds);
  const DivergenceSamples samples = divergence_samples(run.events);
  EXPECT_EQ(samples.count, run.stats.gpu_rounds);
  EXPECT_DOUBLE_EQ(samples.sum / static_cast<double>(samples.count),
                   run.stats.divergence_waste);
  EXPECT_GT(run.stats.divergence_waste, 0.0);
}

TEST(ExecBitExact, HybridDivergenceAveragesOverSuccessfulGpuRoundsOnly) {
  auto spec = engine::SchemeSpec::hybrid(8, 32).with_seed(16);
  spec.gpu_faults.kernel_launch_failure = 0.8;
  spec.fault_seed = 91;
  const SearchCapture run = run_search(spec, 1, 8 * kBudget);
  ASSERT_GT(run.stats.gpu_rounds, 0u);
  EXPECT_LT(run.stats.gpu_rounds, run.stats.rounds);
  const DivergenceSamples samples = divergence_samples(run.events);
  EXPECT_EQ(samples.count, run.stats.gpu_rounds);
  EXPECT_DOUBLE_EQ(samples.sum / static_cast<double>(samples.count),
                   run.stats.divergence_waste);
  EXPECT_GT(run.stats.divergence_waste, 0.0);
}

TEST(ExecBitExact, AllRoundsFailedReportsZeroDivergenceWithoutNan) {
  // Every launch fails: the searcher degrades to CPU-only iterations. With
  // zero successful GPU rounds the divergence average has an empty
  // denominator — it must report 0.0, not NaN.
  auto spec = engine::SchemeSpec::block_gpu(4, 32).with_seed(14);
  spec.gpu_faults.kernel_launch_failure = 1.0;
  spec.fault_seed = 5;
  const SearchCapture run = run_search(spec, 1);
  EXPECT_EQ(run.stats.gpu_rounds, 0u);
  EXPECT_GT(run.stats.rounds, 0u);
  EXPECT_EQ(run.stats.divergence_waste, 0.0);
  EXPECT_EQ(run.stats.gpu_simulations, 0u);
  EXPECT_GT(run.stats.cpu_iterations, 0u);
}

}  // namespace
}  // namespace gpu_mcts::parallel
