// Unit tests for the benchmark's own logic: input generation, the
// percentile rule, the result digest, and the serve and trace arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bench_lib.hpp"
#include "engine/factory.hpp"
#include "layer_tally.hpp"
#include "obs/trace.hpp"
#include "reversi/reversi_game.hpp"

namespace {

using gpu_mcts::reversi::Position;
using G = gpu_mcts::reversi::ReversiGame;

int discs(const Position& p) {
  return std::popcount(p.discs[0]) + std::popcount(p.discs[1]);
}

TEST(PositionSuite, SameSeedSameSuiteAndNoTerminalPositions) {
  const auto a = perfbench::make_position_suite(7, 200);
  const auto b = perfbench::make_position_suite(7, 200);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, perfbench::make_position_suite(8, 200));
  for (const Position& p : a) EXPECT_FALSE(gpu_mcts::reversi::is_terminal(p));
}

TEST(PositionSuite, PrefixLengthsSpanOpeningToEndgame) {
  const auto suite = perfbench::make_position_suite(3, 112);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const int plies = static_cast<int>(i) % (perfbench::kMaxPrefixPlies + 1);
    // Each placement adds one disc; passes add none.
    EXPECT_LE(discs(suite[i]), 4 + plies) << "position " << i;
  }
  EXPECT_EQ(suite[0], gpu_mcts::reversi::initial_position());
  EXPECT_GE(discs(suite[perfbench::kMaxPrefixPlies]), 50);
}

TEST(ServeInputs, SessionLinesAndArrivalsAreSeeded) {
  const auto line = perfbench::make_session_line(5, 20, 8);
  ASSERT_EQ(line.size(), 8u);
  EXPECT_EQ(line, perfbench::make_session_line(5, 20, 8));
  for (const Position& p : line) EXPECT_FALSE(gpu_mcts::reversi::is_terminal(p));

  const auto arrivals = perfbench::make_arrivals(9, 4, 3, 0.5);
  ASSERT_EQ(arrivals.size(), 12u);
  std::map<int, int> per_session;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i].virtual_seconds, 0.0);
    EXPECT_LT(arrivals[i].virtual_seconds, 0.5);
    if (i > 0) {
      EXPECT_LE(arrivals[i - 1].virtual_seconds, arrivals[i].virtual_seconds);
    }
    EXPECT_EQ(arrivals[i].session, static_cast<int>(i % 4));  // rotation
    per_session[arrivals[i].session] += 1;
  }
  for (int s = 0; s < 4; ++s) EXPECT_EQ(per_session[s], 3);
  const auto again = perfbench::make_arrivals(9, 4, 3, 0.5);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].virtual_seconds, again[i].virtual_seconds);
    EXPECT_EQ(arrivals[i].session, again[i].session);
  }
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(perfbench::samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(perfbench::percentile_supported(100, 0.9));
  EXPECT_FALSE(perfbench::percentile_supported(99, 0.9));
  EXPECT_TRUE(perfbench::percentile_supported(200, 0.95));
  EXPECT_FALSE(perfbench::percentile_supported(199, 0.95));
  EXPECT_FALSE(perfbench::percentile_supported(112, 0.95));
  EXPECT_THROW((void)perfbench::percentile(std::vector<double>(99, 1.0), 0.9),
               std::invalid_argument);
  EXPECT_THROW((void)perfbench::percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 101; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 0.5), 51.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 0.9), 91.0);
  EXPECT_DOUBLE_EQ(perfbench::median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

std::uint64_t search_digest(const char* spec, bool traced) {
  auto searcher = gpu_mcts::engine::make_searcher<G>(
      gpu_mcts::engine::SchemeSpec::parse(spec).with_seed(11));
  gpu_mcts::obs::Tracer tracer;
  if (traced) searcher->set_tracer(&tracer);
  const auto suite = perfbench::make_position_suite(2, 4);
  perfbench::Digest digest;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    searcher->reseed(100 + i);
    const auto move = searcher->choose_move(suite[i], 0.002);
    const auto& stats = searcher->last_stats();
    digest.add_op(move, stats.simulations, stats.tree_nodes,
                  stats.virtual_seconds);
  }
  return digest.value();
}

TEST(Digest, StableAcrossRunsAndInvisibleToTracing) {
  const std::uint64_t first = search_digest("block:14x32", false);
  EXPECT_EQ(first, search_digest("block:14x32", false));
  EXPECT_EQ(first, search_digest("block:14x32", true));
  EXPECT_NE(first, search_digest("block:14x64", false));
}

TEST(Digest, CoversEveryField) {
  perfbench::Digest base;
  base.add_op(19, 100, 7, 0.01);
  for (int field = 0; field < 4; ++field) {
    perfbench::Digest d;
    d.add_op(field == 0 ? 20 : 19, field == 1 ? 101 : 100, field == 2 ? 8 : 7,
             field == 3 ? 0.0100001 : 0.01);
    EXPECT_NE(d.value(), base.value()) << "field " << field;
  }
}

TEST(ServeArithmetic, GridOccupancyOnAHandBuiltCase) {
  // Tickets rode 3 + 2 + 1 rounds with 14 blocks each: 84 block-rounds in
  // 2 launches of a 112-block grid.
  EXPECT_DOUBLE_EQ(perfbench::grid_occupancy({3, 2, 1}, 14, 2, 112),
                   84.0 / 224.0);
  EXPECT_DOUBLE_EQ(perfbench::grid_occupancy({8}, 14, 1, 112), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::grid_occupancy({1}, 14, 0, 112), 0.0);
}

TEST(ServeArithmetic, QueueWaitAndBusyShare) {
  EXPECT_DOUBLE_EQ(perfbench::queue_wait_seconds(0.030, 0.012), 0.018);
  // [0,1) and [0.5,2) overlap into [0,2); [3,4) adds 1: 3 of 5 busy.
  EXPECT_DOUBLE_EQ(perfbench::busy_share({{3.0, 4.0}, {0.5, 2.0}, {0.0, 1.0}}, 5.0),
                   0.6);
  EXPECT_DOUBLE_EQ(perfbench::busy_share({}, 5.0), 0.0);
}

TEST(LayerTally, CountsCombinedLaunchesAndPairsSpansInOrder) {
  gpu_mcts::obs::Tracer tracer;
  tracer.set_frequency(1000.0);  // 1 cycle = 1 ms
  const int host = gpu_mcts::obs::Tracer::kHostTrack;
  // Two combined rounds: three riders, then two. Riders stage (selection,
  // kernel begin) in order and settle (kernel end) in the same order.
  std::uint64_t t = 0;
  for (const int riders : {3, 2}) {
    for (int r = 0; r < riders; ++r) {
      tracer.begin(host, "selection", t);
      tracer.end(host, "selection", t + 1);
      tracer.begin(host, "kernel", t + 1);
      t += 2;
    }
    for (int r = 0; r < riders; ++r) tracer.end(host, "kernel", t + 10);
    t += 20;
  }
  perfbench::LayerTally tally;
  tally.absorb(tracer, 32);
  EXPECT_EQ(tally.combined_launches, 2u);
  EXPECT_DOUBLE_EQ(tally.host_span_ms["selection"], 5.0);
  EXPECT_EQ(tally.ops, 1u);
}

}  // namespace
