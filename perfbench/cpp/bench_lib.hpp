// The benchmark's own logic, kept free of timing so its unit tests can pin
// it: seeded input generation (position suite, serve sessions and arrival
// schedule), the percentile rule, the result digest, the serve arithmetic,
// and the in-memory wall-clock span recorder.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "reversi/position.hpp"
#include "util/rng.hpp"

namespace perfbench {

using gpu_mcts::reversi::Move;
using gpu_mcts::reversi::Position;

// ---------------------------------------------------------------------------
// Inputs

/// One uniformly random legal move (the pass move when the mover has no
/// placement). `p` must not be terminal.
inline Move random_legal_move(const Position& p,
                              gpu_mcts::util::SplitMix64& rng) {
  std::array<Move, 64> moves{};
  const int n = gpu_mcts::reversi::legal_moves(p, moves);
  if (n <= 0) throw std::logic_error("random_legal_move on a terminal position");
  return moves[rng() % static_cast<std::uint64_t>(n)];
}

/// The last prefix length the suite draws; 55 plies leaves at least a few
/// empties, so the deepest positions still have short playouts left.
inline constexpr int kMaxPrefixPlies = 55;

/// Position `index` of the suite: a seeded random legal line of
/// `index % (kMaxPrefixPlies + 1)` plies from the initial position.
/// Stratifying the prefix length (instead of drawing it) gives every seed
/// the same opening/midgame/endgame mix, so a seed changes which positions
/// are searched but not how long their playouts are on average. A line that
/// ends in a terminal position is redrawn with the next attempt's stream.
inline Position suite_position(std::uint64_t seed, int index) {
  const int plies = index % (kMaxPrefixPlies + 1);
  for (std::uint64_t attempt = 0;; ++attempt) {
    gpu_mcts::util::SplitMix64 rng(gpu_mcts::util::derive_seed(
        gpu_mcts::util::derive_seed(seed, static_cast<std::uint64_t>(index)),
        attempt));
    Position p = gpu_mcts::reversi::initial_position();
    bool ended = false;
    for (int ply = 0; ply < plies && !ended; ++ply) {
      p = gpu_mcts::reversi::apply_move(p, random_legal_move(p, rng));
      ended = gpu_mcts::reversi::is_terminal(p);
    }
    if (!ended) return p;
  }
}

/// The shared position suite of the search workloads: `count` non-terminal
/// positions spanning prefix lengths 0..kMaxPrefixPlies.
inline std::vector<Position> make_position_suite(std::uint64_t seed,
                                                 int count) {
  std::vector<Position> suite;
  suite.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) suite.push_back(suite_position(seed, i));
  return suite;
}

/// One serve session's game: a seeded opening of 0..`max_opening_plies`
/// random plies, then `tickets` consecutive positions of a random line from
/// it (ticket k searches the position k plies after the opening). Redrawn
/// until all of them are non-terminal.
inline std::vector<Position> make_session_line(std::uint64_t seed,
                                               int max_opening_plies,
                                               int tickets) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    gpu_mcts::util::SplitMix64 rng(gpu_mcts::util::derive_seed(seed, attempt));
    const int opening =
        static_cast<int>(rng() % static_cast<std::uint64_t>(max_opening_plies + 1));
    Position p = gpu_mcts::reversi::initial_position();
    std::vector<Position> line;
    bool ended = false;
    for (int ply = 0; ply < opening + tickets && !ended; ++ply) {
      if (ply >= opening) line.push_back(p);
      p = gpu_mcts::reversi::apply_move(p, random_legal_move(p, rng));
      ended = gpu_mcts::reversi::is_terminal(p);
    }
    if (static_cast<int>(line.size()) == tickets &&
        !gpu_mcts::reversi::is_terminal(line.back())) {
      return line;
    }
  }
}

/// One ticket of the open-loop schedule.
struct Arrival {
  double virtual_seconds = 0.0;
  int session = 0;
};

/// Open-loop Poisson schedule of `sessions * per_session` tickets over
/// `span_seconds` of service virtual time. The arrival times are the sorted
/// order statistics of uniforms on [0, span) — a Poisson process conditioned
/// on its count — so every seed offers exactly the same load. Arrivals go to
/// the sessions in rotation (arrival i to session i % sessions), as tenants
/// taking turns: the aggregate stream stays Poisson while a session's own
/// moves arrive far apart, so latency tails measure contention for the
/// device rather than a tenant queueing behind its own previous move.
inline std::vector<Arrival> make_arrivals(std::uint64_t seed, int sessions,
                                          int per_session,
                                          double span_seconds) {
  gpu_mcts::util::SplitMix64 rng(seed);
  const int n = sessions * per_session;
  std::vector<double> times(static_cast<std::size_t>(n));
  for (double& t : times) {
    t = span_seconds * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  }
  std::sort(times.begin(), times.end());
  std::vector<Arrival> out(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {times[i], static_cast<int>(i % static_cast<std::size_t>(sessions))};
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

/// Samples strictly above the q-quantile of n samples: n - ceil(q * n).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return at >= n ? 0 : n - at;
}

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

[[nodiscard]] inline bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinSamplesBeyond;
}

/// Linear-interpolation quantile (the "inclusive" definition). Throws when
/// the sample cannot support it under the ten-samples-beyond rule, so a
/// workload sized too small fails loudly instead of printing a p95 that
/// rests on two points.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (q > 0.5 && !percentile_supported(values.size(), q)) {
    throw std::invalid_argument(
        "percentile " + std::to_string(q) + " needs " +
        std::to_string(kMinSamplesBeyond) + " samples beyond it; have " +
        std::to_string(values.size()) + " samples");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------------
// Result digest

/// FNV-1a over the per-operation results that must not depend on wall
/// clock or tracing: move, simulations, tree nodes, and the bits of the
/// virtual seconds.
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add_op(Move move, std::uint64_t simulations, std::uint64_t tree_nodes,
              double virtual_seconds) noexcept {
    add(move);
    add(simulations);
    add(tree_nodes);
    add(std::bit_cast<std::uint64_t>(virtual_seconds));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Serve arithmetic

/// Share of the combined grid the tickets actually filled:
/// sum(ticket gpu_rounds * session blocks) / (launches * grid blocks).
[[nodiscard]] inline double grid_occupancy(
    const std::vector<std::uint64_t>& ticket_gpu_rounds, int session_blocks,
    std::uint64_t launches, int grid_blocks) {
  if (launches == 0 || grid_blocks <= 0) return 0.0;
  double used = 0.0;
  for (const std::uint64_t r : ticket_gpu_rounds) {
    used += static_cast<double>(r) * session_blocks;
  }
  return used / (static_cast<double>(launches) * grid_blocks);
}

/// Virtual time a ticket spent in the service beyond its own search time.
[[nodiscard]] inline double queue_wait_seconds(double latency_seconds,
                                               double search_seconds) {
  return latency_seconds - search_seconds;
}

/// Share of [0, end) covered by at least one [begin, end) interval — the
/// service is busy whenever some ticket has arrived and not completed.
[[nodiscard]] inline double busy_share(
    std::vector<std::pair<double, double>> intervals, double end) {
  if (end <= 0.0) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_begin = 0.0;
  double cur_end = -1.0;
  for (const auto& [b, e] : intervals) {
    if (b > cur_end) {
      if (cur_end > cur_begin) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_begin) covered += cur_end - cur_begin;
  return covered / end;
}

// ---------------------------------------------------------------------------
// Wall-clock spans

/// A wall-clock span the benchmark records around one call into a layer.
/// Kept apart from obs::Tracer, whose events are virtual-time and must stay
/// deterministic.
struct Span {
  const char* layer = "";
  const char* name = "";
  std::uint64_t op = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
  [[nodiscard]] double duration_us() const noexcept { return end_us - begin_us; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Times `body()` as one span and returns its duration in microseconds.
  template <typename F>
  double record(const char* layer, const char* name, std::uint64_t op,
                F&& body) {
    const double begin = now_us();
    body();
    const double end = now_us();
    spans_.push_back({layer, name, op, begin, end});
    return end - begin;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"layer\":\"%s\",\"name\":\"%s\",\"op\":%llu,"
                   "\"begin_us\":%.3f,\"end_us\":%.3f}\n",
                   s.layer, s.name, static_cast<unsigned long long>(s.op),
                   s.begin_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
