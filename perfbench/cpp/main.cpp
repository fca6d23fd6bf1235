// perfbench: the repository benchmark. One binary runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see perfbench/README.md for why each exists):
//   block-flagship  block:112x128, synchronous, the paper's flagship grid
//   hybrid-narrow   hybrid:448x32+pipeline, streams plus CPU overlap
//   shared-cpu      shared:4, the multi-core CPU tree, no simt work
//   serve-poisson   SearchService, 32 block:14x32 sessions in a 112x32 grid,
//                   open-loop Poisson arrivals, 64 MB shared TT
//
// --trace 0 measures the end-to-end metrics with no tracer attached.
// --trace 1 alternates untraced and traced passes over the same inputs
// (checking that tracing leaves the result digest unchanged), derives the
// per-layer metrics from the attached obs::Tracer and the benchmark's own
// wall-clock spans, and then runs the layer probes. The last line of stdout
// is one JSON object; the lines before it are a human-readable report.
// Exit code 0 only when every correctness check held.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hpp"
#include "layer_tally.hpp"
#include "engine/factory.hpp"
#include "engine/spec.hpp"
#include "mcts/searcher.hpp"
#include "mcts/transposition.hpp"
#include "obs/trace.hpp"
#include "reversi/bitboard.hpp"
#include "reversi/reversi_game.hpp"
#include "serve/service.hpp"
#include "simt/playout_kernel.hpp"
#include "simt/vgpu.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace gpu_mcts;
using G = reversi::ReversiGame;
using perfbench::Position;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload definitions

/// Setup repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct SearchWorkload {
  const char* name;
  const char* spec;
  /// Virtual seconds per choose_move.
  double budget_seconds;
  /// Ops per pass: the first this many positions of the seed's suite. At
  /// least 200, so latency_virtual_ms_p95 has ten samples beyond it.
  int suite_size;
  /// Bit-deterministic results (digest checked across passes and tracing).
  bool deterministic;
};

constexpr std::array<SearchWorkload, 3> kSearchWorkloads{{
    {"block-flagship", "block:112x128", 0.010, 200, true},
    {"hybrid-narrow", "hybrid:448x32+pipeline", 0.010, 200, true},
    // shared-cpu's op wall time is heavy-tailed across positions (endgame
    // playouts are short, so the tree ops contend), so its p90 needs many
    // distinct positions: short ops over a longer suite.
    {"shared-cpu", "shared:4", 0.025, 1680, false},
}};

struct ServeWorkload {
  static constexpr const char* kName = "serve-poisson";
  static constexpr int kSessions = 32;
  static constexpr int kTicketsPerSession = 32;
  /// Distinct schedules per untraced run (8192 tickets): the p95 latency of
  /// an open loop this loaded needs that many to be steady across seeds.
  static constexpr int kSchedules = 8;
  static constexpr int kSessionBlocks = 14;
  static constexpr int kThreadsPerBlock = 32;
  static constexpr int kGridBlocks = 112;
  static constexpr int kTranspositionMb = 64;
  static constexpr int kMaxOpeningPlies = 20;
  static constexpr double kTicketBudgetSeconds = 0.005;
  /// Virtual span of each schedule's arrivals; sets the offered load. 1.38 s
  /// keeps serve.device_busy_share (busy time x grid occupancy) near 0.70
  /// with no growing backlog; the p95 latency grows steeply, and varies
  /// more between seeds, above that.
  static constexpr double kArrivalSpanSeconds = 1.38;
};

// ---------------------------------------------------------------------------
// Metrics report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A metric the workload does not exercise: printed as n/a, reported as 0.
  void na(const std::string& name, const std::string& unit) {
    metrics_.push_back({name, 0.0, unit});
    na_.push_back(name);
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  void print(const char* heading) const {
    std::printf("%s\n", heading);
    for (const Metric& m : metrics_) {
      if (std::find(na_.begin(), na_.end(), m.name) != na_.end()) {
        std::printf("  %-38s %16s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
      } else {
        std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> na_;
};

/// Metrics of the JSON result line; must match BENCHMARK.json.
const std::vector<std::string> kEndToEndJson = {
    "wall_sims_per_s",       "op_wall_ms_p50",         "op_wall_ms_p90",
    "virtual_sims_per_s",    "latency_virtual_ms_p50", "latency_virtual_ms_p95",
    "setup_s",               "peak_rss_mb"};
const std::vector<std::string> kPerLayerJson = {
    "reversi.batch_step_ns",      "reversi.scalar_step_ns",
    "simt.launch_wall_share",     "simt.warp_batched_share",
    "simt.divergence_waste",      "simt.kernel_only_sims_per_s",
    "simt.kernel_callback_share", "driver.rounds",
    "driver.cpu_overlap_iterations", "driver.host_wall_share",
    "mcts.tree_nodes_per_op",     "mcts.tt_hit_rate",
    "mcts.tt_dropped",            "parallel.shared_speedup_vs_1",
    "serve.grid_occupancy",       "serve.host_wall_share",
    "engine.construct_ms",        "obs.trace_overhead"};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Report& report, const std::vector<std::string>& names) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = report.find(name);
    if (m == nullptr) throw std::logic_error("metric not computed: " + name);
    if (!std::isfinite(m->value)) {
      throw std::logic_error("metric is not a finite number: " + name);
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m->value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so under a larger parent it would report the
/// parent's peak.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  if (kb <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb / 1024.0;
}

// ---------------------------------------------------------------------------
// Correctness

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void fail(const std::string& what) {
    ++failed;
    if (messages.size() < 10) messages.push_back(what);
  }
  /// One search result: legal move, consistent simulation split, and the
  /// virtual budget (not a wall deadline or saturation) ended the search.
  void check_op(const Position& pos, reversi::Move move,
                const mcts::SearchStats& stats, const std::string& where) {
    ++attempted;
    std::array<reversi::Move, 64> legal{};
    const int n = reversi::legal_moves(pos, legal);
    const bool is_legal =
        std::find(legal.begin(), legal.begin() + n, move) != legal.begin() + n;
    if (!is_legal) fail(where + ": illegal move");
    if (stats.cpu_iterations + stats.gpu_simulations != stats.simulations) {
      fail(where + ": cpu_iterations + gpu_simulations != simulations");
    }
    if (stats.stop_reason != mcts::StopReason::kBudget) {
      fail(where + ": stop_reason is not kBudget");
    }
    if (stats.simulations == 0) fail(where + ": no simulations");
  }
};

// ---------------------------------------------------------------------------
// Layer probes (traced run only, never inside a timed end-to-end phase)

/// ns per legal_moves_mask_batch + flips_for_moves_batch pair over one
/// batch of G::Batched::kWidth lanes (the width the playout kernel calls
/// them with), lanes loaded from the workload's positions.
double probe_batch_step_ns(const std::vector<Position>& positions) {
  constexpr int kWidth = G::Batched::kWidth;
  const std::size_t batches = (positions.size() + kWidth - 1) / kWidth;
  std::vector<reversi::Bitboard> own(batches * kWidth), opp(batches * kWidth);
  for (std::size_t i = 0; i < own.size(); ++i) {
    const Position& p = positions[i % positions.size()];
    own[i] = p.own();
    opp[i] = p.opp();
  }
  std::array<reversi::Bitboard, kWidth> moves{}, placed{}, flips{};
  reversi::Bitboard sink = 0;
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    constexpr int kSweeps = 2000;
    const auto t0 = Clock::now();
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t b = 0; b < batches; ++b) {
        const reversi::Bitboard* o = own.data() + b * kWidth;
        const reversi::Bitboard* x = opp.data() + b * kWidth;
        reversi::legal_moves_mask_batch(o, x, moves.data(), kWidth);
        for (int i = 0; i < kWidth; ++i) {
          placed[i] = moves[i] & (~moves[i] + 1);
        }
        reversi::flips_for_moves_batch(o, x, placed.data(), flips.data(),
                                       kWidth);
        sink ^= flips[static_cast<std::size_t>(sweep) % kWidth];
      }
    }
    samples.push_back(seconds_since(t0) * 1e9 /
                      (kSweeps * static_cast<double>(batches)));
  }
  if (sink == 0x1234567ULL) std::printf("# sink\n");
  return perfbench::median(samples);
}

/// ns per scalar ply (ReversiGame::legal_moves + apply) of random playouts
/// from the workload's positions.
double probe_scalar_step_ns(const std::vector<Position>& positions,
                            std::uint64_t seed) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    util::SplitMix64 rng(util::derive_seed(seed, 0x5ca1a7ULL + rep));
    std::uint64_t plies = 0;
    std::array<reversi::Move, G::kMaxMoves> moves{};
    const auto t0 = Clock::now();
    for (int sweep = 0; sweep < 20; ++sweep) {
      for (const Position& start : positions) {
        Position p = start;
        for (;;) {
          const int n = G::legal_moves(p, moves);
          if (n == 0) break;
          p = G::apply(p, moves[rng() % static_cast<std::uint64_t>(n)]);
          ++plies;
        }
      }
    }
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(plies));
  }
  return perfbench::median(samples);
}

/// Forwards the warp-batched playout kernel and accumulates the wall time
/// spent inside its make_warp .. final warp_step and warp_finish callbacks;
/// the rest of a launch is the executor, trace derivation and timing model.
template <typename Inner>
class TimedWarpKernel {
 public:
  using LaneState = typename Inner::LaneState;
  struct WarpState {
    typename Inner::WarpState inner;
    std::int64_t begin_ns;
  };
  static constexpr int kWarpWidth = Inner::kWarpWidth;

  TimedWarpKernel(Inner& inner, std::atomic<std::int64_t>& callback_ns)
      : inner_(inner), callback_ns_(callback_ns) {}

  [[nodiscard]] LaneState make_lane(const simt::LaneId& id) const {
    return inner_.make_lane(id);
  }
  [[nodiscard]] bool lane_step(LaneState& lane) const {
    return inner_.lane_step(lane);
  }
  void lane_finish(const LaneState& lane, const simt::LaneId& id) {
    inner_.lane_finish(lane, id);
  }
  [[nodiscard]] WarpState make_warp(const simt::WarpSpan& span) const {
    const std::int64_t t0 = now_ns();
    return WarpState{inner_.make_warp(span), t0};
  }
  /// The retiring call (mask 0) closes the warp's timed interval.
  [[nodiscard]] std::uint32_t warp_step(WarpState& w) const {
    const std::uint32_t mask = inner_.warp_step(w.inner);
    if (mask == 0) {
      callback_ns_.fetch_add(now_ns() - w.begin_ns, std::memory_order_relaxed);
    }
    return mask;
  }
  void warp_finish(const WarpState& w, const simt::WarpSpan& span) {
    const std::int64_t t0 = now_ns();
    inner_.warp_finish(w.inner, span);
    callback_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  }
  [[nodiscard]] LaneState lane_state_of(const WarpState& w, int lane) const {
    return inner_.lane_state_of(w.inner, lane);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  Inner& inner_;
  std::atomic<std::int64_t>& callback_ns_;
};

/// Kernel roots like those of a shallow block-parallel round: block b plays
/// out from the position after the b-th legal move (cycling), one ply below
/// the searched position as the trees' first leaves are.
std::vector<Position> leaf_roots(const Position& position, int blocks) {
  std::array<reversi::Move, G::kMaxMoves> moves{};
  const int n = G::legal_moves(position, moves);
  std::vector<Position> roots;
  roots.reserve(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const Position child = G::apply(position, moves[static_cast<std::size_t>(b % n)]);
    roots.push_back(G::is_terminal(child) ? position : child);
  }
  return roots;
}

struct KernelProbe {
  double sims_per_s = 0.0;
  double callback_share = 0.0;
  double warp_batched_share = 0.0;
};

/// Kernel-only ceiling: times VirtualGpu::launch of the program's playout
/// kernel on the workload's grid, replaying the workload's own launches
/// (`launches` holds one root per block for each), so the playout-length mix
/// matches what the end-to-end run simulated. The same launches then run
/// through TimedWarpKernel for the callback share.
KernelProbe probe_kernel(const std::vector<std::vector<Position>>& launches,
                         int threads_per_block, std::uint64_t seed,
                         perfbench::SpanRecorder& spans) {
  using Kernel = simt::PlayoutKernelFor<G>;
  simt::VirtualGpu gpu;
  obs::Tracer tracer;
  gpu.set_tracer(&tracer);
  util::VirtualClock clock(gpu.host().clock_hz);
  KernelProbe out;
  double sims = 0.0;
  double warps = 0.0;
  double plain_us = 0.0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const std::vector<Position>& roots = launches[i];
    const simt::LaunchConfig cfg{.blocks = static_cast<int>(roots.size()),
                                 .threads_per_block = threads_per_block};
    std::vector<simt::BlockResult> results(roots.size());
    Kernel kernel(roots, seed, i, results);
    plain_us += spans.record("simt", "probe_launch", i, [&] {
      (void)gpu.launch(cfg, kernel, clock);
    });
    sims += cfg.total_threads();
    warps += cfg.total_warps(gpu.device());
  }
  const auto& counters = tracer.metrics().counters();
  const auto batched = counters.find("warp_batch");
  out.warp_batched_share =
      batched == counters.end() ? 0.0
                                : static_cast<double>(batched->second.value()) / warps;
  out.sims_per_s = sims / (plain_us * 1e-6);
  if constexpr (simt::WarpKernel<Kernel>) {
    gpu.set_tracer(nullptr);
    std::atomic<std::int64_t> callback_ns{0};
    double wall_us = 0.0;
    for (std::size_t i = 0; i < launches.size(); ++i) {
      const std::vector<Position>& roots = launches[i];
      const simt::LaunchConfig cfg{.blocks = static_cast<int>(roots.size()),
                                   .threads_per_block = threads_per_block};
      std::vector<simt::BlockResult> results(roots.size());
      Kernel inner(roots, seed, i, results);
      TimedWarpKernel<Kernel> kernel(inner, callback_ns);
      wall_us += spans.record("simt", "probe_launch_forwarded", i, [&] {
        (void)gpu.launch(cfg, kernel, clock);
      });
    }
    out.callback_share =
        static_cast<double>(callback_ns.load()) / 1000.0 / wall_us;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Search workloads

struct OpSample {
  double wall_ms = 0.0;
  mcts::SearchStats stats;
  reversi::Move move = 0;
};

struct PassResult {
  std::vector<OpSample> ops;
  /// Digest of each op's result, in op order.
  std::vector<std::uint64_t> op_digests;
  double wall_ms = 0.0;
};

std::uint64_t op_seed(std::uint64_t seed, std::size_t index) {
  return util::derive_seed(seed, 0x0b5eedULL + index);
}

/// Runs ops first .. first+count-1 of the cyclic op sequence (op i searches
/// suite[i % size]). Each op reseeds the searcher from (seed, suite index),
/// so an op's result depends only on its inputs, never on what ran before.
PassResult run_ops(mcts::Searcher<G>& searcher,
                   const std::vector<Position>& suite, std::size_t first,
                   std::size_t count, double budget, std::uint64_t seed,
                   Checks& checks, obs::Tracer* tracer, perfbench::LayerTally* tally,
                   int tpb, perfbench::SpanRecorder* spans) {
  PassResult pass;
  const mcts::SearchBudget b = mcts::SearchBudget::from_seconds(budget);
  if (tracer != nullptr) searcher.set_tracer(tracer);
  for (std::size_t k = first; k < first + count; ++k) {
    const std::size_t i = k % suite.size();
    searcher.reseed(op_seed(seed, i));
    if (tracer != nullptr) tracer->clear();
    OpSample op;
    const auto call = [&] { op.move = searcher.choose_move(suite[i], b); };
    if (spans != nullptr) {
      op.wall_ms = spans->record("engine", "choose_move", k, call) / 1000.0;
    } else {
      const auto t0 = Clock::now();
      call();
      op.wall_ms = seconds_since(t0) * 1000.0;
    }
    op.stats = searcher.last_stats();
    if (tracer != nullptr && tally != nullptr) tally->absorb(*tracer, tpb);
    checks.check_op(suite[i], op.move, op.stats, "op " + std::to_string(k));
    perfbench::Digest digest;
    digest.add_op(op.move, op.stats.simulations, op.stats.tree_nodes,
                  op.stats.virtual_seconds);
    pass.op_digests.push_back(digest.value());
    pass.wall_ms += op.wall_ms;
    pass.ops.push_back(op);
  }
  if (tracer != nullptr) searcher.set_tracer(nullptr);
  return pass;
}

struct Setup {
  std::unique_ptr<mcts::Searcher<G>> searcher;
  double setup_s = 0.0;
  double construct_ms = 0.0;
};

/// Warm-up ops per set-up: the first positions of the suite, untimed.
constexpr int kWarmUpOps = 3;

/// Construction plus kWarmUpOps warm-up choose_moves, repeated; the medians
/// are setup_s and engine.construct_ms.
Setup set_up_searcher(const SearchWorkload& w, const std::vector<Position>& suite,
                      std::uint64_t seed, perfbench::SpanRecorder& spans) {
  Setup out;
  std::vector<double> setup, construct;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    construct.push_back(spans.record("engine", "make_searcher", rep, [&] {
                          out.searcher = engine::make_searcher<G>(
                              engine::SchemeSpec::parse(w.spec).with_seed(seed));
                        }) /
                        1000.0);
    for (int i = 0; i < kWarmUpOps; ++i) {
      out.searcher->reseed(util::derive_seed(seed, 0x3a3aULL + i));
      (void)out.searcher->choose_move(
          suite[static_cast<std::size_t>(i)],
          mcts::SearchBudget::from_seconds(w.budget_seconds));
    }
    setup.push_back(seconds_since(t0));
  }
  out.setup_s = perfbench::median(setup);
  out.construct_ms = perfbench::median(construct);
  return out;
}

/// wall_sims_per_s over every op of the run (`ops` in run order, op k
/// searching suite position k % pass size). The op wall percentiles take
/// each position's fastest run, so a burst of load from outside the process
/// during one pass does not land in the tail; every position runs at least
/// twice in a run. Virtual metrics come from the first pass (each op's
/// virtual result repeats exactly on later passes).
void add_op_end_to_end(Report& r, const std::vector<OpSample>& ops,
                       double wall_ms_total, const std::vector<OpSample>& pass) {
  std::vector<double> wall(pass.size(), std::numeric_limits<double>::infinity());
  std::vector<double> virt;
  double sims = 0.0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    double& fastest = wall[k % pass.size()];
    fastest = std::min(fastest, ops[k].wall_ms);
    sims += static_cast<double>(ops[k].stats.simulations);
  }
  double pass_sims = 0.0;
  double virtual_s = 0.0;
  for (const OpSample& op : pass) {
    virt.push_back(op.stats.virtual_seconds * 1000.0);
    pass_sims += static_cast<double>(op.stats.simulations);
    virtual_s += op.stats.virtual_seconds;
  }
  r.add("wall_sims_per_s", sims / (wall_ms_total / 1000.0), "1/s");
  r.add("op_wall_ms_p50", perfbench::percentile(wall, 0.5), "ms");
  r.add("op_wall_ms_p90", perfbench::percentile(wall, 0.9), "ms");
  r.add("virtual_sims_per_s", pass_sims / virtual_s, "1/s");
  r.add("latency_virtual_ms_p50", perfbench::percentile(virt, 0.5), "ms");
  r.add("latency_virtual_ms_p95", perfbench::percentile(virt, 0.95), "ms");
}

struct Outcome {
  Report report;
  Checks checks;
  std::vector<std::string> json_names;
};

Outcome run_search(const SearchWorkload& w, std::uint64_t seed, double seconds,
                   bool trace, perfbench::SpanRecorder& spans) {
  Outcome out;
  const std::vector<Position> suite =
      perfbench::make_position_suite(seed, w.suite_size);
  Setup setup = set_up_searcher(w, suite, seed, spans);
  mcts::Searcher<G>& searcher = *setup.searcher;
  const engine::SchemeSpec spec = engine::SchemeSpec::parse(w.spec);
  const bool gpu = spec.scheme != "shared-tree";

  std::vector<OpSample> untraced_ops;
  double untraced_wall_ms = 0.0;
  std::vector<OpSample> traced_ops;
  double traced_wall_ms = 0.0;
  std::vector<OpSample> first_pass;
  std::vector<std::uint64_t> expected;  // per-op digests of the first pass
  perfbench::LayerTally tally;
  obs::Tracer tracer;
  tracer.set_max_events_per_track(std::size_t{1} << 22);
  const std::size_t n = suite.size();
  const int tpb = spec.threads_per_block;
  const auto absorb = [&](const PassResult& pass, std::size_t first, bool traced) {
    auto& ops = traced ? traced_ops : untraced_ops;
    ops.insert(ops.end(), pass.ops.begin(), pass.ops.end());
    (traced ? traced_wall_ms : untraced_wall_ms) += pass.wall_ms;
    if (expected.empty()) {
      expected = pass.op_digests;
      first_pass = pass.ops;
      return;
    }
    for (std::size_t k = 0; k < pass.op_digests.size() && w.deterministic; ++k) {
      if (pass.op_digests[k] != expected[(first + k) % n]) {
        out.checks.fail("op " + std::to_string(first + k) +
                        ": result differs from its first run" +
                        (traced ? " (traced vs untraced)" : ""));
      }
    }
  };
  const auto start = Clock::now();
  std::size_t ops_run = 0;
  if (!trace) {
    // One full pass, then further ops round the suite until time is up and
    // every position has run twice.
    absorb(run_ops(searcher, suite, 0, n, w.budget_seconds, seed, out.checks,
                   nullptr, nullptr, tpb, nullptr),
           0, false);
    for (ops_run = n; ops_run < 2 * n || seconds_since(start) < seconds;
         ++ops_run) {
      absorb(run_ops(searcher, suite, ops_run, 1, w.budget_seconds, seed,
                     out.checks, nullptr, nullptr, tpb, nullptr),
             ops_run, false);
    }
  } else {
    // Whole passes, alternating untraced and traced, at least one of each.
    for (int p = 0; p < 2 || seconds_since(start) < seconds; ++p) {
      const bool traced = p % 2 == 1;
      absorb(run_ops(searcher, suite, 0, n, w.budget_seconds, seed, out.checks,
                     traced ? &tracer : nullptr, traced ? &tally : nullptr, tpb,
                     traced ? &spans : nullptr),
             0, traced);
      ops_run += n;
    }
    if (tracer.dropped() > 0) out.checks.fail("tracer dropped events");
  }
  perfbench::Digest run_digest;
  for (const std::uint64_t d : expected) run_digest.add(d);
  std::printf("# ops: %zu over a suite of %zu, digest: %016llx\n", ops_run, n,
              static_cast<unsigned long long>(run_digest.value()));

  Report& r = out.report;
  if (!trace) {
    add_op_end_to_end(r, untraced_ops, untraced_wall_ms, first_pass);
    r.add("setup_s", setup.setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("failed_share",
          static_cast<double>(out.checks.failed) /
              static_cast<double>(std::max<std::uint64_t>(1, out.checks.attempted)),
          "share");
    out.json_names = kEndToEndJson;
    return out;
  }

  // ---- per-layer (traced run) ----
  r.add("reversi.batch_step_ns", probe_batch_step_ns(suite), "ns");
  r.add("reversi.scalar_step_ns", probe_scalar_step_ns(suite, seed), "ns");
  if (tally.plies_count > 0) {
    r.add("reversi.playout_plies_mean",
          tally.plies_sum / static_cast<double>(tally.plies_count), "plies");
  } else {
    r.na("reversi.playout_plies_mean", "plies");
  }
  const double launch_share =
      tally.launch_wall_us_sum / 1000.0 / traced_wall_ms;
  double divergence_weighted = 0.0;
  double sims = 0.0;
  double nodes = 0.0;
  double depth = 0.0;
  for (const OpSample& op : traced_ops) {
    divergence_weighted += op.stats.divergence_waste *
                           static_cast<double>(op.stats.gpu_simulations);
    sims += static_cast<double>(op.stats.gpu_simulations);
    nodes += static_cast<double>(op.stats.tree_nodes);
    depth += op.stats.max_depth;
  }
  const double n_ops = static_cast<double>(traced_ops.size());
  if (gpu) {
    r.add("simt.launches", tally.per_op(static_cast<double>(tally.launches)),
          "1/op");
    r.add("simt.launch_wall_us_mean",
          tally.launch_wall_us_sum /
              static_cast<double>(std::max<std::uint64_t>(1, tally.launch_wall_count)),
          "us");
    r.add("simt.launch_wall_us_max", tally.launch_wall_us_max, "us");
    r.add("simt.launch_wall_share", launch_share, "share");
    r.add("simt.warp_batched_share",
          tally.warps > 0 ? static_cast<double>(tally.warp_batch) /
                                static_cast<double>(tally.warps)
                          : 0.0,
          "share");
    r.add("simt.divergence_waste", sims > 0 ? divergence_weighted / sims : 0.0,
          "share");
    r.add("simt.device_busy_virtual_ms", tally.per_op(tally.device_busy_ms),
          "ms/op");
    // Every 5th op of the first pass, as many launches as it had GPU rounds
    // (5 is prime to the 56 prefix strata, so the subset keeps the suite's
    // opening-to-endgame mix).
    std::vector<std::vector<Position>> launches;
    for (std::size_t i = 0; i < first_pass.size(); i += 5) {
      for (std::uint64_t k = 0; k < first_pass[i].stats.gpu_rounds; ++k) {
        launches.push_back(leaf_roots(suite[i], spec.blocks));
      }
    }
    const KernelProbe kp =
        probe_kernel(launches, spec.threads_per_block, seed, spans);
    r.add("simt.kernel_only_sims_per_s", kp.sims_per_s, "1/s");
    r.add("simt.kernel_callback_share", kp.callback_share, "share");
    r.add("driver.rounds", tally.per_op(static_cast<double>(tally.kernel_rounds)),
          "1/op");
    r.add("driver.cpu_overlap_iterations", tally.per_op(tally.overlap_iterations),
          "1/op");
    for (const char* phase :
         {"selection", "upload", "download", "backprop", "cpu_overlap"}) {
      r.add(std::string("driver.") + phase + "_virtual_ms",
            tally.per_op(tally.host_span_ms[phase]), "ms/op");
    }
    if (spec.pipeline) {
      // Stream launches overlap each other and the host, so 1 - share is
      // not the host's part of the op.
      r.na("driver.host_wall_share", "share");
    } else {
      r.add("driver.host_wall_share", 1.0 - launch_share, "share");
    }
  } else {
    for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
             {"simt.launches", "1/op"}, {"simt.launch_wall_us_mean", "us"},
             {"simt.launch_wall_us_max", "us"}, {"simt.launch_wall_share", "share"},
             {"simt.warp_batched_share", "share"}, {"simt.divergence_waste", "share"},
             {"simt.device_busy_virtual_ms", "ms/op"},
             {"simt.kernel_only_sims_per_s", "1/s"},
             {"simt.kernel_callback_share", "share"}, {"driver.rounds", "1/op"},
             {"driver.cpu_overlap_iterations", "1/op"},
             {"driver.selection_virtual_ms", "ms/op"},
             {"driver.upload_virtual_ms", "ms/op"},
             {"driver.download_virtual_ms", "ms/op"},
             {"driver.backprop_virtual_ms", "ms/op"},
             {"driver.cpu_overlap_virtual_ms", "ms/op"},
             {"driver.host_wall_share", "share"}}) {
      r.na(name, unit);
    }
  }
  r.add("mcts.tree_nodes_per_op", nodes / n_ops, "nodes");
  r.add("mcts.max_depth_mean", depth / n_ops, "plies");
  r.na("mcts.tt_probes", "count");
  r.na("mcts.tt_hit_rate", "share");
  r.na("mcts.tt_stores", "count");
  r.na("mcts.tt_dropped", "count");
  if (!gpu) {
    // shared:4 against shared:1 on a suite subset, same budget.
    const std::vector<Position> subset(suite.begin(), suite.begin() + 24);
    double rate[2] = {0.0, 0.0};
    const char* specs[2] = {"shared:1", "shared:4"};
    for (int k = 0; k < 2; ++k) {
      auto s = engine::make_searcher<G>(
          engine::SchemeSpec::parse(specs[k]).with_seed(seed));
      Checks probe_checks;
      const PassResult p = run_ops(*s, subset, 0, subset.size(),
                                   w.budget_seconds, seed, probe_checks,
                                   nullptr, nullptr, 0, &spans);
      double sims_k = 0.0;
      for (const OpSample& op : p.ops) {
        sims_k += static_cast<double>(op.stats.simulations);
      }
      rate[k] = sims_k / (p.wall_ms / 1000.0);
      if (probe_checks.failed > 0) out.checks.fail("shared scaling probe");
    }
    r.add("parallel.shared_speedup_vs_1", rate[1] / rate[0], "x");
  } else {
    r.na("parallel.shared_speedup_vs_1", "x");
  }
  for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
           {"serve.tickets_completed", "count"}, {"serve.admission_rejects", "count"},
           {"serve.queue_wait_virtual_ms_p50", "ms"},
           {"serve.queue_wait_virtual_ms_p95", "ms"},
           {"serve.combined_launches", "count"}, {"serve.grid_occupancy", "share"},
           {"serve.busy_share", "share"}, {"serve.device_busy_share", "share"},
           {"serve.backlog_growth_ms", "ms"}, {"serve.host_wall_share", "share"}}) {
    r.na(name, unit);
  }
  r.add("engine.construct_ms", setup.construct_ms, "ms");
  r.add("obs.trace_overhead",
        (traced_wall_ms / static_cast<double>(traced_ops.size())) /
                (untraced_wall_ms / static_cast<double>(untraced_ops.size())) -
            1.0,
        "share");
  out.json_names = kPerLayerJson;
  return out;
}

// ---------------------------------------------------------------------------
// serve-poisson

struct ServeInputs {
  std::vector<std::vector<Position>> lines;
  std::vector<perfbench::Arrival> arrivals;
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  using W = ServeWorkload;
  ServeInputs in;
  for (int s = 0; s < W::kSessions; ++s) {
    in.lines.push_back(perfbench::make_session_line(
        util::derive_seed(seed, 0x5e55ULL + static_cast<std::uint64_t>(s)),
        W::kMaxOpeningPlies, W::kTicketsPerSession));
  }
  in.arrivals = perfbench::make_arrivals(util::derive_seed(seed, 0xa771ULL),
                                         W::kSessions, W::kTicketsPerSession,
                                         W::kArrivalSpanSeconds);
  return in;
}

struct TicketOutcome {
  serve::MoveResult<G> result;
  Position position;
};

struct Replay {
  std::vector<TicketOutcome> tickets;  // ticket-id order
  std::vector<double> wait_wall_ms;    // one per wait() that drove rounds
  double drive_wall_ms = 0.0;
  double setup_s = 0.0;
  double construct_ms = 0.0;
  double makespan_s = 0.0;
  std::uint64_t admission_rejects = 0;
  mcts::TranspositionTable::Stats tt;
  std::uint64_t digest = 0;
};

/// One replay of the whole schedule on a fresh service (a fresh table and
/// fresh session move counters keep every replay identical). Tickets are
/// driven by wait() on the oldest unfinished ticket; each such wait is one
/// op of op_wall_ms.
Replay replay_schedule(const ServeInputs& in, std::uint64_t seed,
                       obs::Tracer* tracer, Checks& checks,
                       perfbench::SpanRecorder& spans, std::uint64_t replay_id) {
  using W = ServeWorkload;
  Replay out;
  const auto setup_start = Clock::now();
  std::unique_ptr<serve::SearchService<G>> service;
  std::vector<serve::SessionId> sessions;
  out.construct_ms =
      spans.record("serve", "construct", replay_id, [&] {
        serve::ServiceOptions options;
        options.grid = {.blocks = W::kGridBlocks,
                        .threads_per_block = W::kThreadsPerBlock};
        options.max_sessions = W::kSessions;
        options.max_queued_per_session = W::kTicketsPerSession;
        options.transposition_mb = W::kTranspositionMb;
        service = std::make_unique<serve::SearchService<G>>(options);
        const engine::SchemeSpec spec = engine::SchemeSpec::parse(
            "block:" + std::to_string(W::kSessionBlocks) + "x" +
            std::to_string(W::kThreadsPerBlock));
        for (int s = 0; s < W::kSessions; ++s) {
          sessions.push_back(service->open_session(
              spec, util::derive_seed(seed, 0x5e5510ULL + s), tracer));
        }
      }) /
      1000.0;
  out.setup_s = seconds_since(setup_start);

  const mcts::SearchBudget budget =
      mcts::SearchBudget::from_seconds(W::kTicketBudgetSeconds);
  std::vector<int> next_in_line(W::kSessions, 0);
  std::vector<serve::TicketId> ids;
  std::vector<Position> positions;
  const auto drive_start = Clock::now();
  for (const perfbench::Arrival& a : in.arrivals) {
    const int s = a.session;
    const Position& pos =
        in.lines[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(next_in_line[static_cast<std::size_t>(s)]++)];
    try {
      serve::SubmitOptions when;
      when.arrival_virtual_seconds = a.virtual_seconds;
      ids.push_back(service->submit(sessions[static_cast<std::size_t>(s)], pos,
                                    budget, when));
      positions.push_back(pos);
    } catch (const serve::AdmissionError&) {
      ++out.admission_rejects;
    }
  }
  for (const serve::TicketId id : ids) {
    if (service->poll(id).has_value()) continue;
    const double ms = spans.record("serve", "wait", replay_id, [&] {
                        (void)service->wait(id);
                      }) /
                      1000.0;
    out.wait_wall_ms.push_back(ms);
  }
  out.drive_wall_ms = seconds_since(drive_start) * 1000.0;
  out.makespan_s = service->virtual_now_seconds();

  perfbench::Digest digest;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto result = service->poll(ids[i]);
    if (!result.has_value()) {
      checks.fail("ticket did not complete");
      continue;
    }
    checks.check_op(positions[i], result->move, result->stats,
                    "ticket " + std::to_string(i));
    digest.add_op(result->move, result->stats.simulations,
                  result->stats.tree_nodes, result->stats.virtual_seconds);
    out.tickets.push_back({*result, positions[i]});
  }
  checks.attempted += out.admission_rejects;
  checks.failed += out.admission_rejects;
  out.digest = digest.value();
  out.tt = service->transposition()->stats();
  for (const serve::SessionId sid : sessions) service->close_session(sid);
  return out;
}

Outcome run_serve(std::uint64_t seed, double seconds, bool trace,
                  perfbench::SpanRecorder& spans) {
  using W = ServeWorkload;
  Outcome out;
  std::vector<ServeInputs> schedules;
  for (int k = 0; k < W::kSchedules; ++k) {
    schedules.push_back(
        make_serve_inputs(util::derive_seed(seed, 0x5c4ed0ULL + k)));
  }
  std::vector<Replay> untraced, traced;
  std::vector<std::uint64_t> digests(schedules.size(), 0);
  perfbench::LayerTally tally;
  obs::Tracer tracer;
  tracer.set_max_events_per_track(std::size_t{1} << 22);
  const auto start = Clock::now();
  std::size_t index = 0;
  // Untraced: every schedule once, then repeats until time is up. Traced:
  // schedule 0 alternately untraced and traced, at least once each.
  const std::size_t min_replays = trace ? 2 : schedules.size();
  for (; index < min_replays || seconds_since(start) < seconds; ++index) {
    const bool traced_replay = trace && index % 2 == 1;
    const std::size_t k = trace ? 0 : index % schedules.size();
    if (traced_replay) tracer.clear();
    Replay r = replay_schedule(schedules[k], seed,
                               traced_replay ? &tracer : nullptr, out.checks,
                               spans, index);
    if (digests[k] == 0) {
      digests[k] = r.digest;
    } else if (r.digest != digests[k]) {
      out.checks.fail("schedule " + std::to_string(k) +
                      ": result digest differs from its first replay" +
                      (traced_replay ? " (traced vs untraced)" : ""));
    }
    if (traced_replay) {
      tally.absorb(tracer, W::kThreadsPerBlock);
      if (tracer.dropped() > 0) out.checks.fail("tracer dropped events");
      traced.push_back(std::move(r));
    } else {
      untraced.push_back(std::move(r));
    }
  }
  perfbench::Digest run_digest;
  for (const std::uint64_t d : digests) run_digest.add(d);
  std::printf("# replays: %zu of %zu schedules x %d tickets, digest: %016llx\n",
              index, trace ? std::size_t{1} : schedules.size(),
              W::kSessions * W::kTicketsPerSession,
              static_cast<unsigned long long>(run_digest.value()));

  // Ticket-level figures come from the first replay of each distinct
  // schedule: deterministic, and independent of how many repeats fit.
  const std::size_t distinct = trace ? 1 : schedules.size();
  const Replay& first = untraced.front();
  double sims = 0.0;
  double makespan_s = 0.0;
  std::vector<double> latency_ms, queue_ms;
  std::vector<std::pair<double, double>> in_system;
  std::vector<std::uint64_t> gpu_rounds;
  double nodes = 0.0;
  double depth = 0.0;
  double divergence_weighted = 0.0;
  double gpu_sims = 0.0;
  std::size_t ticket_count = 0;
  for (std::size_t k = 0; k < distinct; ++k) {
    makespan_s += untraced[k].makespan_s;
    for (const TicketOutcome& t : untraced[k].tickets) {
      const mcts::SearchStats& st = t.result.stats;
      sims += static_cast<double>(st.simulations);
      gpu_sims += static_cast<double>(st.gpu_simulations);
      latency_ms.push_back(t.result.latency_virtual_seconds() * 1000.0);
      queue_ms.push_back(perfbench::queue_wait_seconds(
                             t.result.latency_virtual_seconds(),
                             st.virtual_seconds) *
                         1000.0);
      in_system.emplace_back(t.result.arrival_virtual_seconds,
                             t.result.completion_virtual_seconds);
      gpu_rounds.push_back(st.gpu_rounds);
      nodes += static_cast<double>(st.tree_nodes);
      depth += st.max_depth;
      divergence_weighted +=
          st.divergence_waste * static_cast<double>(st.gpu_simulations);
      ++ticket_count;
    }
  }
  const double tickets = static_cast<double>(ticket_count);
  Report& r = out.report;

  if (!trace) {
    std::vector<double> waits, setups;
    double drive_ms = 0.0;
    double all_sims = 0.0;
    for (const Replay& rep : untraced) {
      waits.insert(waits.end(), rep.wait_wall_ms.begin(), rep.wait_wall_ms.end());
      setups.push_back(rep.setup_s);
      drive_ms += rep.drive_wall_ms;
      for (const TicketOutcome& t : rep.tickets) {
        all_sims += static_cast<double>(t.result.stats.simulations);
      }
    }
    r.add("wall_sims_per_s", all_sims / (drive_ms / 1000.0), "1/s");
    r.add("op_wall_ms_p50", perfbench::percentile(waits, 0.5), "ms");
    r.add("op_wall_ms_p90", perfbench::percentile(waits, 0.9), "ms");
    r.add("virtual_sims_per_s", sims / makespan_s, "1/s");
    r.add("latency_virtual_ms_p50", perfbench::percentile(latency_ms, 0.5), "ms");
    r.add("latency_virtual_ms_p95", perfbench::percentile(latency_ms, 0.95),
          "ms");
    r.add("setup_s", perfbench::median(setups), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("failed_share",
          static_cast<double>(out.checks.failed) /
              static_cast<double>(std::max<std::uint64_t>(1, out.checks.attempted)),
          "share");
    out.json_names = kEndToEndJson;
    return out;
  }

  // ---- per-layer (traced run) ----
  std::vector<Position> positions;
  for (const auto& line : schedules.front().lines) {
    positions.insert(positions.end(), line.begin(), line.end());
  }
  r.add("reversi.batch_step_ns", probe_batch_step_ns(positions), "ns");
  r.add("reversi.scalar_step_ns", probe_scalar_step_ns(positions, seed), "ns");
  r.add("reversi.playout_plies_mean",
        tally.plies_count > 0
            ? tally.plies_sum / static_cast<double>(tally.plies_count)
            : 0.0,
        "plies");
  // Probe launches: every 2nd ticket's GPU rounds as 14-block segments,
  // packed 8 to a full 112-block grid.
  std::vector<std::vector<Position>> launches;
  std::size_t segments = 0;
  for (std::size_t i = 0; i < first.tickets.size(); i += 2) {
    for (std::uint64_t k = 0; k < first.tickets[i].result.stats.gpu_rounds; ++k) {
      if (segments++ % (W::kGridBlocks / W::kSessionBlocks) == 0) {
        launches.emplace_back();
      }
      const std::vector<Position> roots =
          leaf_roots(first.tickets[i].position, W::kSessionBlocks);
      launches.back().insert(launches.back().end(), roots.begin(), roots.end());
    }
  }
  const KernelProbe kp =
      probe_kernel(launches, W::kThreadsPerBlock, seed, spans);
  const double combined =
      static_cast<double>(tally.combined_launches) / static_cast<double>(traced.size());
  const double occupancy = perfbench::grid_occupancy(
      gpu_rounds, W::kSessionBlocks, tally.combined_launches / traced.size(),
      W::kGridBlocks);
  std::vector<double> construct;
  double untraced_drive_ms = 0.0;
  for (const Replay& rep : untraced) {
    construct.push_back(rep.construct_ms);
    untraced_drive_ms += rep.drive_wall_ms;
  }
  untraced_drive_ms /= static_cast<double>(untraced.size());
  double traced_drive_ms = 0.0;
  for (const Replay& rep : traced) traced_drive_ms += rep.drive_wall_ms;
  traced_drive_ms /= static_cast<double>(traced.size());
  // The service's own device takes no tracer, so a replay's launch wall is
  // estimated as its GPU simulations at the probe's kernel-only rate.
  const double est_launch_ms = gpu_sims / kp.sims_per_s * 1000.0;
  r.add("simt.launches", combined / tickets, "1/op");
  r.add("simt.launch_wall_us_mean", est_launch_ms * 1000.0 / combined, "us");
  r.na("simt.launch_wall_us_max", "us");
  r.add("simt.launch_wall_share", est_launch_ms / untraced_drive_ms, "share");
  r.add("simt.warp_batched_share", kp.warp_batched_share, "share");
  r.add("simt.divergence_waste", divergence_weighted / sims, "share");
  r.add("simt.device_busy_virtual_ms", tally.per_op(tally.device_busy_ms) / tickets,
        "ms/op");
  r.add("simt.kernel_only_sims_per_s", kp.sims_per_s, "1/s");
  r.add("simt.kernel_callback_share", kp.callback_share, "share");
  r.add("driver.rounds",
        static_cast<double>(tally.kernel_rounds) /
            static_cast<double>(traced.size()) / tickets,
        "1/op");
  r.add("driver.cpu_overlap_iterations", 0.0, "1/op");
  for (const char* phase :
       {"selection", "upload", "download", "backprop", "cpu_overlap"}) {
    r.add(std::string("driver.") + phase + "_virtual_ms",
          tally.per_op(tally.host_span_ms[phase]) / tickets, "ms/op");
  }
  r.na("driver.host_wall_share", "share");
  r.add("mcts.tree_nodes_per_op", nodes / tickets, "nodes");
  r.add("mcts.max_depth_mean", depth / tickets, "plies");
  r.add("mcts.tt_probes", static_cast<double>(first.tt.probes), "count");
  r.add("mcts.tt_hit_rate", first.tt.hit_rate(), "share");
  r.add("mcts.tt_stores", static_cast<double>(first.tt.stores), "count");
  r.add("mcts.tt_dropped", static_cast<double>(first.tt.dropped), "count");
  r.na("parallel.shared_speedup_vs_1", "x");
  r.add("serve.tickets_completed", tickets, "count");
  r.add("serve.admission_rejects", static_cast<double>(first.admission_rejects),
        "count");
  r.add("serve.queue_wait_virtual_ms_p50", perfbench::percentile(queue_ms, 0.5),
        "ms");
  r.add("serve.queue_wait_virtual_ms_p95", perfbench::percentile(queue_ms, 0.95),
        "ms");
  r.add("serve.combined_launches", combined, "count");
  r.add("serve.grid_occupancy", occupancy, "share");
  const double busy = perfbench::busy_share(in_system, makespan_s);
  r.add("serve.busy_share", busy, "share");
  r.add("serve.device_busy_share", busy * occupancy, "share");
  // Load guard: a growing backlog shows as later tickets queueing longer.
  const std::size_t quarter = queue_ms.size() / 4;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    early += queue_ms[i];
    late += queue_ms[queue_ms.size() - 1 - i];
  }
  r.add("serve.backlog_growth_ms", (late - early) / static_cast<double>(quarter),
        "ms");
  r.add("serve.host_wall_share", 1.0 - est_launch_ms / untraced_drive_ms,
        "share");
  r.add("engine.construct_ms", perfbench::median(construct), "ms");
  r.add("obs.trace_overhead", traced_drive_ms / untraced_drive_ms - 1.0,
        "share");
  out.json_names = kPerLayerJson;
  return out;
}

// ---------------------------------------------------------------------------
// Host context and arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<block-flagship|hybrid-narrow|shared-cpu|serve-poisson> "
               "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--spans-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--git-sha") a.git_sha = value;
      else if (key == "--spans-out") a.spans_out = value;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  return a;
}

/// Removes every inherited GPU_MCTS_* override so the run measures the
/// program's defaults; returns the names it removed.
std::vector<std::string> clear_program_env() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("GPU_MCTS_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

const char* batch_isa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
}

void print_context(const Args& a, const std::vector<std::string>& cleared) {
  const simt::ExecutionPolicy policy = simt::ExecutionPolicy::from_env();
  std::string cleared_list;
  for (const std::string& n : cleared) {
    cleared_list += (cleared_list.empty() ? "" : ",") + n;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("# git_sha=%s build_type=%s compiler=\"%s\" nproc=%u\n",
              a.git_sha.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency());
  std::printf("# batch_isa=%s warp_backend=%s exec_threads=%d\n", batch_isa(),
              simt::warp_backend_name(policy.warp_backend), policy.threads);
  std::printf("# cleared_env=%s\n",
              cleared_list.empty() ? "(none set)" : cleared_list.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<std::string> cleared = clear_program_env();
  const SearchWorkload* search = nullptr;
  for (const SearchWorkload& w : kSearchWorkloads) {
    if (args.workload == w.name) search = &w;
  }
  if (search == nullptr && args.workload != ServeWorkload::kName) {
    usage("unknown workload " + args.workload);
  }
  print_context(args, cleared);
  try {
    perfbench::SpanRecorder spans;
    Outcome out = search != nullptr
                      ? run_search(*search, args.seed, args.seconds, args.trace,
                                   spans)
                      : run_serve(args.seed, args.seconds, args.trace, spans);
    if (!args.spans_out.empty() && !spans.write_jsonl(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
    out.report.print(args.trace ? "# per-layer metrics" : "# end-to-end metrics");
    for (const std::string& m : out.checks.messages) {
      std::printf("# FAILED: %s\n", m.c_str());
    }
    const bool correct = out.checks.failed == 0;
    print_json(correct, out.checks.attempted, out.checks.failed, out.report,
               out.json_names);
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
