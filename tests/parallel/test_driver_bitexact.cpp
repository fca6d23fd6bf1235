// Driver-level bit-exactness suite (DESIGN.md §11).
//
// Every pre-RoundDriver scheme spec is pinned against golden results
// captured from the seed (pre-refactor) searcher implementations: the chosen
// move, every SearchStats field (doubles bitwise), the fault log, and an
// FNV-1a hash over the complete trace event stream, track names included.
// The RoundDriver reimplementation of the leaf/block/hybrid searchers must
// reproduce all of it bit for bit — at exec thread count 1 and 4, faults on
// or off, hybrid pipelining on or off.
//
// Regenerating goldens (only legitimate when the *seed* behaviour itself is
// deliberately changed): GPU_MCTS_DUMP_GOLDEN=1 ./test_parallel \
//   --gtest_filter='DriverBitExact.DumpGoldens' prints the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "engine/factory.hpp"
#include "engine/spec.hpp"
#include "obs/trace.hpp"
#include "reversi/reversi_game.hpp"

namespace gpu_mcts::parallel {
namespace {

using reversi::ReversiGame;

constexpr double kBudget = 0.05;

// ---- capture + encoding ---------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return hash_u64(h, bits);
}

std::uint64_t hash_str(std::uint64_t h, const char* s) {
  return fnv1a(h, s, std::strlen(s));
}

struct SearchCapture {
  int move = 0;
  mcts::SearchStats stats;
  std::uint64_t trace_hash = 0;
  std::size_t tracks = 0;
};

SearchCapture run_search(const engine::SchemeSpec& spec, int exec_threads) {
  SearchCapture out;
  obs::Tracer tracer;
  auto searcher = engine::make_searcher<ReversiGame>(
      spec.with_exec_threads(exec_threads));
  searcher->set_tracer(&tracer);
  out.move = static_cast<int>(
      searcher->choose_move(ReversiGame::initial_state(), kBudget));
  out.stats = searcher->last_stats();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const obs::TraceEvent& e : tracer.merged()) {
    h = hash_u64(h, static_cast<std::uint64_t>(e.kind));
    h = hash_u64(h, e.track);
    h = hash_u64(h, e.search);
    h = hash_u64(h, e.cycles);
    h = hash_str(h, e.name);
    h = hash_double(h, e.value);
    h = hash_u64(h, e.arg_count);
    for (std::uint8_t k = 0; k < e.arg_count; ++k) {
      h = hash_str(h, e.args[k].name);
      h = hash_double(h, e.args[k].value);
    }
  }
  out.tracks = tracer.track_count();
  for (std::size_t t = 0; t < out.tracks; ++t) {
    h = hash_str(h, tracer.track_name(static_cast<int>(t)).c_str());
  }
  out.trace_hash = h;
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One line that pins everything: move, SearchStats (doubles bitwise),
/// fault/recovery counts, the trace stream hash and the track count.
std::string encode(const SearchCapture& c) {
  std::string s;
  s += "m=" + std::to_string(c.move);
  s += " s=" + std::to_string(c.stats.simulations);
  s += " r=" + std::to_string(c.stats.rounds);
  s += " gr=" + std::to_string(c.stats.gpu_rounds);
  s += " ci=" + std::to_string(c.stats.cpu_iterations);
  s += " gs=" + std::to_string(c.stats.gpu_simulations);
  s += " tn=" + std::to_string(c.stats.tree_nodes);
  s += " md=" + std::to_string(c.stats.max_depth);
  s += " vs=" + hex64(double_bits(c.stats.virtual_seconds));
  s += " dw=" + hex64(double_bits(c.stats.divergence_waste));
  s += " f=" + std::to_string(c.stats.faults.faults()) + "/" +
       std::to_string(c.stats.faults.recoveries());
  s += " th=" + hex64(c.trace_hash);
  s += " tk=" + std::to_string(c.tracks);
  return s;
}

// ---- the pinned scheme specs ----------------------------------------------

engine::SchemeSpec faulted(engine::SchemeSpec spec, double launch_failure,
                           double transfer_failure, std::uint64_t fault_seed) {
  spec.gpu_faults.kernel_launch_failure = launch_failure;
  spec.gpu_faults.transfer_failure = transfer_failure;
  spec.fault_seed = fault_seed;
  return spec;
}

struct GoldenCase {
  const char* label;
  engine::SchemeSpec spec;
  const char* golden;
};

// Goldens captured from the seed (pre-RoundDriver) searchers at exec_threads
// = 1; the seed implementations were exec-thread-invariant, so the same
// goldens pin exec_threads = 4 as well. Aliased leaf slots are covered by
// every leaf case (the leaf kernel folds all lanes into one result slot).
// block_8x32_tt is younger than the seed: it was captured at exec_threads
// = 1 from the executor that committed blocks in canonical order, and pins
// the shared transposition table's store order across thread counts.
// leaf_5x32 and block_7x32 replaced goldens of pipelined leaf/block rounds
// at the same seeds, and their result halves (m= ... f=) equal those; the
// hybrid/gpu-only pipelined goldens were captured from the driver that
// still pipelined leaf and block rounds.
std::vector<GoldenCase> golden_cases() {
  using engine::SchemeSpec;
  return {
      {"leaf_4x64",
       SchemeSpec::leaf_gpu(4, 64).with_seed(101),
       "m=19 s=3072 r=12 gr=12 ci=0 gs=3072 tn=14 md=2 vs=3fa9a992e0a2b3bf dw=3fa0bad473a05611 f=0/0 th=8bac6c7adc2d24ec tk=2"},
      {"leaf_1x32",
       SchemeSpec::leaf_gpu(1, 32).with_seed(102),
       "m=19 s=416 r=13 gr=13 ci=0 gs=416 tn=18 md=3 vs=3fab5cca922b2419 dw=3fa06ae67616274c f=0/0 th=bb700cf535350b5d tk=2"},
      {"block_8x32",
       SchemeSpec::block_gpu(8, 32).with_seed(105),
       "m=19 s=3072 r=12 gr=12 ci=0 gs=3072 tn=158 md=3 vs=3faa41141a1432be dw=3fa08d2facef68bf f=0/0 th=dcc39b599bbb83f2 tk=2"},
      {"hybrid_8x32",
       SchemeSpec::hybrid(8, 32).with_seed(108),
       "m=19 s=3336 r=12 gr=12 ci=264 gs=3072 tn=587 md=5 vs=3faa3e0a76ae19d8 dw=3fa09669cb00443c f=0/0 th=1dedb63712041600 tk=2"},
      {"gpu_only_8x32",
       SchemeSpec::hybrid(8, 32, /*cpu_overlap=*/false).with_seed(109),
       "m=44 s=3072 r=12 gr=12 ci=0 gs=3072 tn=157 md=3 vs=3faa1e6e0a0feeb9 dw=3fa0cce97205f87d f=0/0 th=c042f0c9abf2fd54 tk=2"},
      {"block_8x32_faulted",
       faulted(SchemeSpec::block_gpu(8, 32).with_seed(110), 0.3, 0.0, 71),
       "m=37 s=3072 r=12 gr=12 ci=0 gs=3072 tn=160 md=3 vs=3faa0ee51e1d65a3 dw=3fa0e7771af856d1 f=1/1 th=93f6c6b74e65a6d0 tk=2"},
      {"leaf_4x64_faulted",
       faulted(SchemeSpec::leaf_gpu(4, 64).with_seed(112), 0.3, 0.0, 73),
       "m=19 s=3072 r=15 gr=15 ci=0 gs=3072 tn=23 md=3 vs=3fa9a910b0dcadb5 dw=3f9cdf9f655b7efe f=0/0 th=65ba43eb3be03110 tk=2"},
      {"hybrid_8x32_faulted",
       faulted(SchemeSpec::hybrid(8, 32).with_seed(114), 0.3, 0.2, 75),
       "m=19 s=3347 r=13 gr=12 ci=275 gs=3072 tn=626 md=5 vs=3fab5b23104b5e53 dw=3fa201c9456a5761 f=19/19 th=f8f95fdc190d3f88 tk=2"},
      {"block_8x32_tt",
       SchemeSpec::block_gpu(8, 32).with_seed(120).with_tt(1),
       "m=44 s=3072 r=12 gr=12 ci=0 gs=3072 tn=147 md=3 vs=3faa1e6e0cfe73d0 dw=3fa0a40102e4f4cc f=0/0 th=4a8e1d9e0f273b80 tk=2"},
      {"block_8x32_all_launches_fail",
       faulted(SchemeSpec::block_gpu(8, 32).with_seed(116), 1.0, 0.0, 77),
       "m=19 s=263 r=33 gr=0 ci=263 gs=0 tn=408 md=5 vs=3fa99a9d9577f89f dw=0000000000000000 f=6/7 th=d6f4d3b7c0292d69 tk=2"},
      {"leaf_5x32",
       SchemeSpec::leaf_gpu(5, 32).with_seed(103),
       "m=26 s=2080 r=13 gr=13 ci=0 gs=2080 tn=20 md=3 vs=3fabbc132d5b61e2 dw=3fa0d5792313738b f=0/0 th=63d68eb78f62cbf4 tk=2"},
      {"block_7x32",
       SchemeSpec::block_gpu(7, 32).with_seed(106),
       "m=44 s=2688 r=12 gr=12 ci=0 gs=2688 tn=138 md=3 vs=3faa4eb3df8afeba dw=3fa1e804f7ed77bb f=0/0 th=90eb0ebef7301802 tk=2"},
      {"hybrid_8x32_pipelined",
       SchemeSpec::hybrid(8, 32).with_seed(118).with_pipeline(),
       "m=37 s=1798 r=6 gr=6 ci=262 gs=1536 tn=502 md=6 vs=3fa9df43e2389ad6 dw=3fa12f88e93d525b f=0/0 th=ecb8636c6a912f17 tk=4"},
      {"gpu_only_8x32_pipelined",
       SchemeSpec::hybrid(8, 32, /*cpu_overlap=*/false)
           .with_seed(121)
           .with_pipeline(),
       "m=37 s=1536 r=6 gr=6 ci=0 gs=1536 tn=76 md=2 vs=3fa9ca20c4889782 dw=3fa1179e382b342b f=0/0 th=dfa19445840aec2a tk=4"},
      {"hybrid_8x32_pipelined3_faulted",
       faulted(SchemeSpec::hybrid(8, 32)
                   .with_seed(119)
                   .with_pipeline()
                   .with_pipeline_depth(3),
               0.3, 0.2, 78),
       "m=44 s=1219 r=4 gr=4 ci=195 gs=1024 tn=338 md=6 vs=3fa99e82cab3c645 dw=3fa16db4ba7236b4 f=9/9 th=b4d22cf59732b7e6 tk=5"},
      {"hybrid_8x32_pipelined_all_launches_fail",
       faulted(SchemeSpec::hybrid(8, 32).with_seed(122).with_pipeline(), 1.0,
               0.0, 79),
       "m=37 s=264 r=33 gr=0 ci=264 gs=0 tn=402 md=6 vs=3fa99b45e7dd340b dw=0000000000000000 f=12/14 th=bd05456c69804aee tk=4"},
  };
}

TEST(DriverBitExact, MatchesSeedGoldens) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(encode(run_search(c.spec, 1)), c.golden);
  }
}

TEST(DriverBitExact, GoldensHoldAtFourExecThreads) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(encode(run_search(c.spec, 4)), c.golden);
  }
}

TEST(DriverBitExact, GoldensHoldUnderEveryWarpBackend) {
  // The warp-batched SoA backend (DESIGN.md §17) claims bit-identity with
  // the scalar interpreter all the way up the stack: re-running the full
  // seed-golden suite under each explicit backend — including verify, which
  // asserts per-warp equality internally — proves moves, stats, fault logs,
  // and trace hashes are backend-invariant.
  const char* saved = std::getenv("GPU_MCTS_WARP_BACKEND");
  const std::string saved_value = saved != nullptr ? saved : "";
  for (const char* backend : {"scalar", "batched", "verify"}) {
    ::setenv("GPU_MCTS_WARP_BACKEND", backend, 1);
    for (const GoldenCase& c : golden_cases()) {
      SCOPED_TRACE(std::string(c.label) + " backend=" + backend);
      EXPECT_EQ(encode(run_search(c.spec, 1)), c.golden);
    }
  }
  if (saved != nullptr) {
    ::setenv("GPU_MCTS_WARP_BACKEND", saved_value.c_str(), 1);
  } else {
    ::unsetenv("GPU_MCTS_WARP_BACKEND");
  }
}

// ---- post-refactor invariants ---------------------------------------------
// The N-way stream rotation is a capability the seed searchers did not have;
// these pin the hybrid scheme's depths against its synchronous behaviour.

TEST(DriverDepth, DepthOneRunsTheSynchronousPath) {
  // Depth 1 is one cohort covering the whole grid: the driver takes the
  // synchronous path, so even the trace stream matches the unpipelined run.
  for (const engine::SchemeSpec& base :
       {engine::SchemeSpec::hybrid(8, 32).with_seed(108),
        engine::SchemeSpec::hybrid(8, 32, /*cpu_overlap=*/false)
            .with_seed(109)}) {
    SCOPED_TRACE(base.to_string());
    const auto sync = run_search(base, 1);
    const auto depth1 =
        run_search(base.with_pipeline().with_pipeline_depth(1), 1);
    EXPECT_EQ(encode(depth1), encode(sync));
  }
}

TEST(DriverDepth, DepthThreeHoldsAtFourExecThreads) {
  // Three stream cohorts without faults (the depth-3 golden is faulted).
  const engine::SchemeSpec spec = engine::SchemeSpec::hybrid(8, 32)
                                      .with_seed(107)
                                      .with_pipeline()
                                      .with_pipeline_depth(3);
  EXPECT_EQ(encode(run_search(spec, 4)), encode(run_search(spec, 1)));
}

TEST(DriverDepth, HybridPipelinedIsDeterministicAcrossExecThreads) {
  // Pipelined hybrid is new with the driver: no seed golden exists, so pin
  // determinism — the virtual timeline must not depend on exec threads or
  // on rerunning, and both halves of the scheme must contribute.
  const engine::SchemeSpec spec =
      engine::SchemeSpec::parse("hybrid:8x32+pipeline").with_seed(118);
  const SearchCapture once = run_search(spec, 1);
  EXPECT_GT(once.stats.gpu_rounds, 0u);
  EXPECT_GT(once.stats.cpu_iterations, 0u);  // overlap iterations ran
  EXPECT_EQ(encode(run_search(spec, 1)), encode(once));
  EXPECT_EQ(encode(run_search(spec, 4)), encode(once));
}

TEST(DriverDepth, HybridPipelinedFaultedIsDeterministic) {
  const engine::SchemeSpec spec =
      faulted(engine::SchemeSpec::hybrid(8, 32)
                  .with_seed(119)
                  .with_pipeline()
                  .with_pipeline_depth(3),
              0.3, 0.2, 78);
  const SearchCapture once = run_search(spec, 1);
  EXPECT_GT(once.stats.faults.faults(), 0u);
  EXPECT_EQ(encode(run_search(spec, 4)), encode(once));
}

// ---- the surviving pipelined path: hybrid over stream cohorts ------------

/// The track names and events of one traced hybrid:8x32+pipeline search.
struct TracedRun {
  mcts::SearchStats stats;
  std::vector<obs::TraceEvent> events;
  std::vector<std::string> track_names;
};

TracedRun run_traced(const engine::SchemeSpec& spec) {
  TracedRun out;
  obs::Tracer tracer;
  auto searcher =
      engine::make_searcher<ReversiGame>(spec.with_exec_threads(1));
  searcher->set_tracer(&tracer);
  (void)searcher->choose_move(ReversiGame::initial_state(), kBudget);
  out.stats = searcher->last_stats();
  out.events = tracer.merged();
  for (std::size_t t = 0; t < tracer.track_count(); ++t) {
    out.track_names.push_back(tracer.track_name(static_cast<int>(t)));
  }
  return out;
}

std::uint64_t count_events(const TracedRun& run, obs::TraceEvent::Kind kind,
                           std::string_view name) {
  std::uint64_t n = 0;
  for (const obs::TraceEvent& e : run.events) {
    if (e.kind == kind && std::string_view(e.name) == name) ++n;
  }
  return n;
}

TEST(PipelineBitExact, PipelinedRunEmitsPerStreamDeviceTracks) {
  const TracedRun run = run_traced(
      engine::SchemeSpec::parse("hybrid:8x32+pipeline").with_seed(29));
  const auto has_track = [&](std::string_view name) {
    return std::find(run.track_names.begin(), run.track_names.end(), name) !=
           run.track_names.end();
  };
  EXPECT_TRUE(has_track("gpu.s0"));
  EXPECT_TRUE(has_track("gpu.s1"));
  // And the streams really carried kernel spans.
  std::uint64_t stream_kernels = 0;
  for (const obs::TraceEvent& e : run.events) {
    if (e.kind == obs::TraceEvent::Kind::kBegin &&
        std::string_view(e.name) == "kernel" &&
        run.track_names.at(e.track).starts_with("gpu.s")) {
      ++stream_kernels;
    }
  }
  EXPECT_GT(run.stats.gpu_rounds, 0u);
  EXPECT_EQ(stream_kernels, 2 * run.stats.gpu_rounds);
}

TEST(PipelineBitExact, AllLaunchesFailedDegradesToCpuPerCohort) {
  // Every launch fails -> both cohorts exhaust max_failed_rounds, abandon
  // their streams, and the search survives on CPU fallback iterations.
  const TracedRun run =
      run_traced(faulted(engine::SchemeSpec::parse("hybrid:8x32+pipeline")
                             .with_seed(30),
                         1.0, 0.0, 73));
  EXPECT_EQ(run.stats.gpu_rounds, 0u);
  EXPECT_EQ(run.stats.gpu_simulations, 0u);
  EXPECT_GT(run.stats.rounds, 0u);
  EXPECT_GT(run.stats.cpu_iterations, 0u);
  EXPECT_EQ(run.stats.divergence_waste, 0.0);
  EXPECT_EQ(count_events(run, obs::TraceEvent::Kind::kInstant,
                         "cohort_abandoned"),
            2u);  // one per cohort
  EXPECT_EQ(
      count_events(run, obs::TraceEvent::Kind::kInstant, "gpu_abandoned"),
      1u);
}

// Prints the golden table (for regeneration after a deliberate seed-path
// change); skipped unless GPU_MCTS_DUMP_GOLDEN is set.
TEST(DriverBitExact, DumpGoldens) {
  if (std::getenv("GPU_MCTS_DUMP_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set GPU_MCTS_DUMP_GOLDEN=1 to dump";
  }
  for (const GoldenCase& c : golden_cases()) {
    std::printf("GOLDEN %s %s\n", c.label, encode(run_search(c.spec, 1)).c_str());
  }
}

}  // namespace
}  // namespace gpu_mcts::parallel
