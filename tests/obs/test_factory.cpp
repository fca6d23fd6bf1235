// Engine API: the SchemeSpec string grammar, the per-scheme search
// defaults, and make_searcher<G> across every built-in scheme for more
// than one game.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>

#include "engine/factory.hpp"
#include "engine/spec.hpp"
#include "game/tictactoe.hpp"
#include "mcts/config.hpp"
#include "reversi/reversi_game.hpp"
#include "util/check.hpp"

namespace gpu_mcts::engine {
namespace {

TEST(SchemeSpecParse, BareSchemes) {
  for (const char* text : {"seq", "sequential"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_EQ(spec.scheme, "sequential");
    EXPECT_EQ(spec.cpu_threads, 1);
  }
  for (const char* text : {"flat", "flat-mc"}) {
    EXPECT_EQ(SchemeSpec::parse(text).scheme, "flat-mc");
  }
}

TEST(SchemeSpecParse, CpuSchemesTakeOneDimension) {
  const SchemeSpec root = SchemeSpec::parse("root:8");
  EXPECT_EQ(root.scheme, "root-parallel");
  EXPECT_EQ(root.cpu_threads, 8);

  const SchemeSpec tree = SchemeSpec::parse("tree-parallel:4");
  EXPECT_EQ(tree.scheme, "tree-parallel");
  EXPECT_EQ(tree.cpu_threads, 4);
  EXPECT_EQ(tree.virtual_loss, 1);  // option default
}

TEST(SchemeSpecParse, TreeSchemesTakeVirtualLossOption) {
  const SchemeSpec tree = SchemeSpec::parse("tree:4:vl=3");
  EXPECT_EQ(tree.scheme, "tree-parallel");
  EXPECT_EQ(tree.cpu_threads, 4);
  EXPECT_EQ(tree.virtual_loss, 3);

  const SchemeSpec off = SchemeSpec::parse("shared:8:vl=0");
  EXPECT_EQ(off.scheme, "shared-tree");
  EXPECT_EQ(off.virtual_loss, 0);  // vl=0 disables virtual loss
}

TEST(SchemeSpecParse, SharedTreeTakesWorkersAndOptions) {
  for (const char* text : {"shared:4", "shared-tree:4"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_EQ(spec.scheme, "shared-tree");
    EXPECT_EQ(spec.cpu_threads, 4);
    EXPECT_EQ(spec.virtual_loss, 1);
    EXPECT_FALSE(spec.wu_uct);
  }
  const SchemeSpec wu = SchemeSpec::parse("shared:8:wu");
  EXPECT_EQ(wu.cpu_threads, 8);
  EXPECT_TRUE(wu.wu_uct);

  const SchemeSpec both = SchemeSpec::parse("shared:2:vl=2:wu");
  EXPECT_EQ(both.cpu_threads, 2);
  EXPECT_EQ(both.virtual_loss, 2);
  EXPECT_TRUE(both.wu_uct);
}

TEST(SchemeSpecParse, GpuSchemesTakeGridGeometry) {
  const SchemeSpec block = SchemeSpec::parse("block:112x128");
  EXPECT_EQ(block.scheme, "block-gpu");
  EXPECT_EQ(block.blocks, 112);
  EXPECT_EQ(block.threads_per_block, 128);

  const SchemeSpec leaf = SchemeSpec::parse("leaf-gpu:16x64");
  EXPECT_EQ(leaf.scheme, "leaf-gpu");
  EXPECT_EQ(leaf.blocks, 16);
  EXPECT_EQ(leaf.threads_per_block, 64);
}

TEST(SchemeSpecParse, HybridAndGpuOnlyDifferInOverlap) {
  const SchemeSpec hybrid = SchemeSpec::parse("hybrid:112x64");
  EXPECT_EQ(hybrid.scheme, "hybrid");
  EXPECT_TRUE(hybrid.cpu_overlap);

  const SchemeSpec control = SchemeSpec::parse("gpu-only:112x64");
  EXPECT_EQ(control.scheme, "hybrid");
  EXPECT_FALSE(control.cpu_overlap);
  EXPECT_EQ(control.blocks, 112);
}

TEST(SchemeSpecParse, DistributedTakesThreeDimensions) {
  for (const char* text : {"dist:2x56x64", "distributed:2x56x64"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_EQ(spec.scheme, "distributed");
    EXPECT_EQ(spec.ranks, 2);
    EXPECT_EQ(spec.blocks, 56);
    EXPECT_EQ(spec.threads_per_block, 64);
  }
}

TEST(SchemeSpecParse, BatchSchemesGetTheSmallUcbConstant) {
  // Batch-backpropagating schemes default to kBatchUcbC; per-simulation
  // schemes keep the textbook sqrt(2).
  for (const char* text :
       {"leaf:16x64", "block:8x32", "hybrid:8x32", "gpu-only:8x32",
        "dist:2x8x32"}) {
    EXPECT_EQ(SchemeSpec::parse(text).search.ucb_c, mcts::kBatchUcbC) << text;
  }
  for (const char* text : {"seq", "flat", "root:4", "tree:4", "shared:4"}) {
    EXPECT_NE(SchemeSpec::parse(text).search.ucb_c, mcts::kBatchUcbC) << text;
  }
}

TEST(SchemeSpecParse, PipelineSuffixTakesOptionalDepth) {
  const SchemeSpec bare = SchemeSpec::parse("hybrid:8x32+pipeline");
  EXPECT_TRUE(bare.pipeline);
  EXPECT_EQ(bare.pipeline_depth, 2);  // bare suffix = two stream cohorts

  const SchemeSpec deep = SchemeSpec::parse("gpu-only:4x64+pipeline:3");
  EXPECT_TRUE(deep.pipeline);
  EXPECT_EQ(deep.pipeline_depth, 3);

  const SchemeSpec sync = SchemeSpec::parse("hybrid:8x32+pipeline:1");
  EXPECT_TRUE(sync.pipeline);
  EXPECT_EQ(sync.pipeline_depth, 1);  // depth 1 runs the synchronous path

  const SchemeSpec hybrid = SchemeSpec::parse("hybrid:8x32+pipeline:2");
  EXPECT_EQ(hybrid.scheme, "hybrid");
  EXPECT_TRUE(hybrid.cpu_overlap);
  EXPECT_TRUE(hybrid.pipeline);

  const SchemeSpec control = SchemeSpec::parse("gpu-only:8x32+pipeline");
  EXPECT_FALSE(control.cpu_overlap);
  EXPECT_TRUE(control.pipeline);
}

TEST(SchemeSpecParse, TtSuffixSetsTableMegabytes) {
  EXPECT_EQ(SchemeSpec::parse("seq").tt_mb, 0);  // off by default
  const SchemeSpec seq = SchemeSpec::parse("seq+tt:64");
  EXPECT_EQ(seq.scheme, "sequential");
  EXPECT_EQ(seq.tt_mb, 64);

  const SchemeSpec shared = SchemeSpec::parse("shared:4:vl=2+tt:8");
  EXPECT_EQ(shared.scheme, "shared-tree");
  EXPECT_EQ(shared.cpu_threads, 4);
  EXPECT_EQ(shared.virtual_loss, 2);
  EXPECT_EQ(shared.tt_mb, 8);

  // Suffixes compose in either order; canonical order is pipeline-then-tt.
  for (const char* text :
       {"hybrid:8x32+pipeline+tt:64", "hybrid:8x32+tt:64+pipeline"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_TRUE(spec.pipeline) << text;
    EXPECT_EQ(spec.tt_mb, 64) << text;
    EXPECT_EQ(spec.to_string(), "hybrid:8x32+pipeline+tt:64") << text;
  }
  EXPECT_EQ(SchemeSpec::parse("gpu-only:8x32+tt:16").tt_mb, 16);
  EXPECT_EQ(SchemeSpec::parse("leaf:4x64+tt:1").tt_mb, 1);
  EXPECT_EQ(SchemeSpec::parse("hybrid:8x32+tt:4096").tt_mb, 4096);
}

TEST(SchemeSpecParse, RejectsBadTtSuffixes) {
  for (const char* text :
       {"seq+tt", "seq+tt:", "seq+tt:0", "seq+tt:-1", "seq+tt:4097",
        "seq+tt:x", "seq+tt:64mb", "flat+tt:64", "root:4+tt:64",
        "tree:4+tt:64", "dist:2x8x32+tt:64", "seq+transposition:64"}) {
    EXPECT_THROW((void)SchemeSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(SchemeSpecParse, RejectsBadPipelineSuffixes) {
  for (const char* text :
       {"root:4+pipeline", "tree:4+pipeline", "dist:2x8x32+pipeline",
        "seq+pipeline", "leaf:4x64+pipeline", "block:8x32+pipeline",
        "hybrid:8x32+pipeline:0", "hybrid:8x32+pipeline:9",
        "hybrid:8x32+pipeline:x", "hybrid:8x32+pipeline:",
        "hybrid:8x32+pipelined", "hybrid:8x32+turbo"}) {
    EXPECT_THROW((void)SchemeSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(SchemeSpecParse, MisplacedPipelineNamesTheSchemesThatTakeIt) {
  try {
    (void)SchemeSpec::parse("tree:4+pipeline");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(hybrid, gpu-only)"), std::string::npos) << what;
  }
}

TEST(SchemeSpecParse, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "warp:4", "seq:1", "flat:2x2", "root:", "root:0", "root:-3",
        "root:4x4", "block:112", "block:112x128x2", "block:112x",
        "block:ax128", "block:112 x128", "dist:2x56", "leaf:0x64",
        "hybrid:8x32x1", "gpu_only:8x32"}) {
    EXPECT_THROW((void)SchemeSpec::parse(text), std::invalid_argument) << text;
  }
}

/// Captures parse()'s exception text for exact-stability assertions.
std::string parse_error(const char* text) {
  try {
    (void)SchemeSpec::parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument for \"" << text << '"';
  return "";
}

// The full grammar appended to every parse error — generated row by row
// from kForms in engine/spec.cpp, pinned here verbatim so an accidental
// table edit (or a wording drift scripts already grep for) fails loudly.
constexpr const char* kGrammar =
    "expected one of: seq[+tt:<mb>] | flat | root:<threads> | "
    "tree:<workers>[:vl=<loss>] | "
    "shared:<workers>[:vl=<loss>][:wu][+tt:<mb>] | "
    "leaf:<blocks>x<tpb>[+tt:<mb>] | "
    "block:<blocks>x<tpb>[+tt:<mb>] | "
    "hybrid:<blocks>x<tpb>[+pipeline[:<depth>]][+tt:<mb>] | "
    "gpu-only:<blocks>x<tpb>[+pipeline[:<depth>]][+tt:<mb>] | "
    "dist:<ranks>x<blocks>x<tpb>";

TEST(SchemeSpecParseErrors, ExactTextForUnknownScheme) {
  EXPECT_EQ(parse_error("warp:4"),
            "bad scheme spec \"warp:4\": unknown scheme \"warp\"; " +
                std::string(kGrammar));
}

TEST(SchemeSpecParseErrors, ExactTextForPipelineDepths) {
  // Depth 0, above kMaxStreams (8), and non-numeric all name the bad depth
  // and the accepted range.
  for (const auto& [text, depth] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"hybrid:8x32+pipeline:0", "0"},
           {"hybrid:8x32+pipeline:9", "9"},
           {"hybrid:8x32+pipeline:two", "two"},
           {"hybrid:8x32+pipeline:", ""}}) {
    EXPECT_EQ(parse_error(text),
              "bad scheme spec \"" + std::string(text) +
                  "\": pipeline depth \"" + depth +
                  "\" must be an integer in 1..8; " + kGrammar)
        << text;
  }
}

TEST(SchemeSpecParseErrors, ExactTextForUnknownSuffixes) {
  EXPECT_EQ(parse_error("block:8x32+turbo"),
            "bad scheme spec \"block:8x32+turbo\": unknown suffix "
            "\"+turbo\"; " +
                std::string(kGrammar));
  // "+pipelined" is not "+pipeline:<depth>" — the ':' check catches it.
  EXPECT_EQ(parse_error("block:8x32+pipelined"),
            "bad scheme spec \"block:8x32+pipelined\": unknown suffix "
            "\"+pipelined\"; " +
                std::string(kGrammar));
}

TEST(SchemeSpecParseErrors, ExactTextForTtSizes) {
  // Bad sizes name the offending token and the accepted megabyte range;
  // pinned verbatim (scripts grep for these, like the pipeline texts).
  for (const auto& [text, size] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"seq+tt:0", "0"},
           {"seq+tt:4097", "4097"},
           {"seq+tt:x", "x"},
           {"seq+tt:", ""},
           {"seq+tt", ""},
           {"block:8x32+tt:64mb", "64mb"}}) {
    EXPECT_EQ(parse_error(text),
              "bad scheme spec \"" + std::string(text) + "\": tt size \"" +
                  size + "\" must be an integer number of megabytes in "
                  "1..4096; " + kGrammar)
        << text;
  }
}

TEST(SchemeSpecParseErrors, ExactTextForMisplacedTt) {
  EXPECT_EQ(parse_error("root:4+tt:64"),
            "bad scheme spec \"root:4+tt:64\": \"+tt\" applies only to the "
            "transposition-capable schemes (seq, shared, leaf, block, hybrid, "
            "gpu-only); " +
                std::string(kGrammar));
  EXPECT_EQ(parse_error("flat+tt:8"),
            "bad scheme spec \"flat+tt:8\": \"+tt\" applies only to the "
            "transposition-capable schemes (seq, shared, leaf, block, hybrid, "
            "gpu-only); " +
                std::string(kGrammar));
}

TEST(SchemeSpecParseErrors, ExactTextForMisplacedPipeline) {
  EXPECT_EQ(parse_error("dist:2x8x32+pipeline"),
            "bad scheme spec \"dist:2x8x32+pipeline\": \"+pipeline\" applies "
            "only to the hybrid schemes (hybrid, gpu-only); " +
                std::string(kGrammar));
}

TEST(SchemeSpecParseErrors, LeafAndBlockRejectThePipelineSuffix) {
  // Leaf and block rounds are synchronous: the suffix is a parse error, and
  // a programmatic with_pipeline() is a contract violation, not a no-op.
  EXPECT_EQ(parse_error("block:8x32+pipeline"),
            "bad scheme spec \"block:8x32+pipeline\": \"+pipeline\" applies "
            "only to the hybrid schemes (hybrid, gpu-only); " +
                std::string(kGrammar));
  EXPECT_EQ(parse_error("leaf:4x64+pipeline:3"),
            "bad scheme spec \"leaf:4x64+pipeline:3\": \"+pipeline\" applies "
            "only to the hybrid schemes (hybrid, gpu-only); " +
                std::string(kGrammar));
  for (const SchemeSpec& spec :
       {SchemeSpec::block_gpu(8, 32).with_pipeline(),
        SchemeSpec::leaf_gpu(4, 64).with_pipeline().with_pipeline_depth(3)}) {
    EXPECT_THROW((void)make_searcher<reversi::ReversiGame>(spec),
                 util::ContractViolation)
        << spec.scheme;
  }
}

TEST(SchemeSpecParseErrors, ExactTextPerFormRow) {
  // One representative malformed spec per kForms row; every message carries
  // the offending spec, the row-specific diagnosis, and the grammar.
  const std::pair<const char*, const char*> cases[] = {
      {"seq:1", "scheme takes no parameters"},
      {"flat:2x2", "scheme takes no parameters"},
      {"root:", "missing parameters after ':'"},
      {"tree:0", "\"0\" is not a positive integer"},
      {"shared:0", "\"0\" is not a positive integer"},
      {"leaf:4", "expected 2 'x'-separated dimensions, got 1"},
      {"block:ax128", "\"a\" is not a positive integer"},
      {"hybrid:8x32x2", "expected 2 'x'-separated dimensions, got 3"},
      {"gpu-only:8x", "\"\" is not a positive integer"},
      {"dist:2x56", "expected 3 'x'-separated dimensions, got 2"},
  };
  for (const auto& [text, why] : cases) {
    EXPECT_EQ(parse_error(text), "bad scheme spec \"" + std::string(text) +
                                     "\": " + why + "; " + kGrammar)
        << text;
  }
}

TEST(SchemeSpecParseErrors, ExactTextForTreeOptions) {
  // The ":vl=<loss>" / ":wu" options fail with the offending token named.
  EXPECT_EQ(parse_error("tree:4:vl=x"),
            "bad scheme spec \"tree:4:vl=x\": virtual loss \"x\" must be a "
            "non-negative integer; " +
                std::string(kGrammar));
  EXPECT_EQ(parse_error("shared:4:vl=-1"),
            "bad scheme spec \"shared:4:vl=-1\": virtual loss \"-1\" must "
            "be a non-negative integer; " +
                std::string(kGrammar));
  EXPECT_EQ(parse_error("tree:4:wu"),
            "bad scheme spec \"tree:4:wu\": \"wu\" applies only to the "
            "shared scheme; " +
                std::string(kGrammar));
  EXPECT_EQ(parse_error("shared:4:turbo"),
            "bad scheme spec \"shared:4:turbo\": unknown option \"turbo\" "
            "(expected vl=<loss> or wu); " +
                std::string(kGrammar));
}

TEST(SchemeSpecParse, ErrorsNameTheOffendingSpecAndGrammar) {
  try {
    (void)SchemeSpec::parse("warp:4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp:4"), std::string::npos);
    EXPECT_NE(what.find("block:<blocks>x<tpb>"), std::string::npos);
  }
}

TEST(SchemeSpecToString, RoundTripsThroughParse) {
  for (const char* text :
       {"seq", "flat", "root:8", "tree:4", "tree:4:vl=3", "shared:4",
        "shared:8:vl=2", "shared:4:wu", "shared:2:vl=0:wu", "leaf:16x64",
        "block:112x128", "hybrid:112x64", "gpu-only:112x64",
        "dist:2x56x64"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    const SchemeSpec again = SchemeSpec::parse(spec.to_string());
    EXPECT_EQ(again.scheme, spec.scheme);
    EXPECT_EQ(again.cpu_threads, spec.cpu_threads);
    EXPECT_EQ(again.blocks, spec.blocks);
    EXPECT_EQ(again.threads_per_block, spec.threads_per_block);
    EXPECT_EQ(again.ranks, spec.ranks);
    EXPECT_EQ(again.cpu_overlap, spec.cpu_overlap);
    EXPECT_EQ(again.virtual_loss, spec.virtual_loss);
    EXPECT_EQ(again.wu_uct, spec.wu_uct);
  }
}

TEST(SchemeSpecToString, PipelineSuffixRoundTrips) {
  // Depth 2 is the suffix default, so it canonicalizes to bare "+pipeline";
  // other depths keep the explicit ":<depth>".
  for (const char* text :
       {"hybrid:16x64+pipeline", "hybrid:112x128+pipeline:3",
        "gpu-only:112x64+pipeline", "gpu-only:112x64+pipeline:4",
        "hybrid:8x32+pipeline:1"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    const SchemeSpec again = SchemeSpec::parse(spec.to_string());
    EXPECT_EQ(again.pipeline, spec.pipeline);
    EXPECT_EQ(again.pipeline_depth, spec.pipeline_depth);
  }
  EXPECT_EQ(SchemeSpec::parse("hybrid:8x32+pipeline:2").to_string(),
            "hybrid:8x32+pipeline");
}

TEST(SchemeSpecToString, TtSuffixRoundTrips) {
  for (const char* text :
       {"seq+tt:64", "shared:4+tt:8", "shared:2:vl=0:wu+tt:16",
        "leaf:16x64+tt:1", "hybrid:112x128+pipeline:3+tt:64",
        "gpu-only:112x64+tt:4096"}) {
    const SchemeSpec spec = SchemeSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(SchemeSpec::parse(spec.to_string()).tt_mb, spec.tt_mb);
  }
}

TEST(SchemeSpecBuilders, MatchWhatParseProduces) {
  EXPECT_EQ(SchemeSpec::block_gpu(112, 128).to_string(),
            SchemeSpec::parse("block:112x128").to_string());
  EXPECT_EQ(SchemeSpec::hybrid(8, 32, false).to_string(), "gpu-only:8x32");
  EXPECT_EQ(SchemeSpec::block_gpu(112, 128).search.ucb_c, mcts::kBatchUcbC);
}

TEST(SchemeSpecBuilders, WithSeedOnlyChangesTheSeed) {
  const SchemeSpec base = SchemeSpec::block_gpu(8, 32);
  const SchemeSpec seeded = base.with_seed(99);
  EXPECT_EQ(seeded.search.seed, 99u);
  EXPECT_EQ(seeded.search.ucb_c, base.search.ucb_c);
  EXPECT_EQ(seeded.to_string(), base.to_string());
}

TEST(GridFor, SplitsTotalsLikeThePaper) {
  // At or below one block: a single partial block.
  EXPECT_EQ(grid_for(48, 64).blocks, 1);
  EXPECT_EQ(grid_for(48, 64).threads_per_block, 48);
  EXPECT_EQ(grid_for(64, 64).blocks, 1);
  // Above: must divide evenly.
  EXPECT_EQ(grid_for(14336, 128).blocks, 112);
  EXPECT_EQ(grid_for(14336, 128).threads_per_block, 128);
  EXPECT_THROW((void)grid_for(100, 64), util::ContractViolation);
  EXPECT_THROW((void)grid_for(0, 64), util::ContractViolation);
}

/// Every built-in scheme, sized small enough to search a position quickly.
const char* kAllSchemes[] = {"seq",         "flat",          "root:2",
                             "tree:2",      "shared:2",      "shared:2:wu",
                             "leaf:2x16",   "block:2x16",    "hybrid:2x16",
                             "gpu-only:2x16", "dist:2x2x16",
                             "seq+tt:1",    "shared:2+tt:1", "block:2x16+tt:1"};

template <typename G>
bool is_legal(const typename G::State& state, typename G::Move move) {
  typename G::Move moves[G::kMaxMoves];
  const int n = G::legal_moves(state, moves);
  for (int i = 0; i < n; ++i) {
    if (std::memcmp(&moves[i], &move, sizeof(move)) == 0) return true;
  }
  return false;
}

template <typename G>
void exercise_all_schemes() {
  const auto state = G::initial_state();
  for (const char* text : kAllSchemes) {
    SCOPED_TRACE(text);
    auto searcher =
        make_searcher<G>(SchemeSpec::parse(text).with_seed(2011));
    ASSERT_NE(searcher, nullptr);
    EXPECT_FALSE(searcher->name().empty());
    const auto move = searcher->choose_move(state, 0.002);
    EXPECT_TRUE(is_legal<G>(state, move));
    EXPECT_GT(searcher->last_stats().simulations, 0u);
  }
}

TEST(MakeSearcher, BuildsEverySchemeForReversi) {
  exercise_all_schemes<reversi::ReversiGame>();
}

TEST(MakeSearcher, BuildsEverySchemeForTicTacToe) {
  exercise_all_schemes<game::TicTacToe>();
}

TEST(MakeSearcher, StringOverloadParsesAndBuilds) {
  auto searcher = make_searcher<game::TicTacToe>("block:2x16");
  EXPECT_FALSE(searcher->name().empty());
}

TEST(MakeSearcher, UnknownSchemeListsTheRegistry) {
  SchemeSpec spec;
  spec.scheme = "warp-parallel";
  try {
    (void)make_searcher<reversi::ReversiGame>(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp-parallel"), std::string::npos);
    EXPECT_NE(what.find("block-gpu"), std::string::npos);
    EXPECT_NE(what.find("sequential"), std::string::npos);
  }
}

TEST(SearcherRegistry, CustomSchemesCanBeRegistered) {
  using G = game::TicTacToe;
  auto& registry = SearcherRegistry<G>::instance();
  registry.add("custom-seq", [](const SchemeSpec& spec) {
    return std::make_unique<mcts::SequentialSearcher<G>>(
        spec.search, spec.host, spec.cost);
  });
  SchemeSpec spec;
  spec.scheme = "custom-seq";
  auto searcher = make_searcher<G>(spec);
  ASSERT_NE(searcher, nullptr);
  bool listed = false;
  for (const auto& name : registry.names()) {
    if (name == "custom-seq") listed = true;
  }
  EXPECT_TRUE(listed);
}

}  // namespace
}  // namespace gpu_mcts::engine
