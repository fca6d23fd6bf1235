#include "engine/spec.hpp"

#include <charconv>
#include <stdexcept>

#include "simt/vgpu.hpp"
#include "util/check.hpp"

namespace gpu_mcts::engine {

namespace {

/// One row per accepted spec form: the short name, its grammar fragment, and
/// which "+"-suffixes the form takes ("+pipeline[:<depth>]", "+tt:<mb>").
/// Both the "expected one of: ..." grammar in parse errors and the scheme
/// lists named by the misplaced-suffix errors are generated from this
/// table, so adding a scheme (or giving one a pipelined or transposition
/// implementation) is a one-row change here plus its branch in parse().
struct SchemeForm {
  std::string_view name;
  std::string_view params;  // grammar after the name, e.g. ":<blocks>x<tpb>"
  bool pipeline_ok;
  bool tt_ok;
};

constexpr SchemeForm kForms[] = {
    {"seq", "", false, true},
    {"flat", "", false, false},
    {"root", ":<threads>", false, false},
    {"tree", ":<workers>[:vl=<loss>]", false, false},
    {"shared", ":<workers>[:vl=<loss>][:wu]", false, true},
    {"leaf", ":<blocks>x<tpb>", false, true},
    {"block", ":<blocks>x<tpb>", false, true},
    {"hybrid", ":<blocks>x<tpb>", true, true},
    {"gpu-only", ":<blocks>x<tpb>", true, true},
    {"dist", ":<ranks>x<blocks>x<tpb>", false, false},
};

std::string grammar() {
  std::string out = "expected one of: ";
  bool first = true;
  for (const SchemeForm& form : kForms) {
    if (!first) out += " | ";
    first = false;
    out += form.name;
    out += form.params;
    if (form.pipeline_ok) out += "[+pipeline[:<depth>]]";
    if (form.tt_ok) out += "[+tt:<mb>]";
  }
  return out;
}

std::string pipeline_schemes() {
  std::string out;
  bool first = true;
  for (const SchemeForm& form : kForms) {
    if (!form.pipeline_ok) continue;
    if (!first) out += ", ";
    first = false;
    out += form.name;
  }
  return out;
}

std::string tt_schemes() {
  std::string out;
  bool first = true;
  for (const SchemeForm& form : kForms) {
    if (!form.tt_ok) continue;
    if (!first) out += ", ";
    first = false;
    out += form.name;
  }
  return out;
}

[[noreturn]] void parse_fail(std::string_view text, const std::string& why) {
  throw std::invalid_argument("bad scheme spec \"" + std::string(text) +
                              "\": " + why + "; " + grammar());
}

/// Splits "AxB" / "AxBxC" into positive integers.
std::vector<int> parse_dims(std::string_view text, std::string_view dims,
                            std::size_t expect) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= dims.size()) {
    const std::size_t next = dims.find('x', pos);
    const std::string_view part =
        dims.substr(pos, next == std::string_view::npos ? next : next - pos);
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc{} || ptr != part.data() + part.size() || value < 1) {
      std::string why = "\"";
      why += part;
      why += "\" is not a positive integer";
      parse_fail(text, why);
    }
    out.push_back(value);
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  if (out.size() != expect) {
    parse_fail(text, "expected " + std::to_string(expect) +
                         " 'x'-separated dimensions, got " +
                         std::to_string(out.size()));
  }
  return out;
}

/// Parsed ":<workers>[:vl=<loss>][:wu]" parameters of the CPU tree schemes.
struct TreeParams {
  int workers = 1;
  int virtual_loss = 1;
  bool wu_uct = false;
};

/// Splits the tree/shared parameter list on ':'. The first token is the
/// worker count; the rest are options ("vl=<loss>", and "wu" where
/// `wu_ok`). Error text names the offending token, matching the style of
/// the other parse errors.
TreeParams parse_tree_params(std::string_view text, std::string_view rest,
                             bool wu_ok) {
  TreeParams out;
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t next = rest.find(':', pos);
    tokens.push_back(rest.substr(
        pos, next == std::string_view::npos ? next : next - pos));
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  out.workers = parse_dims(text, tokens[0], 1)[0];
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    if (token.substr(0, 3) == "vl=") {
      const std::string_view num = token.substr(3);
      int value = 0;
      const auto [ptr, ec] =
          std::from_chars(num.data(), num.data() + num.size(), value);
      if (ec != std::errc{} || ptr != num.data() + num.size() || value < 0) {
        parse_fail(text, "virtual loss \"" + std::string(num) +
                             "\" must be a non-negative integer");
      }
      out.virtual_loss = value;
    } else if (token == "wu") {
      if (!wu_ok) {
        parse_fail(text, "\"wu\" applies only to the shared scheme");
      }
      out.wu_uct = true;
    } else {
      parse_fail(text, "unknown option \"" + std::string(token) +
                           "\" (expected vl=<loss> or wu)");
    }
  }
  return out;
}

}  // namespace

SchemeSpec SchemeSpec::parse(std::string_view text) {
  // "+"-suffixes ("+pipeline[:<depth>]", "+tt:<mb>", in any order) are
  // stripped from the *full* text before the scheme's own ':' split, so a
  // suffix with a colon works the same on a parameterless scheme
  // ("seq+tt:64") as on a parameterized one ("block:8x32+tt:64"). Each is
  // then rejected for the schemes whose kForms row lacks the capability.
  constexpr std::string_view kPipelineWord = "+pipeline";
  constexpr std::string_view kTtWord = "+tt";
  bool pipeline = false;
  int pipeline_depth = 2;
  int tt_mb = 0;
  std::string_view body = text;
  std::string_view suffixes;
  if (const std::size_t plus = body.find('+');
      plus != std::string_view::npos) {
    suffixes = body.substr(plus);
    body = body.substr(0, plus);
  }
  while (!suffixes.empty()) {
    const std::size_t next = suffixes.find('+', 1);
    const std::string_view suffix = suffixes.substr(0, next);
    suffixes = next == std::string_view::npos ? std::string_view{}
                                              : suffixes.substr(next);
    if (suffix.substr(0, kPipelineWord.size()) == kPipelineWord) {
      std::string_view depth_text = suffix.substr(kPipelineWord.size());
      if (!depth_text.empty()) {
        if (depth_text[0] != ':') {
          parse_fail(text, "unknown suffix \"" + std::string(suffix) + '"');
        }
        depth_text.remove_prefix(1);
        constexpr int kMaxDepth = simt::VirtualGpu::kMaxStreams;
        int value = 0;
        const auto [ptr, ec] = std::from_chars(
            depth_text.data(), depth_text.data() + depth_text.size(), value);
        if (ec != std::errc{} ||
            ptr != depth_text.data() + depth_text.size() || value < 1 ||
            value > kMaxDepth) {
          parse_fail(text, "pipeline depth \"" + std::string(depth_text) +
                               "\" must be an integer in 1.." +
                               std::to_string(kMaxDepth));
        }
        pipeline_depth = value;
      }
      pipeline = true;
    } else if (suffix == kTtWord ||
               suffix.substr(0, kTtWord.size() + 1) == "+tt:") {
      std::string_view mb_text =
          suffix.size() > kTtWord.size() ? suffix.substr(kTtWord.size() + 1)
                                         : std::string_view{};
      int value = 0;
      const auto [ptr, ec] = std::from_chars(
          mb_text.data(), mb_text.data() + mb_text.size(), value);
      if (ec != std::errc{} || ptr != mb_text.data() + mb_text.size() ||
          value < 1 || value > 4096) {
        parse_fail(text, "tt size \"" + std::string(mb_text) +
                             "\" must be an integer number of megabytes in "
                             "1..4096");
      }
      tt_mb = value;
    } else {
      parse_fail(text, "unknown suffix \"" + std::string(suffix) + '"');
    }
  }
  const std::size_t colon = body.find(':');
  const std::string_view head = body.substr(0, colon);
  const std::string_view rest = colon == std::string_view::npos
                                    ? std::string_view{}
                                    : body.substr(colon + 1);
  const auto reject_pipeline = [&]() {
    if (pipeline) {
      parse_fail(text,
                 "\"+pipeline\" applies only to the hybrid schemes (" +
                     pipeline_schemes() + ")");
    }
  };
  const auto reject_tt = [&]() {
    if (tt_mb != 0) {
      parse_fail(text,
                 "\"+tt\" applies only to the transposition-capable schemes (" +
                     tt_schemes() + ")");
    }
  };
  const auto require_arg = [&]() {
    if (rest.empty()) parse_fail(text, "missing parameters after ':'");
  };
  const auto require_bare = [&]() {
    if (colon != std::string_view::npos) {
      parse_fail(text, "scheme takes no parameters");
    }
  };

  if (head == "seq" || head == "sequential") {
    require_bare();
    reject_pipeline();
    return sequential().with_tt(tt_mb);
  }
  if (head == "flat" || head == "flat-mc") {
    require_bare();
    reject_pipeline();
    reject_tt();
    return flat_mc();
  }
  if (head == "root" || head == "root-parallel") {
    require_arg();
    reject_pipeline();
    reject_tt();
    return root_parallel(parse_dims(text, rest, 1)[0]);
  }
  if (head == "tree" || head == "tree-parallel") {
    require_arg();
    reject_pipeline();
    reject_tt();
    const TreeParams p = parse_tree_params(text, rest, /*wu_ok=*/false);
    return tree_parallel(p.workers, p.virtual_loss);
  }
  if (head == "shared" || head == "shared-tree") {
    require_arg();
    reject_pipeline();
    const TreeParams p = parse_tree_params(text, rest, /*wu_ok=*/true);
    return shared_tree(p.workers, p.virtual_loss, p.wu_uct).with_tt(tt_mb);
  }
  if (head == "leaf" || head == "leaf-gpu") {
    require_arg();
    reject_pipeline();
    const auto d = parse_dims(text, rest, 2);
    return leaf_gpu(d[0], d[1]).with_tt(tt_mb);
  }
  if (head == "block" || head == "block-gpu") {
    require_arg();
    reject_pipeline();
    const auto d = parse_dims(text, rest, 2);
    return block_gpu(d[0], d[1]).with_tt(tt_mb);
  }
  if (head == "hybrid") {
    require_arg();
    const auto d = parse_dims(text, rest, 2);
    return hybrid(d[0], d[1], true)
        .with_pipeline(pipeline)
        .with_pipeline_depth(pipeline_depth)
        .with_tt(tt_mb);
  }
  if (head == "gpu-only") {
    require_arg();
    const auto d = parse_dims(text, rest, 2);
    return hybrid(d[0], d[1], false)
        .with_pipeline(pipeline)
        .with_pipeline_depth(pipeline_depth)
        .with_tt(tt_mb);
  }
  if (head == "dist" || head == "distributed") {
    require_arg();
    reject_pipeline();
    reject_tt();
    const auto d = parse_dims(text, rest, 3);
    return distributed(d[0], d[1], d[2]);
  }
  parse_fail(text, "unknown scheme \"" + std::string(head) + '"');
}

SchemeSpec SchemeSpec::sequential() {
  SchemeSpec s;
  s.scheme = "sequential";
  return s;
}

SchemeSpec SchemeSpec::flat_mc() {
  SchemeSpec s;
  s.scheme = "flat-mc";
  return s;
}

SchemeSpec SchemeSpec::root_parallel(int threads) {
  util::expects(threads >= 1, "at least one thread");
  SchemeSpec s;
  s.scheme = "root-parallel";
  s.cpu_threads = threads;
  return s;
}

SchemeSpec SchemeSpec::tree_parallel(int workers, int virtual_loss) {
  util::expects(workers >= 1, "at least one worker");
  util::expects(virtual_loss >= 0, "non-negative virtual loss");
  SchemeSpec s;
  s.scheme = "tree-parallel";
  s.cpu_threads = workers;
  s.virtual_loss = virtual_loss;
  return s;
}

SchemeSpec SchemeSpec::shared_tree(int workers, int virtual_loss,
                                   bool wu_uct) {
  util::expects(workers >= 1, "at least one worker");
  util::expects(virtual_loss >= 0, "non-negative virtual loss");
  SchemeSpec s;
  s.scheme = "shared-tree";
  s.cpu_threads = workers;
  s.virtual_loss = virtual_loss;
  s.wu_uct = wu_uct;
  return s;
}

SchemeSpec SchemeSpec::leaf_gpu(int blocks, int threads_per_block) {
  util::expects(blocks >= 1 && threads_per_block >= 1, "positive geometry");
  SchemeSpec s;
  s.scheme = "leaf-gpu";
  s.blocks = blocks;
  s.threads_per_block = threads_per_block;
  s.search.ucb_c = mcts::kBatchUcbC;  // batch backprops need a small C
  return s;
}

SchemeSpec SchemeSpec::block_gpu(int blocks, int threads_per_block) {
  util::expects(blocks >= 1 && threads_per_block >= 1, "positive geometry");
  SchemeSpec s;
  s.scheme = "block-gpu";
  s.blocks = blocks;
  s.threads_per_block = threads_per_block;
  s.search.ucb_c = mcts::kBatchUcbC;  // batch backprops need a small C
  return s;
}

SchemeSpec SchemeSpec::hybrid(int blocks, int threads_per_block,
                              bool cpu_overlap) {
  util::expects(blocks >= 1 && threads_per_block >= 1, "positive geometry");
  SchemeSpec s;
  s.scheme = "hybrid";
  s.blocks = blocks;
  s.threads_per_block = threads_per_block;
  s.cpu_overlap = cpu_overlap;
  s.search.ucb_c = mcts::kBatchUcbC;  // batch backprops need a small C
  return s;
}

SchemeSpec SchemeSpec::distributed(int ranks, int blocks,
                                   int threads_per_block) {
  util::expects(ranks >= 1, "at least one rank");
  util::expects(blocks >= 1 && threads_per_block >= 1, "positive geometry");
  SchemeSpec s;
  s.scheme = "distributed";
  s.ranks = ranks;
  s.blocks = blocks;
  s.threads_per_block = threads_per_block;
  s.search.ucb_c = mcts::kBatchUcbC;  // batch backprops need a small C
  return s;
}

SchemeSpec SchemeSpec::leaf_gpu_threads(int total_threads, int block_size) {
  const simt::LaunchConfig grid = grid_for(total_threads, block_size);
  return leaf_gpu(grid.blocks, grid.threads_per_block);
}

SchemeSpec SchemeSpec::block_gpu_threads(int total_threads, int block_size) {
  const simt::LaunchConfig grid = grid_for(total_threads, block_size);
  return block_gpu(grid.blocks, grid.threads_per_block);
}

SchemeSpec SchemeSpec::with_seed(std::uint64_t seed) const {
  SchemeSpec copy = *this;
  copy.search.seed = seed;
  return copy;
}

SchemeSpec SchemeSpec::with_exec_threads(int threads) const {
  SchemeSpec copy = *this;
  copy.exec_threads = threads;
  return copy;
}

SchemeSpec SchemeSpec::with_pipeline(bool on) const {
  SchemeSpec copy = *this;
  copy.pipeline = on;
  return copy;
}

SchemeSpec SchemeSpec::with_pipeline_depth(int depth) const {
  util::expects(depth >= 1 && depth <= simt::VirtualGpu::kMaxStreams,
                "pipeline depth between 1 and the device stream count");
  SchemeSpec copy = *this;
  copy.pipeline_depth = depth;
  return copy;
}

SchemeSpec SchemeSpec::with_tt(int megabytes) const {
  util::expects(megabytes >= 0 && megabytes <= 4096,
                "transposition table size in 0..4096 megabytes");
  SchemeSpec copy = *this;
  copy.tt_mb = megabytes;
  return copy;
}

std::string SchemeSpec::to_string() const {
  // Depth 2 is the suffix's default, so it round-trips as bare "+pipeline".
  const std::string pipe =
      !pipeline ? ""
      : pipeline_depth == 2
          ? "+pipeline"
          : "+pipeline:" + std::to_string(pipeline_depth);
  // Canonical suffix order is pipeline-then-tt; parse() accepts either.
  const std::string tt = tt_mb == 0 ? "" : "+tt:" + std::to_string(tt_mb);
  const std::string grid = std::to_string(blocks) + "x" +
                           std::to_string(threads_per_block) + pipe + tt;
  if (scheme == "sequential") return "seq" + tt;
  if (scheme == "flat-mc") return "flat";
  // vl=1 is the option's default, so it round-trips unspelled.
  const std::string vl =
      virtual_loss == 1 ? "" : ":vl=" + std::to_string(virtual_loss);
  if (scheme == "root-parallel") return "root:" + std::to_string(cpu_threads);
  if (scheme == "tree-parallel") {
    return "tree:" + std::to_string(cpu_threads) + vl;
  }
  if (scheme == "shared-tree") {
    return "shared:" + std::to_string(cpu_threads) + vl +
           (wu_uct ? ":wu" : "") + tt;
  }
  if (scheme == "leaf-gpu") return "leaf:" + grid;
  if (scheme == "block-gpu") return "block:" + grid;
  if (scheme == "hybrid") return (cpu_overlap ? "hybrid:" : "gpu-only:") + grid;
  if (scheme == "distributed") {
    return "dist:" + std::to_string(ranks) + "x" + grid;
  }
  return scheme;
}

simt::LaunchConfig grid_for(int total_threads, int block_size) {
  util::expects(total_threads >= 1 && block_size >= 1, "positive geometry");
  if (total_threads <= block_size) {
    return simt::LaunchConfig{1, total_threads};
  }
  util::expects(total_threads % block_size == 0,
                "thread count divisible by block size");
  return simt::LaunchConfig{total_threads / block_size, block_size};
}

}  // namespace gpu_mcts::engine
