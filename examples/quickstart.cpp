// Quickstart: build a player from a scheme spec string (the engine API),
// ask it for one move from the opening position, and inspect its statistics.
// Optionally record the search as a virtual-time trace.
//
//   ./quickstart [--scheme block:112x128] [--budget 0.05] [--wall-ms MS]
//                [--exec-threads N]
//                [--trace out.jsonl] [--chrome-trace out.json]
//
// Scheme spec examples: "seq", "root:8", "leaf:8x128", "block:112x128",
// "hybrid:112x128+pipeline", "hybrid:112x128+pipeline:3", "dist:4x56x128"
// (see engine/spec.hpp for the grammar). A malformed spec prints the parse
// error and exits with status 2.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "engine/factory.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "mcts/budget.hpp"
#include "reversi/notation.hpp"
#include "reversi/reversi_game.hpp"
#include "util/cli.hpp"

namespace {
const char* stop_reason_name(gpu_mcts::mcts::StopReason reason) {
  switch (reason) {
    case gpu_mcts::mcts::StopReason::kBudget: return "budget";
    case gpu_mcts::mcts::StopReason::kWallDeadline: return "wall-deadline";
    case gpu_mcts::mcts::StopReason::kCancelled: return "cancelled";
    case gpu_mcts::mcts::StopReason::kTreeSaturated: return "tree-saturated";
  }
  return "?";
}
}  // namespace

int main(int argc, char** argv) {
  using namespace gpu_mcts;
  const util::CliArgs args(argc, argv);
  const double budget = args.get_double("budget", 0.05);
  const std::string spec_text = args.get_string("scheme", "block:112x128");
  const std::string trace_jsonl = args.get_string("trace", "");
  const std::string trace_chrome = args.get_string("chrome-trace", "");

  // 1. Describe a player with a spec string and build it for Reversi. The
  //    same spec builds a searcher for any registered game.
  engine::SchemeSpec spec;
  try {
    spec = engine::SchemeSpec::parse(spec_text);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  spec.search.seed = args.get_uint("seed", 2011);
  // Host workers for the virtual GPU's execution backend. Results are
  // bit-identical for every value — this only buys wall-clock speed
  // (DESIGN.md §9). 0 inherits GPU_MCTS_EXEC_THREADS, else uses every
  // host CPU.
  spec.exec_threads = static_cast<int>(args.get_uint("exec-threads", 0));
  auto player = engine::make_searcher<reversi::ReversiGame>(spec);

  // 2. Optionally attach a tracer: spans and metrics in *virtual* time.
  obs::Tracer tracer;
  const bool tracing = !trace_jsonl.empty() || !trace_chrome.empty();
  if (tracing) player->set_tracer(&tracer);

  const reversi::Position opening = reversi::initial_position();
  std::cout << "Position:\n" << reversi::board_to_string(opening) << '\n';

  // 3. One decision under a virtual-time budget, optionally capped by a
  //    wall-clock deadline (DESIGN.md §12): the search returns its
  //    best-so-far move within ~2x the deadline even under GPU faults.
  mcts::SearchBudget search_budget;
  search_budget.virtual_seconds = budget;
  if (args.has("wall-ms")) {
    search_budget.wall_ms = args.get_double("wall-ms", 0.0);
  }
  const reversi::Move move = player->choose_move(opening, search_budget);

  // 4. Results.
  const mcts::SearchStats& stats = player->last_stats();
  std::cout << player->name() << " chose: " << reversi::move_to_string(move)
            << "\n\n"
            << "simulations        " << stats.simulations << '\n'
            << "  on the CPU       " << stats.cpu_iterations << '\n'
            << "  on the GPU       " << stats.gpu_simulations << '\n'
            << "kernel rounds      " << stats.rounds << '\n'
            << "tree nodes         " << stats.tree_nodes << '\n'
            << "max tree depth     " << stats.max_depth << '\n'
            << "virtual seconds    " << stats.virtual_seconds << '\n'
            << "simulations/second " << stats.simulations_per_second() << '\n'
            << "divergence waste   " << stats.divergence_waste << '\n'
            << "stopped by         " << stop_reason_name(stats.stop_reason)
            << '\n';

  // 5. Trace exports: JSONL (stable schema, tools/trace_validate checks it)
  //    and Chrome trace_event (load in chrome://tracing or ui.perfetto.dev).
  if (tracing) {
    if (!trace_jsonl.empty()) {
      std::ofstream file(trace_jsonl);
      if (!file) {
        std::cerr << "cannot write " << trace_jsonl << '\n';
        return 1;
      }
      obs::write_jsonl(tracer, file);
      std::cout << "\nwrote trace " << trace_jsonl << '\n';
    }
    if (!trace_chrome.empty()) {
      std::ofstream file(trace_chrome);
      if (!file) {
        std::cerr << "cannot write " << trace_chrome << '\n';
        return 1;
      }
      obs::write_chrome_trace(tracer, file);
      std::cout << "wrote Chrome trace " << trace_chrome << '\n';
    }
    std::cout << '\n';
    obs::print_summary(tracer, std::cout);
  }
  return 0;
}
