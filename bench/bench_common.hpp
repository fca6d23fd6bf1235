// Shared plumbing for the figure-reproduction binaries: flag parsing,
// header printing, and the thread-count axes used by the paper's sweeps.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "mcts/searcher.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace gpu_mcts::bench {

struct CommonFlags {
  std::size_t games = 2;
  double budget = 0.01;
  double opponent_budget = 0.01;
  std::uint64_t seed = 1;
  bool csv = false;
  bool quick = false;
  /// When non-empty, every emitted table is also written to
  /// <out>/<name>.csv for plotting scripts.
  std::string out_dir;
  /// When non-empty, the bench attaches an obs::Tracer to its subject
  /// players and exports the merged trace here (JSONL / Chrome formats).
  std::string trace_jsonl;
  std::string trace_chrome;
  /// Host worker threads for the VirtualGpu execution backend (0 = inherit
  /// GPU_MCTS_EXEC_THREADS, else every host CPU). Bit-identical results for
  /// every value; this only changes wall-clock time (DESIGN.md §9).
  int exec_threads = 0;

  static CommonFlags parse(const util::CliArgs& args) {
    CommonFlags f;
    f.quick = args.get_bool("quick", false);
    f.games = args.get_uint("games", f.quick ? 1 : 2);
    // 0.5 s of model time per move gives block-parallel trees ~30-110 kernel
    // rounds — the regime where the paper's orderings hold (DESIGN.md §5.7).
    f.budget = args.get_double("budget", f.quick ? 0.01 : 0.5);
    f.opponent_budget = args.get_double("opponent-budget", f.budget);
    f.seed = args.get_uint("seed", 1);
    f.csv = args.get_bool("csv", false);
    f.out_dir = args.get_string("out", "");
    f.trace_jsonl = args.get_string("trace", "");
    f.trace_chrome = args.get_string("chrome-trace", "");
    f.exec_threads = static_cast<int>(args.get_uint("exec-threads", 0));
    // Export through the environment knob so every VirtualGpu the bench
    // constructs (subjects, opponents, probes) inherits it without each
    // call site threading the value through its SchemeSpec.
    if (f.exec_threads > 0) {
      ::setenv("GPU_MCTS_EXEC_THREADS",
               std::to_string(f.exec_threads).c_str(), /*overwrite=*/1);
    }
    return f;
  }

  [[nodiscard]] bool tracing() const noexcept {
    return !trace_jsonl.empty() || !trace_chrome.empty();
  }
};

/// Owns the bench's Tracer when --trace/--chrome-trace is given; otherwise
/// attach() is a no-op and the subject runs the untraced (bit-exact) path.
/// finish() writes the requested exports and prints the phase summary.
class TraceSession {
 public:
  explicit TraceSession(const CommonFlags& flags) : flags_(flags) {}

  /// Attaches the session tracer to `searcher` (no-op when not tracing).
  template <typename G>
  void attach(mcts::Searcher<G>& searcher) {
    if (flags_.tracing()) searcher.set_tracer(&tracer_);
  }

  [[nodiscard]] obs::Tracer* tracer() noexcept {
    return flags_.tracing() ? &tracer_ : nullptr;
  }

  /// Writes the exports requested by the flags and prints the summary table.
  /// Returns false (after printing a diagnostic) if a file cannot be opened.
  bool finish(std::ostream& out = std::cout) {
    if (!flags_.tracing()) return true;
    bool ok = true;
    if (!flags_.trace_jsonl.empty()) {
      std::ofstream file(flags_.trace_jsonl);
      if (file) {
        obs::write_jsonl(tracer_, file);
        out << "(wrote trace " << flags_.trace_jsonl << ")\n";
      } else {
        out << "(could not write trace " << flags_.trace_jsonl << ")\n";
        ok = false;
      }
    }
    if (!flags_.trace_chrome.empty()) {
      std::ofstream file(flags_.trace_chrome);
      if (file) {
        obs::write_chrome_trace(tracer_, file);
        out << "(wrote Chrome trace " << flags_.trace_chrome << ")\n";
      } else {
        out << "(could not write Chrome trace " << flags_.trace_chrome
            << ")\n";
        ok = false;
      }
    }
    out << '\n';
    obs::print_summary(tracer_, out);
    return ok;
  }

 private:
  CommonFlags flags_;
  obs::Tracer tracer_;
};

inline void print_header(const std::string& title, const CommonFlags& f) {
  std::cout << "==== " << title << " ====\n"
            << "games/config=" << f.games << "  budget=" << f.budget
            << "s (virtual)  seed=" << f.seed << "\n"
            << "flags: --games N --budget SECONDS --seed N --csv --quick"
               " --trace FILE.jsonl --chrome-trace FILE.json"
               " --exec-threads N\n\n";
}

inline void emit(const util::Table& table, const CommonFlags& f,
                 const std::string& name = "") {
  table.print(std::cout);
  if (f.csv) {
    std::cout << "\n[csv]\n";
    table.print_csv(std::cout);
  }
  if (!f.out_dir.empty() && !name.empty()) {
    std::ofstream file(f.out_dir + "/" + name + ".csv");
    if (file) {
      table.print_csv(file);
      std::cout << "(wrote " << f.out_dir << "/" << name << ".csv)\n";
    } else {
      std::cout << "(could not write to " << f.out_dir << ")\n";
    }
  }
  std::cout << std::endl;
}

/// Pre-rendered JSON value for the BENCH_<name>.json artifacts below.
struct JsonValue {
  std::string raw;
};

[[nodiscard]] inline JsonValue jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // no control characters appear in bench strings
    } else {
      out += c;
    }
  }
  out += '"';
  return {out};
}

[[nodiscard]] inline JsonValue jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return {buf};
}

[[nodiscard]] inline JsonValue jint(std::uint64_t v) {
  return {std::to_string(v)};
}

[[nodiscard]] inline JsonValue jbool(bool v) {
  return {v ? "true" : "false"};
}

/// One flat JSON object: ordered key -> pre-rendered value pairs.
using JsonRow = std::vector<std::pair<std::string, JsonValue>>;

inline void write_json_object(std::ostream& out, const JsonRow& row,
                              const char* indent) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : row) {
    out << (first ? "\n" : ",\n") << indent << "  " << jstr(key).raw << ": "
        << value.raw;
    first = false;
  }
  out << "\n" << indent << "}";
}

/// Writes BENCH_<name>.json: top-level metadata plus an array of row
/// objects — the machine-readable artifact mirroring a bench's table so
/// drivers don't scrape stdout. Returns false after a diagnostic on I/O
/// failure.
inline bool write_bench_json(const std::string& name, const JsonRow& meta,
                             const std::string& rows_key,
                             const std::vector<JsonRow>& rows,
                             std::ostream& log = std::cout) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream file(path);
  if (!file) {
    log << "(could not write " << path << ")\n";
    return false;
  }
  file << "{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    file << (first ? "\n" : ",\n") << "  " << jstr(key).raw << ": "
         << value.raw;
    first = false;
  }
  file << (first ? "\n" : ",\n") << "  " << jstr(rows_key).raw << ": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    file << (i == 0 ? "\n    " : ",\n    ");
    write_json_object(file, rows[i], "    ");
  }
  file << (rows.empty() ? "]" : "\n  ]") << "\n}\n";
  log << "(wrote " << path << ")\n";
  return bool(file);
}

/// The paper's Figure 5/6 thread axis (1..14336). The full axis is heavy on
/// one host core (every playout really executes), so the default uses the
/// load-bearing subset — the growth region, the leaf saturation point, and
/// the full device; --full restores every point.
inline std::vector<int> thread_axis(bool full) {
  if (full) {
    return {1,  2,  4,   8,   16,  32,   64,   128,
            256, 512, 1024, 2048, 4096, 7168, 14336};
  }
  return {128, 1024, 14336};
}

}  // namespace gpu_mcts::bench
