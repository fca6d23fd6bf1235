// LayerTally: folds the virtual-time events an obs::Tracer collected during
// one traced operation into per-layer totals (driver phase spans, kernel
// launches and device-busy spans, overlap counters, the launch-wall and
// playout-length histograms).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

namespace obs = gpu_mcts::obs;

/// Per-layer totals over the traced ops; call absorb() after each op and
/// clear the tracer before the next.
struct LayerTally {
  std::uint64_t ops = 0;
  std::uint64_t launches = 0;
  std::uint64_t warps = 0;
  std::uint64_t warp_batch = 0;
  double launch_wall_us_sum = 0.0;
  double launch_wall_us_max = 0.0;
  std::uint64_t launch_wall_count = 0;
  double plies_sum = 0.0;
  std::uint64_t plies_count = 0;
  std::uint64_t kernel_rounds = 0;
  double overlap_iterations = 0.0;
  std::uint64_t combined_launches = 0;
  std::map<std::string, double> host_span_ms;
  double device_busy_ms = 0.0;

  void absorb(const obs::Tracer& tracer, int threads_per_block) {
    ops += 1;
    const double ms_per_cycle = 1000.0 / tracer.frequency_hz();
    double stream_kernel_ms = 0.0;
    double host_kernel_ms = 0.0;
    for (std::size_t t = 0; t < tracer.track_count(); ++t) {
      const int track = static_cast<int>(t);
      const std::string& name = tracer.track_name(track);
      const bool host = track == obs::Tracer::kHostTrack;
      const bool stream = name.rfind("gpu.s", 0) == 0;
      // Same-named spans pair first-in first-out: several serve riders
      // sharing one tracer open their "kernel" spans in stage order and
      // close them in the same order.
      std::map<std::string, std::vector<std::uint64_t>> open;
      std::map<std::string, std::size_t> head;
      bool last_kernel_was_begin = false;
      for (const obs::TraceEvent& e : tracer.track_events(track)) {
        const std::string ev = e.name;
        if (e.kind == obs::TraceEvent::Kind::kBegin) {
          open[ev].push_back(e.cycles);
          if (host && ev == "kernel") {
            if (!last_kernel_was_begin) combined_launches += 1;
            last_kernel_was_begin = true;
          }
          if (stream && ev == "kernel") {
            launches += 1;
            warps += static_cast<std::uint64_t>(e.args[0].value) *
                     static_cast<std::uint64_t>((threads_per_block + 31) / 32);
          }
        } else if (e.kind == obs::TraceEvent::Kind::kEnd) {
          auto& starts = open[ev];
          std::size_t& h = head[ev];
          if (h >= starts.size()) continue;
          const double ms =
              static_cast<double>(e.cycles - starts[h]) * ms_per_cycle;
          ++h;
          if (host) host_span_ms[ev] += ms;
          if (host && ev == "kernel") {
            host_kernel_ms += ms;
            last_kernel_was_begin = false;
          }
          if (stream && ev == "kernel") stream_kernel_ms += ms;
        } else if (e.kind == obs::TraceEvent::Kind::kInstant) {
          if (ev == "kernel_launch") {
            launches += 1;
            const double blocks = e.args[0].value;
            const double tpb = e.args[1].value;
            warps += static_cast<std::uint64_t>(blocks) *
                     static_cast<std::uint64_t>((static_cast<int>(tpb) + 31) / 32);
          }
        } else if (e.kind == obs::TraceEvent::Kind::kCounter) {
          if (host && ev == "overlap_iterations") overlap_iterations += e.value;
        }
      }
    }
    device_busy_ms += stream_kernel_ms > 0.0 ? stream_kernel_ms : host_kernel_ms;
    const obs::MetricsRegistry& m = tracer.metrics();
    if (const auto it = m.histograms().find("launch_wall_us");
        it != m.histograms().end()) {
      launch_wall_us_sum += it->second.sum();
      launch_wall_us_max = std::max(launch_wall_us_max, it->second.max());
      launch_wall_count += it->second.count();
    }
    if (const auto it = m.histograms().find("playout_plies");
        it != m.histograms().end()) {
      plies_sum += it->second.sum();
      plies_count += it->second.count();
    }
    if (const auto it = m.counters().find("warp_batch");
        it != m.counters().end()) {
      warp_batch += it->second.value();
    }
    if (const auto it = m.counters().find("kernel_rounds");
        it != m.counters().end()) {
      kernel_rounds += it->second.value();
    }
  }

  [[nodiscard]] double per_op(double total) const {
    return ops > 0 ? total / static_cast<double>(ops) : 0.0;
  }
};

}  // namespace perfbench
