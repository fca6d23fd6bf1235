// Device memory with explicit transfer accounting.
//
// The paper's kernels communicate through device arrays ("the results are
// written to an array in the GPU's memory (0 = loss, 1 = victory) and CPU
// reads the results back"). DeviceBuffer<T> models that: host code must
// upload() before a launch and download() after, and each transfer charges
// the controlling host clock PCIe latency + bandwidth from the cost model
// below. The storage itself lives host-side (this is a software device), but
// access discipline is enforced: reading device-dirty data without a
// download is a contract violation, which is exactly the bug class real
// CUDA code exhibits as stale-host-copy races.
//
// Dirtiness is tracked per element, and upload_range()/download_range()
// move just a slice, charging the clock for that slice's bytes only. This
// is what lets the pipelined hybrid round (DESIGN.md §10) stage one cohort's
// slots while a kernel is still in flight over the other cohort's —
// transfers and kernels touch disjoint element ranges, so the split is safe
// and the discipline check stays exact per slot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"

namespace gpu_mcts::simt {

/// PCIe-generation-2 era transfer costs (Tesla C2050 testbed).
struct TransferCosts {
  /// Host cycles of fixed latency per transfer (driver + DMA setup).
  double latency_cycles = 2.0e4;
  /// Host cycles per byte moved (~5.5 GB/s effective on PCIe 2.0 x16 at
  /// 2.93 GHz -> ~0.53 cycles/byte).
  double cycles_per_byte = 0.53;

  [[nodiscard]] constexpr std::uint64_t cost(std::size_t bytes) const noexcept {
    return static_cast<std::uint64_t>(
        latency_cycles + cycles_per_byte * static_cast<double>(bytes));
  }
};

template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "device memory holds trivially copyable records");

 public:
  explicit DeviceBuffer(std::size_t count, TransferCosts costs = {})
      : host_(count), device_(count), dirty_(count, 0), costs_(costs) {}

  [[nodiscard]] std::size_t size() const noexcept { return host_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return host_.size() * sizeof(T);
  }
  /// Transfer cost model (searchers that split one logical transfer across
  /// cohorts use this to reproduce the covering transfer's canonical charge).
  [[nodiscard]] const TransferCosts& costs() const noexcept { return costs_; }

  /// Host-side staging area (always accessible).
  [[nodiscard]] std::span<T> host() noexcept { return host_; }
  [[nodiscard]] std::span<const T> host() const noexcept { return host_; }

  /// Device-side view for kernels. Calling this marks the whole device copy
  /// dirty (kernels may write any of it); host() contents are stale until
  /// download() — or, for slots a launch provably didn't touch, until a
  /// download_range() covering the slots actually read.
  [[nodiscard]] std::span<T> device_view() noexcept {
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{1});
    dirty_count_ = dirty_.size();
    return device_;
  }

  /// Device-side view for a sliced launch that provably touches only
  /// [offset, offset+count): the *full* span is returned — grid slices
  /// index it by global block id — but only the range is marked dirty, so
  /// the other slice's slots keep their downloaded-clean state (a cohort
  /// retry must not re-poison its sibling's already-read results).
  [[nodiscard]] std::span<T> device_view_partial(std::size_t offset,
                                                 std::size_t count) {
    util::expects(offset <= size() && count <= size() - offset,
                  "device view range within buffer");
    for (std::size_t i = offset; i < offset + count; ++i) {
      if (dirty_[i] == 0) {
        dirty_[i] = 1;
        ++dirty_count_;
      }
    }
    return device_;
  }

  /// Points transfers at a fault injector (nullptr = transfers never fail,
  /// the default). The injector must outlive the buffer's transfers.
  void set_fault_injector(util::FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  void set_retry_policy(const util::RetryPolicy& retry) noexcept {
    retry_ = retry;
  }

  /// Copies host -> device, charging the clock. Injected transfer failures
  /// are retried with backoff; util::FaultError after the retry budget.
  void upload(util::VirtualClock& clock) {
    transfer_range(clock, /*is_download=*/false, 0, size());
    ++uploads_;
  }

  /// Copies device -> host, charging the clock. Injected failures and
  /// corrupt readbacks (detected, as by a CRC) are retried with backoff;
  /// util::FaultError after the retry budget.
  void download(util::VirtualClock& clock) {
    transfer_range(clock, /*is_download=*/true, 0, size());
    ++downloads_;
  }

  /// Copies host[offset, offset+count) -> device, charging the clock for a
  /// transfer of just those bytes. The range's elements become clean; the
  /// rest of the buffer keeps its dirtiness.
  void upload_range(util::VirtualClock& clock, std::size_t offset,
                    std::size_t count) {
    transfer_range(clock, /*is_download=*/false, offset, count);
    ++uploads_;
  }

  /// Copies device[offset, offset+count) -> host, charging the clock for a
  /// transfer of just those bytes; the range becomes clean.
  void download_range(util::VirtualClock& clock, std::size_t offset,
                      std::size_t count) {
    transfer_range(clock, /*is_download=*/true, offset, count);
    ++downloads_;
  }

  /// Host read of data the device may have modified requires a download
  /// first; this accessor enforces the discipline.
  [[nodiscard]] std::span<const T> host_checked() const {
    util::check(dirty_count_ == 0,
                "host read of device-dirty buffer (missing download)");
    return host_;
  }

  /// Range form of host_checked(): every element of the range must be clean
  /// (other ranges may still be dirty, e.g. under a kernel in flight).
  [[nodiscard]] std::span<const T> host_checked_range(std::size_t offset,
                                                      std::size_t count) const {
    util::expects(offset <= size() && count <= size() - offset,
                  "checked range within buffer");
    util::check(
        std::all_of(dirty_.begin() + static_cast<std::ptrdiff_t>(offset),
                    dirty_.begin() + static_cast<std::ptrdiff_t>(offset + count),
                    [](std::uint8_t d) { return d == 0; }),
        "host read of device-dirty range (missing download)");
    return std::span<const T>(host_).subspan(offset, count);
  }

  [[nodiscard]] bool device_dirty() const noexcept {
    return dirty_count_ != 0;
  }
  [[nodiscard]] std::uint64_t uploads() const noexcept { return uploads_; }
  [[nodiscard]] std::uint64_t downloads() const noexcept { return downloads_; }

 private:
  void transfer_range(util::VirtualClock& clock, bool is_download,
                      std::size_t offset, std::size_t count) {
    util::expects(offset <= size() && count <= size() - offset,
                  "transfer range within buffer");
    const std::uint64_t cycles = costs_.cost(count * sizeof(T));
    // The fast path (no injector) is exactly the original single copy; the
    // retry machinery only engages when faults can actually fire.
    if (injector_ == nullptr || !injector_->enabled()) {
      clock.advance(cycles);
      commit_range(is_download, offset, count);
      return;
    }
    const bool done = util::with_retry(
        retry_, clock, &injector_->log(), [&](int /*attempt*/) {
          clock.advance(cycles);
          if (injector_->transfer_fails(clock.cycles())) return false;
          if (is_download && injector_->readback_corrupted(clock.cycles())) {
            return false;
          }
          commit_range(is_download, offset, count);
          return true;
        });
    if (!done) {
      throw util::FaultError(is_download
                                 ? "device->host transfer failed after retries"
                                 : "host->device transfer failed after retries");
    }
  }

  void commit_range(bool is_download, std::size_t offset, std::size_t count) {
    const auto from = static_cast<std::ptrdiff_t>(offset);
    if (is_download) {
      std::copy_n(device_.begin() + from, count, host_.begin() + from);
    } else {
      std::copy_n(host_.begin() + from, count, device_.begin() + from);
    }
    for (std::size_t i = offset; i < offset + count; ++i) {
      if (dirty_[i] != 0) {
        dirty_[i] = 0;
        --dirty_count_;
      }
    }
  }

  std::vector<T> host_;
  std::vector<T> device_;
  /// Per-element device-dirtiness (1 = host copy stale for that slot).
  std::vector<std::uint8_t> dirty_;
  std::size_t dirty_count_ = 0;
  TransferCosts costs_;
  util::FaultInjector* injector_ = nullptr;
  util::RetryPolicy retry_;
  std::uint64_t uploads_ = 0;
  std::uint64_t downloads_ = 0;
};

}  // namespace gpu_mcts::simt
