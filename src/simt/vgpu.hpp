// VirtualGpu: the software SIMT device.
//
// Kernels run for real (every lane's computation is executed on the host),
// warp by warp in lockstep; the device *duration* is then derived from the
// execution traces by the timing model. Synchronous launches return a
// LaunchResult; asynchronous launches return an Event carrying the host-clock
// cycle at which the device will signal completion, enabling the paper's
// hybrid CPU/GPU overlap (Figure 4: "kernel execution call ... cpu can work
// here ... gpu ready event"). launch_async runs the grid eagerly on the
// caller before it returns, so the CPU iterations the synchronous hybrid
// round runs "during" the kernel follow it in wall time: that overlap is
// virtual only.
//
// Streams (DESIGN.md §10): launch_on enqueues a kernel on one of a small
// pool of streams, each backed by a dedicated worker thread, so the
// pipelined hybrid round's CPU iterations run beside its in-flight cohort
// kernels — overlap in wall time as well as virtual time. Modeled time is
// settled at wait(): the single modeled device retires stream kernels in
// wait order (start = max(enqueue, previous completion)), and per-stream
// "gpu.s<k>" trace tracks make the overlap visible in Chrome traces.
//
// Execution backend (DESIGN.md §9): blocks are independent, as on a real
// GPU, so the grid's participants claim blocks one at a time from an atomic
// cursor, run each block's warps, write the warps' traces into canonical
// slots, and commit the block's lanes (warp_finish / lane_finish) right
// away, with no staging and no wait on other blocks. The participants are
// the launching thread (the controller, or a stream worker for launch_on)
// and the threads - 1 threads of the device's util::ThreadPool, which poll
// for the next launch for a short window before they park, so a launch
// that follows the last one closely starts on threads that are already
// running. Modeled device cycles and divergence statistics are folded from
// the slots in canonical order, so they are bit-identical at any thread
// count; kernel outputs are too, because the kernel contract (kernel.hpp)
// makes a commit into a slot shared by several blocks independent of order.
// The default thread count is the number of CPUs the process may run on;
// threads == 1 runs the same block loop on the calling thread alone.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sched.h>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "simt/cost_model.hpp"
#include "simt/device_props.hpp"
#include "simt/geometry.hpp"
#include "simt/kernel.hpp"
#include "simt/timing.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace gpu_mcts::simt {

/// Completion handle for an asynchronous launch.
struct Event {
  /// Host-clock cycle at which the kernel (plus launch overhead) completes.
  std::uint64_t completion_host_cycle = 0;
  LaunchResult result;
};

/// Handle to one in-flight launch on a stream (VirtualGpu::launch_on).
/// Tickets of one stream complete in issue order; wait() consumes them in
/// that order.
struct StreamTicket {
  int stream = 0;
  std::uint64_t op = 0;

  [[nodiscard]] bool valid() const noexcept { return op != 0; }
};

/// A completed stream launch, returned by VirtualGpu::wait(). Carries the
/// raw warp traces so callers that split one logical grid across streams
/// (the pipelined hybrid round) can fold the *combined* launch's divergence
/// — the statistics are not additive across slices.
struct StreamLaunch {
  LaunchResult result;
  std::vector<WarpTrace> traces;
  /// Host cycle at which the launch was enqueued (after the enqueue charge).
  std::uint64_t enqueue_cycle = 0;
  /// Modeled device-busy interval in host-clock cycles: the kernel starts
  /// when both its enqueue has happened and the device has retired every
  /// earlier kernel (one device — kernels from all streams serialize).
  std::uint64_t device_start_cycle = 0;
  std::uint64_t completion_cycle = 0;
};

/// A synchronous launch that hands the raw warp traces back to the caller
/// (VirtualGpu::launch_traced). A multiplexer that packs several tenants'
/// blocks into one grid slices the traces to price what each tenant's own
/// launch would have cost, and finishes each tenant's launch with that
/// price (VirtualGpu::finish_launch) — so launch_traced itself emits no
/// "kernel_launch" instant. The vector is the caller's to rebase in place.
struct TracedLaunch {
  LaunchResult result;
  std::vector<WarpTrace> traces;
};

/// How a WarpKernel-capable kernel's warps execute (DESIGN.md §17). The
/// protocols are bit-identical by contract, so this is purely a wall-clock
/// choice — except kVerify, which buys the proof by running both.
enum class WarpBackend : std::uint8_t {
  kScalar = 0,   ///< always interpret lane-at-a-time (the reference path)
  kBatched = 1,  ///< run warps as SoA batches when the kernel supports it
  kVerify = 2,   ///< run both per warp and assert bitwise equality (debug)
};

[[nodiscard]] constexpr const char* warp_backend_name(WarpBackend b) noexcept {
  switch (b) {
    case WarpBackend::kScalar: return "scalar";
    case WarpBackend::kBatched: return "batched";
    case WarpBackend::kVerify: return "verify";
  }
  return "batched";
}

/// Backend from the GPU_MCTS_WARP_BACKEND environment variable
/// (scalar|batched|verify). Unset or unrecognized values take the batched
/// default: it is bit-identical to scalar by contract (and checked by the
/// verify backend under the sanitizer CI jobs), so defaulting to fast is
/// safe.
[[nodiscard]] inline WarpBackend warp_backend_from_env() {
  if (const char* env = std::getenv("GPU_MCTS_WARP_BACKEND")) {
    const std::string_view v(env);
    if (v == "scalar") return WarpBackend::kScalar;
    if (v == "verify") return WarpBackend::kVerify;
  }
  return WarpBackend::kBatched;
}

/// CPUs this process may run on: the size of its sched_getaffinity mask,
/// falling back to std::thread::hardware_concurrency(), clamped to
/// [1, 1024]. Honours taskset and cgroup cpusets where nproc does.
[[nodiscard]] inline int host_cpu_count() {
  int n = 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
  if (n < 1) n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 1024);
}

/// How the VirtualGpu executes a grid on the host. `threads == 1` runs
/// blocks sequentially on the calling thread; `threads > 1` lets up to that
/// many threads claim blocks, the launching thread included (from_env()
/// defaults to every host CPU).
/// Kernel outputs, warp traces, and device cycles are bit-identical either
/// way (the point of the backend is wall-clock speed, not modeled
/// behaviour), which requires kernels to follow the threaded contract in
/// kernel.hpp — true of every in-tree kernel.
struct ExecutionPolicy {
  int threads = 1;

  /// How warps of WarpKernel-capable kernels execute. Defaulted from the
  /// environment (not in from_env) so construction sites using designated
  /// initializers — ExecutionPolicy{.threads = n} — pick the knob up
  /// without plumbing.
  WarpBackend warp_backend = warp_backend_from_env();

  /// Policy from the GPU_MCTS_EXEC_THREADS environment variable (clamped to
  /// [1, 1024]); unset, every CPU the process may run on (host_cpu_count).
  /// Freshly constructed VirtualGpus start from this, so benches and
  /// examples use the host's cores without plumbing.
  [[nodiscard]] static ExecutionPolicy from_env() {
    ExecutionPolicy policy;
    if (const char* env = std::getenv("GPU_MCTS_EXEC_THREADS")) {
      const int n = std::atoi(env);
      policy.threads = n < 1 ? 1 : (n > 1024 ? 1024 : n);
    } else {
      policy.threads = host_cpu_count();
    }
    return policy;
  }
};

class VirtualGpu {
 public:
  /// Widest warp a device may declare: each worker keeps one warp's lane
  /// scratch on its stack, so execution allocates nothing (real devices
  /// run 32 or 64 lanes).
  static constexpr int kMaxWarpSize = 64;

  VirtualGpu(DeviceProperties dev, HostProperties host, CostModel cost)
      : dev_(dev), host_(host), cost_(cost) {
    util::expects(dev.warp_size >= 1 && dev.warp_size <= kMaxWarpSize,
                  "warp size within [1, kMaxWarpSize]");
  }

  VirtualGpu() : VirtualGpu(tesla_c2050(), xeon_x5670(), default_cost_model()) {}

  [[nodiscard]] const DeviceProperties& device() const noexcept { return dev_; }
  [[nodiscard]] const HostProperties& host() const noexcept { return host_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }

  /// Installs a fault injector (default: disabled). The injector travels
  /// with the VirtualGpu on copy, so every searcher owns an independent,
  /// deterministic fault schedule.
  void set_fault_injector(util::FaultInjector injector) noexcept {
    injector_ = std::move(injector);
  }
  [[nodiscard]] util::FaultInjector& fault_injector() noexcept {
    return injector_;
  }
  [[nodiscard]] const util::FaultInjector& fault_injector() const noexcept {
    return injector_;
  }

  /// Attaches an observability tracer: every launch emits a "kernel_launch"
  /// instant on the "gpu" track with grid geometry, modeled device cycles,
  /// and divergence waste. nullptr (the default) is zero-cost. The tracer is
  /// only touched from the launching thread — worker threads report through
  /// canonical per-block slots that are folded on the caller (DESIGN.md §9).
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    gpu_track_ = tracer != nullptr ? tracer->track("gpu") : 0;
    stream_tracks_.clear();
  }

  /// Selects the execution backend. Dropping to 1 thread releases the pool;
  /// raising the count re-creates it lazily on the next launch.
  void set_execution_policy(ExecutionPolicy policy) {
    util::expects(policy.threads >= 1, "execution threads >= 1");
    exec_ = policy;
    pool_.reset();
  }
  [[nodiscard]] const ExecutionPolicy& execution_policy() const noexcept {
    return exec_;
  }

  /// The worker pool backing threaded execution, or nullptr when the policy
  /// is sequential. Its worker_count() is policy.threads participants: the
  /// launching thread plus threads - 1 spawned ones. Lazily created; copies
  /// of this VirtualGpu made before first use each get their own pool,
  /// copies made after share it (the pool is thread-safe, and sharing keeps
  /// thread counts bounded).
  [[nodiscard]] util::ThreadPool* worker_pool() {
    if (exec_.threads <= 1) return nullptr;
    if (!pool_) {
      pool_ = std::make_shared<util::ThreadPool>(
          static_cast<std::size_t>(exec_.threads));
    }
    return pool_.get();
  }

  /// Executes the kernel over the grid, warp-lockstep within each warp.
  /// The caller's VirtualClock is advanced by launch overhead + device time
  /// (synchronous semantics: the host blocks until completion).
  ///
  /// Under fault injection the launch may fail (LaunchStatus::kFailed:
  /// nothing executed, only the driver overhead charged) or stall
  /// (kStalled: correct results, stall_multiplier device time).
  template <LaneKernel K>
  LaunchResult launch(const LaunchConfig& cfg, K& kernel,
                      util::VirtualClock& host_clock) {
    const std::uint64_t start_cycle = host_clock.cycles();
    if (injector_.kernel_launch_fails(host_clock.cycles())) {
      host_clock.advance(launch_overhead_cycles());
      LaunchResult failed;
      failed.status = LaunchStatus::kFailed;
      trace_launch(cfg, failed, start_cycle);
      return failed;
    }
    if (injector_.kernel_hangs(host_clock.cycles())) {
      // Synchronous semantics: the caller's watchdog interval elapses on the
      // virtual timeline (kernels execute inline here, so no real thread is
      // wedged — the stream path is where the genuine hang lives), then the
      // timeout surfaces. Nothing executed, no results produced.
      host_clock.advance(launch_overhead_cycles() +
                         hang_charge_cycles(host_clock,
                                            injector_.policy().hang_timeout_ms));
      LaunchResult hung;
      hung.status = LaunchStatus::kHungTimeout;
      trace_launch(cfg, hung, start_cycle);
      return hung;
    }
    LaunchResult result = execute_observed(cfg, kernel);
    apply_stall(result, host_clock);
    finish_launch(cfg, result, host_clock, start_cycle);
    return result;
  }

  /// The tail of every delivered synchronous launch: charges `result` to
  /// the host clock and emits its "kernel_launch" instant at
  /// `start_cycle`. A multiplexed launch (launch_traced) calls it once per
  /// tenant, on the tenant's own device and clock, with the tenant's priced
  /// slice — so a served search is charged and traced exactly as its own
  /// launch would be.
  void finish_launch(const LaunchConfig& cfg, const LaunchResult& result,
                     util::VirtualClock& host_clock,
                     std::uint64_t start_cycle) {
    host_clock.advance(host_cycles_for(result));
    trace_launch(cfg, result, start_cycle);
  }

  /// Synchronous launch that also returns the raw warp traces. Identical to
  /// launch() in every modeled respect — fault branches, stall handling,
  /// clock advance — but emits no "kernel_launch" trace event: a caller
  /// that multiplexes several logical launches into one grid finishes each
  /// of them itself (finish_launch; see parallel::driver::
  /// SessionCohortSource). On a fault branch the trace vector is empty
  /// (nothing executed).
  template <LaneKernel K>
  TracedLaunch launch_traced(const LaunchConfig& cfg, K& kernel,
                             util::VirtualClock& host_clock) {
    TracedLaunch out;
    if (injector_.kernel_launch_fails(host_clock.cycles())) {
      host_clock.advance(launch_overhead_cycles());
      out.result.status = LaunchStatus::kFailed;
      return out;
    }
    if (injector_.kernel_hangs(host_clock.cycles())) {
      host_clock.advance(launch_overhead_cycles() +
                         hang_charge_cycles(host_clock,
                                            injector_.policy().hang_timeout_ms));
      out.result.status = LaunchStatus::kHungTimeout;
      return out;
    }
    validate(cfg, dev_);
    StreamExecution exec = execute_traced(
        cfg, kernel, cfg.blocks > 1 ? worker_pool() : nullptr);
    if (tracer_ != nullptr) {
      observe_warp_batch<K>(cfg);
      observe_launch_wall(exec.wall_us);
    }
    out.result = exec.result;
    out.traces = std::move(exec.traces);
    apply_stall(out.result, host_clock);
    host_clock.advance(host_cycles_for(out.result));
    return out;
  }

  /// Asynchronous launch: the grid runs to completion on the calling thread
  /// (and the worker pool) before this returns — results are deterministic
  /// and do not depend on host progress — but the host clock is only
  /// charged the call overhead. The returned Event tells the caller when the
  /// device is done in virtual time; wait_for() advances the host clock to
  /// that point. CPU work the caller does before wait_for() overlaps the
  /// kernel on the virtual clock only: in wall time it follows the grid.
  ///
  /// An injected launch failure surfaces at the event: the Event completes
  /// immediately with result.status == kFailed (a real driver reports the
  /// error at the next synchronization point).
  template <LaneKernel K>
  Event launch_async(const LaunchConfig& cfg, K& kernel,
                     util::VirtualClock& host_clock) {
    // The call itself costs the enqueue half of the overhead; the other half
    // is paid at synchronization (event query + readback), matching how CUDA
    // driver costs split across cudaLaunch / cudaEventSynchronize. The two
    // halves sum to launch_overhead_cycles() exactly, odd overheads included.
    const std::uint64_t start_cycle = host_clock.cycles();
    if (injector_.kernel_launch_fails(host_clock.cycles())) {
      host_clock.advance(enqueue_overhead_cycles());
      Event ev;
      ev.result.status = LaunchStatus::kFailed;
      ev.completion_host_cycle = host_clock.cycles();
      trace_launch(cfg, ev.result, start_cycle);
      return ev;
    }
    if (injector_.kernel_hangs(host_clock.cycles())) {
      // Like a launch failure, a hang surfaces at the synchronization point;
      // the watchdog interval is charged up front (the controlling thread
      // spent it discovering the kernel would never signal).
      host_clock.advance(enqueue_overhead_cycles() +
                         hang_charge_cycles(host_clock,
                                            injector_.policy().hang_timeout_ms));
      Event ev;
      ev.result.status = LaunchStatus::kHungTimeout;
      ev.completion_host_cycle = host_clock.cycles();
      trace_launch(cfg, ev.result, start_cycle);
      return ev;
    }
    LaunchResult result = execute_observed(cfg, kernel);
    apply_stall(result, host_clock);
    host_clock.advance(enqueue_overhead_cycles());
    Event ev;
    ev.result = result;
    ev.completion_host_cycle =
        host_clock.cycles() +
        static_cast<std::uint64_t>(cost_.device_to_host_cycles(
            result.device_cycles, dev_, host_));
    trace_launch(cfg, ev.result, start_cycle);
    return ev;
  }

  /// True when the event has completed at the host clock's current time —
  /// the "checks for the GPU kernel completion" poll of the hybrid scheme.
  [[nodiscard]] static bool query(const Event& ev,
                                  const util::VirtualClock& host_clock) {
    return host_clock.cycles() >= ev.completion_host_cycle;
  }

  /// Blocks (advances the host clock) until the event completes, then charges
  /// the synchronization half of the launch overhead.
  void wait_for(const Event& ev, util::VirtualClock& host_clock) const {
    host_clock.advance_to(ev.completion_host_cycle);
    host_clock.advance(sync_overhead_cycles());
  }

  /// Stream slots available to launch_on (CUDA-style small fixed pool).
  static constexpr int kMaxStreams = 8;

  /// Enqueues the kernel on a stream and returns a ticket without blocking.
  /// Unlike launch_async (which executes eagerly on the caller), the grid
  /// runs on the stream's dedicated worker thread, concurrently with the
  /// caller — which is where the pipelined hybrid round gets its wall-clock
  /// overlap. Launches on one stream run in
  /// issue order, and wait() must consume a stream's tickets in that order.
  ///
  /// The kernel object is captured by reference: it must stay alive, and its
  /// inputs/outputs must not be touched by the caller, until wait() returns
  /// this ticket's StreamLaunch (the future inside wait() is the
  /// synchronization point). Grids with more than one block use the worker
  /// pool when the execution policy is threaded, with the stream's worker
  /// thread as the launching participant — the pool is shared by every
  /// launch of this device and serves concurrent launches in arrival order.
  ///
  /// The host clock is charged the enqueue half of the launch overhead.
  /// Fault draws (launch failure, stall) happen here, on the controlling
  /// thread in enqueue order, so fault schedules stay deterministic; an
  /// injected failure executes nothing and surfaces at wait(), like a real
  /// driver reporting at the next synchronization point.
  template <LaneKernel K>
  StreamTicket launch_on(int stream, const LaunchConfig& cfg, K& kernel,
                         util::VirtualClock& host_clock) {
    validate(cfg, dev_);
    StreamSet& streams = stream_set();
    util::expects(stream >= 0 && stream < kMaxStreams, "stream id in range");
    PendingStreamLaunch pending;
    pending.op = ++streams.next_op;
    pending.cfg = cfg;
    const std::uint64_t draw_cycle = host_clock.cycles();
    if (injector_.kernel_launch_fails(draw_cycle)) {
      pending.failed = true;
    } else if (injector_.kernel_hangs(draw_cycle)) {
      // A hang genuinely wedges the stream's worker thread: the task blocks
      // on a gate only the watchdog (wait_for) releases. Launches enqueued
      // behind it on the same stream stay queued, exactly like work behind a
      // hung kernel on a real stream. The task deliberately captures no
      // kernel reference — by the time the gate opens the controller may
      // have reused or destroyed the kernel.
      pending.hung = true;
      pending.gate = std::make_shared<HangGate>();
      std::packaged_task<StreamExecution()> task(
          [gate = pending.gate] {
            gate->wait_released();
            return StreamExecution{};
          });
      pending.execution = task.get_future();
      streams.enqueue(stream, std::move(task));
    } else {
      pending.stalled = injector_.kernel_stalls(draw_cycle);
      util::ThreadPool* pool = cfg.blocks > 1 ? worker_pool() : nullptr;
      std::packaged_task<StreamExecution()> task(
          [this, cfg, &kernel, pool] { return execute_traced(cfg, kernel, pool); });
      pending.execution = task.get_future();
      streams.enqueue(stream, std::move(task));
      // Backend accounting happens here on the controlling thread (the
      // tracer is controller-only); the wall-time histogram is observed at
      // wait(), once the worker has measured the grid.
      if (tracer_ != nullptr) observe_warp_batch<K>(cfg);
    }
    host_clock.advance(enqueue_overhead_cycles());
    pending.enqueue_cycle = host_clock.cycles();
    const StreamTicket ticket{stream, pending.op};
    streams.pending[static_cast<std::size_t>(stream)].push_back(
        std::move(pending));
    return ticket;
  }

  /// Retires a stream's oldest in-flight launch (tickets are FIFO per
  /// stream — enforced). Blocks the calling thread until the worker is done,
  /// then settles modeled time: the device serializes kernels across
  /// streams, so the kernel starts at max(its enqueue cycle, the previous
  /// kernel's completion) and the host clock advances to its completion plus
  /// the synchronization half of the launch overhead. Emits the per-stream
  /// "kernel" span (track "gpu.s<k>") so Chrome traces show the overlap.
  StreamLaunch wait(const StreamTicket& ticket,
                    util::VirtualClock& host_clock) {
    return wait_for(ticket, host_clock, injector_.policy().hang_timeout_ms);
  }

  /// wait() with an explicit hang-watchdog bound: if the launch was an
  /// injected hang, the calling thread waits at most ~wall_timeout_ms of
  /// *real* time, then releases the wedged worker (clean teardown — the
  /// stream drains and stays usable) and surfaces LaunchStatus::kHungTimeout
  /// with the timeout charged to the virtual clock. Ordinary launches are
  /// settled identically to wait() — the timeout only ever fires for hangs,
  /// so a conservative bound costs nothing on the happy path. Callers under
  /// a wall deadline clamp the bound to their remaining wall time.
  StreamLaunch wait_for(const StreamTicket& ticket,
                        util::VirtualClock& host_clock,
                        double wall_timeout_ms) {
    StreamSet& streams = stream_set();
    util::expects(ticket.stream >= 0 && ticket.stream < kMaxStreams,
                  "stream id in range");
    auto& queue = streams.pending[static_cast<std::size_t>(ticket.stream)];
    util::expects(!queue.empty() && queue.front().op == ticket.op,
                  "stream tickets waited in issue order");
    PendingStreamLaunch pending = std::move(queue.front());
    queue.pop_front();

    StreamLaunch done;
    done.enqueue_cycle = pending.enqueue_cycle;
    if (pending.hung) {
      // The worker really is wedged behind the gate, so the watchdog
      // interval elapses in real time; then teardown: open the gate, join
      // the (now trivial) execution so the worker thread is provably past
      // the task before we return, and report the timeout.
      if (wall_timeout_ms > 0.0) {
        (void)pending.execution.wait_for(
            std::chrono::duration<double, std::milli>(wall_timeout_ms));
      }
      pending.gate->release();
      (void)pending.execution.get();
      done.result.status = LaunchStatus::kHungTimeout;
      done.device_start_cycle = pending.enqueue_cycle;
      done.completion_cycle = pending.enqueue_cycle;
      host_clock.advance_to(pending.enqueue_cycle);
      host_clock.advance(hang_charge_cycles(host_clock, wall_timeout_ms) +
                         sync_overhead_cycles());
      trace_stream_wait(ticket.stream, pending.cfg, done);
      return done;
    }
    if (pending.failed) {
      done.result.status = LaunchStatus::kFailed;
      done.device_start_cycle = pending.enqueue_cycle;
      done.completion_cycle = pending.enqueue_cycle;
      host_clock.advance_to(pending.enqueue_cycle);
      host_clock.advance(sync_overhead_cycles());
      trace_stream_wait(ticket.stream, pending.cfg, done);
      return done;
    }
    // Worker handoff point — unless peek_completion() already resolved the
    // future, in which case the cached execution is consumed instead.
    StreamExecution exec =
        pending.resolved ? std::move(pending.exec) : pending.execution.get();
    if (tracer_ != nullptr) observe_launch_wall(exec.wall_us);
    done.result = exec.result;
    done.traces = std::move(exec.traces);
    if (pending.stalled) {
      done.result.device_cycles *= injector_.policy().stall_multiplier;
      done.result.status = LaunchStatus::kStalled;
    }
    done.device_start_cycle =
        std::max(pending.enqueue_cycle, streams.device_busy_until);
    done.completion_cycle =
        done.device_start_cycle +
        static_cast<std::uint64_t>(cost_.device_to_host_cycles(
            done.result.device_cycles, dev_, host_));
    streams.device_busy_until = done.completion_cycle;
    host_clock.advance_to(done.completion_cycle);
    host_clock.advance(sync_overhead_cycles());
    trace_stream_wait(ticket.stream, pending.cfg, done);
    return done;
  }

  /// Stream-rotation helper for overlapped schedules: the completion cycle
  /// wait() would settle this ticket to if called now, without retiring the
  /// ticket or advancing any clock. The ticket must be its stream's oldest
  /// in-flight launch (the one wait() would consume). For an injected launch
  /// failure the "completion" is the enqueue cycle — the caller's poll loop
  /// then runs zero overlap iterations and the failure surfaces at wait().
  ///
  /// This is the synchronization point with the stream worker: the execution
  /// future is resolved (and cached, so the eventual wait() is non-blocking)
  /// to learn the kernel's modeled duration. The device timeline is not
  /// touched — callers that retire tickets in rotation order (the pipelined
  /// hybrid round) have already waited every earlier kernel, so
  /// max(enqueue, device_busy_until) + duration is exact.
  [[nodiscard]] std::uint64_t peek_completion(const StreamTicket& ticket) {
    StreamSet& streams = stream_set();
    util::expects(ticket.stream >= 0 && ticket.stream < kMaxStreams,
                  "stream id in range");
    auto& queue = streams.pending[static_cast<std::size_t>(ticket.stream)];
    util::expects(!queue.empty() && queue.front().op == ticket.op,
                  "peek the stream's oldest in-flight ticket");
    PendingStreamLaunch& pending = queue.front();
    // Failed and hung launches "complete" at their enqueue cycle: the poll
    // loop runs zero overlap iterations and the fault surfaces at wait()/
    // wait_for(). Resolving a hung future here would block forever.
    if (pending.failed || pending.hung) return pending.enqueue_cycle;
    if (!pending.resolved) {
      pending.exec = pending.execution.get();
      pending.resolved = true;
    }
    double device_cycles = pending.exec.result.device_cycles;
    if (pending.stalled) device_cycles *= injector_.policy().stall_multiplier;
    const std::uint64_t start =
        std::max(pending.enqueue_cycle, streams.device_busy_until);
    return start + static_cast<std::uint64_t>(
                       cost_.device_to_host_cycles(device_cycles, dev_, host_));
  }

  /// Resets the modeled device timeline for stream launches. Call at search
  /// start: each choose_move restarts its virtual clock at zero, so a stale
  /// busy-until horizon from a previous search would push every completion
  /// into the far future. Requires no launches in flight.
  void reset_stream_timeline() {
    if (!streams_) return;
    for (const auto& queue : streams_->pending) {
      util::expects(queue.empty(), "no stream launches in flight across searches");
    }
    streams_->device_busy_until = 0;
  }

  /// Host cycles a synchronous launch costs in total.
  [[nodiscard]] std::uint64_t host_cycles_for(
      const LaunchResult& result) const noexcept {
    return launch_overhead_cycles() +
           static_cast<std::uint64_t>(cost_.device_to_host_cycles(
               result.device_cycles, dev_, host_));
  }

  /// Total driver overhead of one launch, in host cycles.
  [[nodiscard]] std::uint64_t launch_overhead_cycles() const noexcept {
    return static_cast<std::uint64_t>(cost_.launch_overhead_host_cycles);
  }
  /// Enqueue half of the overhead (charged by launch_async).
  [[nodiscard]] std::uint64_t enqueue_overhead_cycles() const noexcept {
    return launch_overhead_cycles() / 2;
  }
  /// Synchronization half (charged by wait_for); enqueue + sync ==
  /// launch_overhead_cycles() exactly, even for odd overheads.
  [[nodiscard]] std::uint64_t sync_overhead_cycles() const noexcept {
    return launch_overhead_cycles() - launch_overhead_cycles() / 2;
  }
  /// Virtual cycles a surfaced hang costs the controlling thread: the
  /// watchdog interval itself, converted at the waiting clock's rate. The
  /// virtual timeline stays honest — time spent discovering that a kernel
  /// will never finish is time not spent searching.
  [[nodiscard]] static std::uint64_t hang_charge_cycles(
      const util::VirtualClock& clock, double timeout_ms) noexcept {
    return clock.to_cycles(std::max(timeout_ms, 0.0) / 1000.0);
  }

 private:
  /// Emits the per-launch trace instant (no-op without a tracer attached).
  void trace_launch(const LaunchConfig& cfg, const LaunchResult& result,
                    std::uint64_t start_cycle) {
    if (tracer_ == nullptr) return;
    const char* name = result.status == LaunchStatus::kFailed
                           ? "kernel_launch_failed"
                       : result.status == LaunchStatus::kHungTimeout
                           ? "kernel_hung"
                           : "kernel_launch";
    tracer_->instant(
        gpu_track_, name, start_cycle,
        {{"blocks", static_cast<double>(cfg.blocks)},
         {"threads_per_block", static_cast<double>(cfg.threads_per_block)},
         {"device_cycles", static_cast<double>(result.device_cycles)},
         {"divergence", result.stats.divergence_waste()}});
    tracer_->metrics().histogram("kernel_divergence", {0.01, 0.02, 0.05, 0.1,
                                                       0.2, 0.3, 0.5, 0.75})
        .observe(result.stats.divergence_waste());
  }

  /// Converts an injected stall into extra device time on the result.
  void apply_stall(LaunchResult& result, const util::VirtualClock& clock) {
    if (injector_.kernel_stalls(clock.cycles())) {
      result.device_cycles *= injector_.policy().stall_multiplier;
      result.status = LaunchStatus::kStalled;
    }
  }

  /// A warp kernel's batched warp state; an empty stand-in for plain lane
  /// kernels, which never run batched.
  template <typename K>
  struct WarpStateOf {
    struct type {};
  };
  template <WarpKernel K>
  struct WarpStateOf<K> {
    using type = typename K::WarpState;
  };

  /// One worker's scratch for executing warps, on its stack and reused for
  /// every block it claims.
  template <LaneKernel K>
  struct WarpScratch {
    std::array<typename K::LaneState, kMaxWarpSize> lanes;
    std::array<LaneId, kMaxWarpSize> ids;
    std::array<bool, kMaxWarpSize> active;
    typename WarpStateOf<K>::type warp;
  };

  /// Runs one warp in lockstep: one pass over the warp = one warp-step; the
  /// warp retires when no lane remains active (divergent lanes idle, costing
  /// slots). Leaves the retired lane states in `scratch.lanes` for the
  /// caller to commit through lane_finish.
  template <LaneKernel K>
  WarpTrace run_warp(const LaunchConfig& cfg, K& kernel, int block, int warp,
                     WarpScratch<K>& scratch) const {
    const int first_thread = warp * dev_.warp_size;
    const int lanes_here =
        std::min(dev_.warp_size, cfg.threads_per_block - first_thread);

    for (int lane = 0; lane < lanes_here; ++lane) {
      scratch.ids[lane] = make_lane_id(cfg, dev_, block, first_thread + lane);
      scratch.lanes[lane] = kernel.make_lane(scratch.ids[lane]);
      scratch.active[lane] = true;
    }

    WarpTrace trace;
    trace.block = cfg.block_offset + block;
    trace.warp_in_block = warp;
    trace.lanes = lanes_here;

    bool any_active = lanes_here > 0;
    while (any_active) {
      any_active = false;
      std::uint32_t active_this_step = 0;
      for (int lane = 0; lane < lanes_here; ++lane) {
        if (!scratch.active[lane]) continue;
        ++active_this_step;
        if (!kernel.lane_step(scratch.lanes[lane])) {
          scratch.active[lane] = false;
        } else {
          any_active = true;
        }
      }
      trace.steps += 1;
      trace.active_lane_steps += active_this_step;
      // A lane's final step (the one returning false) still occupies its
      // slot, hence counting before deactivation above.
    }
    return trace;
  }

  /// Below this many threads per block, kBatched launches keep the scalar
  /// interpreter: the SoA sweeps stride the full batch width, so a warp
  /// with a handful of live lanes pays vector-register setup for lanes
  /// that do not exist (measured ~0.3-0.9x at 1-4 lanes, >=1.3x from 8
  /// up). The cut is a function of the launch shape only — deterministic,
  /// and both protocols are bit-identical anyway, so it is purely a
  /// wall-clock decision. kVerify ignores it: verification should cover
  /// narrow warps precisely because they are the edge case.
  static constexpr int kMinBatchedBlockWidth = 8;

  /// True when this kernel's warps go through the batched protocol: the
  /// policy asks for it (batched or verify), the kernel's SoA width
  /// covers the device's warps, and the launch is wide enough for the
  /// batch sweeps to pay (see kMinBatchedBlockWidth). Anything else —
  /// scalar policy, a plain LaneKernel, a device with wider warps than
  /// the kernel batches, a sliver of a grid — falls back to the scalar
  /// interpreter.
  template <typename K>
  [[nodiscard]] bool warp_batched_for(const LaunchConfig& cfg) const noexcept {
    if constexpr (WarpKernel<K>) {
      switch (exec_.warp_backend) {
        case WarpBackend::kScalar: return false;
        case WarpBackend::kVerify: return dev_.warp_size <= K::kWarpWidth;
        case WarpBackend::kBatched:
          return dev_.warp_size <= K::kWarpWidth &&
                 cfg.threads_per_block >= kMinBatchedBlockWidth;
      }
      return false;
    } else {
      return false;
    }
  }

  /// The grid slice warp `warp` of block `block` covers.
  [[nodiscard]] WarpSpan warp_span_for(const LaunchConfig& cfg, int block,
                                       int warp) const noexcept {
    const int first_thread = warp * dev_.warp_size;
    return WarpSpan{
        make_lane_id(cfg, dev_, block, first_thread),
        std::min(dev_.warp_size, cfg.threads_per_block - first_thread)};
  }

  /// Batched counterpart of run_warp: the kernel advances all lanes as one
  /// SoA unit, and the per-step entry masks it returns reproduce the scalar
  /// loop's counting exactly (a lane's final step is in its mask), so the
  /// derived WarpTrace — and everything downstream: device cycles,
  /// divergence stats, trace events — is bit-identical by construction.
  /// Leaves the retired WarpState in `state`; the caller commits it through
  /// warp_finish.
  template <WarpKernel K>
  WarpTrace run_warp_batched(const LaunchConfig& cfg, K& kernel, int block,
                             int warp, typename K::WarpState& state) const {
    const WarpSpan span = warp_span_for(cfg, block, warp);
    state = kernel.make_warp(span);
    WarpTrace trace;
    trace.block = cfg.block_offset + block;
    trace.warp_in_block = warp;
    trace.lanes = span.lanes;
    for (;;) {
      const std::uint32_t mask = kernel.warp_step(state);
      if (mask == 0) break;
      trace.steps += 1;
      trace.active_lane_steps +=
          static_cast<std::uint64_t>(std::popcount(mask));
    }
    return trace;
  }

  /// Verify backend: run the warp both ways and assert bitwise equality —
  /// the trace (hence device cycles and divergence) and, when the lane
  /// state is equality-comparable, every retired lane. The batched state
  /// is left in `scratch.warp` for the commit; the lane comparison is what
  /// proves warp_finish and the scalar lane_finish loop would commit the
  /// same values. Violations throw/abort through util::expects.
  template <WarpKernel K>
  WarpTrace run_warp_verified(const LaunchConfig& cfg, K& kernel, int block,
                              int warp, WarpScratch<K>& scratch) const {
    const WarpTrace batched =
        run_warp_batched(cfg, kernel, block, warp, scratch.warp);
    const WarpTrace scalar = run_warp(cfg, kernel, block, warp, scratch);
    util::expects(batched.steps == scalar.steps &&
                      batched.active_lane_steps == scalar.active_lane_steps &&
                      batched.lanes == scalar.lanes,
                  "warp backend verify: batched trace != scalar trace");
    if constexpr (std::equality_comparable<typename K::LaneState>) {
      for (int lane = 0; lane < scalar.lanes; ++lane) {
        util::expects(
            kernel.lane_state_of(scratch.warp, lane) == scratch.lanes[lane],
            "warp backend verify: batched lane state != scalar lane state");
      }
    }
    return batched;
  }

  /// Runs every warp of the grid and derives timing from the traces.
  template <LaneKernel K>
  LaunchResult execute(const LaunchConfig& cfg, K& kernel) {
    validate(cfg, dev_);
    const std::vector<WarpTrace> traces =
        execute_blocks(cfg, kernel, cfg.blocks > 1 ? worker_pool() : nullptr);
    LaunchResult result;
    result.device_cycles = device_cycles_for(traces, cfg, dev_, cost_);
    result.stats = aggregate_stats(traces, dev_);
    return result;
  }

  /// execute() plus the §17 backend observability: with a tracer attached,
  /// counts batched warps and observes the grid's host wall time. Without
  /// one this is exactly execute() — no clocks read, no metrics touched.
  template <LaneKernel K>
  LaunchResult execute_observed(const LaunchConfig& cfg, K& kernel) {
    if (tracer_ == nullptr) return execute(cfg, kernel);
    const auto t0 = std::chrono::steady_clock::now();
    LaunchResult result = execute(cfg, kernel);
    const auto t1 = std::chrono::steady_clock::now();
    observe_warp_batch<K>(cfg);
    observe_launch_wall(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    return result;
  }

  /// Counts warps executed through the batched protocol (tracer known
  /// non-null; call sites gate).
  template <typename K>
  void observe_warp_batch(const LaunchConfig& cfg) {
    if (!warp_batched_for<K>(cfg)) return;
    tracer_->metrics().counter("warp_batch").add(
        static_cast<std::uint64_t>(cfg.total_warps(dev_)));
  }

  /// Host wall time of one grid execution, in microseconds (tracer known
  /// non-null; call sites gate). This is where backend wins show up — the
  /// modeled device cycles are backend-invariant by design.
  void observe_launch_wall(double wall_us) {
    tracer_->metrics()
        .histogram("launch_wall_us", {10, 20, 50, 100, 200, 500, 1000, 2000,
                                      5000, 10000, 20000, 50000})
        .observe(wall_us);
  }

  /// Runs every block of the grid and returns the warps' traces in
  /// canonical block-major slots (traces[block * warps_per_block + warp]).
  /// Without a pool the calling thread runs the blocks in order; with one,
  /// min(participants, blocks) claim loops, the first on the calling
  /// thread, each claim the next block from an atomic cursor until none is
  /// left. Whoever runs a block also commits it (run_block), so nothing is
  /// staged and no worker waits on another. A worker that throws stops
  /// claiming; the others drain the cursor, and the pool rethrows the first
  /// exception on the caller.
  template <LaneKernel K>
  std::vector<WarpTrace> execute_blocks(const LaunchConfig& cfg, K& kernel,
                                        util::ThreadPool* pool) const {
    const auto warps = static_cast<std::size_t>(cfg.warps_per_block(dev_));
    std::vector<WarpTrace> traces(
        static_cast<std::size_t>(cfg.total_warps(dev_)));
    std::atomic<int> next_block{0};
    const auto claim_blocks = [&] {
      WarpScratch<K> scratch;
      for (int block = next_block.fetch_add(1, std::memory_order_relaxed);
           block < cfg.blocks;
           block = next_block.fetch_add(1, std::memory_order_relaxed)) {
        run_block(cfg, kernel, block,
                  traces.data() + static_cast<std::size_t>(block) * warps,
                  scratch);
      }
    };
    if (pool == nullptr) {
      claim_blocks();
    } else {
      pool->parallel_for(
          std::min(pool->worker_count(), static_cast<std::size_t>(cfg.blocks)),
          [&](std::size_t) { claim_blocks(); });
    }
    return traces;
  }

  /// Runs one block's warps in order into `traces[0, warps_per_block)` and
  /// commits each warp as it retires: warp_finish when batched, else
  /// lane_finish lane by lane. All of a block's commits thus come from one
  /// thread in lane order, as kernel.hpp's threaded contract promises.
  template <LaneKernel K>
  void run_block(const LaunchConfig& cfg, K& kernel, int block,
                 WarpTrace* traces, WarpScratch<K>& scratch) const {
    const int warps = cfg.warps_per_block(dev_);
    for (int warp = 0; warp < warps; ++warp) {
      if constexpr (WarpKernel<K>) {
        if (warp_batched_for<K>(cfg)) {
          traces[warp] =
              exec_.warp_backend == WarpBackend::kVerify
                  ? run_warp_verified(cfg, kernel, block, warp, scratch)
                  : run_warp_batched(cfg, kernel, block, warp, scratch.warp);
          kernel.warp_finish(scratch.warp, warp_span_for(cfg, block, warp));
          continue;
        }
      }
      traces[warp] = run_warp(cfg, kernel, block, warp, scratch);
      for (int lane = 0; lane < traces[warp].lanes; ++lane) {
        kernel.lane_finish(scratch.lanes[lane], scratch.ids[lane]);
      }
    }
  }

  /// What a stream worker hands back for one launch: the kernel's launch
  /// result plus the raw warp traces (wait() forwards them on StreamLaunch).
  struct StreamExecution {
    LaunchResult result;
    std::vector<WarpTrace> traces;
    /// Host wall microseconds the grid took on the worker; 0 when the
    /// controller had no tracer attached at enqueue (nothing was timed).
    double wall_us = 0.0;
  };

  /// Blocks the stream worker of an injected hang until the watchdog
  /// releases it. Shared between the wedged task and the pending entry so
  /// the task holds no reference to the kernel (which the controller is free
  /// to reuse once the timeout surfaces).
  struct HangGate {
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;

    void release() {
      {
        const std::lock_guard lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
    void wait_released() {
      std::unique_lock lock(mutex);
      cv.wait(lock, [this] { return released; });
    }
  };

  /// One enqueued-but-not-yet-waited stream launch. Touched only by the
  /// controlling thread; the future is the sole synchronization point with
  /// the stream worker.
  struct PendingStreamLaunch {
    std::uint64_t op = 0;
    LaunchConfig cfg;
    std::uint64_t enqueue_cycle = 0;
    bool failed = false;   ///< injected launch failure — nothing enqueued
    bool stalled = false;  ///< injected stall — applied at wait()
    bool hung = false;     ///< injected hang — surfaces via wait_for's watchdog
    std::shared_ptr<HangGate> gate;          ///< set iff `hung`
    std::future<StreamExecution> execution;  ///< invalid when `failed`
    /// peek_completion() resolved the future early; `exec` holds the result.
    bool resolved = false;
    StreamExecution exec;
  };

  /// The stream machinery: one FIFO worker thread per used stream, plus the
  /// modeled device timeline those streams feed. Held by shared_ptr like the
  /// worker pool — lazily created, so copies of this VirtualGpu made before
  /// first stream use each get their own streams; copies made after share
  /// them (and the single modeled device).
  class StreamSet {
   public:
    explicit StreamSet(int streams)
        : pending(static_cast<std::size_t>(streams)),
          workers_(static_cast<std::size_t>(streams)) {}

    ~StreamSet() {
      // A hung launch that was never waited (e.g. an exception unwound past
      // its wait_for) still wedges its worker; open every gate so the joins
      // below cannot deadlock.
      for (auto& queue : pending) {
        for (auto& p : queue) {
          if (p.gate) p.gate->release();
        }
      }
      for (auto& slot : workers_) {
        if (!slot) continue;
        {
          const std::lock_guard lock(slot->mutex);
          slot->stopping = true;
        }
        slot->cv.notify_all();
        slot->thread.join();
      }
    }

    StreamSet(const StreamSet&) = delete;
    StreamSet& operator=(const StreamSet&) = delete;

    void enqueue(int stream, std::packaged_task<StreamExecution()> task) {
      Worker& w = worker(stream);
      {
        const std::lock_guard lock(w.mutex);
        w.queue.push_back(std::move(task));
      }
      w.cv.notify_one();
    }

    /// Ticket id source (never hands out 0, so default tickets are invalid).
    std::uint64_t next_op = 0;
    /// In-flight launches per stream, oldest first. Controller thread only.
    std::vector<std::deque<PendingStreamLaunch>> pending;
    /// Host cycle until which the modeled device is busy retiring earlier
    /// stream kernels. Controller thread only.
    std::uint64_t device_busy_until = 0;

   private:
    struct Worker {
      std::thread thread;
      std::mutex mutex;
      std::condition_variable cv;
      std::deque<std::packaged_task<StreamExecution()>> queue;
      bool stopping = false;
    };

    /// Returns the stream's worker, spawning its thread on first use (a
    /// stream that is never launched on costs nothing).
    Worker& worker(int stream) {
      auto& slot = workers_[static_cast<std::size_t>(stream)];
      if (!slot) {
        slot = std::make_unique<Worker>();
        Worker* w = slot.get();
        w->thread = std::thread([w] {
          for (;;) {
            std::packaged_task<StreamExecution()> task;
            {
              std::unique_lock lock(w->mutex);
              w->cv.wait(lock,
                         [w] { return w->stopping || !w->queue.empty(); });
              if (w->queue.empty()) return;  // stopping and drained
              task = std::move(w->queue.front());
              w->queue.pop_front();
            }
            task();
          }
        });
      }
      return *slot;
    }

    std::vector<std::unique_ptr<Worker>> workers_;
  };

  [[nodiscard]] StreamSet& stream_set() {
    if (!streams_) streams_ = std::make_shared<StreamSet>(kMaxStreams);
    return *streams_;
  }

  /// Grid execution on a stream worker thread. Deliberately touches only
  /// immutable configuration (dev_, cost_) plus the shared thread-safe pool;
  /// the injector and tracer stay controller-only.
  template <LaneKernel K>
  StreamExecution execute_traced(const LaunchConfig& cfg, K& kernel,
                                 util::ThreadPool* pool) const {
    StreamExecution out;
    // Timing is worker-local and only taken when a tracer is attached
    // (reading the pointer for null is safe off-thread; it is set before
    // launches begin). The controller observes the value at wait().
    const bool timed = tracer_ != nullptr;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    out.traces = execute_blocks(cfg, kernel, pool);
    if (timed) {
      out.wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    }
    out.result.device_cycles = device_cycles_for(out.traces, cfg, dev_, cost_);
    out.result.stats = aggregate_stats(out.traces, dev_);
    return out;
  }

  /// Per-stream trace emission, on the controlling thread at wait() time:
  /// a "kernel" span on track "gpu.s<k>" spanning the modeled device-busy
  /// interval (or a "kernel_launch_failed" instant at the enqueue cycle).
  void trace_stream_wait(int stream, const LaunchConfig& cfg,
                         const StreamLaunch& done) {
    if (tracer_ == nullptr) return;
    const int track = stream_track(stream);
    if (done.result.status == LaunchStatus::kFailed ||
        done.result.status == LaunchStatus::kHungTimeout) {
      tracer_->instant(
          track,
          done.result.status == LaunchStatus::kFailed ? "kernel_launch_failed"
                                                      : "kernel_hung",
          done.enqueue_cycle,
          {{"blocks", static_cast<double>(cfg.blocks)},
           {"block_offset", static_cast<double>(cfg.block_offset)}});
      return;
    }
    tracer_->begin(
        track, "kernel", done.device_start_cycle,
        {{"blocks", static_cast<double>(cfg.blocks)},
         {"block_offset", static_cast<double>(cfg.block_offset)},
         {"device_cycles", static_cast<double>(done.result.device_cycles)},
         {"divergence", done.result.stats.divergence_waste()}});
    tracer_->end(track, "kernel", done.completion_cycle);
    tracer_->metrics().histogram("kernel_divergence", {0.01, 0.02, 0.05, 0.1,
                                                       0.2, 0.3, 0.5, 0.75})
        .observe(done.result.stats.divergence_waste());
  }

  /// Track id for "gpu.s<k>", created lazily on the attached tracer.
  [[nodiscard]] int stream_track(int stream) {
    const auto index = static_cast<std::size_t>(stream);
    if (index >= stream_tracks_.size()) stream_tracks_.resize(index + 1, -1);
    if (stream_tracks_[index] < 0) {
      stream_tracks_[index] = tracer_->track("gpu.s" + std::to_string(stream));
    }
    return stream_tracks_[index];
  }

  DeviceProperties dev_;
  HostProperties host_;
  CostModel cost_;
  util::FaultInjector injector_;
  obs::Tracer* tracer_ = nullptr;
  int gpu_track_ = 0;
  /// Lazily created track ids for the per-stream "gpu.s<k>" tracks.
  std::vector<int> stream_tracks_;
  ExecutionPolicy exec_ = ExecutionPolicy::from_env();
  /// Lazily created when the policy asks for threads; shared across copies
  /// made after creation.
  std::shared_ptr<util::ThreadPool> pool_;
  /// Lazily created on first launch_on; shared across copies made after.
  std::shared_ptr<StreamSet> streams_;
};

}  // namespace gpu_mcts::simt
