// SearchService: the multi-tenant serving layer (DESIGN.md §13).
//
// A long-lived service owns one VirtualGpu (and with it the exec thread
// pool) and multiplexes many concurrent search *sessions* onto it. A
// session is one game: open_session pins its SchemeSpec and seed, submit
// enqueues one move decision (a *ticket*) at a time, poll/wait retrieve the
// {move, SearchStats} result, cancel stops an in-flight ticket
// cooperatively, close_session retires it.
//
// Scheduling: the service runs on its own virtual timeline. Each service
// round an EDF-within-priority-class scheduler picks the runnable tickets
// (per session, the head of its FIFO queue whose arrival time has come),
// packs their block counts into the service grid greedily in deadline
// order, and runs one combined round through SessionCohortSource — the
// cross-session cohort batching that generalizes the paper's block-parallel
// grid-filling to independent games. Every in-flight ticket is the block
// scheme's own RoundDriver, configured as BlockParallelGpuSearcher
// configures it; the combined round stages each driver, launches once, and
// settles each driver with its slice. The service clock then advances by
// the shared kernel charge plus the drivers' serialized host phases.
//
// Determinism: rounds are driven entirely by the calling thread (wait /
// run_until_idle) under the service mutex; arrivals are *virtual* times, so
// a fixed submit schedule yields an identical round-by-round schedule — and
// identical results, stats, latencies, and traces — on every run and at
// every exec thread count (the pool only partitions bit-stable work; see
// DESIGN.md §9). Cancellation is the one intentional nondeterminism: the
// token is an atomic read at round boundaries.
//
// Admission control: at most `max_sessions` sessions are open at once and
// each session's ticket queue is bounded by `max_queued_per_session`; both
// overflows throw AdmissionError (the caller's backpressure signal,
// distinct from contract violations).
//
// Isolation: per-session RNG streams (MultiplexKernel's identity remap +
// per-ticket seeds derived exactly as the standalone searcher derives
// them), per-session SearchStats, and per-session obs tracks — an optional
// per-session Tracer carries the standalone-identical event stream, and a
// service-level tracer gets one "serve.session.<id>" lifecycle track per
// session. With a single session the service result is bit-identical to
// BlockParallelGpuSearcher: same move, same stats, same trace hash
// (tests/serve/test_service.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/spec.hpp"
#include "game/game_traits.hpp"
#include "mcts/budget.hpp"
#include "mcts/stats.hpp"
#include "mcts/transposition.hpp"
#include "obs/trace.hpp"
#include "parallel/block_parallel.hpp"
#include "parallel/driver/session_source.hpp"
#include "simt/geometry.hpp"
#include "simt/vgpu.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace gpu_mcts::serve {

using SessionId = std::uint64_t;
using TicketId = std::uint64_t;

/// Capacity backpressure: session limit reached or a session's ticket queue
/// full. Callers shed or retry; this is load, not a bug (contract
/// violations throw util::ContractViolation as everywhere else).
class AdmissionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServiceOptions {
  /// The shared device grid tickets are packed into. Every session's
  /// threads_per_block must match the grid's; a session's block count is
  /// its per-round share and must fit the grid.
  simt::LaunchConfig grid{.blocks = 112, .threads_per_block = 128};
  /// Admission caps (AdmissionError beyond either).
  int max_sessions = 64;
  std::size_t max_queued_per_session = 16;
  /// Modeled hardware, shared by every session (a session spec's own
  /// device/host/cost fields are ignored — one physical device).
  simt::DeviceProperties device = simt::tesla_c2050();
  simt::HostProperties host = simt::xeon_x5670();
  simt::CostModel cost = simt::default_cost_model();
  /// Execution backend for the shared VirtualGpu (wall-clock only;
  /// results are bit-identical at every thread count).
  simt::ExecutionPolicy exec = simt::ExecutionPolicy::from_env();
  /// Shared transposition table size in megabytes; 0 (the default) runs
  /// without one, bit-identical to the pre-table service. When set, every
  /// session's trees attach to ONE service-owned table — cross-session
  /// statistics sharing for tenants playing the same game, the serving-side
  /// analogue of the "+tt:<mb>" scheme suffix (which sessions themselves
  /// must not carry; the service owns the table).
  int transposition_mb = 0;
};

/// Per-ticket scheduling knobs.
struct SubmitOptions {
  /// Priority class; lower is more urgent. EDF orders within a class.
  int priority = 0;
  /// EDF deadline, in virtual seconds after arrival. Defaults to the
  /// budget's virtual_seconds (a search wants to be done about when its
  /// budget would run out).
  std::optional<double> deadline_virtual_seconds;
  /// Arrival on the *service* virtual timeline, in seconds. The scheduler
  /// will not start the ticket before this; the load generator uses it to
  /// replay a seeded Poisson schedule deterministically. Defaults to "now";
  /// past times clamp to now.
  std::optional<double> arrival_virtual_seconds;
};

/// A finished ticket: the move, the full per-search stats (stop_reason
/// included), and the service-timeline latency bookkeeping.
template <game::Game G>
struct MoveResult {
  typename G::Move move{};
  mcts::SearchStats stats;
  double arrival_virtual_seconds = 0.0;
  double completion_virtual_seconds = 0.0;

  [[nodiscard]] double latency_virtual_seconds() const noexcept {
    return completion_virtual_seconds - arrival_virtual_seconds;
  }
};

template <game::Game G>
class SearchService {
 public:
  explicit SearchService(ServiceOptions options = {})
      : options_(options),
        gpu_(options.device, options.host, options.cost),
        clock_(options.host.clock_hz) {
    simt::validate(options_.grid, gpu_.device());
    util::expects(options_.max_sessions >= 1, "service admits sessions");
    util::expects(options_.max_queued_per_session >= 1,
                  "service admits tickets");
    util::expects(options_.transposition_mb >= 0 &&
                      options_.transposition_mb <= 4096,
                  "transposition table size in 0..4096 megabytes");
    if (options_.transposition_mb > 0) {
      transposition_ = std::make_unique<mcts::TranspositionTable>(
          mcts::TranspositionTable::entries_for_megabytes(
              options_.transposition_mb));
    }
    gpu_.set_execution_policy(options_.exec);
    // Every ticket's driver runs on a copy of this device; creating the
    // pool first makes each copy borrow it instead of starting its own.
    (void)gpu_.worker_pool();
  }

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Attaches the service-level tracer: one "serve.session.<id>" track per
  /// subsequently opened session, carrying session/ticket lifecycle
  /// instants on the service timeline. Attach before opening sessions.
  void set_tracer(obs::Tracer* tracer) {
    const std::lock_guard lock(mu_);
    service_tracer_ = tracer;
    if (tracer != nullptr) {
      (void)tracer->begin_search("serve");
      tracer->set_frequency(clock_.frequency_hz());
    }
  }

  /// Opens a session: one tenant game searching under `spec` (block-gpu
  /// only — the scheme whose grid the service generalizes) with the given
  /// experiment seed. `tracer`, when non-null, receives this session's
  /// standalone-identical search event stream (one begin_search epoch per
  /// ticket) and must outlive the session; it must be driven from the
  /// thread that drives the service. Throws AdmissionError at the session
  /// cap.
  [[nodiscard]] SessionId open_session(const engine::SchemeSpec& spec,
                                       std::uint64_t seed,
                                       obs::Tracer* tracer = nullptr) {
    const std::lock_guard lock(mu_);
    util::expects(spec.scheme == "block-gpu",
                  "service sessions run the block-gpu scheme");
    util::expects(
        spec.threads_per_block == options_.grid.threads_per_block,
        "session block size matches the service grid");
    util::expects(spec.blocks >= 1 && spec.blocks <= options_.grid.blocks,
                  "session blocks fit the service grid");
    util::expects(!spec.pipeline,
                  "the service owns stream scheduling; pipelined sessions "
                  "are not supported");
    util::expects(!spec.gpu_faults.any(),
                  "fault injection is not supported in the service");
    util::expects(spec.tt_mb == 0 && spec.search.transposition == nullptr,
                  "the service owns the transposition table; per-session "
                  "tables are not supported");
    if (open_sessions_ >= options_.max_sessions) {
      throw AdmissionError("open_session: session limit reached (" +
                           std::to_string(options_.max_sessions) + ")");
    }
    const SessionId id = next_session_++;
    Session s;
    s.spec = spec;
    // All sessions share the service's table (nullptr when disabled): the
    // drivers' trees pick the pointer up through SearchConfig.
    s.spec.search.transposition = transposition_.get();
    s.seed = seed;
    s.tracer = tracer;
    if (tracer != nullptr) {
      // Standalone parity: BlockParallelGpuSearcher::set_tracer creates the
      // "gpu" track immediately, before any search runs.
      (void)tracer->track("gpu");
    }
    if (service_tracer_ != nullptr) {
      s.serve_track =
          service_tracer_->track("serve.session." + std::to_string(id));
      service_tracer_->instant(
          s.serve_track, "session_open", clock_.cycles(),
          {{"blocks", static_cast<double>(spec.blocks)},
           {"threads_per_block",
            static_cast<double>(spec.threads_per_block)}});
    }
    ++open_sessions_;
    sessions_.emplace(id, std::move(s));
    return id;
  }

  /// Enqueues one move decision for the session. Tickets of one session run
  /// strictly in submission order (a session is one game), each with the
  /// search seed the standalone searcher would derive for that move index.
  /// Throws AdmissionError when the session's queue is full.
  [[nodiscard]] TicketId submit(SessionId session,
                                const typename G::State& state,
                                const mcts::SearchBudget& budget,
                                const SubmitOptions& opts = {}) {
    const std::lock_guard lock(mu_);
    Session& s = session_at(session);
    util::expects(s.open, "submit on an open session");
    util::expects(!G::is_terminal(state), "choose_move on terminal state");
    if (s.queue.size() >= options_.max_queued_per_session) {
      throw AdmissionError("submit: session " + std::to_string(session) +
                           " queue full (" +
                           std::to_string(options_.max_queued_per_session) +
                           ")");
    }
    const TicketId id = next_ticket_++;
    Ticket t;
    t.id = id;
    t.session = session;
    t.state = state;
    t.budget = budget;
    t.priority = opts.priority;
    t.search_seed = util::derive_seed(s.seed, s.move_counter++);
    t.arrival_cycles =
        opts.arrival_virtual_seconds.has_value()
            ? std::max(clock_.cycles(),
                       clock_.to_cycles(*opts.arrival_virtual_seconds))
            : clock_.cycles();
    t.deadline_cycles =
        t.arrival_cycles +
        clock_.to_cycles(opts.deadline_virtual_seconds.has_value()
                             ? *opts.deadline_virtual_seconds
                             : budget.virtual_seconds);
    t.cancel = std::make_shared<util::CancelToken>();
    if (service_tracer_ != nullptr && s.serve_track >= 0) {
      service_tracer_->instant(
          s.serve_track, "ticket_submit", clock_.cycles(),
          {{"ticket", static_cast<double>(id)},
           {"priority", static_cast<double>(opts.priority)}});
    }
    s.queue.push_back(id);
    {
      const std::lock_guard token_lock(cancel_mu_);
      cancel_tokens_.emplace(id, t.cancel);
    }
    tickets_.emplace(id, std::move(t));
    return id;
  }

  /// Non-blocking result check; does not drive rounds.
  [[nodiscard]] std::optional<MoveResult<G>> poll(TicketId ticket) {
    const std::lock_guard lock(mu_);
    const Ticket& t = ticket_at(ticket);
    if (!t.done) return std::nullopt;
    return t.result;
  }

  /// Drives service rounds on the calling thread until the ticket
  /// completes, then returns its result. The lock is released between
  /// rounds so cancel() from another thread can land at a round boundary.
  [[nodiscard]] MoveResult<G> wait(TicketId ticket) {
    for (;;) {
      const std::lock_guard lock(mu_);
      const Ticket& t = ticket_at(ticket);
      if (t.done) return t.result;
      util::check(drive_one_round_locked(),
                  "waited ticket is schedulable (session open, queue "
                  "reachable)");
    }
  }

  /// Drives rounds until no ticket is queued or in flight.
  void run_until_idle() {
    for (;;) {
      const std::lock_guard lock(mu_);
      if (!drive_one_round_locked()) return;
    }
  }

  /// Requests cooperative cancellation: the ticket's search stops at its
  /// next round boundary with StopReason::kCancelled (after at least one
  /// round — the anytime contract: every ticket returns a legal move).
  /// Safe from any thread, including while another thread drives rounds.
  /// Takes only the token lock: std::mutex is not fair, and a thread
  /// looping in wait() re-takes mu_ the moment it drops it, so a cancel()
  /// that queued on mu_ could starve until the budget ran out.
  void cancel(TicketId ticket) {
    std::shared_ptr<util::CancelToken> token;
    {
      const std::lock_guard lock(cancel_mu_);
      const auto it = cancel_tokens_.find(ticket);
      util::expects(it != cancel_tokens_.end(), "known ticket id");
      token = it->second;
    }
    token->cancel();
  }

  /// Retires a session. Its tickets must all be finished (wait or
  /// run_until_idle first; cancel to hurry them).
  void close_session(SessionId session) {
    const std::lock_guard lock(mu_);
    Session& s = session_at(session);
    util::expects(s.open, "close_session on an open session");
    util::expects(s.queue.empty(),
                  "close_session after its tickets finished");
    s.open = false;
    --open_sessions_;
    if (service_tracer_ != nullptr && s.serve_track >= 0) {
      service_tracer_->instant(s.serve_track, "session_close",
                               clock_.cycles());
    }
  }

  /// Current service virtual time, in seconds (arrivals and latencies are
  /// measured on this timeline).
  [[nodiscard]] double virtual_now_seconds() {
    const std::lock_guard lock(mu_);
    return clock_.seconds();
  }

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

  /// The service-wide shared transposition table, or nullptr when
  /// `transposition_mb` is 0 (tests read hit-rates through this).
  [[nodiscard]] const mcts::TranspositionTable* transposition()
      const noexcept {
    return transposition_.get();
  }

 private:
  using Searcher = parallel::BlockParallelGpuSearcher<G>;
  using Driver = parallel::driver::CohortRoundDriver<G>;

  struct Session {
    engine::SchemeSpec spec;
    std::uint64_t seed = 0;
    std::uint64_t move_counter = 0;
    obs::Tracer* tracer = nullptr;
    int serve_track = -1;
    /// Unfinished tickets, submission order; only the front may run.
    std::deque<TicketId> queue;
    bool open = true;
  };

  struct Ticket {
    TicketId id = 0;
    SessionId session = 0;
    typename G::State state{};
    mcts::SearchBudget budget;
    int priority = 0;
    std::uint64_t search_seed = 0;
    std::uint64_t arrival_cycles = 0;
    std::uint64_t deadline_cycles = 0;
    /// Shared with cancel_tokens_ so cancel() can latch it without mu_.
    std::shared_ptr<util::CancelToken> cancel;
    std::unique_ptr<Driver> driver;  ///< non-null while in flight
    bool done = false;
    MoveResult<G> result;
  };

  [[nodiscard]] Session& session_at(SessionId id) {
    const auto it = sessions_.find(id);
    util::expects(it != sessions_.end(), "known session id");
    return it->second;
  }

  [[nodiscard]] Ticket& ticket_at(TicketId id) {
    const auto it = tickets_.find(id);
    util::expects(it != tickets_.end(), "known ticket id");
    return it->second;
  }

  /// One scheduler step: pick + pack + run one combined round, or
  /// fast-forward the clock to the next arrival. Returns false when idle
  /// (nothing queued anywhere). Caller holds mu_.
  bool drive_one_round_locked() {
    struct Cand {
      Ticket* ticket;
      Session* session;
    };
    std::vector<Cand> cands;
    std::uint64_t next_arrival = std::numeric_limits<std::uint64_t>::max();
    for (auto& [sid, s] : sessions_) {
      if (s.queue.empty()) continue;
      Ticket& t = ticket_at(s.queue.front());
      if (t.driver != nullptr || t.arrival_cycles <= clock_.cycles()) {
        cands.push_back({&t, &s});
      } else {
        next_arrival = std::min(next_arrival, t.arrival_cycles);
      }
    }
    if (cands.empty()) {
      if (next_arrival == std::numeric_limits<std::uint64_t>::max()) {
        return false;
      }
      // Deterministic fast-forward: the single-threaded service model is
      // idle until the next virtual arrival.
      clock_.advance_to(next_arrival);
      return true;
    }
    // EDF within priority class; ticket id breaks ties deterministically.
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.ticket->priority != b.ticket->priority) {
        return a.ticket->priority < b.ticket->priority;
      }
      if (a.ticket->deadline_cycles != b.ticket->deadline_cycles) {
        return a.ticket->deadline_cycles < b.ticket->deadline_cycles;
      }
      return a.ticket->id < b.ticket->id;
    });
    // Greedy pack in EDF order; a session whose share does not fit this
    // round is skipped, not split (its blocks are its isolation unit). The
    // most urgent ticket always fits: open_session bounds every session's
    // share by the grid.
    std::vector<Cand> packed;
    std::vector<Driver*> drivers;
    int packed_blocks = 0;
    for (const Cand& c : cands) {
      const int share = c.session->spec.blocks;
      if (packed_blocks + share > options_.grid.blocks) continue;
      packed_blocks += share;
      if (c.ticket->driver == nullptr) start_ticket(*c.ticket, *c.session);
      packed.push_back(c);
      drivers.push_back(c.ticket->driver.get());
    }
    const auto charge =
        parallel::driver::SessionCohortSource<G>::run_round(gpu_, drivers);
    clock_.advance(charge.total());
    for (const Cand& c : packed) {
      if (c.ticket->driver->finished()) finish_ticket(*c.ticket, *c.session);
    }
    return true;
  }

  void start_ticket(Ticket& t, Session& s) {
    // One ticket = one move decision: age the shared table exactly as the
    // factory's decorator does per choose_move.
    if (transposition_ != nullptr) transposition_->bump_epoch();
    const typename Searcher::Options options{.launch = s.spec.launch()};
    t.driver = Searcher::make_driver(options, s.spec.search, gpu_);
    t.driver->set_tracer(s.tracer);
    t.driver->begin(t.state, t.budget, t.search_seed,
                    Searcher::name_for(options), t.cancel.get());
    if (service_tracer_ != nullptr && s.serve_track >= 0) {
      service_tracer_->instant(s.serve_track, "ticket_start", clock_.cycles(),
                               {{"ticket", static_cast<double>(t.id)}});
    }
  }

  void finish_ticket(Ticket& t, Session& s) {
    parallel::driver::SearchOutcome<G> outcome = t.driver->conclude();
    t.result.move = outcome.move;
    t.result.stats = t.driver->stats();
    t.result.arrival_virtual_seconds =
        static_cast<double>(t.arrival_cycles) / clock_.frequency_hz();
    t.result.completion_virtual_seconds = clock_.seconds();
    t.driver.reset();
    t.done = true;
    util::check(!s.queue.empty() && s.queue.front() == t.id,
                "finished ticket is its session's head");
    s.queue.pop_front();
    if (service_tracer_ != nullptr && s.serve_track >= 0) {
      service_tracer_->instant(
          s.serve_track, "ticket_done", clock_.cycles(),
          {{"ticket", static_cast<double>(t.id)},
           {"simulations", static_cast<double>(t.result.stats.simulations)},
           {"latency_virtual_seconds", t.result.latency_virtual_seconds()}});
    }
  }

  ServiceOptions options_;
  std::unique_ptr<mcts::TranspositionTable> transposition_;
  simt::VirtualGpu gpu_;
  util::VirtualClock clock_;
  obs::Tracer* service_tracer_ = nullptr;
  std::mutex mu_;
  SessionId next_session_ = 1;
  TicketId next_ticket_ = 1;
  std::map<SessionId, Session> sessions_;
  std::map<TicketId, Ticket> tickets_;
  /// Each ticket's token, under its own lock so cancel() never waits on
  /// mu_. Lock order: mu_, then cancel_mu_.
  std::mutex cancel_mu_;
  std::map<TicketId, std::shared_ptr<util::CancelToken>> cancel_tokens_;
  int open_sessions_ = 0;
};

}  // namespace gpu_mcts::serve
