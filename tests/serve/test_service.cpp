// SearchService contract suite (DESIGN.md §13).
//
// The load-bearing guarantee is tenant isolation: a session served through
// the multi-tenant service must be *bit-identical* to the standalone
// block-parallel searcher — same move, every SearchStats field bitwise, and
// the same trace event stream hash — no matter who shares the device.
// Around that: scheduler ordering (EDF within priority classes), virtual-
// arrival determinism across exec thread counts, cross-thread cancellation
// (the TSan target), admission control, and the serve.session.<id>
// observability tracks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "engine/factory.hpp"
#include "engine/spec.hpp"
#include "mcts/budget.hpp"
#include "mcts/transposition.hpp"
#include "obs/trace.hpp"
#include "reversi/reversi_game.hpp"
#include "serve/service.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace gpu_mcts::serve {
namespace {

using reversi::ReversiGame;

constexpr double kBudget = 0.05;

// ---- capture + encoding (mirrors tests/parallel/test_driver_bitexact.cpp) --

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

std::uint64_t trace_hash(const obs::Tracer& tracer) {
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
  for (std::size_t t = 0; t < tracer.track_count(); ++t) {
    h = hash_str(h, tracer.track_name(static_cast<int>(t)).c_str());
  }
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string encode_stats(int move, const mcts::SearchStats& s) {
  std::string out;
  out += "m=" + std::to_string(move);
  out += " s=" + std::to_string(s.simulations);
  out += " r=" + std::to_string(s.rounds);
  out += " gr=" + std::to_string(s.gpu_rounds);
  out += " ci=" + std::to_string(s.cpu_iterations);
  out += " gs=" + std::to_string(s.gpu_simulations);
  out += " tn=" + std::to_string(s.tree_nodes);
  out += " md=" + std::to_string(s.max_depth);
  out += " vs=" + std::to_string(double_bits(s.virtual_seconds));
  out += " dw=" + std::to_string(double_bits(s.divergence_waste));
  out += " sr=" + std::to_string(static_cast<int>(s.stop_reason));
  out += " f=" + std::to_string(s.faults.faults());
  return out;
}

ServiceOptions options_for(int tpb, int grid_blocks = 112) {
  ServiceOptions options;
  options.grid = {.blocks = grid_blocks, .threads_per_block = tpb};
  return options;
}

// ---- bit-identity with the standalone searcher -----------------------------

TEST(ServeBitIdentity, SingleSessionMatchesStandaloneSearcher) {
  const engine::SchemeSpec spec =
      engine::SchemeSpec::block_gpu(8, 32).with_seed(105);
  const auto state = ReversiGame::initial_state();

  // Standalone: two consecutive moves on one searcher (the second uses the
  // move_counter-derived seed).
  obs::Tracer standalone_tracer;
  auto searcher = engine::make_searcher<ReversiGame>(spec);
  searcher->set_tracer(&standalone_tracer);
  const int move_a = static_cast<int>(searcher->choose_move(state, kBudget));
  const mcts::SearchStats stats_a = searcher->last_stats();
  const int move_b = static_cast<int>(searcher->choose_move(state, kBudget));
  const mcts::SearchStats stats_b = searcher->last_stats();

  // Served: one session, two tickets, same session seed.
  obs::Tracer session_tracer;
  SearchService<ReversiGame> service(options_for(32));
  const SessionId session =
      service.open_session(spec, spec.search.seed, &session_tracer);
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(kBudget);
  const TicketId t1 = service.submit(session, state, budget);
  const TicketId t2 = service.submit(session, state, budget);
  const MoveResult<ReversiGame> r1 = service.wait(t1);
  const MoveResult<ReversiGame> r2 = service.wait(t2);
  service.close_session(session);

  EXPECT_EQ(encode_stats(static_cast<int>(r1.move), r1.stats),
            encode_stats(move_a, stats_a));
  EXPECT_EQ(encode_stats(static_cast<int>(r2.move), r2.stats),
            encode_stats(move_b, stats_b));
  // The whole event stream — names, cycles, args, track names — bitwise.
  EXPECT_EQ(session_tracer.track_count(), standalone_tracer.track_count());
  EXPECT_EQ(trace_hash(session_tracer), trace_hash(standalone_tracer));
}

TEST(ServeBitIdentity, SharingTheDeviceDoesNotPerturbATenant) {
  // The same session, alone vs. packed next to two noisy neighbours.
  const engine::SchemeSpec spec =
      engine::SchemeSpec::block_gpu(8, 32).with_seed(105);
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(kBudget);

  obs::Tracer alone_tracer;
  std::string alone;
  {
    SearchService<ReversiGame> service(options_for(32));
    const SessionId s =
        service.open_session(spec, spec.search.seed, &alone_tracer);
    const MoveResult<ReversiGame> r =
        service.wait(service.submit(s, state, budget));
    alone = encode_stats(static_cast<int>(r.move), r.stats);
  }

  obs::Tracer shared_tracer;
  std::string shared;
  {
    SearchService<ReversiGame> service(options_for(32));
    const SessionId noisy1 = service.open_session(
        engine::SchemeSpec::block_gpu(16, 32).with_seed(7), 7);
    const SessionId subject =
        service.open_session(spec, spec.search.seed, &shared_tracer);
    const SessionId noisy2 = service.open_session(
        engine::SchemeSpec::block_gpu(4, 32).with_seed(9), 9);
    (void)service.submit(noisy1, state, budget);
    const TicketId ticket = service.submit(subject, state, budget);
    (void)service.submit(noisy2, state, budget);
    const MoveResult<ReversiGame> r = service.wait(ticket);
    shared = encode_stats(static_cast<int>(r.move), r.stats);
  }

  EXPECT_EQ(shared, alone);
  EXPECT_EQ(trace_hash(shared_tracer), trace_hash(alone_tracer));
}

/// One ticket through a fresh service against one choose_move on the
/// standalone searcher: same move, bitwise stats (stop_reason included),
/// and the same trace hash, which covers the "stop_reason" instant.
void expect_served_matches_standalone(const engine::SchemeSpec& spec,
                                      const mcts::SearchBudget& budget,
                                      mcts::StopReason expected) {
  const auto state = ReversiGame::initial_state();
  obs::Tracer standalone_tracer;
  auto searcher = engine::make_searcher<ReversiGame>(spec);
  searcher->set_tracer(&standalone_tracer);
  const int move = static_cast<int>(searcher->choose_move(state, budget));
  const mcts::SearchStats stats = searcher->last_stats();

  obs::Tracer session_tracer;
  SearchService<ReversiGame> service(options_for(spec.threads_per_block));
  const SessionId session =
      service.open_session(spec, spec.search.seed, &session_tracer);
  const MoveResult<ReversiGame> r =
      service.wait(service.submit(session, state, budget));
  service.close_session(session);

  EXPECT_EQ(stats.stop_reason, expected);
  EXPECT_EQ(encode_stats(static_cast<int>(r.move), r.stats),
            encode_stats(move, stats));
  bool stop_instant = false;
  for (const obs::TraceEvent& e : standalone_tracer.merged()) {
    stop_instant = stop_instant || std::strcmp(e.name, "stop_reason") == 0;
  }
  EXPECT_TRUE(stop_instant);
  EXPECT_EQ(trace_hash(session_tracer), trace_hash(standalone_tracer));
}

TEST(ServeBitIdentity, BudgetCancelledBeforeSubmitMatchesStandalone) {
  // The budget's own token, cancelled up front: one round, then kCancelled.
  util::CancelToken cancel;
  cancel.cancel();
  mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(kBudget);
  budget.cancel = &cancel;
  expect_served_matches_standalone(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(105), budget,
      mcts::StopReason::kCancelled);
}

TEST(ServeBitIdentity, TreeSaturationStopMatchesStandalone) {
  engine::SchemeSpec spec = engine::SchemeSpec::block_gpu(8, 32).with_seed(105);
  spec.search.max_nodes = 256;
  mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(1.0);
  budget.stop_on_tree_saturation = true;
  expect_served_matches_standalone(spec, budget,
                                   mcts::StopReason::kTreeSaturated);
}

// ---- determinism across exec thread counts ---------------------------------

std::string run_scenario(int exec_threads, int transposition_mb = 0) {
  ServiceOptions options = options_for(32, /*grid_blocks=*/16);
  options.exec.threads = exec_threads;
  options.transposition_mb = transposition_mb;
  SearchService<ReversiGame> service(options);
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.02);
  // Three 8-block sessions on a 16-block grid: every round leaves someone
  // out, so the packing order is load-bearing.
  std::vector<TicketId> tickets;
  std::vector<SessionId> sessions;
  for (int s = 0; s < 3; ++s) {
    const SessionId id = service.open_session(
        engine::SchemeSpec::block_gpu(8, 32).with_seed(200 + s),
        static_cast<std::uint64_t>(200 + s));
    sessions.push_back(id);
    for (int m = 0; m < 2; ++m) {
      SubmitOptions opts;
      opts.arrival_virtual_seconds = 0.005 * s + 0.01 * m;
      tickets.push_back(service.submit(id, state, budget, opts));
    }
  }
  service.run_until_idle();
  std::string out;
  for (const TicketId t : tickets) {
    const std::optional<MoveResult<ReversiGame>> r = service.poll(t);
    out += encode_stats(static_cast<int>(r->move), r->stats);
    out += " c=" + std::to_string(double_bits(r->completion_virtual_seconds));
    out += "\n";
  }
  if (const mcts::TranspositionTable* table = service.transposition()) {
    const mcts::TranspositionTable::Stats t = table->stats();
    out += "tt stores=" + std::to_string(t.stores) +
           " inserts=" + std::to_string(t.inserts) +
           " evictions=" + std::to_string(t.evictions) +
           " dropped=" + std::to_string(t.dropped) + "\n";
  }
  for (const SessionId id : sessions) service.close_session(id);
  return out;
}

TEST(ServeDeterminism, FixedArrivalScheduleInvariantAcrossExecThreads) {
  const std::string once = run_scenario(1);
  EXPECT_FALSE(once.empty());
  EXPECT_EQ(run_scenario(1), once);  // rerun-stable
  EXPECT_EQ(run_scenario(4), once);  // exec-thread-invariant
}

TEST(ServeDeterminism, SharedTableInvariantAcrossExecThreads) {
  // Every session's trees share the table and the root key, and which
  // entries survive an insert depends on the stores before it, so the
  // table must be fed in the same order at every exec thread count.
  const std::string once = run_scenario(1, /*transposition_mb=*/1);
  ASSERT_NE(once.find("tt stores="), std::string::npos);
  for (int rep = 0; rep < 4; ++rep) {
    SCOPED_TRACE(rep);
    EXPECT_EQ(run_scenario(4, /*transposition_mb=*/1), once);
  }
}

// ---- scheduler ordering ----------------------------------------------------

TEST(ServeScheduler, PriorityClassBeatsSubmissionOrder) {
  // 8-block grid, 8-block sessions: one ticket runs at a time. The later,
  // more urgent ticket must finish first.
  SearchService<ReversiGame> service(options_for(32, /*grid_blocks=*/8));
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.01);
  const SessionId background = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(1), 1);
  const SessionId urgent = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(2), 2);
  SubmitOptions low;
  low.priority = 1;
  SubmitOptions high;
  high.priority = 0;
  const TicketId slow = service.submit(background, state, budget, low);
  const TicketId fast = service.submit(urgent, state, budget, high);
  service.run_until_idle();
  EXPECT_LT(service.poll(fast)->completion_virtual_seconds,
            service.poll(slow)->completion_virtual_seconds);
}

TEST(ServeScheduler, EarlierDeadlineWinsWithinAClass) {
  SearchService<ReversiGame> service(options_for(32, /*grid_blocks=*/8));
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.01);
  const SessionId a = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(1), 1);
  const SessionId b = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(2), 2);
  SubmitOptions relaxed;
  relaxed.deadline_virtual_seconds = 1.0;
  SubmitOptions tight;
  tight.deadline_virtual_seconds = 0.001;
  const TicketId lax = service.submit(a, state, budget, relaxed);
  const TicketId rush = service.submit(b, state, budget, tight);
  service.run_until_idle();
  EXPECT_LT(service.poll(rush)->completion_virtual_seconds,
            service.poll(lax)->completion_virtual_seconds);
}

TEST(ServeScheduler, VirtualArrivalsGateStartAndFastForwardIdleTime) {
  SearchService<ReversiGame> service(options_for(32));
  const auto state = ReversiGame::initial_state();
  SubmitOptions late;
  late.arrival_virtual_seconds = 2.5;
  const SessionId s = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(3), 3);
  const TicketId t = service.submit(
      s, state, mcts::SearchBudget::from_seconds(0.01), late);
  const MoveResult<ReversiGame> r = service.wait(t);
  // The service clock jumped to the arrival instead of spinning.
  EXPECT_DOUBLE_EQ(r.arrival_virtual_seconds, 2.5);
  EXPECT_GT(r.completion_virtual_seconds, 2.5);
  EXPECT_LT(r.latency_virtual_seconds(), 0.5);
}

// ---- cancellation (run under TSan by the CI serve smoke job) ---------------

TEST(ServeCancel, CrossThreadCancelStopsAtARoundBoundary) {
  SearchService<ReversiGame> service(options_for(32));
  const SessionId session = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(42), 42);
  // A budget far beyond what the test should ever run: only cancellation
  // (or a broken test) ends this search.
  const TicketId ticket =
      service.submit(session, ReversiGame::initial_state(),
                     mcts::SearchBudget::from_seconds(30.0));
  std::thread canceller([&service, ticket] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.cancel(ticket);
  });
  const MoveResult<ReversiGame> r = service.wait(ticket);
  canceller.join();
  EXPECT_EQ(r.stats.stop_reason, mcts::StopReason::kCancelled);
  // Anytime contract: at least one full round ran and a legal move came back.
  EXPECT_GE(r.stats.simulations, 8u * 32u);
  service.close_session(session);
}

TEST(ServeCancel, CancelBeforeStartStillRunsOneRound) {
  // Grid fits one session; the queued ticket is cancelled before it ever
  // gets a driver. It must still return a move from exactly one round.
  SearchService<ReversiGame> service(options_for(32, /*grid_blocks=*/8));
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.05);
  const SessionId a = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(1), 1);
  const SessionId b = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(2), 2);
  (void)service.submit(a, state, budget);
  const TicketId queued = service.submit(b, state, budget);
  service.cancel(queued);
  service.run_until_idle();
  const MoveResult<ReversiGame> r = *service.poll(queued);
  EXPECT_EQ(r.stats.stop_reason, mcts::StopReason::kCancelled);
  EXPECT_EQ(r.stats.gpu_rounds, 1u);
}

// ---- exec thread pool -------------------------------------------------------

/// Live threads of this process, or nullopt where /proc/self/task is absent.
std::optional<std::size_t> live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(ServeThreads, TicketsBorrowTheServicePoolAndLeaveNoThreads) {
  // Every ticket's driver runs on a copy of the service's device. The
  // service starts its exec pool before any copy is made, so the copies
  // borrow it: no ticket adds threads, and sixty tickets leave no more
  // behind than the first one did.
  if (!live_threads().has_value()) GTEST_SKIP() << "no /proc/self/task";
  ServiceOptions options = options_for(32, /*grid_blocks=*/16);
  options.exec.threads = 4;
  SearchService<ReversiGame> service(options);
  const std::size_t with_pool = *live_threads();
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.002);
  const SessionId session = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(11), 11);
  (void)service.wait(service.submit(session, state, budget));
  const std::size_t after_first = *live_threads();
  EXPECT_LE(after_first, with_pool);
  for (int i = 1; i < 60; ++i) {
    (void)service.wait(service.submit(session, state, budget));
  }
  EXPECT_LE(*live_threads(), after_first);
  service.close_session(session);
}

// ---- admission control -----------------------------------------------------

TEST(ServeAdmission, SessionCapAndQueueBoundThrowAdmissionError) {
  ServiceOptions options = options_for(32);
  options.max_sessions = 1;
  options.max_queued_per_session = 2;
  SearchService<ReversiGame> service(options);
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.005);
  const engine::SchemeSpec spec =
      engine::SchemeSpec::block_gpu(4, 32).with_seed(5);

  const SessionId only = service.open_session(spec, 5);
  EXPECT_THROW((void)service.open_session(spec, 6), AdmissionError);

  const TicketId t1 = service.submit(only, state, budget);
  (void)service.submit(only, state, budget);
  EXPECT_THROW((void)service.submit(only, state, budget), AdmissionError);

  // Draining the queue readmits; closing the session readmits the slot.
  service.run_until_idle();
  EXPECT_TRUE(service.poll(t1).has_value());
  (void)service.submit(only, state, budget);
  service.run_until_idle();
  service.close_session(only);
  const SessionId next = service.open_session(spec, 6);
  service.close_session(next);
}

TEST(ServeAdmission, SessionSpecsAreValidated) {
  SearchService<ReversiGame> service(options_for(32));
  EXPECT_THROW((void)service.open_session(
                   engine::SchemeSpec::leaf_gpu(8, 32).with_seed(1), 1),
               util::ContractViolation);
  EXPECT_THROW(
      (void)service.open_session(
          engine::SchemeSpec::block_gpu(8, 64).with_seed(1), 1),
      util::ContractViolation);  // block size mismatch
  EXPECT_THROW(
      (void)service.open_session(
          engine::SchemeSpec::block_gpu(113, 32).with_seed(1), 1),
      util::ContractViolation);  // share exceeds the grid
  EXPECT_THROW(
      (void)service.open_session(
          engine::SchemeSpec::block_gpu(8, 32).with_seed(1).with_pipeline(),
          1),
      util::ContractViolation);
  EXPECT_THROW((void)service.poll(999), util::ContractViolation);
}

// ---- observability ---------------------------------------------------------

TEST(ServeObs, PerSessionLifecycleTracks) {
  obs::Tracer serve_tracer;
  SearchService<ReversiGame> service(options_for(32));
  service.set_tracer(&serve_tracer);
  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.005);
  const SessionId s1 = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(1), 1);
  const SessionId s2 = service.open_session(
      engine::SchemeSpec::block_gpu(8, 32).with_seed(2), 2);
  (void)service.submit(s1, state, budget);
  (void)service.submit(s2, state, budget);
  service.run_until_idle();
  service.close_session(s1);
  service.close_session(s2);

  std::set<std::string> tracks;
  for (std::size_t t = 0; t < serve_tracer.track_count(); ++t) {
    tracks.insert(serve_tracer.track_name(static_cast<int>(t)));
  }
  EXPECT_TRUE(tracks.count("serve.session." + std::to_string(s1)));
  EXPECT_TRUE(tracks.count("serve.session." + std::to_string(s2)));

  std::set<std::string> names;
  for (const obs::TraceEvent& e : serve_tracer.merged()) {
    names.insert(e.name);
  }
  for (const char* expected : {"session_open", "ticket_submit", "ticket_start",
                               "ticket_done", "session_close"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

// ---- service-owned transposition table (DESIGN.md §16) ---------------------

TEST(ServeTransposition, ServiceOwnedTableIsSharedAcrossSessions) {
  ServiceOptions options = options_for(32, /*grid_blocks=*/8);
  options.transposition_mb = 1;
  SearchService<ReversiGame> service(options);
  ASSERT_NE(service.transposition(), nullptr);

  const auto state = ReversiGame::initial_state();
  const mcts::SearchBudget budget = mcts::SearchBudget::from_seconds(0.01);
  const engine::SchemeSpec spec = engine::SchemeSpec::block_gpu(8, 32);

  const SessionId a = service.open_session(spec.with_seed(7), 7);
  (void)service.wait(service.submit(a, state, budget));
  const auto first = service.transposition()->stats();
  EXPECT_GT(first.stores, 0u);

  // A different tenant searching the same position hits entries the first
  // one banked — the cross-session warm-up the shared table exists for.
  const SessionId b = service.open_session(spec.with_seed(8), 8);
  (void)service.wait(service.submit(b, state, budget));
  const auto second = service.transposition()->stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(service.transposition()->epoch(), 2);  // one bump per ticket
  service.close_session(a);
  service.close_session(b);
}

TEST(ServeTransposition, DisabledByDefaultAndPerSessionSpecRejected) {
  SearchService<ReversiGame> plain(options_for(32, /*grid_blocks=*/8));
  EXPECT_EQ(plain.transposition(), nullptr);
  // The table is a service-level resource: a per-session "+tt" spec is
  // rejected whether or not the service owns one.
  EXPECT_THROW((void)plain.open_session(
                   engine::SchemeSpec::parse("block:8x32+tt:1"), 5),
               util::ContractViolation);

  ServiceOptions with_table = options_for(32, /*grid_blocks=*/8);
  with_table.transposition_mb = 1;
  SearchService<ReversiGame> owning(with_table);
  EXPECT_THROW((void)owning.open_session(
                   engine::SchemeSpec::parse("block:8x32+tt:1"), 5),
               util::ContractViolation);
  ServiceOptions bad = options_for(32);
  bad.transposition_mb = 4097;
  EXPECT_THROW(SearchService<ReversiGame>{bad}, util::ContractViolation);
}

}  // namespace
}  // namespace gpu_mcts::serve
