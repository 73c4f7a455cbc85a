// Differential tests of compiled route plans (core/route_plan.hpp):
// route_replay() must be bit-identical to a cold route() — delivered
// outputs, routing stats, per-level broadcast counts, the full
// RouteExplanation grids, and the switch settings left in the physical
// fabrics — across both implementations (unrolled Brsmn and
// FeedbackBrsmn) and with either engine selected in the replay options.
// The fabric is deliberately scrambled by routing a decoy assignment
// between compile and replay, so grid equality proves the replay
// actually reinstalls every setting rather than inheriting it.
//
// Also here: the zero-allocation contract of route_replay_into — after
// two warmup replays, a steady-state replay performs no heap
// allocations (counted by overriding global operator new in this test
// binary) — and the stream-free compile contract: a warm packed compile
// allocates only for plan capture, nothing per copy.
#include "core/route_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_report.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"

// --- allocation counter ---------------------------------------------------
//
// Global operator new/delete overrides counting every heap allocation
// made by this binary. Counting is unconditional (the counter is a
// relaxed atomic, negligible next to malloc itself); tests read the
// counter around a region and assert on the delta.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc demands it
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace brsmn {
namespace {

// --- equality helpers -----------------------------------------------------

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& cold, const RouteResult& replay) {
  EXPECT_EQ(cold.delivered, replay.delivered);
  expect_stats_eq(cold.stats, replay.stats);
  EXPECT_EQ(cold.broadcasts_per_level, replay.broadcasts_per_level);
  EXPECT_TRUE(replay.level_inputs.empty());
  ASSERT_EQ(cold.explanation.has_value(), replay.explanation.has_value());
  if (cold.explanation) {
    EXPECT_EQ(*cold.explanation, *replay.explanation);
  }
}

/// Every switch setting of one Rbn, stage-major.
std::vector<SwitchSetting> fabric_grid(const Rbn& rbn) {
  std::vector<SwitchSetting> grid;
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < rbn.size() / 2; ++sw) {
      grid.push_back(rbn.setting(stage, sw));
    }
  }
  return grid;
}

/// The settings grids of every fabric of an unrolled network, in level /
/// BSN / pass order.
std::vector<std::vector<SwitchSetting>> unrolled_grids(const Brsmn& net) {
  std::vector<std::vector<SwitchSetting>> grids;
  for (int k = 1; k < net.levels(); ++k) {
    for (const Bsn& bsn : net.level_bsns(k)) {
      grids.push_back(fabric_grid(bsn.scatter_fabric()));
      grids.push_back(fabric_grid(bsn.quasisort_fabric()));
    }
  }
  return grids;
}

/// An assignment guaranteed to differ from typical test assignments:
/// routed between compile and replay so the fabric no longer holds the
/// plan's settings when the replay runs.
MulticastAssignment decoy_assignment(std::size_t n) {
  MulticastAssignment a(n);
  for (std::size_t i = 0; i < n; ++i) a.connect(i, n - 1 - i);
  return a;
}

/// Compile a plan for `a` on a fresh unrolled network, scramble the
/// fabric with a decoy route, then replay under both engine selections
/// and require full bit-identity with the cold route.
void check_unrolled_replay(std::size_t n, const MulticastAssignment& a) {
  Brsmn net(n);
  RoutePlan plan;
  RouteOptions copts;
  copts.explain = true;
  const RouteResult cold = planner::compile_route(net, a, copts, plan);
  const auto cold_grids = unrolled_grids(net);

  for (const RouteEngine engine :
       {RouteEngine::Scalar, RouteEngine::Packed}) {
    net.route(decoy_assignment(n));  // scramble the fabric
    RouteOptions ropts;
    ropts.explain = true;
    ropts.engine = engine;
    const RouteResult replay = net.route_replay(plan, ropts);
    expect_results_eq(cold, replay);
    EXPECT_EQ(unrolled_grids(net), cold_grids);
  }
}

/// Feedback-implementation version of check_unrolled_replay.
void check_feedback_replay(std::size_t n, const MulticastAssignment& a) {
  FeedbackBrsmn net(n);
  RoutePlan plan;
  RouteOptions copts;
  copts.explain = true;
  const RouteResult cold = planner::compile_route(net, a, copts, plan);
  const auto cold_grid = fabric_grid(net.fabric());
  EXPECT_EQ(plan.impl, fault::ImplKind::Feedback);

  for (const RouteEngine engine :
       {RouteEngine::Scalar, RouteEngine::Packed}) {
    net.route(decoy_assignment(n));
    RouteOptions ropts;
    ropts.explain = true;
    ropts.engine = engine;
    const RouteResult replay = net.route_replay(plan, ropts);
    expect_results_eq(cold, replay);
    EXPECT_EQ(fabric_grid(net.fabric()), cold_grid);
  }
}

void check_replay(std::size_t n, const MulticastAssignment& a) {
  check_unrolled_replay(n, a);
  check_feedback_replay(n, a);
}

// --- differential sweeps --------------------------------------------------

class RoutePlanDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoutePlanDifferential, SeededMulticastSweep) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(8100 + n));
  const int trials = n <= 64 ? 6 : 3;
  for (int t = 0; t < trials; ++t) {
    check_replay(n, random_multicast(n, 0.5, rng));
  }
}

TEST_P(RoutePlanDifferential, SeededDenseMulticast) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(8200 + n));
  const int trials = n <= 64 ? 4 : 2;
  for (int t = 0; t < trials; ++t) {
    check_replay(n, random_multicast(n, 0.9, rng));
  }
}

TEST_P(RoutePlanDifferential, SeededPermutations) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(8300 + n));
  for (int t = 0; t < 3; ++t) {
    check_replay(n, random_permutation(n, 1.0, rng));
  }
}

TEST_P(RoutePlanDifferential, BroadcastPatterns) {
  const std::size_t n = GetParam();
  check_replay(n, full_broadcast(n));
  check_replay(n, broadcast_assignment(n, 2));
  check_replay(n, MulticastAssignment(n));  // empty assignment
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoutePlanDifferential,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

TEST(RoutePlanEdge, SmallestNetwork) {
  // n = 2 has no BSN levels — the plan holds only the final-level planes
  // and the output mapping.
  MulticastAssignment swap2(2);
  swap2.connect(0, 1);
  swap2.connect(1, 0);
  check_replay(2, swap2);
  check_replay(2, full_broadcast(2));
}

TEST(RoutePlanEdge, PaperExample) {
  check_replay(8, paper_example_assignment());
}

// --- replay contract checks -----------------------------------------------

TEST(RoutePlanContracts, ImplementationMismatchIsRejected) {
  const std::size_t n = 8;
  Brsmn unrolled(n);
  FeedbackBrsmn feedback(n);
  RoutePlan plan;
  planner::compile_route(unrolled, paper_example_assignment(), {}, plan);
  EXPECT_THROW(feedback.route_replay(plan), ContractViolation);
}

TEST(RoutePlanContracts, SizeMismatchIsRejected) {
  Brsmn small(8);
  Brsmn big(16);
  RoutePlan plan;
  planner::compile_route(small, paper_example_assignment(), {}, plan);
  EXPECT_THROW(big.route_replay(plan), ContractViolation);
}

TEST(RoutePlanContracts, ExplainReplayNeedsExplainCompiledPlan) {
  const std::size_t n = 8;
  Brsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, paper_example_assignment(), {}, plan);
  ASSERT_FALSE(plan.explanation.has_value());
  RouteOptions ropts;
  ropts.explain = true;
  EXPECT_THROW(net.route_replay(plan, ropts), ContractViolation);
}

TEST(RoutePlanContracts, CaptureLevelsIsRejected) {
  const std::size_t n = 8;
  Brsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, paper_example_assignment(), {}, plan);
  RouteOptions ropts;
  ropts.capture_levels = true;
  EXPECT_THROW(net.route_replay(plan, ropts), ContractViolation);
}

TEST(RoutePlanContracts, CompileUnderFaultInjectionIsRejected) {
  const std::size_t n = 8;
  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultInjector injector(fplan);
  Brsmn net(n);
  RoutePlan plan;
  RouteOptions opts;
  opts.faults = &injector;
  EXPECT_THROW(
      planner::compile_route(net, paper_example_assignment(), opts, plan),
      ContractViolation);
}

// --- replay fault localization --------------------------------------------
//
// An explain replay that detects a switch fault names the switch, as a
// cold route does: every unicast site of an n = 16 plan, stuck at the
// opposite of its planned setting, must be caught at its own pass and
// localized to exactly that (level, pass, stage, switch).

template <typename Net>
void expect_replay_localizes_stuck_switches() {
  const std::size_t n = 16;
  Rng rng(test_seed(8800));
  const MulticastAssignment a = random_multicast(n, 1.0, rng);
  Net net(n);
  RouteOptions explain;
  explain.explain = true;
  RoutePlan plan;
  planner::compile_route(net, a, explain, plan);
  std::size_t localized = 0;
  for (const PassExplanation& p : plan.explanation->passes) {
    if (p.kind == PassKind::Final) continue;
    for (int stage = 1; stage <= p.stages(); ++stage) {
      const auto& row = p.decisions[static_cast<std::size_t>(stage - 1)];
      for (std::size_t sw = 0; sw < row.size(); ++sw) {
        const SwitchSetting planned = row[sw].setting;
        if (planned != SwitchSetting::Parallel &&
            planned != SwitchSetting::Cross) {
          continue;  // broadcast sites are immune
        }
        fault::FaultSpec f;
        f.kind = fault::FaultKind::StuckSetting;
        f.stuck = opposite_unicast(planned);
        f.level = p.level;
        f.pass = p.kind;
        f.stage = stage;
        f.index = sw;
        fault::FaultPlan fplan;
        fplan.n = n;
        fplan.faults.push_back(f);
        fault::FaultInjector injector(fplan);
        RouteOptions ropts = explain;
        ropts.faults = &injector;
        SCOPED_TRACE(fault::describe(f));
        try {
          net.route_replay(plan, ropts);
          ADD_FAILURE() << "replay missed a changed switch";
        } catch (const fault::FaultDetected& e) {
          const fault::FaultReport& r = e.report();
          EXPECT_EQ(r.at.level, p.level);
          EXPECT_EQ(r.at.pass, p.kind);
          ASSERT_EQ(r.sites.size(), 1u);
          EXPECT_EQ(r.sites[0],
                    (fault::FaultSiteMismatch{p.level, p.kind, stage, sw,
                                              planned, f.stuck}));
          ++localized;
        }
      }
    }
  }
  EXPECT_GT(localized, 0u);
}

TEST(RoutePlanReplayFaults, UnrolledReplayLocalizesStuckSwitch) {
  expect_replay_localizes_stuck_switches<Brsmn>();
}

TEST(RoutePlanReplayFaults, FeedbackReplayLocalizesStuckSwitch) {
  expect_replay_localizes_stuck_switches<FeedbackBrsmn>();
}

// --- fingerprint ----------------------------------------------------------

TEST(AssignmentFingerprint, DistinguishesAssignments) {
  const std::size_t n = 16;
  Rng rng(test_seed(8400));
  MulticastAssignment a = random_multicast(n, 0.5, rng);
  MulticastAssignment b = a;  // identical copy
  EXPECT_EQ(assignment_fingerprint(a), assignment_fingerprint(b));

  // Any extra connection must move the fingerprint.
  MulticastAssignment c = a;
  std::size_t free_out = 0;
  while (c.output_claimed(free_out)) ++free_out;
  c.connect(0, free_out);
  EXPECT_NE(assignment_fingerprint(a), assignment_fingerprint(c));

  // Size is part of the fingerprint.
  EXPECT_NE(assignment_fingerprint(MulticastAssignment(8)),
            assignment_fingerprint(MulticastAssignment(16)));
}

// --- zero-allocation steady state -----------------------------------------

TEST(RoutePlanZeroAlloc, SteadyStateUnrolledReplayDoesNotAllocate) {
  const std::size_t n = 64;
  Rng rng(test_seed(8500));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  Brsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, a, {}, plan);

  const RouteOptions ropts;  // self-check on; no metrics/tracer/explain/faults
  RouteResult out;
  net.route_replay_into(plan, ropts, out);  // warmup: workspace + capacities
  net.route_replay_into(plan, ropts, out);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  net.route_replay_into(plan, ropts, out);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(out.delivered, plan.delivered);
}

TEST(RoutePlanZeroAlloc, SteadyStateFeedbackReplayDoesNotAllocate) {
  const std::size_t n = 64;
  Rng rng(test_seed(8600));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  FeedbackBrsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, a, {}, plan);

  const RouteOptions ropts;
  RouteResult out;
  net.route_replay_into(plan, ropts, out);
  net.route_replay_into(plan, ropts, out);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  net.route_replay_into(plan, ropts, out);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(out.delivered, plan.delivered);
}

// --- stream-free compile: nothing allocated per copy -----------------------

/// Heap blocks a compiled plan owns, one per non-empty vector: exactly
/// the allocations plan capture makes.
std::uint64_t plan_blocks(const RoutePlan& plan) {
  const auto held = [](const auto& v) -> std::uint64_t {
    return v.capacity() != 0 ? 1 : 0;
  };
  std::uint64_t blocks = held(plan.levels) + held(plan.final_t0) +
                         held(plan.final_t1) + held(plan.final_t2) +
                         held(plan.delivered) +
                         held(plan.broadcasts_per_level);
  for (const PlanLevel& pl : plan.levels) {
    blocks += held(pl.entry_t0) + held(pl.entry_t1) + held(pl.entry_t2) +
              held(pl.scatter_masks) + held(pl.quasisort_masks) +
              held(pl.events) + held(pl.parent_codes) +
              held(pl.post_scatter) + held(pl.divided_t2) +
              held(pl.post_quasisort);
    for (const auto* masks : {&pl.scatter_masks, &pl.quasisort_masks}) {
      for (const auto& mk : *masks) blocks += held(mk.su) + held(mk.sl);
    }
    for (const auto& stage : pl.events) blocks += held(stage);
  }
  return blocks;
}

/// Bytes a compiled plan's vectors hold (their sizes, not capacities),
/// plus the level records themselves.
std::uint64_t plan_bytes(const RoutePlan& plan) {
  const auto bytes = [](const auto& v) -> std::uint64_t {
    return v.size() * sizeof(v[0]);
  };
  std::uint64_t total = bytes(plan.levels) + bytes(plan.final_t0) +
                        bytes(plan.final_t1) + bytes(plan.final_t2) +
                        bytes(plan.delivered) +
                        bytes(plan.broadcasts_per_level);
  for (const PlanLevel& pl : plan.levels) {
    total += bytes(pl.entry_t0) + bytes(pl.entry_t1) + bytes(pl.entry_t2) +
             bytes(pl.scatter_masks) + bytes(pl.quasisort_masks) +
             bytes(pl.events) + bytes(pl.parent_codes) +
             bytes(pl.post_scatter) + bytes(pl.divided_t2) +
             bytes(pl.post_quasisort);
    for (const auto* masks : {&pl.scatter_masks, &pl.quasisort_masks}) {
      for (const auto& mk : *masks) total += bytes(mk.su) + bytes(mk.sl);
    }
    for (const auto& stage : pl.events) total += bytes(stage);
  }
  return total;
}

/// Inputs at the extremes of copy count and fanout: n unicast copies and
/// no broadcast, one source broadcast to every output (n - 1 broadcast
/// copies), and a dense random multicast.
std::vector<MulticastAssignment> fanout_extremes(std::size_t n) {
  MulticastAssignment identity(n);
  for (std::size_t i = 0; i < n; ++i) identity.connect(i, i);
  Rng rng(test_seed(8700));
  return {identity, full_broadcast(n), random_multicast(n, 1.0, rng)};
}

template <typename Net>
void check_compile_allocations() {
  const std::size_t n = 1024;
  const auto inputs = fanout_extremes(n);
  Net net(n);
  RouteOptions packed;
  packed.engine = RouteEngine::Packed;
  for (int warm = 0; warm < 2; ++warm) {  // workspace + capacities
    for (const auto& a : inputs) {
      RoutePlan plan;
      planner::compile_route(net, a, {}, plan);
      net.route(a, packed);
    }
  }
  std::vector<std::uint64_t> compile_residual;
  std::vector<std::uint64_t> route_allocs;
  std::vector<std::uint64_t> blocks;
  std::vector<std::uint64_t> bytes;
  for (const auto& a : inputs) {
    RoutePlan plan;
    std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    const RouteResult cold = planner::compile_route(net, a, {}, plan);
    const std::uint64_t compile_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(cold.delivered, expected_delivery(a));
    compile_residual.push_back(compile_allocs - plan_blocks(plan));
    blocks.push_back(plan_blocks(plan));
    bytes.push_back(plan_bytes(plan));

    before = g_heap_allocs.load(std::memory_order_relaxed);
    const RouteResult routed = net.route(a, packed);
    route_allocs.push_back(g_heap_allocs.load(std::memory_order_relaxed) -
                           before);
    EXPECT_EQ(routed.delivered, expected_delivery(a));
  }
  // Identity, one-source broadcast and dense multicast differ by n - 1
  // copies' worth of fanout; the counts must not.
  EXPECT_EQ(compile_residual[0], compile_residual[1]);
  EXPECT_EQ(compile_residual[0], compile_residual[2]);
  EXPECT_EQ(route_allocs[0], route_allocs[1]);
  EXPECT_EQ(route_allocs[0], route_allocs[2]);
  // The plan footprint, pinned: a plan holds each pass's settings once,
  // as stage masks (both schedules capture the same shapes).
  EXPECT_EQ(blocks, (std::vector<std::uint64_t>{303, 321, 343}));
  EXPECT_EQ(bytes, (std::vector<std::uint64_t>{90576, 106928, 102160}));
}

TEST(CompileAllocations, UnrolledCompileAllocatesOnlyForPlanCapture) {
  check_compile_allocations<Brsmn>();
}

TEST(CompileAllocations, FeedbackCompileAllocatesOnlyForPlanCapture) {
  check_compile_allocations<FeedbackBrsmn>();
}

}  // namespace
}  // namespace brsmn
