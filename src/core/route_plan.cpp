// Replay of compiled route plans (see route_plan.hpp).
//
// A replay re-runs only the datapath: per level it reloads the identity
// codes, restores the entry tag planes, copies each pass's stored masks
// into the network's settings ledger, and propagates. The plan's
// post-pass checkpoints stand in for the configuration-phase contracts:
// under the self-check, any divergence of the replayed state from the
// stored state — which is exactly what an injected fault produces —
// raises fault::FaultDetected at the (level, pass) that diverged,
// mirroring a cold route's detection points.
#include "core/route_plan.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "core/fabric_schedule.hpp"
#include "core/level_kernel.hpp"
#include "fault/fault_injector.hpp"
#include "fault/locate.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/route_probe.hpp"
#include "obs/tracer.hpp"

namespace brsmn {

namespace {

namespace pk = packed;

void copy_span(std::span<std::uint64_t> dst, const pk::Words& src) {
  BRSMN_EXPECTS(dst.size() == src.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

/// Whole-state comparison against a stored checkpoint. Valid because
/// plane bits at positions >= n are zero in both the cold route and the
/// replay (loads clear them; the stage masks carry no bits past n).
bool state_equals(const pkern::LevelKernel& kx, const pk::Words& snap) {
  const auto words = kx.state.words();
  return words.size() == snap.size() &&
         std::equal(words.begin(), words.end(), snap.begin());
}

/// The packed analogue of fault::apply_dead_lines: clear each armed dead
/// line to the empty pattern (ε, tag 110) directly in the tag planes,
/// recording the same FaultActivity entries as the scalar seam. Returns
/// whether any cleared line was occupied.
bool apply_dead_lines_packed(const fault::FaultInjector* injector,
                             std::uint64_t route, int level,
                             fault::ImplKind impl, RouteEngine engine,
                             std::span<std::uint64_t> t0,
                             std::span<std::uint64_t> t1,
                             std::span<std::uint64_t> t2,
                             fault::FaultActivity* activity) {
  bool any_killed = false;
  fault::apply_dead_lines_with(
      injector, route, level, impl, engine, activity, [&](std::size_t line) {
        const bool was_occupied =
            !(pk::plane_get(t0, line) && pk::plane_get(t1, line));
        pk::plane_set(t0, line, true);
        pk::plane_set(t1, line, true);
        pk::plane_set(t2, line, false);
        any_killed = any_killed || was_occupied;
        return was_occupied;
      });
  return any_killed;
}

/// The replay loop over either fabric schedule: each pass's stored masks
/// go into the schedule's ledger slot for it, where the fault seam
/// corrupts them and the datapath reads them. The replay always drives
/// the packed datapath, so the seam sees RouteEngine::Packed regardless
/// of options.engine (the engines are bit-identical, and so are their
/// replays).
template <typename Schedule>
void replay_core(const Schedule& sched, const RoutePlan& plan,
                 const RouteOptions& options, RouteResult& out,
                 std::unique_ptr<pkern::ReplayWorkspace>& ws_slot) {
  constexpr fault::ImplKind impl = Schedule::Level::kImpl;
  const std::size_t n = sched.size();
  const int m = sched.levels();
  BRSMN_EXPECTS_MSG(plan.n == n && plan.m == m,
                    "route plan was compiled for a different network size");
  BRSMN_EXPECTS_MSG(plan.impl == impl,
                    "route plan was compiled for the other implementation");
  BRSMN_EXPECTS_MSG(!options.capture_levels,
                    "route_replay cannot capture level inputs");
  BRSMN_EXPECTS_MSG(!options.explain || plan.explanation.has_value(),
                    "explain replay requires a plan compiled with explain");
  if (ws_slot == nullptr) {
    ws_slot = std::make_unique<pkern::ReplayWorkspace>(n, m);
  }
  pkern::ReplayWorkspace& ws = *ws_slot;

  const sched::RouteRun run(options, n);
  const obs::RouteProbe& probe = run.probe;
  obs::Histogram* replay_hist =
      probe.enabled()
          ? &probe.registry->histogram(probe.prefix + ".phase.replay_ns")
          : nullptr;
  obs::PhaseTimer total_timer(probe.total);
  obs::PerfScope total_perf(probe.profiler, probe.perf_total);
  obs::PhaseTimer replay_timer(replay_hist);
  obs::PerfScope replay_perf(probe.profiler, probe.perf_replay);
  obs::TraceSpan replay_span(probe.tracer, "plan.replay");

  pkern::LevelKernel& kx = ws.kx;
  // Replay is backend-agnostic: the stored masks, events and checkpoints
  // are plain words, so any backend — not necessarily the one that
  // compiled the plan — replays them bit-identically.
  kx.ops = &simd::ops(options.simd_backend);

  for (int k = 1; k <= m - 1; ++k) {
    const PlanLevel& pl = plan.levels[static_cast<std::size_t>(k - 1)];
    const auto lv = sched.level(k);
    const int S = pl.stages;
    kx.stages = S;
    // The workspace kernel persists across replays; (re)binding the
    // heatmap each route keeps unobserved replays observation-free.
    kx.heat = run.heatmap;
    kx.heat_level = k;
    pkern::load_identity_codes(kx);
    copy_span(kx.tag_plane(0), pl.entry_t0);
    copy_span(kx.tag_plane(1), pl.entry_t1);
    copy_span(kx.tag_plane(2), pl.entry_t2);
    if (run.faults != nullptr) {
      apply_dead_lines_packed(run.faults, run.route_ord, k, impl,
                              RouteEngine::Packed, kx.tag_plane(0),
                              kx.tag_plane(1), kx.tag_plane(2), run.activity);
    }
    const fault::PassSeam seam = run.seam(k, impl, RouteEngine::Packed);

    // Scatter pass: stored settings in, datapath through, checkpoint out.
    kx.masks = lv.masks(PassKind::Scatter);
    pkern::copy_masks(kx.masks, pl.scatter_masks);
    seam.apply(lv, PassKind::Scatter, kx.masks);
    for (std::size_t j = 0; j < static_cast<std::size_t>(S); ++j) {
      kx.events[j] = pl.events[j];
    }
    kx.num_events = pl.num_events;
    kx.parent_code.assign(pl.num_events, 0);
    fault::guard(run.checking, n, run.route_ord, k, PassKind::Scatter, true,
                 [&] {
      obs::PhaseTimer scatter_datapath(probe.datapath);
      pkern::run_scatter_datapath(kx);
      scatter_datapath.stop();
      if (run.checking) {
        BRSMN_ENSURES_MSG(
            state_equals(kx, pl.post_scatter),
            "replay diverged from the plan after the scatter pass");
      }
    });

    // Quasisort pass: the ε-division is part of the plan — restore its
    // t2 plane rather than re-deriving it.
    copy_span(kx.tag_plane(2), pl.divided_t2);
    kx.masks = lv.masks(PassKind::Quasisort);
    pkern::copy_masks(kx.masks, pl.quasisort_masks);
    seam.apply(lv, PassKind::Quasisort, kx.masks);
    fault::guard(run.checking, n, run.route_ord, k, PassKind::Quasisort, true,
                 [&] {
      obs::PhaseTimer sort_datapath(probe.datapath);
      pkern::run_unicast_datapath(kx);
      sort_datapath.stop();
      if (run.checking) {
        BRSMN_ENSURES_MSG(
            state_equals(kx, pl.post_quasisort),
            "replay diverged from the plan after the quasisort pass");
      }
    });
  }

  // Final 2x2-switch level: the plan's delivery is correct unless a dead
  // line kills a live packet at the delivery level — screen for exactly
  // that with the stored entry planes.
  if (run.faults != nullptr) {
    ws.final_t0 = plan.final_t0;
    ws.final_t1 = plan.final_t1;
    ws.final_t2 = plan.final_t2;
    fault::guard(true, n, run.route_ord, m, PassKind::Final, true, [&] {
      const bool killed = apply_dead_lines_packed(
          run.faults, run.route_ord, m, impl, RouteEngine::Packed,
          ws.final_t0, ws.final_t1, ws.final_t2, run.activity);
      BRSMN_ENSURES_MSG(
          !killed,
          "replay: a dead line at the delivery level killed a live packet");
    });
  }

  // The final 2x2 level has no replayed datapath — record its entry
  // occupancy from the stored planes (screened for dead lines when
  // faults are armed), matching a cold route's final-level record.
  if (run.heatmap != nullptr) {
    if (run.faults != nullptr) {
      run.heatmap->record_final_tags(ws.final_t0, ws.final_t1);
    } else {
      run.heatmap->record_final_tags(plan.final_t0, plan.final_t1);
    }
  }

  out.delivered = plan.delivered;
  out.stats = plan.stats;
  out.broadcasts_per_level = plan.broadcasts_per_level;
  out.level_inputs.clear();
  if (options.explain) {
    out.explanation = plan.explanation;
  } else {
    out.explanation.reset();
  }

  replay_span.end();
  replay_perf.stop();
  replay_timer.stop();
  total_perf.stop();
  total_timer.stop();
  if constexpr (obs::kEnabled) {
    if (probe.enabled()) probe.record_stats(out.stats);
  }
}

/// replay_core, with a detection under explain localized to the
/// switches it names, as a cold route's is.
template <typename Schedule>
void replay(const Schedule& sched, const RoutePlan& plan,
            const RouteOptions& options, RouteResult& out,
            std::unique_ptr<pkern::ReplayWorkspace>& ws_slot) {
  try {
    replay_core(sched, plan, options, out, ws_slot);
  } catch (const fault::FaultDetected& e) {
    if (options.explain) fault::rethrow_localized(sched, e, *plan.explanation);
    throw;
  }
}

}  // namespace

// Out-of-line where pkern::ReplayWorkspace is complete.
Brsmn::~Brsmn() = default;
Brsmn::Brsmn(Brsmn&&) noexcept = default;
Brsmn& Brsmn::operator=(Brsmn&&) noexcept = default;
FeedbackBrsmn::~FeedbackBrsmn() = default;
FeedbackBrsmn::FeedbackBrsmn(FeedbackBrsmn&&) noexcept = default;
FeedbackBrsmn& FeedbackBrsmn::operator=(FeedbackBrsmn&&) noexcept = default;

RouteResult Brsmn::route_replay(const RoutePlan& plan,
                                const RouteOptions& options) {
  RouteResult out;
  route_replay_into(plan, options, out);
  return out;
}

void Brsmn::route_replay_into(const RoutePlan& plan,
                              const RouteOptions& options, RouteResult& out) {
  replay(schedule(), plan, options, out, replay_ws_);
}

RouteResult FeedbackBrsmn::route_replay(const RoutePlan& plan,
                                        const RouteOptions& options) {
  RouteResult out;
  route_replay_into(plan, options, out);
  return out;
}

void FeedbackBrsmn::route_replay_into(const RoutePlan& plan,
                                      const RouteOptions& options,
                                      RouteResult& out) {
  replay(schedule(), plan, options, out, replay_ws_);
}

std::uint64_t assignment_fingerprint(const MulticastAssignment& a) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV-1a 64 prime
  };
  mix(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& dests = a.destinations(i);
    mix(dests.size());
    for (const std::size_t d : dests) mix(d);
  }
  return h;
}

namespace planner {

RouteResult compile_route(Brsmn& net, const MulticastAssignment& assignment,
                          const RouteOptions& options, RoutePlan& plan) {
  BRSMN_EXPECTS_MSG(options.faults == nullptr,
                    "cannot compile a route plan under fault injection");
  RouteOptions co = options;
  co.plan_cache = nullptr;
  co.capture_levels = false;
  return packed_route(net, assignment, co, &plan);
}

RouteResult compile_route(FeedbackBrsmn& net,
                          const MulticastAssignment& assignment,
                          const RouteOptions& options, RoutePlan& plan) {
  BRSMN_EXPECTS_MSG(options.faults == nullptr,
                    "cannot compile a route plan under fault injection");
  RouteOptions co = options;
  co.plan_cache = nullptr;
  co.capture_levels = false;
  return packed_route(net, assignment, co, &plan);
}

}  // namespace planner

}  // namespace brsmn
