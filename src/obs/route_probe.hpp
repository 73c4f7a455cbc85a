// Pre-resolved metric handles for the routing engines.
//
// Brsmn / FeedbackBrsmn / Bsn time four phases per routed assignment —
// mirroring the gate-delay composition of core/stats.hpp — plus the two
// between-level phases every driver and patch_route run:
//   <prefix>.phase.scatter_ns    scatter configuration sweeps (Theorem 2)
//   <prefix>.phase.eps_divide_ns ε-dividing sweeps (Table 6)
//   <prefix>.phase.quasisort_ns  quasisort configuration sweeps (Lemma 1)
//   <prefix>.phase.datapath_ns   fabric traversals + final 2x2 delivery
//   <prefix>.phase.advance_ns    line state between levels: the scalar
//                                engine's stream advance; the packed
//                                engine's tag-table build, plane load,
//                                tag lookup and gather
//   <prefix>.phase.self_check_ns per-level line-state self-check
//   <prefix>.phase.total_ns      the whole route() call
// and mirror RoutingStats into counters (<prefix>.switch_traversals, ...)
// so concurrent workers aggregate into one registry. The named phases
// never overlap, so they sum to at most total_ns.
//
// The probe is resolved once per route() (seven registry lookups) and then
// passed by pointer through the level/BSN machinery, keeping the per-phase
// cost to a PhaseTimer scope.
#pragma once

#include <string>
#include <string_view>

#include "core/stats.hpp"
#include "obs/metrics.hpp"

namespace brsmn::obs {

class Tracer;
class PhaseProfiler;

struct RouteProbe {
  MetricRegistry* registry = nullptr;
  std::string prefix;
  Histogram* scatter = nullptr;
  Histogram* eps_divide = nullptr;
  Histogram* quasisort = nullptr;
  Histogram* datapath = nullptr;
  Histogram* advance = nullptr;
  Histogram* self_check = nullptr;
  Histogram* total = nullptr;
  /// Event tracer for per-phase spans; set by the engines from
  /// RouteOptions::tracer, independent of the registry (either may be
  /// attached without the other).
  Tracer* tracer = nullptr;
  /// Hardware perf-counter profiler (obs/perf_counters.hpp); set via
  /// attach_profiler from RouteOptions::profiler, independent of the
  /// registry and tracer. The perf_* ids below index its phases — the
  /// same names the phase histograms use, resolved once per route.
  PhaseProfiler* profiler = nullptr;
  std::size_t perf_scatter = 0;
  std::size_t perf_eps_divide = 0;
  std::size_t perf_quasisort = 0;
  std::size_t perf_datapath = 0;
  std::size_t perf_total = 0;
  std::size_t perf_replay = 0;

  bool enabled() const noexcept { return registry != nullptr; }
  bool tracing() const noexcept { return tracer != nullptr; }

  /// Resolve the phase histograms of `prefix` in `registry`.
  static RouteProbe attach(MetricRegistry& registry,
                           std::string_view prefix = "route");

  /// Resolve the phase ids of `p` (no-op on null / unavailable).
  void attach_profiler(PhaseProfiler* p);

  /// Mirror one route's RoutingStats into <prefix>.* counters and bump
  /// <prefix>.routes.
  void record_stats(const RoutingStats& stats) const;
};

}  // namespace brsmn::obs
