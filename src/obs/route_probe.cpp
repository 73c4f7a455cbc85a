#include "obs/route_probe.hpp"

#include "obs/perf_counters.hpp"

namespace brsmn::obs {

RouteProbe RouteProbe::attach(MetricRegistry& registry,
                              std::string_view prefix) {
  RouteProbe probe;
  probe.registry = &registry;
  probe.prefix = std::string(prefix);
  probe.scatter = &registry.histogram(probe.prefix + ".phase.scatter_ns");
  probe.eps_divide =
      &registry.histogram(probe.prefix + ".phase.eps_divide_ns");
  probe.quasisort = &registry.histogram(probe.prefix + ".phase.quasisort_ns");
  probe.datapath = &registry.histogram(probe.prefix + ".phase.datapath_ns");
  probe.advance = &registry.histogram(probe.prefix + ".phase.advance_ns");
  probe.self_check =
      &registry.histogram(probe.prefix + ".phase.self_check_ns");
  probe.total = &registry.histogram(probe.prefix + ".phase.total_ns");
  return probe;
}

void RouteProbe::attach_profiler(PhaseProfiler* p) {
  if (p == nullptr || !p->available()) return;
  profiler = p;
  perf_scatter = p->phase_id("scatter");
  perf_eps_divide = p->phase_id("eps_divide");
  perf_quasisort = p->phase_id("quasisort");
  perf_datapath = p->phase_id("datapath");
  perf_total = p->phase_id("total");
  perf_replay = p->phase_id("replay");
}

void RouteProbe::record_stats(const RoutingStats& stats) const {
  if (registry == nullptr) return;
  registry->counter(prefix + ".routes").add(1);
  registry->counter(prefix + ".switch_traversals")
      .add(stats.switch_traversals);
  registry->counter(prefix + ".broadcast_ops").add(stats.broadcast_ops);
  registry->counter(prefix + ".tree_fwd_ops").add(stats.tree_fwd_ops);
  registry->counter(prefix + ".tree_bwd_ops").add(stats.tree_bwd_ops);
  registry->counter(prefix + ".fabric_passes").add(stats.fabric_passes);
  registry->counter(prefix + ".gate_delay").add(stats.gate_delay);
}

}  // namespace brsmn::obs
