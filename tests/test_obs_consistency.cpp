// Metrics-vs-model consistency: the numbers the observability layer
// reports must agree with the analytic gate-delay model and with the
// engines' own RoutingStats, the named phases must fit inside the total
// on every driver — and survive a JSON export/parse round trip.
// Property-tested across network sizes n in {4 .. 256}.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/route_plan.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/gate_model.hpp"

namespace brsmn {
namespace {

class ObsConsistencyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ObsConsistencyTest, BroadcastCountersMatchPerLevelBreakdown) {
  const std::size_t n = GetParam();
  Brsmn net(n);
  Rng rng(test_seed(n * 13 + 1));
  for (int trial = 0; trial < 8; ++trial) {
    const auto a = random_multicast(n, 0.8, rng);
    const auto result = net.route(a);
    const std::size_t per_level_sum =
        std::accumulate(result.broadcasts_per_level.begin(),
                        result.broadcasts_per_level.end(), std::size_t{0});
    EXPECT_EQ(per_level_sum, result.stats.broadcast_ops)
        << "n=" << n << " trial=" << trial;
  }
}

TEST_P(ObsConsistencyTest, GateDelayMatchesAnalyticModel) {
  // The simulator charges delay per phase as it routes; the model gives
  // the closed form. They must agree exactly, for every assignment —
  // routing time is data-independent (Section 7.2).
  const std::size_t n = GetParam();
  Brsmn net(n);
  FeedbackBrsmn fnet(n);
  Rng rng(test_seed(n * 17 + 3));
  for (int trial = 0; trial < 4; ++trial) {
    const auto a = random_multicast(n, 0.7, rng);
    EXPECT_EQ(net.route(a).stats.gate_delay, model::brsmn_routing_delay(n))
        << "n=" << n;
    EXPECT_EQ(fnet.route(a).stats.gate_delay,
              model::feedback_routing_delay(n))
        << "n=" << n;
  }
}

TEST_P(ObsConsistencyTest, RegistryMirrorsRoutingStats) {
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  RouteOptions options;
  options.metrics = &registry;

  Brsmn net(n);
  Rng rng(test_seed(n * 19 + 7));
  RoutingStats accumulated;
  constexpr int kRoutes = 6;
  for (int trial = 0; trial < kRoutes; ++trial) {
    accumulated += net.route(random_multicast(n, 0.75, rng), options).stats;
  }

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("route.routes").value(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_EQ(registry.counter("route.broadcast_ops").value(),
              accumulated.broadcast_ops);
    EXPECT_EQ(registry.counter("route.switch_traversals").value(),
              accumulated.switch_traversals);
    EXPECT_EQ(registry.counter("route.tree_fwd_ops").value(),
              accumulated.tree_fwd_ops);
    EXPECT_EQ(registry.counter("route.tree_bwd_ops").value(),
              accumulated.tree_bwd_ops);
    EXPECT_EQ(registry.counter("route.fabric_passes").value(),
              accumulated.fabric_passes);
    EXPECT_EQ(registry.counter("route.gate_delay").value(),
              accumulated.gate_delay);
    EXPECT_EQ(registry.counter("route.gate_delay").value(),
              kRoutes * model::brsmn_routing_delay(n));
    // One total-latency sample per route; per-phase timers fire at least
    // once per route (scatter/quasisort run per BSN level).
    EXPECT_EQ(registry.histogram("route.phase.total_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_GE(registry.histogram("route.phase.scatter_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_GE(registry.histogram("route.phase.quasisort_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_GE(registry.histogram("route.phase.datapath_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
  } else {
    // Disabled builds must ignore the registry entirely.
    EXPECT_TRUE(registry.snapshot().counters.empty());
  }
}

TEST_P(ObsConsistencyTest, ExportedJsonRoundTripsLosslessly) {
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  RouteOptions options;
  options.metrics = &registry;
  // Seed the registry regardless of build flavour so the round trip is
  // always exercised on non-trivial content.
  registry.counter("test.seed").add(n);
  registry.gauge("test.gauge").set(0.5 * static_cast<double>(n));

  Brsmn net(n);
  Rng rng(test_seed(n * 23 + 11));
  for (int trial = 0; trial < 3; ++trial) {
    net.route(random_multicast(n, 0.8, rng), options);
  }

  const obs::RegistrySnapshot snap = registry.snapshot();
  const obs::JsonValue doc = obs::parse_json(obs::to_json(registry));

  const obs::JsonObject& counters = doc.at("counters").as_object();
  ASSERT_EQ(counters.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(doc.at("counters").at(name).as_number(),
              static_cast<double>(value))
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_DOUBLE_EQ(doc.at("gauges").at(name).as_number(), value) << name;
  }
  const obs::JsonObject& histograms = doc.at("histograms").as_object();
  ASSERT_EQ(histograms.size(), snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    const obs::JsonValue& j = doc.at("histograms").at(name);
    EXPECT_EQ(j.at("count").as_number(), static_cast<double>(h.count))
        << name;
    EXPECT_DOUBLE_EQ(j.at("sum").as_number(), h.sum) << name;
    EXPECT_DOUBLE_EQ(j.at("p50").as_number(), h.p50) << name;
    EXPECT_DOUBLE_EQ(j.at("p99").as_number(), h.p99) << name;
    ASSERT_EQ(j.at("buckets").as_array().size(), h.buckets.size()) << name;
  }
}

TEST_P(ObsConsistencyTest, FeedbackRegistryMatchesItsOwnStats) {
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  RouteOptions options;
  options.metrics = &registry;

  FeedbackBrsmn net(n);
  Rng rng(test_seed(n * 29 + 5));
  const auto result = net.route(random_multicast(n, 0.8, rng), options);

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("route.routes").value(), 1u);
    EXPECT_EQ(registry.counter("route.gate_delay").value(),
              result.stats.gate_delay);
    EXPECT_EQ(registry.counter("route.fabric_passes").value(),
              result.stats.fabric_passes);
    EXPECT_EQ(registry.histogram("route.phase.total_ns").count(), 1u);
  }
}

/// The named phases of `prefix` never overlap, so together they take at
/// most the total; the between-level phases fire on every driver.
void expect_phases_within_total(obs::MetricRegistry& registry,
                                const std::string& prefix) {
  double named_ns = 0;
  for (const char* phase : {"scatter", "eps_divide", "quasisort", "datapath",
                            "advance", "self_check"}) {
    named_ns +=
        registry.histogram(prefix + ".phase." + phase + "_ns").snapshot().sum;
  }
  const obs::HistogramSnapshot total =
      registry.histogram(prefix + ".phase.total_ns").snapshot();
  EXPECT_GT(total.count, 0u) << prefix;
  EXPECT_LE(named_ns, total.sum) << prefix;
  EXPECT_GT(registry.histogram(prefix + ".phase.advance_ns").count(), 0u)
      << prefix;
  EXPECT_GT(registry.histogram(prefix + ".phase.self_check_ns").count(), 0u)
      << prefix;
}

TEST_P(ObsConsistencyTest, NamedPhasesSumWithinTotal) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  Brsmn net(n);
  FeedbackBrsmn fnet(n);
  Rng rng(test_seed(n * 31 + 9));
  for (int trial = 0; trial < 3; ++trial) {
    const auto a = random_multicast(n, 0.8, rng);
    for (const RouteEngine engine :
         {RouteEngine::Scalar, RouteEngine::Packed}) {
      const std::string kind =
          engine == RouteEngine::Scalar ? "scalar" : "packed";
      const std::string unrolled = kind + ".unrolled";
      const std::string feedback = kind + ".feedback";
      RouteOptions options;
      options.metrics = &registry;
      options.engine = engine;
      options.metrics_prefix = unrolled;
      net.route(a, options);
      options.metrics_prefix = feedback;
      fnet.route(a, options);
    }
    // patch_route: a one-member change of a compiled plan.
    RoutePlan base;
    planner::compile_route(net, a, {}, base);
    MulticastAssignment b = a;
    std::size_t free_out = 0;
    while (free_out < n && b.output_claimed(free_out)) ++free_out;
    if (free_out < n) b.connect(0, free_out);
    RouteOptions options;
    options.metrics = &registry;
    options.metrics_prefix = "patch";
    RoutePlan out;
    ASSERT_TRUE(planner::patch_route(net, b, base, options, out).patched);
  }
  for (const char* prefix : {"scalar.unrolled", "scalar.feedback",
                             "packed.unrolled", "packed.feedback", "patch"}) {
    expect_phases_within_total(registry, prefix);
  }
}

/// The histogram and span names one (engine, schedule) pair emits
/// through route, compile_route, patch_route and route_replay at n = 16.
template <typename Net>
std::pair<std::set<std::string>, std::set<std::string>> emitted_names(
    RouteEngine engine) {
  const std::size_t n = 16;
  Net net(n);
  obs::MetricRegistry registry;
  obs::Tracer tracer;
  RouteOptions options;
  options.metrics = &registry;
  options.tracer = &tracer;
  options.engine = engine;
  Rng rng(test_seed(41));
  const MulticastAssignment a = random_multicast(n, 0.8, rng);
  net.route(a, options);
  RoutePlan plan;
  planner::compile_route(net, a, options, plan);
  MulticastAssignment b = a;
  std::size_t free_out = 0;
  while (free_out < n && b.output_claimed(free_out)) ++free_out;
  if (free_out < n) b.connect(0, free_out);
  RoutePlan patched;
  EXPECT_TRUE(planner::patch_route(net, b, plan, options, patched).patched);
  net.route_replay(plan, options);

  std::set<std::string> histograms;
  for (const auto& [name, h] : registry.snapshot().histograms) {
    histograms.insert(name);
  }
  std::set<std::string> spans;
  for (const obs::CollectedEvent& e : tracer.collect()) {
    if (e.kind == obs::TraceEventKind::Begin) spans.insert(e.name);
  }
  return {histograms, spans};
}

TEST(ObsConsistency, EveryDriverKeepsItsMetricAndSpanNames) {
  // The service benchmark reads route.phase.*_ns, the bench baselines key
  // their families on these prefixes, and trace tooling keys on the span
  // names: every (engine, schedule) pair must emit exactly these.
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::set<std::string> histograms{
      "route.phase.advance_ns",    "route.phase.datapath_ns",
      "route.phase.eps_divide_ns", "route.phase.patch_ns",
      "route.phase.quasisort_ns",  "route.phase.replay_ns",
      "route.phase.scatter_ns",    "route.phase.self_check_ns",
      "route.phase.total_ns"};
  const std::set<std::string> common{"level.1", "level.2", "level.3",
                                     "level.final", "plan.patch",
                                     "plan.replay"};
  const auto with = [&common](std::initializer_list<const char*> names) {
    std::set<std::string> out = common;
    out.insert(names.begin(), names.end());
    return out;
  };
  const std::set<std::string> unrolled =
      with({"brsmn.route", "bsn.scatter.config", "bsn.scatter.datapath",
            "bsn.eps_divide", "bsn.quasisort.config",
            "bsn.quasisort.datapath"});
  const std::set<std::string> feedback =
      with({"feedback.route", "fb.scatter.config", "fb.scatter.datapath",
            "fb.eps_divide", "fb.quasisort.config", "fb.quasisort.datapath"});
  for (const RouteEngine engine : {RouteEngine::Scalar, RouteEngine::Packed}) {
    SCOPED_TRACE(engine == RouteEngine::Scalar ? "scalar" : "packed");
    const auto [uh, us] = emitted_names<Brsmn>(engine);
    EXPECT_EQ(uh, histograms);
    EXPECT_EQ(us, unrolled);
    const auto [fh, fs] = emitted_names<FeedbackBrsmn>(engine);
    EXPECT_EQ(fh, histograms);
    EXPECT_EQ(fs, feedback);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ObsConsistencyTest,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u, 128u,
                                           256u));

TEST(ObsConsistency, NullMetricsLeavesResultsUnchanged) {
  // Instrumentation must be an observer: attaching a registry cannot
  // change a single routing decision or statistic.
  const std::size_t n = 64;
  Brsmn instrumented(n), plain(n);
  obs::MetricRegistry registry;
  RouteOptions with_metrics;
  with_metrics.metrics = &registry;
  Rng rng1(99), rng2(99);
  for (int trial = 0; trial < 5; ++trial) {
    const auto a = random_multicast(n, 0.8, rng1);
    const auto b = random_multicast(n, 0.8, rng2);
    const auto r1 = instrumented.route(a, with_metrics);
    const auto r2 = plain.route(b);
    EXPECT_EQ(r1.delivered, r2.delivered);
    EXPECT_EQ(r1.broadcasts_per_level, r2.broadcasts_per_level);
    EXPECT_EQ(r1.stats.gate_delay, r2.stats.gate_delay);
    EXPECT_EQ(r1.stats.switch_traversals, r2.stats.switch_traversals);
    EXPECT_EQ(r1.stats.broadcast_ops, r2.stats.broadcast_ops);
  }
}

}  // namespace
}  // namespace brsmn
