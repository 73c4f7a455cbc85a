// Cost of resilience (fault/self_check + api/resilient_router).
//
// The online self-check is on by default, so its overhead is the price
// every route pays. This bench routes the same workloads with the check
// on (checked.route.*) and off (unchecked.route.*), so one --metrics-out
// dump carries both sides and CI can gate the p50 ratio (the self-check
// must stay within a few percent of the unchecked path). A second group
// measures the recovery machinery itself: the resilient router's clean
// fast path, a transient-retry route, and a full ladder walk to Failed.
//
// --metrics-out=<path> / --trace-out=<path> as in bench_routing_time.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "api/resilient_router.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;  // set when --metrics-out
brsmn::obs::Tracer* g_tracer = nullptr;           // set when --trace-out

void self_check_bench(benchmark::State& state, bool checked) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  // The checked/unchecked overhead gate is specified on the scalar
  // reference engine.
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.engine = brsmn::RouteEngine::Scalar;
  options.self_check = checked;
  options.metrics_prefix = checked ? "checked.route" : "unchecked.route";
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_CheckedRoute(benchmark::State& state) {
  self_check_bench(state, true);
}
BENCHMARK(BM_CheckedRoute)->RangeMultiplier(4)->Range(64, 1024);

void BM_UncheckedRoute(benchmark::State& state) {
  self_check_bench(state, false);
}
BENCHMARK(BM_UncheckedRoute)->RangeMultiplier(4)->Range(64, 1024);

// The resilient router's fast path: no faults, self-check on — what a
// caller pays for the outcome classification wrapper itself.
void BM_ResilientCleanRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::api::ResilientRouter router(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  for (auto _ : state) {
    auto outcome = router.route(a);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ResilientCleanRoute)->RangeMultiplier(4)->Range(64, 1024);

// A transient fault on every even route ordinal: each faulted route costs
// a detection plus one retry (with explanation grids armed), bounding the
// recovery latency a caller sees under intermittent faults.
void BM_ResilientTransientRecovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::fault::FaultPlan plan;
  plan.n = n;
  brsmn::fault::FaultSpec f;
  f.kind = brsmn::fault::FaultKind::TransientFlip;
  f.level = 1;
  f.pass = brsmn::PassKind::Scatter;
  f.stage = 1;
  f.index = 0;
  f.when = brsmn::fault::Activation{0, UINT64_MAX, 2};
  plan.faults.push_back(f);
  brsmn::fault::FaultInjector injector(plan);
  brsmn::api::ResilientOptions options;
  options.faults = &injector;
  brsmn::api::ResilientRouter router(n, options);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  for (auto _ : state) {
    auto outcome = router.route(a);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ResilientTransientRecovery)->RangeMultiplier(4)->Range(64, 1024);

// Worst case: a permanent dead link under live traffic defeats every
// rung, so each route walks the whole ladder before reporting Failed.
void BM_ResilientLadderExhaustion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::fault::FaultPlan plan;
  plan.n = n;
  brsmn::fault::FaultSpec dead;
  dead.kind = brsmn::fault::FaultKind::DeadLink;
  dead.level = 1;
  dead.index = 0;
  plan.faults.push_back(dead);
  brsmn::fault::FaultInjector injector(plan);
  brsmn::api::ResilientOptions options;
  options.faults = &injector;
  brsmn::api::ResilientRouter router(n, options);
  brsmn::MulticastAssignment a(n);  // identity: line 0 is always live,
  for (std::size_t i = 0; i < n; ++i) a.connect(i, i);  // so the link bites
  for (auto _ : state) {
    auto outcome = router.route(a);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ResilientLadderExhaustion)->RangeMultiplier(4)->Range(64, 256);

}  // namespace

int main(int argc, char** argv) {
  brsmn::obs::MetricRegistry registry;
  brsmn::obs::Tracer tracer;
  const auto metrics_path = brsmn::obs::consume_metrics_out_flag(argc, argv);
  const auto trace_path = brsmn::obs::consume_trace_out_flag(argc, argv);
  if (metrics_path) g_metrics = &registry;
  if (trace_path) g_tracer = &tracer;
  const bool dump_to_stdout = brsmn::obs::claims_stdout(metrics_path) ||
                              brsmn::obs::claims_stdout(trace_path);
  std::FILE* report = dump_to_stdout ? stderr : stdout;
  std::fprintf(report,
               "Self-check overhead and recovery cost.\n"
               "Metric prefixes: checked.route.* / unchecked.route.* — CI "
               "gates their p50 ratio (docs/FAULT_TOLERANCE.md).\n\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (dump_to_stdout) {
    benchmark::ConsoleReporter console;
    console.SetOutputStream(&std::cerr);
    console.SetErrorStream(&std::cerr);
    benchmark::RunSpecifiedBenchmarks(&console);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  if (metrics_path) {
    if (!brsmn::obs::try_write_metrics(*metrics_path, registry)) return 1;
    std::fprintf(stderr, "metrics written to %s\n", metrics_path->c_str());
  }
  if (trace_path) {
    if (!brsmn::obs::try_write_trace(*trace_path, tracer)) return 1;
    std::fprintf(stderr, "trace written to %s\n", trace_path->c_str());
  }
  return 0;
}
