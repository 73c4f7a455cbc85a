// Cold route vs warm plan replay vs deduplicated batches
// (core/route_plan.hpp, api/plan_cache.hpp).
//
// The cold families route a fixed dense multicast from scratch through
// the packed engine (cold.route.* / cold.feedback.* metric prefixes);
// the warm families replay the compiled plan of the same assignment
// (warm.route.* / warm.feedback.*), so one --metrics-out dump carries
// the pair and tools/bench_diff can gate the warm/cold ratio, e.g.
//   warm.route.phase.replay_ns/cold.route.phase.total_ns:p50
// (the CI bound is 0.33 at n=1024 — see docs/PERFORMANCE.md). The warm
// families also count heap allocations across steady-state replays into
// the warm.*.replay_allocs counters, giving CI its alloc-count=0 gate.
//
// Each family resets its own metric prefix when it first runs at a size
// (MetricRegistry::reset(prefix)), so the exported histograms describe
// exactly the last size the family ran — at the CI filter that is
// n=1024 — instead of pooling every size, while the repetitions of that
// size pool: with --benchmark_repetitions=5
// --benchmark_enable_random_interleaving=true (as CI runs it) the warm
// and cold samples of a ratio spread over the same stretch of wall time.
// (Interleaving several sizes keeps only each family's last run of one
// size, so filter to one size when interleaving.)
//
// --metrics-out=<path> / --trace-out=<path> as in bench_routing_time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "api/plan_cache.hpp"
#include "api/parallel_router.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

// --- allocation counter ---------------------------------------------------
//
// Counting global operator new, as in tests/test_route_plan.cpp: the
// warm benches measure the allocation count of steady-state replays and
// export it for the CI zero-allocation gate.

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;  // set when --metrics-out
brsmn::obs::Tracer* g_tracer = nullptr;           // set when --trace-out

/// The options of one family's run at size n; resets the family's
/// prefix when the family last ran at another size (or never ran).
brsmn::RouteOptions family_options(std::string_view prefix, std::size_t n) {
  static std::map<std::string, std::size_t, std::less<>> last_size;
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.engine = brsmn::RouteEngine::Packed;
  options.metrics_prefix = prefix;
  const auto [it, first] = last_size.try_emplace(std::string(prefix), n);
  if (g_metrics != nullptr && (first || it->second != n)) {
    g_metrics->reset(prefix);
  }
  it->second = n;
  return options;
}

brsmn::MulticastAssignment bench_assignment(std::size_t n) {
  brsmn::Rng rng(1);
  return brsmn::random_multicast(n, 0.9, rng);
}

/// Measure the heap-allocation count of one steady-state replay
/// (uninstrumented options — attaching a registry allocates histogram
/// names by design) and export it as <prefix>.replay_allocs.
template <typename Net>
void export_replay_allocs(Net& net, const brsmn::RoutePlan& plan,
                          std::string_view prefix) {
  if (g_metrics == nullptr) return;
  const brsmn::RouteOptions plain;
  brsmn::RouteResult out;
  net.route_replay_into(plan, plain, out);  // warm the workspace
  net.route_replay_into(plan, plain, out);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) net.route_replay_into(plan, plain, out);
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  g_metrics->counter(std::string(prefix) + ".replay_allocs").add(allocs);
}

// --- unrolled network -----------------------------------------------------

void BM_ColdUnrolledRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  const auto a = bench_assignment(n);
  const auto options = family_options("cold.route", n);
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ColdUnrolledRoute)->RangeMultiplier(4)->Range(64, 1024);

void BM_WarmUnrolledReplay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  const auto a = bench_assignment(n);
  brsmn::RoutePlan plan;
  brsmn::planner::compile_route(net, a, {}, plan);
  const auto options = family_options("warm.route", n);
  brsmn::RouteResult out;
  for (auto _ : state) {
    net.route_replay_into(plan, options, out);
    benchmark::DoNotOptimize(out);
  }
  export_replay_allocs(net, plan, "warm.route");
}
BENCHMARK(BM_WarmUnrolledReplay)->RangeMultiplier(4)->Range(64, 1024);

// --- feedback network -----------------------------------------------------

void BM_ColdFeedbackRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::FeedbackBrsmn net(n);
  const auto a = bench_assignment(n);
  const auto options = family_options("cold.feedback", n);
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ColdFeedbackRoute)->RangeMultiplier(4)->Range(64, 1024);

void BM_WarmFeedbackReplay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::FeedbackBrsmn net(n);
  const auto a = bench_assignment(n);
  brsmn::RoutePlan plan;
  brsmn::planner::compile_route(net, a, {}, plan);
  const auto options = family_options("warm.feedback", n);
  brsmn::RouteResult out;
  for (auto _ : state) {
    net.route_replay_into(plan, options, out);
    benchmark::DoNotOptimize(out);
  }
  export_replay_allocs(net, plan, "warm.feedback");
}
BENCHMARK(BM_WarmFeedbackReplay)->RangeMultiplier(4)->Range(64, 1024);

// --- deduplicated batches -------------------------------------------------

// A ParallelRouter batch of 16 assignments with 4 distinct patterns:
// dedup collapses each repetition group to one route, and the shared
// plan cache turns repeat batches into replays.
void BM_DedupBatchRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Rng rng(1);
  std::vector<brsmn::MulticastAssignment> unique;
  for (int i = 0; i < 4; ++i) {
    unique.push_back(brsmn::random_multicast(n, 0.9, rng));
  }
  std::vector<brsmn::MulticastAssignment> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& a : unique) batch.push_back(a);
  }
  brsmn::api::PlanCache cache;
  brsmn::api::ParallelRouter router(n, 4);
  router.set_plan_cache(&cache);
  // Only the cache counters are exported: forwarding the registry to the
  // router would record the workers' route.* metrics, whose names belong
  // to bench_routing_time in the merged BENCH_baseline.json.
  if (g_metrics != nullptr) {
    g_metrics->reset("plan_cache");
    cache.attach_metrics(*g_metrics);
  }
  for (auto _ : state) {
    auto results = router.route_batch(batch);
    benchmark::DoNotOptimize(results);
  }
  state.counters["routes_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(batch.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DedupBatchRoute)->RangeMultiplier(4)->Range(64, 1024);

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
               "Cold route vs warm plan replay vs deduplicated batches.\n"
               "Metric prefixes: cold.route.* / warm.route.* / "
               "cold.feedback.* / warm.feedback.* — gate the warm/cold "
               "ratio with tools/bench_diff (docs/PERFORMANCE.md).\n\n");
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
