// Routing time (Table 2 third column / Section 7.2): the modelled gate
// delay per routed assignment, plus wall-clock time of the simulator's
// self-routing pipeline as a sanity proxy.
//
// --metrics-out=<path> attaches a MetricRegistry and dumps per-phase
// wall-clock histograms as JSON after the run. --trace-out=<path> attaches
// an event tracer and dumps the retained window as Chrome trace-event
// JSON (load in chrome://tracing or Perfetto). "-" writes to stdout.
#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdio>
#include <iostream>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/gate_model.hpp"

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;  // set when --metrics-out
brsmn::obs::Tracer* g_tracer = nullptr;           // set when --trace-out

// The route.* families (and the CI route.phase.total_ns gate against
// BENCH_baseline.json) measure the scalar reference engine.
brsmn::RouteOptions route_options() {
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.engine = brsmn::RouteEngine::Scalar;
  return options;
}

void BM_BrsmnRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  std::uint64_t gate_delay = 0;
  for (auto _ : state) {
    auto result = net.route(a, route_options());
    gate_delay = result.stats.gate_delay;
    benchmark::DoNotOptimize(result);
  }
  state.counters["gate_delay"] = static_cast<double>(gate_delay);
  state.counters["per_line_us"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BrsmnRoute)->RangeMultiplier(4)->Range(8, 4096);

void BM_FeedbackRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::FeedbackBrsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  std::uint64_t gate_delay = 0;
  for (auto _ : state) {
    auto result = net.route(a, route_options());
    gate_delay = result.stats.gate_delay;
    benchmark::DoNotOptimize(result);
  }
  state.counters["gate_delay"] = static_cast<double>(gate_delay);
}
BENCHMARK(BM_FeedbackRoute)->RangeMultiplier(4)->Range(8, 4096);

}  // namespace

int main(int argc, char** argv) {
  brsmn::obs::MetricRegistry registry;
  brsmn::obs::Tracer tracer;
  const auto metrics_path = brsmn::obs::consume_metrics_out_flag(argc, argv);
  const auto trace_path = brsmn::obs::consume_trace_out_flag(argc, argv);
  if (metrics_path) g_metrics = &registry;
  if (trace_path) g_tracer = &tracer;
  // A `-` dump owns stdout: the report moves to stderr so the stream
  // stays pure JSON for the pipeline consuming it.
  const bool dump_to_stdout = brsmn::obs::claims_stdout(metrics_path) ||
                              brsmn::obs::claims_stdout(trace_path);
  std::FILE* report = dump_to_stdout ? stderr : stdout;
  std::fprintf(
      report,
      "Routing time in gate delays (pipelined 1-bit adders, Fig. 12): "
      "grows as log^2 n\n");
  std::fprintf(report, "%8s %16s %16s\n", "n", "unrolled", "feedback");
  for (std::size_t n = 8; n <= 1u << 16; n <<= 2) {
    std::fprintf(report, "%8zu %16" PRIu64 " %16" PRIu64 "\n", n,
                 brsmn::model::brsmn_routing_delay(n),
                 brsmn::model::feedback_routing_delay(n));
  }
  std::fprintf(report, "\n");
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
