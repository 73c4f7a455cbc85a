// Service benchmark for BRSMN at n = 1024.
//
// Two closed-loop clients (switch schedulers that wait for each frame's
// route before sending the next) drive one api::Cluster — plus an
// api::GroupManager for group_churn — configured explicitly:
//
//   engine Packed (SIMD backend Auto), self_check, verify_delivery,
//   plan_cache (256 plans per shard), 2 shards x 1 worker, no control
//   thread (health.probe_interval = 0).
//
// Untraced (--trace 0): set the service up --setups times (the median is
// setup_s), then run the timed window and print the end-to-end metrics.
// Traced (--trace 1): the same loop with only the benchmark's own spans
// (phase A), the same loop again with the program's metrics registry and
// tracer attached (phase B), and single-threaded drives of the inner
// layers' public functions on the workload's own inputs (phase C). The
// per-layer ledger and its residual come from those three.
//
// Every delivery is checked; the last line of stdout is one JSON report.
// Usage: service_bench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--requests <per client>]
//                      [--setups <k>] [--poison-reference]
//        service_bench --self-test

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/cluster.hpp"
#include "api/group_manager.hpp"
#include "api/plan_cache.hpp"
#include "api/resilient_router.hpp"
#include "bench_support.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/route_plan.hpp"
#include "core/simd_backend.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

#ifndef SERVICEBENCH_BUILD_TYPE
#define SERVICEBENCH_BUILD_TYPE "unknown"
#endif

namespace sb {
namespace {

using brsmn::MulticastAssignment;
using brsmn::RouteEngine;
using Clock = std::chrono::steady_clock;
using Delivery = std::vector<std::optional<std::size_t>>;

constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---- host facts ---------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Aggregate steal ticks from /proc/stat ("cpu" line, 8th value); -1 when
/// unreadable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (long long& x : v) {
    if (!(in >> x)) return -1;
  }
  return v[7];
}

// ---- JSON output -------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

// ---- inputs and service --------------------------------------------------------

struct Inputs {
  Workload workload = Workload::HotReplay;
  std::uint64_t seed = 0;
  std::vector<MulticastAssignment> pool;  ///< hot_replay, faulted_replica
  std::vector<Delivery> pool_expected;
  std::vector<GroupState> groups;  ///< group_churn
};

/// `poison` corrupts every reference delivery, so that a correct
/// service must fail the run (the tests' check of the checker).
Inputs make_inputs(Workload w, std::uint64_t seed, bool poison) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  if (w == Workload::HotReplay || w == Workload::FaultedReplica) {
    in.pool = make_pool(seed, w == Workload::FaultedReplica);
    for (const MulticastAssignment& a : in.pool) {
      in.pool_expected.push_back(brsmn::expected_delivery(a));
      if (poison) {
        Delivery& e = in.pool_expected.back();
        e[0] = e[0].has_value() ? std::nullopt : std::optional<std::size_t>(0);
      }
    }
  }
  if (w == Workload::GroupChurn) in.groups = make_groups(seed);
  return in;
}

/// The fault of faulted_replica: shard 0's unrolled fabric has the first
/// scatter stage of level 1 stuck at Cross (a failed stage-control line),
/// which every dense assignment trips. Both engines detect it on the
/// unrolled fabric; the clean feedback fabric delivers, degraded.
brsmn::fault::FaultPlan replica_fault() {
  brsmn::fault::FaultPlan plan;
  plan.n = kN;
  for (std::size_t i = 0; i < kN / 2; ++i) {
    brsmn::fault::FaultSpec spec;
    spec.kind = brsmn::fault::FaultKind::StuckSetting;
    spec.level = 1;
    spec.pass = brsmn::PassKind::Scatter;
    spec.stage = 1;
    spec.index = i;
    spec.stuck = brsmn::SwitchSetting::Cross;
    spec.impl = brsmn::fault::ImplKind::Unrolled;
    plan.faults.push_back(spec);
  }
  return plan;
}

struct Hooks {
  brsmn::obs::MetricRegistry* metrics = nullptr;
  brsmn::obs::Tracer* tracer = nullptr;
};

struct Service {
  std::unique_ptr<brsmn::fault::FaultInjector> injector;
  std::unique_ptr<brsmn::api::GroupManager> groups;
  std::unique_ptr<brsmn::api::Cluster> cluster;  ///< last: destroyed first

  /// Tears down in dependency order: the cluster's workers first.
  void reset() {
    cluster.reset();
    groups.reset();
    injector.reset();
  }
};

brsmn::api::ClusterConfig service_config(const Inputs& in, const Hooks& hooks,
                                         brsmn::fault::FaultInjector* faults) {
  brsmn::api::ClusterConfig cfg;
  cfg.shards = kShards;
  cfg.workers_per_shard = 1;
  cfg.engine = RouteEngine::Packed;  // SIMD backend: Auto (RouteOptions default)
  cfg.self_check = true;
  cfg.verify_delivery = true;
  cfg.plan_cache = true;
  cfg.plan_cache_capacity = 256;
  cfg.health.probe_interval = std::chrono::milliseconds(0);
  cfg.seed = in.seed;
  cfg.metrics = hooks.metrics;
  cfg.tracer = hooks.tracer;
  if (faults != nullptr) cfg.shard_faults = {faults};
  return cfg;
}

// ---- outcome bookkeeping --------------------------------------------------------

/// Whether `d` delivers exactly the group's membership.
bool delivers(const GroupState& group, const Delivery& d) {
  for (std::size_t o = 0; o < kN; ++o) {
    const std::size_t want = group.owner[o];
    if (want == GroupState::kNone ? d[o].has_value() : d[o] != want) {
      return false;
    }
  }
  return true;
}

/// The ladder of a Packed ResilientRouter with the default retry policy:
/// (Packed, unrolled), (Scalar, unrolled), (Packed, feedback),
/// (Scalar, feedback), two attempts each.
constexpr std::size_t kLadder = 4;
constexpr std::size_t kAttemptsPerPath = 2;

std::size_t ladder_index(const brsmn::api::RoutePath& p) {
  return (p.feedback ? 2 : 0) + (p.engine == RouteEngine::Scalar ? 1 : 0);
}

struct Tally {
  std::vector<double> latency_us;  ///< +inf for failed / rejected / wrong
  std::vector<double> done_s;      ///< completion time, from window start
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t misdelivered = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t attempts = 0;
  std::uint64_t detections = 0;
  std::uint64_t verified_in_service = 0;  ///< plain submits: verify_delivery
  std::array<std::array<std::uint64_t, kLadder>, kShards> path_attempts{};
  std::array<std::uint64_t, kShards> served{};
  std::uint64_t group_violations = 0;
  std::uint64_t mutations = 0;
  double mutate_us = 0.0;
  double submit_us = 0.0;
  std::uint64_t digest = 0xCBF29CE484222325ull;
  Clock::time_point last_done{};
  std::vector<std::string> errors;

  void merge(const Tally& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    attempted += o.attempted;
    delivered += o.delivered;
    degraded += o.degraded;
    failed += o.failed;
    rejected += o.rejected;
    misdelivered += o.misdelivered;
    exceptions += o.exceptions;
    attempts += o.attempts;
    detections += o.detections;
    verified_in_service += o.verified_in_service;
    for (std::size_t s = 0; s < kShards; ++s) {
      served[s] += o.served[s];
      for (std::size_t p = 0; p < kLadder; ++p) {
        path_attempts[s][p] += o.path_attempts[s][p];
      }
    }
    group_violations += o.group_violations;
    mutations += o.mutations;
    mutate_us += o.mutate_us;
    submit_us += o.submit_us;
    digest = fnv_mix(digest, o.digest);
    last_done = std::max(last_done, o.last_done);
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }

  void error(std::string msg) {
    if (errors.size() < 8) errors.push_back(std::move(msg));
  }

  std::uint64_t correct() const { return delivered + degraded - misdelivered; }
};

/// Books one outcome; `check` compares a delivery vector with the
/// reference (null: rely on the cluster's verify_delivery). Returns
/// whether the request delivered correctly.
bool record(Tally& t, const brsmn::api::ClusterOutcome& o,
            const std::function<bool(const Delivery&)>& check) {
  ++t.attempted;
  if (o.rejected) {
    ++t.rejected;
    t.error("request rejected at admission");
    return false;
  }
  if (o.shard < kShards) ++t.served[o.shard];
  const brsmn::api::RequestOutcome& r = o.request;
  t.attempts += r.attempts;
  if (o.shard < kShards && r.attempts > 0) {
    const std::size_t last = ladder_index(r.path);
    for (std::size_t p = 0; p < last; ++p) {
      t.path_attempts[o.shard][p] += kAttemptsPerPath;
    }
    t.path_attempts[o.shard][last] += r.attempts - kAttemptsPerPath * last;
  }
  switch (r.outcome) {
    case brsmn::api::RouteOutcome::Delivered: ++t.delivered; break;
    case brsmn::api::RouteOutcome::DeliveredDegraded: ++t.degraded; break;
    case brsmn::api::RouteOutcome::Failed:
      ++t.failed;
      t.detections += r.attempts;
      t.error("request failed after " + std::to_string(r.attempts) +
              " attempts");
      return false;
  }
  t.detections += r.attempts - 1;
  const bool wrong = o.misdelivered || !r.result.has_value() ||
                     r.result->delivered.size() != kN ||
                     (check && !check(r.result->delivered));
  if (wrong) {
    ++t.misdelivered;
    t.error("wrong delivery vector");
    return false;
  }
  return true;
}

// ---- the closed loop ---------------------------------------------------------

struct LoopSpec {
  double seconds = 10.0;
  std::size_t requests = 0;  ///< per client; nonzero replaces the timer
  bool spans = false;        ///< time submit() and group mutations
};

/// One sub-window of a timed run. The end-to-end figures are medians
/// over the blocks, so a burst of host contention moves few of them.
struct Block {
  double goodput_rps = 0, p50_us = 0, p99_us = 0, cpu_us_per_req = 0;
  std::size_t samples = 0;
};
constexpr std::size_t kBlocks = 10;

struct LoopResult {
  Tally tally;
  std::vector<Block> blocks;  ///< empty for fixed-count runs
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
  long long steal = 0;
  brsmn::api::ClusterTotals before, after;
  /// group_churn: each group's membership as its client left it.
  std::vector<GroupState> shadow;
};

class ClosedLoop {
 public:
  ClosedLoop(const Inputs& in, Service& svc, const LoopSpec& spec)
      : in_(in), svc_(svc), spec_(spec), inflight_(kGroups), shadow_(kGroups) {}

  LoopResult run(brsmn::obs::Tracer* marker = nullptr) {
    std::array<Tally, kClients> tallies;
    std::vector<std::thread> clients;
    std::latch ready(kClients + 1);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, &tallies, &ready] {
        ready.arrive_and_wait();
        try {
          client(c, tallies[c]);
        } catch (const std::exception& e) {
          ++tallies[c].exceptions;
          tallies[c].error(std::string("client error: ") + e.what());
        }
      });
    }
    LoopResult r;
    r.before = svc_.cluster->totals();
    const long long steal0 = steal_ticks();
    const std::uint64_t allocs0 = total_allocs();
    const double cpu0 = process_cpu_seconds();
    if (marker != nullptr) marker->instant("bench.loop_start");
    start_ = Clock::now();
    const auto block = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(spec_.seconds / kBlocks));
    deadline_ = start_ + block * kBlocks;
    ready.arrive_and_wait();
    std::vector<double> block_cpu{cpu0};
    if (spec_.requests == 0) {
      for (std::size_t b = 1; b <= kBlocks; ++b) {
        std::this_thread::sleep_until(start_ + block * b);
        block_cpu.push_back(process_cpu_seconds());
      }
    }
    for (std::thread& t : clients) t.join();
    r.cpu_s = process_cpu_seconds() - cpu0;
    r.allocs = total_allocs() - allocs0;
    const long long steal1 = steal_ticks();
    r.steal = steal0 < 0 || steal1 < 0 ? -1 : steal1 - steal0;
    r.after = svc_.cluster->totals();
    for (const Tally& t : tallies) r.tally.merge(t);
    r.shadow = std::move(shadow_);
    r.window_s = seconds_between(start_, r.tally.last_done);
    if (spec_.requests == 0) {
      const double len = spec_.seconds / kBlocks;
      std::vector<std::vector<double>> lat(kBlocks);
      for (std::size_t i = 0; i < r.tally.done_s.size(); ++i) {
        const auto b = static_cast<std::size_t>(r.tally.done_s[i] / len);
        if (b < kBlocks) lat[b].push_back(r.tally.latency_us[i]);
      }
      for (std::size_t b = 0; b < kBlocks; ++b) {
        Block blk;
        blk.samples = lat[b].size();
        if (blk.samples == 0) continue;
        const auto good = std::count_if(lat[b].begin(), lat[b].end(),
                                        [](double x) { return std::isfinite(x); });
        blk.goodput_rps = static_cast<double>(good) / len;
        blk.cpu_us_per_req = 1e6 * (block_cpu[b + 1] - block_cpu[b]) /
                             static_cast<double>(blk.samples);
        blk.p50_us = nearest_rank(lat[b], 0.50);
        blk.p99_us = nearest_rank(lat[b], 0.99);
        r.blocks.push_back(blk);
      }
    }
    return r;
  }

 private:
  bool more(std::size_t k) const {
    return spec_.requests > 0 ? k < spec_.requests : Clock::now() < deadline_;
  }

  void client(std::size_t c, Tally& t) {
    t.latency_us.reserve(spec_.requests > 0 ? spec_.requests : 1 << 16);
    t.done_s.reserve(t.latency_us.capacity());
    std::optional<HotStream> hot;
    std::optional<ColdStream> cold;
    std::optional<ChurnStream> churn;
    switch (in_.workload) {
      case Workload::HotReplay:
      case Workload::FaultedReplica:
        hot.emplace(in_.seed, c, in_.workload == Workload::FaultedReplica);
        break;
      case Workload::ColdCompile: cold.emplace(in_.seed, c); break;
      case Workload::GroupChurn: churn.emplace(in_.seed, c, in_.groups); break;
    }
    brsmn::api::Cluster& cluster = *svc_.cluster;
    for (std::size_t k = 0; more(k); ++k) {
      std::future<brsmn::api::ClusterOutcome> fut;
      std::function<bool(const Delivery&)> check;
      std::uint64_t group = 0;
      Clock::time_point t0;
      if (hot) {
        const std::size_t idx = hot->next();
        t.digest = fnv_mix(t.digest, idx);
        check = [this, idx](const Delivery& d) {
          return d == in_.pool_expected[idx];
        };
        t0 = Clock::now();
        fut = cluster.submit(in_.pool[idx]);  // copies, as a caller would
      } else if (cold) {
        MulticastAssignment fresh = cold->next();
        for (std::size_t i = 0; i < 8; ++i) {
          for (std::size_t out : fresh.destinations(i)) {
            t.digest = fnv_mix(t.digest, out);
          }
        }
        t0 = Clock::now();
        fut = cluster.submit(std::move(fresh));
      } else {
        const ChurnStep step = churn->next();
        group = step.group;
        t.digest = fnv_mix(fnv_mix(t.digest, step.group),
                           step.output * 2 + (step.join ? 1 : 0));
        if (inflight_[group].load(std::memory_order_acquire) != 0 ||
            !churn->group(group).is_source(step.source)) {
          ++t.group_violations;
        }
        const Clock::time_point m0 = Clock::now();
        if (step.join) {
          svc_.groups->join(group, step.source, step.output);
        } else {
          svc_.groups->leave(group, step.source, step.output);
        }
        t0 = Clock::now();
        if (spec_.spans) t.mutate_us += us_between(m0, t0);
        ++t.mutations;
        const GroupState& ref = churn->group(group);
        check = [&ref](const Delivery& d) { return delivers(ref, d); };
        inflight_[group].store(1, std::memory_order_release);
        fut = cluster.submit_group(*svc_.groups, group);
      }
      if (spec_.spans) t.submit_us += us_between(t0, Clock::now());
      brsmn::api::ClusterOutcome outcome;
      bool ok = false;
      try {
        outcome = fut.get();
        const Clock::time_point t1 = Clock::now();
        ok = record(t, outcome, check);
        t.latency_us.push_back(ok ? us_between(t0, t1) : kInf);
        t.done_s.push_back(seconds_between(start_, t1));
        t.last_done = t1;
        if (!outcome.rejected && !churn) ++t.verified_in_service;
      } catch (const std::exception& e) {
        ++t.attempted;
        ++t.exceptions;
        t.latency_us.push_back(kInf);
        t.last_done = Clock::now();
        t.done_s.push_back(seconds_between(start_, t.last_done));
        t.error(std::string("request threw: ") + e.what());
      }
      if (churn) inflight_[group].store(0, std::memory_order_release);
    }
    if (churn) {
      for (std::uint64_t g : churn->owned()) shadow_[g] = churn->group(g);
    }
  }

  const Inputs& in_;
  Service& svc_;
  LoopSpec spec_;
  std::vector<std::atomic<int>> inflight_;
  std::vector<GroupState> shadow_;  ///< each client writes its own groups
  Clock::time_point start_{};
  Clock::time_point deadline_{};
};

// ---- set-up ---------------------------------------------------------------------

/// Builds the service and warms it up to the workload's steady state:
/// hot_replay / faulted_replica compile the whole pool, cold_compile
/// fills every shard's cache until it evicts, group_churn creates the 64
/// groups and routes each once.
Service build_service(const Inputs& in, const Hooks& hooks, Tally& warm) {
  Service svc;
  if (in.workload == Workload::FaultedReplica) {
    svc.injector =
        std::make_unique<brsmn::fault::FaultInjector>(replica_fault());
  }
  svc.cluster = std::make_unique<brsmn::api::Cluster>(
      kN, service_config(in, hooks, svc.injector.get()));
  brsmn::api::Cluster& cluster = *svc.cluster;

  // Up to kWindow warm-up requests outstanding at once.
  constexpr std::size_t kWindow = 8;
  std::vector<std::pair<std::future<brsmn::api::ClusterOutcome>,
                        std::function<bool(const Delivery&)>>>
      pending;
  auto drain = [&](std::size_t keep) {
    while (pending.size() > keep) {
      try {
        record(warm, pending.front().first.get(), pending.front().second);
      } catch (const std::exception& e) {
        ++warm.attempted;
        ++warm.exceptions;
        warm.error(std::string("warm-up request threw: ") + e.what());
      }
      pending.erase(pending.begin());
    }
  };

  switch (in.workload) {
    case Workload::HotReplay:
    case Workload::FaultedReplica:
      for (std::size_t i = 0; i < in.pool.size(); ++i) {
        pending.emplace_back(cluster.submit(in.pool[i]),
                             [&in, i](const Delivery& d) {
                               return d == in.pool_expected[i];
                             });
        drain(kWindow);
      }
      break;
    case Workload::ColdCompile: {
      ColdStream warm_stream(in.seed, ColdStream::kWarmupClient);
      for (std::size_t i = 0; i < kColdWarmup; ++i) {
        pending.emplace_back(cluster.submit(warm_stream.next()), nullptr);
        drain(kWindow);
      }
      break;
    }
    case Workload::GroupChurn:
      svc.groups = std::make_unique<brsmn::api::GroupManager>(kN);
      if (hooks.metrics != nullptr) svc.groups->attach_metrics(*hooks.metrics);
      for (std::uint64_t g = 0; g < in.groups.size(); ++g) {
        const GroupState& s = in.groups[g];
        for (std::size_t out : s.members) svc.groups->join(g, s.owner[out], out);
      }
      for (std::uint64_t g = 0; g < in.groups.size(); ++g) {
        const GroupState& s = in.groups[g];
        pending.emplace_back(
            cluster.submit_group(*svc.groups, g),
            [&s](const Delivery& d) { return delivers(s, d); });
        drain(kWindow);
      }
      break;
  }
  drain(0);
  return svc;
}

// ---- end-of-run checks --------------------------------------------------------------

struct Verdict {
  bool correct = true;
  std::vector<std::string> errors;
  void fail(std::string msg) {
    correct = false;
    errors.push_back(std::move(msg));
  }
};

/// Conservation, misdelivery, the group invariants and (faulted_replica)
/// that the fault was seen.
void check_run(const Inputs& in, Service& svc, const LoopResult& r,
               const Tally& warm, Verdict& v) {
  const Tally& t = r.tally;
  for (const std::string& e : warm.errors) v.fail("set-up: " + e);
  for (const std::string& e : t.errors) v.fail(e);
  if (warm.misdelivered + t.misdelivered > 0) {
    v.fail("misdeliveries: " + std::to_string(warm.misdelivered + t.misdelivered));
  }
  if (t.exceptions > 0) v.fail("exceptions: " + std::to_string(t.exceptions));
  if (t.group_violations > 0) {
    v.fail("group churn invariant violations: " +
           std::to_string(t.group_violations));
  }
  // Conservation over the timed window: submitted = delivered + degraded
  // + failed + rejected, in the cluster's books and in the clients'.
  const auto d = [&](std::uint64_t brsmn::api::ClusterTotals::*f) {
    return r.after.*f - r.before.*f;
  };
  using T = brsmn::api::ClusterTotals;
  const std::uint64_t submitted = d(&T::submitted);
  const std::uint64_t resolved = d(&T::delivered) + d(&T::delivered_degraded) +
                                 d(&T::failed) + d(&T::rejected);
  if (submitted != resolved || submitted != t.attempted ||
      d(&T::delivered) != t.delivered ||
      d(&T::delivered_degraded) != t.degraded) {
    v.fail("conservation broken: submitted " + std::to_string(submitted) +
           ", resolved " + std::to_string(resolved) + ", clients saw " +
           std::to_string(t.attempted));
  }
  if (d(&T::misdelivered) != 0) v.fail("cluster counted misdeliveries");
  if (in.workload == Workload::FaultedReplica &&
      warm.detections + t.detections == 0) {
    v.fail("faulted_replica never detected its fault");
  }
  if (in.workload == Workload::GroupChurn) {
    // The registry must hold exactly the clients' shadow groups, and no
    // member may belong to an input outside its group's sources.
    for (std::uint64_t g = 0; g < in.groups.size(); ++g) {
      const std::vector<std::size_t> owner =
          svc.groups->snapshot(g).assignment.output_to_input();
      if (g < r.shadow.size() && owner != r.shadow[g].owner) {
        v.fail("group " + std::to_string(g) + " differs from its shadow");
      }
      for (std::size_t src : owner) {
        if (src != MulticastAssignment::kUnassigned &&
            !in.groups[g].is_source(src)) {
          v.fail("group " + std::to_string(g) +
                 " has a member outside its sources");
          break;
        }
      }
    }
  }
}

// ---- phase C: single-threaded drives of the inner layers ------------------------------

struct Direct {
  double expected_us = 0, compile_us = 0, replay_us = 0, patch_us = 0;
  double scalar_us = 0, feedback_us = 0, self_check_us = 0, ladder_us = 0;
  double lookup_us = 0, insert_us = 0;
  double phase_scatter_us = 0, phase_eps_us = 0, phase_quasisort_us = 0;
  double phase_datapath_us = 0, phase_other_us = 0;
  double replay_allocs = 0, compile_allocs = 0, patch_allocs = 0;
};

/// The inputs of phase C: `base` as the workload routes it, and `next`
/// one membership change away (a group_churn step, or elsewhere one
/// output leaving its source).
void direct_inputs(const Inputs& in, std::vector<MulticastAssignment>& base,
                   std::vector<MulticastAssignment>& next) {
  constexpr std::size_t kSamples = 16;
  switch (in.workload) {
    case Workload::HotReplay:
    case Workload::FaultedReplica:
      base.assign(in.pool.begin(), in.pool.begin() + kSamples);
      break;
    case Workload::ColdCompile: {
      ColdStream s(in.seed, 0);
      for (std::size_t i = 0; i < kSamples; ++i) base.push_back(s.next());
      break;
    }
    case Workload::GroupChurn: {
      ChurnStream s(in.seed, 0, in.groups);
      for (std::size_t i = 0; i < kSamples; ++i) {
        const ChurnStep step = s.next();
        MulticastAssignment after = s.group(step.group).assignment();
        MulticastAssignment before = after;
        if (step.join) {
          before.disconnect(step.source, step.output);
        } else {
          before.connect(step.source, step.output);
        }
        base.push_back(std::move(before));
        next.push_back(std::move(after));
      }
      return;
    }
  }
  brsmn::Rng rng(stream_seed(in.seed, 99));
  for (const MulticastAssignment& a : base) {
    MulticastAssignment b = a;
    const std::vector<std::size_t> owner = b.output_to_input();
    std::size_t out = rng.uniform(0, kN - 1);
    while (owner[out] == MulticastAssignment::kUnassigned) out = (out + 1) % kN;
    b.disconnect(owner[out], out);
    next.push_back(std::move(b));
  }
}

template <typename Fn>
double mean_us(std::size_t reps, const std::vector<MulticastAssignment>& xs,
               Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < xs.size(); ++i) fn(i);
  }
  return us_between(t0, Clock::now()) / static_cast<double>(reps * xs.size());
}

Direct drive_layers(const Inputs& in) {
  std::vector<MulticastAssignment> base, next;
  direct_inputs(in, base, next);
  const std::size_t n = base.size();
  Direct d;
  brsmn::Brsmn net(kN);
  brsmn::FeedbackBrsmn fb(kN);
  brsmn::RouteOptions opt;  // what the service's packed rung routes with
  opt.engine = RouteEngine::Packed;
  opt.self_check = true;

  std::size_t sink = 0;
  d.expected_us = mean_us(20, base, [&](std::size_t i) {
    sink += brsmn::expected_delivery(base[i]).size();
  });

  // Compile: a fresh plan per call, as a cache miss builds one.
  std::vector<std::shared_ptr<const brsmn::RoutePlan>> plans(n);
  {
    brsmn::RoutePlan warm;
    brsmn::planner::compile_route(net, base[0], opt, warm);
  }
  std::uint64_t a0 = thread_allocs();
  d.compile_us = mean_us(2, base, [&](std::size_t i) {
    auto plan = std::make_shared<brsmn::RoutePlan>();
    brsmn::planner::compile_route(net, base[i], opt, *plan);
    plans[i] = std::move(plan);
  });
  d.compile_allocs = static_cast<double>(thread_allocs() - a0) / (2.0 * n);

  // The compile's phase split, from the program's own phase histograms.
  {
    brsmn::obs::MetricRegistry reg;
    brsmn::RouteOptions hooked = opt;
    hooked.metrics = &reg;
    for (std::size_t i = 0; i < n; ++i) {
      brsmn::RoutePlan p;
      brsmn::planner::compile_route(net, base[i], hooked, p);
    }
    const auto per_route = [&](const char* name) {
      return reg.histogram(name).snapshot().sum / 1000.0 /
             static_cast<double>(n);
    };
    d.phase_scatter_us = per_route("route.phase.scatter_ns");
    d.phase_eps_us = per_route("route.phase.eps_divide_ns");
    d.phase_quasisort_us = per_route("route.phase.quasisort_ns");
    d.phase_datapath_us = per_route("route.phase.datapath_ns");
    double total = per_route("route.phase.total_ns");
    if (total == 0.0) total = d.compile_us;
    d.phase_other_us = total - d.phase_scatter_us - d.phase_eps_us -
                       d.phase_quasisort_us - d.phase_datapath_us;
  }

  // Replay: steady state with a reused result, metrics and tracer off —
  // the zero-allocation case route_replay_into documents.
  {
    brsmn::RouteResult out;
    constexpr std::size_t kReps = 20;
    double total_us = 0.0;
    std::uint64_t allocs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      net.route_replay_into(*plans[i], opt, out);
      net.route_replay_into(*plans[i], opt, out);
      const std::uint64_t b = thread_allocs();
      const Clock::time_point t0 = Clock::now();
      for (std::size_t r = 0; r < kReps; ++r) {
        net.route_replay_into(*plans[i], opt, out);
      }
      total_us += us_between(t0, Clock::now());
      allocs += thread_allocs() - b;
      if (out.delivered != plans[i]->delivered) {
        throw std::runtime_error("replay delivered a wrong vector");
      }
    }
    d.replay_us = total_us / static_cast<double>(kReps * n);
    d.replay_allocs = static_cast<double>(allocs) / static_cast<double>(kReps * n);
  }

  // Patch: one membership change on top of the compiled base plan, with
  // the group service's abandon budget.
  brsmn::planner::PatchConfig pc;
  pc.max_dirty_fraction = brsmn::api::GroupManagerConfig{}.max_dirty_fraction;
  a0 = thread_allocs();
  d.patch_us = mean_us(2, next, [&](std::size_t i) {
    brsmn::RoutePlan out;
    brsmn::planner::patch_route(net, next[i], *plans[i], opt, out, pc);
  });
  d.patch_allocs = static_cast<double>(thread_allocs() - a0) / (2.0 * n);

  // Self-check cost: the same cold packed route with the check on and off.
  {
    brsmn::RouteOptions off = opt;
    off.self_check = false;
    double on_us = 0.0, off_us = 0.0;
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        Clock::time_point t0 = Clock::now();
        sink += net.route(base[i], opt).delivered.size();
        on_us += us_between(t0, Clock::now());
        t0 = Clock::now();
        sink += net.route(base[i], off).delivered.size();
        off_us += us_between(t0, Clock::now());
      }
    }
    d.self_check_us = (on_us - off_us) / (2.0 * n);
  }

  // The ladder's fallback rungs.
  {
    brsmn::RouteOptions scalar = opt;
    scalar.engine = RouteEngine::Scalar;
    d.scalar_us = mean_us(1, base, [&](std::size_t i) {
      sink += net.route(base[i], scalar).delivered.size();
    });
    sink += fb.route(base[0], opt).delivered.size();
    d.feedback_us = mean_us(1, base, [&](std::size_t i) {
      sink += fb.route(base[i], opt).delivered.size();
    });
  }

  // A whole request on faulted_replica's shard 0: detections on both
  // unrolled engines, then the feedback fabric, as that shard's router
  // walks it (the fault is the same on every workload's inputs).
  {
    brsmn::fault::FaultInjector faults(replica_fault());
    brsmn::api::ResilientOptions ro;
    ro.engine = RouteEngine::Packed;
    ro.faults = &faults;
    brsmn::api::ResilientRouter router(kN, ro);
    sink += router.route(base[0]).attempts;
    d.ladder_us = mean_us(1, base, [&](std::size_t i) {
      const brsmn::api::RequestOutcome o = router.route(base[i]);
      if (!o.result || o.result->delivered != brsmn::expected_delivery(base[i])) {
        throw std::runtime_error("the fallback ladder delivered wrongly");
      }
    });
  }

  // Plan cache: hits on a warm cache, and inserts into a full one.
  {
    brsmn::api::PlanCache cache;  // 256 plans, as each shard's
    for (std::size_t i = 0; i < n; ++i) {
      cache.insert(base[i], brsmn::fault::ImplKind::Unrolled, plans[i]);
    }
    d.lookup_us = mean_us(20, base, [&](std::size_t i) {
      sink += cache.lookup(base[i], brsmn::fault::ImplKind::Unrolled) != nullptr;
    });
    brsmn::api::PlanCacheConfig small;
    small.capacity = small.shards;  // one plan per shard: inserts evict
    brsmn::api::PlanCache full(small);
    for (std::size_t i = 0; i < n; ++i) {
      full.insert(next[i], brsmn::fault::ImplKind::Unrolled, plans[i]);
    }
    d.insert_us = mean_us(4, base, [&](std::size_t i) {
      full.insert(base[i], brsmn::fault::ImplKind::Unrolled, plans[i]);
    });
  }
  if (sink == 0) std::puts("#");  // keeps the timed calls observable
  return d;
}

// ---- program-side hooks (phase B) ---------------------------------------------------

struct HookReadings {
  double request_us = 0, route_us = 0, router_us = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t group_routes = 0, patched = 0, compiled = 0, replayed = 0;
  std::uint64_t abandoned = 0, levels_recompiled = 0;
  double goodput = 0;
};

/// Mean duration of the router's spans recorded after the loop marker.
double router_span_us(const brsmn::obs::Tracer& tracer) {
  const std::vector<brsmn::obs::CollectedEvent> events = tracer.collect();
  std::int64_t start = -1;
  for (const auto& e : events) {
    if (e.name == "bench.loop_start") start = e.ts_ns;
  }
  std::map<std::uint32_t, std::int64_t> open;
  double sum_ns = 0.0;
  std::uint64_t count = 0;
  for (const auto& e : events) {
    if (e.ts_ns < start) continue;
    if (e.name != "resilient.route" && e.name != "resilient.route_group") {
      continue;
    }
    if (e.kind == brsmn::obs::TraceEventKind::Begin) {
      open[e.tid] = e.ts_ns;
    } else if (e.kind == brsmn::obs::TraceEventKind::End) {
      const auto it = open.find(e.tid);
      if (it == open.end()) continue;
      sum_ns += static_cast<double>(e.ts_ns - it->second);
      ++count;
      open.erase(it);
    }
  }
  return count == 0 ? 0.0 : sum_ns / 1000.0 / static_cast<double>(count);
}

// ---- runs ------------------------------------------------------------------------------

struct Report {
  Verdict verdict;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> counts;
  std::map<std::string, std::string> host;
};

void host_facts(Report& rep, const Inputs& in, const LoopResult& r) {
  rep.host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  rep.host["simd_backend"] = brsmn::simd::ops(brsmn::simd::Backend::Auto).name;
  rep.host["build_type"] = SERVICEBENCH_BUILD_TYPE;
  rep.host["seed"] = std::to_string(in.seed);
  rep.host["steal_ticks"] = std::to_string(r.steal);
}

void loop_counts(Report& rep, const LoopResult& r, std::string_view phase) {
  const Tally& t = r.tally;
  const std::string p(phase);
  rep.counts[p + "requests"] = static_cast<double>(t.attempted);
  rep.counts[p + "delivered"] = static_cast<double>(t.delivered);
  rep.counts[p + "degraded"] = static_cast<double>(t.degraded);
  rep.counts[p + "failed"] = static_cast<double>(t.failed + t.rejected);
  rep.counts[p + "attempts"] = static_cast<double>(t.attempts);
  rep.counts[p + "detections"] = static_cast<double>(t.detections);
  for (std::size_t s = 0; s < kShards; ++s) {
    rep.counts[p + "served." + std::to_string(s)] =
        static_cast<double>(t.served[s]);
  }
  rep.counts[p + "mutations"] = static_cast<double>(t.mutations);
  rep.counts[p + "allocs"] = static_cast<double>(r.allocs);
  rep.counts[p + "stream_digest_lo"] =
      static_cast<double>(t.digest & 0xFFFFFFFFu);
  rep.counts[p + "latency_samples"] = static_cast<double>(t.latency_us.size());
}

struct Figures {
  double goodput = 0, p50 = 0, p99 = 0, cpu = 0;
};

/// The loop's goodput, latency quantiles and CPU per request: medians
/// over the blocks of a timed run, whole-run figures for a fixed-count
/// one. The whole-run figures and sample counts go to the counts.
Figures window_figures(const LoopResult& r, Report& rep) {
  const Tally& t = r.tally;
  std::vector<double> lat = t.latency_us;
  Figures f;
  f.goodput = static_cast<double>(t.correct()) / r.window_s;
  f.p50 = nearest_rank(lat, 0.50);
  f.p99 = nearest_rank(lat, 0.99);
  f.cpu = 1e6 * r.cpu_s /
          static_cast<double>(std::max<std::uint64_t>(1, t.attempted));
  rep.counts["run.goodput_rps"] = f.goodput;
  rep.counts["run.p50_us"] = f.p50;
  rep.counts["run.p99_us"] = f.p99;
  rep.counts["run.cpu_us_per_req"] = f.cpu;
  rep.counts["window_s"] = r.window_s;
  rep.counts["p99_samples_beyond"] =
      std::floor(static_cast<double>(lat.size()) * 0.01);
  if (r.blocks.empty()) return f;
  const auto med = [&](double Block::*field) {
    std::vector<double> v;
    for (const Block& b : r.blocks) v.push_back(b.*field);
    return median(v);
  };
  f.goodput = med(&Block::goodput_rps);
  f.p50 = med(&Block::p50_us);
  f.p99 = med(&Block::p99_us);
  f.cpu = med(&Block::cpu_us_per_req);
  std::size_t fewest = lat.size();
  for (const Block& b : r.blocks) fewest = std::min(fewest, b.samples);
  rep.counts["blocks"] = static_cast<double>(r.blocks.size());
  rep.counts["block_samples_min"] = static_cast<double>(fewest);
  rep.counts["block_p99_samples_beyond_min"] =
      std::floor(static_cast<double>(fewest) * 0.01);
  return f;
}

Report run_untraced(const Inputs& in, const LoopSpec& spec, std::size_t setups) {
  Report rep;
  std::vector<double> setup_s;
  Service svc;
  Tally warm;
  for (std::size_t k = 0; k < setups; ++k) {
    // Tear the previous set-up down, untimed, and hand its memory back to
    // the system so that peak_rss_mb is the peak of one set-up and run.
    svc.reset();
    malloc_trim(0);
    warm = Tally{};
    const Clock::time_point t0 = Clock::now();
    svc = build_service(in, Hooks{}, warm);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  LoopResult r = ClosedLoop(in, svc, spec).run();
  check_run(in, svc, r, warm, rep.verdict);
  svc.cluster->stop();

  Tally& t = r.tally;
  rep.attempted = t.attempted;
  rep.failed = t.attempted - t.correct();
  const Figures f = window_figures(r, rep);
  rep.metrics["setup_s"] = {median(setup_s), "s"};
  rep.metrics["goodput_rps"] = {f.goodput, "1/s"};
  rep.metrics["p50_us"] = {f.p50, "us"};
  rep.metrics["p99_us"] = {f.p99, "us"};
  rep.metrics["delivered_ratio"] = {
      ratio(static_cast<double>(t.correct()), static_cast<double>(t.attempted)),
      "ratio"};
  rep.metrics["cpu_us_per_req"] = {f.cpu, "us"};
  rep.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  loop_counts(rep, r, "");
  std::string all;
  for (double s : setup_s) all += json_number(s) + " ";
  rep.host["setup_runs_s"] = all;
  host_facts(rep, in, r);
  return rep;
}

Report run_traced(const Inputs& in, const LoopSpec& spec) {
  Report rep;
  // Phase A: the untraced configuration, timed only by the benchmark.
  LoopSpec a_spec = spec;
  a_spec.seconds = spec.seconds * 0.5;
  a_spec.spans = true;
  Tally warm_a;
  Service svc_a = build_service(in, Hooks{}, warm_a);
  LoopResult a = ClosedLoop(in, svc_a, a_spec).run();
  check_run(in, svc_a, a, warm_a, rep.verdict);
  svc_a.reset();

  // Phase B: the program's own metrics registry and tracer attached.
  brsmn::obs::MetricRegistry reg;
  brsmn::obs::Tracer tracer(std::size_t{1} << 16);
  LoopSpec b_spec = spec;
  b_spec.seconds = spec.seconds * 0.3;
  Tally warm_b;
  Service svc_b = build_service(in, Hooks{&reg, &tracer}, warm_b);
  reg.reset();  // the loop's figures only, not the warm-up's
  LoopResult b = ClosedLoop(in, svc_b, b_spec).run(&tracer);
  check_run(in, svc_b, b, warm_b, rep.verdict);
  svc_b.cluster->stop();
  HookReadings h;
  {
    h.requests = b.tally.attempted;
    h.goodput = static_cast<double>(b.tally.correct()) / b.window_s;
    h.request_us = reg.histogram("cluster.request_ns").snapshot().mean() / 1e3;
    double route_sum = 0.0, route_count = 0.0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto snap = reg.histogram("cluster.shard." + std::to_string(s) +
                                      ".route_ns")
                            .snapshot();
      route_sum += snap.sum;
      route_count += static_cast<double>(snap.count);
    }
    h.route_us = ratio(route_sum, route_count) / 1e3;
    h.router_us = router_span_us(tracer);
    h.hits = reg.counter("cluster.plan_cache.hits").value();
    h.misses = reg.counter("cluster.plan_cache.misses").value();
    h.evictions = reg.counter("cluster.plan_cache.evictions").value();
    h.group_routes = reg.counter("group.routes").value();
    h.patched = reg.counter("plan_patch.patched").value();
    h.compiled = reg.counter("plan_patch.compiled").value();
    h.replayed = reg.counter("plan_patch.replayed").value();
    h.abandoned = reg.counter("plan_patch.abandoned").value();
    h.levels_recompiled = reg.counter("plan_patch.levels_recompiled").value();
  }
  svc_b.reset();

  // Phase C: the inner layers driven directly on the workload's inputs.
  const Direct d = drive_layers(in);

  const Tally& t = a.tally;
  const double reqs = static_cast<double>(std::max<std::uint64_t>(1, t.attempted));
  const double hreqs = static_cast<double>(std::max<std::uint64_t>(1, h.requests));
  double request_sum = 0.0;
  double finite = 0.0;
  for (double x : t.latency_us) {
    if (std::isfinite(x)) {
      request_sum += x;
      finite += 1.0;
    }
  }
  const double request_us = ratio(request_sum, finite);

  auto& m = rep.metrics;
  m["p99_us"] = {window_figures(a, rep).p99, "us"};
  const double submit_us = t.submit_us / reqs;
  const double queue_wait_us = h.request_us - h.route_us;
  m["cluster.submit_us"] = {submit_us, "us"};
  m["cluster.queue_wait_us"] = {queue_wait_us, "us"};
  m["cluster.route_us"] = {h.route_us, "us"};
  m["cluster.shard_share_max"] = {
      static_cast<double>(*std::max_element(t.served.begin(), t.served.end())) /
          reqs,
      "ratio"};
  m["cluster.misdelivered"] = {static_cast<double>(t.misdelivered), "count"};
  m["router.route_us"] = {h.router_us, "us"};
  m["router.attempts_per_req"] = {static_cast<double>(t.attempts) / reqs, "1/req"};
  m["router.degraded_ratio"] = {static_cast<double>(t.degraded) / reqs, "ratio"};
  m["plan_cache.hit_ratio"] = {
      ratio(static_cast<double>(h.hits), static_cast<double>(h.hits + h.misses)),
      "ratio"};
  m["plan_cache.lookup_us"] = {d.lookup_us, "us"};
  m["plan_cache.insert_us"] = {d.insert_us, "us"};
  m["plan_cache.evictions_per_req"] = {static_cast<double>(h.evictions) / hreqs,
                                       "1/req"};
  m["group.mutate_us"] = {
      ratio(t.mutate_us, static_cast<double>(t.mutations)), "us"};
  const double groutes = static_cast<double>(h.group_routes);
  m["group.patched_ratio"] = {ratio(static_cast<double>(h.patched), groutes),
                              "ratio"};
  m["group.abandoned_ratio"] = {ratio(static_cast<double>(h.abandoned), groutes),
                                "ratio"};
  m["group.levels_recompiled_per_patch"] = {
      ratio(static_cast<double>(h.levels_recompiled),
            static_cast<double>(h.patched)),
      "1/patch"};
  m["core.compile_us"] = {d.compile_us, "us"};
  m["core.patch_us"] = {d.patch_us, "us"};
  m["core.replay_us"] = {d.replay_us, "us"};
  m["core.phase.scatter_us"] = {d.phase_scatter_us, "us"};
  m["core.phase.eps_divide_us"] = {d.phase_eps_us, "us"};
  m["core.phase.quasisort_us"] = {d.phase_quasisort_us, "us"};
  m["core.phase.datapath_us"] = {d.phase_datapath_us, "us"};
  m["core.phase.other_us"] = {d.phase_other_us, "us"};
  m["core.scalar_route_us"] = {d.scalar_us, "us"};
  m["core.feedback_route_us"] = {d.feedback_us, "us"};
  m["router.ladder_us"] = {d.ladder_us, "us"};
  m["fault.self_check_us"] = {d.self_check_us, "us"};
  m["fault.detections_per_req"] = {static_cast<double>(t.detections) / reqs,
                                   "1/req"};
  m["verify.expected_delivery_us"] = {d.expected_us, "us"};
  m["alloc.per_req"] = {static_cast<double>(a.allocs) / reqs, "1/req"};
  m["alloc.replay_per_req"] = {d.replay_allocs, "1/req"};
  m["alloc.compile_per_req"] = {d.compile_allocs, "1/req"};
  m["alloc.patch_per_req"] = {d.patch_allocs, "1/req"};

  // The ledger: a request's mean time against the sum of its named
  // layers, each weighted by how often a request reaches it. Every
  // attempt looks the plan cache up; on faulted_replica's shard 0 the
  // whole fallback ladder is one named layer.
  double armed_attempts = 0.0;
  double armed_requests = 0.0;
  if (in.workload == Workload::FaultedReplica) {
    for (std::uint64_t x : t.path_attempts[0]) {
      armed_attempts += static_cast<double>(x) / reqs;
    }
    armed_requests = static_cast<double>(t.served[0]) / reqs;
  }
  double named = submit_us + queue_wait_us;
  named += static_cast<double>(t.verified_in_service) / reqs * d.expected_us;
  named += static_cast<double>(h.hits + h.misses) / hreqs * d.lookup_us;
  if (in.workload == Workload::GroupChurn) {
    named += static_cast<double>(h.replayed) / hreqs * d.replay_us;
    named += static_cast<double>(h.patched + h.abandoned) / hreqs * d.patch_us;
    named += static_cast<double>(h.compiled) / hreqs * d.compile_us;
    named += static_cast<double>(h.patched + h.compiled) / hreqs * d.insert_us;
  } else {
    const double clean_misses = std::max(
        0.0, static_cast<double>(h.misses) / hreqs - armed_attempts);
    named += static_cast<double>(h.hits) / hreqs * d.replay_us;
    named += clean_misses * (d.compile_us + d.insert_us);
    named += armed_requests * d.ladder_us;
  }
  m["ledger.request_us"] = {request_us, "us"};
  m["ledger.residual_us"] = {request_us - named, "us"};
  const double goodput_a = static_cast<double>(t.correct()) / a.window_s;
  m["trace.overhead_ratio"] = {ratio(h.goodput, goodput_a), "ratio"};

  rep.attempted = t.attempted + b.tally.attempted;
  rep.failed = rep.attempted - t.correct() - b.tally.correct();
  loop_counts(rep, a, "");
  loop_counts(rep, b, "hooked.");
  rep.counts["hooked.plan_cache_hits"] = static_cast<double>(h.hits);
  rep.counts["hooked.plan_cache_misses"] = static_cast<double>(h.misses);
  rep.counts["hooked.plan_cache_evictions"] = static_cast<double>(h.evictions);
  rep.counts["hooked.group_patched"] = static_cast<double>(h.patched);
  rep.counts["hooked.group_compiled"] = static_cast<double>(h.compiled);
  rep.counts["hooked.group_replayed"] = static_cast<double>(h.replayed);
  host_facts(rep, in, a);
  return rep;
}

void print_report(const Report& rep, const Inputs& in, bool trace) {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(workload_name(in.workload))
    << ", \"seed\": " << in.seed << ", \"trace\": " << (trace ? 1 : 0)
    << ", \"correct\": " << (rep.verdict.correct ? "true" : "false")
    << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
    << ", \"errors\": [";
  for (std::size_t i = 0; i < rep.verdict.errors.size(); ++i) {
    o << (i ? ", " : "") << json_string(rep.verdict.errors[i]);
  }
  o << "], \"host\": {";
  bool first = true;
  for (const auto& [k, v] : rep.host) {
    o << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  o << "}, \"counts\": {";
  first = true;
  for (const auto& [k, v] : rep.counts) {
    o << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  o << "}, \"metrics\": {";
  first = true;
  for (const auto& [k, v] : rep.metrics) {
    o << (first ? "" : ", ") << json_string(k) << ": {\"value\": "
      << json_number(v.value) << ", \"unit\": " << json_string(v.unit) << "}";
    first = false;
  }
  o << "}}";
  std::puts(o.str().c_str());
  std::fflush(stdout);
}

// ---- self-test ----------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::printf("FAIL %s\n", what);
    }
  };

  // Nearest-rank quantiles; failures are +inf and count as misses.
  {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(101 - i);
    expect(nearest_rank(v, 0.50) == 50, "p50 of 1..100 is 50");
    expect(nearest_rank(v, 0.99) == 99, "p99 of 1..100 is 99");
    expect(nearest_rank(v, 1.00) == 100, "p100 of 1..100 is 100");
    std::vector<double> w{3, kInf, 1, 2};
    expect(nearest_rank(w, 0.50) == 2, "p50 of {1,2,3,inf} is 2");
    expect(std::isinf(nearest_rank(w, 0.99)), "a failure is the p99");
    std::vector<double> one{7};
    expect(nearest_rank(one, 0.99) == 7, "single sample");
    std::vector<double> fails{kInf, kInf, 1};
    expect(std::isinf(nearest_rank(fails, 0.5)), "failures beat the median");
    expect(median({1, 5, 2, 4}) == 3, "even median");
  }

  // One seed, one request stream; another seed, another stream.
  {
    HotStream a(7, 0), b(7, 0), c(8, 0), d(7, 1);
    bool same = true, diff_seed = false, diff_client = false;
    for (int i = 0; i < 2000; ++i) {
      const std::size_t x = a.next();
      same &= x == b.next();
      diff_seed |= x != c.next();
      diff_client |= x != d.next();
    }
    expect(same, "hot stream repeats for one seed");
    expect(diff_seed && diff_client, "hot stream differs by seed and client");
  }
  {
    ColdStream a(7, 0), b(7, 0), c(8, 0);
    for (int i = 0; i < 3; ++i) {
      const auto fa = brsmn::assignment_fingerprint(a.next());
      expect(fa == brsmn::assignment_fingerprint(b.next()),
             "cold stream repeats for one seed");
      expect(fa != brsmn::assignment_fingerprint(c.next()),
             "cold stream differs by seed");
    }
    const auto p1 = make_pool(3), p2 = make_pool(3);
    bool pool_same = p1.size() == kPoolSize;
    for (std::size_t i = 0; i < p1.size(); ++i) {
      pool_same &= brsmn::assignment_fingerprint(p1[i]) ==
                   brsmn::assignment_fingerprint(p2[i]);
    }
    expect(pool_same, "pool repeats for one seed");
  }

  // group_churn: streams repeat, clients own disjoint groups, members
  // never leave their group's sources, and the shadow stays consistent.
  {
    const std::vector<GroupState> groups = make_groups(11);
    expect(groups.size() == kGroups, "64 groups");
    for (const GroupState& g : groups) {
      expect(g.members.size() == kGroupMembers, "768 members per group");
    }
    ChurnStream a(11, 0, groups), b(11, 0, groups), c(11, 1, groups);
    std::vector<bool> owner_seen(kGroups, false);
    for (std::uint64_t g : a.owned()) owner_seen[g] = true;
    bool disjoint = true;
    for (std::uint64_t g : c.owned()) {
      disjoint &= !owner_seen[g];
      owner_seen[g] = true;
    }
    expect(disjoint, "clients own disjoint groups");
    expect(std::all_of(owner_seen.begin(), owner_seen.end(),
                       [](bool x) { return x; }),
           "every group has an owner");
    bool same = true, own = true, sources = true;
    for (int i = 0; i < 5000; ++i) {
      const ChurnStep x = a.next();
      const ChurnStep y = b.next();
      same &= x.group == y.group && x.join == y.join && x.source == y.source &&
              x.output == y.output;
      own &= x.group % kClients == 0;
      sources &= groups[x.group].is_source(x.source);
    }
    expect(same, "churn stream repeats for one seed");
    expect(own, "a client mutates only its own groups");
    expect(sources, "every step stays within the group's sources");
    for (std::uint64_t g : a.owned()) {
      const GroupState& s = a.group(g);
      std::size_t claimed = 0;
      bool ok = s.members.size() + s.free.size() == kN;
      for (std::size_t o = 0; o < kN; ++o) {
        if (s.owner[o] == GroupState::kNone) continue;
        ++claimed;
        ok &= s.is_source(s.owner[o]);
      }
      ok &= claimed == s.members.size();
      ok &= s.members.size() <= kGroupMembers + kGroupSwing &&
            s.members.size() >= kGroupMembers - kGroupSwing;
      expect(ok, "shadow group consistent and within its sources");
    }
  }

  // Replay allocates nothing at steady state (the n = 1024 case).
  {
    brsmn::Rng rng(5);
    const MulticastAssignment a = brsmn::random_multicast(kN, 1.0, rng);
    brsmn::Brsmn net(kN);
    brsmn::RouteOptions opt;
    opt.engine = RouteEngine::Packed;
    brsmn::RoutePlan plan;
    brsmn::planner::compile_route(net, a, opt, plan);
    brsmn::RouteResult out;
    net.route_replay_into(plan, opt, out);
    net.route_replay_into(plan, opt, out);
    const std::uint64_t before = thread_allocs();
    net.route_replay_into(plan, opt, out);
    expect(thread_allocs() == before, "steady-state replay allocates nothing");
    expect(out.delivered == brsmn::expected_delivery(a), "replay delivers");
  }

  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---- command line ---------------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "service_bench: %s\n"
               "usage: service_bench --workload <hot_replay|cold_compile|"
               "group_churn|faulted_replica> --seed <n> --seconds <s> "
               "--trace <0|1> [--requests <per client>] [--setups <k>] "
               "[--poison-reference]\n"
               "       service_bench --self-test\n",
               why);
  return 2;
}

int main_impl(int argc, char** argv) {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t requests = 0;
  std::size_t setups = 5;
  bool poison = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--poison-reference") {
      poison = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = parse_workload(value);
        if (!workload) return usage("unknown workload");
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = value == "1";
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
      } else if (arg == "--requests") {
        requests = std::stoull(value);
      } else if (arg == "--setups") {
        setups = std::max<std::size_t>(1, std::stoull(value));
      } else {
        return usage("unknown flag");
      }
    } catch (const std::exception&) {
      return usage("bad number");
    }
  }
  if (!workload) return usage("--workload is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  const Inputs in = make_inputs(*workload, seed, poison);
  LoopSpec spec;
  spec.seconds = seconds;
  spec.requests = requests;
  const Report rep = trace ? run_traced(in, spec) : run_untraced(in, spec, setups);
  print_report(rep, in, trace);
  return rep.verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace sb

int main(int argc, char** argv) {
  try {
    return sb::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_bench: %s\n", e.what());
    return 1;
  }
}
