// The word-parallel packed engine is the default of every front end:
// each config struct defaults to RouteEngine::Packed, and each
// default-built front end actually routes on it — a fault scoped to the
// packed engine fires on the very first attempt. (Scalar stays the
// reference engine and the fallback rung of the resilient ladder; a
// test that wants it sets `engine = RouteEngine::Scalar` explicitly.)
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "api/cluster.hpp"
#include "api/parallel_router.hpp"
#include "api/resilient_router.hpp"
#include "common/contracts.hpp"
#include "core/brsmn.hpp"
#include "core/multicast_assignment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_report.hpp"
#include "traffic/chaos.hpp"
#include "traffic/queued_switch.hpp"

namespace brsmn {
namespace {

constexpr std::size_t kN = 16;

/// Input 0 multicasts to outputs 0..3.
MulticastAssignment input0_multicast() {
  MulticastAssignment a(kN);
  for (std::size_t d = 0; d < 4; ++d) a.connect(0, d);
  return a;
}

/// A dead link under the busy input 0, scoped to the packed engine and
/// active for route ordinal 0 only: the first packed attempt loses the
/// copy and the self-check detects it; the retry (ordinal 1) is clean.
/// A scalar route never sees it.
fault::FaultPlan packed_first_route_fault() {
  fault::FaultSpec f;
  f.kind = fault::FaultKind::DeadLink;
  f.level = 1;
  f.index = 0;
  f.engine = RouteEngine::Packed;
  f.when = fault::Activation{0, 0};
  return fault::FaultPlan{kN, {f}};
}

TEST(EngineDefaults, FrontEndConfigsDefaultToPacked) {
  EXPECT_EQ(RouteOptions{}.engine, RouteEngine::Packed);
  EXPECT_EQ(api::ResilientOptions{}.engine, RouteEngine::Packed);
  EXPECT_EQ(api::ClusterConfig{}.engine, RouteEngine::Packed);
  EXPECT_EQ(traffic::QueuedMulticastSwitch::Config{}.engine,
            RouteEngine::Packed);
  EXPECT_EQ(traffic::ChaosConfig{}.engine, RouteEngine::Packed);
  EXPECT_EQ(api::ParallelRouter(kN, 1).engine(), RouteEngine::Packed);
}

TEST(EngineDefaults, BrsmnRouteUsesPacked) {
  fault::FaultInjector injector(packed_first_route_fault());
  Brsmn net(kN);
  RouteOptions options;
  options.faults = &injector;
  EXPECT_THROW(net.route(input0_multicast(), options), fault::FaultDetected);
}

TEST(EngineDefaults, ResilientRouterUsesPacked) {
  fault::FaultInjector injector(packed_first_route_fault());
  api::ResilientOptions options;
  options.faults = &injector;
  api::ResilientRouter router(kN, options);
  const MulticastAssignment a = input0_multicast();
  const api::RequestOutcome out = router.route(a);
  EXPECT_EQ(out.outcome, api::RouteOutcome::Delivered);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.path, (api::RoutePath{RouteEngine::Packed, false}));
  EXPECT_TRUE(out.report.has_value());
  EXPECT_EQ(router.faults_detected(), 1u);
}

TEST(EngineDefaults, ClusterUsesPacked) {
  fault::FaultInjector injector(packed_first_route_fault());
  api::ClusterConfig config;
  config.shards = 1;
  config.shard_faults = {&injector};
  api::Cluster cluster(kN, config);
  const api::ClusterOutcome out = cluster.route(input0_multicast());
  cluster.stop();
  EXPECT_EQ(out.request.outcome, api::RouteOutcome::Delivered);
  EXPECT_EQ(out.request.attempts, 2u);
  EXPECT_EQ(out.request.path, (api::RoutePath{RouteEngine::Packed, false}));
  EXPECT_TRUE(out.request.report.has_value());
}

TEST(EngineDefaults, ParallelRouterUsesPacked) {
  fault::FaultInjector injector(packed_first_route_fault());
  api::ParallelRouter router(kN, 1);
  router.set_faults(&injector);
  EXPECT_THROW(router.route_batch({input0_multicast()}), ContractViolation);
}

TEST(EngineDefaults, QueuedSwitchUsesPacked) {
  fault::FaultInjector injector(packed_first_route_fault());
  traffic::QueuedMulticastSwitch::Config config;
  config.ports = kN;
  config.faults = &injector;
  traffic::QueuedMulticastSwitch sw(config);
  sw.offer(traffic::Offer{0, {0, 1, 2, 3}});
  const auto report = sw.step();
  EXPECT_EQ(report.delivered_copies, 4u);
  EXPECT_EQ(sw.router().faults_detected(), 1u);
}

}  // namespace
}  // namespace brsmn
