// Sampled scalar-vs-packed differential at the sizes the service
// benchmark times (n = 512 and 1024), on both fabrics. The exhaustive and
// seeded suites (test_packed_differential, test_route_plan,
// test_group_manager) stop at n = 256; this one samples a few dense,
// sparse, permutation and broadcast assignments at the large sizes and
// requires:
//   - scalar and packed routes bit-identical with capture_levels and
//     explain on, so the packed engine's materialized streams are compared
//     against the scalar engine's carried ones at every level;
//   - a compiled plan's replay identical to the cold route;
//   - a one-member patch of a plan identical to a cold compile of the
//     patched assignment.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"

namespace brsmn {
namespace {

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  expect_stats_eq(a.stats, b.stats);
  EXPECT_EQ(a.broadcasts_per_level, b.broadcasts_per_level);
  ASSERT_EQ(a.level_inputs.size(), b.level_inputs.size());
  for (std::size_t L = 0; L < a.level_inputs.size(); ++L) {
    EXPECT_TRUE(a.level_inputs[L] == b.level_inputs[L])
        << "level_inputs differ at level " << L + 1;
  }
  ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
  if (a.explanation) {
    EXPECT_TRUE(*a.explanation == *b.explanation) << "explanations differ";
  }
}

void expect_masks_eq(const std::vector<packed::StageMasks>& a,
                     const std::vector<packed::StageMasks>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].su, b[j].su) << "stage " << j + 1;
    EXPECT_EQ(a[j].sl, b[j].sl) << "stage " << j + 1;
  }
}

void expect_plans_eq(const RoutePlan& a, const RoutePlan& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.impl, b.impl);
  EXPECT_EQ(a.wcode, b.wcode);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t k = 0; k < a.levels.size(); ++k) {
    SCOPED_TRACE("plan level " + std::to_string(k + 1));
    const PlanLevel& p = a.levels[k];
    const PlanLevel& q = b.levels[k];
    EXPECT_EQ(p.stages, q.stages);
    EXPECT_EQ(p.entry_t0, q.entry_t0);
    EXPECT_EQ(p.entry_t1, q.entry_t1);
    EXPECT_EQ(p.entry_t2, q.entry_t2);
    expect_masks_eq(p.scatter_masks, q.scatter_masks);
    expect_masks_eq(p.quasisort_masks, q.quasisort_masks);
    EXPECT_EQ(p.num_events, q.num_events);
    EXPECT_EQ(p.parent_codes, q.parent_codes);
    EXPECT_EQ(p.post_scatter, q.post_scatter);
    EXPECT_EQ(p.divided_t2, q.divided_t2);
    EXPECT_EQ(p.post_quasisort, q.post_quasisort);
    expect_stats_eq(p.stats_delta, q.stats_delta);
  }
  EXPECT_EQ(a.final_t0, b.final_t0);
  EXPECT_EQ(a.final_t1, b.final_t1);
  EXPECT_EQ(a.final_t2, b.final_t2);
  EXPECT_EQ(a.delivered, b.delivered);
  expect_stats_eq(a.stats, b.stats);
  EXPECT_EQ(a.broadcasts_per_level, b.broadcasts_per_level);
}

/// Every switch setting of the fabrics a network leaves configured.
std::vector<SwitchSetting> grid(const Rbn& rbn) {
  std::vector<SwitchSetting> g;
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < rbn.size() / 2; ++sw) {
      g.push_back(rbn.setting(stage, sw));
    }
  }
  return g;
}

std::vector<SwitchSetting> grids(const Brsmn& net) {
  std::vector<SwitchSetting> all;
  for (int k = 1; k < net.levels(); ++k) {
    for (const Bsn& bsn : net.level_bsns(k)) {
      for (const Rbn* f : {&bsn.scatter_fabric(), &bsn.quasisort_fabric()}) {
        const auto g = grid(*f);
        all.insert(all.end(), g.begin(), g.end());
      }
    }
  }
  return all;
}

std::vector<SwitchSetting> grids(const FeedbackBrsmn& net) {
  return grid(net.fabric());
}

/// The sampled workloads: dense, medium and sparse multicasts, a
/// permutation, a full broadcast and a few-source broadcast.
std::vector<MulticastAssignment> samples(std::size_t n) {
  Rng rng(test_seed(9100 + n));
  return {random_multicast(n, 1.0, rng), random_multicast(n, 0.6, rng),
          random_multicast(n, 0.3, rng), random_permutation(n, 1.0, rng),
          full_broadcast(n), broadcast_assignment(n, 7)};
}

/// `a` with one membership change: the first idle output joins input 0,
/// or (when every output is claimed) input 0's last destination leaves.
MulticastAssignment one_member_delta(const MulticastAssignment& a) {
  MulticastAssignment b = a;
  for (std::size_t out = 0; out < a.size(); ++out) {
    if (!b.output_claimed(out)) {
      b.connect(0, out);
      return b;
    }
  }
  std::size_t input = 0;
  while (b.destinations(input).empty()) ++input;
  b.disconnect(input, b.destinations(input).back());
  return b;
}

RouteOptions capture_options(RouteEngine engine) {
  RouteOptions options;
  options.engine = engine;
  options.capture_levels = true;
  options.explain = true;
  return options;
}

class LargeDifferential : public ::testing::TestWithParam<std::size_t> {};

template <typename Net>
void check_engines_agree(std::size_t n) {
  for (const MulticastAssignment& a : samples(n)) {
    Net net(n);
    const RouteResult scalar =
        net.route(a, capture_options(RouteEngine::Scalar));
    const auto scalar_grids = grids(net);
    const RouteResult packed =
        net.route(a, capture_options(RouteEngine::Packed));
    expect_results_eq(scalar, packed);
    EXPECT_TRUE(grids(net) == scalar_grids) << "fabric grids differ";
  }
}

TEST_P(LargeDifferential, UnrolledEnginesAgreeWithCapturedLevels) {
  check_engines_agree<Brsmn>(GetParam());
}

TEST_P(LargeDifferential, FeedbackEnginesAgreeWithCapturedLevels) {
  check_engines_agree<FeedbackBrsmn>(GetParam());
}

template <typename Net>
void check_plans(std::size_t n) {
  RouteOptions options;
  options.explain = true;
  for (const MulticastAssignment& a : samples(n)) {
    Net net(n);
    RoutePlan plan;
    const RouteResult cold = planner::compile_route(net, a, options, plan);
    EXPECT_EQ(cold.delivered, expected_delivery(a));
    expect_results_eq(cold, net.route_replay(plan, options));

    const MulticastAssignment b = one_member_delta(a);
    RoutePlan patched;
    const planner::PatchOutcome outcome =
        planner::patch_route(net, b, plan, options, patched);
    ASSERT_TRUE(outcome.patched);
    RoutePlan fresh;
    const RouteResult cold_b = planner::compile_route(net, b, options, fresh);
    expect_results_eq(cold_b, outcome.result);
    expect_plans_eq(patched, fresh);
  }
}

TEST_P(LargeDifferential, UnrolledReplayAndOneMemberPatchEqualCold) {
  check_plans<Brsmn>(GetParam());
}

TEST_P(LargeDifferential, FeedbackReplayAndOneMemberPatchEqualCold) {
  check_plans<FeedbackBrsmn>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, LargeDifferential,
                         ::testing::Values(512, 1024),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace brsmn
