// Failure injection: corrupt one switch setting after a correct
// configuration and verify that the library's invariants catch it — no
// silent misrouting, no silent packet loss. The FullRoute tests extend
// the single-fabric sweeps to whole-BRSMN routes through the fault
// seam: every reachable (level, pass, stage, switch) site at n = 16,
// every dead line, with the scalar and packed engines required to agree
// on every outcome. The PlaneSelfCheck and PackedN1024 tests cover the
// packed engine's stream-free per-level check, property by property and
// under sampled faults at n = 1024.
#include <gtest/gtest.h>

#include <optional>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/bit_sorter.hpp"
#include "core/brsmn.hpp"
#include "core/compact_sequence.hpp"
#include "core/feedback.hpp"
#include "core/scatter.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_report.hpp"
#include "fault/self_check.hpp"
#include "helpers.hpp"

namespace brsmn {
namespace {

TEST(FaultInjection, FlippedSorterSwitchBreaksCompactness) {
  // For every single-switch corruption of a configured bit sorter, the
  // output must either remain correct (the corruption may be masked when
  // both switch inputs carry equal keys) or fail the compactness check —
  // it can never deliver a *different valid-looking* compact run.
  const std::size_t n = 16;
  Rng rng(test_seed(8));
  std::vector<int> keys(n);
  for (auto& k : keys) k = static_cast<int>(rng.uniform(0, 1));
  const std::size_t l = static_cast<std::size_t>(
      std::count(keys.begin(), keys.end(), 1));
  const std::size_t s = 3;

  std::size_t masked = 0, detected = 0;
  for (int stage = 1; stage <= 4; ++stage) {
    for (std::size_t sw = 0; sw < n / 2; ++sw) {
      Rbn rbn(n);
      configure_bit_sorter(rbn, keys, s);
      rbn.set(stage, sw, opposite_unicast(rbn.setting(stage, sw)));
      const auto out = rbn.propagate(keys, unicast_switch<int>);
      std::vector<bool> ones(n);
      for (std::size_t i = 0; i < n; ++i) ones[i] = out[i] == 1;
      if (matches_compact(ones, s, l)) {
        ++masked;  // swapped equal keys: harmless
      } else {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_EQ(masked + detected, 4u * (n / 2));
}

TEST(FaultInjection, SpuriousBroadcastIsTrappedNotSilent) {
  // Corrupting a unicast switch into a broadcast would duplicate or drop
  // a packet; the scatter switch function must trap it.
  const std::size_t n = 8;
  const std::vector<Tag> tags{Tag::Alpha, Tag::Zero, Tag::Eps, Tag::One,
                              Tag::Eps,   Tag::Eps,  Tag::Zero, Tag::One};
  std::vector<LineValue> lines(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_empty(tags[i])) continue;
    Packet p{i, i + 1, i + 1, {tags[i]}};
    lines[i] = occupied_line(tags[i], std::move(p));
  }

  Rbn rbn(n);
  configure_scatter(rbn, tags, 0);
  // Find a switch currently set to parallel in stage 3 and corrupt it to
  // a broadcast: its inputs are not an (alpha, eps) pair everywhere, so
  // some corruption must throw.
  std::size_t trapped = 0;
  for (std::size_t sw = 0; sw < n / 2; ++sw) {
    Rbn corrupted(n);
    configure_scatter(corrupted, tags, 0);
    corrupted.set(3, sw, SwitchSetting::UpperBcast);
    ScatterExec exec{100, nullptr};
    try {
      corrupted.propagate(lines, [&exec](const SwitchContext& ctx,
                                         SwitchSetting st, LineValue a,
                                         LineValue b) {
        return apply_scatter_switch(ctx, st, std::move(a), std::move(b),
                                    exec);
      });
    } catch (const ContractViolation&) {
      ++trapped;
    }
  }
  EXPECT_GT(trapped, 0u);
}

TEST(FaultInjection, CorruptedQuasisortViolatesHalfSplit) {
  // A final-stage corruption in the quasisort must surface as a broken
  // half-split (the invariant Bsn::route checks).
  const std::size_t n = 8;
  std::vector<int> keys{0, 1, 0, 1, 0, 1, 0, 1};
  Rbn rbn(n);
  configure_bit_sorter(rbn, keys, n / 2);
  // Corrupt the last stage: swap a 0 into the lower half.
  rbn.set(3, 0, opposite_unicast(rbn.setting(3, 0)));
  const auto out = rbn.propagate(keys, unicast_switch<int>);
  bool split_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    split_ok = split_ok && (out[i] == (i < n / 2 ? 0 : 1));
  }
  EXPECT_FALSE(split_ok);
}

/// Route `assignment` through a fresh n x n network with a single-fault
/// plan: returns the delivered vector on success, nullopt when the fault
/// was detected (FaultDetected). Any other escape fails the test.
struct RouteUnderFault {
  std::optional<std::vector<std::optional<std::size_t>>> delivered;
  fault::FaultActivity activity;
};

RouteUnderFault route_unrolled(const MulticastAssignment& assignment,
                               const fault::FaultPlan& plan,
                               RouteEngine engine, bool explain = false,
                               simd::Backend backend = simd::Backend::Auto) {
  RouteUnderFault out;
  fault::FaultInjector injector(plan);
  Brsmn net(plan.n);
  RouteOptions options;
  options.engine = engine;
  options.simd_backend = backend;
  options.faults = &injector;
  options.fault_activity = &out.activity;
  options.explain = explain;
  try {
    out.delivered = net.route(assignment, options).delivered;
  } catch (const fault::FaultDetected&) {
    out.delivered = std::nullopt;
  }
  return out;
}

RouteUnderFault route_feedback(const MulticastAssignment& assignment,
                               const fault::FaultPlan& plan,
                               RouteEngine engine) {
  RouteUnderFault out;
  fault::FaultInjector injector(plan);
  FeedbackBrsmn net(plan.n);
  RouteOptions options;
  options.engine = engine;
  options.faults = &injector;
  options.fault_activity = &out.activity;
  try {
    out.delivered = net.route(assignment, options).delivered;
  } catch (const fault::FaultDetected&) {
    out.delivered = std::nullopt;
  }
  return out;
}

/// A fixed multicast mixing unicast, fan-out and idle inputs, so sweeps
/// hit occupied and empty lines alike.
MulticastAssignment sweep_assignment(std::size_t n) {
  MulticastAssignment a(n);
  a.connect(0, 0);
  a.connect(0, n - 1);
  a.connect(1, n / 2);
  a.connect(2, 1);
  a.connect(2, 2);
  a.connect(2, 3);
  a.connect(5, n / 2 + 1);
  a.connect(n - 1, n / 4);
  return a;
}

TEST(FaultInjectionFullRoute, ExhaustiveSwitchSweepBothEnginesAgree) {
  // Every reachable switch site of a 16-wide BRSMN: 2 passes x (4 + 3 +
  // 2 stages) x 8 switches = 144 single-flip plans. Each must be masked
  // (delivered exactly the expected vector, both engines bit-identical)
  // or detected (FaultDetected in BOTH engines) — never a
  // plausible-but-wrong delivery.
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t sites = 0, masked = 0, detected = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          ++sites;
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          const RouteUnderFault scalar =
              route_unrolled(assignment, plan, RouteEngine::Scalar);
          const RouteUnderFault packed =
              route_unrolled(assignment, plan, RouteEngine::Packed);

          // Engine parity: same outcome class, and bit-identical
          // delivery on success.
          ASSERT_EQ(scalar.delivered.has_value(),
                    packed.delivered.has_value());
          if (scalar.delivered.has_value()) {
            ++masked;
            EXPECT_EQ(*scalar.delivered, expected);
            EXPECT_EQ(*scalar.delivered, *packed.delivered);
          } else {
            ++detected;
          }
          // The audit trail saw the fault exactly once per attempt.
          EXPECT_LE(scalar.activity.applied.size(), 1u);
        }
      }
    }
  }
  EXPECT_EQ(sites, 144u);
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
}

TEST(FaultInjectionFullRoute, DetectedFaultsLocalizeToTheInjectedSite) {
  // Re-run each detected single-fault case with provenance enabled: the
  // report's earliest mismatching site must be exactly the injected
  // switch (single fault => single corrupted site on the unrolled
  // implementation, whose grids persist).
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  std::size_t localized = 0;

  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          fault::FaultInjector injector(plan);
          Brsmn net(n);
          RouteOptions options;
          options.engine = RouteEngine::Scalar;
          options.faults = &injector;
          options.explain = true;
          try {
            net.route(assignment, options);
          } catch (const fault::FaultDetected& e) {
            SCOPED_TRACE(e.report().to_string());
            ASSERT_FALSE(e.report().sites.empty());
            const fault::FaultSiteMismatch* site = e.report().earliest_site();
            EXPECT_EQ(site->level, level);
            EXPECT_EQ(site->pass, pass);
            EXPECT_EQ(site->stage, stage);
            EXPECT_EQ(site->index, sw);
            EXPECT_EQ(e.report().sites.size(), 1u);
            ++localized;
          }
        }
      }
    }
  }
  EXPECT_GT(localized, 0u);
}

TEST(FaultInjectionFullRoute, DeadLinkSweepBothEnginesAgree) {
  // Every (level, line) dead-link at n = 16: an occupied line dying is
  // detected at the delivery oracle; an empty line dying is masked. The
  // two engines and both implementations must agree throughout.
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t masked = 0, detected = 0;
  for (int level = 1; level <= m; ++level) {
    for (std::size_t line = 0; line < n; ++line) {
      SCOPED_TRACE("level " + std::to_string(level) + " line " +
                   std::to_string(line));
      fault::FaultPlan plan;
      plan.n = n;
      fault::FaultSpec f;
      f.kind = fault::FaultKind::DeadLink;
      f.level = level;
      f.index = line;
      plan.faults.push_back(f);

      const RouteUnderFault scalar =
          route_unrolled(assignment, plan, RouteEngine::Scalar);
      const RouteUnderFault packed =
          route_unrolled(assignment, plan, RouteEngine::Packed);
      const RouteUnderFault fb_scalar =
          route_feedback(assignment, plan, RouteEngine::Scalar);
      const RouteUnderFault fb_packed =
          route_feedback(assignment, plan, RouteEngine::Packed);

      ASSERT_EQ(scalar.delivered.has_value(), packed.delivered.has_value());
      ASSERT_EQ(scalar.delivered.has_value(),
                fb_scalar.delivered.has_value());
      ASSERT_EQ(scalar.delivered.has_value(),
                fb_packed.delivered.has_value());
      if (scalar.delivered.has_value()) {
        ++masked;
        EXPECT_EQ(*scalar.delivered, expected);
        EXPECT_EQ(*packed.delivered, expected);
        EXPECT_EQ(*fb_scalar.delivered, expected);
        EXPECT_EQ(*fb_packed.delivered, expected);
      } else {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);  // idle lines dying is harmless
}

TEST(FaultInjectionFullRoute, FeedbackEnginesAgreeOnSwitchFaults) {
  // The feedback implementation under the same 144-site sweep: scalar
  // and packed must agree on every outcome class and every successful
  // delivery. (Localization of these detections is asserted by
  // FeedbackDetectionsLocalizeToTheInjectedSite.)
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t masked = 0, detected = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          const RouteUnderFault fb_scalar =
              route_feedback(assignment, plan, RouteEngine::Scalar);
          const RouteUnderFault fb_packed =
              route_feedback(assignment, plan, RouteEngine::Packed);
          ASSERT_EQ(fb_scalar.delivered.has_value(),
                    fb_packed.delivered.has_value());
          if (fb_scalar.delivered.has_value()) {
            ++masked;
            EXPECT_EQ(*fb_scalar.delivered, expected);
            EXPECT_EQ(*fb_scalar.delivered, *fb_packed.delivered);
          } else {
            ++detected;
          }
        }
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
}

// --- schedule parity --------------------------------------------------------
//
// The unrolled and feedback fabrics route the same BSNs through the same
// per-pass contracts (Eq. 2 at entry, Eq. 4 after scatter, the half-split
// after quasisort), so a switch fault must end the same way on both —
// delivered, or detected at the same (level, pass) — and, because the
// contracts fire at the faulty pass, while the feedback fabric still
// holds that pass's grid, localization names the injected switch on both.

/// How one faulted route ended: delivered, or detected at (level, pass).
struct FaultOutcome {
  bool detected = false;
  int level = 0;
  std::optional<PassKind> pass;
  std::vector<fault::FaultSiteMismatch> sites;

  bool same_class_and_point(const FaultOutcome& o) const {
    return detected == o.detected && level == o.level && pass == o.pass;
  }
};

template <typename Net>
FaultOutcome route_outcome(const MulticastAssignment& assignment,
                           const fault::FaultPlan& plan, RouteEngine engine,
                           bool explain = false) {
  fault::FaultInjector injector(plan);
  Net net(plan.n);
  RouteOptions options;
  options.engine = engine;
  options.faults = &injector;
  options.explain = explain;
  FaultOutcome out;
  try {
    EXPECT_EQ(net.route(assignment, options).delivered,
              expected_delivery(assignment));
  } catch (const fault::FaultDetected& e) {
    out.detected = true;
    out.level = e.report().at.level;
    out.pass = e.report().at.pass;
    out.sites = e.report().sites;
  }
  return out;
}

/// Every switch site of an n-wide network x {flip, stuck-Cross,
/// stuck-Parallel}: both engines must reach the same outcome class and
/// detection point on the feedback fabric as on the unrolled one, and
/// every detection must fire at the faulty (level, pass).
void expect_schedules_agree_on_switch_faults(std::size_t n) {
  const int m = log2_exact(n);
  const MulticastAssignment assignment = sweep_assignment(n);
  std::size_t sites = 0, detected = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          for (int kind = 0; kind < 3; ++kind) {
            fault::FaultPlan plan;
            plan.n = n;
            fault::FaultSpec f;
            f.kind = kind == 0 ? fault::FaultKind::TransientFlip
                               : fault::FaultKind::StuckSetting;
            f.stuck = kind == 1 ? SwitchSetting::Cross
                                : SwitchSetting::Parallel;
            f.level = level;
            f.pass = pass;
            f.stage = stage;
            f.index = sw;
            plan.faults.push_back(f);
            SCOPED_TRACE(fault::describe(f));
            ++sites;
            for (const RouteEngine engine :
                 {RouteEngine::Scalar, RouteEngine::Packed}) {
              const FaultOutcome unrolled =
                  route_outcome<Brsmn>(assignment, plan, engine);
              const FaultOutcome feedback =
                  route_outcome<FeedbackBrsmn>(assignment, plan, engine);
              EXPECT_TRUE(feedback.same_class_and_point(unrolled))
                  << "unrolled: detected " << unrolled.detected << " at level "
                  << unrolled.level << "; feedback: detected "
                  << feedback.detected << " at level " << feedback.level;
              if (unrolled.detected) {
                EXPECT_EQ(unrolled.level, level);
                EXPECT_EQ(unrolled.pass, pass);
                detected += engine == RouteEngine::Scalar;
              }
            }
          }
        }
      }
    }
  }
  // 2 passes x (m + (m-1) + ... + 2 stages) x n/2 switches x 3 kinds.
  EXPECT_EQ(sites, 3 * 2 * static_cast<std::size_t>(m * (m + 1) / 2 - 1) * n /
                       2);
  EXPECT_GT(detected, 0u);
}

TEST(FaultInjectionFullRoute, FeedbackMatchesUnrolledSiteForSiteN16) {
  expect_schedules_agree_on_switch_faults(16);
}

TEST(FaultInjectionFullRoute, FeedbackMatchesUnrolledSiteForSiteN64) {
  expect_schedules_agree_on_switch_faults(64);
}

TEST(FaultInjectionFullRoute, FeedbackDetectionsLocalizeToTheInjectedSite) {
  // The single-flip sweep on the feedback fabric with provenance on: the
  // contracts catch each fault at its own pass, whose grid the one fabric
  // still holds, so every report names exactly the injected switch.
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  std::size_t localized = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);
          SCOPED_TRACE(fault::describe(f));
          for (const RouteEngine engine :
               {RouteEngine::Scalar, RouteEngine::Packed}) {
            const FaultOutcome out = route_outcome<FeedbackBrsmn>(
                assignment, plan, engine, /*explain=*/true);
            if (!out.detected) continue;
            ASSERT_EQ(out.sites.size(), 1u);
            EXPECT_EQ(out.sites[0].level, level);
            EXPECT_EQ(out.sites[0].pass, pass);
            EXPECT_EQ(out.sites[0].stage, stage);
            EXPECT_EQ(out.sites[0].index, sw);
            ++localized;
          }
        }
      }
    }
  }
  EXPECT_GT(localized, 0u);
}

// --- SIMD backend parity ---------------------------------------------------
//
// The packed engine's word loops dispatch through a runtime-selected
// SIMD backend (core/simd_backend.hpp); fault handling must not depend
// on which one runs. The full 144-site stuck-at sweep repeats per
// available backend: every site must be masked or detected exactly as
// the scalar engine decides, never misdelivered — and when a fault is
// detected with provenance enabled, localization must name the same
// (the injected) switch on every backend.

class FaultInjectionBackendSweep
    : public ::testing::TestWithParam<simd::Backend> {};

TEST_P(FaultInjectionBackendSweep, ExhaustiveSwitchSweepMatchesScalar) {
  const simd::Backend backend = GetParam();
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t sites = 0, masked = 0, detected = 0, localized = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          ++sites;
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          const RouteUnderFault scalar =
              route_unrolled(assignment, plan, RouteEngine::Scalar);

          // Packed under this backend, with provenance so a detection
          // can be localized.
          fault::FaultInjector injector(plan);
          Brsmn net(n);
          RouteOptions options;
          options.engine = RouteEngine::Packed;
          options.simd_backend = backend;
          options.faults = &injector;
          options.explain = true;
          std::optional<std::vector<std::optional<std::size_t>>> packed;
          try {
            packed = net.route(assignment, options).delivered;
          } catch (const fault::FaultDetected& e) {
            packed = std::nullopt;
            // Single fault on the unrolled fabric: the report must name
            // exactly the injected switch, whichever backend ran.
            ASSERT_FALSE(e.report().sites.empty());
            const fault::FaultSiteMismatch* site = e.report().earliest_site();
            EXPECT_EQ(site->level, level);
            EXPECT_EQ(site->pass, pass);
            EXPECT_EQ(site->stage, stage);
            EXPECT_EQ(site->index, sw);
            ++localized;
          }

          ASSERT_EQ(scalar.delivered.has_value(), packed.has_value())
              << "outcome class diverged from scalar";
          if (packed.has_value()) {
            ++masked;
            EXPECT_EQ(*packed, expected);
            EXPECT_EQ(*packed, *scalar.delivered);
          } else {
            ++detected;
          }
        }
      }
    }
  }
  EXPECT_EQ(sites, 144u);
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
  EXPECT_EQ(localized, detected);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FaultInjectionBackendSweep,
    ::testing::ValuesIn(simd::available_backends()),
    [](const auto& param_info) {
      return std::string(simd::to_string(param_info.param));
    });

TEST(FaultInjectionFullRoute, RandomPlansDifferentialAtN32) {
  // Seeded multi-fault plans at n = 32 across random assignments: the
  // scalar and packed engines agree on the outcome of every route, for
  // both implementations.
  const std::size_t n = 32;
  Rng rng(test_seed(1234));
  for (int round = 0; round < 10; ++round) {
    const fault::FaultPlan plan = fault::random_fault_plan(n, rng);
    const MulticastAssignment assignment = random_multicast(n, 0.7, rng);
    const auto expected = expected_delivery(assignment);

    const RouteUnderFault scalar =
        route_unrolled(assignment, plan, RouteEngine::Scalar);
    const RouteUnderFault packed =
        route_unrolled(assignment, plan, RouteEngine::Packed);
    ASSERT_EQ(scalar.delivered.has_value(), packed.delivered.has_value())
        << "round " << round;
    if (scalar.delivered.has_value()) {
      EXPECT_EQ(*scalar.delivered, expected);
      EXPECT_EQ(*scalar.delivered, *packed.delivered);
    }

    const RouteUnderFault fb_scalar =
        route_feedback(assignment, plan, RouteEngine::Scalar);
    const RouteUnderFault fb_packed =
        route_feedback(assignment, plan, RouteEngine::Packed);
    ASSERT_EQ(fb_scalar.delivered.has_value(),
              fb_packed.delivered.has_value())
        << "round " << round;
    if (fb_scalar.delivered.has_value()) {
      EXPECT_EQ(*fb_scalar.delivered, expected);
    }
  }
}

// --- plane self-check coverage at n = 1024 ----------------------------------
//
// The packed compile carries no per-copy tag streams; between levels it
// checks its tag planes and copy arrays instead. Sampled dead links and
// stuck switches on a dense n = 1024 multicast, on both fabrics: every
// route must either deliver exactly the expected outputs or raise
// FaultDetected — an armed fault never yields a silent misdelivery, so
// every fault that changes delivery is detected. A dead link that kills a
// live copy always changes delivery.

template <typename RouteFn>
void sweep_packed_faults_n1024(RouteFn&& route) {
  const std::size_t n = 1024;
  const int m = 10;
  Rng rng(test_seed(4242));
  const MulticastAssignment assignment = random_multicast(n, 1.0, rng);
  const auto expected = expected_delivery(assignment);
  std::size_t detected = 0, masked = 0, live_kills = 0;
  for (int trial = 0; trial < 128; ++trial) {
    fault::FaultSpec f;
    if (trial % 2 == 0) {
      f.kind = fault::FaultKind::DeadLink;
      f.level = static_cast<int>(rng.uniform(1, m));
      f.index = rng.uniform(0, n - 1);
    } else {
      f.kind = fault::FaultKind::StuckSetting;
      f.level = static_cast<int>(rng.uniform(1, m - 1));
      f.pass = rng.uniform(0, 1) ? PassKind::Scatter : PassKind::Quasisort;
      f.stage = static_cast<int>(rng.uniform(1, m - f.level + 1));
      f.index = rng.uniform(0, n / 2 - 1);
      f.stuck = rng.uniform(0, 1) ? SwitchSetting::Cross
                                  : SwitchSetting::Parallel;
    }
    SCOPED_TRACE(fault::describe(f));
    fault::FaultPlan plan;
    plan.n = n;
    plan.faults.push_back(f);
    const RouteUnderFault out = route(assignment, plan);
    ASSERT_EQ(out.activity.applied.size(), 1u);
    const bool changed = out.activity.applied.front().changed;
    if (f.kind == fault::FaultKind::DeadLink && changed) {
      ++live_kills;
      EXPECT_FALSE(out.delivered.has_value())
          << "a live copy died without detection";
    }
    if (out.delivered.has_value()) {
      ++masked;
      EXPECT_EQ(*out.delivered, expected) << "silent misdelivery";
    } else {
      ++detected;
      EXPECT_TRUE(changed) << "detection without an applied fault";
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
  EXPECT_GT(live_kills, 0u);
}

TEST(FaultInjectionPackedN1024, UnrolledFaultsNeverMisdeliver) {
  sweep_packed_faults_n1024(
      [](const MulticastAssignment& a, const fault::FaultPlan& plan) {
        return route_unrolled(a, plan, RouteEngine::Packed);
      });
}

TEST(FaultInjectionPackedN1024, FeedbackFaultsNeverMisdeliver) {
  sweep_packed_faults_n1024(
      [](const MulticastAssignment& a, const fault::FaultPlan& plan) {
        return route_feedback(a, plan, RouteEngine::Packed);
      });
}

// --- the packed engine's plane self-check, property by property ------------

/// A consistent four-line state after some level: two copies leaving
/// with exit tags 0 and 1 and live heads, two empty lines (ε0, ε1).
struct CopyCheckInput {
  std::vector<std::uint8_t> exit{0b000, 0b001, 0b110, 0b111};
  std::vector<std::uint8_t> head{0b100, 0b000, 0b110, 0b110};
  std::vector<std::uint32_t> source{3, 1, kNoSource, kNoSource};
  std::vector<std::uint64_t> copy_id{5, 2, 0, 0};
};

std::optional<fault::FaultReport> copy_check_report(const CopyCheckInput& in) {
  std::vector<std::uint64_t> seen;
  try {
    fault::self_check_copies(in.exit, in.head, in.source, in.copy_id,
                             /*id_limit=*/6, seen, /*level=*/2, /*route=*/7);
  } catch (const fault::FaultDetected& e) {
    return e.report();
  }
  return std::nullopt;
}

TEST(PlaneSelfCheck, ConsistentCopiesPass) {
  EXPECT_FALSE(copy_check_report(CopyCheckInput{}).has_value());
}

TEST(PlaneSelfCheck, EveryPropertyRaisesAtTheLevel) {
  const std::vector<std::pair<const char*, void (*)(CopyCheckInput&)>>
      breaks = {
          {"occupied line without a copy",
           [](CopyCheckInput& in) { in.source[0] = kNoSource; }},
          {"empty line with a copy",
           [](CopyCheckInput& in) { in.source[2] = 4; }},
          {"head tag not live", [](CopyCheckInput& in) { in.head[1] = 0b110; }},
          {"exit tag neither 0 nor 1",
           [](CopyCheckInput& in) { in.exit[0] = 0b100; }},
          {"duplicate copy id", [](CopyCheckInput& in) { in.copy_id[1] = 5; }},
          {"unallocated copy id",
           [](CopyCheckInput& in) { in.copy_id[1] = 6; }},
      };
  for (const auto& [what, corrupt] : breaks) {
    SCOPED_TRACE(what);
    CopyCheckInput in;
    corrupt(in);
    const auto report = copy_check_report(in);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->n, 4u);
    EXPECT_EQ(report->route, 7u);
    EXPECT_EQ(report->at.level, 2);
    EXPECT_FALSE(report->at.pass.has_value());
    EXPECT_TRUE(report->at.fabric_settled);
  }
}

TEST(FaultInjectionFullRoute, SelfCheckOffRaisesBareContractViolation) {
  // With self_check explicitly off and no injector, a corrupted route is
  // impossible; but with an injector the wrapping is implied — and with
  // self_check off *and* no faults, the options plumb through unchanged.
  const std::size_t n = 16;
  const MulticastAssignment assignment = sweep_assignment(n);
  Brsmn net(n);
  RouteOptions options;
  options.self_check = false;
  const RouteResult result = net.route(assignment, options);
  EXPECT_EQ(result.delivered, expected_delivery(assignment));
}

TEST(FaultInjection, OracleRejectsMisalignedBroadcastPlans) {
  // The test oracle itself must notice when a broadcast switch is fed
  // anything but an aligned (alpha, eps) pair — guarding the guards.
  using testing::Sym;
  const std::vector<Sym> in{Sym::Chi, Sym::Alpha, Sym::Eps, Sym::Chi};
  const std::vector<SwitchSetting> settings{SwitchSetting::UpperBcast,
                                            SwitchSetting::Parallel};
  std::vector<Sym> out;
  EXPECT_FALSE(testing::apply_merging_stage(in, settings, out));
}

}  // namespace
}  // namespace brsmn
