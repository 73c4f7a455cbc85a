// The packed engine's settings store and the grids derived from it
// (core/level_kernel.hpp SettingsLedger, core/fabric_schedule.hpp).
//
// The packed engine keeps each pass's switch settings only as (su, sl)
// stage masks; the Rbn grids level_bsns() and fabric() expose are
// decoded from those masks when read. These tests pin the decoding
// itself — every setting at every stage, through the unrolled BSN
// slices (narrower than a word below level 1 at n = 64) and the feedback
// fabric's reset — and the bookkeeping that decides what a read
// re-derives: a scalar route writes the grids itself, so a packed
// route's pending settings must never be re-derived over it.
#include "core/fabric_schedule.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/bsn.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/multicast_assignment.hpp"
#include "core/packed_kernel.hpp"
#include "core/rbn.hpp"
#include "fault/fault_injector.hpp"

namespace brsmn {
namespace {

constexpr SwitchSetting kSettings[] = {
    SwitchSetting::Parallel, SwitchSetting::Cross, SwitchSetting::UpperBcast,
    SwitchSetting::LowerBcast};

constexpr PassKind kPasses[] = {PassKind::Scatter, PassKind::Quasisort};

/// The setting written at full-width switch `sw` of stage `j` of
/// (level, pass): every stage cycles through all four settings, shifted
/// per stage, level and pass so no two rows agree.
SwitchSetting pattern(int level, PassKind pass, int j, std::size_t sw) {
  const std::size_t shift = static_cast<std::size_t>(j + level) +
                            (pass == PassKind::Quasisort ? 2 : 0);
  return static_cast<SwitchSetting>((sw + shift) % 4);
}

/// Fill (level, pass)'s ledger slot with pattern().
template <typename Level>
void write_pattern(const Level& lv, PassKind pass, std::size_t n) {
  const auto masks = lv.masks(pass);
  for (int j = 1; j <= static_cast<int>(masks.size()); ++j) {
    packed::StageMasks& mk = masks[static_cast<std::size_t>(j - 1)];
    mk.clear();
    for (std::size_t sw = 0; sw < n / 2; ++sw) {
      mk.set(fault::fault_site_upper_line(j, sw), std::size_t{1} << (j - 1),
             pattern(lv.level(), pass, j, sw));
    }
  }
}

/// The setting of full-width switch `sw` of stage `j` read from `rbn`,
/// which covers lines [base, base + rbn.size()), addressed through the
/// topology's own line-to-switch map.
SwitchSetting grid_setting(const Rbn& rbn, std::size_t base, int j,
                           std::size_t sw) {
  const std::size_t up = fault::fault_site_upper_line(j, sw);
  return rbn.setting(j, rbn.topology().stage_switch(j, up - base));
}

TEST(StageMaskEncoding, EverySettingAtEveryStageOfN64) {
  const std::size_t n = 64;
  const std::size_t words = packed::words_for(n);
  for (int j = 1; j <= log2_exact(n); ++j) {
    const std::size_t d = std::size_t{1} << (j - 1);
    for (std::size_t sw = 0; sw < n / 2; ++sw) {
      const std::size_t up = fault::fault_site_upper_line(j, sw);
      for (const SwitchSetting s : kSettings) {
        SCOPED_TRACE(testing::Message() << "stage " << j << " switch " << sw
                                        << " " << setting_name(s));
        packed::StageMasks mk;
        mk.resize(words);
        mk.set(up, d, s);
        for (std::size_t other = 0; other < n / 2; ++other) {
          EXPECT_EQ(mk.setting(fault::fault_site_upper_line(j, other), d),
                    other == sw ? s : SwitchSetting::Parallel);
        }
        // The bits move data the way the setting names: an upper or a
        // lower input alone reaches the outputs the setting sends it to.
        const bool upper_from_upper = s == SwitchSetting::Parallel ||
                                      s == SwitchSetting::UpperBcast;
        const bool lower_from_upper =
            s == SwitchSetting::Cross || s == SwitchSetting::UpperBcast;
        for (const bool from_upper : {true, false}) {
          packed::PackedLines lines(n, 1);
          packed::PackedLines scratch(n, 1);
          lines.set(from_upper ? up : up + d, 1);
          packed::apply_stage(lines, scratch, mk, d);
          EXPECT_EQ(lines.get(up), from_upper == upper_from_upper ? 1u : 0u);
          EXPECT_EQ(lines.get(up + d),
                    from_upper == lower_from_upper ? 1u : 0u);
        }
      }
    }
  }
}

TEST(DerivedGrids, UnrolledBsnGridsDecodeEverySettingAtN64) {
  const std::size_t n = 64;
  const int m = log2_exact(n);
  std::vector<std::vector<Bsn>> levels;
  for (int k = 1; k <= m - 1; ++k) {
    levels.emplace_back(std::size_t{1} << (k - 1), Bsn(n >> (k - 1)));
  }
  pkern::SettingsLedger ledger(n, m);
  const sched::UnrolledSchedule sched(levels, n, m, ledger);
  for (int k = 1; k <= m - 1; ++k) {
    for (const PassKind pass : kPasses) write_pattern(sched.level(k), pass, n);
  }
  sched.derive_grids();
  for (int k = 1; k <= m - 1; ++k) {
    const std::size_t width = n >> (k - 1);
    for (const PassKind pass : kPasses) {
      for (int j = 1; j <= m - k + 1; ++j) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          const std::size_t i = fault::fault_site_upper_line(j, sw) / width;
          const Bsn& bsn = levels[static_cast<std::size_t>(k - 1)][i];
          const Rbn& rbn = pass == PassKind::Scatter ? bsn.scatter_fabric()
                                                     : bsn.quasisort_fabric();
          EXPECT_EQ(grid_setting(rbn, i * width, j, sw),
                    pattern(k, pass, j, sw))
              << "level " << k << " stage " << j << " switch " << sw;
        }
      }
    }
  }
  // Nothing is pending any more: a second read leaves the grids alone.
  Rbn& probe = levels[0][0].mutable_scatter_fabric();
  probe.set(1, 0, SwitchSetting::LowerBcast);
  sched.derive_grids();
  EXPECT_EQ(probe.setting(1, 0), SwitchSetting::LowerBcast);
}

TEST(DerivedGrids, FeedbackFabricShowsTheResidentPassWithParallelAboveS) {
  const std::size_t n = 64;
  const int m = log2_exact(n);
  Rbn fabric(n);
  pkern::SettingsLedger ledger(n, m);
  const sched::FeedbackSchedule sched(fabric, ledger);
  for (int k = 1; k <= m - 1; ++k) {
    const int S = m - k + 1;
    for (const PassKind pass : kPasses) {
      // A previous pass left every switch crossed; deriving this one must
      // reset the stages above its depth S back to identity wiring.
      for (int j = 1; j <= m; ++j) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          fabric.set(j, sw, SwitchSetting::Cross);
        }
      }
      write_pattern(sched.level(k), pass, n);
      sched.derive_grids();
      for (int j = 1; j <= m; ++j) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          EXPECT_EQ(grid_setting(fabric, 0, j, sw),
                    j <= S ? pattern(k, pass, j, sw) : SwitchSetting::Parallel)
              << "level " << k << " stage " << j << " switch " << sw;
        }
      }
    }
  }
  // Two passes written, one read: the fabric shows the later one only.
  write_pattern(sched.level(2), PassKind::Quasisort, n);
  write_pattern(sched.level(1), PassKind::Scatter, n);
  sched.derive_grids();
  EXPECT_EQ(grid_setting(fabric, 0, m, 0), pattern(1, PassKind::Scatter, m, 0));
}

// --- scalar routes own the grids they write ---------------------------------

std::vector<SwitchSetting> fabric_grid(const Rbn& rbn) {
  std::vector<SwitchSetting> grid;
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < rbn.size() / 2; ++sw) {
      grid.push_back(rbn.setting(stage, sw));
    }
  }
  return grid;
}

std::vector<SwitchSetting> grids(const Brsmn& net) {
  std::vector<SwitchSetting> all;
  for (int k = 1; k < net.levels(); ++k) {
    for (const Bsn& bsn : net.level_bsns(k)) {
      for (const Rbn* rbn : {&bsn.scatter_fabric(), &bsn.quasisort_fabric()}) {
        const auto g = fabric_grid(*rbn);
        all.insert(all.end(), g.begin(), g.end());
      }
    }
  }
  return all;
}

std::vector<SwitchSetting> grids(const FeedbackBrsmn& net) {
  return fabric_grid(net.fabric());
}

/// A packed route leaves its settings pending in the ledger; a scalar
/// route on the same network afterwards must leave exactly its own grids,
/// whether or not the packed route's grids were read in between.
template <typename Net>
void expect_scalar_route_keeps_its_grids() {
  const std::size_t n = 32;
  Rng rng(test_seed(8900));
  const MulticastAssignment a = random_multicast(n, 1.0, rng);
  const MulticastAssignment b = random_multicast(n, 1.0, rng);
  RouteOptions packed;
  packed.engine = RouteEngine::Packed;
  RouteOptions scalar;
  scalar.engine = RouteEngine::Scalar;
  Net ref_a(n);
  ref_a.route(a, scalar);
  Net ref_b(n);
  ref_b.route(b, scalar);
  const auto want = grids(ref_b);
  ASSERT_NE(grids(ref_a), want) << "the two routes must leave distinct grids";

  Net net(n);
  net.route(a, packed);
  net.route(b, scalar);
  EXPECT_EQ(grids(net), want);

  net.route(a, packed);
  EXPECT_EQ(grids(net), grids(ref_a));
  net.route(b, scalar);
  EXPECT_EQ(grids(net), want);
}

TEST(DerivedGrids, UnrolledScalarRouteAfterPackedRouteKeepsItsGrids) {
  expect_scalar_route_keeps_its_grids<Brsmn>();
}

TEST(DerivedGrids, FeedbackScalarRouteAfterPackedRouteKeepsItsGrids) {
  expect_scalar_route_keeps_its_grids<FeedbackBrsmn>();
}

}  // namespace
}  // namespace brsmn
