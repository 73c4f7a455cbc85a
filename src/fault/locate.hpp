// Provenance localization: name the corrupted switches by diffing the
// recorded routing intent against the fabric's settings.
//
// The configuration algorithms write their decisions into the
// RouteExplanation grid (core/explain.hpp) *before* the injector touches
// the fabric, so intent and actual are independent artifacts. When the
// online self-check fires, the drivers diff the two over every pass whose
// grid the fabric still holds at the detection point and attach the
// mismatching sites — earliest (level, pass, stage, switch) first — to
// the FaultReport. The packed engine's settings live in its stage masks,
// so the grids are derived from them before the diff reads them.
//
// Which passes still hold their grids is the fabric schedule's call
// (core/fabric_schedule.hpp): the unrolled network's BSNs keep theirs for
// the whole route, so every pass settled by the detection point is
// diffed; the feedback network reconfigures its one fabric per pass, so
// only the resident pass is. Both schedules run the same per-pass
// contracts, so a switch fault is caught at the pass it corrupts, while
// its grid is still resident.
#pragma once

#include <utility>
#include <vector>

#include "core/explain.hpp"
#include "fault/fault_report.hpp"

namespace brsmn::fault {

/// Diff the recorded decision grids against the installed settings of
/// every pass `sched` says still holds its grid at `at`. Sites come back
/// ordered (level, pass, stage, switch) ascending.
template <typename Schedule>
std::vector<FaultSiteMismatch> locate_mismatches(const Schedule& sched,
                                                 const RouteExplanation& ex,
                                                 const DetectPoint& at) {
  sched.derive_grids();
  std::vector<FaultSiteMismatch> sites;
  for (const PassExplanation& p : ex.passes) {
    if (p.kind == PassKind::Final || !sched.holds_grid(p.level, p.kind, at)) {
      continue;
    }
    const auto lv = sched.level(p.level);
    for (int j = 1; j <= p.stages(); ++j) {
      const auto& row = p.decisions[static_cast<std::size_t>(j - 1)];
      for (std::size_t sw = 0; sw < row.size(); ++sw) {
        const auto site = lv.site(p.kind, j, sw);
        const SwitchSetting actual = site.fabric->setting(j, site.index);
        if (actual != row[sw].setting) {
          sites.push_back({p.level, p.kind, j, sw, row[sw].setting, actual});
        }
      }
    }
  }
  return sites;
}

/// Rebuild `e` with localized sites attached and throw it. Used in the
/// drivers' top-level catch when the route ran with explain enabled.
template <typename Schedule>
[[noreturn]] void rethrow_localized(const Schedule& sched,
                                    const FaultDetected& e,
                                    const RouteExplanation& ex) {
  FaultReport report = e.report();
  report.sites = locate_mismatches(sched, ex, report.at);
  throw FaultDetected(std::move(report));
}

}  // namespace brsmn::fault
