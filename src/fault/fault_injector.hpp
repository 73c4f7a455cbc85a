// The injection seam: resolves a FaultPlan against a concrete route and
// mutates fabric state the way a physical defect would.
//
// Faults strike *after* a pass's configuration is computed and *before*
// its datapath runs — the routing algorithms decide with full integrity
// (and record their intent into the explanation grid when enabled), then
// the fabric silently disobeys. That ordering is what makes provenance
// localization (fault/locate.hpp) possible: intent and actual are two
// separate artifacts that can be diffed.
//
// One seam serves both engines over either fabric schedule, each at its
// own settings store: the scalar engine patches the Rbn settings its
// datapath reads, the packed engine the stage bitmasks its word-parallel
// datapath reads (the Rbn grids it exposes are derived from those masks,
// so post-route inspection agrees), and the two engines stay
// bit-identical under the same plan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/brsmn.hpp"
#include "core/packed_kernel.hpp"
#include "core/rbn.hpp"
#include "fault/fault_plan.hpp"

namespace brsmn::fault {

/// One fault application attempt on a concrete route, for audit trails
/// and tests. `changed == false` means the fault was a no-op at its site
/// (stuck value equal to the configured setting, or the site was
/// configured as a broadcast — the fault model leaves broadcast switches
/// alone, see docs/FAULT_TOLERANCE.md) and is therefore masked by
/// construction.
struct AppliedFault {
  std::size_t spec_index = 0;
  FaultKind kind = FaultKind::StuckSetting;
  int level = 0;
  std::optional<PassKind> pass;  ///< nullopt for dead links
  int stage = 0;                 ///< 0 for dead links
  std::size_t index = 0;         ///< switch index, or line for dead links
  SwitchSetting from = SwitchSetting::Parallel;
  SwitchSetting to = SwitchSetting::Parallel;
  bool changed = false;
};

/// Where the faults of one route actually landed.
struct FaultActivity {
  std::vector<AppliedFault> applied;

  std::size_t changed_count() const noexcept {
    std::size_t c = 0;
    for (const AppliedFault& a : applied) c += a.changed;
    return c;
  }
  void clear() { applied.clear(); }
};

class FaultInjector {
 public:
  /// Validates the plan (throws ContractViolation on malformed specs).
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }
  std::size_t size() const noexcept { return plan_.n; }

  /// Claim the next route ordinal. Called once per route() by the
  /// engines; atomic so ParallelRouter workers share one schedule.
  std::uint64_t begin_route() noexcept {
    return next_route_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t routes_begun() const noexcept {
    return next_route_.load(std::memory_order_relaxed);
  }

  struct ArmedSwitchFault {
    std::size_t spec_index = 0;
    FaultKind kind = FaultKind::StuckSetting;
    int stage = 0;
    std::size_t index = 0;  ///< full-width stage-switch index
    SwitchSetting stuck = SwitchSetting::Cross;  ///< StuckSetting only
  };
  struct ArmedDeadLink {
    std::size_t spec_index = 0;
    std::size_t line = 0;
  };

  /// The switch faults active for (route, level, pass) under the given
  /// implementation and engine. Stateless const read: thread-safe.
  std::vector<ArmedSwitchFault> switch_faults(std::uint64_t route, int level,
                                              PassKind pass, ImplKind impl,
                                              RouteEngine engine) const;

  /// The lines dead at entry of `level` for this route/impl/engine.
  std::vector<ArmedDeadLink> dead_lines(std::uint64_t route, int level,
                                        ImplKind impl,
                                        RouteEngine engine) const;

 private:
  FaultPlan plan_;
  std::atomic<std::uint64_t> next_route_{0};
};

/// Full-width upper line of (stage, switch): switches are block-major
/// with d = 2^(stage-1) per block, block b joining lines
/// (b*2d + t, b*2d + t + d). Shared by injection and localization so the
/// two sides of the seam agree on site addressing.
std::size_t fault_site_upper_line(int stage, std::size_t switch_index);

/// Stage-switch index of full-width line `u` inside a sub-fabric whose
/// first line is `base` (base is 2^stage-aligned for every addressable
/// stage, so the in-block offset is preserved).
std::size_t fault_site_local_switch(int stage, std::size_t u,
                                    std::size_t base);

/// What a configured setting becomes at a faulted switch. Broadcast
/// configurations are immune — the fault model corrupts the unicast
/// exchange bit only — so the configured setting comes back unchanged
/// and the fault counts as masked at that site.
SwitchSetting faulted_setting(SwitchSetting configured, FaultKind kind,
                              SwitchSetting stuck);

/// Kill the scheduled dead lines at entry of `level` in whatever line
/// representation the caller holds: `kill(line)` empties one line and
/// returns whether it was occupied. Every driver and the replay path
/// record their FaultActivity through this one loop, which keeps dead
/// links trivially engine-identical.
template <typename KillFn>
void apply_dead_lines_with(const FaultInjector* injector, std::uint64_t route,
                           int level, ImplKind impl, RouteEngine engine,
                           FaultActivity* activity, KillFn&& kill) {
  if (injector == nullptr) return;
  for (const auto& dead : injector->dead_lines(route, level, impl, engine)) {
    const bool was_occupied = kill(dead.line);
    if (activity != nullptr) {
      AppliedFault a;
      a.spec_index = dead.spec_index;
      a.kind = FaultKind::DeadLink;
      a.level = level;
      a.index = dead.line;
      a.changed = was_occupied;
      activity->applied.push_back(a);
    }
  }
}

/// apply_dead_lines_with over LineValues: each dead line becomes an empty
/// ε (the scalar engine, at level entry).
void apply_dead_lines(const FaultInjector* injector, std::uint64_t route,
                      int level, ImplKind impl, RouteEngine engine,
                      std::vector<LineValue>& lines, FaultActivity* activity);

/// One physical switch: the fabric holding it and its stage-switch index
/// there (what a fabric schedule maps a full-width site to, see
/// core/fabric_schedule.hpp).
struct FabricSwitch {
  Rbn* fabric = nullptr;
  std::size_t index = 0;
};

/// The per-(level, pass) seam handed into the engines. A null injector
/// makes every apply a no-op, so the seam doubles as plumbing for
/// self-check-only routes.
struct PassSeam {
  const FaultInjector* injector = nullptr;
  FaultActivity* activity = nullptr;
  std::uint64_t route = 0;
  int level = 1;
  ImplKind impl = ImplKind::Unrolled;
  RouteEngine engine = RouteEngine::Scalar;

  bool armed() const noexcept { return injector != nullptr; }

  /// Install this level's armed faults for `pass`: into the pass's
  /// stage bitmasks when `masks` is non-empty (the packed engine),
  /// otherwise into the switches the level view `lv` maps their sites to.
  template <typename Level>
  void apply(const Level& lv, PassKind pass,
             std::span<packed::StageMasks> masks) const {
    if (!armed()) return;
    for (const auto& fault :
         injector->switch_faults(route, level, pass, impl, engine)) {
      if (masks.empty()) {
        apply_at(lv.site(pass, fault.stage, fault.index), pass, fault);
      } else {
        apply_at(masks[static_cast<std::size_t>(fault.stage - 1)], pass,
                 fault);
      }
    }
  }

 private:
  void apply_at(FabricSwitch sw, PassKind pass,
                const FaultInjector::ArmedSwitchFault& fault) const;
  void apply_at(packed::StageMasks& mk, PassKind pass,
                const FaultInjector::ArmedSwitchFault& fault) const;
};

}  // namespace brsmn::fault
