#include "fault/fault_injector.hpp"

#include "common/contracts.hpp"

namespace brsmn::fault {

namespace {

bool scope_matches(const FaultSpec& f, ImplKind impl, RouteEngine engine) {
  if (f.impl && *f.impl != impl) return false;
  if (f.engine && *f.engine != engine) return false;
  return true;
}

/// Resolve one armed fault against the configured setting, log it into
/// the seam's activity trail, and return the new setting when it differs.
std::optional<SwitchSetting> resolve_and_record(
    const PassSeam& seam, PassKind pass,
    const FaultInjector::ArmedSwitchFault& fault, SwitchSetting configured) {
  const SwitchSetting resolved =
      faulted_setting(configured, fault.kind, fault.stuck);
  if (seam.activity != nullptr) {
    AppliedFault a;
    a.spec_index = fault.spec_index;
    a.kind = fault.kind;
    a.level = seam.level;
    a.pass = pass;
    a.stage = fault.stage;
    a.index = fault.index;
    a.from = configured;
    a.to = resolved;
    a.changed = resolved != configured;
    seam.activity->applied.push_back(a);
  }
  if (resolved == configured) return std::nullopt;
  return resolved;
}

}  // namespace

std::size_t fault_site_upper_line(int stage, std::size_t switch_index) {
  const std::size_t d = std::size_t{1} << (stage - 1);
  return (switch_index / d) * 2 * d + switch_index % d;
}

std::size_t fault_site_local_switch(int stage, std::size_t u,
                                    std::size_t base) {
  const std::size_t d = std::size_t{1} << (stage - 1);
  const std::size_t lu = u - base;
  return (lu >> stage) * d + lu % (2 * d);
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  validate(plan_);
}

std::vector<FaultInjector::ArmedSwitchFault> FaultInjector::switch_faults(
    std::uint64_t route, int level, PassKind pass, ImplKind impl,
    RouteEngine engine) const {
  std::vector<ArmedSwitchFault> armed;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind == FaultKind::DeadLink) continue;
    if (f.level != level || f.pass != pass) continue;
    if (!f.when.active(route) || !scope_matches(f, impl, engine)) continue;
    armed.push_back({i, f.kind, f.stage, f.index, f.stuck});
  }
  return armed;
}

std::vector<FaultInjector::ArmedDeadLink> FaultInjector::dead_lines(
    std::uint64_t route, int level, ImplKind impl, RouteEngine engine) const {
  std::vector<ArmedDeadLink> armed;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind != FaultKind::DeadLink || f.level != level) continue;
    if (!f.when.active(route) || !scope_matches(f, impl, engine)) continue;
    armed.push_back({i, f.index});
  }
  return armed;
}

SwitchSetting faulted_setting(SwitchSetting configured, FaultKind kind,
                              SwitchSetting stuck) {
  if (configured != SwitchSetting::Parallel &&
      configured != SwitchSetting::Cross) {
    return configured;  // broadcast sites are immune (masked)
  }
  switch (kind) {
    case FaultKind::StuckSetting: return stuck;
    case FaultKind::TransientFlip: return opposite_unicast(configured);
    case FaultKind::DeadLink: break;
  }
  BRSMN_ENSURES_MSG(false, "dead links are not switch faults");
  return configured;
}

void apply_dead_lines(const FaultInjector* injector, std::uint64_t route,
                      int level, ImplKind impl, RouteEngine engine,
                      std::vector<LineValue>& lines, FaultActivity* activity) {
  apply_dead_lines_with(injector, route, level, impl, engine, activity,
                        [&lines](std::size_t line) {
                          const bool was_occupied = !lines[line].empty();
                          lines[line] = LineValue{};
                          return was_occupied;
                        });
}

void PassSeam::apply_at(FabricSwitch sw, PassKind pass,
                        const FaultInjector::ArmedSwitchFault& fault) const {
  const auto resolved = resolve_and_record(
      *this, pass, fault, sw.fabric->setting(fault.stage, sw.index));
  if (resolved) sw.fabric->set(fault.stage, sw.index, *resolved);
}

void PassSeam::apply_at(packed::StageMasks& mk, PassKind pass,
                        const FaultInjector::ArmedSwitchFault& fault) const {
  const std::size_t up = fault_site_upper_line(fault.stage, fault.index);
  const std::size_t d = std::size_t{1} << (fault.stage - 1);
  const auto resolved =
      resolve_and_record(*this, pass, fault, mk.setting(up, d));
  if (resolved) mk.set(up, d, *resolved);
}

}  // namespace brsmn::fault
