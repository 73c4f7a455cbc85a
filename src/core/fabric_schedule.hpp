// Fabric schedules: which physical switches each pass of a BRSMN level
// writes.
//
// The unrolled network (Brsmn, paper Fig. 2) and the feedback network
// (FeedbackBrsmn, Section 7.3) route exactly the same level-k BSNs. They
// differ only in where a pass's settings land: the unrolled network gives
// every BSN its own scatter and quasisort fabric, while the feedback
// network reuses one n-wide fabric, reset to parallel before every pass,
// whose stages above the level's BSN depth stay identity wiring. A
// schedule captures that difference once — which grid a pass's settings
// show in, the fault-seam target, the cost accounting and the span names
// — so each engine has one level body and one route driver over either
// schedule.
//
// The two engines store settings differently. The scalar engine writes
// its decisions straight into the Rbn grids. The packed engine keeps
// them only as (su, sl) stage masks in the network's SettingsLedger
// (core/level_kernel.hpp), one slot per (level, pass); derive_grids()
// decodes the slots written since the last read into the grids when
// something reads them — level_bsns(), fabric(), fault localization —
// so the grids read the same whichever engine routed.
//
// Level views address switches the way the explanation grid and the
// fault plans do: stage j of level k holds n/2 switches in the full-width
// stage-switch order of a size-n RBN, and a physical fabric of width w
// covers lines [i*w, (i+1)*w). Schedules are resolved at compile time
// (the drivers are templates over them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "core/brsmn.hpp"
#include "core/bsn.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/rbn.hpp"
#include "core/stats.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_report.hpp"
#include "obs/route_probe.hpp"

namespace brsmn::sched {

/// The trace-span names of one schedule's per-pass phases.
struct SpanNames {
  const char* scatter_config;
  const char* scatter_datapath;
  const char* eps_divide;
  const char* quasisort_config;
  const char* quasisort_datapath;
};

/// Switch addressing and settings storage shared by both level views of
/// level k. `Level` provides fabric(pass, i) and fabric_stages() (log2 of
/// each fabric's width).
template <typename Level>
class LevelOps {
 public:
  LevelOps(int level, pkern::SettingsLedger* ledger)
      : level_(level), ledger_(ledger) {}

  int level() const { return level_; }

  /// The pass's ledger slot (its S stage masks), claimed for writing: the
  /// packed engine's compile, patch and replay keep a pass's settings
  /// here and nowhere else.
  std::span<packed::StageMasks> masks(PassKind pass) const {
    return ledger_->write(level_, pass);
  }

  /// Decode the pass's ledger slot into its grids (after the feedback
  /// fabric's reset, which leaves the stages above S parallel).
  void derive(PassKind pass) const {
    self().begin_pass(pass);
    const auto masks = ledger_->masks(level_, pass);
    const std::size_t switches = self().fabric_count()
                                 << (self().fabric_stages() - 1);
    for (int j = 1; j <= static_cast<int>(masks.size()); ++j) {
      const packed::StageMasks& mk = masks[static_cast<std::size_t>(j - 1)];
      for (std::size_t sw = 0; sw < switches; ++sw) {
        const fault::FabricSwitch at = site(pass, j, sw);
        at.fabric->set(j, at.index,
                       mk.setting(fault::fault_site_upper_line(j, sw),
                                  std::size_t{1} << (j - 1)));
      }
    }
  }

  /// The physical switch behind full-width (stage, switch index).
  fault::FabricSwitch site(PassKind pass, int stage, std::size_t sw) const {
    const std::size_t u = fault::fault_site_upper_line(stage, sw);
    const std::size_t i = u >> self().fabric_stages();
    return {&self().fabric(pass, i),
            fault::fault_site_local_switch(
                stage, u, i << self().fabric_stages())};
  }

 private:
  const Level& self() const { return static_cast<const Level&>(*this); }

  int level_;
  /// Null for a view the packed engine never routes (a lone Bsn's scalar
  /// route).
  pkern::SettingsLedger* ledger_;
};

/// Level k of the unrolled network: 2^(k-1) BSNs side by side.
class UnrolledLevel : public LevelOps<UnrolledLevel> {
 public:
  static constexpr fault::ImplKind kImpl = fault::ImplKind::Unrolled;
  /// Each BSN's scatter datapath is its own fabric, so copy ids are
  /// handed out BSN by BSN.
  static constexpr bool kBlockMajorEvents = true;
  static constexpr SpanNames kSpans{
      "bsn.scatter.config", "bsn.scatter.datapath", "bsn.eps_divide",
      "bsn.quasisort.config", "bsn.quasisort.datapath"};

  UnrolledLevel(std::span<Bsn> bsns, int level,
                pkern::SettingsLedger* ledger = nullptr)
      : LevelOps(level, ledger),
        bsns_(bsns),
        stages_(log2_exact(bsns.front().size())) {}

  /// S: log2 of the level's BSN size.
  int stages() const { return stages_; }
  /// Stages a pass's datapath crosses: the BSN fabric's own.
  int fabric_stages() const { return stages_; }
  std::size_t fabric_count() const { return bsns_.size(); }
  Rbn& fabric(PassKind pass, std::size_t i) const {
    Bsn& bsn = bsns_[i];
    return pass == PassKind::Scatter ? bsn.mutable_scatter_fabric()
                                     : bsn.mutable_quasisort_fabric();
  }
  /// Every pass owns its fabrics; nothing to clear.
  void begin_pass(PassKind) const {}
  /// All BSNs of a level route concurrently: the level's delay is charged
  /// once, when its last pass completes.
  void charge_pass(RoutingStats& stats, PassKind pass) const {
    if (pass == PassKind::Quasisort) {
      stats.gate_delay += bsn_routing_delay(stages_);
    }
  }

 private:
  std::span<Bsn> bsns_;
  int stages_;
};

/// Level k of the feedback network: passes 2k-1 and 2k over the one
/// physical fabric, whose stages above S stay parallel (identity).
class FeedbackLevel : public LevelOps<FeedbackLevel> {
 public:
  static constexpr fault::ImplKind kImpl = fault::ImplKind::Feedback;
  /// The datapath walks the whole fabric stage by stage.
  static constexpr bool kBlockMajorEvents = false;
  static constexpr SpanNames kSpans{
      "fb.scatter.config", "fb.scatter.datapath", "fb.eps_divide",
      "fb.quasisort.config", "fb.quasisort.datapath"};

  FeedbackLevel(Rbn& fabric, int level, pkern::SettingsLedger& ledger)
      : LevelOps(level, &ledger),
        fabric_(&fabric),
        stages_(fabric.stages() - level + 1) {}

  int stages() const { return stages_; }
  int fabric_stages() const { return fabric_->stages(); }
  std::size_t fabric_count() const { return 1; }
  Rbn& fabric(PassKind, std::size_t) const { return *fabric_; }
  void begin_pass(PassKind) const { fabric_->reset(); }
  /// One configuration sweep (scatter) or two (ε-divide + quasisort) over
  /// the level's BSN depth, plus a traversal of all m physical stages.
  void charge_pass(RoutingStats& stats, PassKind pass) const {
    ++stats.fabric_passes;
    stats.gate_delay +=
        (pass == PassKind::Scatter ? 1 : 2) * config_sweep_delay(stages_) +
        datapath_delay(fabric_->stages());
  }

 private:
  Rbn* fabric_;
  int stages_;
};

class UnrolledSchedule {
 public:
  using Level = UnrolledLevel;
  static constexpr const char* kRouteSpan = "brsmn.route";

  UnrolledSchedule(std::vector<std::vector<Bsn>>& levels, std::size_t n, int m,
                   pkern::SettingsLedger& ledger)
      : levels_(&levels), n_(n), m_(m), ledger_(&ledger) {}

  std::size_t size() const { return n_; }
  int levels() const { return m_; }
  Level level(int k) const {
    return {(*levels_)[static_cast<std::size_t>(k - 1)], k, ledger_};
  }
  void charge_final(RoutingStats&) const {}

  /// Bring the BSN grids up to date: every BSN keeps its own grids, so
  /// each pass the packed engine wrote since the last call is derived.
  void derive_grids() const {
    for (int k = 1; k <= m_ - 1; ++k) {
      for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
        if (ledger_->take(k, pass)) level(k).derive(pass);
      }
    }
  }

  /// Whether (level, kind)'s grid holds its installed settings at the
  /// detection point: every BSN keeps its grids for the whole route, so
  /// every pass settled by then.
  bool holds_grid(int level, PassKind kind,
                  const fault::DetectPoint& at) const {
    if (level != at.level) return level < at.level;
    if (at.pass.has_value() && kind != *at.pass) return kind < *at.pass;
    return at.fabric_settled;
  }

 private:
  std::vector<std::vector<Bsn>>* levels_;
  std::size_t n_;
  int m_;
  pkern::SettingsLedger* ledger_;
};

class FeedbackSchedule {
 public:
  using Level = FeedbackLevel;
  static constexpr const char* kRouteSpan = "feedback.route";

  FeedbackSchedule(Rbn& fabric, pkern::SettingsLedger& ledger)
      : fabric_(&fabric), ledger_(&ledger) {}

  std::size_t size() const { return fabric_->size(); }
  int levels() const { return fabric_->stages(); }
  Level level(int k) const { return {*fabric_, k, *ledger_}; }
  /// The final 2x2 level is one more pass over the fabric's stage 1.
  void charge_final(RoutingStats& stats) const { ++stats.fabric_passes; }

  /// Bring the one fabric up to date: it shows only the pass written
  /// last, so that pass alone is derived, once after each write.
  void derive_grids() const {
    const int k = ledger_->resident_level();
    const PassKind pass = ledger_->resident_pass();
    if (ledger_->take(k, pass)) level(k).derive(pass);
  }

  /// Only the pass resident in the one fabric at the detection point
  /// holds its grid; earlier passes were overwritten. The final level
  /// never touches the fabric, so a delivery-time detection still sees
  /// the last quasisort grid. (An unsettled resident pass diffs clean by
  /// construction: intent and settings are written in lockstep over a
  /// cleared pass, before injection.)
  bool holds_grid(int level, PassKind kind,
                  const fault::DetectPoint& at) const {
    if (at.pass == PassKind::Final) {
      return level == at.level - 1 && kind == PassKind::Quasisort;
    }
    return level == at.level &&
           kind == (at.pass == PassKind::Scatter ? PassKind::Scatter
                                                 : PassKind::Quasisort);
  }

 private:
  Rbn* fabric_;
  pkern::SettingsLedger* ledger_;
};

/// The per-route context every driver — scalar route, packed compile,
/// patch and replay — resolves once from its options: the obs probe and
/// heatmap, and the fault seam's route ordinal and self-check switch.
struct RouteRun {
  obs::RouteProbe probe;
  obs::FabricHeatmap* heatmap = nullptr;
  const fault::FaultInjector* faults = nullptr;
  fault::FaultActivity* activity = nullptr;
  std::uint64_t route_ord = 0;
  bool checking = false;

  /// Claims the injector's next route ordinal and clears the activity
  /// trail; `n` is the network width the fault plan must match.
  RouteRun(const RouteOptions& options, std::size_t n);

  fault::PassSeam seam(int level, fault::ImplKind impl,
                       RouteEngine engine) const {
    return {faults, activity, route_ord, level, impl, engine};
  }
};

/// The scalar engine's route driver (core/brsmn.cpp), instantiated for
/// both schedules.
template <typename Schedule>
RouteResult scalar_route(const Schedule& sched,
                         const MulticastAssignment& assignment,
                         const RouteOptions& options);

/// The scalar engine's level body: one switch level — scatter pass, then
/// quasisort pass, each configured, faulted and propagated over all of
/// the level's BSN blocks — on `lines` (the level's width). Checks the
/// BSN contracts on every block: Eq. (2) at entry, Eq. (3) at the scatter
/// root, Eq. (4) after scatter, the half-split after quasisort. `scattered`
/// (optional) receives the line state after the scatter pass. Stats
/// include the level's charge; the between-level advance is the caller's.
template <typename Level>
void route_level(const Level& lv, std::vector<LineValue>& lines,
                 std::uint64_t& next_copy_id, RoutingStats& stats,
                 const RouteRun& run, RouteExplanation* explanation,
                 std::vector<LineValue>* scattered = nullptr);

}  // namespace brsmn::sched

namespace brsmn {

inline sched::UnrolledSchedule Brsmn::schedule() const {
  return {levels_, n_, m_, *ledger_};
}

inline sched::FeedbackSchedule FeedbackBrsmn::schedule() const {
  return {fabric_, *ledger_};
}

}  // namespace brsmn
