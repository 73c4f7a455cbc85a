// Online self-check predicates and the typed-detection guard.
//
// The routing engines already assert the paper's invariants (Eq. 2-4
// occupancy arithmetic, quasisort half-split, delivery-vs-assignment);
// those throw plain ContractViolation with no idea *where* in the route
// they fired. When RouteOptions::self_check (default on) or a fault
// injector is active, the drivers wrap each region in guard(), which
// rethrows any ContractViolation as a FaultDetected carrying the
// (level, pass, settled) detection point — and add the two checks below,
// which close the gaps the per-pass contracts leave between levels and
// at delivery.
//
// Cost: O(n log n) per route (one sort per level in the scalar check, one
// pass and a copy-id bitset per level in the packed one) against the
// O(n log^2 n) routing work — cheap enough to leave on by default; gated
// at <= 1.10x route p50 in CI.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/line_value.hpp"
#include "fault/fault_report.hpp"

namespace brsmn::fault {

/// Per-level line-state invariants, run after advance_streams in every
/// driver: occupied lines carry a packet whose stream front equals the
/// line tag, empty lines carry none, and no two live copies share a copy
/// id. Throws FaultDetected naming the level.
void self_check_level(const std::vector<LineValue>& lines, int level,
                      std::uint64_t route);

/// The plane form of self_check_level for the packed compile, which
/// carries per-line copy arrays instead of packets (pkern::CopyLines).
/// Per line: `exit_tags` the Table 1 encoding the line left the level
/// with, `head_tags` the encoding looked up for the next level from
/// (source, tag-tree node), `source` the copy's input (kNoSource when
/// none) and `copy_id` its id. The same four properties: occupied exactly
/// when a copy is carried; the head tag equals the copy's routing state,
/// i.e. its source has destinations below the node it entered; the exit
/// tag is 0 or 1; live copy ids are unique, checked with a bitset over
/// [1, id_limit) held in `seen`. Throws FaultDetected naming the level.
void self_check_copies(std::span<const std::uint8_t> exit_tags,
                       std::span<const std::uint8_t> head_tags,
                       std::span<const std::uint32_t> source,
                       std::span<const std::uint64_t> copy_id,
                       std::uint64_t id_limit,
                       std::vector<std::uint64_t>& seen, int level,
                       std::uint64_t route);

/// Typed delivery oracle: `delivered` must equal `expected`. Throws
/// FaultDetected naming the first mismatching output; the drivers' legacy
/// delivery ENSURES stays behind it as a belt-and-braces check.
void self_check_delivery(
    const std::vector<std::optional<std::size_t>>& delivered,
    const std::vector<std::optional<std::size_t>>& expected, int level,
    std::uint64_t route);

/// Run `fn`, rethrowing ContractViolation as FaultDetected tagged with
/// the detection point. An inner FaultDetected passes through untouched
/// (it already carries a more precise point). With checking == false the
/// body runs unwrapped — the fault-free hot path stays exception-scope
/// free.
template <typename Fn>
decltype(auto) guard(bool checking, std::size_t n, std::uint64_t route,
                     int level, std::optional<PassKind> pass,
                     bool fabric_settled, Fn&& fn) {
  if (!checking) return std::forward<Fn>(fn)();
  try {
    return std::forward<Fn>(fn)();
  } catch (FaultDetected&) {
    throw;
  } catch (const ContractViolation& e) {
    FaultReport report;
    report.n = n;
    report.route = route;
    report.at = DetectPoint{level, pass, fabric_settled};
    report.check = e.what();
    throw FaultDetected(std::move(report));
  }
}

}  // namespace brsmn::fault
