#include "fault/self_check.hpp"

#include <algorithm>
#include <sstream>

namespace brsmn::fault {

namespace {

[[noreturn]] void fail(std::size_t n, std::uint64_t route, int level,
                       std::optional<PassKind> pass, const std::string& what) {
  FaultReport report;
  report.n = n;
  report.route = route;
  report.at = DetectPoint{level, pass, /*fabric_settled=*/true};
  report.check = what;
  throw FaultDetected(std::move(report));
}

}  // namespace

void self_check_level(const std::vector<LineValue>& lines, int level,
                      std::uint64_t route) {
  const std::size_t n = lines.size();
  // Scratch reused across calls: the check runs once per level on every
  // route, so per-call allocation would dominate its cost at small n.
  thread_local std::vector<std::uint64_t> ids;
  ids.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const LineValue& lv = lines[i];
    if (lv.empty()) {
      if (lv.packet.has_value()) {
        std::ostringstream os;
        os << "self-check: empty line " << i << " carries a packet";
        fail(n, route, level, std::nullopt, os.str());
      }
      continue;
    }
    if (!lv.packet.has_value()) {
      std::ostringstream os;
      os << "self-check: occupied line " << i << " lost its packet";
      fail(n, route, level, std::nullopt, os.str());
    }
    if (lv.packet->stream.empty() || lv.packet->stream.front() != lv.tag) {
      std::ostringstream os;
      os << "self-check: line " << i
         << " tag disagrees with its packet's routing stream";
      fail(n, route, level, std::nullopt, os.str());
    }
    ids.push_back(lv.packet->copy_id);
  }
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    std::ostringstream os;
    os << "self-check: duplicate live copy id " << *dup;
    fail(n, route, level, std::nullopt, os.str());
  }
}

void self_check_copies(std::span<const std::uint8_t> exit_tags,
                       std::span<const std::uint8_t> head_tags,
                       std::span<const std::uint32_t> source,
                       std::span<const std::uint64_t> copy_id,
                       std::uint64_t id_limit,
                       std::vector<std::uint64_t>& seen, int level,
                       std::uint64_t route) {
  const std::size_t n = source.size();
  constexpr std::uint8_t kEpsBits = 0b110;  // b0 b1 set: the ε family
  seen.assign((id_limit + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool occupied = (exit_tags[i] & kEpsBits) != kEpsBits;
    const bool has_copy = source[i] != kNoSource;
    if (occupied != has_copy) {
      std::ostringstream os;
      os << "self-check: " << (occupied ? "occupied" : "empty") << " line "
         << i << (occupied ? " lost its copy" : " carries a copy");
      fail(n, route, level, std::nullopt, os.str());
    }
    if (!has_copy) continue;
    if ((exit_tags[i] & 0b100u) != 0) {
      std::ostringstream os;
      os << "self-check: line " << i << " left its BSN tagged neither 0 nor 1";
      fail(n, route, level, std::nullopt, os.str());
    }
    if ((head_tags[i] & kEpsBits) == kEpsBits) {
      std::ostringstream os;
      os << "self-check: line " << i
         << " tag disagrees with its copy's routing state (input "
         << source[i] << " has no destination in the sub-network)";
      fail(n, route, level, std::nullopt, os.str());
    }
    const std::uint64_t id = copy_id[i];
    if (id == 0 || id >= id_limit) {
      std::ostringstream os;
      os << "self-check: line " << i << " carries unallocated copy id " << id;
      fail(n, route, level, std::nullopt, os.str());
    }
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((seen[id / 64] & bit) != 0) {
      std::ostringstream os;
      os << "self-check: duplicate live copy id " << id;
      fail(n, route, level, std::nullopt, os.str());
    }
    seen[id / 64] |= bit;
  }
}

void self_check_delivery(
    const std::vector<std::optional<std::size_t>>& delivered,
    const std::vector<std::optional<std::size_t>>& expected, int level,
    std::uint64_t route) {
  const std::size_t n = expected.size();
  for (std::size_t out = 0; out < n; ++out) {
    if (delivered[out] == expected[out]) continue;
    std::ostringstream os;
    os << "self-check: output " << out << " ";
    if (!delivered[out].has_value()) {
      os << "received nothing (expected input " << *expected[out] << ")";
    } else if (!expected[out].has_value()) {
      os << "received input " << *delivered[out] << " (expected nothing)";
    } else {
      os << "received input " << *delivered[out] << " (expected input "
         << *expected[out] << ")";
    }
    fail(n, route, level, PassKind::Final, os.str());
  }
}

}  // namespace brsmn::fault
