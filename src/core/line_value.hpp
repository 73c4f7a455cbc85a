// Values carried on network lines: a routing tag plus, for non-empty
// lines, the packet (message) with its remaining routing-tag stream.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/tag.hpp"

namespace brsmn {

/// A (copy of a) multicast message travelling through the network.
///
/// `stream` is the remaining routing-tag sequence (Section 7.1): stream[0]
/// is the tag a_0 consumed by the BSN level the packet is currently in;
/// when the packet leaves a BSN the stream is popped and split into the
/// odd/even interleaving for the sub-network it enters.
struct Packet {
  std::size_t source = 0;        ///< originating network input
  std::uint64_t copy_id = 0;     ///< unique per copy, for tracing
  std::uint64_t parent_id = 0;   ///< copy this one was duplicated from
  std::vector<Tag> stream;       ///< remaining routing tags (a_0 first)

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// One line's worth of state. Empty lines (ε / ε0 / ε1) carry no packet.
struct LineValue {
  Tag tag = Tag::Eps;
  std::optional<Packet> packet;

  bool empty() const { return is_empty(tag); }

  friend bool operator==(const LineValue&, const LineValue&) = default;
};

/// The `source` of a line that carries no copy, in the packed compile's
/// per-line copy arrays (pkern::CopyLines), which hold sources rather
/// than whole Packets.
inline constexpr std::uint32_t kNoSource = ~std::uint32_t{0};

/// An empty (ε) line.
inline LineValue eps_line() { return LineValue{}; }

/// A non-empty line with the given tag and packet.
inline LineValue occupied_line(Tag t, Packet p) {
  return LineValue{t, std::move(p)};
}

}  // namespace brsmn
