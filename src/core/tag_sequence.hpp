// Routing-tag sequences (paper Section 7.1, Eqs. 10-12).
//
// The header of a multicast message carries all n-1 tags of its tag tree
// in the order SEQ = conc(order(SEQ_1), ..., order(SEQ_m)), where SEQ_i
// is level i left-to-right and order() interleaves recursively — i.e.
// each level is emitted in bit-reversed position order. This ordering has
// the streaming property the paper exploits: after consuming the head tag
// a_0, the tags at even remaining positions are exactly the left
// subtree's SEQ and the odd ones the right subtree's, so a constant
// number of buffers per input suffices.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/tag.hpp"
#include "core/tag_tree.hpp"

namespace brsmn {

/// The bit-reversal permutation table for a power-of-two length:
/// table[p] = bit_reverse(p) over log2(len) bits. Built lazily once per
/// length and cached for the process lifetime (thread-safe); the
/// returned span stays valid forever. Encoding a routing-tag sequence
/// permutes every tree level this way for every source line of every
/// cold route, so the table is shared instead of re-derived.
std::span<const std::size_t> bit_reversal_table(std::size_t len);

/// The order() permutation (Eq. 11): out[p] = in[bit_reverse(p)].
/// in.size() must be a power of two (1 is allowed).
std::vector<Tag> order_level(std::span<const Tag> level);

/// Encode a tag tree into its routing-tag sequence of n-1 tags (Eq. 12).
std::vector<Tag> encode_sequence(const TagTree& tree);

/// Convenience: destination set -> sequence.
std::vector<Tag> encode_sequence(std::span<const std::size_t> dests,
                                 std::size_t n);

/// encode_sequence without materializing a TagTree: writes the n-1 tags
/// of the destination set's sequence directly into `out` (resized to
/// n-1), visiting only the occupied subtree — O(|dests| log n) work past
/// the ε-fill instead of the tree's O(n) node sweep. `dests` must be
/// sorted ascending and unique (MulticastAssignment::destinations
/// guarantees this). Bit-identical to encode_sequence(TagTree(dests, n));
/// this is the scalar engine's initial_lines path, which encodes one
/// sequence per source line of every route, and the packed engine's
/// capture_levels materializer.
void encode_sequence_into(std::span<const std::size_t> dests, std::size_t n,
                          std::vector<Tag>& out);

/// Split the remainder of a sequence (everything after the consumed a_0)
/// for the branch a packet takes: Tag::Zero selects the left-subtree
/// subsequence (even remaining positions), Tag::One the right (odd).
std::vector<Tag> split_stream(std::span<const Tag> rest, Tag branch);

/// Decode a routing-tag sequence back into the destination set it
/// addresses (network size = seq.size() + 1). Validates the structural
/// invariants (an α node has two non-ε children, a 0/1 node exactly one,
/// an ε node none) and throws ContractViolation on malformed input.
std::vector<std::size_t> decode_sequence(std::span<const Tag> seq);

/// Render a sequence with tag_char(), e.g. "00eaeee" (Fig. 9c).
std::string sequence_string(std::span<const Tag> seq);

/// Parse sequence_string()'s format.
std::vector<Tag> parse_sequence(const std::string& s);

}  // namespace brsmn
