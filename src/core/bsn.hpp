// The binary splitting network (paper Section 3, Figs. 4/10).
//
// BSN(n) = an n x n RBN configured as a scatter network, cascaded with an
// n x n RBN configured as a quasisorting network. Given input tags
// {0, 1, α, ε} obeying the occupancy constraints (Eqs. 1-3), the BSN
// eliminates every α (splitting its packet into a 0-copy and a 1-copy)
// and delivers all 0-tagged packets on the upper half of its outputs and
// all 1-tagged packets on the lower half (Eq. 4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/line_value.hpp"
#include "core/rbn.hpp"
#include "core/stats.hpp"

namespace brsmn {

/// Tag census of a line vector (inputs or outputs of a BSN).
struct TagCounts {
  std::size_t zeros = 0;
  std::size_t ones = 0;
  std::size_t alphas = 0;
  std::size_t epses = 0;  ///< ε, ε0 and ε1 combined
};

TagCounts count_tags(std::span<const LineValue> lines);

class Bsn {
 public:
  /// An n x n binary splitting network, n a power of two >= 4.
  explicit Bsn(std::size_t n);

  std::size_t size() const noexcept { return scatter_.size(); }

  struct Result {
    std::vector<LineValue> scattered;  ///< after the scatter RBN (no α left)
    std::vector<LineValue> outputs;    ///< after the quasisorting RBN
  };

  /// Route one tag vector through the BSN: the one-block case of the
  /// unrolled network's level body (core/fabric_schedule.hpp), which
  /// checks the BSN contracts as it goes. `next_copy_id` is the packet
  /// copy-id allocator, advanced for every broadcast duplication; `stats`
  /// (optional) also receives the BSN's routing delay.
  ///
  /// Preconditions: inputs.size() == n; tags in {0,1,α,ε}; occupied lines
  /// carry a packet whose stream front equals the line tag; Eqs. (1)-(2):
  /// n0 + nα <= n/2 and n1 + nα <= n/2.
  Result route(std::vector<LineValue> inputs, std::uint64_t& next_copy_id,
               RoutingStats* stats = nullptr);

  /// The two fabrics, exposed for inspection after route() (their switch
  /// settings are those of the last routed assignment).
  const Rbn& scatter_fabric() const noexcept { return scatter_; }
  const Rbn& quasisort_fabric() const noexcept { return quasisort_; }

  /// Mutable fabric access for the fabric schedule, through which both
  /// engines install their settings here so inspection via the const
  /// accessors is engine-independent.
  Rbn& mutable_scatter_fabric() noexcept { return scatter_; }
  Rbn& mutable_quasisort_fabric() noexcept { return quasisort_; }

 private:
  Rbn scatter_;
  Rbn quasisort_;
};

}  // namespace brsmn
