// Per-level state of the bit-packed routing kernel, shared between the
// packed route drivers (core/packed_kernel.cpp) and the compiled-plan
// replay path (core/route_plan.cpp).
//
// A LevelKernel holds one level's line state as bit-planes (identity /
// broadcast codes plus the 3-bit Table 1 tag encoding) together with the
// precomputed broadcast events, and reads each pass's stage masks from
// the network's SettingsLedger. The route drivers build this state from
// scratch each route; the replay path restores it from a RoutePlan's
// checkpoints and only re-runs the datapath, so both sides must agree on
// the exact layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/explain.hpp"
#include "core/line_value.hpp"
#include "core/packed_kernel.hpp"

namespace brsmn::obs {
class FabricHeatmap;
}  // namespace brsmn::obs

namespace brsmn::pkern {

/// One scatter broadcast switch: the upper line of the pair and which
/// input carries the alpha (UpperBcast -> upper input).
struct BcastEvent {
  std::size_t upper = 0;
  bool alpha_upper = false;
  std::size_t ord = 0;  ///< copy-id allocation order (scalar visit order)
};

/// Per-level packed state shared by the two engines.
struct LevelKernel {
  std::size_t n = 0;
  int stages = 0;            ///< S = log2 of this level's BSN size
  std::size_t wcode = 0;     ///< code planes (m + 1 bits: codes < 2n)
  packed::PackedLines state;  ///< wcode code planes + 3 tag planes
  packed::PackedLines scratch;
  /// masks[j-1], j = 1..S: the current pass's slot in the network's
  /// SettingsLedger, bound by the driver before the pass configures or
  /// replays it.
  std::span<packed::StageMasks> masks;
  std::vector<std::vector<BcastEvent>> events;   ///< per stage, visit order
  std::vector<std::size_t> parent_code;          ///< by event ord
  std::uint64_t copy_id_base = 0;
  std::size_t num_events = 0;
  /// Optional fabric heatmap: when set, the datapaths record per-switch
  /// activity from the tag planes at every stage entry for heat_level.
  /// Cleared by default so replay workspaces stay observation-free unless
  /// the caller opts in per route.
  obs::FabricHeatmap* heat = nullptr;
  int heat_level = 0;
  /// The SIMD backend this kernel's word loops dispatch through —
  /// auto-selected by default, overridden per route from
  /// RouteOptions::simd_backend. Every backend is bit-identical, so this
  /// only changes speed, never state.
  const simd::SimdOps* ops = &simd::ops();

  /// Byte-per-line staging buffer for the SoA plane transposes: the
  /// compile's gather decodes the tag planes (or a triple of code planes)
  /// into it with one tag_unpack call. Sized words_for(n)*64; the tail
  /// bytes past n are zero and never written (the planes' bits past n
  /// are zero, so unpack rewrites them with zeros).
  std::vector<std::uint8_t> tag_bytes;

  LevelKernel(std::size_t n_, int m, int stages_)
      : n(n_),
        stages(stages_),
        wcode(static_cast<std::size_t>(m) + 1),
        state(n_, wcode + 3),
        scratch(n_, wcode + 3),
        events(static_cast<std::size_t>(stages_)),
        tag_bytes(packed::words_for(n_) * packed::kWordBits, 0) {}

  std::span<std::uint64_t> tag_plane(int bit) {
    return state.plane(wcode + static_cast<std::size_t>(bit));
  }
  std::span<const std::uint64_t> tag_plane(int bit) const {
    return state.plane(wcode + static_cast<std::size_t>(bit));
  }

  /// Reconfigure a widest-level workspace kernel (stages = m at
  /// construction) for one level of S stages: the datapaths and
  /// configuration sweeps run stages 1..S, the event rows past S stay
  /// cleared, and plan captures slice to the first S rows — so a reused
  /// kernel is indistinguishable from one constructed per level.
  void begin_level(int S) {
    stages = S;
    for (auto& ev : events) ev.clear();
  }
};

/// The packed engine's one store of switch settings: the (su, sl) stage
/// masks of every (level, pass) of an n-line network, level k's passes
/// S = m - k + 1 stages deep, all allocated with the network. Compile,
/// patch and replay write a pass's masks here, the fault seam corrupts
/// them here and the datapath reads them here; the Rbn grids a network
/// exposes are derived from them when read (core/fabric_schedule.hpp).
class SettingsLedger {
 public:
  SettingsLedger(std::size_t n, int m) {
    for (int k = 1; k < m; ++k) {
      for (int pass = 0; pass < 2; ++pass) {
        auto& slot = slots_.emplace_back(static_cast<std::size_t>(m - k + 1));
        for (packed::StageMasks& mk : slot) mk.resize(packed::words_for(n));
      }
    }
    pending_.assign(slots_.size(), 0);
  }

  /// (level, pass)'s masks, claimed for writing: the slot becomes the
  /// resident pass, pending until the grids next take it.
  std::span<packed::StageMasks> write(int level, PassKind pass) {
    resident_ = slot(level, pass);
    pending_.at(resident_) = 1;
    return slots_[resident_];
  }
  std::span<const packed::StageMasks> masks(int level, PassKind pass) const {
    return slots_.at(slot(level, pass));
  }

  /// Whether (level, pass) was written since last taken; clears the flag.
  /// (A network of n = 2 has no slots, so nothing is ever pending.)
  bool take(int level, PassKind pass) {
    const std::size_t s = slot(level, pass);
    return s < pending_.size() && std::exchange(pending_[s], 0) != 0;
  }

  /// The pass written last.
  int resident_level() const { return static_cast<int>(resident_ / 2) + 1; }
  PassKind resident_pass() const {
    return resident_ % 2 == 0 ? PassKind::Scatter : PassKind::Quasisort;
  }

 private:
  static std::size_t slot(int level, PassKind pass) {
    return 2 * static_cast<std::size_t>(level - 1) +
           (pass == PassKind::Quasisort ? 1 : 0);
  }

  std::vector<std::vector<packed::StageMasks>> slots_;
  std::vector<std::uint8_t> pending_;
  std::size_t resident_ = 0;
};

/// Copy a stored pass's masks into a ledger slot of the same depth
/// (equal padded word counts, so the copies reuse the slot's storage).
void copy_masks(std::span<packed::StageMasks> dst,
                const std::vector<packed::StageMasks>& src);

/// Clear every plane and write the identity code planes (plane p of line
/// i holds bit p of i); the three tag planes stay zero.
void load_identity_codes(LevelKernel& kx);

/// load_identity_codes plus one tag_pack transpose of `enc`, the level's
/// Table 1 tag encodings (one byte per line, words_for(n) * 64 bytes with
/// a zero tail).
void load_lines(LevelKernel& kx, std::span<const std::uint8_t> enc);

/// Propagate the planes through the configured scatter stages, latching
/// broadcast parent codes and emitting event codes (see
/// core/packed_kernel.cpp for the contract details).
void run_scatter_datapath(LevelKernel& kx);

/// Propagate the planes through the configured unicast (quasisort)
/// stages.
void run_unicast_datapath(LevelKernel& kx);

/// Reusable replay scratch owned by the network objects (one allocation
/// on first route_replay, reused forever after): a kernel sized for the
/// widest level (stages = m >= any level's S, events sized m) plus
/// the final-level tag planes used for dead-line screening.
struct ReplayWorkspace {
  LevelKernel kx;
  packed::Words final_t0;
  packed::Words final_t1;
  packed::Words final_t2;

  ReplayWorkspace(std::size_t n, int m)
      : kx(n, m, m),
        final_t0(packed::words_for(n), 0),
        final_t1(packed::words_for(n), 0),
        final_t2(packed::words_for(n), 0) {}
};

/// Every source's tag tree (paper Section 7.1, Figs. 9/11) for one
/// route, 2 bits per heap node holding the Tag value itself (0, 1, α, ε
/// are 0..3), one row of n - 1 nodes per network input. This is what
/// lets the packed compile drop the per-copy header: once a copy has
/// consumed its head tag, its remaining stream is exactly its source's
/// subtree below the sub-network it entered, so the copy's next tag is
/// one node lookup (CopyLines::node names the subtree). 2n bits per
/// source (256 KiB at n = 1024), allocated once per workspace and left
/// uninitialized: build_row writes a source's whole row before any lookup
/// reads it, and rows of idle sources are never written or read, so only
/// busy sources' rows are ever touched.
class TagTable {
 public:
  explicit TagTable(std::size_t n)
      : n_(n),
        row_words_((n + 31) / 32),
        words_(std::make_unique_for_overwrite<std::uint64_t[]>(
            n * row_words_)) {}

  /// Rebuild `source`'s row from its sorted, unique destination list in
  /// O(|dests| log n) past an n/32-word ε fill: each destination marks
  /// its ancestor chain up to the first node an earlier one reached.
  void build_row(std::size_t source, std::span<const std::size_t> dests);

  /// Heap node k (1 <= k < n) of `source`'s tree.
  Tag node(std::size_t source, std::size_t k) const {
    const std::uint64_t w = words_[source * row_words_ + (k >> 5)];
    return static_cast<Tag>((w >> ((k & 31u) * 2)) & 3u);
  }

 private:
  std::size_t n_;
  std::size_t row_words_;
  std::unique_ptr<std::uint64_t[]> words_;
};

/// The per-line copy state the packed compile carries between levels in
/// place of Packets and their tag streams: the input each line's copy
/// came from (kNoSource on empty lines), the tag-tree node its exit tags
/// have steered it to, and its trace ids. A copy entering level k sits
/// at a level-k node 2^(k-1) + b; its stream would be that node's
/// subtree, its head tag the node's tag. Leaving the level with exit tag
/// t it moves to child 2 * node + t — the branch advance_streams would
/// split off — which is the sub-network b' = i / (n >> k) of its new line
/// i whenever the level's quasisort honoured the split. The gather moves
/// all four arrays through a level's codes exactly as it moves copies.
struct CopyLines {
  std::vector<std::uint32_t> source;
  std::vector<std::uint32_t> node;
  std::vector<std::uint64_t> copy_id;
  std::vector<std::uint64_t> parent_id;

  explicit CopyLines(std::size_t n)
      : source(n, kNoSource), node(n, 0), copy_id(n, 0), parent_id(n, 0) {}
};

/// Reusable compile scratch owned by the network objects, mirroring
/// ReplayWorkspace: one widest-level kernel (begin_level reconfigures it
/// per level) plus every per-level buffer the configuration sweeps need —
/// the SoA tag censuses, the ε0 selection plane, the scatter type tree
/// (flat, level j at offset 2n - n/2^(j-1)), the backward-sweep run
/// starts — and the stream-free line state:
/// the route's tag table, the double-buffered copy arrays, and the next
/// level's staged tag encodings. First route allocates once; warm
/// compiles and patches reuse everything.
struct CompileWorkspace {
  LevelKernel kx;
  packed::TagCensus census;   ///< scatter-entry census
  packed::TagCensus mid;      ///< post-scatter census
  packed::TagCensus divided;  ///< post-ε-division census
  packed::Words eps0_sel;
  std::vector<std::uint8_t> type;  ///< flat scatter type tree (<= 2n)
  std::vector<std::size_t> start;
  std::vector<std::size_t> next;
  std::vector<BcastEvent*> order;  ///< finalize_events' allocation order
  TagTable table;
  CopyLines copies;  ///< copy state entering the current level
  CopyLines moved;   ///< gather output, swapped into `copies`
  /// Table 1 encodings of the tags entering the next level (looked up
  /// from `table` by the gather), words_for(n) * 64 bytes, zero tail.
  std::vector<std::uint8_t> head;
  std::vector<std::uint32_t> codes;    ///< transposed code planes
  packed::Words zero_plane;            ///< pads the last code triple
  std::vector<std::uint64_t> seen_ids;  ///< self-check copy-id bitset
  std::vector<Tag> final_tags;         ///< decoded final-level heads

  CompileWorkspace(std::size_t n, int m)
      : kx(n, m, m),
        eps0_sel(packed::words_for(n), 0),
        table(n),
        copies(n),
        moved(n),
        head(packed::words_for(n) * packed::kWordBits, 0),
        codes(n, 0),
        zero_plane(packed::words_for(n), 0),
        final_tags(n, Tag::Eps) {
    type.reserve(2 * n);
    start.reserve(n / 2);
    next.reserve(n / 2);
  }
};

}  // namespace brsmn::pkern
