// Fabric utilization heatmaps: per-(level, pass, stage) switch-activity
// and line-occupancy accumulation planes.
//
// The ROADMAP's dynamic-partition-merging and wormhole directions both
// gate on *where* in the fabric traffic concentrates, not just how long a
// route takes. A FabricHeatmap accumulates, per routed assignment and per
// switch coordinate of the explain grid (core/explain.hpp — level k,
// pass in {Scatter, Quasisort, Final}, stage j, switch s):
//   active[s]   += 1 when either input line of the switch is occupied
//   occupied[s] += the number of occupied input lines (0..2)
// sampled at *stage entry*, so both engines over both fabric schedules
// (scalar/packed x unrolled/feedback) observe the exact same line state
// and produce bit-identical heatmaps (tests/test_packed_differential.cpp).
//
// Cost model: the packed drivers feed the heatmap straight from their
// existing tag planes — an occupied line is any line outside the ε family
// (tag bits t0 & t1 == 0, core/tag.hpp), so one record is ~3 word ops per
// 64 lines plus a vertical-counter add. The counters are bit-sliced
// (8 carry-propagate bit-planes per counter, overflow spilled into wide
// per-line words), so the steady-state cost of a record is a handful of
// XOR/AND per word and the hot path allocates nothing. The scalar engine
// pays one occupancy-scan per stage into a preallocated scratch plane.
//
// Concurrency: a FabricHeatmap is single-owner — exactly one routing
// thread records into an instance (the planes are plain words, not
// atomics, to keep the datapath cheap). Concurrent routers give each
// worker its own map and combine them with merge(); snapshot()/export are
// safe only after recording has quiesced. This is the same ownership
// discipline the replay workspace uses, and what keeps the planes
// TSan-clean.
//
// Off by default: routes record only when RouteOptions::heatmap is set,
// and builds with BRSMN_OBS_DISABLED compile the hooks out entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/explain.hpp"
#include "core/line_value.hpp"

namespace brsmn::obs {

/// One exported switch coordinate with its accumulated counts.
struct HeatmapCell {
  int level = 0;          ///< 1..m-1 for BSN rows, m for the final level
  PassKind pass = PassKind::Scatter;
  int stage = 0;          ///< 1-based within the pass
  std::size_t sw = 0;     ///< stage switch index (block-major, explain order)
  std::uint64_t active = 0;    ///< routes with >= 1 occupied input here
  std::uint64_t occupied = 0;  ///< total occupied input lines (0..2 / route)
};

/// Flushed copy of a heatmap, safe to read and serialize.
struct HeatmapSnapshot {
  std::size_t n = 0;
  int m = 0;               ///< log2(n)
  std::uint64_t routes = 0;  ///< full-plane records of the level-1 scatter row
  std::vector<HeatmapCell> cells;  ///< row-major: (level, pass, stage, sw)
};

class FabricHeatmap {
 public:
  /// A heatmap for an n x n BRSMN (n a power of two >= 4): one row per
  /// (level 1..m-1) x (scatter, quasisort) x (stage 1..m-k+1) plus the
  /// final 2x2 level — m(m+1) - 1 rows of n/2 switch slots each. All
  /// planes are allocated here; recording never allocates.
  explicit FabricHeatmap(std::size_t n);

  std::size_t size() const noexcept { return n_; }
  int levels() const noexcept { return m_; }

  /// Record one stage entry from packed tag planes (t0/t1 =
  /// Table 1 bit-planes 0 and 1): a line is occupied iff it is outside
  /// the ε family, i.e. ~(t0 & t1). Spans must cover words_for(n) words;
  /// bits above n are ignored. `pass == Final` ignores `level`.
  void record_stage_tags(int level, PassKind pass, int stage,
                         std::span<const std::uint64_t> t0,
                         std::span<const std::uint64_t> t1);

  /// Record one stage entry from scalar line state. `lines` may be a
  /// block slice starting at network line `line_offset` (the scalar
  /// engine propagates each of the unrolled schedule's BSN fabrics
  /// separately); partial records
  /// from all blocks of a stage sum to the same counts as one full-plane
  /// record. `line_offset` must be a multiple of lines.size().
  void record_lines(int level, PassKind pass, int stage,
                    const std::vector<LineValue>& lines,
                    std::size_t line_offset = 0);

  /// Record the final 2x2-switch level (stage 1, pairs (2j, 2j+1)).
  void record_final_lines(const std::vector<LineValue>& lines);
  void record_final_tags(std::span<const std::uint64_t> t0,
                         std::span<const std::uint64_t> t1);

  /// Fold another map's counts into this one (same n). The other map may
  /// be recorded by a different thread as long as it has quiesced.
  void merge(const FabricHeatmap& other);

  /// Zero every counter (capacity retained).
  void reset();

  /// Number of full-plane records of the level-1 scatter stage-1 row —
  /// i.e. routed assignments observed (each route records that row once).
  std::uint64_t routes() const;

  HeatmapSnapshot snapshot() const;

  /// JSON: {"type":"fabric_heatmap","n":..,"m":..,"routes":..,
  ///        "cells":[{"level":..,"pass":"scatter","stage":..,"sw":..,
  ///                  "active":..,"occupied":..}, ...]} — cells with zero
  /// counts are elided. Stable row-major order.
  std::string to_json() const;

  /// CSV: header `level,pass,stage,sw,active,occupied`, one line per
  /// switch slot (zero cells included, so grids are rectangular).
  std::string to_csv() const;

 private:
  std::size_t row_index(int level, PassKind pass, int stage) const;
  void accumulate(std::size_t row, int stage, std::size_t word_lo,
                  std::size_t word_hi, const std::uint64_t* occ);
  void add_word(std::size_t row, int counter, std::size_t w,
                std::uint64_t mask);
  std::uint64_t cell_value(std::size_t row, int counter,
                           std::size_t line) const;

  static constexpr std::size_t kBitPlanes = 8;  ///< sliced counter depth

  std::size_t n_ = 0;
  int m_ = 0;
  std::size_t words_ = 0;   ///< words per plane
  std::size_t rows_ = 0;    ///< m(m+1) - 1
  std::vector<std::size_t> level_row_base_;  ///< first row of level k
  std::uint64_t tail_mask_ = ~std::uint64_t{0};  ///< valid bits, last word
  /// rows x 2 counters x kBitPlanes planes x words_ words. Counter 0 is
  /// `active`, counter 1 is `occupied`; bits sit at upper-line positions.
  std::vector<std::uint64_t> planes_;
  /// Overflow accumulators: rows x 2 counters x (words_ * 64) lines.
  std::vector<std::uint64_t> wide_;
  /// Full-plane records per row (partial block records count via the
  /// offset-0 block only, so this is routes-observed for every row).
  std::vector<std::uint64_t> samples_;
  /// Occupancy scratch for the scalar record path.
  std::vector<std::uint64_t> scratch_;
};

/// Serializers over a flushed snapshot (the member functions forward
/// here); the JSON line is what TelemetrySampler embeds in its JSONL.
std::string to_json(const HeatmapSnapshot& s);
std::string to_csv(const HeatmapSnapshot& s);

}  // namespace brsmn::obs
