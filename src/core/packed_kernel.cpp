#include "core/packed_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "core/brsmn.hpp"
#include "core/fabric_schedule.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/merge_lemmas.hpp"
#include "core/quasisort.hpp"
#include "core/route_plan.hpp"
#include "core/scatter.hpp"
#include "core/tag_sequence.hpp"
#include "fault/fault_injector.hpp"
#include "fault/locate.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/perf_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/route_probe.hpp"
#include "obs/tracer.hpp"

namespace brsmn::packed {

bool plane_get(std::span<const std::uint64_t> plane, std::size_t i) {
  return (plane[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void plane_set(std::span<std::uint64_t> plane, std::size_t i, bool v) {
  const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
  if (v) {
    plane[i / kWordBits] |= bit;
  } else {
    plane[i / kWordBits] &= ~bit;
  }
}

namespace {

/// Mask of bits [lo, hi) within one word, hi <= 64.
constexpr std::uint64_t word_range_mask(std::size_t lo, std::size_t hi) {
  const std::uint64_t upto =
      hi >= kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  return upto & ~((std::uint64_t{1} << lo) - 1);
}

}  // namespace

void plane_fill(std::span<std::uint64_t> plane, std::size_t first,
                std::size_t last) {
  if (first >= last) return;
  const std::size_t fw = first / kWordBits;
  const std::size_t lw = (last - 1) / kWordBits;
  if (fw == lw) {
    plane[fw] |= word_range_mask(first % kWordBits, last - fw * kWordBits);
    return;
  }
  plane[fw] |= word_range_mask(first % kWordBits, kWordBits);
  for (std::size_t w = fw + 1; w < lw; ++w) plane[w] = ~std::uint64_t{0};
  plane[lw] |= word_range_mask(0, last - lw * kWordBits);
}

std::size_t plane_popcount(std::span<const std::uint64_t> plane,
                           std::size_t first, std::size_t last) {
  if (first >= last) return 0;
  const std::size_t fw = first / kWordBits;
  const std::size_t lw = (last - 1) / kWordBits;
  if (fw == lw) {
    return static_cast<std::size_t>(std::popcount(
        plane[fw] & word_range_mask(first % kWordBits, last - fw * kWordBits)));
  }
  std::size_t total = static_cast<std::size_t>(
      std::popcount(plane[fw] & word_range_mask(first % kWordBits, kWordBits)));
  for (std::size_t w = fw + 1; w < lw; ++w) {
    total += static_cast<std::size_t>(std::popcount(plane[w]));
  }
  total += static_cast<std::size_t>(
      std::popcount(plane[lw] & word_range_mask(0, last - lw * kWordBits)));
  return total;
}

PackedLines::PackedLines(std::size_t n, std::size_t width)
    : n_(n),
      width_(width),
      wpl_(words_for(n)),
      stride_(plane_stride_for(n)),
      words_(width * stride_, 0) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
}

std::uint64_t PackedLines::get(std::size_t line, std::size_t first_plane,
                               std::size_t count) const {
  BRSMN_EXPECTS(line < n_ && first_plane + count <= width_ && count <= 64);
  const std::size_t w = line / kWordBits;
  const std::size_t b = line % kWordBits;
  std::uint64_t value = 0;
  for (std::size_t p = 0; p < count; ++p) {
    value |= ((words_[(first_plane + p) * stride_ + w] >> b) & 1u) << p;
  }
  return value;
}

void PackedLines::set(std::size_t line, std::size_t first_plane,
                      std::size_t count, std::uint64_t value) {
  BRSMN_EXPECTS(line < n_ && first_plane + count <= width_ && count <= 64);
  const std::size_t w = line / kWordBits;
  const std::uint64_t bit = std::uint64_t{1} << (line % kWordBits);
  for (std::size_t p = 0; p < count; ++p) {
    std::uint64_t& word = words_[(first_plane + p) * stride_ + w];
    if ((value >> p) & 1u) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }
}

void PackedLines::clear() { std::fill(words_.begin(), words_.end(), 0); }

void apply_stage(PackedLines& state, PackedLines& scratch,
                 const StageMasks& masks, std::size_t pair_distance,
                 const simd::SimdOps& ops) {
  BRSMN_EXPECTS(scratch.size() == state.size() &&
                scratch.width() == state.width());
  const std::size_t stride = state.plane_stride();
  BRSMN_EXPECTS(masks.su.size() >= stride && masks.sl.size() >= stride);
  if (pair_distance < kWordBits) {
    // In-word variant: one sweep over the whole plane-major state, pads
    // included (mask pads are zero, so scratch pads come out zero).
    ops.stage_shift(state.words().data(), scratch.words().data(),
                    masks.su.data(), masks.sl.data(), state.width(), stride,
                    static_cast<unsigned>(pair_distance));
  } else {
    // Word-offset variant: per plane, only the logical words are written;
    // scratch pads keep the zeros the double-buffer invariant guarantees.
    ops.stage_offset(state.words().data(), scratch.words().data(),
                     masks.su.data(), masks.sl.data(), state.width(), stride,
                     state.words_per_plane(), pair_distance / kWordBits);
  }
  state.swap(scratch);
}

void apply_stage(PackedLines& state, PackedLines& scratch,
                 const StageMasks& masks, std::size_t pair_distance) {
  apply_stage(state, scratch, masks, pair_distance, simd::ops());
}

namespace {

/// Spread the low 32 bits of x to the even bit positions.
constexpr std::uint64_t morton_expand(std::uint64_t x) {
  x &= 0x00000000ffffffffull;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// Gather the even bit positions of x into the low 32 bits.
constexpr std::uint64_t morton_compress(std::uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
  x = (x | (x >> 16)) & 0x00000000ffffffffull;
  return x;
}

}  // namespace

void shuffle_planes(const PackedLines& in, PackedLines& out) {
  BRSMN_EXPECTS(out.size() == in.size() && out.width() == in.width());
  const std::size_t n = in.size();
  const std::size_t wpl = in.words_per_plane();
  const std::size_t half = n / 2;
  for (std::size_t p = 0; p < in.width(); ++p) {
    const auto src = in.plane(p);
    auto dst = out.plane(p);
    if (wpl == 1) {
      const std::uint64_t lo = src[0] & word_range_mask(0, half);
      const std::uint64_t hi = src[0] >> half;
      dst[0] = morton_expand(lo) | (morton_expand(hi) << 1);
      continue;
    }
    // n >= 128: the halves are whole word ranges.
    for (std::size_t k = 0; k < wpl / 2; ++k) {
      const std::uint64_t lo = src[k];
      const std::uint64_t hi = src[wpl / 2 + k];
      dst[2 * k] = morton_expand(lo) | (morton_expand(hi) << 1);
      dst[2 * k + 1] = morton_expand(lo >> 32) | (morton_expand(hi >> 32) << 1);
    }
  }
}

void unshuffle_planes(const PackedLines& in, PackedLines& out) {
  BRSMN_EXPECTS(out.size() == in.size() && out.width() == in.width());
  const std::size_t n = in.size();
  const std::size_t wpl = in.words_per_plane();
  const std::size_t half = n / 2;
  for (std::size_t p = 0; p < in.width(); ++p) {
    const auto src = in.plane(p);
    auto dst = out.plane(p);
    if (wpl == 1) {
      dst[0] = morton_compress(src[0]) | (morton_compress(src[0] >> 1) << half);
      continue;
    }
    for (std::size_t k = 0; k < wpl / 2; ++k) {
      const std::uint64_t even = src[2 * k];
      const std::uint64_t odd = src[2 * k + 1];
      dst[k] = morton_compress(even) | (morton_compress(odd) << 32);
      dst[wpl / 2 + k] =
          morton_compress(even >> 1) | (morton_compress(odd >> 1) << 32);
    }
  }
}

void TagCensus::build(std::span<const std::uint64_t> t0,
                      std::span<const std::uint64_t> t1,
                      std::span<const std::uint64_t> t2, std::size_t n,
                      const simd::SimdOps& ops) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
  const std::size_t wpl = words_for(n);
  BRSMN_EXPECTS(t0.size() == wpl && t1.size() == wpl && t2.size() == wpl);
  n_ = n;
  wpl_ = wpl;
  levels_ = log2_exact(n);
  // Resize-reuse: every entry below is fully overwritten each build.
  alpha_.resize(wpl);
  eps_.resize(wpl);
  ones_.resize(wpl);
  step_.resize(wpl);
  ops.census_split(t0.data(), t1.data(), t2.data(), alpha_.data(), eps_.data(),
                   ones_.data(), wpl);
  const std::uint64_t* planes[3] = {alpha_.data(), eps_.data(), ones_.data()};
  const std::size_t n1 = n >> 1;
  for (int c = 0; c < 3; ++c) {
    counts_[c].resize(n - 1);
    std::uint32_t* flat = counts_[c].data();
    // Level 1 (pair counts): one cascade step packs 32 two-bit pair
    // fields per word; spill them to uint32 so every coarser level is a
    // straight pairwise vector sum.
    std::uint64_t* step = step_.data();
    ops.count_cascade(planes[c], &step, 1, wpl);
    for (std::size_t w = 0; w < wpl; ++w) {
      const std::uint64_t fields = step_[w];
      const std::size_t base = 32 * w;
      const std::size_t lim = std::min<std::size_t>(32, n1 - base);
      for (std::size_t f = 0; f < lim; ++f) {
        flat[base + f] = static_cast<std::uint32_t>((fields >> (2 * f)) & 3u);
      }
    }
    // Levels 2..log2(n): each level's counts start exactly where the
    // finer level's end, so src and dst never overlap.
    for (int j = 2; j <= levels_; ++j) {
      ops.pair_sum_u32(flat + offset(j - 1), flat + offset(j), n >> j);
    }
  }
}

void select_prefix(std::span<const std::uint64_t> plane,
                   std::span<std::uint64_t> out, std::size_t first,
                   std::size_t last, std::size_t k) {
  if (k == 0 || first >= last) {
    BRSMN_EXPECTS(k == 0);
    return;
  }
  const std::size_t fw = first / kWordBits;
  const std::size_t lw = (last - 1) / kWordBits;
  for (std::size_t w = fw; w <= lw && k > 0; ++w) {
    const std::size_t lo = w == fw ? first % kWordBits : 0;
    const std::size_t hi = w == lw ? last - w * kWordBits : kWordBits;
    const std::uint64_t masked = plane[w] & word_range_mask(lo, hi);
    const auto cnt = static_cast<std::size_t>(std::popcount(masked));
    if (k >= cnt) {
      out[w] |= masked;
      k -= cnt;
      continue;
    }
    std::uint64_t rest = masked;
    for (std::size_t t = 0; t < k; ++t) rest &= rest - 1;
    out[w] |= masked ^ rest;
    k = 0;
  }
  BRSMN_ENSURES(k == 0);
}

}  // namespace brsmn::packed

// ---------------------------------------------------------------------------
// The packed route drivers. Both engines run the same per-level kernel:
// line state is transposed into bit-planes (a code identifying the packet
// plus the 3-bit tag encoding of Table 1), every configuration decision of
// the scalar algorithms is reproduced through the shared plan functions
// (scatter_block_plan / lemma1_geometry / elimination_layout), and the
// datapath applies whole stages as masked word shuffles. Broadcast events
// are precomputed during configuration; copy ids are assigned in exactly
// the order the scalar propagation would allocate them.
// ---------------------------------------------------------------------------

namespace brsmn {

// The kernel state itself (pkern::LevelKernel / BcastEvent) and the
// datapath entry points live in core/level_kernel.hpp so the compiled-
// plan replay path (core/route_plan.cpp) can restore a level from stored
// checkpoints and re-run exactly the same datapath code.
namespace pkern {

namespace pk = packed;

namespace {

/// Bit patterns of the identity code: plane p of line index i is
/// (i >> p) & 1, which within a word is a fixed pattern for p < 6 and a
/// per-word constant above.
constexpr std::uint64_t kIdentityPattern[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

/// encode() as a lookup keyed by the Tag's underlying value, so the
/// byte-staging loops stay branch-free (Table 1: ε and ε0 both 110).
constexpr std::uint8_t kTagEncoding[6] = {0b000, 0b001, 0b100,
                                          0b110, 0b110, 0b111};

/// The Table 1 encoding of a plain ε; an encoding is in the ε family
/// exactly when both of these bits (b0, b1) are set.
constexpr std::uint8_t kEpsEncoding = 0b110;

}  // namespace

void TagTable::build_row(std::size_t source,
                         std::span<const std::size_t> dests) {
  std::uint64_t* row = words_.get() + source * row_words_;
  std::fill_n(row, row_words_, ~std::uint64_t{0});  // every node ε (3)
  for (const std::size_t d : dests) {
    BRSMN_EXPECTS(d < n_);
    // Climb from the leaf's parent: an ε node takes the branch the climb
    // came from (Tag::Zero / Tag::One are 0 / 1) and the climb goes on;
    // the first node an earlier destination reached merges (the other
    // branch makes it α) and its ancestors are already right.
    for (std::size_t x = n_ + d; x > 1; x >>= 1) {
      const std::size_t k = x >> 1;
      const std::uint64_t branch = x & 1u;
      std::uint64_t& w = row[k >> 5];
      const unsigned shift = static_cast<unsigned>(k & 31u) * 2;
      const std::uint64_t t = (w >> shift) & 3u;
      if (t == 3) {
        w ^= (3u ^ branch) << shift;
        continue;
      }
      if (t != branch) w ^= (t ^ 2u) << shift;  // 0/1 -> α; α stays α
      break;
    }
  }
}

void load_identity_codes(LevelKernel& kx) {
  kx.state.clear();
  const std::size_t n = kx.n;
  const std::size_t wpl = kx.state.words_per_plane();
  for (std::size_t p = 0; p < kx.wcode; ++p) {
    auto plane = kx.state.plane(p);
    if (p < 6) {
      for (std::size_t w = 0; w < wpl; ++w) plane[w] = kIdentityPattern[p];
      plane[wpl - 1] &= pk::tail_mask(n);
    } else {
      for (std::size_t w = 0; w < wpl; ++w) {
        plane[w] = ((w >> (p - 6)) & 1u) ? ~std::uint64_t{0} : 0;
      }
    }
  }
}

/// Load the level's line state into the kernel's planes: codes are the
/// line indices, tags the Table 1 encoding (b0 = plane 0 of the tag
/// planes). All plane bits at positions >= n stay zero: the encoding
/// buffer's tail bytes are zero, and the zero encoding contributes no
/// plane bits.
void load_lines(LevelKernel& kx, std::span<const std::uint8_t> enc) {
  const std::size_t wpl = kx.state.words_per_plane();
  BRSMN_EXPECTS(enc.size() >= wpl * pk::kWordBits);
  load_identity_codes(kx);
  kx.ops->tag_pack(enc.data(), kx.tag_plane(0).data(), kx.tag_plane(1).data(),
                   kx.tag_plane(2).data(), wpl);
}

/// Propagate the planes through the configured scatter stages. At each
/// broadcast switch the alpha input's code is latched before the stage
/// applies (it identifies the parent packet), then the two outputs are
/// overwritten with event codes and 0/1 tags — the packed equivalent of
/// apply_scatter_switch's copy emission.
void run_scatter_datapath(LevelKernel& kx) {
  const std::size_t n = kx.n;
  auto t0 = kx.tag_plane(0);
  auto t1 = kx.tag_plane(1);
  auto t2 = kx.tag_plane(2);
  for (int j = 1; j <= kx.stages; ++j) {
    const std::size_t d = std::size_t{1} << (j - 1);
    if (kx.heat != nullptr) {
      kx.heat->record_stage_tags(kx.heat_level, PassKind::Scatter, j, t0, t1);
    }
    auto& evs = kx.events[static_cast<std::size_t>(j - 1)];
    for (const BcastEvent& ev : evs) {
      const std::size_t alpha_line = ev.alpha_upper ? ev.upper : ev.upper + d;
      const std::size_t eps_line = ev.alpha_upper ? ev.upper + d : ev.upper;
      // The scalar apply_scatter_switch's alignment traps: the event site
      // must still see an alpha opposite an empty line (a corrupted
      // earlier stage can desynchronize the precomputed events).
      BRSMN_ENSURES_MSG(
          pk::plane_get(t0, alpha_line) && !pk::plane_get(t1, alpha_line),
          "broadcast switch without an alpha input");
      BRSMN_ENSURES_MSG(pk::plane_get(t0, eps_line) && pk::plane_get(t1, eps_line),
                        "broadcast switch would drop a live packet");
      const std::uint64_t code = kx.state.get(alpha_line, 0, kx.wcode);
      BRSMN_ENSURES(code < n);  // broadcasts never chain within a pass
      kx.parent_code[ev.ord] = static_cast<std::size_t>(code);
    }
    pk::apply_stage(kx.state, kx.scratch, kx.masks[static_cast<std::size_t>(j - 1)],
                    d, *kx.ops);
    // Planes moved: re-resolve the tag spans after the buffer swap.
    t0 = kx.tag_plane(0);
    t1 = kx.tag_plane(1);
    t2 = kx.tag_plane(2);
    for (const BcastEvent& ev : evs) {
      const std::size_t low = ev.upper + d;
      kx.state.set(ev.upper, 0, kx.wcode, n + 2 * ev.ord);
      kx.state.set(low, 0, kx.wcode, n + 2 * ev.ord + 1);
      pk::plane_set(t0, ev.upper, false);  // 0-copy: tag 000
      pk::plane_set(t1, ev.upper, false);
      pk::plane_set(t2, ev.upper, false);
      pk::plane_set(t0, low, false);  // 1-copy: tag 001
      pk::plane_set(t1, low, false);
      pk::plane_set(t2, low, true);
    }
  }
}

/// Propagate the planes through the configured unicast (quasisort) stages.
void run_unicast_datapath(LevelKernel& kx) {
  for (int j = 1; j <= kx.stages; ++j) {
    if (kx.heat != nullptr) {
      kx.heat->record_stage_tags(kx.heat_level, PassKind::Quasisort, j,
                                 kx.tag_plane(0), kx.tag_plane(1));
    }
    pk::apply_stage(kx.state, kx.scratch, kx.masks[static_cast<std::size_t>(j - 1)],
                    std::size_t{1} << (j - 1), *kx.ops);
  }
}

void copy_masks(std::span<pk::StageMasks> dst,
                const std::vector<pk::StageMasks>& src) {
  BRSMN_EXPECTS(src.size() == dst.size());
  for (std::size_t j = 0; j < src.size(); ++j) {
    BRSMN_EXPECTS(src[j].su.size() == dst[j].su.size());
    std::copy(src[j].su.begin(), src[j].su.end(), dst[j].su.begin());
    std::copy(src[j].sl.begin(), src[j].sl.end(), dst[j].sl.begin());
  }
}

}  // namespace pkern

namespace {

namespace pk = packed;
using pkern::BcastEvent;
using pkern::CompileWorkspace;
using pkern::kEpsEncoding;
using pkern::kTagEncoding;
using pkern::LevelKernel;
using pkern::load_lines;
using pkern::run_scatter_datapath;
using pkern::run_unicast_datapath;

/// Decode the tag planes back into Tag values (one tag_unpack transpose
/// through the kernel's byte stage buffer instead of three bit probes
/// per line). `collapse` folds the 110 pattern to plain Eps — required
/// when materializing *scatter-pass outputs*, where 110 still means an
/// undivided ε (the scalar engine only introduces Eps0/Eps1 during
/// ε-division).
std::vector<Tag> materialize_tags(LevelKernel& kx, bool collapse) {
  std::vector<Tag> tags(kx.n);
  const std::size_t wpl = kx.state.words_per_plane();
  kx.ops->tag_unpack(kx.tag_plane(0).data(), kx.tag_plane(1).data(),
                     kx.tag_plane(2).data(), kx.tag_bytes.data(), wpl);
  for (std::size_t i = 0; i < kx.n; ++i) {
    const Tag t = decode(kx.tag_bytes[i]);
    tags[i] = collapse ? collapse_eps(t) : t;
  }
  return tags;
}

/// Set switches [first, first+count) of global block `gblock` at `stage`
/// in the datapath masks. Parallel runs need no bits.
void fill_masks(pk::StageMasks& mk, int stage, std::size_t gblock,
                std::size_t first, std::size_t count, SwitchSetting s) {
  if (count == 0 || s == SwitchSetting::Parallel) return;
  const std::size_t d = std::size_t{1} << (stage - 1);
  const std::size_t up = gblock * 2 * d + first;
  const std::size_t low = up + d;
  switch (s) {
    case SwitchSetting::Cross:
      pk::plane_fill(mk.su, up, up + count);
      pk::plane_fill(mk.sl, low, low + count);
      break;
    case SwitchSetting::UpperBcast:
      pk::plane_fill(mk.sl, low, low + count);
      break;
    case SwitchSetting::LowerBcast:
      pk::plane_fill(mk.su, up, up + count);
      break;
    case SwitchSetting::Parallel:
      break;
  }
}

/// Rebuild a workspace census from the kernel's current tag planes.
void build_census(pk::TagCensus& census, const LevelKernel& kx) {
  census.build(kx.tag_plane(0), kx.tag_plane(1), kx.tag_plane(2), kx.n,
               *kx.ops);
}

/// Slice the workspace kernel's first S per-stage broadcast event lists
/// into a plan capture. The workspace kernel is sized for the widest
/// level (m rows); rows past the level's stage count are workspace
/// padding, kept cleared, and must not leak into the stored plan (replay
/// and the plan tests expect exactly S rows, as a per-level kernel would
/// produce).
void capture_stage_events(const LevelKernel& kx,
                          std::vector<std::vector<BcastEvent>>& dst) {
  dst.assign(kx.events.begin(), kx.events.begin() + kx.stages);
}

/// Word-parallel scatter configuration over the full width: the forward
/// phase reads per-node alpha/eps counts from the pyramids (with the
/// scalar combine()'s tie-type propagation: a zero-surplus node inherits
/// its upper child's type), the backward phase runs the shared
/// scatter_block_plan per node and emits contiguous setting runs into the
/// stage masks, the explain sink, and the broadcast-event lists. All BSN
/// roots start their runs at 0, exactly as both scalar engines do. Root
/// node values are returned for the unrolled engine's Eq. (3) check.
std::vector<ScatterNodeValue> configure_scatter_packed(
    CompileWorkspace& ws, const pk::TagCensus& census,
    RoutingStats* stats, const ExplainSink* explain) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int S = kx.stages;

  // Flat type tree in the workspace: level j's n/2^j node types start at
  // 2n - n/2^(j-1) (level 0 at 0), so the forward sweep is two array
  // loads and a branchless select per node.
  ws.type.resize(2 * n - (n >> S));
  std::uint8_t* type = ws.type.data();
  const auto toff = [n](int j) {
    return j == 0 ? std::size_t{0} : 2 * n - (n >> (j - 1));
  };
  const auto alpha = census.alpha();
  for (std::size_t i = 0; i < n; ++i) {
    type[i] =
        static_cast<std::uint8_t>((alpha[i / 64] >> (i % 64)) & 1u);
  }
  for (int j = 1; j <= S; ++j) {
    const std::uint8_t* child = type + toff(j - 1);
    std::uint8_t* cur = type + toff(j);
    for (std::size_t b = 0; b < (n >> j); ++b) {
      const std::size_t na = census.count_alpha(j, b);
      const std::size_t ne = census.count_eps(j, b);
      // The scalar combine()'s tie-type propagation, branch-free: a
      // zero-surplus node inherits its upper child's type.
      cur[b] = na != ne ? static_cast<std::uint8_t>(na > ne) : child[2 * b];
    }
  }
  if (stats) {
    stats->tree_fwd_ops += n - (n >> S);
    stats->tree_bwd_ops += n - (n >> S);
  }

  auto node_value = [&](int j, std::size_t b) -> ScatterNodeValue {
    if (j == 0) {
      const bool a = pk::plane_get(census.alpha(), b);
      const bool e = pk::plane_get(census.eps(), b);
      return {a ? Tag::Alpha : Tag::Eps, (a || e) ? std::size_t{1} : 0};
    }
    const std::size_t na = census.count_alpha(j, b);
    const std::size_t ne = census.count_eps(j, b);
    return {type[toff(j) + b] ? Tag::Alpha : Tag::Eps,
            na >= ne ? na - ne : ne - na};
  };

  std::vector<std::size_t>& start = ws.start;
  std::vector<std::size_t>& next = ws.next;
  start.assign(n >> S, 0);
  for (int j = S; j >= 1; --j) {
    const std::size_t np = std::size_t{1} << j;
    const std::size_t half = np / 2;
    next.assign(n >> (j - 1), 0);
    auto& mk = kx.masks[static_cast<std::size_t>(j - 1)];
    auto& evs = kx.events[static_cast<std::size_t>(j - 1)];
    for (std::size_t b = 0; b < (n >> j); ++b) {
      const std::size_t s = start[b];
      const ScatterNodeValue c0 = node_value(j - 1, 2 * b);
      const ScatterNodeValue c1 = node_value(j - 1, 2 * b + 1);
      const ScatterBlockPlan plan = scatter_block_plan(c0, c1, np, s);
      next[2 * b] = plan.s0;
      next[2 * b + 1] = plan.s1;
      const std::size_t base_line = b << j;
      auto seg = [&](std::size_t first, std::size_t count, SwitchSetting w) {
        fill_masks(mk, j, b, first, count, w);
      };
      if (plan.rule == RouteRule::ScatterAddition) {
        seg(0, plan.s1, plan.run);
        seg(plan.s1, half - plan.s1, opposite_unicast(plan.run));
      } else {
        const auto layout =
            lemmas::elimination_layout(np, s, plan.l, plan.ucast);
        const std::size_t rs = plan.run_start;
        const std::size_t rl = plan.run_len;
        const bool aup = plan.bcast == SwitchSetting::UpperBcast;
        if (rs + rl <= half) {
          seg(0, rs, layout.before);
          seg(rs, rl, plan.bcast);
          seg(rs + rl, half - rs - rl, layout.after);
          for (std::size_t t = rs; t < rs + rl; ++t) {
            evs.push_back({base_line + t, aup, 0});
          }
        } else {
          // The broadcast run wraps; this only happens in the binary
          // regimes of Lemmas 2-5, where both unicast fills agree.
          const std::size_t rem = rs + rl - half;
          BRSMN_ENSURES(layout.before == layout.after);
          seg(0, rem, plan.bcast);
          seg(rem, rs - rem, layout.before);
          seg(rs, half - rs, plan.bcast);
          for (std::size_t t = 0; t < rem; ++t) {
            evs.push_back({base_line + t, aup, 0});
          }
          for (std::size_t t = rs; t < half; ++t) {
            evs.push_back({base_line + t, aup, 0});
          }
        }
      }
      if (explain != nullptr) {
        const std::vector<SwitchSetting> settings =
            scatter_block_settings(plan, np, s);
        explain->record_block(j, b, settings, plan.rule);
      }
    }
    start.swap(next);
  }

  std::vector<ScatterNodeValue> roots(n >> S);
  for (std::size_t bb = 0; bb < roots.size(); ++bb) {
    roots[bb] = node_value(S, bb);
  }
  return roots;
}

/// Fix the copy-id allocation order of the collected broadcast events and
/// reserve their ids. The scalar engines allocate during propagation:
/// stage-major over the fabric for the feedback engine, and BSN-block-
/// major (each BSN fully routed before the next) for the unrolled engine.
/// The per-stage lists are already (stage, line)-ascending, so each BSN
/// block's events form one contiguous run per stage: walking the blocks
/// and, within each, the stages reproduces the unrolled order exactly — a
/// stable sort by block, without a sort's scratch buffer.
void finalize_events(CompileWorkspace& ws, bool bsn_block_major,
                     std::uint64_t& next_copy_id, RoutingStats* stats) {
  LevelKernel& kx = ws.kx;
  std::vector<BcastEvent*>& flat = ws.order;
  flat.clear();
  if (bsn_block_major) {
    const int S = kx.stages;
    std::array<std::size_t, 64> cursor{};  // per stage; S <= 63
    for (std::size_t b = 0; b < (kx.n >> S); ++b) {
      for (int j = 0; j < S; ++j) {
        auto& evs = kx.events[static_cast<std::size_t>(j)];
        std::size_t& c = cursor[static_cast<std::size_t>(j)];
        for (; c < evs.size() && (evs[c].upper >> S) == b; ++c) {
          flat.push_back(&evs[c]);
        }
      }
    }
  } else {
    for (auto& stage : kx.events) {
      for (auto& ev : stage) flat.push_back(&ev);
    }
  }
  for (std::size_t r = 0; r < flat.size(); ++r) flat[r]->ord = r;
  kx.num_events = flat.size();
  kx.parent_code.assign(flat.size(), 0);
  kx.copy_id_base = next_copy_id;
  next_copy_id += 2 * flat.size();
  if (stats) stats->broadcast_ops += flat.size();
}

/// Word-parallel ε-division, per BSN block: the scalar greedy descent
/// hands the dummy-0 budget to the leftmost ε lines, so the first
/// n_eps0 ε bits of each block stay ε0 (110) and the rest gain the b2 bit
/// (ε1 = 111). Tree-op counters match the scalar sweep's closed form.
void divide_eps_packed(CompileWorkspace& ws,
                       const pk::TagCensus& census, RoutingStats* stats) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int S = kx.stages;
  const std::size_t np = std::size_t{1} << S;
  const std::size_t wpl = kx.state.words_per_plane();
  pk::Words& eps0_sel = ws.eps0_sel;
  std::fill(eps0_sel.begin(), eps0_sel.end(), 0);
  for (std::size_t bb = 0; bb < (n >> S); ++bb) {
    const std::size_t n_eps = census.count_eps(S, bb);
    const std::size_t n_one = census.count_ones(S, bb);
    const std::size_t n_zero = np - n_one - n_eps;
    BRSMN_EXPECTS_MSG(n_zero <= np / 2 && n_one <= np / 2,
                      "quasisort input must have at most n/2 zeros and ones");
    const std::size_t n_eps0 = n_eps - (np / 2 - n_one);
    pk::select_prefix(census.eps(), eps0_sel, bb * np, (bb + 1) * np, n_eps0);
  }
  auto t2 = kx.tag_plane(2);
  kx.ops->or_andnot(t2.data(), census.eps().data(), eps0_sel.data(), wpl);
  if (stats) {
    stats->tree_fwd_ops += n - (n >> S);
    stats->tree_bwd_ops += n - (n >> S);
  }
}

/// Word-parallel quasisort configuration: per BSN block a Theorem-1 bit
/// sort of the b2 keys with the 1-run starting at the midpoint, each merge
/// node solved by the shared lemma1_geometry.
void configure_quasisort_packed(CompileWorkspace& ws,
                                const pk::TagCensus& census,
                                RoutingStats* stats,
                                const ExplainSink* explain) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int S = kx.stages;
  const std::size_t np = std::size_t{1} << S;
  for (std::size_t bb = 0; bb < (n >> S); ++bb) {
    BRSMN_EXPECTS_MSG(census.count_ones(S, bb) == np / 2,
                      "quasisort requires exactly n/2 (real+dummy) ones");
  }
  auto ones_at = [&](int j, std::size_t b) -> std::size_t {
    if (j == 0) return pk::plane_get(census.ones(), b) ? 1 : 0;
    return census.count_ones(j, b);
  };
  std::vector<std::size_t>& start = ws.start;
  std::vector<std::size_t>& next = ws.next;
  start.assign(n >> S, np / 2);
  for (int j = S; j >= 1; --j) {
    const std::size_t nprime = std::size_t{1} << j;
    const std::size_t half = nprime / 2;
    next.assign(n >> (j - 1), 0);
    auto& mk = kx.masks[static_cast<std::size_t>(j - 1)];
    for (std::size_t b = 0; b < (n >> j); ++b) {
      const std::size_t s = start[b];
      const std::size_t l0 = ones_at(j - 1, 2 * b);
      const std::size_t l1 = ones_at(j - 1, 2 * b + 1);
      const lemmas::Lemma1Geometry g = lemmas::lemma1_geometry(nprime, s, l0, l1);
      next[2 * b] = g.s0;
      next[2 * b + 1] = g.s1;
      fill_masks(mk, j, b, 0, g.s1, g.run);
      fill_masks(mk, j, b, g.s1, half - g.s1, opposite_unicast(g.run));
      if (explain != nullptr) {
        const std::vector<SwitchSetting> settings = binary_compact_setting(
            nprime, 0, g.s1, opposite_unicast(g.run), g.run);
        explain->record_block(j, b, settings, RouteRule::QuasisortMerge);
      }
    }
    start.swap(next);
  }
  if (stats) {
    stats->tree_fwd_ops += n - (n >> S);
    stats->tree_bwd_ops += n - (n >> S);
  }
}

/// Start a route's stream-free line state: each busy input's tag-tree
/// row, one copy per such input with ids handed out in input order (as
/// initial_lines does), and the level-1 heads — each tree's root.
void begin_copies(CompileWorkspace& ws, const MulticastAssignment& a,
                  std::uint64_t& next_copy_id) {
  const std::size_t n = ws.kx.n;
  BRSMN_EXPECTS_MSG(a.size() == n, "assignment width must match the network");
  pkern::CopyLines& c = ws.copies;
  for (std::size_t s = 0; s < n; ++s) {
    const auto& dests = a.destinations(s);
    if (dests.empty()) {
      c.source[s] = kNoSource;
      ws.head[s] = kEpsEncoding;
      continue;
    }
    ws.table.build_row(s, dests);
    c.source[s] = static_cast<std::uint32_t>(s);
    c.node[s] = 1;
    c.copy_id[s] = next_copy_id++;
    c.parent_id[s] = c.copy_id[s];
    ws.head[s] = kTagEncoding[static_cast<std::uint8_t>(ws.table.node(s, 1))];
  }
}

/// Transpose the code planes into one code per line, three planes per
/// tag_unpack call: the byte it writes holds code bits p+2, p+1, p.
void unpack_codes(CompileWorkspace& ws) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const std::size_t wpl = kx.state.words_per_plane();
  std::uint8_t* bytes = kx.tag_bytes.data();
  std::uint32_t* codes = ws.codes.data();
  const auto plane_or_zero = [&](std::size_t p) {
    return p < kx.wcode ? kx.state.plane(p).data() : ws.zero_plane.data();
  };
  for (std::size_t p = 0; p < kx.wcode; p += 3) {
    kx.ops->tag_unpack(plane_or_zero(p + 2), plane_or_zero(p + 1),
                       plane_or_zero(p), bytes, wpl);
    if (p == 0) {
      for (std::size_t i = 0; i < n; ++i) codes[i] = bytes[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        codes[i] |= static_cast<std::uint32_t>(bytes[i]) << p;
      }
    }
  }
}

/// The stream-free gather after a level's quasisort datapath: each
/// occupied line takes the copy its code names — the entry line's, or
/// for a broadcast copy a fresh id under its event's latched parent —
/// steps it to the tag-tree child its exit tag (0 or 1) selects, and
/// looks the next level's tag up in the tag table instead of splitting
/// it off a carried stream (the §7.1 streaming property: a copy's
/// remaining header is its source's subtree below the sub-network it
/// entered). The exit tags stay decoded in kx.tag_bytes for the
/// self-check.
void advance_copies(CompileWorkspace& ws) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  unpack_codes(ws);
  kx.ops->tag_unpack(kx.tag_plane(0).data(), kx.tag_plane(1).data(),
                     kx.tag_plane(2).data(), kx.tag_bytes.data(),
                     kx.state.words_per_plane());
  const pkern::CopyLines& cur = ws.copies;
  pkern::CopyLines& out = ws.moved;
  const std::size_t code_limit = n + 2 * kx.num_events;
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint8_t exit = kx.tag_bytes[p];
    std::uint32_t src = kNoSource;
    std::uint32_t node = 0;
    std::uint64_t cid = 0;
    std::uint64_t pid = 0;
    if ((exit & kEpsEncoding) != kEpsEncoding) {
      const std::size_t code = ws.codes[p];
      std::size_t from = code;
      if (code < n) {
        cid = cur.copy_id[code];
        pid = cur.parent_id[code];
      } else {
        BRSMN_ENSURES_MSG(code < code_limit,
                          "packed gather: code names no broadcast event");
        from = kx.parent_code[(code - n) / 2];
        cid = kx.copy_id_base + (code - n);
        pid = cur.copy_id[from];
      }
      src = cur.source[from];
      node = 2 * cur.node[from] + (exit & 1u);  // b2: 0 -> upper, 1 -> lower
    }
    out.source[p] = src;
    out.node[p] = node;
    out.copy_id[p] = cid;
    out.parent_id[p] = pid;
    ws.head[p] = src == kNoSource ? kEpsEncoding
                                  : kTagEncoding[static_cast<std::uint8_t>(
                                        ws.table.node(src, node))];
  }
  std::swap(ws.copies, ws.moved);
}

/// End of switch level k: advance the copies to level k + 1 and, under
/// the self-check, check the planes and copy arrays — one detection
/// point between the level's passes and the next level, as in the scalar
/// driver.
void finish_level(CompileWorkspace& ws, int k, std::uint64_t next_copy_id,
                  const sched::RouteRun& run) {
  const std::size_t n = ws.kx.n;
  fault::guard(run.checking, n, run.route_ord, k, std::nullopt, true, [&] {
    {
      obs::PhaseTimer advance_timer(run.probe.advance);
      advance_copies(ws);
    }
    if (run.checking) {
      obs::PhaseTimer check_timer(run.probe.self_check);
      fault::self_check_copies(
          std::span<const std::uint8_t>(ws.kx.tag_bytes.data(), n),
          std::span<const std::uint8_t>(ws.head.data(), n), ws.copies.source,
          ws.copies.copy_id, next_copy_id, ws.seen_ids, k, run.route_ord);
    }
  });
}

/// The line state entering `level` as the scalar engine's LineValues, for
/// RouteOptions::capture_levels only: each copy's packet gets back the
/// stream it would carry — its source's destinations inside the
/// sub-network of its tag-tree node, re-encoded with the §7.1 codec.
std::vector<LineValue> materialize_lines(const CompileWorkspace& ws,
                                         const MulticastAssignment& a,
                                         int level) {
  const std::size_t n = ws.kx.n;
  const std::size_t block = n >> (level - 1);
  const std::size_t first_node = std::size_t{1} << (level - 1);
  std::vector<LineValue> lines(n);
  std::vector<std::size_t> sub;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = ws.copies.source[i];
    if (s == kNoSource) continue;
    const std::size_t lo = (ws.copies.node[i] - first_node) * block;
    const auto& dests = a.destinations(s);
    sub.clear();
    for (auto it = std::lower_bound(dests.begin(), dests.end(), lo);
         it != dests.end() && *it < lo + block; ++it) {
      sub.push_back(*it - lo);
    }
    Packet p{s, ws.copies.copy_id[i], ws.copies.parent_id[i], {}};
    encode_sequence_into(sub, block, p.stream);
    lines[i] = occupied_line(collapse_eps(decode(ws.head[i])), std::move(p));
  }
  return lines;
}

/// The line state entering level `k` of a cold route: captured for
/// RouteOptions::capture_levels (before dead lines strike, as the scalar
/// driver captures it), then the level's scheduled dead lines killed in
/// the copy arrays and the staged heads.
void enter_level(CompileWorkspace& ws, const MulticastAssignment& a, int k,
                 fault::ImplKind impl, const RouteOptions& options,
                 const sched::RouteRun& run, RouteResult& result) {
  if (options.capture_levels) {
    result.level_inputs.push_back(materialize_lines(ws, a, k));
  }
  fault::apply_dead_lines_with(
      run.faults, run.route_ord, k, impl, RouteEngine::Packed, run.activity,
      [&ws](std::size_t line) {
        const bool was_occupied = ws.copies.source[line] != kNoSource;
        ws.copies.source[line] = kNoSource;
        ws.head[line] = kEpsEncoding;
        return was_occupied;
      });
}

/// Configure the workspace kernel for switch level `k` (`stages` deep) and
/// load its planes from the staged heads.
void load_level(CompileWorkspace& ws, int k, int stages,
                const obs::RouteProbe& probe) {
  obs::PhaseTimer load_timer(probe.advance);
  ws.kx.begin_level(stages);
  ws.kx.heat_level = k;
  load_lines(ws.kx, ws.head);
}

/// The final 2x2 delivery level, shared by the compile and the patch
/// walk: the heads entering level m are packed into the tag planes (the
/// plan's final checkpoint and the heatmap read them there) and the
/// copies are delivered from the copy arrays.
void deliver_final_packed(CompileWorkspace& ws, int m, RoutePlan* plan,
                          RouteResult& result, const sched::RouteRun& run) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const obs::RouteProbe& probe = run.probe;
  {
    obs::PhaseTimer load_timer(probe.advance);
    kx.ops->tag_pack(ws.head.data(), kx.tag_plane(0).data(),
                     kx.tag_plane(1).data(), kx.tag_plane(2).data(),
                     kx.state.words_per_plane());
    for (std::size_t i = 0; i < n; ++i) {
      ws.final_tags[i] = collapse_eps(decode(ws.head[i]));
    }
  }
  if (plan != nullptr) {
    plan->final_t0.assign(kx.tag_plane(0).begin(), kx.tag_plane(0).end());
    plan->final_t1.assign(kx.tag_plane(1).begin(), kx.tag_plane(1).end());
    plan->final_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
  }
  const std::size_t splits_before_final = result.stats.broadcast_ops;
  {
    obs::PhaseTimer final_timer(probe.datapath);
    obs::PerfScope final_perf(probe.profiler, probe.perf_datapath);
    obs::TraceSpan final_span(probe.tracer, "level.final");
    ExplainSink final_sink;
    if (result.explanation.has_value()) {
      result.explanation->passes.push_back(make_pass(m, PassKind::Final, n, 1));
      final_sink.pass = &result.explanation->passes.back();
    }
    fault::guard(run.checking, n, run.route_ord, m, PassKind::Final, true, [&] {
      if (run.heatmap != nullptr) {
        run.heatmap->record_final_tags(kx.tag_plane(0), kx.tag_plane(1));
      }
      deliver_final_level(ws.final_tags, ws.copies.source, result.delivered,
                          &result.stats,
                          final_sink.pass != nullptr ? &final_sink : nullptr);
    });
  }
  result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                        splits_before_final);
}

/// The route's closing checks, shared by the compile and the patch walk:
/// the typed delivery oracle under the self-check, then the plain
/// postcondition. On success the outputs are copied into `plan`.
void finish_route(const MulticastAssignment& assignment, int m,
                  const sched::RouteRun& run, const RouteResult& result,
                  RoutePlan* plan) {
  const auto expected = expected_delivery(assignment);
  if (run.checking) {
    fault::self_check_delivery(result.delivered, expected, m, run.route_ord);
  }
  BRSMN_ENSURES_MSG(result.delivered == expected,
                    "BRSMN routed assignment incorrectly");
  if (plan != nullptr) {
    plan->delivered = result.delivered;
    plan->stats = result.stats;
    plan->broadcasts_per_level = result.broadcasts_per_level;
    plan->explanation = result.explanation;
  }
}

/// One level's stats contribution: after - before, fieldwise (RoutingStats
/// has no operator-; every counter is monotone within a route).
RoutingStats stats_diff(const RoutingStats& after, const RoutingStats& before) {
  RoutingStats d;
  d.switch_traversals = after.switch_traversals - before.switch_traversals;
  d.broadcast_ops = after.broadcast_ops - before.broadcast_ops;
  d.tree_fwd_ops = after.tree_fwd_ops - before.tree_fwd_ops;
  d.tree_bwd_ops = after.tree_bwd_ops - before.tree_bwd_ops;
  d.fabric_passes = after.fabric_passes - before.fabric_passes;
  d.gate_delay = after.gate_delay - before.gate_delay;
  return d;
}

/// True when the tag planes loaded into `kx` equal the stored level's
/// entry checkpoint. Codes are identity-loaded per level, so every
/// configuration product of the level — census, scatter/quasisort plans,
/// masks, events, ε-division, checkpoints — is a pure function of
/// these three planes: equality means the stored level can be adopted
/// verbatim.
bool entry_planes_match(LevelKernel& kx, const PlanLevel& old) {
  const auto t0 = kx.tag_plane(0);
  const auto t1 = kx.tag_plane(1);
  const auto t2 = kx.tag_plane(2);
  return std::equal(t0.begin(), t0.end(), old.entry_t0.begin(),
                    old.entry_t0.end()) &&
         std::equal(t1.begin(), t1.end(), old.entry_t1.begin(),
                    old.entry_t1.end()) &&
         std::equal(t2.begin(), t2.end(), old.entry_t2.begin(),
                    old.entry_t2.end());
}

/// Open the plan's next level (`stages` deep), capturing the entry tag
/// planes now loaded in the kernel.
PlanLevel& open_plan_level(RoutePlan& plan, const LevelKernel& kx,
                           int stages) {
  PlanLevel& pl = plan.levels.emplace_back();
  pl.stages = stages;
  pl.entry_t0.assign(kx.tag_plane(0).begin(), kx.tag_plane(0).end());
  pl.entry_t1.assign(kx.tag_plane(1).begin(), kx.tag_plane(1).end());
  pl.entry_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
  return pl;
}

/// The body of one switch level — scatter pass, quasisort pass, gather —
/// over either fabric schedule, shared by the cold compile and the patch
/// walk's recompiled levels. Both schedules run the same per-pass
/// contracts: Eq. (2) at entry, Eq. (3) at every BSN root, Eq. (4) after
/// scatter and the half-split after quasisort. The caller owns the kernel
/// load (load_level) and, when compiling a plan, the PlanLevel's
/// entry-plane capture.
template <typename Level>
void compile_level(const Level& lv, CompileWorkspace& ws,
                   std::uint64_t& next_copy_id, PlanLevel* pl,
                   RouteResult& result, const sched::RouteRun& run) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int k = lv.level();
  const int S = kx.stages;
  const std::size_t bsn_size = std::size_t{1} << S;
  const obs::RouteProbe& probe = run.probe;
  const sched::SpanNames& names = Level::kSpans;
  const RoutingStats entry_stats = result.stats;
  const std::size_t splits_before = result.stats.broadcast_ops;
  char level_label[24];
  std::snprintf(level_label, sizeof level_label, "level.%d", k);
  obs::TraceSpan level_span(probe.tracer, level_label);
  ExplainSink scatter_sink;
  ExplainSink quasi_sink;
  if (result.explanation.has_value()) {
    auto& passes = result.explanation->passes;
    passes.push_back(make_pass(k, PassKind::Scatter, n, S));
    passes.push_back(make_pass(k, PassKind::Quasisort, n, S));
    scatter_sink.pass = &passes[passes.size() - 2];
    quasi_sink.pass = &passes.back();
  }
  const fault::PassSeam seam = run.seam(k, Level::kImpl, RouteEngine::Packed);
  // Each pass configures into its own ledger slot, cleared first: the
  // sweeps OR their runs into the masks.
  const auto open_pass = [&lv, &kx](PassKind pass) {
    kx.masks = lv.masks(pass);
    for (pk::StageMasks& mk : kx.masks) mk.clear();
  };

  // The scatter-entry census stays intact through the pass, so Eq. (4)
  // compares the post-scatter census against it block by block.
  pk::TagCensus& census = ws.census;
  pk::TagCensus& mid = ws.mid;

  // Pass 1: scatter — eliminate every alpha (paper Theorem 2).
  fault::guard(run.checking, n, run.route_ord, k, PassKind::Scatter, false,
               [&] {
    open_pass(PassKind::Scatter);
    if (scatter_sink.pass != nullptr) {
      scatter_sink.record_input_tags(materialize_tags(kx, /*collapse=*/true));
    }
    build_census(census, kx);
    // The BSN entry contracts, per block in block order.
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      const std::size_t alphas = census.count_alpha(S, bb);
      const std::size_t ones = census.count_ones(S, bb);
      const std::size_t zeros =
          bsn_size - alphas - census.count_eps(S, bb) - ones;
      BRSMN_EXPECTS_MSG(zeros + alphas <= bsn_size / 2,
                        "BSN input violates n0 + n_alpha <= n/2 (Eq. 2)");
      BRSMN_EXPECTS_MSG(ones + alphas <= bsn_size / 2,
                        "BSN input violates n1 + n_alpha <= n/2 (Eq. 2)");
    }

    obs::PhaseTimer scatter_timer(probe.scatter);
    obs::PerfScope scatter_perf(probe.profiler, probe.perf_scatter);
    obs::TraceSpan scatter_span(probe.tracer, names.scatter_config);
    const std::vector<ScatterNodeValue> roots = configure_scatter_packed(
        ws, census, &result.stats,
        scatter_sink.pass != nullptr ? &scatter_sink : nullptr);
    scatter_span.end();
    scatter_perf.stop();
    scatter_timer.stop();
    for (const ScatterNodeValue& root : roots) {
      BRSMN_ENSURES_MSG(root.type == Tag::Eps || root.surplus == 0,
                        "Eq. (3) guarantees eps dominates at the BSN root");
    }
  });
  if (pl != nullptr) {
    pl->scatter_masks.assign(kx.masks.begin(), kx.masks.end());
  }
  seam.apply(lv, PassKind::Scatter, kx.masks);

  fault::guard(run.checking, n, run.route_ord, k, PassKind::Scatter, true,
               [&] {
    finalize_events(ws, Level::kBlockMajorEvents, next_copy_id,
                    &result.stats);
    obs::PhaseTimer scatter_datapath(probe.datapath);
    obs::TraceSpan scatter_data_span(probe.tracer, names.scatter_datapath);
    run_scatter_datapath(kx);
    scatter_data_span.end();
    scatter_datapath.stop();
    result.stats.switch_traversals +=
        (n / 2) * static_cast<std::size_t>(lv.fabric_stages());

    build_census(mid, kx);
    // Eq. (4); zeros follow, as every census block sums to bsn_size.
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      const std::size_t alphas = census.count_alpha(S, bb);
      BRSMN_ENSURES_MSG(mid.count_alpha(S, bb) == 0,
                        "scatter must eliminate all alphas");
      BRSMN_ENSURES(mid.count_ones(S, bb) == census.count_ones(S, bb) + alphas);
      BRSMN_ENSURES(mid.count_eps(S, bb) == census.count_eps(S, bb) - alphas);
    }
  });
  lv.charge_pass(result.stats, PassKind::Scatter);
  if (pl != nullptr) {
    capture_stage_events(kx, pl->events);
    pl->num_events = kx.num_events;
    pl->parent_codes = kx.parent_code;
    pl->post_scatter.assign(kx.state.words().begin(),
                            kx.state.words().end());
  }

  // Pass 2: quasisort — ε-divide, then Theorem-1 bit sort on b2.
  fault::guard(run.checking, n, run.route_ord, k, PassKind::Quasisort, false,
               [&] {
    open_pass(PassKind::Quasisort);
    if (quasi_sink.pass != nullptr) {
      quasi_sink.record_input_tags(materialize_tags(kx, /*collapse=*/true));
    }
    obs::PhaseTimer divide_timer(probe.eps_divide);
    obs::PerfScope divide_perf(probe.profiler, probe.perf_eps_divide);
    obs::TraceSpan divide_span(probe.tracer, names.eps_divide);
    divide_eps_packed(ws, mid, &result.stats);
    divide_span.end();
    divide_perf.stop();
    divide_timer.stop();
    if (quasi_sink.pass != nullptr) {
      quasi_sink.record_divided_tags(
          materialize_tags(kx, /*collapse=*/false));
    }

    pk::TagCensus& divided = ws.divided;
    build_census(divided, kx);
    obs::PhaseTimer quasisort_timer(probe.quasisort);
    obs::PerfScope quasisort_perf(probe.profiler, probe.perf_quasisort);
    obs::TraceSpan quasisort_span(probe.tracer, names.quasisort_config);
    configure_quasisort_packed(
        ws, divided, &result.stats,
        quasi_sink.pass != nullptr ? &quasi_sink : nullptr);
  });
  if (pl != nullptr) {
    pl->divided_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
    pl->quasisort_masks.assign(kx.masks.begin(), kx.masks.end());
  }
  seam.apply(lv, PassKind::Quasisort, kx.masks);

  fault::guard(run.checking, n, run.route_ord, k, PassKind::Quasisort, true,
               [&] {
    obs::PhaseTimer sort_datapath(probe.datapath);
    obs::TraceSpan sort_data_span(probe.tracer, names.quasisort_datapath);
    run_unicast_datapath(kx);
    sort_data_span.end();
    sort_datapath.stop();
    result.stats.switch_traversals +=
        (n / 2) * static_cast<std::size_t>(lv.fabric_stages());

    // Postcondition: zeros (real or dummy) occupy the upper half of every
    // BSN, ones the lower half — the b2 plane decides, as in the scalar.
    const auto t2 = kx.tag_plane(2);
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      const std::size_t base = bb * bsn_size;
      const std::size_t upper_ones =
          pk::plane_popcount(t2, base, base + bsn_size / 2);
      const std::size_t lower_ones =
          pk::plane_popcount(t2, base + bsn_size / 2, base + bsn_size);
      BRSMN_ENSURES_MSG(upper_ones == 0 && lower_ones == bsn_size / 2,
                        "quasisort output not split by halves");
    }
  });
  lv.charge_pass(result.stats, PassKind::Quasisort);
  if (pl != nullptr) {
    pl->post_quasisort.assign(kx.state.words().begin(),
                              kx.state.words().end());
  }

  finish_level(ws, k, next_copy_id, run);
  result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                        splits_before);
  if (pl != nullptr) pl->stats_delta = stats_diff(result.stats, entry_stats);
}

/// Adopt one stored level verbatim during a patch: copy its stage masks
/// into the level's ledger slots (a whole pass each, so nothing stale
/// survives and the derived grids match a cold compile's), restore
/// the post-quasisort checkpoint and event bookkeeping, re-emit the
/// stored explanation passes, and advance the line state to the level's
/// stored outcome. Copy ids keep tracking the cold allocation order
/// because every preceding level — reused or recompiled — produced
/// exactly the events a cold compile of the new assignment would.
template <typename Level>
void reuse_level(const Level& lv, const PlanLevel& old, const RoutePlan& base,
                 CompileWorkspace& ws, std::uint64_t& next_copy_id,
                 RouteResult& result, const sched::RouteRun& run) {
  const int k = lv.level();
  char level_label[24];
  std::snprintf(level_label, sizeof level_label, "level.%d", k);
  obs::TraceSpan level_span(run.probe.tracer, level_label);
  pkern::copy_masks(lv.masks(PassKind::Scatter), old.scatter_masks);
  pkern::copy_masks(lv.masks(PassKind::Quasisort), old.quasisort_masks);

  LevelKernel& kx = ws.kx;
  BRSMN_EXPECTS(old.post_quasisort.size() == kx.state.words().size());
  std::copy(old.post_quasisort.begin(), old.post_quasisort.end(),
            kx.state.words().begin());
  kx.num_events = old.num_events;
  kx.parent_code = old.parent_codes;
  kx.copy_id_base = next_copy_id;
  next_copy_id += 2 * old.num_events;
  if (result.explanation.has_value()) {
    // The stored passes are pure functions of the (matching) entry
    // planes, so copying them is bit-identical to re-deriving them.
    const auto& passes = base.explanation->passes;
    const std::size_t first = 2 * static_cast<std::size_t>(k - 1);
    result.explanation->passes.push_back(passes[first]);
    result.explanation->passes.push_back(passes[first + 1]);
  }
  finish_level(ws, k, next_copy_id, run);
  result.stats += old.stats_delta;
  result.broadcasts_per_level.push_back(old.stats_delta.broadcast_ops);
}

/// The per-network compile workspace: the widest-level kernel plus every
/// census/configuration buffer and the stream-free line state, allocated
/// on the first compile or patch and reused by every later one.
CompileWorkspace& compile_workspace(std::unique_ptr<CompileWorkspace>& slot,
                                    std::size_t n, int m) {
  if (slot == nullptr) slot = std::make_unique<CompileWorkspace>(n, m);
  return *slot;
}

/// A patch walk in progress (planner::patch_route): the base plan whose
/// levels the walk may adopt, the recompile budget in levels, and the
/// outcome it fills.
struct PatchWalk {
  const RoutePlan& base;
  double budget;
  planner::PatchOutcome& outcome;
};

/// The packed engine's route driver over either schedule: a cold compile
/// (capturing `plan` when non-null), or — given `patch` — the patch walk,
/// which adopts every level whose entry tag planes match the base plan's
/// stored checkpoint and recompiles the rest through the same level body
/// into `plan`. Returns false only when the walk exhausts its budget
/// (`plan` is then unspecified and the caller compiles cold).
template <typename Schedule>
bool drive_packed(const Schedule& sched,
                  std::unique_ptr<CompileWorkspace>& ws_slot,
                  const MulticastAssignment& assignment,
                  const RouteOptions& options, RouteResult& result,
                  RoutePlan* plan, PatchWalk* patch) {
  constexpr fault::ImplKind impl = Schedule::Level::kImpl;
  const std::size_t n = sched.size();
  const int m = sched.levels();
  if (plan != nullptr) {
    // A plan compiled while faults are armed would freeze corrupted
    // checkpoints — compile_route and patch_route enforce this before
    // delegating here.
    BRSMN_EXPECTS_MSG(options.faults == nullptr,
                      "cannot compile a route plan under fault injection");
    plan->n = n;
    plan->m = m;
    plan->impl = impl;
    plan->wcode = static_cast<std::size_t>(m) + 1;
    plan->levels.clear();
    plan->levels.reserve(static_cast<std::size_t>(m - 1));
  }
  const sched::RouteRun run(options, n);
  const obs::RouteProbe& probe = run.probe;
  obs::Histogram* patch_hist =
      patch != nullptr && probe.enabled()
          ? &probe.registry->histogram(probe.prefix + ".phase.patch_ns")
          : nullptr;
  obs::PhaseTimer total_timer(probe.total);
  obs::PerfScope total_perf(probe.profiler, probe.perf_total);
  obs::PhaseTimer patch_timer(patch_hist);
  obs::TraceSpan route_span(probe.tracer, patch != nullptr
                                              ? "plan.patch"
                                              : Schedule::kRouteSpan);

  result.delivered.assign(n, std::nullopt);
  if (options.explain) {
    result.explanation.emplace();
    result.explanation->n = n;
  }

  try {
    CompileWorkspace& ws = compile_workspace(ws_slot, n, m);
    LevelKernel& kx = ws.kx;
    kx.ops = &simd::ops(options.simd_backend);
    // A patch's reused levels restore stored checkpoints without running
    // the datapath, so only recompiled levels (and the always-fresh final
    // level) accumulate heatmap activity on the patch path.
    kx.heat = run.heatmap;
    std::uint64_t next_copy_id = 1;
    {
      obs::PhaseTimer advance_timer(probe.advance);
      begin_copies(ws, assignment, next_copy_id);
    }

    for (int k = 1; k <= m - 1; ++k) {
      const int stages = m - k + 1;
      enter_level(ws, assignment, k, impl, options, run, result);
      load_level(ws, k, stages, probe);
      if (patch != nullptr) {
        const PlanLevel& old =
            patch->base.levels[static_cast<std::size_t>(k - 1)];
        if (old.stages == stages && entry_planes_match(kx, old)) {
          plan->levels.push_back(old);
          reuse_level(sched.level(k), old, patch->base, ws, next_copy_id,
                      result, run);
          ++patch->outcome.levels_reused;
          continue;
        }
        if (patch->outcome.first_dirty_level == 0) {
          patch->outcome.first_dirty_level = k;
        }
        if (static_cast<double>(patch->outcome.levels_recompiled + 1) >
            patch->budget) {
          return false;
        }
        ++patch->outcome.levels_recompiled;
      }
      PlanLevel* pl =
          plan != nullptr ? &open_plan_level(*plan, kx, stages) : nullptr;
      compile_level(sched.level(k), ws, next_copy_id, pl, result, run);
    }

    // The final 2x2 delivery level is always computed fresh — on a patch
    // it is cheap, and rebuilding it revalidates the delivery end to end.
    enter_level(ws, assignment, m, impl, options, run, result);
    deliver_final_packed(ws, m, plan, result, run);
    sched.charge_final(result.stats);
    finish_route(assignment, m, run, result, plan);
  } catch (const fault::FaultDetected& e) {
    if (result.explanation.has_value()) {
      fault::rethrow_localized(sched, e, *result.explanation);
    }
    throw;
  }
  patch_timer.stop();
  total_perf.stop();
  total_timer.stop();
  if constexpr (obs::kEnabled) {
    if (probe.enabled()) probe.record_stats(result.stats);
  }
  return true;
}

/// planner::patch_route over either schedule: check that `base` was
/// compiled on this network, then run the driver as a patch walk.
template <typename Schedule>
planner::PatchOutcome patch_route_packed(
    const Schedule& sched, std::unique_ptr<CompileWorkspace>& ws_slot,
    const MulticastAssignment& assignment, const RoutePlan& base,
    const RouteOptions& options, RoutePlan& out,
    const planner::PatchConfig& config) {
  const int m = sched.levels();
  BRSMN_EXPECTS_MSG(options.faults == nullptr,
                    "cannot patch a route plan under fault injection");
  BRSMN_EXPECTS_MSG(!options.capture_levels,
                    "cannot capture level inputs while patching");
  BRSMN_EXPECTS_MSG(assignment.size() == sched.size(),
                    "assignment width must match the network");
  BRSMN_EXPECTS_MSG(
      base.n == sched.size() && base.impl == Schedule::Level::kImpl &&
          base.levels.size() == static_cast<std::size_t>(m - 1),
      "patch base must be a plan compiled on this network");
  planner::PatchOutcome outcome;
  // Reused levels adopt the base's explanation passes verbatim; a base
  // compiled without one cannot serve an explained patch.
  if (options.explain && !base.explanation.has_value()) return outcome;
  // Recompile budget: one more dirty level than this abandons the patch.
  // Dirtiness is not monotone in depth — a level's entries re-converge
  // onto the base checkpoints once quasisort has normalized the order
  // (and a delta that preserves a level's half-splits never dirties it
  // at all) — so the budget counts *actual* dirty levels as the walk
  // discovers them. A walk that exhausts the budget has spent at most
  // max_dirty_fraction of a cold compile before handing over.
  PatchWalk walk{base, config.max_dirty_fraction * static_cast<double>(m - 1),
                 outcome};
  outcome.patched = drive_packed(sched, ws_slot, assignment, options,
                                 outcome.result, &out, &walk);
  return outcome;
}

}  // namespace

RouteResult packed_route(Brsmn& net, const MulticastAssignment& assignment,
                         const RouteOptions& options, RoutePlan* plan) {
  RouteResult result;
  drive_packed(net.schedule(), net.compile_ws_, assignment, options, result,
               plan, nullptr);
  return result;
}

RouteResult packed_route(FeedbackBrsmn& net,
                         const MulticastAssignment& assignment,
                         const RouteOptions& options, RoutePlan* plan) {
  RouteResult result;
  drive_packed(net.schedule(), net.compile_ws_, assignment, options, result,
               plan, nullptr);
  return result;
}

namespace planner {

PatchOutcome patch_route(Brsmn& net, const MulticastAssignment& assignment,
                         const RoutePlan& base, const RouteOptions& options,
                         RoutePlan& out, const PatchConfig& config) {
  return patch_route_packed(net.schedule(), net.compile_ws_, assignment, base,
                            options, out, config);
}

PatchOutcome patch_route(FeedbackBrsmn& net,
                         const MulticastAssignment& assignment,
                         const RoutePlan& base, const RouteOptions& options,
                         RoutePlan& out, const PatchConfig& config) {
  return patch_route_packed(net.schedule(), net.compile_ws_, assignment, base,
                            options, out, config);
}

}  // namespace planner

}  // namespace brsmn
