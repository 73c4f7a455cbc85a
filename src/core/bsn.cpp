#include "core/bsn.hpp"

#include <algorithm>
#include <iterator>

#include "common/contracts.hpp"
#include "core/fabric_schedule.hpp"
#include "core/quasisort.hpp"
#include "core/scatter.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/perf_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/tracer.hpp"

namespace brsmn {

TagCounts count_tags(std::span<const LineValue> lines) {
  TagCounts c;
  for (const auto& lv : lines) {
    switch (lv.tag) {
      case Tag::Zero: ++c.zeros; break;
      case Tag::One: ++c.ones; break;
      case Tag::Alpha: ++c.alphas; break;
      case Tag::Eps:
      case Tag::Eps0:
      case Tag::Eps1: ++c.epses; break;
    }
  }
  return c;
}

Bsn::Bsn(std::size_t n) : scatter_(n), quasisort_(n) {
  BRSMN_EXPECTS_MSG(n >= 4, "the smallest BSN used by a BRSMN is 4 x 4");
}

Bsn::Result Bsn::route(std::vector<LineValue> inputs,
                       std::uint64_t& next_copy_id, RoutingStats* stats) {
  BRSMN_EXPECTS(inputs.size() == size());
  // A lone BSN is level 1 of a BRSMN of its width: one block, no obs, no
  // fault seam, bare contract violations.
  RouteOptions options;
  options.self_check = false;
  const sched::RouteRun run(options, size());
  RoutingStats local;
  Result result;
  sched::route_level(sched::UnrolledLevel(std::span<Bsn>(this, 1), 1), inputs,
                     next_copy_id, stats != nullptr ? *stats : local, run,
                     nullptr, &result.scattered);
  result.outputs = std::move(inputs);
  return result;
}

namespace sched {

namespace {

/// Propagate `lines` through `pass` of level `lv`: each physical fabric in
/// line order, over all of its stages, recording the heatmap at the entry
/// of the level's own stages (stages above the BSN depth are identity
/// wiring, not part of the level).
template <typename Level, typename SwitchFn>
void propagate_pass(const Level& lv, PassKind pass,
                    std::vector<LineValue>& lines, SwitchFn&& fn,
                    obs::FabricHeatmap* heatmap) {
  const std::size_t width = std::size_t{1} << lv.fabric_stages();
  for (std::size_t i = 0; i < lv.fabric_count(); ++i) {
    const auto first = lines.begin() + static_cast<std::ptrdiff_t>(i * width);
    std::vector<LineValue> slice(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(width)));
    slice = lv.fabric(pass, i).propagate(
        std::move(slice), fn,
        [&](int stage, const std::vector<LineValue>& ls) {
          if (heatmap != nullptr && stage <= lv.stages()) {
            heatmap->record_lines(lv.level(), pass, stage, ls, i * width);
          }
        });
    std::move(slice.begin(), slice.end(), first);
  }
}

}  // namespace

template <typename Level>
void route_level(const Level& lv, std::vector<LineValue>& lines,
                 std::uint64_t& next_copy_id, RoutingStats& stats,
                 const RouteRun& run, RouteExplanation* explanation,
                 std::vector<LineValue>* scattered) {
  const std::size_t n = lines.size();
  const int k = lv.level();
  const int S = lv.stages();
  const std::size_t bsn = std::size_t{1} << S;
  const std::size_t blocks = n >> S;
  const std::size_t width = std::size_t{1} << lv.fabric_stages();
  const obs::RouteProbe& probe = run.probe;
  const SpanNames& names = Level::kSpans;
  PassExplanation* scatter_pass = nullptr;
  PassExplanation* quasi_pass = nullptr;
  if (explanation != nullptr) {
    auto& passes = explanation->passes;
    passes.push_back(make_pass(k, PassKind::Scatter, n, S));
    passes.push_back(make_pass(k, PassKind::Quasisort, n, S));
    scatter_pass = &passes[passes.size() - 2];
    quasi_pass = &passes.back();
  }
  const fault::PassSeam seam = run.seam(k, Level::kImpl, RouteEngine::Scalar);
  std::vector<TagCounts> in(blocks);
  std::vector<Tag> tags(n);
  const auto block = [&](auto& v, std::size_t b) {
    return std::span(v).subspan(b * bsn, bsn);
  };
  // Configure every BSN block of `pass`: block b lives in fabric i at
  // local block lb, and its explain sink starts at the fabric's first line.
  const auto configure = [&](PassKind pass, PassExplanation* record,
                             auto&& config_block) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t i = b * bsn / width;
      const ExplainSink sink{record, i * width};
      config_block(lv.fabric(pass, i), b - i * (width / bsn), block(tags, b),
                   record != nullptr ? &sink : nullptr);
    }
  };

  // Pass 1: scatter — eliminate every α (paper Theorem 2).
  fault::guard(run.checking, n, run.route_ord, k, PassKind::Scatter, false,
               [&] {
    lv.begin_pass(PassKind::Scatter);
    for (std::size_t i = 0; i < n; ++i) {
      tags[i] = lines[i].tag;
      BRSMN_EXPECTS_MSG(lines[i].empty() == !lines[i].packet.has_value(),
                        "occupied lines must carry a packet, eps lines none");
      BRSMN_EXPECTS_MSG(!lines[i].packet || (!lines[i].packet->stream.empty() &&
                                             lines[i].packet->stream.front() ==
                                                 tags[i]),
                        "line tag must equal the packet's current a_0");
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      in[b] = count_tags(block(lines, b));
      BRSMN_EXPECTS_MSG(in[b].zeros + in[b].alphas <= bsn / 2,
                        "BSN input violates n0 + n_alpha <= n/2 (Eq. 2)");
      BRSMN_EXPECTS_MSG(in[b].ones + in[b].alphas <= bsn / 2,
                        "BSN input violates n1 + n_alpha <= n/2 (Eq. 2)");
    }
    ExplainSink{scatter_pass, 0}.record_input_tags(tags);
    obs::PhaseTimer scatter_timer(probe.scatter);
    obs::PerfScope scatter_perf(probe.profiler, probe.perf_scatter);
    obs::TraceSpan scatter_span(probe.tracer, names.scatter_config);
    configure(PassKind::Scatter, scatter_pass,
              [&](Rbn& fabric, std::size_t lb, std::span<const Tag> slice,
                  const ExplainSink* sink) {
                const ScatterNodeValue root =
                    configure_scatter(fabric, S, lb, slice, 0, &stats, sink);
                // Eq. (3): n_alpha <= n_eps, so eps dominates at the root
                // (on a tie the surplus is 0 and the type is immaterial).
                BRSMN_ENSURES_MSG(
                    root.type == Tag::Eps || root.surplus == 0,
                    "Eq. (3) guarantees eps dominates at the BSN root");
              });
  });
  seam.apply(lv, PassKind::Scatter, {});
  fault::guard(run.checking, n, run.route_ord, k, PassKind::Scatter, true,
               [&] {
    {
      obs::PhaseTimer datapath_timer(probe.datapath);
      obs::PerfScope datapath_perf(probe.profiler, probe.perf_datapath);
      obs::TraceSpan datapath_span(probe.tracer, names.scatter_datapath);
      ScatterExec exec{next_copy_id, &stats};
      propagate_pass(
          lv, PassKind::Scatter, lines,
          [&exec](const SwitchContext& ctx, SwitchSetting s, LineValue a,
                  LineValue b) {
            return apply_scatter_switch(ctx, s, std::move(a), std::move(b),
                                        exec);
          },
          run.heatmap);
      next_copy_id = exec.next_copy_id;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      const TagCounts mid = count_tags(block(lines, b));
      BRSMN_ENSURES_MSG(mid.alphas == 0, "scatter must eliminate all alphas");
      BRSMN_ENSURES(mid.zeros == in[b].zeros + in[b].alphas);  // Eq. (4)
      BRSMN_ENSURES(mid.ones == in[b].ones + in[b].alphas);    // Eq. (4)
      BRSMN_ENSURES(mid.epses == in[b].epses - in[b].alphas);  // Eq. (4)
    }
  });
  lv.charge_pass(stats, PassKind::Scatter);
  if (scattered != nullptr) *scattered = lines;

  // Pass 2: quasisort — ε-divide, then Theorem-1 bit sort on b2.
  fault::guard(run.checking, n, run.route_ord, k, PassKind::Quasisort, false,
               [&] {
    lv.begin_pass(PassKind::Quasisort);
    for (std::size_t i = 0; i < n; ++i) tags[i] = lines[i].tag;
    const ExplainSink quasi_sink{quasi_pass, 0};
    quasi_sink.record_input_tags(tags);
    {
      obs::PhaseTimer divide_timer(probe.eps_divide);
      obs::PerfScope divide_perf(probe.profiler, probe.perf_eps_divide);
      obs::TraceSpan divide_span(probe.tracer, names.eps_divide);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::vector<Tag> divided = divide_eps(block(tags, b), &stats);
        std::copy(divided.begin(), divided.end(), block(tags, b).begin());
      }
    }
    quasi_sink.record_divided_tags(tags);
    for (std::size_t i = 0; i < n; ++i) lines[i].tag = tags[i];
    obs::PhaseTimer quasisort_timer(probe.quasisort);
    obs::PerfScope quasisort_perf(probe.profiler, probe.perf_quasisort);
    obs::TraceSpan quasisort_span(probe.tracer, names.quasisort_config);
    configure(PassKind::Quasisort, quasi_pass,
              [&](Rbn& fabric, std::size_t lb, std::span<const Tag> slice,
                  const ExplainSink* sink) {
                configure_quasisort(fabric, S, lb, slice, &stats, sink);
              });
  });
  seam.apply(lv, PassKind::Quasisort, {});
  fault::guard(run.checking, n, run.route_ord, k, PassKind::Quasisort, true,
               [&] {
    {
      obs::PhaseTimer datapath_timer(probe.datapath);
      obs::PerfScope datapath_perf(probe.profiler, probe.perf_datapath);
      obs::TraceSpan datapath_span(probe.tracer, names.quasisort_datapath);
      propagate_pass(
          lv, PassKind::Quasisort, lines,
          [&stats](const SwitchContext& ctx, SwitchSetting s, LineValue a,
                   LineValue b) {
            ++stats.switch_traversals;
            return unicast_switch(ctx, s, std::move(a), std::move(b));
          },
          run.heatmap);
    }
    // Postcondition: zeros (real or dummy) occupy the upper half of every
    // BSN, ones the lower half.
    for (std::size_t i = 0; i < n; ++i) {
      BRSMN_ENSURES_MSG(
          quasisort_key(lines[i].tag) == ((i & (bsn - 1)) < bsn / 2 ? 0 : 1),
          "quasisort output not split by halves");
    }
  });
  lv.charge_pass(stats, PassKind::Quasisort);
}

template void route_level(const UnrolledLevel&, std::vector<LineValue>&,
                          std::uint64_t&, RoutingStats&, const RouteRun&,
                          RouteExplanation*, std::vector<LineValue>*);
template void route_level(const FeedbackLevel&, std::vector<LineValue>&,
                          std::uint64_t&, RoutingStats&, const RouteRun&,
                          RouteExplanation*, std::vector<LineValue>*);

}  // namespace sched

}  // namespace brsmn
