#include "core/feedback.hpp"

#include "api/plan_cache.hpp"
#include "common/contracts.hpp"
#include "core/fabric_schedule.hpp"

namespace brsmn {

FeedbackBrsmn::FeedbackBrsmn(std::size_t n)
    : fabric_(n),
      ledger_(std::make_unique<pkern::SettingsLedger>(n, fabric_.stages())) {}

std::size_t FeedbackBrsmn::passes_per_route() const {
  return 2 * (static_cast<std::size_t>(levels()) - 1) + 1;
}

RouteResult FeedbackBrsmn::route(const MulticastAssignment& assignment,
                                 const RouteOptions& options) {
  BRSMN_EXPECTS(assignment.size() == size());
  if (options.plan_cache != nullptr && !options.capture_levels) {
    return api::route_via_cache(*this, assignment, options);
  }
  if (options.engine == RouteEngine::Packed) {
    return packed_route(*this, assignment, options);
  }
  return sched::scalar_route(schedule(), assignment, options);
}

const Rbn& FeedbackBrsmn::fabric() const {
  schedule().derive_grids();
  return fabric_;
}

}  // namespace brsmn
