#include "csl/solver_plan.hpp"

#include "csl/engine_options.hpp"

namespace autosec::csl {

void apply_plan(const SolverPlan& plan, EngineOptions& options) {
  options.explore.engine = plan.engine;
  options.explore.reduction = plan.reduction;
  options.steady_state.solver.method = plan.method;
}

SolverPlan resolve_plan(SolverPlan plan, const symbolic::StateSpace& space) {
  // The space already knows which backend and reduction it was built with.
  if (const auto engine = symbolic::parse_engine_token(space.engine_name())) {
    plan.engine = *engine;
  }
  plan.reduction = space.reduced() ? symbolic::SymmetryReduction::kOn
                                   : symbolic::SymmetryReduction::kOff;
  return plan;
}

}  // namespace autosec::csl
