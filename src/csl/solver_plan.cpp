#include "csl/solver_plan.hpp"

#include "csl/engine_options.hpp"

namespace autosec::csl {

void apply_plan(const SolverPlan& plan, EngineOptions& options) {
  options.explore.engine = plan.engine;
  options.explore.reduction = plan.reduction;
}

SolverPlan resolve_plan(SolverPlan plan, const symbolic::StateSpace& space) {
  // The space already knows which reduction it was built with; with the
  // reduction pinned, the engine token no longer changes anything.
  plan.engine = symbolic::ExplorationEngine::kCompact;
  plan.reduction = space.reduced() ? symbolic::SymmetryReduction::kOn
                                   : symbolic::SymmetryReduction::kOff;
  return plan;
}

}  // namespace autosec::csl
