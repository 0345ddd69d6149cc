// One struct for every cross-cutting solver/exploration knob a caller can
// set. Historically each feature PR grew its own field on a different stage
// struct (engine/reduction on ExploreOptions, the fixpoint method on the
// steady-state solver, ...), and every caller — CLI, serve, differential
// harness, benches — had to know which stage owned which knob. SolverPlan
// collapses them into one value embedded in EngineOptions; apply_plan() is
// the single place the plan fans back out onto the stage structs, and
// resolve_plan() is the single place the kAuto choices can be inspected
// against a built state space.
//
// The transient matrix layout and steady-state detection are not plan
// knobs: the engine picks the layout from the matrix alone and always
// detects steady state. Library callers that need a pinned reference (the
// bit-exact and exhaustive comparisons in the tests) set
// EngineOptions::transient directly.
#pragma once

#include "linalg/gauss_seidel.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/state_store.hpp"

namespace autosec::csl {

struct EngineOptions;

struct SolverPlan {
  /// State-store backend of exploration (classic | compact | auto).
  symbolic::ExplorationEngine engine = symbolic::ExplorationEngine::kAuto;
  /// On-the-fly symmetry reduction policy (ctmc models only).
  symbolic::SymmetryReduction reduction = symbolic::SymmetryReduction::kAuto;
  /// Fixpoint method (BiCGSTAB ladder vs pinned Gauss-Seidel/Krylov).
  linalg::FixpointMethod method = linalg::FixpointMethod::kAuto;

  friend bool operator==(const SolverPlan&, const SolverPlan&) = default;
};

/// Fan the plan out onto the stage option structs it subsumes. The plan is
/// authoritative: EngineSession applies it on construction, so callers set
/// options.plan.* instead of poking the explore/steady_state fields.
void apply_plan(const SolverPlan& plan, EngineOptions& options);

/// Resolve the plan's kAuto knobs against a built state space: engine and
/// reduction come back as what the space was actually built with. `method`
/// stays as requested when kAuto, because it resolves per solve via the
/// fallback ladder.
SolverPlan resolve_plan(SolverPlan plan, const symbolic::StateSpace& space);

}  // namespace autosec::csl
