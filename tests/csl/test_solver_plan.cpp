#include "csl/solver_plan.hpp"

#include <gtest/gtest.h>

#include "csl/engine_options.hpp"
#include "csl/session.hpp"
#include "symbolic/builder.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

symbolic::Model tiny_model() {
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(2.0),
            {{"x", Expr::literal(0)}});
  return builder.build();
}

TEST(SolverPlan, ApplyFansOutOntoEveryStageStruct) {
  EngineOptions options;
  options.plan.engine = symbolic::ExplorationEngine::kCompact;
  options.plan.reduction = symbolic::SymmetryReduction::kOff;
  options.plan.method = linalg::FixpointMethod::kGaussSeidel;
  // Transient-stage fields are not plan knobs: a pinned reference layout
  // must survive the fan-out.
  options.transient.layout = linalg::MatrixLayout::kCsr;
  options.transient.steady_state_detection = false;

  apply_plan(options.plan, options);
  EXPECT_EQ(options.explore.engine, symbolic::ExplorationEngine::kCompact);
  EXPECT_EQ(options.explore.reduction, symbolic::SymmetryReduction::kOff);
  EXPECT_EQ(options.steady_state.solver.method, linalg::FixpointMethod::kGaussSeidel);
  EXPECT_EQ(options.transient.layout, linalg::MatrixLayout::kCsr);
  EXPECT_FALSE(options.transient.steady_state_detection);
}

TEST(SolverPlan, SessionAppliesThePlanOnConstruction) {
  SessionOptions options;
  options.plan.engine = symbolic::ExplorationEngine::kCompact;
  EngineSession session(tiny_model(), options);
  session.space();
  EXPECT_EQ(session.options().explore.engine, symbolic::ExplorationEngine::kCompact);
  EXPECT_EQ(session.stats().engine, "compact");
}

TEST(SolverPlan, ResolveReportsTheBuiltSpace) {
  SessionOptions options;
  EngineSession session(tiny_model(), options);
  const SolverPlan resolved = resolve_plan(session.options().plan, session.space());
  // Nothing stays kAuto for the knobs the space decides: engine and
  // reduction come back as concrete choices; method resolves per solve.
  EXPECT_EQ(resolved.engine, symbolic::ExplorationEngine::kCompact);
  EXPECT_EQ(resolved.reduction, symbolic::SymmetryReduction::kOff);
  EXPECT_EQ(resolved.method, linalg::FixpointMethod::kAuto);
}

TEST(SolverPlan, DefaultPlansCompareEqual) {
  EXPECT_EQ(SolverPlan{}, SolverPlan{});
  SolverPlan changed;
  changed.method = linalg::FixpointMethod::kKrylov;
  EXPECT_FALSE(changed == SolverPlan{});
}

}  // namespace
}  // namespace autosec::csl
