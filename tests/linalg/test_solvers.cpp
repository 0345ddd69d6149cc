#include <gtest/gtest.h>

#include <cmath>

#include "linalg/gauss_seidel.hpp"
#include "linalg/krylov.hpp"
#include "linalg/power_iteration.hpp"
#include "util/fault.hpp"

namespace autosec::linalg {
namespace {

TEST(SolveFixpoint, IdentityFreeTerm) {
  // x = 0*x + b  =>  x = b.
  CsrBuilder builder(2, 2);
  const CsrMatrix A = std::move(builder).build();
  const auto result = solve_fixpoint(A, {3.0, 4.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-12);
  EXPECT_NEAR(result.x[1], 4.0, 1e-12);
}

TEST(SolveFixpoint, TwoStateAbsorption) {
  // Gambler-style: from state 0, go to success w.p. 0.3, to state 1 w.p. 0.7;
  // from state 1, back to 0 w.p. 0.5, fail w.p. 0.5.
  // x0 = 0.3 + 0.7*x1; x1 = 0.5*x0  =>  x0 = 0.3/(1-0.35) = 6/13.
  CsrBuilder builder(2, 2);
  builder.add(0, 1, 0.7);
  builder.add(1, 0, 0.5);
  const auto result = solve_fixpoint(std::move(builder).build(), {0.3, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 6.0 / 13.0, 1e-10);
  EXPECT_NEAR(result.x[1], 3.0 / 13.0, 1e-10);
}

TEST(SolveFixpoint, HandlesDiagonalEntries) {
  // x0 = 0.5*x0 + 1  =>  x0 = 2.
  CsrBuilder builder(1, 1);
  builder.add(0, 0, 0.5);
  const auto result = solve_fixpoint(std::move(builder).build(), {1.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 2.0, 1e-12);
}

TEST(SolveFixpoint, DiagonalAtOneReportsDivergedAcrossLadder) {
  // x = 1·x + 1 has no solution: every rung of the kAuto ladder must fail
  // honestly (diverged, never converged) and each attempt must be recorded.
  CsrBuilder builder(1, 1);
  builder.add(0, 0, 1.0);
  const CsrMatrix A = std::move(builder).build();
  const IterativeResult result = solve_fixpoint(A, {1.0});
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.diverged);
  ASSERT_EQ(result.attempts.size(), 3u);
  EXPECT_EQ(result.attempts[0].method, "krylov");
  EXPECT_EQ(result.attempts[1].method, "gauss_seidel");
  EXPECT_EQ(result.attempts[2].method, "power");
  for (const RungAttempt& attempt : result.attempts) {
    EXPECT_FALSE(attempt.converged);
  }
}

TEST(SolveFixpoint, DimensionMismatchThrows) {
  CsrBuilder builder(2, 2);
  const CsrMatrix A = std::move(builder).build();
  EXPECT_THROW(solve_fixpoint(A, {1.0}), std::invalid_argument);
}

/// x = A·x + b for the gambler system of SolveFixpoint.TwoStateAbsorption.
CsrMatrix gambler_matrix() {
  CsrBuilder builder(2, 2);
  builder.add(0, 1, 0.7);
  builder.add(1, 0, 0.5);
  return std::move(builder).build();
}

TEST(PowerIteration, MatchesGaussSeidelOnUniformizedChain) {
  // Uniformize the 2-state chain (a=2, b=6) with q=10:
  // P = [[0.8, 0.2], [0.6, 0.4]]. With reference state 0 the visit measure
  // solves ν_1 = ν_1·P_11 + P_01, i.e. A = [0.4], b = [0.2], ν_1 = 1/3, and
  // π ∝ (1, ν_1) = (0.75, 0.25). The power rung and Gauss-Seidel agree.
  CsrBuilder builder(1, 1);
  builder.add(0, 0, 0.4);
  const CsrMatrix A = std::move(builder).build();
  const auto power = solve_fixpoint_power(A, {0.2});
  IterativeOptions gs;
  gs.method = FixpointMethod::kGaussSeidel;
  const auto reference = solve_fixpoint(A, {0.2}, gs);
  ASSERT_TRUE(power.converged);
  ASSERT_TRUE(reference.converged);
  EXPECT_NEAR(power.x[0], 1.0 / 3.0, 1e-10);
  EXPECT_NEAR(power.x[0], reference.x[0], 1e-10);
  EXPECT_NEAR(1.0 / (1.0 + power.x[0]), 0.75, 1e-10);
}

TEST(PowerIteration, RequiresSquareMatrix) {
  CsrBuilder builder(1, 2);
  builder.add(0, 1, 1.0);
  const CsrMatrix A = std::move(builder).build();
  EXPECT_THROW(solve_fixpoint_power(A, {1.0}), std::invalid_argument);
}

TEST(IterativeOptions, MaxIterationsRespected) {
  IterativeOptions options;
  options.method = FixpointMethod::kGaussSeidel;
  options.max_iterations = 1;
  options.tolerance = 0.0;  // unreachable
  const auto result = solve_fixpoint(gambler_matrix(), {0.3, 0.0}, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
}


// --- Krylov acceleration --------------------------------------------------

/// A stiff substochastic block: a long one-way chain with a strong "reset"
/// back to state 0 and a tiny leak to the (implicit) target — the shape of
/// the embedded DTMC of a patched attack chain. Gauss-Seidel needs thousands
/// of sweeps on it; BiCGSTAB a few dozen steps.
CsrMatrix stiff_block(size_t n, double leak) {
  CsrBuilder builder(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double forward = 1.0 - leak;
    if (i + 1 < n) {
      builder.add(i, i + 1, forward * 0.6);
      builder.add(i, 0, forward * 0.4);
    } else {
      builder.add(i, 0, forward);
    }
  }
  return std::move(builder).build();
}

TEST(SolveFixpointKrylov, MatchesGaussSeidelOnStiffSystem) {
  const CsrMatrix A = stiff_block(200, 1e-3);
  std::vector<double> b(200, 0.0);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 1e-3 * (1.0 + 0.001 * i);

  IterativeOptions gs;
  gs.method = FixpointMethod::kGaussSeidel;
  const auto reference = solve_fixpoint(A, b, gs);
  ASSERT_TRUE(reference.converged);

  IterativeOptions krylov;
  krylov.method = FixpointMethod::kKrylov;
  const auto accelerated = solve_fixpoint(A, b, krylov);
  ASSERT_TRUE(accelerated.converged);
  // Far fewer iterations (each Krylov step is two matvecs ~ two sweeps).
  EXPECT_LT(accelerated.iterations * 4, reference.iterations);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(accelerated.x[i], reference.x[i],
                1e-9 * std::max(1.0, std::abs(reference.x[i])))
        << i;
  }
}

TEST(SolveFixpointKrylov, DefaultAutoMethodAgreesWithBothBackends) {
  const CsrMatrix A = stiff_block(60, 1e-3);
  std::vector<double> b(60, 1e-3);
  const auto auto_result = solve_fixpoint(A, b);  // kAuto is the default
  IterativeOptions gs;
  gs.method = FixpointMethod::kGaussSeidel;
  const auto reference = solve_fixpoint(A, b, gs);
  ASSERT_TRUE(auto_result.converged);
  ASSERT_TRUE(reference.converged);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(auto_result.x[i], reference.x[i], 1e-9);
  }
}

TEST(SolveFixpointKrylov, ZeroRhsIsImmediatelyConverged) {
  const CsrMatrix A = stiff_block(10, 1e-3);
  const auto result = solve_fixpoint_krylov(A, std::vector<double>(10, 0.0));
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  for (const double v : result.x) EXPECT_EQ(v, 0.0);
}

TEST(SolveFixpointKrylov, SolvesSmallClosedFormSystem) {
  // Same gambler system as the Gauss-Seidel test above.
  CsrBuilder builder(2, 2);
  builder.add(0, 1, 0.7);
  builder.add(1, 0, 0.5);
  const auto result = solve_fixpoint_krylov(std::move(builder).build(), {0.3, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 6.0 / 13.0, 1e-10);
  EXPECT_NEAR(result.x[1], 3.0 / 13.0, 1e-10);
}

// --- fallback ladder under injected faults (util/fault.hpp) ---

TEST(FallbackLadder, ForcedKrylovBreakdownMatchesDirectGaussSeidel) {
  // A breakdown in rung 1 must hand the UNCHANGED problem to rung 2: the
  // ladder's Gauss-Seidel answer is bit-for-bit the direct Gauss-Seidel one.
  util::fault::disarm_all();
  IterativeOptions direct_options;
  direct_options.method = FixpointMethod::kGaussSeidel;
  const IterativeResult direct =
      solve_fixpoint(gambler_matrix(), {0.3, 0.0}, direct_options);
  ASSERT_TRUE(direct.converged);

  util::fault::arm_site("krylov.breakdown");
  const IterativeResult laddered = solve_fixpoint(gambler_matrix(), {0.3, 0.0});
  util::fault::disarm_all();

  ASSERT_TRUE(laddered.converged);
  ASSERT_EQ(laddered.attempts.size(), 2u);
  EXPECT_EQ(laddered.attempts[0].method, "krylov");
  EXPECT_TRUE(laddered.attempts[0].diverged);
  EXPECT_EQ(laddered.attempts[1].method, "gauss_seidel");
  EXPECT_TRUE(laddered.attempts[1].converged);
  ASSERT_EQ(laddered.x.size(), direct.x.size());
  for (size_t i = 0; i < direct.x.size(); ++i) {
    EXPECT_EQ(laddered.x[i], direct.x[i]) << "component " << i;
  }
  EXPECT_EQ(laddered.iterations, direct.iterations);
}

TEST(FallbackLadder, ForcedDoubleFaultReachesPowerRung) {
  util::fault::disarm_all();
  util::fault::arm_site("krylov.breakdown");
  util::fault::arm_site("gauss_seidel.diverge");
  const IterativeResult result = solve_fixpoint(gambler_matrix(), {0.3, 0.0});
  util::fault::disarm_all();

  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.attempts.size(), 3u);
  EXPECT_EQ(result.attempts[2].method, "power");
  EXPECT_TRUE(result.attempts[2].converged);
  EXPECT_NEAR(result.x[0], 6.0 / 13.0, 1e-10);
  EXPECT_NEAR(result.x[1], 3.0 / 13.0, 1e-10);
}

TEST(FallbackLadder, AllRungsFaultedReportsFullDiagnostics) {
  util::fault::disarm_all();
  util::fault::arm_site("krylov.breakdown");
  util::fault::arm_site("gauss_seidel.diverge");
  util::fault::arm_site("power.diverge");
  const IterativeResult result = solve_fixpoint(gambler_matrix(), {0.3, 0.0});
  util::fault::disarm_all();

  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.diverged);
  ASSERT_EQ(result.attempts.size(), 3u);
  for (const RungAttempt& attempt : result.attempts) {
    EXPECT_FALSE(attempt.converged) << attempt.method;
    EXPECT_TRUE(attempt.diverged) << attempt.method;
  }
}

}  // namespace
}  // namespace autosec::linalg
