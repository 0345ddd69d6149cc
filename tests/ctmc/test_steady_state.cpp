#include "ctmc/steady_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ctmc_test_helpers.hpp"
#include "linalg/vector_ops.hpp"
#include "symbolic/explorer.hpp"
#include "testing/oracle.hpp"
#include "testing/random_model.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"

namespace autosec::ctmc {
namespace {

using testing::start_in;
using testing::two_state;

TEST(Stationary, PaperEq15) {
  // The paper's worked steady-state solution (Eq. 15):
  // pi = (0.96296, 0.036338, 0.000699).
  const Ctmc chain = testing::figure3_chain();
  const auto pi = stationary_distribution(chain);
  EXPECT_NEAR(pi[0], 0.96296, 5e-6);
  EXPECT_NEAR(pi[1], 0.036338, 5e-7);
  EXPECT_NEAR(pi[2], 0.000699, 5e-7);
  EXPECT_NEAR(linalg::sum(pi), 1.0, 1e-12);
}

TEST(Stationary, SatisfiesBalanceEquations) {
  const Ctmc chain = testing::figure3_chain(1.3, 0.7, 11.0, 5.0);
  const auto pi = stationary_distribution(chain);
  const linalg::CsrMatrix Q = chain.generator();
  std::vector<double> residual(3, 0.0);
  Q.left_multiply(pi, residual);
  for (double r : residual) EXPECT_NEAR(r, 0.0, 1e-9);
}

TEST(Stationary, RejectsReducibleChain) {
  const Ctmc chain = two_state(1.0, 0.0);  // state 1 absorbing
  EXPECT_THROW(stationary_distribution(chain), std::invalid_argument);
}

TEST(Stationary, TwoStateChain) {
  const auto pi = stationary_distribution(two_state(2.0, 6.0));
  // pi = (b, a) / (a+b).
  EXPECT_NEAR(pi[0], 0.75, 1e-10);
  EXPECT_NEAR(pi[1], 0.25, 1e-10);
}

TEST(Stationary, SingleStateIsPointMass) {
  linalg::CsrBuilder builder(1, 1);
  const auto pi = stationary_distribution(Ctmc(std::move(builder).build()));
  ASSERT_EQ(pi.size(), 1u);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

TEST(Stationary, ThreeStateCycle) {
  // 0 -> 1 -> 2 -> 0 with unit rates: uniform stationary distribution.
  linalg::CsrBuilder builder(3, 3);
  for (uint32_t i = 0; i < 3; ++i) builder.add(i, (i + 1) % 3, 1.0);
  const auto pi = stationary_distribution(Ctmc(std::move(builder).build()));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(pi[i], 1.0 / 3.0, 1e-10);
}

TEST(Stationary, StateWithoutExitRateThrows) {
  // 0 <-> 1 -> 2 and state 2 has no exit: no single BSCC covers the chain.
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 2, 1.0);
  EXPECT_THROW(stationary_distribution(Ctmc(std::move(builder).build())),
               std::invalid_argument);
}

TEST(SteadyState, IrreducibleMatchesStationary) {
  const Ctmc chain = testing::figure3_chain();
  const auto result = steady_state(chain, start_in(3, 0));
  const auto pi = stationary_distribution(chain);
  EXPECT_EQ(result.bscc_count, 1u);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(result.distribution[i], pi[i], 1e-9);
}

TEST(SteadyState, SingleAbsorbingState) {
  const Ctmc chain = two_state(3.0, 0.0);
  const auto result = steady_state(chain, start_in(2, 0));
  EXPECT_EQ(result.bscc_count, 1u);
  EXPECT_NEAR(result.distribution[0], 0.0, 1e-12);
  EXPECT_NEAR(result.distribution[1], 1.0, 1e-12);
}

TEST(SteadyState, TwoAbsorbingStatesSplitByBranchRates) {
  // 0 --2--> 1, 0 --6--> 2: absorption probabilities 0.25 / 0.75.
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 2.0);
  builder.add(0, 2, 6.0);
  const Ctmc chain(std::move(builder).build());
  const auto result = steady_state(chain, start_in(3, 0));
  EXPECT_EQ(result.bscc_count, 2u);
  EXPECT_NEAR(result.distribution[1] + result.distribution[2], 1.0, 1e-10);
  EXPECT_NEAR(result.distribution[1], 0.25, 1e-10);
  EXPECT_NEAR(result.distribution[2], 0.75, 1e-10);
}

TEST(SteadyState, TransientCycleBeforeAbsorption) {
  // 0 <-> 1 transient pair; 1 --> 2 (absorbing).
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 2, 1.0);
  const Ctmc chain(std::move(builder).build());
  const auto result = steady_state(chain, start_in(3, 0));
  EXPECT_EQ(result.bscc_count, 1u);
  EXPECT_NEAR(result.distribution[2], 1.0, 1e-9);
}

TEST(SteadyState, MultiStateBsccGetsInternalStationary) {
  // 0 --> {1 <-> 2} with asymmetric internal rates 4 (1->2) and 1 (2->1):
  // conditional stationary = (0.2, 0.8).
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 1.0);
  builder.add(1, 2, 4.0);
  builder.add(2, 1, 1.0);
  const Ctmc chain(std::move(builder).build());
  const auto result = steady_state(chain, start_in(3, 0));
  EXPECT_NEAR(result.distribution[1], 0.2, 1e-9);
  EXPECT_NEAR(result.distribution[2], 0.8, 1e-9);
}

TEST(SteadyState, ZeroRateEdgeOutOfBsccIsIgnored) {
  // Ctmc accepts explicit zero rates and the SCC pass ignores them, so
  // {0, 1} is a BSCC even though row 1 stores an entry into state 2.
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 1, 3.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 2, 0.0);
  const Ctmc chain(std::move(builder).build());
  const auto result = steady_state(chain, start_in(3, 0));
  EXPECT_EQ(result.bscc_count, 2u);
  EXPECT_NEAR(result.distribution[0], 0.25, 1e-12);
  EXPECT_NEAR(result.distribution[1], 0.75, 1e-12);
  EXPECT_EQ(result.distribution[2], 0.0);
}

TEST(SteadyState, InitialDistributionInsideBsccIsRespected) {
  // Two disconnected absorbing states; start 30/70 mixed.
  linalg::CsrBuilder builder(2, 2);
  const Ctmc chain(std::move(builder).build());
  const auto result = steady_state(chain, {0.3, 0.7});
  EXPECT_NEAR(result.distribution[0], 0.3, 1e-12);
  EXPECT_NEAR(result.distribution[1], 0.7, 1e-12);
  EXPECT_EQ(result.bscc_count, 2u);
  EXPECT_NEAR(result.bscc_probability[0] + result.bscc_probability[1], 1.0, 1e-12);
}

TEST(SteadyState, DistributionSizeChecked) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(steady_state(chain, {1.0}), std::invalid_argument);
}

TEST(SteadyState, RejectsNegativeProbabilities) {
  // Regression: steady_state used to check only the size of the initial
  // distribution, silently accepting values transient_distribution rejects.
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(steady_state(chain, {1.5, -0.5}), std::invalid_argument);
}

TEST(SteadyState, RejectsMassAboveOne) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(steady_state(chain, {0.7, 0.7}), std::invalid_argument);
}

TEST(SteadyState, AcceptsSubdistributions) {
  // Sub-stochastic initial vectors are legal, exactly as in transient
  // analysis (interval-bounded CSL restricts mass between phases).
  const Ctmc chain = two_state(1.0, 1.0);
  const auto result = steady_state(chain, {0.5, 0.0});
  EXPECT_NEAR(result.distribution[0] + result.distribution[1], 0.5, 1e-9);
}

/// The 36-state chain of random model seed 56 (the seed `autosec-verify
/// --seed 56` draws): one BSCC covering every state, and state 0 carries
/// about 1e-6 of the long-run mass while state 33 carries 0.58. With state 0
/// as the visit-measure reference, ν reaches 5e4 and the Gauss-Seidel rung
/// stalls at Δ≈5e-7 for a million sweeps; the in-flow reference settles it
/// in a few dozen.
Ctmc light_first_state_chain() {
  const auto compiled = std::make_shared<const symbolic::CompiledModel>(
      symbolic::compile(::autosec::testing::random_model(56)));
  return symbolic::explore(compiled).to_ctmc();
}

TEST(SteadyState, LightLowestStateMatchesOracleUnderEveryMethod) {
  const Ctmc chain = light_first_state_chain();
  const std::vector<double> initial = start_in(chain.state_count(), 0);
  const std::vector<double> expected =
      ::autosec::testing::oracle_steady_state(chain, initial);
  // The shape under test: a light state 0 inside a single BSCC.
  ASSERT_LT(expected[0], 1e-5);
  ASSERT_GT(*std::max_element(expected.begin(), expected.end()), 0.1);
  // Once under the default ladder (the Krylov rung answers), once with
  // krylov.breakdown armed so the Gauss-Seidel rung answers.
  for (const bool krylov_breakdown : {false, true}) {
    util::fault::disarm_all();
    if (krylov_breakdown) util::fault::arm_site("krylov.breakdown");
    const SteadyStateResult result = steady_state(chain, initial);
    util::fault::disarm_all();
    EXPECT_EQ(result.bscc_count, 1u);
    EXPECT_EQ(result.solver_fallbacks, krylov_breakdown ? 1u : 0u);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(result.distribution[i], expected[i], 1e-10)
          << (krylov_breakdown ? "gauss_seidel" : "krylov") << " rung, state " << i;
    }
  }
}

/// A 25-state ring with three shortcuts: one BSCC whose embedded chain is
/// nearly a permutation, so the visit-measure right-hand side has one or two
/// nonzeros and BiCGSTAB's first shadow residual (r̂ = b) soon turns
/// orthogonal to the residual.
Ctmc ring_with_shortcuts() {
  constexpr size_t kStates = 25;
  linalg::CsrBuilder builder(kStates, kStates);
  for (size_t i = 0; i < kStates; ++i) {
    builder.add(i, (i + 1) % kStates, 1.0 + 0.5 * static_cast<double>(i % 5));
  }
  for (const size_t i : {3u, 11u, 19u}) builder.add(i, (i + 7) % kStates, 0.3);
  return Ctmc(std::move(builder).build());
}

TEST(SteadyState, RingBsccSolvesOnTheKrylovRung) {
  const Ctmc chain = ring_with_shortcuts();
  const std::vector<double> initial = start_in(chain.state_count(), 0);
  const std::vector<double> expected =
      ::autosec::testing::oracle_steady_state(chain, initial);
  // The first rung settles it: no fallback to Gauss-Seidel.
  const SteadyStateResult automatic = steady_state(chain, initial);
  EXPECT_EQ(automatic.bscc_count, 1u);
  EXPECT_EQ(automatic.solver_fallbacks, 0u);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(automatic.distribution[i], expected[i], 1e-10) << "state " << i;
  }
}

TEST(FallbackLadder, KrylovBreakdownInSteadyStateFallsBackToSameAnswer) {
  const Ctmc chain = testing::figure3_chain(1.3, 0.7, 11.0, 5.0);
  util::fault::disarm_all();
  const SteadyStateResult clean = steady_state(chain, start_in(3, 0));
  EXPECT_EQ(clean.solver_fallbacks, 0u);

  util::fault::arm_site("krylov.breakdown");
  const SteadyStateResult laddered = steady_state(chain, start_in(3, 0));
  util::fault::disarm_all();
  EXPECT_GE(laddered.solver_fallbacks, 1u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(laddered.distribution[i], clean.distribution[i], 1e-10) << i;
  }
}

TEST(FallbackLadder, StationaryFaultReportsDivergedNotWrongAnswer) {
  // Both rungs faulted: the stationary solve must unwind as a typed
  // solver_diverged failure at stage steady_state, never return a
  // distribution.
  const Ctmc chain = testing::figure3_chain();
  util::fault::disarm_all();
  util::fault::arm_site("krylov.breakdown");
  util::fault::arm_site("gauss_seidel.diverge");
  try {
    steady_state(chain, start_in(3, 0));
    util::fault::disarm_all();
    FAIL() << "steady_state returned although every rung was faulted";
  } catch (const util::EngineFailure& failure) {
    util::fault::disarm_all();
    EXPECT_EQ(failure.code(), util::FailureCode::kSolverDiverged);
    EXPECT_EQ(failure.stage(), "steady_state");
  }
}

class SteadyStateRates : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SteadyStateRates, TwoStateClosedForm) {
  const auto [a, b] = GetParam();
  const Ctmc chain = two_state(a, b);
  const auto result = steady_state(chain, start_in(2, 0));
  EXPECT_NEAR(result.distribution[0], b / (a + b), 1e-9);
  EXPECT_NEAR(result.distribution[1], a / (a + b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RateGrid, SteadyStateRates,
                         ::testing::Combine(::testing::Values(0.1, 1.9, 52.0),
                                            ::testing::Values(0.2, 4.0, 52.0)));

}  // namespace
}  // namespace autosec::ctmc
