// The lumped checking path must agree with the direct session on every
// property kind, while shrinking symmetric state spaces.
#include "csl/lumped.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "automotive/analyzer.hpp"
#include "automotive/casestudy.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// K interchangeable sensor modules feeding one alarm condition; heavily
/// lumpable (only the count matters).
symbolic::Model sensor_farm(int k) {
  symbolic::ModelBuilder builder;
  std::vector<Expr> hot_terms;
  for (int i = 0; i < k; ++i) {
    const std::string var = "s" + std::to_string(i);
    auto& module = builder.module("sensor" + std::to_string(i));
    module.variable(var, 0, 1, 0);
    module.command(Expr::ident(var) == Expr::literal(0), Expr::literal(2.0),
                   {{var, Expr::literal(1)}});
    module.command(Expr::ident(var) == Expr::literal(1), Expr::literal(5.0),
                   {{var, Expr::literal(0)}});
    hot_terms.push_back(Expr::ident(var) == Expr::literal(1));
  }
  builder.label("any_hot", symbolic::any_of(hot_terms));
  Expr count = Expr::literal(0);
  for (int i = 0; i < k; ++i) {
    count = std::move(count) + Expr::ident("s" + std::to_string(i));
  }
  builder.label("all_hot", count == Expr::literal(static_cast<int64_t>(k)));
  builder.state_reward("hot_count", Expr::literal(true), count);
  return builder.build();
}

class LumpedFixture : public ::testing::Test {
 protected:
  LumpedFixture() : space_(symbolic::explore(symbolic::compile(sensor_farm(5)))) {}
  symbolic::StateSpace space_;
};

TEST_F(LumpedFixture, ReducesSymmetricFarmToCountChain) {
  const auto result = check_lumped(space_, "P=? [ F<=1 \"all_hot\" ]");
  EXPECT_EQ(result.original_states, 32u);
  EXPECT_EQ(result.lumped_states, 6u);  // count 0..5
  EXPECT_GT(result.reduction_factor(), 5.0);
}

TEST_F(LumpedFixture, AgreesOnAllPropertyKinds) {
  EngineSession direct(std::make_shared<const symbolic::StateSpace>(space_));
  for (const char* property : {
           "P=? [ F<=0.5 \"all_hot\" ]",
           "P=? [ F \"all_hot\" ]",
           "P=? [ G<=0.5 \"any_hot\" ]",
           "P=? [ !\"all_hot\" U<=1 \"all_hot\" ]",
           "S=? [ \"any_hot\" ]",
           "R{\"hot_count\"}=? [ C<=1 ]",
           "R{\"hot_count\"}=? [ I=0.3 ]",
           "R{\"hot_count\"}=? [ S ]",
           "R{\"hot_count\"}=? [ F \"all_hot\" ]",
       }) {
    const double expected = direct.check(property);
    const auto lumped = check_lumped(space_, property);
    EXPECT_NEAR(lumped.value, expected, 1e-8) << property;
    EXPECT_LT(lumped.lumped_states, lumped.original_states) << property;
  }
}

TEST_F(LumpedFixture, TimeBoundsFromConstantsWork) {
  // sensor_farm has no constants; use an automotive model which has many.
  const automotive::Architecture arch =
      automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted);
  automotive::AnalysisOptions options;
  options.nmax = 1;
  const automotive::SecurityAnalysis analysis(
      arch, automotive::casestudy::kMessage,
      automotive::SecurityCategory::kConfidentiality, options);
  const double direct = analysis.check("R{\"exposure\"}=? [ C<=1 ]");
  const auto lumped = check_lumped(analysis.space(), "R{\"exposure\"}=? [ C<=1 ]");
  EXPECT_NEAR(lumped.value, direct, 1e-9);
}

TEST_F(LumpedFixture, CaseStudyModelsLumpAndAgree) {
  // The case-study interfaces have distinct rates, so reduction is modest,
  // but correctness must hold regardless.
  for (int which = 1; which <= 3; ++which) {
    const automotive::Architecture arch = automotive::casestudy::architecture(
        which, automotive::Protection::kAes128);
    automotive::AnalysisOptions options;
    options.nmax = 1;
    const automotive::SecurityAnalysis analysis(
        arch, automotive::casestudy::kMessage,
        automotive::SecurityCategory::kConfidentiality, options);
    const double direct = analysis.check("P=? [ F<=1 \"violated\" ]");
    const auto lumped = check_lumped(analysis.space(), "P=? [ F<=1 \"violated\" ]");
    EXPECT_NEAR(lumped.value, direct, 1e-9) << "architecture " << which;
    EXPECT_LE(lumped.lumped_states, lumped.original_states);
  }
}

TEST_F(LumpedFixture, MeanTimeToBreachAgrees) {
  const automotive::Architecture arch =
      automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted);
  automotive::AnalysisOptions options;
  options.nmax = 1;
  const automotive::SecurityAnalysis analysis(
      arch, automotive::casestudy::kMessage,
      automotive::SecurityCategory::kConfidentiality, options);
  const double direct = analysis.check("R{\"time\"}=? [ F \"violated\" ]");
  const auto lumped = check_lumped(analysis.space(), "R{\"time\"}=? [ F \"violated\" ]");
  EXPECT_NEAR(lumped.value, direct, 1e-8);
  EXPECT_GT(direct, 0.0);
}

/// Three interchangeable nodes behind a counting gateway, with a label the
/// symmetry detector verifies as invariant.
symbolic::Model replicated_nodes() {
  symbolic::ModelBuilder builder;
  auto& gw = builder.module("gw");
  gw.variable("g", 0, 2, 0);
  gw.command(Expr::ident("g") < Expr::literal(2), Expr::literal(1.0),
             {{"g", Expr::ident("g") + Expr::literal(1)}});
  Expr any = Expr::literal(false);
  for (int i = 1; i <= 3; ++i) {
    const std::string x = "x" + std::to_string(i);
    auto& node = builder.module("node" + std::to_string(i));
    node.variable(x, 0, 1, 0);
    node.command(Expr::ident(x) == Expr::literal(0), Expr::literal(2.0),
                 {{x, Expr::literal(1)}});
    node.command(Expr::ident(x) == Expr::literal(1), Expr::literal(3.0),
                 {{x, Expr::literal(0)}});
    any = any || (Expr::ident(x) == Expr::literal(1));
  }
  builder.label("any_up", any);
  return builder.build();
}

TEST(LumpedReduced, NonInvariantFormulaFailsLikeTheDirectSession) {
  // On a symmetry-reduced space the quotient keeps the space's symmetry, so
  // a formula naming one node is rejected with the same typed error the
  // direct session raises — never answered at an arbitrary representative.
  symbolic::ExploreOptions options;
  options.reduction = symbolic::SymmetryReduction::kOn;
  const auto space = std::make_shared<const symbolic::StateSpace>(
      symbolic::explore(symbolic::compile(replicated_nodes()), options));
  ASSERT_TRUE(space->reduced());
  const char* asymmetric = "P=? [ F<=1 x1=1 ]";
  std::string direct_error;
  try {
    EngineSession(space).check(asymmetric);
    FAIL() << "expected the direct session to reject " << asymmetric;
  } catch (const symbolic::ModelError& error) {
    direct_error = error.what();
  }
  EXPECT_NE(direct_error.find("not invariant"), std::string::npos) << direct_error;
  try {
    check_lumped(*space, asymmetric);
    FAIL() << "expected check_lumped to reject " << asymmetric;
  } catch (const symbolic::ModelError& error) {
    EXPECT_EQ(std::string(error.what()), direct_error);
  }
  // A symmetric property still agrees with the direct session.
  const char* symmetric = "P=? [ F<=1 \"any_up\" ]";
  EXPECT_NEAR(check_lumped(*space, symmetric).value,
              EngineSession(space).check(symmetric), 1e-10);
}

}  // namespace
}  // namespace autosec::csl
