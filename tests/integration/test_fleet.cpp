// The committed fleet examples are the compact engine's scaling workload:
// dozens of interchangeable node ECUs whose full state space does not fit a
// modest state budget but which the compact engine (bit-packed states +
// on-the-fly symmetry reduction) collapses to a few hundred states. This is
// the acceptance scenario of the reduction layer, pinned as a test.
#include <gtest/gtest.h>

#include <cstdlib>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "util/failure.hpp"

namespace autosec::automotive {
namespace {

std::string example_path(const std::string& name) {
  if (const char* root = std::getenv("AUTOSEC_EXAMPLES_DIR")) {
    return std::string(root) + "/" + name;
  }
  return std::string(AUTOSEC_SOURCE_DIR) + "/examples/" + name;
}

/// Compact engine options; `reduced` picks the symmetry-reduced quotient or
/// the full state space.
AnalysisOptions fleet_options(bool reduced, size_t max_states) {
  AnalysisOptions options;
  options.nmax = 1;
  options.plan.engine = symbolic::ExplorationEngine::kCompact;
  options.plan.reduction =
      reduced ? symbolic::SymmetryReduction::kAuto : symbolic::SymmetryReduction::kOff;
  options.explore.max_states = max_states;
  return options;
}

TEST(Fleet, CommittedExamplesLoadAndValidate) {
  const Architecture small = load_architecture_file(example_path("fleet_20ecu.arch"));
  const Architecture large = load_architecture_file(example_path("fleet_50ecu.arch"));
  EXPECT_EQ(small.ecus.size(), 21u);  // GW + 20 nodes
  EXPECT_EQ(large.ecus.size(), 51u);
  EXPECT_EQ(small.messages.size(), 1u);
  EXPECT_EQ(large.messages.size(), 1u);
  EXPECT_NO_THROW(small.validate());
  EXPECT_NO_THROW(large.validate());
}

TEST(Fleet, UnreducedSpaceExceedsBudgetWhereReducedFits) {
  const Architecture arch = load_architecture_file(example_path("fleet_20ecu.arch"));
  constexpr size_t kBudget = 100'000;

  // Reduction off: the 20-node fleet's full space dwarfs the ceiling.
  try {
    const SecurityAnalysis analysis(arch, "m1", SecurityCategory::kConfidentiality,
                                    fleet_options(false, kBudget));
    analysis.check("P=? [ F<=1 \"violated\" ]");
    FAIL() << "expected the unreduced space to exceed the state budget";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
    ASSERT_TRUE(failure.progress().limit.has_value());
    EXPECT_EQ(*failure.progress().limit, kBudget);
  }

  // Compact with reduction auto (which enables the symmetry reduction): a
  // few hundred states, well inside the same budget.
  const SecurityAnalysis analysis(arch, "m1", SecurityCategory::kConfidentiality,
                                  fleet_options(true, kBudget));
  const double breach = analysis.check("P=? [ F<=1 \"violated\" ]");
  EXPECT_GT(breach, 0.0);
  EXPECT_LE(breach, 1.0);
  EXPECT_STREQ(analysis.space().engine_name(), "compact");
  EXPECT_TRUE(analysis.space().reduced());
  EXPECT_LT(analysis.space().state_count(), 1'000u);
}

TEST(Fleet, FiftyEcuFleetExploresCompactly) {
  const Architecture arch = load_architecture_file(example_path("fleet_50ecu.arch"));
  const SecurityAnalysis analysis(arch, "m1", SecurityCategory::kConfidentiality,
                                  fleet_options(true, 100'000));
  const double breach = analysis.check("P=? [ F<=1 \"violated\" ]");
  EXPECT_GT(breach, 0.0);
  EXPECT_LE(breach, 1.0);
  EXPECT_TRUE(analysis.space().reduced());
  EXPECT_LT(analysis.space().state_count(), 1'000u);
}

TEST(Fleet, EnginesAgreeOnASmallFleet) {
  // On a fleet small enough for the full space, the reduced answer matches
  // the full-space answer (ordinary lumping is exact; the quotient only
  // reorders the floating-point accumulation).
  const Architecture arch = load_architecture_file(example_path("fleet_20ecu.arch"));
  Architecture small = arch;
  small.ecus.resize(8);  // GW + 7 nodes keeps the full space tractable
  small.validate();

  const SecurityAnalysis full(small, "m1", SecurityCategory::kConfidentiality,
                              fleet_options(false, 2'000'000));
  const SecurityAnalysis reduced(small, "m1", SecurityCategory::kConfidentiality,
                                 fleet_options(true, 2'000'000));
  EXPECT_FALSE(full.space().reduced());
  EXPECT_TRUE(reduced.space().reduced());
  EXPECT_LT(reduced.space().state_count(), full.space().state_count());
  for (const char* property :
       {"P=? [ F<=1 \"violated\" ]", "S=? [ \"violated\" ]",
        "R{\"exposure\"}=? [ C<=1 ]"}) {
    EXPECT_NEAR(full.check(property), reduced.check(property), 1e-8)
        << property;
  }
}

}  // namespace
}  // namespace autosec::automotive
