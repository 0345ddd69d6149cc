#include "automotive/diagnostics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <algorithm>
#include <memory>

#include "automotive/casestudy.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/metrics.hpp"

namespace autosec::automotive {
namespace {

namespace cs = casestudy;

AnalysisOptions fast_options() {
  AnalysisOptions options;
  options.nmax = 1;
  return options;
}

/// The pair session diagnose runs on; nothing is explored yet.
std::shared_ptr<csl::EngineSession> pair_session(
    const Architecture& architecture, SecurityCategory category,
    const AnalysisOptions& options = fast_options()) {
  return make_pair_session(architecture, cs::kMessage, category, options).session;
}

std::vector<Criticality> criticality_of(Protection protection,
                                        const AnalysisOptions& options = fast_options()) {
  return criticality_analysis(
      *pair_session(cs::architecture(1, protection), SecurityCategory::kConfidentiality,
                    options),
      options.horizon_years);
}

BreachAttributionResult attribution_of(const Architecture& architecture,
                                       SecurityCategory category) {
  return first_breach_attribution(*pair_session(architecture, category), architecture,
                                  1.0);
}

double quantile_of(const SecurityAnalysis& analysis, double level,
                   double max_years = 100.0) {
  return breach_time_quantiles(*analysis.session(), std::vector<double>{level},
                               max_years)[0];
}

TEST(Criticality, CoversEveryRateConstant) {
  const auto result = criticality_of(Protection::kUnencrypted);
  // Arch 1: 6 interface etas + 4 ECU phis = 10 rate constants.
  EXPECT_EQ(result.size(), 10u);
  // Sorted by |elasticity| descending.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(std::abs(result[i - 1].elasticity), std::abs(result[i].elasticity));
  }
}

TEST(Criticality, SignsMatchRateSemantics) {
  const auto result = criticality_of(Protection::kUnencrypted);
  for (const Criticality& c : result) {
    if (c.constant.rfind("phi_", 0) == 0) {
      EXPECT_LE(c.elasticity, 1e-9) << c.constant;  // patching reduces exposure
    }
    if (c.constant.rfind("eta_", 0) == 0) {
      EXPECT_GE(c.elasticity, -1e-9) << c.constant;  // exploits increase it
    }
  }
}

TEST(Criticality, EntryPointDominates) {
  // The 3G uplink eta and the 3G patch rate must be among the most critical
  // constants in Architecture 1 — the paper's Fig. 6 picked them for a
  // reason.
  const auto result = criticality_of(Protection::kUnencrypted);
  ASSERT_GE(result.size(), 3u);
  const std::vector<std::string> top = {result[0].constant, result[1].constant,
                                        result[2].constant};
  const bool has_3g = std::find(top.begin(), top.end(), "eta_3g_net") != top.end() ||
                      std::find(top.begin(), top.end(), "phi_3g") != top.end();
  EXPECT_TRUE(has_3g) << "top-3: " << top[0] << ", " << top[1] << ", " << top[2];
}

TEST(Criticality, BaseValuesMatchTable2) {
  const auto result = criticality_of(Protection::kUnencrypted);
  for (const Criticality& c : result) {
    if (c.constant == "phi_3g") {
      EXPECT_DOUBLE_EQ(c.base_value, 52.0);
    }
    if (c.constant == "eta_3g_net") {
      EXPECT_DOUBLE_EQ(c.base_value, 1.9);
    }
    if (c.constant == "phi_pa") {
      EXPECT_DOUBLE_EQ(c.base_value, 12.0);
    }
  }
}

TEST(Criticality, AesModelIncludesMessageEta) {
  const auto result = criticality_of(Protection::kAes128);
  const bool has_msg =
      std::any_of(result.begin(), result.end(),
                  [](const Criticality& c) { return c.constant == "eta_msg"; });
  EXPECT_TRUE(has_msg);
  // phi_msg is 0 (Table 2 "-"): must be skipped, not perturbed.
  const bool has_phi_msg =
      std::any_of(result.begin(), result.end(),
                  [](const Criticality& c) { return c.constant == "phi_msg"; });
  EXPECT_FALSE(has_phi_msg);
}

TEST(Criticality, OneSessionExploresEachPerturbedValueOnce) {
  const auto session =
      pair_session(cs::architecture(1, Protection::kUnencrypted),
                   SecurityCategory::kConfidentiality);
  const auto result = criticality_analysis(*session, 1.0);
  ASSERT_FALSE(result.empty());
  // The base model (its constant table) plus two perturbed values per rate.
  EXPECT_EQ(session->stats().explore_count, 2 * result.size() + 1);
  EXPECT_EQ(session->stats().engine, "compact");
  // The session ends on the base key with its stages cached ...
  EXPECT_TRUE(session->options().constant_overrides.empty());
  session->check(exposure_property(1.0));
  EXPECT_EQ(session->stats().explore_count, 2 * result.size() + 1);
  // ... and each perturbed stage set was dropped once read: a second run
  // explores every perturbed value again, the base not at all.
  criticality_analysis(*session, 1.0);
  EXPECT_EQ(session->stats().explore_count, 4 * result.size() + 1);
}

TEST(Criticality, PerturbationsLeaveOtherCachedKeysInPlace) {
  const auto session =
      pair_session(cs::architecture(1, Protection::kUnencrypted),
                   SecurityCategory::kConfidentiality);
  const std::vector<std::pair<std::string, symbolic::Value>> swept = {
      {"phi_gw", symbolic::Value::of(8.0)}};
  session->set_constant_overrides(swept);
  const double before = session->check(exposure_property(1.0));
  session->set_constant_overrides({});
  criticality_analysis(*session, 1.0);
  const size_t explores = session->stats().explore_count;
  session->set_constant_overrides(swept);
  EXPECT_EQ(session->check(exposure_property(1.0)), before);
  EXPECT_EQ(session->stats().explore_count, explores);
}

TEST(Criticality, PerturbedStageSetsHandTheirBudgetChargeBack) {
  AnalysisOptions options = fast_options();
  options.budget = std::make_shared<util::ResourceBudget>(0, 0);  // meter only
  const auto session = pair_session(cs::architecture(1, Protection::kUnencrypted),
                                    SecurityCategory::kConfidentiality, options);
  session->space();
  const size_t base = options.budget->charged_bytes();
  criticality_analysis(*session, 1.0);
  // Only the base stage set stays charged; each perturbed set was charged
  // while it was built, then handed back with its drop.
  EXPECT_EQ(options.budget->charged_bytes(), base);
  EXPECT_GT(options.budget->peak_bytes(), base);
}

TEST(Criticality, StateBudgetBindsThePerturbedExplores) {
  AnalysisOptions options;
  options.nmax = 2;
  options.budget = std::make_shared<util::ResourceBudget>(100);
  try {
    criticality_of(Protection::kUnencrypted, options);
    FAIL() << "expected state_budget_exceeded";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
    ASSERT_TRUE(failure.progress().limit.has_value());
    EXPECT_EQ(*failure.progress().limit, 100u);
  }
}

TEST(Criticality, CancelledTokenStopsBeforeAnyWork) {
  AnalysisOptions options = fast_options();
  options.cancel = std::make_shared<util::CancelToken>();
  options.cancel->cancel();
  EXPECT_THROW(criticality_of(Protection::kUnencrypted, options), util::Cancelled);
}

TEST(BreachAttribution, TotalMatchesBreachProbability) {
  const Architecture arch = cs::architecture(1, Protection::kUnencrypted);
  const auto attribution = attribution_of(arch, SecurityCategory::kConfidentiality);
  const AnalysisResult result = analyze_message(
      arch, cs::kMessage, SecurityCategory::kConfidentiality, fast_options());
  EXPECT_NEAR(attribution.total_breach_probability, result.breach_probability, 1e-9);
}

TEST(BreachAttribution, TelematicsIsTheDoorInArchitecture1) {
  const auto attribution = attribution_of(cs::architecture(1, Protection::kUnencrypted),
                                          SecurityCategory::kConfidentiality);
  ASSERT_FALSE(attribution.attributions.empty());
  EXPECT_EQ(attribution.attributions[0].component, cs::kTelematics);
  // Nearly every first breach involves the compromised telematics unit.
  EXPECT_GT(attribution.attributions[0].probability,
            0.9 * attribution.total_breach_probability);
}

TEST(BreachAttribution, SharesAreProbabilities) {
  const auto attribution = attribution_of(cs::architecture(2, Protection::kAes128),
                                          SecurityCategory::kIntegrity);
  for (const BreachAttribution& a : attribution.attributions) {
    EXPECT_GT(a.probability, 0.0);
    EXPECT_LE(a.probability, attribution.total_breach_probability + 1e-12);
  }
}

TEST(BreachAttribution, GuardianShowsUpInArchitecture3) {
  const auto attribution = attribution_of(cs::architecture(3, Protection::kUnencrypted),
                                          SecurityCategory::kAvailability);
  const bool has_guardian = std::any_of(
      attribution.attributions.begin(), attribution.attributions.end(),
      [](const BreachAttribution& a) { return a.component == "guardian FR"; });
  EXPECT_TRUE(has_guardian);
}

TEST(BreachAttribution, ProtectionAttributedWhenBroken) {
  // Force an extreme message eta so the protection is essentially always the
  // first thing to fall once the bus is exploitable.
  Architecture arch = cs::architecture(1, Protection::kAes128);
  arch.messages[0].rates_override =
      ProtectionRates{.integrity_eta = 1.2, .confidentiality_eta = 10000.0};
  const auto attribution = attribution_of(arch, SecurityCategory::kConfidentiality);
  const bool has_protection = std::any_of(
      attribution.attributions.begin(), attribution.attributions.end(),
      [](const BreachAttribution& a) { return a.component == "protection"; });
  EXPECT_TRUE(has_protection);
}

TEST(BreachQuantile, MatchesBoundedReachabilityInversion) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  const double median = quantile_of(analysis, 0.5);
  ASSERT_TRUE(std::isfinite(median));
  // Invert: the breach probability at the median must be ~0.5.
  const double p = analysis.check(
      "P=? [ F<=" + std::to_string(median) + " \"violated\" ]");
  EXPECT_NEAR(p, 0.5, 1e-3);
}

TEST(BreachQuantile, MonotoneInQuantile) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  const double q25 = quantile_of(analysis, 0.25);
  const double q50 = quantile_of(analysis, 0.5);
  const double q95 = quantile_of(analysis, 0.95);
  EXPECT_LT(q25, q50);
  EXPECT_LT(q50, q95);
}

TEST(BreachQuantile, ArchitectureOrdering) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis arch1(cs::architecture(1, Protection::kUnencrypted),
                               cs::kMessage, SecurityCategory::kConfidentiality,
                               options);
  const SecurityAnalysis arch3(cs::architecture(3, Protection::kUnencrypted),
                               cs::kMessage, SecurityCategory::kConfidentiality,
                               options);
  EXPECT_GT(quantile_of(arch3, 0.5), 3.0 * quantile_of(arch1, 0.5));
}

TEST(BreachQuantile, InfiniteWhenUnreachableWithinMax) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(3, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  // Tiny max horizon: even arch 3's first breach usually takes years.
  EXPECT_TRUE(std::isinf(quantile_of(analysis, 0.99, /*max_years=*/0.001)));
}

TEST(BreachQuantile, InvalidArgumentsRejected) {
  AnalysisOptions options;
  options.nmax = 1;
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  options);
  EXPECT_THROW(quantile_of(analysis, 0.0), std::invalid_argument);
  EXPECT_THROW(quantile_of(analysis, 1.0), std::invalid_argument);
  EXPECT_THROW(quantile_of(analysis, 0.5, -1.0), std::invalid_argument);
}

TEST(BreachQuantile, StopsAtTheRequestDeadline) {
  // The deadline is armed only once the space is built, so exploration
  // cannot be what notices it: the bisection's transient solves must poll.
  AnalysisOptions options;
  options.nmax = 2;
  options.cancel = std::make_shared<util::CancelToken>();
  const SecurityAnalysis analysis(cs::architecture(2, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kIntegrity, options);
  analysis.space();
  options.cancel->set_deadline_after(std::chrono::milliseconds(5));
  EXPECT_THROW(quantile_of(analysis, 0.5), util::Cancelled);
}

TEST(BreachAttribution, StopsOnACancelAfterExploration) {
  AnalysisOptions options;
  options.nmax = 1;
  options.cancel = std::make_shared<util::CancelToken>();
  const Architecture architecture = cs::architecture(1, Protection::kUnencrypted);
  const SecurityAnalysis analysis(architecture, cs::kMessage,
                                  SecurityCategory::kConfidentiality, options);
  analysis.space();
  options.cancel->cancel();
  EXPECT_THROW(first_breach_attribution(*analysis.session(), architecture, 1.0),
               util::Cancelled);
}

TEST(BreachQuantile, OneCallEqualsOneBisectionPerLevelWithFewerSolves) {
  const SecurityAnalysis analysis(cs::architecture(1, Protection::kUnencrypted),
                                  cs::kMessage, SecurityCategory::kConfidentiality,
                                  fast_options());
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.set_enabled(true);
  const uint64_t start = metrics.counter_value("ctmc.transient_solves");
  std::vector<double> separate;
  for (const double level : kBreachQuantileLevels) {
    separate.push_back(quantile_of(analysis, level));
  }
  const uint64_t middle = metrics.counter_value("ctmc.transient_solves");
  const std::vector<double> joint =
      breach_time_quantiles(*analysis.session(), kBreachQuantileLevels);
  const uint64_t end = metrics.counter_value("ctmc.transient_solves");
  metrics.set_enabled(false);
  ASSERT_EQ(joint.size(), separate.size());
  for (size_t i = 0; i < joint.size(); ++i) EXPECT_EQ(joint[i], separate[i]);
  // Each bisection solves t = max_years and the first midpoint; one call
  // solves them once.
  EXPECT_LE(end - middle + 2 * (kBreachQuantileLevels.size() - 1), middle - start);
}

TEST(Diagnose, BundlesTheThreeAnalysesOnOneSession) {
  const Architecture arch = cs::architecture(2, Protection::kAes128);
  const auto session = pair_session(arch, SecurityCategory::kIntegrity);
  const Diagnosis diagnosis = diagnose(*session, arch, 1.0);
  const size_t explores = session->stats().explore_count;
  EXPECT_EQ(explores, 2 * diagnosis.criticality.size() + 1);

  const auto fresh = pair_session(arch, SecurityCategory::kIntegrity);
  const std::vector<Criticality> criticality = criticality_analysis(*fresh, 1.0);
  ASSERT_EQ(diagnosis.criticality.size(), criticality.size());
  for (size_t i = 0; i < criticality.size(); ++i) {
    EXPECT_EQ(diagnosis.criticality[i].constant, criticality[i].constant);
    EXPECT_EQ(diagnosis.criticality[i].elasticity, criticality[i].elasticity);
  }
  EXPECT_EQ(diagnosis.first_breach.total_breach_probability,
            first_breach_attribution(*fresh, arch, 1.0).total_breach_probability);
  EXPECT_EQ(diagnosis.quantile_years,
            breach_time_quantiles(*fresh, kBreachQuantileLevels));
  // Attribution and quantiles ran on the cached base stages.
  EXPECT_EQ(session->stats().explore_count, explores);
}

}  // namespace
}  // namespace autosec::automotive
