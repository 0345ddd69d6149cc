#include "csl/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "symbolic/builder.hpp"
#include "symbolic/parser.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// Two-state repair model with overridable rates (x=0 healthy, x=1 broken).
symbolic::Model repair_model(double a, double b) {
  symbolic::ModelBuilder builder;
  builder.constant_double("a", a);
  builder.constant_double("b", b);
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("a"),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::ident("b"),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(1),
                       Expr::literal(1.0));
  return builder.build();
}

const std::vector<std::string> kProperties = {
    "P=? [ F<=0.5 \"broken\" ]",
    "P=? [ F \"broken\" ]",
    "S=? [ \"broken\" ]",
    "R{\"downtime\"}=? [ C<=1 ]",
    "R{\"downtime\"}=? [ F \"broken\" ]",
};

TEST(EngineSession, OneExplorationServesManyProperties) {
  EngineSession session(repair_model(2.0, 6.0));
  for (const std::string& property : kProperties) session.check(property);
  // The acceptance counter: however many properties ran, the model was
  // compiled and the state space explored exactly once.
  EXPECT_EQ(session.stats().compile_count, 1u);
  EXPECT_EQ(session.stats().explore_count, 1u);
  EXPECT_EQ(session.stats().check_count, kProperties.size());
}

TEST(EngineSession, SteadyAndUniformizedStagesAreSharedAcrossProperties) {
  EngineSession session(repair_model(2.0, 6.0));
  session.check("S=? [ \"broken\" ]");
  session.check("S=? [ x=0 ]");
  session.check("R{\"downtime\"}=? [ C<=1 ]");
  session.check("R{\"downtime\"}=? [ C<=2 ]");
  EXPECT_EQ(session.stats().steady_state_count, 1u);
  EXPECT_EQ(session.stats().uniformize_count, 1u);
}

TEST(EngineSession, CheckAllAgreesWithSequentialChecks) {
  EngineSession sequential(repair_model(2.0, 6.0));
  std::vector<double> expected;
  for (const std::string& property : kProperties) {
    expected.push_back(sequential.check(property));
  }

  // A one-thread pool solves the batch in input order; four threads fan it.
  for (const size_t threads : {1u, 4u}) {
    util::set_thread_count(threads);
    EngineSession session(repair_model(2.0, 6.0));
    const std::vector<double> values = session.check_all(kProperties);
    util::set_thread_count(0);
    ASSERT_EQ(values.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(values[i], expected[i]) << kProperties[i] << " threads=" << threads;
    }
    EXPECT_EQ(session.stats().explore_count, 1u);
  }
}

TEST(EngineSession, OverrideRekeyingKeepsEarlierStagesCached) {
  EngineSession session(repair_model(2.0, 6.0));
  const double p_base = session.check("S=? [ \"broken\" ]");
  EXPECT_NEAR(p_base, 2.0 / 8.0, 1e-9);

  session.set_constant_overrides({{"a", symbolic::Value::of(6.0)}});
  const double p_override = session.check("S=? [ \"broken\" ]");
  EXPECT_NEAR(p_override, 6.0 / 12.0, 1e-9);
  EXPECT_EQ(session.stats().explore_count, 2u);

  // Returning to the original key must reuse the cached stage set: the
  // explore counter stays at two.
  session.set_constant_overrides({});
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), p_base, 1e-15);
  EXPECT_EQ(session.stats().explore_count, 2u);
}

TEST(EngineSession, DropActiveStagesKeepsEveryOtherKey) {
  EngineSession session(repair_model(2.0, 6.0));
  const double p_base = session.check("S=? [ \"broken\" ]");
  session.set_constant_overrides({{"a", symbolic::Value::of(6.0)}});
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), 6.0 / 12.0, 1e-9);
  session.drop_active_stages();
  EXPECT_EQ(session.stats().explore_count, 2u);
  // The base key's stages survive the drop: returning to it explores nothing.
  session.set_constant_overrides({});
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), p_base, 1e-15);
  EXPECT_EQ(session.stats().explore_count, 2u);
  // The dropped key's stages are gone: returning to it explores again.
  session.set_constant_overrides({{"a", symbolic::Value::of(6.0)}});
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), 6.0 / 12.0, 1e-9);
  EXPECT_EQ(session.stats().explore_count, 3u);
}

TEST(EngineSession, DeclaresConstantReadsTheModel) {
  EngineSession session(repair_model(2.0, 6.0));
  EXPECT_TRUE(session.declares_constant("a"));
  EXPECT_FALSE(session.declares_constant("ghost"));
}

TEST(EngineSession, UndeclaredOverrideIsATypedError) {
  EngineSession session(repair_model(2.0, 6.0));
  session.set_constant_overrides({{"ghost", symbolic::Value::of(1.0)}});
  try {
    session.check("S=? [ \"broken\" ]");
    FAIL() << "expected UndeclaredConstant";
  } catch (const symbolic::UndeclaredConstant& error) {
    EXPECT_STREQ(error.what(), "override for undeclared constant 'ghost'");
  }
}

TEST(EngineSession, OverrideCacheKeyIsOrderInsensitive) {
  const std::vector<std::pair<std::string, symbolic::Value>> ab = {
      {"a", symbolic::Value::of(1.0)}, {"b", symbolic::Value::of(2.0)}};
  const std::vector<std::pair<std::string, symbolic::Value>> ba = {
      {"b", symbolic::Value::of(2.0)}, {"a", symbolic::Value::of(1.0)}};
  EXPECT_EQ(override_cache_key(ab), override_cache_key(ba));
  EXPECT_NE(override_cache_key(ab), override_cache_key({}));
}

TEST(EngineSession, SpaceAdoptingSessionRejectsOverrides) {
  const auto compiled = symbolic::compile(repair_model(2.0, 6.0));
  auto space =
      std::make_shared<const symbolic::StateSpace>(symbolic::explore(compiled));
  EngineSession session(space);
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), 0.25, 1e-9);
  EXPECT_THROW(session.set_constant_overrides({{"a", symbolic::Value::of(1.0)}}),
               PropertyError);
}

// --- cumulative-reward groups of check_all -------------------------------

/// A fast-mixing birth-death queue, large enough that the uniformization
/// products run row-parallel and steady-state detection closes each C<=t
/// reward early. busy/deep/idle share ‖r‖∞ = 1; load's is n.
constexpr const char* kQueueModel = R"(ctmc

const int n = 1500;

module queue
  x : [0..n] init 0;
  [] x < n -> 300 : (x'=x+1);
  [] x > 0 -> 600 : (x'=x-1);
endmodule

label "long" = x >= 3;

rewards "busy"
  x > 0 : 1;
endrewards

rewards "deep"
  x >= 2 : 1;
endrewards

rewards "idle"
  x = 0 : 1;
endrewards

rewards "load"
  true : x;
endrewards
)";

/// How much the call `solve` raises the metrics counter `name`.
template <typename Solve>
uint64_t counted(const char* name, Solve solve) {
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.set_enabled(true);
  const uint64_t before = metrics.counter_value(name);
  solve();
  const uint64_t after = metrics.counter_value(name);
  metrics.set_enabled(false);
  return after - before;
}

template <typename Solve>
uint64_t products_of(Solve solve) {
  return counted("ctmc.matrix_vector_products", solve);
}

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

TEST(EngineSession, GroupedCumulativeRewardsEqualSingleChecksBitForBit) {
  // Two horizons (two shared passes) with members of different ‖r‖∞ mixed
  // into other property kinds: every check_all value, parallel or not, at 1
  // or 4 threads, equals check() of that property alone.
  const std::vector<std::string> batch = {
      "R{\"busy\"}=? [ C<=1 ]", "P=? [ F<=0.5 \"long\" ]", "R{\"load\"}=? [ C<=1 ]",
      "S=? [ \"long\" ]",       "R{\"idle\"}=? [ C<=2 ]", "R{\"idle\"}=? [ C<=1 ]",
  };
  std::vector<double> expected;
  for (const std::string& property : batch) {
    EngineSession single(symbolic::parse_model(kQueueModel));
    expected.push_back(single.check(property));
  }

  const ThreadCountGuard restore;
  for (const size_t threads : {1u, 4u}) {
    util::set_thread_count(threads);
    EngineSession session(symbolic::parse_model(kQueueModel));
    const std::vector<double> values = session.check_all(batch);
    ASSERT_EQ(values.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(values[i], expected[i]) << batch[i] << " threads=" << threads;
    }
    EXPECT_EQ(session.stats().check_count, batch.size());
    EXPECT_EQ(session.stats().uniformize_count, 1u);
  }
}

TEST(EngineSession, SameHorizonRewardsShareOnePass) {
  const std::vector<std::string> one = {"R{\"busy\"}=? [ C<=1 ]"};
  const std::vector<std::string> three = {"R{\"busy\"}=? [ C<=1 ]",
                                          "R{\"deep\"}=? [ C<=1 ]",
                                          "R{\"idle\"}=? [ C<=1 ]"};
  EngineSession alone(symbolic::parse_model(kQueueModel));
  EngineSession batched(symbolic::parse_model(kQueueModel));
  const uint64_t one_products = products_of([&] { alone.check_all(one); });
  uint64_t three_products = 0;
  const uint64_t truncations = counted("solve.steady_state_truncations", [&] {
    three_products = products_of([&] { batched.check_all(three); });
  });
  EXPECT_EQ(truncations, three.size()) << "premise: every member closes early";
  EXPECT_GT(one_products, 0u);
  EXPECT_EQ(three_products, one_products);
}

TEST(EngineSession, DistinctHorizonsFormOnePassEach) {
  const std::vector<std::string> batch = {
      "R{\"busy\"}=? [ C<=1 ]", "R{\"deep\"}=? [ C<=2 ]",
      "R{\"idle\"}=? [ C<=1 ]", "R{\"busy\"}=? [ C<=2 ]"};
  EngineSession singles(symbolic::parse_model(kQueueModel));
  const uint64_t per_horizon = products_of([&] {
    singles.check("R{\"busy\"}=? [ C<=1 ]");
    singles.check("R{\"busy\"}=? [ C<=2 ]");
  });
  EngineSession batched(symbolic::parse_model(kQueueModel));
  EXPECT_EQ(products_of([&] { batched.check_all(batch); }), per_horizon);
}

// --- non-finite rewards ---------------------------------------------------

/// log(x) is -inf in the initial state x=0.
constexpr const char* kLogRewardModel = R"(ctmc

module m
  x : [0..1] init 0;
  [] x=0 -> 1 : (x'=1);
endmodule

label "done" = x=1;
label "never" = x=2;

rewards "r"
  true : log(x);
endrewards

rewards "one"
  true : 1;
endrewards
)";

struct RewardKind {
  const char* name;
  const char* property;
};

class NonFiniteReward : public ::testing::TestWithParam<RewardKind> {};

TEST_P(NonFiniteReward, IsAModelErrorNamingTheStructureAndState) {
  const std::string property = GetParam().property;
  for (const bool batch : {false, true}) {
    EngineSession session(symbolic::parse_model(kLogRewardModel));
    try {
      if (batch) {
        session.check_all(std::vector<std::string>{property});
      } else {
        session.check(property);
      }
      ADD_FAILURE() << property << " answered a value";
    } catch (const symbolic::ModelError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'r'"), std::string::npos) << message;
      EXPECT_NE(message.find("state 0"), std::string::npos) << message;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRewardKinds, NonFiniteReward,
    ::testing::Values(RewardKind{"Cumulative", "R{\"r\"}=? [ C<=1 ]"},
                      RewardKind{"Instantaneous", "R{\"r\"}=? [ I=1 ]"},
                      RewardKind{"SteadyState", "R{\"r\"}=? [ S ]"},
                      RewardKind{"Reachability", "R{\"r\"}=? [ F \"done\" ]"}),
    [](const ::testing::TestParamInfo<RewardKind>& info) { return info.param.name; });

TEST(EngineSession, InfiniteReachabilityRewardResultStaysLegal) {
  // Finite rewards, a target missed with probability 1: PRISM's infinite
  // expected reward is an answer, not a malformed input.
  EngineSession session(symbolic::parse_model(kLogRewardModel));
  EXPECT_EQ(session.check("R{\"one\"}=? [ F \"never\" ]"),
            std::numeric_limits<double>::infinity());
}

TEST(EngineSession, UnboundedReachabilityWithBothRungsFaultedIsSolverDiverged) {
  // x=0 races to "broken" (x=1) against a dead end (x=2), so Pr[F broken]
  // = 1/2 needs a fixpoint solve on the one uncertain state.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("race");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(1.0),
            {{"x", Expr::literal(2)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  EngineSession session(builder.build());
  EXPECT_NEAR(session.check("P=? [ F \"broken\" ]"), 0.5, 1e-12);

  util::fault::disarm_all();
  util::fault::arm_site("krylov.breakdown");
  util::fault::arm_site("gauss_seidel.diverge");
  try {
    session.check("P=? [ F \"broken\" ]");
    util::fault::disarm_all();
    FAIL() << "check returned although both rungs were faulted";
  } catch (const util::EngineFailure& failure) {
    util::fault::disarm_all();
    EXPECT_EQ(failure.code(), util::FailureCode::kSolverDiverged);
    EXPECT_EQ(failure.stage(), "solve");
  }
}

}  // namespace
}  // namespace autosec::csl
