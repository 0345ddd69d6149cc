// The model-type axis of EngineSession: mdp models flow through value
// iteration behind the same check()/check_all() surface, directional
// operators dispatch per model type, and check_with_strategy() exports a
// scheduler whose JSON document round-trips into an identical induced value.
#include "csl/session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csl/property_parser.hpp"
#include "csl/strategy_export.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/parser.hpp"
#include "symbolic/writer.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

constexpr const char* kCoinModel = R"(mdp

module coin
  x : [0..2] init 0;
  [safe] x=0 -> 1:(x'=0);
  [risky] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [go] x=1 -> 1:(x'=2);
endmodule

label "done" = x=2;
)";

symbolic::Model coin_model() { return symbolic::parse_model(kCoinModel); }

symbolic::Model ctmc_model() {
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.0),
            {{"x", Expr::literal(1)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  return builder.build();
}

TEST(MdpSession, ModelTypeIsDerivedFromTheModel) {
  EngineSession session(coin_model());
  EXPECT_EQ(session.model_type(), symbolic::ModelType::kMdp);
  // The CTMC stages do not exist on this axis.
  EXPECT_THROW(session.chain(), PropertyError);
  EXPECT_THROW(session.uniformized(), PropertyError);
  EXPECT_THROW(session.steady(), PropertyError);
}

TEST(MdpSession, DirectionalReachability) {
  EngineSession session(coin_model());
  // The risky coin eventually lands: Pmax = 1. The safe loop avoids the
  // target forever: Pmin = 0.
  EXPECT_DOUBLE_EQ(session.check("Pmax=? [ F \"done\" ]"), 1.0);
  EXPECT_DOUBLE_EQ(session.check("Pmin=? [ F \"done\" ]"), 0.0);
  // One attempt: only the risky row's direct branch reaches x=2.
  EXPECT_NEAR(session.check("Pmax=? [ F<=1 \"done\" ]"), 0.5, 1e-12);
  // Two attempts close the indirect route through x=1.
  EXPECT_NEAR(session.check("Pmax=? [ F<=2 \"done\" ]"), 1.0, 1e-12);
}

TEST(MdpSession, NonDirectionalPropertyIsRejected) {
  EngineSession session(coin_model());
  EXPECT_THROW(session.check("P=? [ F \"done\" ]"), PropertyError);
  EXPECT_THROW(session.check("S=? [ \"done\" ]"), PropertyError);
}

TEST(MdpSession, CtmcSessionRejectsDirectionalOperators) {
  EngineSession session(ctmc_model());
  EXPECT_EQ(session.model_type(), symbolic::ModelType::kCtmc);
  EXPECT_THROW(session.check("Pmax=? [ F \"broken\" ]"), PropertyError);
  EXPECT_THROW(session.check("Rmin{\"r\"}=? [ F \"broken\" ]"), PropertyError);
  // The plain operator still works.
  EXPECT_DOUBLE_EQ(session.check("P=? [ F \"broken\" ]"), 1.0);
}

TEST(MdpSession, StrategyExportRoundTripsThroughJson) {
  EngineSession session(coin_model());
  const Property property = parse_property("Pmax=? [ F \"done\" ]");
  const StrategyCheck checked = session.check_with_strategy(property);
  EXPECT_DOUBLE_EQ(checked.value, 1.0);
  // The export carries its own independent induced-chain cross-check.
  EXPECT_NEAR(checked.strategy.induced_value, checked.value, 1e-8);

  const util::JsonValue document =
      session.strategy_document(property, checked.strategy);
  EXPECT_EQ(document.int_or("version", 0), 1);
  EXPECT_EQ(document.string_or("model_type", ""), "mdp");
  EXPECT_EQ(document.string_or("direction", ""), "max");
  ASSERT_NE(document.find("attack_path"), nullptr);
  EXPECT_GT(document.find("attack_path")->size(), 0u);

  // dump → parse → re-induce reproduces the reported value.
  const StrategyExport parsed = parse_strategy_json(document.dump(2));
  EXPECT_FALSE(parsed.bounded);
  EXPECT_NEAR(session.induced_value(property, parsed), checked.value, 1e-8);
}

TEST(MdpSession, BoundedStrategyExportsASchedule) {
  EngineSession session(coin_model());
  const Property property = parse_property("Pmax=? [ F<=2 \"done\" ]");
  const StrategyCheck checked = session.check_with_strategy(property);
  EXPECT_NEAR(checked.value, 1.0, 1e-12);
  EXPECT_TRUE(checked.strategy.bounded);
  EXPECT_EQ(checked.strategy.schedule.size(), 2u);

  const util::JsonValue document =
      session.strategy_document(property, checked.strategy);
  const StrategyExport parsed = parse_strategy_json(document.dump(0));
  ASSERT_TRUE(parsed.bounded);
  EXPECT_NEAR(session.induced_value(property, parsed), checked.value, 1e-8);
}

TEST(MdpSession, InducedValueRejectsRowsOutsideTheirState) {
  // An edited document can name any int32 row; the re-check must refuse it
  // as a typed error instead of reading outside the matrix.
  EngineSession session(coin_model());
  const Property bounded = parse_property("Pmax=? [ F<=2 \"done\" ]");
  StrategyExport strategy = session.check_with_strategy(bounded).strategy;
  strategy.schedule[0][0] = 2000000000;  // past the last row
  EXPECT_THROW(session.induced_value(bounded, strategy), PropertyError);
  strategy.schedule[0][0] = 2;  // state 1's row
  EXPECT_THROW(session.induced_value(bounded, strategy), PropertyError);

  const Property unbounded = parse_property("Pmax=? [ F \"done\" ]");
  strategy = session.check_with_strategy(unbounded).strategy;
  strategy.rows[0] = 2000000000;
  EXPECT_THROW(session.induced_value(unbounded, strategy), PropertyError);
  strategy.rows[0] = 2;
  EXPECT_THROW(session.induced_value(unbounded, strategy), PropertyError);

  // The same fault arriving through a parsed document.
  const StrategyExport parsed = parse_strategy_json(
      R"({"version": 1, "direction": "max", "bounded": true,)"
      R"( "schedule": [[2000000000, 2, -1], [1, 2, -1]]})");
  EXPECT_THROW(session.induced_value(bounded, parsed), PropertyError);
}

TEST(MdpSession, MdpModelTextRoundTripsThroughTheWriter) {
  const symbolic::Model model = coin_model();
  const std::string text = symbolic::write_model(model);
  const symbolic::Model reparsed = symbolic::parse_model(text);
  EXPECT_EQ(reparsed.type, symbolic::ModelType::kMdp);
  EXPECT_EQ(symbolic::write_model(reparsed), text);  // fixpoint
  // Both explore to the same 3-state MDP.
  EngineSession session(reparsed);
  EXPECT_EQ(session.space().state_count(), 3u);
  EXPECT_EQ(session.space().mdp().row_count(), 4u);  // incl. deadlock self-loop
}

TEST(MdpSession, CheckAllBatchesDirectionalProperties) {
  EngineSession session(coin_model());
  const std::vector<std::string> properties = {
      "Pmax=? [ F \"done\" ]",
      "Pmin=? [ F \"done\" ]",
      "Pmax=? [ F<=1 \"done\" ]",
  };
  const std::vector<double> values = session.check_all(properties);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 0.0);
  EXPECT_NEAR(values[2], 0.5, 1e-12);
  EXPECT_EQ(session.stats().explore_count, 1u);  // one shared state space
}

TEST(MdpSession, InducedRecheckWithBothRungsFaultedIsSolverDiverged) {
  // The risky coin lands on "done" or on a dead end with equal odds, so the
  // induced chain of the Pmax strategy needs a fixpoint solve at x=0.
  EngineSession session(symbolic::parse_model(R"(mdp

module gamble
  x : [0..2] init 0;
  [safe] x=0 -> 1:(x'=0);
  [risky] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
endmodule

label "done" = x=2;
)"));
  const Property property = parse_property("Pmax=? [ F \"done\" ]");
  const StrategyCheck checked = session.check_with_strategy(property);
  EXPECT_NEAR(checked.strategy.induced_value, 0.5, 1e-12);

  util::fault::disarm_all();
  util::fault::arm_site("krylov.breakdown");
  util::fault::arm_site("gauss_seidel.diverge");
  try {
    session.induced_value(property, checked.strategy);
    util::fault::disarm_all();
    FAIL() << "induced_value returned although both rungs were faulted";
  } catch (const util::EngineFailure& failure) {
    util::fault::disarm_all();
    EXPECT_EQ(failure.code(), util::FailureCode::kSolverDiverged);
    EXPECT_EQ(failure.stage(), "solve");
  }
}

}  // namespace
}  // namespace autosec::csl
