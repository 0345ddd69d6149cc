// The version-1 strategy document: the streamed renderer reproduces, byte
// for byte, the documents the earlier tree renderer wrote (committed under
// tests/csl/golden/), and the pull decoder keeps the accept/reject behaviour
// and messages of a tree lookup — last duplicate member wins, and a syntax
// error anywhere beats a content error.
#include "csl/strategy_export.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "csl/property.hpp"
#include "csl/property_parser.hpp"
#include "csl/session.hpp"
#include "symbolic/parser.hpp"

namespace autosec::csl {
namespace {

constexpr const char* kCoinModel = R"(mdp

module coin
  x : [0..2] init 0;
  [safe] x=0 -> 1:(x'=0);
  [risky] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [go] x=1 -> 1:(x'=2);
endmodule

label "done" = x=2;
)";

std::string read_golden(const std::string& name) {
  const std::string path = std::string(AUTOSEC_SOURCE_DIR) + "/tests/csl/golden/" + name;
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Render the strategy of `property_text` on `session` and compare it with
/// the committed document; the tree view must reproduce the same bytes.
void expect_golden(EngineSession& session, const std::string& property_text,
                   const std::string& golden) {
  const Property property = parse_property(property_text);
  const StrategyCheck checked = session.check_with_strategy(property);
  const std::string text = session.strategy_json(property, checked.strategy);
  EXPECT_EQ(text, read_golden(golden));
  EXPECT_EQ(session.strategy_document(property, checked.strategy).dump(2) + "\n", text);
}

TEST(StrategyExport, CoinDocumentsMatchTheGoldenFiles) {
  EngineSession session(symbolic::parse_model(kCoinModel));
  expect_golden(session, "Pmax=? [ F \"done\" ]", "strategy_coin_unbounded.json");
  expect_golden(session, "Pmax=? [ F<=2 \"done\" ]", "strategy_coin_bounded.json");
  expect_golden(session, "Pmin=? [ F \"done\" ]", "strategy_coin_min.json");
}

TEST(StrategyExport, TelematicsDocumentMatchesTheGoldenFile) {
  const automotive::Architecture arch = automotive::load_architecture_file(
      std::string(AUTOSEC_SOURCE_DIR) + "/examples/telematics_adversary.arch");
  automotive::AnalysisOptions options;
  options.nmax = 1;
  options.model_type = symbolic::ModelType::kMdp;
  const automotive::SecurityAnalysis analysis(
      arch, "brake_cmd", automotive::SecurityCategory::kIntegrity, options);
  expect_golden(*analysis.session(), "Pmax=? [ F<=10 \"violated\" ]",
                "strategy_telematics_nmax1.json");
}

TEST(StrategyExport, GoldenDocumentsDecodeToTheirCore) {
  const StrategyExport bounded =
      parse_strategy_json(read_golden("strategy_telematics_nmax1.json"));
  EXPECT_TRUE(bounded.bounded);
  EXPECT_EQ(bounded.direction, "max");
  EXPECT_EQ(bounded.property, "Pmax=? [ F<=10 \"violated\" ]");
  EXPECT_EQ(bounded.value, 0.2760122698174635);
  EXPECT_EQ(bounded.induced_value, 0.2760122698174635);
  ASSERT_EQ(bounded.schedule.size(), 10u);
  EXPECT_EQ(bounded.schedule[0].size(), 17u);
  EXPECT_EQ(bounded.schedule[0][2], 5);
  EXPECT_EQ(bounded.schedule[0][3], -1);
  EXPECT_TRUE(bounded.rows.empty());

  const StrategyExport unbounded =
      parse_strategy_json(read_golden("strategy_coin_unbounded.json"));
  EXPECT_FALSE(unbounded.bounded);
  EXPECT_EQ(unbounded.rows, (std::vector<int32_t>{1, 2, -1}));
  EXPECT_TRUE(unbounded.schedule.empty());
  EXPECT_EQ(unbounded.value, 1.0);
}

/// The decoder must reject `text` with exactly `message`.
void expect_rejected(const std::string& text, const std::string& message) {
  try {
    (void)parse_strategy_json(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const PropertyError& e) {
    EXPECT_EQ(std::string(e.what()), "strategy document: " + message) << text;
  }
}

TEST(StrategyExport, RejectsMalformedCores) {
  expect_rejected(R"({"version": 2, "direction": "max", "rows": [0]})",
                  "unsupported version (want 1)");
  expect_rejected(R"({"version": 1.0, "direction": "max", "rows": [0]})",
                  "unsupported version (want 1)");
  expect_rejected(R"({"direction": "max", "rows": [0]})", "unsupported version (want 1)");
  expect_rejected(R"({"version": 1, "direction": "up", "rows": [0]})",
                  "direction must be \"max\" or \"min\"");
  expect_rejected(R"({"version": 1, "rows": [0]})",
                  "direction must be \"max\" or \"min\"");
  expect_rejected(
      R"({"version": 1, "direction": "max", "bounded": true, "schedule": [[0, 1], [0]]})",
      "ragged schedule (steps differ in state count)");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [0, 1.5]})",
                  "rows entries must be integers");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [0, "1"]})",
                  "rows entries must be integers");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [99999999999999999999]})",
                  "rows entries must be integers");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [2147483648]})",
                  "rows entry out of range");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [-2]})",
                  "rows entry out of range");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": {"0": 1}})",
                  "rows must be an array of row indices");
  expect_rejected(R"({"version": 1, "direction": "max", "schedule": [[0]]})",
                  "memoryless strategy requires a rows array");
  expect_rejected(R"({"version": 1, "direction": "max", "bounded": true, "rows": [0]})",
                  "bounded strategy requires a schedule array");
  expect_rejected(R"({"version": 1, "direction": "max", "bounded": true, "schedule": 3})",
                  "bounded strategy requires a schedule array");
  expect_rejected(
      R"({"version": 1, "direction": "max", "bounded": true, "schedule": [[0], 1]})",
      "schedule step must be an array of row indices");
  expect_rejected(
      R"({"version": 1, "direction": "max", "bounded": true, "schedule": [[0], [-9]]})",
      "schedule step entry out of range");
  expect_rejected("[1, 2]", "expected a JSON object");
}

TEST(StrategyExport, RejectsMalformedJson) {
  const std::string core = R"({"version": 1, "direction": "max", "rows": [0]})";
  expect_rejected(core + " x", "json parse error: trailing characters after JSON value");
  expect_rejected("", "json parse error: unexpected end of input");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [0,]})",
                  "json parse error: unexpected character");
  const std::string deep = std::string(129, '[') + std::string(129, ']');
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [0], "x": )" + deep + "}",
                  "json parse error: nesting too deep");
  // A syntax error anywhere wins over a content error seen before it.
  expect_rejected(R"({"version": 2, "direction": "max", "rows": [0], "tail": [1, }})",
                  "json parse error: unexpected character");
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [0], "p": "\ud800"})",
                  "json parse error: unpaired surrogate");
  // Whitespace after the document is fine.
  EXPECT_NO_THROW(parse_strategy_json(core + " \n\t\r"));
}

TEST(StrategyExport, DuplicateMembersLastWins) {
  const StrategyExport strategy = parse_strategy_json(
      R"({"version": 3, "rows": "bad", "direction": "min", "rows": [0, -1],)"
      R"( "version": 1, "bounded": true, "bounded": "no", "value": 0.5, "value": 1})");
  EXPECT_FALSE(strategy.bounded);  // the last "bounded" is not a boolean
  EXPECT_EQ(strategy.direction, "min");
  EXPECT_EQ(strategy.rows, (std::vector<int32_t>{0, -1}));
  EXPECT_EQ(strategy.value, 1.0);
  // And a later broken duplicate overrides an earlier good one.
  expect_rejected(R"({"version": 1, "direction": "max", "rows": [0], "rows": [0.5]})",
                  "rows entries must be integers");
  const StrategyExport schedule = parse_strategy_json(
      R"({"version": 1, "direction": "max", "bounded": true,)"
      R"( "schedule": [[0, 1], [2]], "schedule": [[0], [1]]})");
  EXPECT_EQ(schedule.schedule, (std::vector<std::vector<int32_t>>{{0}, {1}}));
}

TEST(StrategyExport, WrongKindMembersReadAsTheirDefaults) {
  const StrategyExport strategy = parse_strategy_json(
      R"({"version": 1, "direction": "max", "bounded": 1, "value": "0.5",)"
      R"( "induced_value": null, "property": 7, "rows": [0], "extra": {"a": [true]}})");
  EXPECT_FALSE(strategy.bounded);
  EXPECT_EQ(strategy.value, 0.0);
  EXPECT_EQ(strategy.induced_value, 0.0);
  EXPECT_EQ(strategy.property, "");
  EXPECT_EQ(strategy.rows, (std::vector<int32_t>{0}));
}

}  // namespace
}  // namespace autosec::csl
