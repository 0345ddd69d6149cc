// Request parsing and validation of the serve v1 protocol: strict field
// checking (typos fail loudly), per-op required fields, and id/op salvage
// for error envelopes.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

namespace autosec::service {
namespace {

using automotive::SecurityCategory;

TEST(Protocol, ParsesAnalyzeRequest) {
  const ParseResult parsed = parse_request(
      R"({"id": "r1", "op": "analyze", "architecture": "a.arch",
          "messages": ["m1", "m2"], "categories": ["integrity"],
          "nmax": 2, "horizon_years": 3.5,
          "overrides": {"phi_gw": 8.0}, "timeout_ms": 250,
          "solver": "gauss_seidel"})");
  ASSERT_TRUE(parsed.request.has_value());
  const Request& request = *parsed.request;
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.op, Op::kAnalyze);
  EXPECT_EQ(request.architecture, "a.arch");
  EXPECT_EQ(request.messages, (std::vector<std::string>{"m1", "m2"}));
  ASSERT_EQ(request.categories.size(), 1u);
  EXPECT_EQ(request.categories[0], SecurityCategory::kIntegrity);
  EXPECT_EQ(request.nmax, 2);
  EXPECT_DOUBLE_EQ(request.horizon_years, 3.5);
  ASSERT_EQ(request.overrides.size(), 1u);
  EXPECT_EQ(request.overrides[0].first, "phi_gw");
  ASSERT_TRUE(request.timeout_ms.has_value());
  EXPECT_EQ(*request.timeout_ms, 250);
  ASSERT_TRUE(request.solver.has_value());
  EXPECT_EQ(*request.solver, linalg::FixpointMethod::kGaussSeidel);
}

TEST(Protocol, ParsesCheckSweepDiagnoseStatus) {
  const ParseResult check = parse_request(
      R"({"op": "check", "architecture": "a.arch", "message": "m",
          "category": "availability", "properties": ["S=? [ \"violated\" ]"]})");
  ASSERT_TRUE(check.request.has_value());
  EXPECT_EQ(check.request->op, Op::kCheck);
  EXPECT_EQ(check.request->category, SecurityCategory::kAvailability);
  ASSERT_EQ(check.request->properties.size(), 1u);

  const ParseResult sweep = parse_request(
      R"({"op": "sweep", "architecture": "a.arch", "message": "m",
          "constant": "phi_gw", "values": [1, 2.5, 4]})");
  ASSERT_TRUE(sweep.request.has_value());
  EXPECT_EQ(sweep.request->constant, "phi_gw");
  EXPECT_EQ(sweep.request->values, (std::vector<double>{1.0, 2.5, 4.0}));

  const ParseResult diagnose = parse_request(
      R"({"op": "diagnose", "architecture": "a.arch", "message": "m"})");
  ASSERT_TRUE(diagnose.request.has_value());

  // status is the only op that needs no architecture.
  EXPECT_TRUE(parse_request(R"({"op": "status"})").request.has_value());
}

TEST(Protocol, MalformedJsonIsBadRequest) {
  const ParseResult parsed = parse_request("{nope");
  EXPECT_FALSE(parsed.request.has_value());
  EXPECT_EQ(parsed.error.code, "bad_request");
  EXPECT_NE(parsed.error.message.find("malformed JSON"), std::string::npos);
}

TEST(Protocol, SalvagesIdAndOpFromInvalidRequests) {
  const ParseResult parsed =
      parse_request(R"({"id": "x7", "op": "warp", "architecture": "a.arch"})");
  EXPECT_FALSE(parsed.request.has_value());
  EXPECT_EQ(parsed.id, "x7");
  EXPECT_EQ(parsed.op_text, "warp");
  EXPECT_NE(parsed.error.message.find("unknown op"), std::string::npos);
}

TEST(Protocol, UnknownFieldsFailLoudly) {
  const ParseResult parsed = parse_request(
      R"({"op": "analyze", "architecture": "a.arch", "horizons": 2})");
  EXPECT_FALSE(parsed.request.has_value());
  EXPECT_NE(parsed.error.message.find("unknown field 'horizons'"),
            std::string::npos);
}

TEST(Protocol, ValidatesFieldTypesAndRanges) {
  EXPECT_FALSE(
      parse_request(R"({"op": "analyze", "architecture": 7})").request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "nmax": 0})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "nmax": 99})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "nmax": 1.5})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "horizon_years": 0})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "timeout_ms": -1})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "solver": "cg"})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "categories": ["secrecy"]})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a",
                                 "overrides": {"phi": "fast"}})")
                   .request.has_value());
}

TEST(Protocol, ParsesEngineField) {
  const ParseResult compact = parse_request(
      R"({"op": "analyze", "architecture": "a.arch", "engine": "compact"})");
  ASSERT_TRUE(compact.request.has_value());
  EXPECT_EQ(compact.request->engine, symbolic::ExplorationEngine::kCompact);
  // The removed classic store's token is a bad request, naming the choices.
  const ParseResult classic = parse_request(
      R"({"op": "analyze", "architecture": "a.arch", "engine": "classic"})");
  ASSERT_FALSE(classic.request.has_value());
  EXPECT_EQ(classic.error.code, "bad_request");
  EXPECT_NE(classic.error.message.find("auto|compact"), std::string::npos)
      << classic.error.message;
  // Omitted -> auto (the plain, unreduced state space).
  const ParseResult implicit =
      parse_request(R"({"op": "analyze", "architecture": "a.arch"})");
  ASSERT_TRUE(implicit.request.has_value());
  EXPECT_EQ(implicit.request->engine, symbolic::ExplorationEngine::kAuto);
  // Unknown tokens and wrong types fail loudly.
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a.arch",
                                 "engine": "warp"})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "analyze", "architecture": "a.arch",
                                 "engine": 3})")
                   .request.has_value());
}

TEST(Protocol, EnforcesPerOpRequiredFields) {
  // analyze/check/sweep/diagnose all need an architecture.
  EXPECT_FALSE(parse_request(R"({"op": "analyze"})").request.has_value());
  // check needs message + non-empty properties.
  EXPECT_FALSE(parse_request(R"({"op": "check", "architecture": "a"})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "check", "architecture": "a",
                                 "message": "m", "properties": []})")
                   .request.has_value());
  // sweep needs constant + non-empty values.
  EXPECT_FALSE(parse_request(R"({"op": "sweep", "architecture": "a",
                                 "message": "m", "values": [1]})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "sweep", "architecture": "a",
                                 "message": "m", "constant": "c"})")
                   .request.has_value());
  // diagnose needs a message.
  EXPECT_FALSE(parse_request(R"({"op": "diagnose", "architecture": "a"})")
                   .request.has_value());
}

TEST(Protocol, ParsesModelTypeAndStrategyFields) {
  const ParseResult mdp = parse_request(
      R"({"op": "check", "architecture": "a.arch", "message": "m",
          "model_type": "mdp", "strategy": true,
          "properties": ["Pmax=? [ F<=10 \"violated\" ]"]})");
  ASSERT_TRUE(mdp.request.has_value());
  EXPECT_EQ(mdp.request->model_type, symbolic::ModelType::kMdp);
  EXPECT_TRUE(mdp.request->strategy);
  // Omitted -> ctmc, no strategy (the wire default).
  const ParseResult implicit = parse_request(
      R"({"op": "check", "architecture": "a", "message": "m",
          "properties": ["P=? [ F<=1 \"violated\" ]"]})");
  ASSERT_TRUE(implicit.request.has_value());
  EXPECT_EQ(implicit.request->model_type, symbolic::ModelType::kCtmc);
  EXPECT_FALSE(implicit.request->strategy);
  // Unknown tokens and wrong types fail loudly.
  EXPECT_FALSE(parse_request(R"({"op": "check", "architecture": "a",
                                 "message": "m", "properties": ["x"],
                                 "model_type": "dtmc"})")
                   .request.has_value());
  EXPECT_FALSE(parse_request(R"({"op": "check", "architecture": "a",
                                 "message": "m", "properties": ["x"],
                                 "strategy": 1})")
                   .request.has_value());
}

TEST(Protocol, EnforcesModelTypeStrategyCombinations) {
  // strategy is check-only and mdp-only.
  const ParseResult on_analyze = parse_request(
      R"({"op": "analyze", "architecture": "a", "strategy": true,
          "model_type": "mdp"})");
  EXPECT_FALSE(on_analyze.request.has_value());
  const ParseResult on_ctmc = parse_request(
      R"({"op": "check", "architecture": "a", "message": "m",
          "properties": ["x"], "strategy": true})");
  EXPECT_FALSE(on_ctmc.request.has_value());
  EXPECT_NE(on_ctmc.error.message.find("model_type 'mdp'"), std::string::npos);
  // mdp is valid on check, rejected on the ctmc-only ops.
  for (const char* op : {"analyze", "sweep", "diagnose"}) {
    const ParseResult parsed = parse_request(
        std::string(R"({"op": ")") + op +
        R"(", "architecture": "a", "message": "m", "constant": "c",
            "values": [1], "model_type": "mdp"})");
    EXPECT_FALSE(parsed.request.has_value()) << op;
    EXPECT_EQ(parsed.error.code, "bad_request") << op;
  }
}

TEST(Protocol, RequestIsRejectedUnlessObject) {
  EXPECT_FALSE(parse_request("[1, 2]").request.has_value());
  EXPECT_FALSE(parse_request("\"analyze\"").request.has_value());
}

TEST(Protocol, OpNamesRoundTrip) {
  EXPECT_EQ(op_name(Op::kAnalyze), "analyze");
  EXPECT_EQ(op_name(Op::kCheck), "check");
  EXPECT_EQ(op_name(Op::kSweep), "sweep");
  EXPECT_EQ(op_name(Op::kDiagnose), "diagnose");
  EXPECT_EQ(op_name(Op::kStatus), "status");
  EXPECT_EQ(parse_category_token("confidentiality"),
            SecurityCategory::kConfidentiality);
  EXPECT_EQ(parse_category_token("integrity"), SecurityCategory::kIntegrity);
  EXPECT_EQ(parse_category_token("availability"), SecurityCategory::kAvailability);
  EXPECT_FALSE(parse_category_token("privacy").has_value());
}

}  // namespace
}  // namespace autosec::service
