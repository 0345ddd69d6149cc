// tools/serve_schema.json is the machine-readable contract of the serve v1
// request; this keeps it in lockstep with the strict parser (which rejects
// unknown keys), so the schema can neither drift ahead of nor fall behind
// the implementation.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "service/protocol.hpp"
#include "util/json.hpp"

namespace autosec::service {
namespace {

std::string schema_text() {
  std::ifstream file(std::string(AUTOSEC_SOURCE_DIR) + "/tools/serve_schema.json");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(ServeSchema, FileParsesAndDeclaresTheEnvelope) {
  const util::JsonValue schema = util::JsonValue::parse(schema_text());
  ASSERT_TRUE(schema.is_object());
  EXPECT_EQ(schema.string_or("$id", ""), "autosec-serve-v1-request");
  EXPECT_EQ(schema.string_or("type", ""), "object");
  // Strict parsing is part of the contract.
  ASSERT_NE(schema.find("additionalProperties"), nullptr);
  EXPECT_FALSE(schema.find("additionalProperties")->as_bool());
}

TEST(ServeSchema, EveryDeclaredFieldIsKnownToTheParser) {
  const util::JsonValue schema = util::JsonValue::parse(schema_text());
  const util::JsonValue* properties = schema.find("properties");
  ASSERT_NE(properties, nullptr);
  ASSERT_TRUE(properties->is_object());
  ASSERT_GE(properties->size(), 20u);  // the full v1 field matrix, not a stub
  for (const auto& member : properties->members()) {
    const std::string& field = member.first;
    if (field == "op" || field == "id") continue;
    // A declared field fed with a null value must fail on its type or value,
    // never as an unknown key — that would mean the schema names a field the
    // parser does not implement.
    const ParseResult parsed = parse_request(
        std::string(R"({"op": "status", ")") + field + R"(": null})");
    EXPECT_EQ(parsed.error.message.find("unknown field"), std::string::npos)
        << "schema declares '" << field << "' but the parser rejects it";
  }
}

TEST(ServeSchema, ModelTypeAndStrategyAreDeclared) {
  const util::JsonValue schema = util::JsonValue::parse(schema_text());
  const util::JsonValue* properties = schema.find("properties");
  ASSERT_NE(properties, nullptr);
  ASSERT_NE(properties->find("model_type"), nullptr);
  ASSERT_NE(properties->find("strategy"), nullptr);
  const util::JsonValue* model_type = properties->find("model_type");
  const util::JsonValue* values = model_type->find("enum");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->size(), 2u);
  EXPECT_EQ(values->at(0).as_string(), "ctmc");
  EXPECT_EQ(values->at(1).as_string(), "mdp");
}

TEST(ServeSchema, EngineEnumMatchesTheParser) {
  const util::JsonValue schema = util::JsonValue::parse(schema_text());
  const util::JsonValue* engine = schema.find("properties")->find("engine");
  ASSERT_NE(engine, nullptr);
  const util::JsonValue* values = engine->find("enum");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->size(), 2u);
  EXPECT_EQ(values->at(0).as_string(), "auto");
  EXPECT_EQ(values->at(1).as_string(), "compact");
  auto parses = [](const std::string& value) {
    return parse_request(R"({"op": "analyze", "architecture": "a", "engine": ")" +
                         value + R"("})")
        .request.has_value();
  };
  for (size_t i = 0; i < values->size(); ++i) {
    EXPECT_TRUE(parses(values->at(i).as_string())) << values->at(i).as_string();
  }
  // The removed store's token is neither declared nor accepted.
  EXPECT_FALSE(parses("classic"));
}

}  // namespace
}  // namespace autosec::service
