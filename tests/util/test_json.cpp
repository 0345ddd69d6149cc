// The shared JSON layer (util/json.hpp) backs the metrics files, the serve
// protocol and the strategy document; these tests pin escaping, number
// formatting, writer layouts, the pull reader, and the strictness of the one
// grammar both the reader and the tree parser share.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace autosec::util {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quote(std::string("a\x01z")), "\"a\\u0001z\"");
}

TEST(JsonEscape, PassesUtf8Through) {
  EXPECT_EQ(json_quote("gr\xc3\xbc n"), "\"gr\xc3\xbc n\"");
}

TEST(JsonNumber, ShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  EXPECT_EQ(json_number(int64_t{-7}), "-7");
  EXPECT_EQ(json_number(uint64_t{18446744073709551615ull}),
            "18446744073709551615");
}

TEST(JsonNumber, NonFiniteSerializesAsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(JsonWriter, CompactModeIsSingleLine) {
  JsonWriter w(0);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(true).value(nullptr).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\": 1, \"b\": [true, null]}");
}

TEST(JsonWriter, IndentedModeWithInlineSubtree) {
  JsonWriter w(2);
  w.begin_object();
  w.key("spans").begin_object();
  w.key("explore").begin_inline_object();
  w.key("count").value(uint64_t{1});
  w.key("seconds").value(0.5);
  w.end_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"spans\": {\n"
            "    \"explore\": {\"count\": 1, \"seconds\": 0.5}\n"
            "  }\n"
            "}");
}

TEST(JsonWriter, EmptyContainersStayTight) {
  JsonWriter w(2);
  w.begin_object();
  w.key("a").begin_object().end_object();
  w.key("b").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": {},\n  \"b\": []\n}");
}

TEST(JsonValue, BuildDumpRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc["name"] = JsonValue::string("a \"quoted\" one");
  doc["count"] = JsonValue::number(3);
  doc["ratio"] = JsonValue::number(0.25);
  doc["flag"] = JsonValue::boolean(false);
  doc["list"].push_back(JsonValue::number(1));
  doc["list"].push_back(JsonValue::null());
  const std::string text = doc.dump();
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.dump(), text);
  EXPECT_EQ(parsed.string_or("name", ""), "a \"quoted\" one");
  EXPECT_EQ(parsed.int_or("count", 0), 3);
  EXPECT_EQ(parsed.number_or("ratio", 0.0), 0.25);
  EXPECT_FALSE(parsed.bool_or("flag", true));
  EXPECT_EQ(parsed.find("list")->size(), 2u);
  EXPECT_TRUE(parsed.find("list")->at(1).is_null());
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue doc = JsonValue::object();
  doc["zeta"] = JsonValue::number(1);
  doc["alpha"] = JsonValue::number(2);
  EXPECT_EQ(doc.dump(), "{\"zeta\": 1, \"alpha\": 2}");
}

TEST(JsonValue, ParsesEscapesAndSurrogatePairs) {
  const JsonValue doc = JsonValue::parse(R"({"s": "a\u0041\n\ud83d\ude00"})");
  EXPECT_EQ(doc.find("s")->as_string(), "aA\n\xf0\x9f\x98\x80");
}

TEST(JsonValue, IntegerDetection) {
  EXPECT_TRUE(JsonValue::parse("42").is_integer());
  EXPECT_EQ(JsonValue::parse("42").as_integer(), 42);
  EXPECT_FALSE(JsonValue::parse("42.0").is_integer());
  EXPECT_FALSE(JsonValue::parse("4e2").is_integer());
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1,}"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1, 2] tail"), JsonError);
  EXPECT_THROW(JsonValue::parse("'single'"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(JsonValue::parse("\"\\q\""), JsonError);
  EXPECT_THROW(JsonValue::parse("\"\\ud800 lone\""), JsonError);
}

TEST(JsonValue, DepthCapStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(JsonValue::parse(deep), JsonError);
}

TEST(JsonValue, TypeMismatchesThrow) {
  const JsonValue doc = JsonValue::parse("{\"a\": \"text\"}");
  EXPECT_THROW(doc.find("a")->as_number(), JsonError);
  EXPECT_THROW(doc.find("a")->as_bool(), JsonError);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonWriter, NumbersAndStringsMatchTheStandaloneFormatters) {
  // The writer formats in place; its bytes must equal json_number/json_quote.
  const std::vector<double> doubles = {0.1, 1.0, -2.5, 1e300, 5e-324, 0.2760122698174635,
                                       std::numeric_limits<double>::infinity()};
  const std::vector<int64_t> integers = {0, -1, 42, std::numeric_limits<int64_t>::min(),
                                         std::numeric_limits<int64_t>::max()};
  const std::vector<std::string> strings = {"", "plain", "a\"b\\c", "x\ny\tz\x01\x1f",
                                            "gr\xc3\xbc n", std::string("nul\0!", 5)};
  JsonWriter w(0);
  std::string expected = "[";
  w.begin_array();
  for (const double v : doubles) {
    w.value(v);
    expected += (expected.size() > 1 ? ", " : "") + json_number(v);
  }
  for (const int64_t v : integers) {
    w.value(v);
    expected += ", " + json_number(v);
  }
  w.value(std::numeric_limits<uint64_t>::max());
  expected += ", " + json_number(std::numeric_limits<uint64_t>::max());
  for (const std::string& v : strings) {
    w.value(v);
    expected += ", " + json_quote(v);
  }
  w.end_array();
  expected += "]";
  EXPECT_EQ(w.str(), expected);
  JsonWriter keyed(0);
  keyed.begin_object().key("k\"ey").value(1).end_object();
  EXPECT_EQ(keyed.str(), "{\"k\\\"ey\": 1}");
}

TEST(JsonReader, PullsObjectsArraysAndTypedValues) {
  JsonReader reader(
      R"( {"n": -7, "d": 2.5, "b": true, "z": null, "s": "a\nb", "a": [1, [], {}]} )");
  std::string key;
  std::vector<std::string> keys;
  reader.begin_object();
  ASSERT_TRUE(reader.next_key(key));
  EXPECT_EQ(key, "n");
  const JsonNumber n = reader.read_number();
  EXPECT_TRUE(n.integral);
  EXPECT_EQ(n.integer, -7);
  EXPECT_EQ(n.value, -7.0);
  ASSERT_TRUE(reader.next_key(key));
  const JsonNumber d = reader.read_number();
  EXPECT_FALSE(d.integral);
  EXPECT_EQ(d.value, 2.5);
  ASSERT_TRUE(reader.next_key(key));
  EXPECT_EQ(reader.peek(), JsonValue::Kind::kBool);
  EXPECT_TRUE(reader.read_bool());
  ASSERT_TRUE(reader.next_key(key));
  EXPECT_EQ(reader.peek(), JsonValue::Kind::kNull);
  reader.read_null();
  ASSERT_TRUE(reader.next_key(key));
  EXPECT_EQ(reader.read_string(), "a\nb");
  ASSERT_TRUE(reader.next_key(key));
  EXPECT_EQ(key, "a");
  reader.begin_array();
  ASSERT_TRUE(reader.next_element());
  EXPECT_EQ(reader.read_number().integer, 1);
  ASSERT_TRUE(reader.next_element());
  EXPECT_EQ(reader.peek(), JsonValue::Kind::kArray);
  reader.skip_value();
  ASSERT_TRUE(reader.next_element());
  EXPECT_EQ(reader.peek(), JsonValue::Kind::kObject);
  reader.begin_object();
  EXPECT_FALSE(reader.next_key(key));
  EXPECT_FALSE(reader.next_element());
  EXPECT_FALSE(reader.next_key(key));
  EXPECT_NO_THROW(reader.finish());
}

TEST(JsonReader, SkipValueValidatesWhatItSkips) {
  for (const char* bad : {R"([1, {"a": tru}])", R"({"a": [1,]})", R"(["\ud800"])",
                          R"({"a" 1})", "[1 2]", "\"\x01\""}) {
    JsonReader reader(bad);
    EXPECT_THROW(reader.skip_value(), JsonError) << bad;
  }
  JsonReader reader(R"({"a": [1, {"b": "😀"}], "c": -0.5e3})");
  reader.skip_value();
  EXPECT_NO_THROW(reader.finish());
}

TEST(JsonReader, FinishRejectsTrailingBytes) {
  JsonReader reader("[1] \n ,");
  reader.skip_value();
  try {
    reader.finish();
    FAIL() << "trailing comma accepted";
  } catch (const JsonError& e) {
    EXPECT_EQ(std::string(e.what()),
              "json parse error: trailing characters after JSON value");
    EXPECT_EQ(e.position(), 6u);
  }
}

TEST(JsonReader, SharesTheNestingCapWithTheTreeParser) {
  // 128 open containers hold a value; the 129th level is one too deep.
  const auto nested = [](size_t depth) {
    return std::string(depth, '[') + "0" + std::string(depth, ']');
  };
  EXPECT_NO_THROW(JsonValue::parse(nested(128)));
  EXPECT_THROW(JsonValue::parse(nested(129)), JsonError);
  const std::string at_cap = nested(128);
  JsonReader ok(at_cap);
  EXPECT_NO_THROW(ok.skip_value());
  const std::string too_deep = nested(129);
  JsonReader deep(too_deep);
  try {
    deep.skip_value();
    FAIL() << "nesting cap not enforced";
  } catch (const JsonError& e) {
    EXPECT_EQ(std::string(e.what()), "json parse error: nesting too deep");
  }
}

TEST(JsonReader, TypedReadOfTheWrongKindThrows) {
  JsonReader reader("\"text\"");
  EXPECT_THROW(reader.read_number(), JsonError);
  EXPECT_THROW(reader.read_bool(), JsonError);
  EXPECT_THROW(reader.begin_array(), JsonError);
  EXPECT_EQ(reader.read_string(), "text");
}

}  // namespace
}  // namespace autosec::util
