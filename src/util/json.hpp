// Shared JSON emission and parsing for every machine-readable surface of the
// engine: --metrics-json, BENCH_*.json, and the `autosec serve` v1 protocol.
// One escaping routine and one number formatter, so model/property names with
// quotes or backslashes round-trip identically everywhere.
//
//  * JsonWriter — streaming writer with explicit layout control (multiline
//    with indent, or inline subtrees), used by util::metrics for its stable
//    human-diffable format.
//  * JsonReader — the one strict JSON grammar: a pull tokenizer that lets a
//    consumer walk a document (begin_object/next_key, begin_array/
//    next_element, typed reads, validating skip_value) without building a
//    tree, so large documents decode straight into their final containers.
//  * JsonValue  — a small document tree (null/bool/number/string/array/
//    object) with an insertion-order-preserving object, a parser built on
//    JsonReader, and a compact dump; the request/response currency of
//    src/service.
//
// Numbers are written with std::to_chars (shortest round-trip form, locale
// independent) and parsed with util::parse_double/parse_int; non-finite
// doubles serialize as null, matching the historical metrics convention.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autosec::util {

/// Append `text` to `out` with JSON string escaping ("), (\), control
/// characters as \n/\t/\uXXXX. Bytes >= 0x20 pass through (UTF-8 safe).
void json_escape(std::string& out, std::string_view text);

/// `text` as a quoted, escaped JSON string literal.
std::string json_quote(std::string_view text);

/// Shortest round-trip decimal form of `value`; "null" for NaN/inf (JSON has
/// no non-finite literals).
std::string json_number(double value);
std::string json_number(int64_t value);
std::string json_number(uint64_t value);

/// Streaming JSON writer. `indent > 0` lays containers out one entry per
/// line; begin_inline_object/array keeps a subtree on a single line (entries
/// separated by ", ") — the metrics format's per-span records. `indent == 0`
/// writes the whole document inline (NDJSON responses).
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object() { return open('{', false); }
  JsonWriter& begin_inline_object() { return open('{', true); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', false); }
  JsonWriter& begin_inline_array() { return open('[', true); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::nullptr_t);
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(int64_t v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  struct Level {
    bool inlined = false;
    size_t entries = 0;
  };

  JsonWriter& open(char bracket, bool inlined);
  JsonWriter& close(char bracket);
  /// Comma/newline/indent before the next entry of the current container.
  void separate();
  bool inlined() const {
    return indent_ == 0 || (!stack_.empty() && stack_.back().inlined);
  }

  int indent_;
  std::string out_;
  std::vector<Level> stack_;
  bool after_key_ = false;
};

/// Parse or structural error; `position` is the byte offset into the input.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, size_t position)
      : std::runtime_error(message), position_(position) {}
  size_t position() const { return position_; }

 private:
  size_t position_ = 0;
};

/// One JSON number token: integral when written without '.' or exponent and
/// within int64 (then `value` is its double image), otherwise a double.
struct JsonNumber {
  double value = 0.0;
  int64_t integer = 0;
  bool integral = false;
};

/// A parsed or programmatically built JSON document. Objects preserve
/// insertion order (and `dump` reproduces it), so emitted schemas are stable.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue number(int64_t v);
  static JsonValue number(uint64_t v);
  static JsonValue number(int v) { return number(static_cast<int64_t>(v)); }
  static JsonValue string(std::string_view v);
  static JsonValue array();
  static JsonValue object();

  /// Strict parser over the whole input (trailing whitespace allowed,
  /// anything else throws JsonError); a tree builder over JsonReader.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  /// Number that was written without '.' or exponent and fits int64.
  bool is_integer() const { return kind_ == Kind::kNumber && integral_; }

  bool as_bool() const;
  double as_number() const;
  int64_t as_integer() const;  ///< throws unless is_integer()
  const std::string& as_string() const;

  // --- arrays.
  size_t size() const;  ///< entries of an array or object
  const JsonValue& at(size_t index) const;
  void push_back(JsonValue v);  ///< null promotes to array

  // --- objects.
  const std::vector<Member>& members() const;
  /// Member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Insert-or-overwrite, preserving first-insertion order; null promotes to
  /// an object, so `doc["a"]["b"] = ...` builds nested objects.
  JsonValue& operator[](std::string_view key);

  // --- typed member conveniences for protocol parsing (defaults on absent).
  double number_or(std::string_view key, double fallback) const;
  int64_t int_or(std::string_view key, int64_t fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string_view fallback) const;

  /// Serialize; indent == 0 is the compact one-line form used for NDJSON.
  std::string dump(int indent = 0) const;
  /// Emit into an open writer (the value in the current position).
  void write(JsonWriter& writer) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  int64_t integer_ = 0;
  bool integral_ = false;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Strict pull tokenizer over a complete JSON text. The consumer drives it
/// value by value: peek() names the kind of the next value, the typed reads
/// and begin_object/begin_array consume it, and next_key/next_element step
/// through containers until they report the closing bracket. skip_value()
/// consumes any value with full validation, and finish() rejects anything
/// but whitespace after the top-level value. Nesting is capped at 128
/// levels. Every syntax error throws JsonError with the byte offset.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Kind of the next value, without consuming it.
  JsonValue::Kind peek();

  void begin_object();
  /// Next member of the innermost object: true with its name in `key` (the
  /// reader is then positioned at the member's value), false once the
  /// closing '}' is consumed.
  bool next_key(std::string& key);
  void begin_array();
  /// True when the innermost array has another element (the reader is then
  /// positioned at it), false once the closing ']' is consumed.
  bool next_element();

  void read_null();
  bool read_bool();
  JsonNumber read_number();
  std::string read_string();

  /// Consume the next value, validating it exactly as a typed read would.
  void skip_value();
  /// Require that only whitespace follows the top-level value.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& message) const;
  void skip_whitespace();
  /// Depth check and whitespace skip before a value; its first byte.
  char start_value();
  bool consume(char expected);
  void expect(char expected);
  bool consume_word(std::string_view word);
  /// Comma or closing bracket before the next entry of the innermost
  /// container; false (and the container closed) at the closing bracket.
  bool next_entry(char close);
  void open(char bracket);
  uint32_t parse_hex4();
  void parse_string(std::string& out);

  std::string_view text_;
  size_t position_ = 0;
  size_t depth_ = 0;  ///< open containers
  /// The innermost container has no entry yet. Only the innermost needs the
  /// flag: every enclosing container already holds the entry being read.
  bool first_ = false;
};

}  // namespace autosec::util
