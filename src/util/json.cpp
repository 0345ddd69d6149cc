#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/numeric.hpp"

namespace autosec::util {

namespace {

/// Shortest round-trip decimal form of `value`, appended without a
/// temporary string.
template <typename Number>
void append_number(std::string& out, Number value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) throw std::runtime_error("json_number: to_chars failed");
  out.append(buffer, end);
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  append_number<double>(out, value);
}

template <typename Number>
std::string number_text(Number value) {
  std::string out;
  append_number(out, value);
  return out;
}

}  // namespace

void json_escape(std::string& out, std::string_view text) {
  // Copy runs of plain bytes in one append; escape the rest one by one.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buffer;
      }
    }
  }
  out.append(text.data() + run, text.size() - run);  // includes UTF-8 bytes
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  json_escape(out, text);
  out += '"';
  return out;
}

std::string json_number(double value) { return number_text(value); }
std::string json_number(int64_t value) { return number_text(value); }
std::string json_number(uint64_t value) { return number_text(value); }

// --- JsonWriter ---------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Level& level = stack_.back();
  const bool single_line = inlined();
  if (level.entries > 0) out_ += single_line ? ", " : ",";
  level.entries += 1;
  if (!single_line) {
    out_ += '\n';
    out_.append(indent_ * stack_.size(), ' ');
  }
}

JsonWriter& JsonWriter::open(char bracket, bool inlined_subtree) {
  separate();
  // An inline parent forces every child inline too.
  const bool parent_inline = !stack_.empty() && stack_.back().inlined;
  stack_.push_back({inlined_subtree || parent_inline, 0});
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  if (stack_.empty()) throw std::logic_error("JsonWriter: unbalanced close");
  const Level level = stack_.back();
  stack_.pop_back();
  if (level.entries > 0 && indent_ > 0 && !level.inlined) {
    out_ += '\n';
    out_.append(indent_ * stack_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += '"';
  json_escape(out_, name);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::nullptr_t) {
  separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  separate();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  separate();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  json_escape(out_, v);
  out_ += '"';
  return *this;
}

// --- JsonValue builders -------------------------------------------------

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::number(int64_t v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = static_cast<double>(v);
  out.integer_ = v;
  out.integral_ = true;
  return out;
}

JsonValue JsonValue::number(uint64_t v) {
  if (v <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return number(static_cast<int64_t>(v));
  }
  return number(static_cast<double>(v));
}

JsonValue JsonValue::string(std::string_view v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::string(v);
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

// --- JsonValue accessors ------------------------------------------------

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw JsonError(std::string("json: value is not ") + wanted, 0);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return integral_ ? static_cast<double>(integer_) : number_;
}

int64_t JsonValue::as_integer() const {
  if (!is_integer()) kind_error("an integer");
  return integer_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return string_;
}

size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(size_t index) const {
  if (kind_ != Kind::kArray) kind_error("an array");
  if (index >= array_.size()) throw JsonError("json: array index out of range", 0);
  return array_[index];
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) kind_error("an array");
  array_.push_back(std::move(v));
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

JsonValue& JsonValue::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("an object");
  for (Member& member : object_) {
    if (member.first == key) return member.second;
  }
  object_.emplace_back(std::string(key), JsonValue());
  return object_.back().second;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_number() ? member->as_number() : fallback;
}

int64_t JsonValue::int_or(std::string_view key, int64_t fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_integer() ? member->as_integer() : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_bool() ? member->as_bool() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_string() ? member->as_string()
                                                  : std::string(fallback);
}

void JsonValue::write(JsonWriter& writer) const {
  switch (kind_) {
    case Kind::kNull: writer.value(nullptr); return;
    case Kind::kBool: writer.value(bool_); return;
    case Kind::kNumber:
      if (integral_) {
        writer.value(integer_);
      } else {
        writer.value(number_);
      }
      return;
    case Kind::kString: writer.value(std::string_view(string_)); return;
    case Kind::kArray:
      writer.begin_array();
      for (const JsonValue& entry : array_) entry.write(writer);
      writer.end_array();
      return;
    case Kind::kObject:
      writer.begin_object();
      for (const Member& member : object_) {
        writer.key(member.first);
        member.second.write(writer);
      }
      writer.end_object();
      return;
  }
  throw std::logic_error("json: corrupt kind");
}

std::string JsonValue::dump(int indent) const {
  JsonWriter writer(indent);
  write(writer);
  return writer.take();
}

// --- JsonReader ---------------------------------------------------------

namespace {

constexpr size_t kMaxDepth = 128;

void append_utf8(std::string& out, uint32_t code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
  } else if (code_point < 0x800) {
    out += static_cast<char>(0xC0 | (code_point >> 6));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else if (code_point < 0x10000) {
    out += static_cast<char>(0xE0 | (code_point >> 12));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code_point >> 18));
    out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  }
}

}  // namespace

void JsonReader::fail(const std::string& message) const {
  throw JsonError("json parse error: " + message, position_);
}

void JsonReader::skip_whitespace() {
  while (position_ < text_.size()) {
    const char c = text_[position_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++position_;
  }
}

char JsonReader::start_value() {
  if (depth_ > kMaxDepth) fail("nesting too deep");
  skip_whitespace();
  if (position_ >= text_.size()) fail("unexpected end of input");
  return text_[position_];
}

bool JsonReader::consume(char expected) {
  if (position_ < text_.size() && text_[position_] == expected) {
    ++position_;
    return true;
  }
  return false;
}

void JsonReader::expect(char expected) {
  if (!consume(expected)) fail(std::string("expected '") + expected + "'");
}

bool JsonReader::consume_word(std::string_view word) {
  if (text_.substr(position_, word.size()) == word) {
    position_ += word.size();
    return true;
  }
  return false;
}

JsonValue::Kind JsonReader::peek() {
  const char c = start_value();
  if (c == '{') return JsonValue::Kind::kObject;
  if (c == '[') return JsonValue::Kind::kArray;
  if (c == '"') return JsonValue::Kind::kString;
  if (c == '-' || (c >= '0' && c <= '9')) return JsonValue::Kind::kNumber;
  const std::string_view rest = text_.substr(position_);
  if (rest.substr(0, 4) == "true" || rest.substr(0, 5) == "false") {
    return JsonValue::Kind::kBool;
  }
  if (rest.substr(0, 4) == "null") return JsonValue::Kind::kNull;
  fail("unexpected character");
}

void JsonReader::open(char bracket) {
  if (start_value() != bracket) fail(std::string("expected '") + bracket + "'");
  ++position_;
  ++depth_;
  first_ = true;
}

void JsonReader::begin_object() { open('{'); }
void JsonReader::begin_array() { open('['); }

bool JsonReader::next_entry(char close) {
  if (depth_ == 0) throw std::logic_error("JsonReader: no open container");
  skip_whitespace();
  if (first_) {
    first_ = false;
    if (!consume(close)) return true;
  } else {
    if (consume(',')) return true;
    expect(close);
  }
  --depth_;
  return false;
}

bool JsonReader::next_key(std::string& key) {
  if (!next_entry('}')) return false;
  skip_whitespace();
  if (position_ >= text_.size()) fail("unexpected end of input");
  if (text_[position_] != '"') fail("expected object key");
  parse_string(key);
  skip_whitespace();
  expect(':');
  return true;
}

bool JsonReader::next_element() { return next_entry(']'); }

void JsonReader::read_null() {
  start_value();
  if (!consume_word("null")) fail("expected null");
}

bool JsonReader::read_bool() {
  start_value();
  if (consume_word("true")) return true;
  if (consume_word("false")) return false;
  fail("expected a boolean");
}

JsonNumber JsonReader::read_number() {
  const char c = start_value();
  if (c != '-' && (c < '0' || c > '9')) fail("expected a number");
  const size_t start = position_;
  bool integral = true;
  consume('-');
  while (position_ < text_.size()) {
    const char d = text_[position_];
    if (d >= '0' && d <= '9') {
      ++position_;
    } else if (d == '.' || d == 'e' || d == 'E' || d == '+' || d == '-') {
      integral = false;
      ++position_;
    } else {
      break;
    }
  }
  const std::string_view token = text_.substr(start, position_ - start);
  if (integral) {
    if (const std::optional<int64_t> value = parse_int(token)) {
      return {static_cast<double>(*value), *value, true};
    }
    // Out-of-range integer literal: fall through to double.
  }
  const std::optional<double> value = parse_double(token);
  if (!value) fail("malformed number");
  return {*value, 0, false};
}

std::string JsonReader::read_string() {
  if (start_value() != '"') fail("expected a string");
  std::string out;
  parse_string(out);
  return out;
}

void JsonReader::skip_value() {
  switch (peek()) {
    case JsonValue::Kind::kNull: read_null(); return;
    case JsonValue::Kind::kBool: read_bool(); return;
    case JsonValue::Kind::kNumber: read_number(); return;
    case JsonValue::Kind::kString: {
      std::string scratch;
      parse_string(scratch);
      return;
    }
    case JsonValue::Kind::kArray:
      begin_array();
      while (next_element()) skip_value();
      return;
    case JsonValue::Kind::kObject: {
      std::string key;
      begin_object();
      while (next_key(key)) skip_value();
      return;
    }
  }
}

void JsonReader::finish() {
  if (depth_ != 0) throw std::logic_error("JsonReader: finish inside a container");
  skip_whitespace();
  if (position_ != text_.size()) fail("trailing characters after JSON value");
}

uint32_t JsonReader::parse_hex4() {
  if (position_ + 4 > text_.size()) fail("truncated \\u escape");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[position_++];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
    else fail("invalid \\u escape");
  }
  return value;
}

void JsonReader::parse_string(std::string& out) {
  out.clear();
  expect('"');
  while (true) {
    // Copy the run up to the next quote, backslash or control byte at once.
    const size_t run = position_;
    while (position_ < text_.size()) {
      const char c = text_[position_];
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      ++position_;
    }
    out.append(text_.data() + run, position_ - run);
    if (position_ >= text_.size()) fail("unterminated string");
    const char c = text_[position_++];
    if (c == '"') return;
    if (c != '\\') fail("raw control character in string");
    if (position_ >= text_.size()) fail("truncated escape");
    const char escape = text_[position_++];
    switch (escape) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        uint32_t code_point = parse_hex4();
        if (code_point >= 0xD800 && code_point <= 0xDBFF) {
          // High surrogate: must pair with a following \uDC00-\uDFFF.
          if (!consume('\\') || !consume('u')) fail("unpaired surrogate");
          const uint32_t low = parse_hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
          code_point = 0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
        } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
          fail("unpaired surrogate");
        }
        append_utf8(out, code_point);
        break;
      }
      default: fail("unknown escape");
    }
  }
}

// --- JsonValue::parse: a tree builder over the reader ---------------------

namespace {

JsonValue build_value(JsonReader& reader) {
  switch (reader.peek()) {
    case JsonValue::Kind::kNull: reader.read_null(); return JsonValue::null();
    case JsonValue::Kind::kBool: return JsonValue::boolean(reader.read_bool());
    case JsonValue::Kind::kNumber: {
      const JsonNumber number = reader.read_number();
      return number.integral ? JsonValue::number(number.integer)
                             : JsonValue::number(number.value);
    }
    case JsonValue::Kind::kString: return JsonValue::string(reader.read_string());
    case JsonValue::Kind::kArray: {
      JsonValue out = JsonValue::array();
      reader.begin_array();
      while (reader.next_element()) out.push_back(build_value(reader));
      return out;
    }
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      std::string key;
      reader.begin_object();
      while (reader.next_key(key)) out[key] = build_value(reader);
      return out;
    }
  }
  throw std::logic_error("json: corrupt kind");
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  JsonReader reader(text);
  JsonValue value = build_value(reader);
  reader.finish();
  return value;
}

}  // namespace autosec::util
