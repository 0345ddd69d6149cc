#include "testing/strategy_reference.hpp"

#include <limits>
#include <string>
#include <vector>

#include "csl/property.hpp"
#include "util/json.hpp"

namespace autosec::testing {

namespace {

using csl::PropertyError;
using util::JsonValue;

std::vector<int32_t> parse_rows(const JsonValue& value, const char* what) {
  if (!value.is_array()) {
    throw PropertyError(std::string("strategy document: ") + what +
                        " must be an array of row indices");
  }
  std::vector<int32_t> rows;
  rows.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    const JsonValue& entry = value.at(i);
    if (!entry.is_integer()) {
      throw PropertyError(std::string("strategy document: ") + what +
                          " entries must be integers");
    }
    const int64_t row = entry.as_integer();
    if (row < -1 || row > std::numeric_limits<int32_t>::max()) {
      throw PropertyError(std::string("strategy document: ") + what +
                          " entry out of range");
    }
    rows.push_back(static_cast<int32_t>(row));
  }
  return rows;
}

}  // namespace

csl::StrategyExport reference_parse_strategy_json(std::string_view text) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const util::JsonError& e) {
    throw PropertyError(std::string("strategy document: ") + e.what());
  }
  if (!doc.is_object()) throw PropertyError("strategy document: expected a JSON object");
  if (doc.int_or("version", 0) != 1) {
    throw PropertyError("strategy document: unsupported version (want 1)");
  }
  csl::StrategyExport strategy;
  strategy.bounded = doc.bool_or("bounded", false);
  strategy.value = doc.number_or("value", 0.0);
  strategy.induced_value = doc.number_or("induced_value", 0.0);
  strategy.property = doc.string_or("property", "");
  strategy.direction = doc.string_or("direction", "");
  if (strategy.direction != "max" && strategy.direction != "min") {
    throw PropertyError("strategy document: direction must be \"max\" or \"min\"");
  }
  if (strategy.bounded) {
    const JsonValue* schedule = doc.find("schedule");
    if (schedule == nullptr || !schedule->is_array()) {
      throw PropertyError(
          "strategy document: bounded strategy requires a schedule array");
    }
    strategy.schedule.reserve(schedule->size());
    for (size_t i = 0; i < schedule->size(); ++i) {
      strategy.schedule.push_back(parse_rows(schedule->at(i), "schedule step"));
      if (!strategy.schedule.empty() &&
          strategy.schedule.back().size() != strategy.schedule.front().size()) {
        throw PropertyError(
            "strategy document: ragged schedule (steps differ in state count)");
      }
    }
  } else {
    const JsonValue* rows = doc.find("rows");
    if (rows == nullptr) {
      throw PropertyError(
          "strategy document: memoryless strategy requires a rows array");
    }
    strategy.rows = parse_rows(*rows, "rows");
  }
  return strategy;
}

}  // namespace autosec::testing
