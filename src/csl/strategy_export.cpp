#include "csl/strategy_export.hpp"

#include <limits>

#include "csl/property.hpp"
#include "util/json.hpp"

namespace autosec::csl {

namespace {

using util::JsonReader;
using util::JsonValue;
using util::JsonWriter;

/// Chosen row of `state` after `elapsed` steps, or -1 when the scheduler is
/// indifferent (frozen zero/one states, exhausted horizon).
int32_t chosen_row(const StrategyExport& strategy, size_t state, size_t elapsed) {
  if (strategy.bounded) {
    if (elapsed >= strategy.schedule.size()) return -1;
    return strategy.schedule[elapsed][state];
  }
  return strategy.rows[state];
}

/// Follow the scheduler from the initial state, always stepping to the most
/// probable *advancing* successor (ties to the lowest state index) — failed
/// attempts leave the state unchanged and would dominate by raw probability,
/// but the counterexample trace a security review reads is the sequence of
/// successful exploits: which interface the worst-case attacker hits, in
/// which order. Stops at a target state, at an indifferent state, when no
/// successor advances, on a revisit (unbounded cycle), or after a hard cap.
JsonValue attack_path(const StrategyExport& strategy,
                      const symbolic::StateSpace& space, const mdp::Mdp& query,
                      const std::vector<bool>& target) {
  JsonValue path = JsonValue::array();
  const size_t states = query.state_count();
  std::vector<bool> visited(states, false);
  size_t state = space.initial_state();
  constexpr size_t kMaxTrace = 10'000;
  for (size_t elapsed = 0; elapsed < kMaxTrace; ++elapsed) {
    JsonValue entry = JsonValue::object();
    entry["state"] = JsonValue::number(static_cast<uint64_t>(state));
    entry["values"] = JsonValue::string(space.state_to_string(state));
    if (state < target.size() && target[state]) {
      entry["target"] = JsonValue::boolean(true);
      path.push_back(std::move(entry));
      break;
    }
    const int32_t row = chosen_row(strategy, state, elapsed);
    if (row < 0 || (!strategy.bounded && visited[state])) {
      path.push_back(std::move(entry));
      break;
    }
    visited[state] = true;
    const auto r = static_cast<size_t>(row);
    entry["action"] = JsonValue::string(query.action_labels[r]);
    // Most probable successor of the chosen row that actually advances.
    size_t best = state;
    double best_probability = -1.0;
    const auto cols = query.transitions.row_columns(r);
    const auto vals = query.transitions.row_values(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      const double p = vals[k];
      const size_t to = cols[k];
      if (to == state) continue;
      if (p > best_probability || (p == best_probability && to < best)) {
        best_probability = p;
        best = to;
      }
    }
    if (best_probability < 0.0) {
      path.push_back(std::move(entry));
      break;  // every branch self-loops: the trace cannot advance
    }
    entry["probability"] = JsonValue::number(best_probability);
    path.push_back(std::move(entry));
    state = best;
  }
  return path;
}

void write_rows(JsonWriter& writer, const std::vector<int32_t>& rows) {
  writer.begin_array();
  for (const int32_t row : rows) writer.value(static_cast<int64_t>(row));
  writer.end_array();
}

// --- decoding -------------------------------------------------------------
//
// The decoder scans the whole document before judging any member, keeping
// the last occurrence of each (a tree lookup's semantics), so a syntax error
// anywhere wins over a content error. Content faults are therefore recorded
// as messages, never thrown mid-scan. A member of the wrong kind reads as
// its fallback, like JsonValue's typed member conveniences.

int64_t integer_or(JsonReader& reader, int64_t fallback) {
  if (reader.peek() != JsonValue::Kind::kNumber) {
    reader.skip_value();
    return fallback;
  }
  const util::JsonNumber number = reader.read_number();
  return number.integral ? number.integer : fallback;
}

double number_or(JsonReader& reader, double fallback) {
  if (reader.peek() != JsonValue::Kind::kNumber) {
    reader.skip_value();
    return fallback;
  }
  return reader.read_number().value;
}

bool bool_or(JsonReader& reader, bool fallback) {
  if (reader.peek() != JsonValue::Kind::kBool) {
    reader.skip_value();
    return fallback;
  }
  return reader.read_bool();
}

std::string string_or(JsonReader& reader, std::string fallback) {
  if (reader.peek() != JsonValue::Kind::kString) {
    reader.skip_value();
    return fallback;
  }
  return reader.read_string();
}

/// Decode an array of row indices into `rows`; returns the first content
/// fault ("" when none).
std::string read_rows(JsonReader& reader, const char* what, std::vector<int32_t>& rows) {
  rows.clear();
  const std::string prefix = std::string("strategy document: ") + what;
  if (reader.peek() != JsonValue::Kind::kArray) {
    reader.skip_value();
    return prefix + " must be an array of row indices";
  }
  std::string fault;
  reader.begin_array();
  while (reader.next_element()) {
    if (!fault.empty() || reader.peek() != JsonValue::Kind::kNumber) {
      reader.skip_value();
      if (fault.empty()) fault = prefix + " entries must be integers";
      continue;
    }
    const util::JsonNumber entry = reader.read_number();
    if (!entry.integral) {
      fault = prefix + " entries must be integers";
    } else if (entry.integer < -1 ||
               entry.integer > std::numeric_limits<int32_t>::max()) {
      fault = prefix + " entry out of range";
    } else {
      rows.push_back(static_cast<int32_t>(entry.integer));
    }
  }
  return fault;
}

/// Decode the per-step schedule; returns the first content fault in step
/// order ("" when none).
std::string read_schedule(JsonReader& reader,
                          std::vector<std::vector<int32_t>>& schedule) {
  schedule.clear();
  if (reader.peek() != JsonValue::Kind::kArray) {
    reader.skip_value();
    return "strategy document: bounded strategy requires a schedule array";
  }
  std::string fault;
  reader.begin_array();
  while (reader.next_element()) {
    if (!fault.empty()) {
      reader.skip_value();
      continue;
    }
    std::vector<int32_t> step;
    fault = read_rows(reader, "schedule step", step);
    if (fault.empty() && !schedule.empty() && step.size() != schedule.front().size()) {
      fault = "strategy document: ragged schedule (steps differ in state count)";
    }
    schedule.push_back(std::move(step));
  }
  return fault;
}

}  // namespace

std::string write_strategy_json(const StrategyExport& strategy,
                                const symbolic::StateSpace& space,
                                const mdp::Mdp& query_mdp,
                                const std::vector<bool>& target) {
  JsonWriter writer(2);
  writer.begin_object();
  writer.key("version").value(int64_t{1});
  writer.key("model_type").value("mdp");
  writer.key("property").value(strategy.property);
  writer.key("direction").value(strategy.direction);
  writer.key("bounded").value(strategy.bounded);
  writer.key("value").value(strategy.value);
  writer.key("induced_value").value(strategy.induced_value);
  writer.key("states").value(static_cast<uint64_t>(query_mdp.state_count()));
  if (strategy.bounded) {
    writer.key("steps").value(static_cast<uint64_t>(strategy.schedule.size()));
    writer.key("schedule").begin_array();
    for (const std::vector<int32_t>& step_rows : strategy.schedule) {
      write_rows(writer, step_rows);
    }
    writer.end_array();
  } else {
    writer.key("rows");
    write_rows(writer, strategy.rows);
  }
  // Per-row action labels, so a human can read the rows/schedule without the
  // model in hand. Indexed by flattened row, like the rows themselves.
  writer.key("actions").begin_array();
  for (const std::string& label : query_mdp.action_labels) writer.value(label);
  writer.end_array();
  writer.key("attack_path");
  attack_path(strategy, space, query_mdp, target).write(writer);
  writer.end_object();
  std::string text = writer.take();
  text += '\n';
  return text;
}

StrategyExport parse_strategy_json(std::string_view text) {
  StrategyExport strategy;
  bool is_object = false;
  int64_t version = 0;
  bool has_rows = false;
  bool has_schedule = false;
  std::vector<int32_t> rows;
  std::vector<std::vector<int32_t>> schedule;
  std::string rows_fault;
  std::string schedule_fault;
  try {
    JsonReader reader(text);
    is_object = reader.peek() == JsonValue::Kind::kObject;
    if (is_object) {
      std::string key;
      reader.begin_object();
      while (reader.next_key(key)) {
        if (key == "version") {
          version = integer_or(reader, 0);
        } else if (key == "bounded") {
          strategy.bounded = bool_or(reader, false);
        } else if (key == "value") {
          strategy.value = number_or(reader, 0.0);
        } else if (key == "induced_value") {
          strategy.induced_value = number_or(reader, 0.0);
        } else if (key == "property") {
          strategy.property = string_or(reader, "");
        } else if (key == "direction") {
          strategy.direction = string_or(reader, "");
        } else if (key == "rows") {
          has_rows = true;
          rows_fault = read_rows(reader, "rows", rows);
        } else if (key == "schedule") {
          has_schedule = true;
          schedule_fault = read_schedule(reader, schedule);
        } else {
          reader.skip_value();  // actions, attack_path, states, unknown members
        }
      }
    } else {
      reader.skip_value();
    }
    reader.finish();
  } catch (const util::JsonError& e) {
    throw PropertyError(std::string("strategy document: ") + e.what());
  }
  if (!is_object) throw PropertyError("strategy document: expected a JSON object");
  if (version != 1) {
    throw PropertyError("strategy document: unsupported version (want 1)");
  }
  if (strategy.direction != "max" && strategy.direction != "min") {
    throw PropertyError("strategy document: direction must be \"max\" or \"min\"");
  }
  if (strategy.bounded) {
    if (!has_schedule) {
      throw PropertyError(
          "strategy document: bounded strategy requires a schedule array");
    }
    if (!schedule_fault.empty()) throw PropertyError(schedule_fault);
    strategy.schedule = std::move(schedule);
  } else {
    if (!has_rows) {
      throw PropertyError(
          "strategy document: memoryless strategy requires a rows array");
    }
    if (!rows_fault.empty()) throw PropertyError(rows_fault);
    strategy.rows = std::move(rows);
  }
  return strategy;
}

}  // namespace autosec::csl
