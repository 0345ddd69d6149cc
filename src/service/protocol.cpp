#include "service/protocol.hpp"

#include <cmath>
#include <limits>

#include "util/json.hpp"

namespace autosec::service {

namespace {

using automotive::SecurityCategory;
using util::JsonValue;

/// Thrown internally while validating a request; converted to the
/// bad_request ErrorInfo of the ParseResult.
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::string_view kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

std::string expect_string(const JsonValue& value, std::string_view key) {
  if (!value.is_string()) {
    throw BadRequest("field '" + std::string(key) + "' must be a string, got " +
                     std::string(kind_name(value.kind())));
  }
  return value.as_string();
}

double expect_number(const JsonValue& value, std::string_view key) {
  if (!value.is_number()) {
    throw BadRequest("field '" + std::string(key) + "' must be a number, got " +
                     std::string(kind_name(value.kind())));
  }
  return value.as_number();
}

int64_t expect_integer(const JsonValue& value, std::string_view key) {
  if (!value.is_integer()) {
    throw BadRequest("field '" + std::string(key) + "' must be an integer");
  }
  return value.as_integer();
}

std::vector<std::string> expect_string_array(const JsonValue& value,
                                             std::string_view key) {
  if (!value.is_array()) {
    throw BadRequest("field '" + std::string(key) + "' must be an array of strings");
  }
  std::vector<std::string> out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    out.push_back(expect_string(value.at(i), key));
  }
  return out;
}

SecurityCategory expect_category(const JsonValue& value, std::string_view key) {
  const std::string text = expect_string(value, key);
  const std::optional<SecurityCategory> category = parse_category_token(text);
  if (!category) {
    throw BadRequest("unknown category '" + text +
                     "' (confidentiality|integrity|availability)");
  }
  return *category;
}

}  // namespace

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kAnalyze: return "analyze";
    case Op::kCheck: return "check";
    case Op::kSweep: return "sweep";
    case Op::kDiagnose: return "diagnose";
    case Op::kStatus: return "status";
  }
  return "?";
}

std::optional<SecurityCategory> parse_category_token(std::string_view text) {
  if (text == "confidentiality") return SecurityCategory::kConfidentiality;
  if (text == "integrity") return SecurityCategory::kIntegrity;
  if (text == "availability") return SecurityCategory::kAvailability;
  return std::nullopt;
}

ParseResult parse_request(std::string_view line) {
  ParseResult result;
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const util::JsonError& error) {
    result.error = {"bad_request",
                    std::string("malformed JSON: ") + error.what(), ""};
    return result;
  }
  if (!doc.is_object()) {
    result.error = {"bad_request", "request must be a JSON object", ""};
    return result;
  }

  // Salvage id/op for the error envelope before strict validation.
  if (const JsonValue* id = doc.find("id"); id && id->is_string()) {
    result.id = id->as_string();
  }
  if (const JsonValue* op = doc.find("op"); op && op->is_string()) {
    result.op_text = op->as_string();
  }

  try {
    Request request;
    request.id = result.id;

    const JsonValue* op = doc.find("op");
    if (!op) throw BadRequest("missing required field 'op'");
    const std::string op_text = expect_string(*op, "op");
    if (op_text == "analyze") request.op = Op::kAnalyze;
    else if (op_text == "check") request.op = Op::kCheck;
    else if (op_text == "sweep") request.op = Op::kSweep;
    else if (op_text == "diagnose") request.op = Op::kDiagnose;
    else if (op_text == "status") request.op = Op::kStatus;
    else throw BadRequest("unknown op '" + op_text +
                          "' (analyze|check|sweep|diagnose|status)");

    for (const auto& [key, value] : doc.members()) {
      if (key == "op") {
        // validated above
      } else if (key == "id") {
        expect_string(value, key);  // any string; salvaged above
      } else if (key == "architecture") {
        request.architecture = expect_string(value, key);
      } else if (key == "messages") {
        request.messages = expect_string_array(value, key);
      } else if (key == "categories") {
        if (!value.is_array()) {
          throw BadRequest("field 'categories' must be an array");
        }
        for (size_t i = 0; i < value.size(); ++i) {
          request.categories.push_back(expect_category(value.at(i), key));
        }
      } else if (key == "message") {
        request.message = expect_string(value, key);
      } else if (key == "category") {
        request.category = expect_category(value, key);
      } else if (key == "properties") {
        request.properties = expect_string_array(value, key);
      } else if (key == "constant") {
        request.constant = expect_string(value, key);
      } else if (key == "values") {
        if (!value.is_array()) {
          throw BadRequest("field 'values' must be an array of numbers");
        }
        for (size_t i = 0; i < value.size(); ++i) {
          request.values.push_back(expect_number(value.at(i), key));
        }
      } else if (key == "nmax") {
        const int64_t nmax = expect_integer(value, key);
        if (nmax < 1 || nmax > 16) throw BadRequest("nmax must be in [1, 16]");
        request.nmax = static_cast<int>(nmax);
      } else if (key == "horizon_years") {
        request.horizon_years = expect_number(value, key);
        if (!(request.horizon_years > 0.0) ||
            !std::isfinite(request.horizon_years)) {
          throw BadRequest("horizon_years must be a finite number > 0");
        }
      } else if (key == "overrides") {
        if (!value.is_object()) {
          throw BadRequest("field 'overrides' must be an object of numbers");
        }
        for (const auto& [name, constant] : value.members()) {
          request.overrides.emplace_back(
              name, symbolic::Value::of(expect_number(constant, key)));
        }
      } else if (key == "timeout_ms") {
        const int64_t timeout = expect_integer(value, key);
        if (timeout < 0) throw BadRequest("timeout_ms must be >= 0");
        request.timeout_ms = timeout;
      } else if (key == "max_states") {
        const int64_t max_states = expect_integer(value, key);
        if (max_states < 1) throw BadRequest("max_states must be >= 1");
        request.max_states = max_states;
      } else if (key == "max_memory_mb") {
        const int64_t max_memory = expect_integer(value, key);
        if (max_memory < 1) throw BadRequest("max_memory_mb must be >= 1");
        request.max_memory_mb = max_memory;
      } else if (key == "solver") {
        const std::string solver = expect_string(value, key);
        if (solver == "auto") request.solver = linalg::FixpointMethod::kAuto;
        else if (solver == "gauss_seidel") {
          request.solver = linalg::FixpointMethod::kGaussSeidel;
        } else if (solver == "krylov") {
          request.solver = linalg::FixpointMethod::kKrylov;
        } else {
          throw BadRequest("unknown solver '" + solver +
                           "' (auto|gauss_seidel|krylov)");
        }
      } else if (key == "engine") {
        const std::string engine = expect_string(value, key);
        const auto parsed = symbolic::parse_engine_token(engine);
        if (!parsed) {
          throw BadRequest("unknown engine '" + engine +
                           "' (auto|compact)");
        }
        request.engine = *parsed;
      } else if (key == "model_type") {
        const std::string model_type = expect_string(value, key);
        const auto parsed = symbolic::parse_model_type_token(model_type);
        if (!parsed) {
          throw BadRequest("unknown model_type '" + model_type + "' (ctmc|mdp)");
        }
        request.model_type = *parsed;
      } else if (key == "strategy") {
        if (!value.is_bool()) {
          throw BadRequest("field 'strategy' must be a boolean");
        }
        request.strategy = value.as_bool();
      } else {
        throw BadRequest("unknown field '" + key + "'");
      }
    }

    // Per-op required fields.
    if (request.op != Op::kStatus && request.architecture.empty()) {
      throw BadRequest("op '" + std::string(op_name(request.op)) +
                       "' requires field 'architecture'");
    }
    if (request.op == Op::kCheck || request.op == Op::kSweep ||
        request.op == Op::kDiagnose) {
      if (request.message.empty()) {
        throw BadRequest("op '" + std::string(op_name(request.op)) +
                         "' requires field 'message'");
      }
    }
    if (request.op == Op::kCheck && request.properties.empty()) {
      throw BadRequest("op 'check' requires a non-empty 'properties' array");
    }
    if (request.strategy) {
      if (request.op != Op::kCheck) {
        throw BadRequest("field 'strategy' is only valid on op 'check'");
      }
      if (request.model_type != symbolic::ModelType::kMdp) {
        throw BadRequest(
            "field 'strategy' requires model_type 'mdp' (a ctmc has no "
            "scheduler to export)");
      }
    }
    if (request.model_type == symbolic::ModelType::kMdp &&
        request.op != Op::kCheck && request.op != Op::kStatus) {
      throw BadRequest(
          "op '" + std::string(op_name(request.op)) +
          "' supports model_type 'ctmc' only; use op 'check' with "
          "Pmax/Pmin properties for mdp models");
    }
    if (request.op == Op::kSweep) {
      if (request.constant.empty()) {
        throw BadRequest("op 'sweep' requires field 'constant'");
      }
      if (request.values.empty()) {
        throw BadRequest("op 'sweep' requires a non-empty 'values' array");
      }
    }
    result.request = std::move(request);
  } catch (const BadRequest& error) {
    result.error = {"bad_request", error.what(), ""};
  }
  return result;
}

std::string synthetic_envelope(std::string_view id, std::string_view op_text,
                               const ErrorInfo& error) {
  util::JsonWriter writer(0);
  writer.begin_object();
  writer.key("schema_version").value(kSchemaVersion);
  writer.key("id").value(id);
  writer.key("op").value(op_text);
  writer.key("ok").value(false);
  writer.key("error");
  writer.begin_object();
  writer.key("code").value(error.code);
  writer.key("message").value(error.message);
  if (!error.stage.empty()) writer.key("stage").value(error.stage);
  if (error.retry_after_ms) {
    writer.key("retry_after_ms").value(*error.retry_after_ms);
  }
  writer.end_object();
  writer.key("metrics");
  writer.begin_object();
  writer.key("wall_seconds").value(0.0);
  writer.key("session_cache").value("none");
  writer.key("disk_cache").value("none");
  writer.key("explores").value(static_cast<uint64_t>(0));
  writer.key("states").value(static_cast<uint64_t>(0));
  writer.key("solver_fallbacks").value(static_cast<uint64_t>(0));
  writer.key("engine").value("none");
  writer.end_object();
  writer.end_object();
  return writer.take();
}

}  // namespace autosec::service
