#include "symbolic/model.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace autosec::symbolic {

std::string_view model_type_token(ModelType type) {
  switch (type) {
    case ModelType::kCtmc: return "ctmc";
    case ModelType::kMdp: return "mdp";
  }
  return "?";
}

std::optional<ModelType> parse_model_type_token(std::string_view text) {
  if (text == "ctmc") return ModelType::kCtmc;
  if (text == "mdp") return ModelType::kMdp;
  return std::nullopt;
}

const Module* Model::find_module(const std::string& name) const {
  for (const Module& m : modules) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const LabelDecl* Model::find_label(const std::string& name) const {
  for (const LabelDecl& l : labels) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

std::vector<int32_t> CompiledModel::initial_state() const {
  std::vector<int32_t> state(variables.size());
  for (size_t i = 0; i < variables.size(); ++i) state[i] = variables[i].init;
  return state;
}

const CompiledLabel* CompiledModel::find_label(const std::string& name) const {
  for (const CompiledLabel& l : labels) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

const CompiledRewardStruct* CompiledModel::find_rewards(const std::string& name) const {
  for (const CompiledRewardStruct& r : rewards) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

namespace {

int32_t to_int32(const Value& v, const std::string& context) {
  if (!v.is_int()) throw ModelError(context + ": expected an integer, got " + v.to_string());
  const int64_t raw = v.as_int();
  if (raw < INT32_MIN || raw > INT32_MAX) throw ModelError(context + ": value out of range");
  return static_cast<int32_t>(raw);
}

Value coerce_constant(const Value& v, ConstantDecl::Type type, const std::string& name) {
  switch (type) {
    case ConstantDecl::Type::kBool:
      if (!v.is_bool()) throw ModelError("constant '" + name + "' must be boolean");
      return v;
    case ConstantDecl::Type::kInt:
      if (!v.is_int()) throw ModelError("constant '" + name + "' must be an integer");
      return v;
    case ConstantDecl::Type::kDouble:
      if (!v.is_numeric()) throw ModelError("constant '" + name + "' must be numeric");
      return Value::of(v.as_number());
  }
  throw ModelError("corrupt constant type");
}

}  // namespace

CompiledModel compile(const Model& model,
                      const std::vector<std::pair<std::string, Value>>& constant_overrides) {
  CompiledModel out;
  out.type = model.type;

  // --- constants: resolve in declaration order; overrides win.
  std::vector<std::pair<std::string, Value>> constants;
  for (const ConstantDecl& decl : model.constants) {
    for (const auto& [existing, value] : constants) {
      if (existing == decl.name) throw ModelError("duplicate constant '" + decl.name + "'");
    }
    const auto override_it =
        std::find_if(constant_overrides.begin(), constant_overrides.end(),
                     [&](const auto& kv) { return kv.first == decl.name; });
    if (override_it != constant_overrides.end()) {
      constants.emplace_back(decl.name,
                             coerce_constant(override_it->second, decl.type, decl.name));
      continue;
    }
    if (!decl.value.has_value()) {
      throw ModelError("constant '" + decl.name +
                       "' has no value and no override was supplied");
    }
    SymbolScope scope{.constants = &constants, .formulas = nullptr, .variables = nullptr};
    const Expr resolved = decl.value->resolve(scope);
    Value value;
    if (!resolved.as_literal(value)) {
      throw ModelError("constant '" + decl.name + "' does not fold to a literal");
    }
    constants.emplace_back(decl.name, coerce_constant(value, decl.type, decl.name));
  }
  for (const auto& [name, value] : constant_overrides) {
    const bool declared = std::any_of(model.constants.begin(), model.constants.end(),
                                      [&](const ConstantDecl& d) { return d.name == name; });
    if (!declared) throw UndeclaredConstant(name);
    (void)value;
  }

  // --- variable table (global across modules; names must be unique).
  std::vector<std::string> variable_names;
  std::unordered_map<std::string, std::string> module_of_variable;
  for (const Module& module : model.modules) {
    for (const VariableDecl& var : module.variables) {
      if (std::find(variable_names.begin(), variable_names.end(), var.name) !=
          variable_names.end()) {
        throw ModelError("duplicate variable '" + var.name + "'");
      }
      for (const auto& [cname, cvalue] : constants) {
        if (cname == var.name) throw ModelError("variable '" + var.name + "' shadows a constant");
      }
      variable_names.push_back(var.name);
      module_of_variable[var.name] = module.name;
    }
  }

  SymbolScope const_scope{.constants = &constants, .formulas = nullptr, .variables = nullptr};

  for (const Module& module : model.modules) {
    for (const VariableDecl& var : module.variables) {
      CompiledVariable cv;
      cv.name = var.name;
      cv.module = module.name;
      Value v;
      if (!var.low.resolve(const_scope).as_literal(v)) {
        throw ModelError("variable '" + var.name + "': lower bound is not constant");
      }
      cv.low = to_int32(v, "variable '" + var.name + "' lower bound");
      if (!var.high.resolve(const_scope).as_literal(v)) {
        throw ModelError("variable '" + var.name + "': upper bound is not constant");
      }
      cv.high = to_int32(v, "variable '" + var.name + "' upper bound");
      if (!var.init.resolve(const_scope).as_literal(v)) {
        throw ModelError("variable '" + var.name + "': init value is not constant");
      }
      cv.init = to_int32(v, "variable '" + var.name + "' init");
      if (cv.low > cv.high) {
        throw ModelError("variable '" + var.name + "': empty range");
      }
      if (cv.init < cv.low || cv.init > cv.high) {
        throw ModelError("variable '" + var.name + "': init outside range");
      }
      out.variables.push_back(std::move(cv));
    }
  }

  // --- formulas: resolved in declaration order, may reference variables,
  // constants and earlier formulas.
  std::vector<std::pair<std::string, Expr>> formulas;
  for (const FormulaDecl& decl : model.formulas) {
    for (const auto& [existing, body] : formulas) {
      if (existing == decl.name) throw ModelError("duplicate formula '" + decl.name + "'");
    }
    SymbolScope scope{.constants = &constants, .formulas = &formulas,
                      .variables = &variable_names};
    formulas.emplace_back(decl.name, decl.body.resolve(scope));
  }

  SymbolScope full_scope{.constants = &constants, .formulas = &formulas,
                         .variables = &variable_names};

  // --- commands: resolve; enforce the unsynchronized-composition subset.
  std::unordered_map<std::string, std::string> action_module;
  auto variable_index = [&](const std::string& name) -> uint32_t {
    const auto it = std::find(variable_names.begin(), variable_names.end(), name);
    if (it == variable_names.end()) throw ModelError("assignment to unknown variable '" + name + "'");
    return static_cast<uint32_t>(it - variable_names.begin());
  };

  for (const Module& module : model.modules) {
    for (const Command& command : module.commands) {
      if (!command.action.empty()) {
        const auto [it, inserted] = action_module.try_emplace(command.action, module.name);
        if (!inserted && it->second != module.name) {
          throw ModelError("action '" + command.action +
                           "' appears in modules '" + it->second + "' and '" + module.name +
                           "'; synchronized composition is not supported");
        }
      }
      CompiledCommand cc;
      cc.action = command.action;
      cc.module = module.name;
      cc.guard = command.guard.resolve(full_scope);
      // Resolve one update list, with the per-command duplicate and
      // cross-module checks shared by both model types.
      auto resolve_assignments = [&](const std::vector<Assignment>& assignments) {
        std::vector<std::pair<uint32_t, Expr>> resolved;
        std::set<uint32_t> assigned;
        for (const Assignment& a : assignments) {
          const uint32_t index = variable_index(a.variable);
          if (module_of_variable[a.variable] != module.name) {
            throw ModelError("module '" + module.name + "' assigns to variable '" +
                             a.variable + "' of module '" + module_of_variable[a.variable] + "'");
          }
          if (!assigned.insert(index).second) {
            throw ModelError("command assigns variable '" + a.variable + "' twice");
          }
          resolved.emplace_back(index, a.value.resolve(full_scope));
        }
        return resolved;
      };
      if (model.type == ModelType::kMdp) {
        if (command.branches.empty()) {
          throw ModelError("module '" + module.name +
                           "': mdp command has no probabilistic branches");
        }
        for (const CommandBranch& branch : command.branches) {
          CompiledBranch cb;
          cb.probability = branch.probability.resolve(full_scope);
          cb.assignments = resolve_assignments(branch.assignments);
          cc.branches.push_back(std::move(cb));
        }
      } else {
        if (!command.branches.empty()) {
          throw ModelError("module '" + module.name +
                           "': probabilistic branches require an mdp model");
        }
        cc.rate = command.rate.resolve(full_scope);
        cc.assignments = resolve_assignments(command.assignments);
      }
      out.commands.push_back(std::move(cc));
    }
  }

  // --- labels and rewards.
  std::unordered_set<std::string> label_names;
  for (const LabelDecl& label : model.labels) {
    if (!label_names.insert(label.name).second) {
      throw ModelError("duplicate label '" + label.name + "'");
    }
    out.labels.push_back({label.name, label.condition.resolve(full_scope)});
  }
  std::unordered_set<std::string> reward_names;
  for (const RewardStructDecl& rewards : model.rewards) {
    if (!reward_names.insert(rewards.name).second) {
      throw ModelError("duplicate rewards structure '" + rewards.name + "'");
    }
    CompiledRewardStruct crs;
    crs.name = rewards.name;
    for (const RewardItem& item : rewards.items) {
      crs.items.push_back({item.guard.resolve(full_scope), item.value.resolve(full_scope)});
    }
    out.rewards.push_back(std::move(crs));
  }

  out.constant_values = std::move(constants);
  return out;
}

}  // namespace autosec::symbolic
