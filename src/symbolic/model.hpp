// Symbolic model: a CTMC described by modules of guarded commands over
// bounded integer variables — the PRISM-language subset the automotive
// transformation targets.
//
// A Model is a declaration-level object (names, unresolved expressions); it
// is turned into a CompiledModel (indices, resolved expressions, constants
// folded) by compile(), optionally overriding `const` declarations the way
// PRISM's -const command-line switch does. The explorer then enumerates the
// reachable state space of a CompiledModel.
//
// Supported subset (documented deviations from full PRISM):
//  * model type: ctmc (rate commands) or mdp (probabilistic branch commands);
//  * variables: bounded int (bool is sugar for [0..1] in the parser);
//  * commands: unsynchronized only — an action label may appear in commands
//    of at most one module (compose-by-synchronization is not implemented);
//  * rewards: state rewards only (no transition rewards);
//  * no `init...endinit` blocks (per-variable init values only).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "symbolic/expr.hpp"

namespace autosec::symbolic {

class ModelError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A constant override names a constant the model does not declare — the
/// caller's mistake, not the model's, so front ends can answer it as one.
class UndeclaredConstant : public ModelError {
 public:
  explicit UndeclaredConstant(const std::string& name)
      : ModelError("override for undeclared constant '" + name + "'") {}
};

/// The semantics a model's commands carry: exponential rates (ctmc) or
/// nondeterministically chosen probability distributions (mdp). The engine
/// pipeline (explorer, EngineSession, serve) dispatches on this axis.
enum class ModelType { kCtmc, kMdp };

/// The wire/CLI token of a model type ("ctmc" | "mdp").
std::string_view model_type_token(ModelType type);
std::optional<ModelType> parse_model_type_token(std::string_view text);

/// `const <type> name [= expr];` — expr may be omitted (an "undefined
/// constant") and supplied at compile time.
struct ConstantDecl {
  enum class Type { kBool, kInt, kDouble };
  std::string name;
  Type type = Type::kDouble;
  std::optional<Expr> value;
};

/// `formula name = expr;`
struct FormulaDecl {
  std::string name;
  Expr body;
};

/// Bounded integer state variable `name : [low..high] init init_value;`.
/// Bounds may be expressions over constants.
struct VariableDecl {
  std::string name;
  Expr low;
  Expr high;
  Expr init;
};

/// One assignment `(name' = expr)` of a command update.
struct Assignment {
  std::string variable;
  Expr value;
};

/// One probabilistic alternative `probability : (x'=..) & ..` of an MDP
/// command. Branch probabilities of a command must sum to 1 in every state
/// where the guard holds (validated during exploration).
struct CommandBranch {
  Expr probability;
  std::vector<Assignment> assignments;
};

/// CTMC: `[action] guard -> rate : (x'=..) & (y'=..);`
/// A command with several rate-update alternatives
/// `guard -> r1:u1 + r2:u2;` is represented as separate Command objects by
/// the parser (legal for CTMCs, where rates of alternatives are independent).
///
/// MDP: `[action] guard -> p1 : u1 + p2 : u2;` is ONE command — one
/// nondeterministic action whose outcome is the probability distribution over
/// the branches. `rate`/`assignments` are unused; `branches` holds the
/// alternatives instead.
struct Command {
  std::string action;  ///< empty for unlabeled commands
  Expr guard;
  Expr rate;
  std::vector<Assignment> assignments;
  std::vector<CommandBranch> branches;  ///< mdp only
};

struct Module {
  std::string name;
  std::vector<VariableDecl> variables;
  std::vector<Command> commands;
};

/// `label "name" = expr;`
struct LabelDecl {
  std::string name;
  Expr condition;
};

/// One `guard : value;` item of a `rewards "name" ... endrewards` block.
struct RewardItem {
  Expr guard;
  Expr value;
};

struct RewardStructDecl {
  std::string name;  ///< may be empty (the default reward structure)
  std::vector<RewardItem> items;
};

struct Model {
  ModelType type = ModelType::kCtmc;
  std::vector<ConstantDecl> constants;
  std::vector<FormulaDecl> formulas;
  std::vector<Module> modules;
  std::vector<LabelDecl> labels;
  std::vector<RewardStructDecl> rewards;

  const Module* find_module(const std::string& name) const;
  const LabelDecl* find_label(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Compiled form

struct CompiledVariable {
  std::string name;
  /// Name of the declaring module — the block structure the symmetry
  /// detector (symbolic/symmetry.hpp) groups variables by.
  std::string module;
  int32_t low = 0;
  int32_t high = 0;
  int32_t init = 0;
};

/// Resolved probabilistic alternative of a compiled MDP command.
struct CompiledBranch {
  Expr probability;  ///< resolved
  std::vector<std::pair<uint32_t, Expr>> assignments;
};

struct CompiledCommand {
  Expr guard;  ///< resolved
  Expr rate;   ///< resolved (ctmc only)
  /// (variable index, resolved value expression) pairs; at most one per
  /// variable, validated at compile time. (ctmc only)
  std::vector<std::pair<uint32_t, Expr>> assignments;
  std::vector<CompiledBranch> branches;  ///< mdp only
  std::string action;
  std::string module;
};

struct CompiledLabel {
  std::string name;
  Expr condition;  ///< resolved
};

struct CompiledRewardStruct {
  std::string name;
  std::vector<RewardItem> items;  ///< resolved guards/values
};

struct CompiledModel {
  ModelType type = ModelType::kCtmc;
  std::vector<CompiledVariable> variables;
  std::vector<CompiledCommand> commands;
  std::vector<CompiledLabel> labels;
  std::vector<CompiledRewardStruct> rewards;
  /// Constants after overrides/folding, for diagnostics and the writer.
  std::vector<std::pair<std::string, Value>> constant_values;

  std::vector<int32_t> initial_state() const;
  const CompiledLabel* find_label(const std::string& name) const;
  const CompiledRewardStruct* find_rewards(const std::string& name) const;
};

/// Resolve and validate a model. `constant_overrides` supplies or replaces
/// `const` values (required for constants declared without a value). Throws
/// ModelError on: duplicate names, unknown identifiers, unbounded/invalid
/// variable ranges, synchronized actions across modules, or assignments to
/// variables of other modules.
CompiledModel compile(const Model& model,
                      const std::vector<std::pair<std::string, Value>>&
                          constant_overrides = {});

}  // namespace autosec::symbolic
