#include "symbolic/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <new>

#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace autosec::symbolic {

StateSpace::StateSpace(std::shared_ptr<const CompiledModel> model,
                       std::shared_ptr<const StateStore> store, size_t initial_state,
                       linalg::CsrMatrix rates, size_t transition_count,
                       SymmetryGroup symmetry)
    : model_(std::move(model)),
      store_(std::move(store)),
      initial_state_(initial_state),
      rates_(std::move(rates)),
      transition_count_(transition_count),
      symmetry_(std::move(symmetry)) {}

StateSpace::StateSpace(std::shared_ptr<const CompiledModel> model,
                       std::shared_ptr<const StateStore> store, size_t initial_state,
                       std::shared_ptr<const mdp::Mdp> mdp, size_t transition_count)
    : model_(std::move(model)),
      store_(std::move(store)),
      initial_state_(initial_state),
      mdp_(std::move(mdp)),
      transition_count_(transition_count) {}

const linalg::CsrMatrix& StateSpace::rates() const {
  if (is_mdp()) {
    throw ModelError(
        "this state space was explored from an mdp model; it has per-action "
        "probability rows, not a rate matrix");
  }
  return rates_;
}

ctmc::Ctmc StateSpace::to_ctmc() const { return ctmc::Ctmc(rates()); }

const mdp::Mdp& StateSpace::mdp() const {
  if (!is_mdp()) {
    throw ModelError("this state space was explored from a ctmc model; "
                     "there is no per-action MDP to hand out");
  }
  return *mdp_;
}

std::vector<int32_t> StateSpace::state_values(size_t index) const {
  std::vector<int32_t> out;
  store_->values_of(index, out);
  return out;
}

std::string StateSpace::state_to_string(size_t index) const {
  const std::vector<int32_t> state = state_values(index);
  std::string out = "(";
  for (size_t v = 0; v < state.size(); ++v) {
    if (v > 0) out += ",";
    out += model_->variables[v].name + "=" + std::to_string(state[v]);
  }
  out += ")";
  return out;
}

std::vector<double> StateSpace::initial_distribution() const {
  std::vector<double> dist(state_count(), 0.0);
  dist[initial_state_] = 1.0;
  return dist;
}

std::vector<bool> StateSpace::satisfying(const Expr& condition) const {
  if (reduced() && !symmetry_.invariant(condition)) {
    throw ModelError(
        "state formula '" + condition.to_string() +
        "' is not invariant under the symmetry reduction that built this "
        "state space; its value would depend on which orbit representative "
        "was stored. Re-run with reduction off, or phrase the property "
        "symmetrically (e.g. over all interchangeable modules instead of "
        "one).");
  }
  std::vector<bool> mask(state_count());
  std::vector<int32_t> values;
  for (size_t i = 0; i < mask.size(); ++i) {
    store_->values_of(i, values);
    mask[i] = condition.evaluate_bool(values);
  }
  return mask;
}

std::vector<bool> StateSpace::label_mask(const std::string& label_name) const {
  const CompiledLabel* label = model_->find_label(label_name);
  if (label == nullptr) throw ModelError("unknown label '" + label_name + "'");
  return satisfying(label->condition);
}

std::vector<double> StateSpace::reward_vector(const std::string& rewards_name) const {
  const CompiledRewardStruct* rewards = model_->find_rewards(rewards_name);
  if (rewards == nullptr) {
    throw ModelError("unknown rewards structure '" + rewards_name + "'");
  }
  // No invariance gate here: symmetry detection verifies that every
  // automorphism maps each reward structure's item multiset onto itself, so
  // the per-state reward sum is constant on orbits by construction.
  std::vector<double> out(state_count(), 0.0);
  std::vector<int32_t> values;
  for (size_t i = 0; i < out.size(); ++i) {
    store_->values_of(i, values);
    double acc = 0.0;
    for (const RewardItem& item : rewards->items) {
      if (item.guard.evaluate_bool(values)) {
        acc += item.value.evaluate_number(values);
      }
    }
    // Non-finite rates are rejected at exploration; a non-finite reward
    // would likewise poison every solve that reads it (C<=t, I=t, S answer
    // ±inf or NaN without a word), so it is a model error too.
    if (!std::isfinite(acc)) {
      throw ModelError("rewards structure '" + rewards_name + "' has non-finite value " +
                       std::to_string(acc) + " in state " + std::to_string(i));
    }
    out[i] = acc;
  }
  return out;
}

namespace {

// MDP exploration: same breadth-first enumeration, but every enabled command
// becomes one row of a flattened (state, action) -> distribution matrix
// instead of one rate entry. The FIFO frontier hands states out in intern
// order, so rows are emitted state by state and the state_offsets array is
// contiguous by construction. Self-loops are kept: an action that stays put
// is a real choice for a nondeterministic attacker, unlike a CTMC rate onto
// the diagonal which no transient analysis can observe.
StateSpace explore_mdp(std::shared_ptr<const CompiledModel> model_ptr,
                       std::shared_ptr<StateStore> store,
                       const ExploreOptions& options) {
  const CompiledModel& model = *model_ptr;

  std::deque<uint32_t> frontier;

  struct Triplet {
    uint32_t row;
    uint32_t to;
    double probability;
  };
  std::vector<Triplet> triplets;
  std::vector<uint32_t> state_of_row;
  std::vector<uint32_t> state_offsets{0};
  std::vector<std::string> action_labels;

  const ExploreOptions::ResolvedStateLimit limit = options.resolved_state_limit();
  const std::string* last_module = nullptr;

  const size_t state_bytes = store->bytes_per_state();
  size_t charged_states = 0;
  size_t charged_triplets = 0;
  auto charge_growth = [&] {
    if (!options.budget) return;
    if (store->size() - charged_states < 4096 &&
        triplets.size() - charged_triplets < 16384) {
      return;
    }
    options.budget->charge_bytes(
        (store->size() - charged_states) * state_bytes +
            (triplets.size() - charged_triplets) * sizeof(Triplet),
        "explore");
    charged_states = store->size();
    charged_triplets = triplets.size();
  };

  auto intern = [&](std::span<const int32_t> state) -> uint32_t {
    bool inserted = false;
    const uint32_t id = store->intern(state, inserted);
    if (!inserted) return id;
    if (store->size() > limit.limit) {
      util::FailureProgress progress;
      progress.states_explored = store->size() - 1;
      progress.frontier_size = frontier.size();
      progress.limit = limit.limit;
      if (last_module != nullptr) progress.last_command = *last_module;
      throw util::EngineFailure(
          util::FailureCode::kStateBudgetExceeded, "explore",
          "explore: state count exceeds the configured maximum (" +
              std::to_string(limit.limit) + ", set by " + limit.describe() + ")",
          progress);
    }
    frontier.push_back(id);
    return id;
  };

  std::vector<int32_t> initial = model.initial_state();
  const uint32_t initial_id = intern(initial);

  // Per-action (successor, probability) accumulator, merged by successor
  // before committing the row (two branches may land in the same state).
  std::vector<std::pair<uint32_t, double>> outcomes;

  std::vector<int32_t> current;
  std::vector<int32_t> successor;
  while (!frontier.empty()) {
    if (util::fault::triggered("explore.alloc")) throw std::bad_alloc();
    charge_growth();
    const uint32_t current_id = frontier.front();
    frontier.pop_front();
    store->values_of(current_id, current);

    size_t rows_of_state = 0;
    for (size_t c = 0; c < model.commands.size(); ++c) {
      const CompiledCommand& command = model.commands[c];
      if (!command.guard.evaluate_bool(current)) continue;
      last_module = &command.module;

      double total = 0.0;
      outcomes.clear();
      for (const CompiledBranch& branch : command.branches) {
        const double probability = branch.probability.evaluate_number(current);
        if (probability < 0.0 || !std::isfinite(probability)) {
          throw ModelError("explore: command in module '" + command.module +
                           "' has invalid branch probability " +
                           std::to_string(probability) + " in state " +
                           std::to_string(current_id));
        }
        if (probability == 0.0) continue;
        total += probability;
        successor = current;
        for (const auto& [var_index, value_expr] : branch.assignments) {
          const Value value = value_expr.evaluate(current);
          if (!value.is_int()) {
            throw ModelError("explore: non-integer update for variable '" +
                             model.variables[var_index].name + "'");
          }
          const int64_t raw = value.as_int();
          const CompiledVariable& var = model.variables[var_index];
          if (raw < var.low || raw > var.high) {
            throw ModelError("explore: update drives variable '" + var.name +
                             "' to " + std::to_string(raw) + ", outside [" +
                             std::to_string(var.low) + ".." + std::to_string(var.high) +
                             "] (module '" + command.module + "')");
          }
          successor[var_index] = static_cast<int32_t>(raw);
        }
        outcomes.emplace_back(intern(successor), probability);
      }
      if (outcomes.empty()) {
        throw ModelError("explore: command in module '" + command.module +
                         "' has all-zero branch probabilities in state " +
                         std::to_string(current_id));
      }
      if (std::abs(total - 1.0) > 1e-9) {
        throw ModelError("explore: branch probabilities of a command in module '" +
                         command.module + "' sum to " + std::to_string(total) +
                         " (expected 1) in state " + std::to_string(current_id));
      }
      std::sort(outcomes.begin(), outcomes.end());
      const uint32_t row = static_cast<uint32_t>(state_of_row.size());
      state_of_row.push_back(current_id);
      action_labels.push_back(command.action.empty()
                                  ? command.module + "#" + std::to_string(c)
                                  : command.action);
      // Merge duplicate successors and divide the float residue of `total`
      // back out, so every committed row is stochastic to machine precision.
      for (size_t i = 0; i < outcomes.size();) {
        size_t j = i;
        double probability = 0.0;
        while (j < outcomes.size() && outcomes[j].first == outcomes[i].first) {
          probability += outcomes[j].second;
          ++j;
        }
        triplets.push_back({row, outcomes[i].first, probability / total});
        i = j;
      }
      ++rows_of_state;
    }
    if (rows_of_state == 0) {
      // Deadlock state: implicit self-loop so every state has >= 1 action.
      const uint32_t row = static_cast<uint32_t>(state_of_row.size());
      state_of_row.push_back(current_id);
      action_labels.push_back("(self-loop)");
      triplets.push_back({row, current_id, 1.0});
    }
    state_offsets.push_back(static_cast<uint32_t>(state_of_row.size()));
  }

  if (options.budget) {
    options.budget->charge_bytes(
        (store->size() - charged_states) * state_bytes +
            (triplets.size() - charged_triplets) * sizeof(Triplet),
        "explore");
  }

  auto flat = std::make_shared<mdp::Mdp>();
  linalg::CsrBuilder builder(state_of_row.size(), store->size());
  for (const Triplet& t : triplets) builder.add(t.row, t.to, t.probability);
  flat->transitions = std::move(builder).build();
  flat->state_of_row = std::move(state_of_row);
  flat->state_offsets = std::move(state_offsets);
  flat->action_labels = std::move(action_labels);
  flat->validate();

  AUTOSEC_LOG_INFO("explorer") << "explored " << store->size() << " states, "
                               << flat->row_count() << " actions, "
                               << triplets.size() << " transitions";
  const size_t transition_count = triplets.size();
  return StateSpace(std::move(model_ptr), std::move(store), initial_id,
                    std::move(flat), transition_count);
}

}  // namespace

StateSpace explore(CompiledModel model, const ExploreOptions& options) {
  return explore(std::make_shared<const CompiledModel>(std::move(model)), options);
}

StateSpace explore(std::shared_ptr<const CompiledModel> model_ptr,
                   const ExploreOptions& options) {
  const CompiledModel& model = *model_ptr;
  const size_t variable_count = model.variables.size();
  if (variable_count == 0) throw ModelError("explore: model has no variables");

  auto store = std::make_shared<StateStore>(model);

  if (model.type == ModelType::kMdp) {
    // Symmetry reduction folds orbit-internal transitions onto the diagonal,
    // which is exact for a CTMC but erases real choices of an MDP attacker.
    if (options.reduction == SymmetryReduction::kOn) {
      throw ModelError(
          "symmetry reduction is not supported for mdp models; re-run with "
          "reduction off (kAuto resolves to off for mdp)");
    }
    return explore_mdp(std::move(model_ptr), std::move(store), options);
  }

  // kAuto reduction turns on only when the caller explicitly picked the
  // compact engine (the big-fleet path). A reduction changes which states
  // exist, so it must never switch on silently.
  SymmetryGroup symmetry;
  const bool want_reduction =
      options.reduction == SymmetryReduction::kOn ||
      (options.reduction == SymmetryReduction::kAuto &&
       options.engine == ExplorationEngine::kCompact);
  if (want_reduction) {
    symmetry = detect_symmetries(model);
    if (!symmetry.trivial()) {
      AUTOSEC_LOG_INFO("explorer")
          << "symmetry reduction active: " << symmetry.interchangeable_modules()
          << " interchangeable modules in " << symmetry.orbits().size()
          << " orbit(s)";
    }
  }
  CanonScratch scratch;

  std::deque<uint32_t> frontier;

  // Transitions gathered as triplets; deduplication (summing parallel
  // commands between the same state pair — and, under reduction, commands
  // landing in the same orbit) happens in the CSR builder.
  struct Triplet {
    uint32_t from;
    uint32_t to;
    double rate;
  };
  std::vector<Triplet> triplets;

  // The one resolved state ceiling (max_states vs budget); hitting it
  // unwinds with a typed failure naming the binding constraint and carrying
  // the partial progress — callers can report how far the model got.
  const ExploreOptions::ResolvedStateLimit limit = options.resolved_state_limit();
  const std::string* last_module = nullptr;  // module of the command firing now

  // Incremental byte accounting against the budget: the store's own
  // per-state cost plus one triplet per transition.
  const size_t state_bytes = store->bytes_per_state();
  size_t charged_states = 0;
  size_t charged_triplets = 0;
  auto charge_growth = [&] {
    if (!options.budget) return;
    if (store->size() - charged_states < 4096 &&
        triplets.size() - charged_triplets < 16384) {
      return;
    }
    options.budget->charge_bytes(
        (store->size() - charged_states) * state_bytes +
            (triplets.size() - charged_triplets) * sizeof(Triplet),
        "explore");
    charged_states = store->size();
    charged_triplets = triplets.size();
  };

  auto intern = [&](std::span<const int32_t> state) -> uint32_t {
    bool inserted = false;
    const uint32_t id = store->intern(state, inserted);
    if (!inserted) return id;
    if (store->size() > limit.limit) {
      util::FailureProgress progress;
      progress.states_explored = store->size() - 1;
      progress.frontier_size = frontier.size();
      progress.limit = limit.limit;
      if (last_module != nullptr) progress.last_command = *last_module;
      throw util::EngineFailure(
          util::FailureCode::kStateBudgetExceeded, "explore",
          "explore: state count exceeds the configured maximum (" +
              std::to_string(limit.limit) + ", set by " + limit.describe() + ")",
          progress);
    }
    frontier.push_back(id);
    return id;
  };

  std::vector<int32_t> initial = model.initial_state();
  symmetry.canonicalize(initial, scratch);
  const uint32_t initial_id = intern(initial);

  std::vector<int32_t> current;
  std::vector<int32_t> successor;
  while (!frontier.empty()) {
    if (util::fault::triggered("explore.alloc")) throw std::bad_alloc();
    charge_growth();
    const uint32_t current_id = frontier.front();
    frontier.pop_front();
    store->values_of(current_id, current);

    for (const CompiledCommand& command : model.commands) {
      if (!command.guard.evaluate_bool(current)) continue;
      last_module = &command.module;
      const double rate = command.rate.evaluate_number(current);
      if (rate < 0.0 || !std::isfinite(rate)) {
        throw ModelError("explore: command in module '" + command.module +
                         "' has invalid rate " + std::to_string(rate) + " in state " +
                         std::to_string(current_id));
      }
      if (rate == 0.0) {
        if (options.allow_zero_rates) continue;
        throw ModelError("explore: zero rate with enabled guard in module '" +
                         command.module + "'");
      }
      successor = current;
      for (const auto& [var_index, value_expr] : command.assignments) {
        const Value value = value_expr.evaluate(current);
        if (!value.is_int()) {
          throw ModelError("explore: non-integer update for variable '" +
                           model.variables[var_index].name + "'");
        }
        const int64_t raw = value.as_int();
        const CompiledVariable& var = model.variables[var_index];
        if (raw < var.low || raw > var.high) {
          throw ModelError("explore: update drives variable '" + var.name +
                           "' to " + std::to_string(raw) + ", outside [" +
                           std::to_string(var.low) + ".." + std::to_string(var.high) +
                           "] (module '" + command.module + "')");
        }
        successor[var_index] = static_cast<int32_t>(raw);
      }
      // `current` is already canonical (every interned state is), so the
      // self-loop test compares canonical forms: transitions within one
      // orbit fold onto the quotient's diagonal, which a CTMC never observes.
      symmetry.canonicalize(successor, scratch);
      if (successor == current) continue;
      const uint32_t successor_id = intern(successor);
      triplets.push_back({current_id, successor_id, rate});
    }
  }

  if (options.budget) {
    options.budget->charge_bytes(
        (store->size() - charged_states) * state_bytes +
            (triplets.size() - charged_triplets) * sizeof(Triplet),
        "explore");
  }

  linalg::CsrBuilder builder(store->size(), store->size());
  for (const Triplet& t : triplets) builder.add(t.from, t.to, t.rate);

  AUTOSEC_LOG_INFO("explorer") << "explored " << store->size() << " states, "
                               << triplets.size() << " transitions";
  return StateSpace(std::move(model_ptr), std::move(store), initial_id,
                    std::move(builder).build(), triplets.size(),
                    std::move(symmetry));
}

}  // namespace autosec::symbolic
