// Strategy export: the optimizing scheduler of an MDP query serialized as a
// machine-readable JSON document plus a human-readable attack path. This is
// the counterexample artifact of the nondeterministic-attacker analysis — the
// state→action trace a worst-case adversary walks — and it round-trips: the
// parsed document can be re-checked by inducing its Markov chain and solving
// that chain as a plain stochastic model, independently of value iteration.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mdp/mdp.hpp"
#include "symbolic/explorer.hpp"

namespace autosec::csl {

/// An exported scheduler for one reachability property. Unbounded queries
/// carry a memoryless map (`rows`, one chosen flattened row per state, -1 =
/// choice irrelevant); step-bounded queries carry a time-dependent schedule
/// (`schedule[t][s]`, the row after t elapsed steps). Row indices refer to
/// the query MDP — the explored model with the property's forbidden states
/// absorbed — which the re-check path reconstructs from the same property.
struct StrategyExport {
  bool bounded = false;
  std::vector<int32_t> rows;
  std::vector<std::vector<int32_t>> schedule;
  /// Value reported by the engine (value iteration).
  double value = 0.0;
  /// Value of the induced chain, re-checked independently.
  double induced_value = 0.0;
  std::string property;   ///< source text of the property
  std::string direction;  ///< "max" | "min"
};

/// A directional check together with its exported scheduler.
struct StrategyCheck {
  double value = 0.0;
  StrategyExport strategy;
};

/// Render the version-1 document: the machine-readable core (rows or
/// schedule, values, direction) plus per-row action labels, state
/// valuations, and the most-probable attack path from the initial state.
/// The document is streamed straight into one writer — no tree of the
/// (potentially millions of) row entries is ever built. This is the only
/// renderer; the tree the serve layer embeds is the parse of its text.
std::string write_strategy_json(const StrategyExport& strategy,
                                const symbolic::StateSpace& space,
                                const mdp::Mdp& query_mdp,
                                const std::vector<bool>& target);

/// Parse the machine-readable core (rows/schedule/values/direction) back,
/// decoding row indices straight into their vectors with a pull reader;
/// everything else is validated and skipped. As in a tree lookup, the last
/// of duplicate members wins and a syntax error anywhere takes precedence
/// over a content error. Throws csl::PropertyError on a malformed or
/// wrong-version document.
StrategyExport parse_strategy_json(std::string_view text);

}  // namespace autosec::csl
