// The staged analysis engine: one reusable session owning the
//   compile → explore → (Ctmc → uniformize | Mdp) → solve
// pipeline of the paper's Fig. 2, with every stage built lazily, cached, and
// keyed by the active constant-override set. The pipeline is model-type
// generic: a ctmc model flows through the rate-matrix/uniformization stages,
// an mdp model (nondeterministic attacker) through the flattened per-action
// matrix and value iteration, behind the same check()/check_all() surface —
// directional operators (Pmax/Pmin/Rmax/Rmin) select the adversary's
// objective, and check_with_strategy() additionally exports the optimizing
// scheduler with an independent induced-chain cross-check. Re-checking another property —
// or the same property at another horizon — reuses every stage already
// built; switching constant overrides re-keys the pipeline but keeps earlier
// stage sets cached for when a sweep returns to a value.
//
// This is the single checking API of the CSL engine: every front end (the
// analyzer, the CLI, `autosec serve`, the differential harness) checks
// through a session, and automotive::analyze_architecture batches all of an
// architecture's message properties through one session.
//
// Thread model: check_all() first solves its cumulative-reward (C<=t)
// properties at the top level, one shared uniformization pass per horizon
// whose products run row-parallel on the process-wide pool; it then fans
// the remaining property solves across the pool (util::parallel_for), each
// running its numeric kernels serially (nested parallel regions degrade to
// serial loops). Single check() calls parallelize inside the kernels.
// Results are deterministic either way, and check(p) equals check_all's
// value for p bit for bit.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "csl/engine_options.hpp"
#include "csl/property.hpp"
#include "csl/strategy_export.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "mdp/value_iteration.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/model.hpp"
#include "util/json.hpp"

namespace autosec::csl {

/// Session-level view of the shared engine knobs (csl/engine_options.hpp):
/// the session consumes constant_overrides, explore, transient, steady_state
/// and cancel; nmax/horizon_years/threads are inert at this layer.
struct SessionOptions : EngineOptions {
  /// Fan the independent solves of check_all() across the thread pool.
  bool parallel_properties = true;
};

/// Cumulative per-stage counters and wall-clock timings — the session-local
/// view of the pipeline. The same stage events also land in the process-wide
/// util::metrics registry (spans "compile"/"explore"/"uniformize"/
/// "steady_state"/"solve", counters "session.*"), which aggregates across
/// every session of the process; this struct stays the per-session slice.
/// Counters make cache behaviour observable: a session that answered N
/// properties with explore_count == 1 provably reused its state space.
struct SessionStats {
  size_t compile_count = 0;
  size_t explore_count = 0;
  size_t uniformize_count = 0;
  size_t steady_state_count = 0;
  size_t check_count = 0;
  /// Solver rungs taken beyond the first (Krylov → Gauss-Seidel)
  /// across every solve of the session — 0 when every solve converged on its
  /// first rung; surfaced per request by the serving layer.
  size_t solver_fallbacks = 0;
  /// State store of the last explore ("compact"); empty until the space is
  /// built. Surfaced per request by the serving
  /// layer and recorded in the metrics registry.
  std::string engine;
  double compile_seconds = 0.0;
  double explore_seconds = 0.0;
  double solve_seconds = 0.0;  ///< property evaluation incl. uniformization
};

class EngineSession {
 public:
  /// Session over a symbolic model; nothing is built until first use.
  explicit EngineSession(symbolic::Model model, SessionOptions options = {});

  /// Session adopting an already-explored state space. Compile/explore
  /// stages are pinned; constant overrides cannot be re-keyed.
  explicit EngineSession(std::shared_ptr<const symbolic::StateSpace> space,
                         SessionOptions options = {});

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Model type of the session's pipeline — the stage axis the compile/
  /// explore/solve stages dispatch on. Derived from the model's declared type
  /// (or the adopted space's) at construction, so it always matches reality;
  /// a caller-provided options.model_type that disagrees is corrected.
  symbolic::ModelType model_type() const { return options_.model_type; }

  // --- stage accessors (each builds and caches its stage on first use).
  const symbolic::StateSpace& space();
  std::shared_ptr<const symbolic::StateSpace> space_ptr();
  /// CTMC stage; throws PropertyError on an mdp session (no rate matrix).
  const ctmc::Ctmc& chain();
  /// Uniformization of the base chain at its default rate (modified chains —
  /// bounded reachability — uniformize per call).
  const ctmc::Uniformized& uniformized();
  /// Long-run distribution from the initial state; shared by every S=? /
  /// steady-reward property of the session.
  const ctmc::SteadyStateResult& steady();

  /// Re-key the pipeline to another constant-override set. Stages already
  /// built for earlier keys stay cached and are reused when the key returns.
  /// Throws PropertyError on a space-adopting session.
  void set_constant_overrides(
      std::vector<std::pair<std::string, symbolic::Value>> overrides);

  /// Drop every cached stage set except the active key's. For callers that
  /// re-key through override sets they never revisit (a criticality
  /// perturbation loop), so memory holds one stage set, not one per key.
  void drop_inactive_stages();

  /// Swap the cooperative cancellation token. Stage boundaries and solver
  /// sweeps poll the active token and unwind with util::Cancelled once it is
  /// cancelled or its deadline passes; a long-lived (cached) session arms a
  /// fresh token per request. Pass nullptr to disarm.
  void set_cancel_token(std::shared_ptr<util::CancelToken> token) {
    options_.cancel = std::move(token);
  }

  /// Swap the per-request resource budget (see EngineOptions::budget).
  /// Stages already cached were paid for by an earlier budget; only work the
  /// new request actually performs is charged. Pass nullptr to disarm.
  void set_resource_budget(std::shared_ptr<util::ResourceBudget> budget) {
    options_.budget = std::move(budget);
  }

  /// Swap the checkpoint ledger (see EngineOptions::checkpoint). Finished
  /// solves are recorded; solves the ledger already holds replay bit-exactly
  /// without touching the solver. Pass nullptr to disarm.
  void set_checkpoint(std::shared_ptr<CheckpointLedger> checkpoint) {
    options_.checkpoint = std::move(checkpoint);
  }

  // --- property evaluation.
  double check(const Property& property);
  double check(std::string_view property_text);
  bool satisfies(const Property& property);
  bool satisfies(std::string_view property_text);

  /// Batch evaluation: builds the stages once, then solves every property —
  /// in parallel across the pool when options().parallel_properties. Results
  /// are positionally aligned with `properties`.
  std::vector<double> check_all(std::span<const Property> properties);
  std::vector<double> check_all(const std::vector<std::string>& property_texts);

  /// MDP only: evaluate a directional reachability property (Pmax/Pmin of an
  /// until/eventually) and export the optimizing scheduler. The returned
  /// strategy is already cross-checked: its induced Markov chain was built
  /// and solved independently of value iteration, and strategy.induced_value
  /// records that second answer.
  StrategyCheck check_with_strategy(const Property& property);
  StrategyCheck check_with_strategy(std::string_view property_text);

  /// Value of `strategy` (e.g. one parsed back from its JSON document) under
  /// `property`, computed on the chain the strategy induces. The round-trip
  /// validation path of --strategy-json. A strategy whose dimensions or rows
  /// do not fit the query (a row out of range, or one belonging to another
  /// state) throws PropertyError.
  double induced_value(const Property& property, const StrategyExport& strategy);

  /// Version-1 JSON text of an exported strategy, streamed against this
  /// session's state space (action labels, state valuations, attack path).
  /// What --strategy-json writes.
  std::string strategy_json(const Property& property, const StrategyExport& strategy);
  /// The same document as a tree (the parse of strategy_json), for callers
  /// that embed it in a larger document, like serve's check envelope.
  util::JsonValue strategy_document(const Property& property,
                                    const StrategyExport& strategy);

  /// States satisfying a state formula (labels resolved, then variables).
  std::vector<bool> satisfying(const symbolic::Expr& formula);

  /// Resolve a property's time bound against the model constants.
  double time_bound_value(const Property& property);

  const SessionStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

  /// The configured transient options with the session's cancel token polled
  /// and its budget charged: what a caller running ctmc:: kernels on the
  /// session's space passes to stay under the request's deadline.
  ctmc::TransientOptions transient_options() const;

 private:
  /// All artifacts derived from one constant-override key.
  struct Stages {
    std::shared_ptr<const symbolic::CompiledModel> compiled;
    std::shared_ptr<const symbolic::StateSpace> space;
    std::optional<ctmc::Ctmc> chain;
    std::vector<double> initial;
    std::optional<ctmc::Uniformized> uniformized;
    std::optional<ctmc::SteadyStateResult> steady;
    std::mutex lazy_mutex;  ///< guards uniformized/steady under check_all
  };

  Stages& prepare();  ///< build compile/explore/chain for the active key

  symbolic::Expr resolve_formula(const Stages& stages,
                                 const symbolic::Expr& formula) const;
  std::vector<bool> satisfying_in(const Stages& stages,
                                  const symbolic::Expr& formula) const;
  double time_bound_in(const Stages& stages, const Property& property) const;

  /// Per-property solve safepoint: the solve.cancel/solve.hang fault sites
  /// and the session.properties/check_count counters.
  void enter_property();
  double evaluate(Stages& stages, const Property& property);
  /// Solve the batch's ctmc C<=t properties in one shared uniformization
  /// pass per horizon, writing their slots of `results`; returns the indices
  /// (in input order) left for the per-property fan-out.
  std::vector<size_t> check_cumulative_groups(Stages& stages,
                                              std::span<const Property> properties,
                                              std::vector<double>& results);
  /// The solve dispatch below the checkpoint safepoint: always computes.
  double evaluate_fresh(Stages& stages, const Property& property);
  /// Ledger key of one solve: override key + explored stage identity +
  /// property text — everything that determines the value.
  std::string checkpoint_key(const Stages& stages, const Property& property) const;
  /// MDP dispatch: directional probability/reward properties over the
  /// flattened per-action matrix. `strategy_out`, when non-null, receives the
  /// optimizing scheduler (kProbUntil only).
  double evaluate_mdp(Stages& stages, const Property& property,
                      StrategyExport* strategy_out);
  /// The reachability query an mdp until/eventually property denotes: target
  /// mask, query MDP (forbidden states absorbed), optional step bound.
  struct MdpReachQuery;
  MdpReachQuery mdp_reach_query(Stages& stages, const Property& property);
  double mdp_until(Stages& stages, const Property& property, bool maximize,
                   StrategyExport* strategy_out);
  double mdp_reward(Stages& stages, const Property& property, bool maximize);
  /// Steps of an mdp time bound: bounds count discrete steps and must fold to
  /// a non-negative integer (within 1e-9).
  size_t mdp_steps(Stages& stages, const Property& property);
  mdp::ViOptions mdp_vi_options(bool interval) const;
  double check_until(Stages& stages, const Property& property);
  double check_globally(Stages& stages, const Property& property);
  double check_steady_prob(Stages& stages, const Property& property);
  double check_reward(Stages& stages, const Property& property);
  /// Pr[F target] per state of a probability matrix
  /// (ctmc::reachability_probabilities) under the session's solver options
  /// and cancel hook, at stage "solve"; fallbacks land in the stats.
  std::vector<double> reachability(const linalg::CsrMatrix& probabilities,
                                   const std::vector<bool>& target);
  void count_fallbacks(size_t fallbacks);

  const ctmc::Uniformized& uniformized_of(Stages& stages);
  const ctmc::SteadyStateResult& steady_of(Stages& stages);

  ctmc::SteadyStateOptions steady_state_options() const;
  void check_cancel(const char* stage) const;

  std::optional<symbolic::Model> model_;  ///< absent for space-adopting sessions
  SessionOptions options_;
  std::string active_key_;
  // Stage sets per override key; node stability (list of unique_ptr not
  // needed — keyed map with stable values) keeps references valid across
  // re-keying.
  std::vector<std::pair<std::string, std::unique_ptr<Stages>>> cache_;
  Stages* active_ = nullptr;
  SessionStats stats_;
  std::mutex stats_mutex_;  ///< counters under parallel check_all
};

/// Canonical cache key of an override set (order-insensitive).
std::string override_cache_key(
    const std::vector<std::pair<std::string, symbolic::Value>>& overrides);

}  // namespace autosec::csl
