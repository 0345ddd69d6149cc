#include "csl/lumped.hpp"

#include <memory>

#include <cmath>
#include <limits>

#include "csl/property_parser.hpp"
#include "ctmc/rewards.hpp"
#include "ctmc/scc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "linalg/vector_ops.hpp"

namespace autosec::csl {

namespace {

/// Quotient-space reachability probability (Prob0/Prob1 precomputation plus
/// a least fixpoint on the embedded DTMC over the uncertain states),
/// mirroring EngineSession::reachability_probabilities.
std::vector<double> quotient_reachability(const ctmc::Ctmc& chain,
                                          const std::vector<bool>& target,
                                          const SessionOptions& options) {
  const size_t n = chain.state_count();
  const ctmc::ReachabilityClassification classes =
      ctmc::classify_reachability(chain.rates(), target);
  std::vector<double> x(n, 0.0);
  bool any_uncertain = false;
  for (size_t i = 0; i < n; ++i) {
    if (classes.certain[i]) {
      x[i] = 1.0;
    } else if (classes.possible[i]) {
      any_uncertain = true;
    }
  }
  if (!any_uncertain) return x;

  const linalg::CsrMatrix embedded = chain.embedded_dtmc();
  linalg::CsrBuilder block(n, n);
  std::vector<double> one_step(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (classes.certain[i] || !classes.possible[i]) continue;
    const auto cols = embedded.row_columns(i);
    const auto vals = embedded.row_values(i);
    for (size_t k = 0; k < cols.size(); ++k) {
      if (classes.certain[cols[k]]) {
        one_step[i] += vals[k];
      } else if (classes.possible[cols[k]]) {
        block.add(i, cols[k], vals[k]);
      }
    }
  }
  auto solved = linalg::solve_fixpoint(std::move(block).build(), one_step,
                                       options.steady_state.solver);
  if (!solved.converged) {
    throw PropertyError("lumped reachability fixpoint did not converge");
  }
  for (size_t i = 0; i < n; ++i) {
    if (!classes.certain[i] && classes.possible[i]) x[i] = solved.x[i];
  }
  return x;
}

}  // namespace

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               const Property& property,
                               const SessionOptions& options) {
  // Non-owning alias: the helper only lives for this call, well inside the
  // caller-guaranteed lifetime of `space`.
  EngineSession helper(
      std::shared_ptr<const symbolic::StateSpace>(&space,
                                                  [](const symbolic::StateSpace*) {}),
      options);  // used for formula resolution only
  const ctmc::Ctmc& chain = helper.chain();

  // Observations the property depends on.
  std::vector<std::vector<bool>> masks;
  size_t left_index = SIZE_MAX;
  size_t right_index = SIZE_MAX;
  if (property.left.is_valid()) {
    left_index = masks.size();
    masks.push_back(helper.satisfying(property.left));
  }
  if (property.right.is_valid()) {
    right_index = masks.size();
    masks.push_back(helper.satisfying(property.right));
  }
  std::vector<std::vector<double>> rewards;
  switch (property.kind) {
    case PropertyKind::kCumulativeReward:
    case PropertyKind::kInstantaneousReward:
    case PropertyKind::kSteadyStateReward:
    case PropertyKind::kReachabilityReward:
      rewards.push_back(space.reward_vector(property.reward_name));
      break;
    default:
      break;
  }
  const std::vector<double> initial = space.initial_distribution();

  const ctmc::LumpingResult lumping =
      ctmc::lump_preserving(chain, masks, rewards, &initial);

  LumpedCheckResult result;
  result.original_states = chain.state_count();
  result.lumped_states = lumping.block_count;

  const ctmc::Ctmc& quotient = lumping.quotient;
  const std::vector<double> q_initial = lumping.aggregate_distribution(initial);

  // Time bounds fold against model constants; the session knows how.
  auto time_bound = [&]() -> double { return helper.time_bound_value(property); };
  auto left_mask = [&]() { return lumping.aggregate_mask(masks.at(left_index)); };
  auto right_mask = [&]() { return lumping.aggregate_mask(masks.at(right_index)); };

  switch (property.kind) {
    case PropertyKind::kProbUntil: {
      const std::vector<bool> allowed = left_mask();
      const std::vector<bool> target = right_mask();
      if (property.has_time_lower_bound()) {
        // Two-phase interval until on the quotient (see EngineSession::check_until).
        Property lower_probe = property;
        lower_probe.time_bound = property.time_lower_bound;
        const double t1 = helper.time_bound_value(lower_probe);
        const double t2 = time_bound();
        if (t1 < 0.0 || t2 < t1) {
          throw PropertyError("invalid time interval in: " + property.source);
        }
        const size_t n = quotient.state_count();
        std::vector<bool> not_allowed(n, false);
        for (size_t i = 0; i < n; ++i) not_allowed[i] = !allowed[i];
        const ctmc::Ctmc phase1 = quotient.with_absorbing(not_allowed);
        std::vector<double> at_t1 =
            ctmc::transient_distribution(phase1, q_initial, t1, options.transient);
        for (size_t i = 0; i < n; ++i) {
          if (!allowed[i]) at_t1[i] = 0.0;
        }
        result.value = ctmc::bounded_reachability(quotient, at_t1, allowed, target,
                                                  t2 - t1, options.transient);
        break;
      }
      if (property.has_time_bound()) {
        result.value = ctmc::bounded_reachability(quotient, q_initial, allowed, target,
                                                  time_bound(), options.transient);
      } else {
        std::vector<bool> absorbing(quotient.state_count(), false);
        bool any = false;
        for (size_t i = 0; i < absorbing.size(); ++i) {
          absorbing[i] = !allowed[i] && !target[i];
          any = any || absorbing[i];
        }
        const ctmc::Ctmc restricted =
            any ? quotient.with_absorbing(absorbing) : quotient;
        result.value = linalg::dot(
            q_initial, quotient_reachability(restricted, target, options));
      }
      break;
    }
    case PropertyKind::kProbGlobally: {
      Property dual;
      dual.kind = PropertyKind::kProbUntil;
      dual.left = symbolic::Expr::literal(true);
      dual.right = !property.right;
      dual.time_bound = property.time_bound;
      dual.time_lower_bound = property.time_lower_bound;
      dual.source = property.source;
      result.value = 1.0 - check_lumped(space, dual, options).value;
      break;
    }
    case PropertyKind::kSteadyStateProb: {
      const std::vector<bool> target = right_mask();
      const auto steady = ctmc::steady_state(quotient, q_initial, options.steady_state);
      double acc = 0.0;
      for (size_t i = 0; i < target.size(); ++i) {
        if (target[i]) acc += steady.distribution[i];
      }
      result.value = acc;
      break;
    }
    case PropertyKind::kCumulativeReward:
      result.value = ctmc::expected_cumulative_reward(
          quotient, q_initial, lumping.aggregate_rewards(rewards[0]), time_bound(),
          options.transient);
      break;
    case PropertyKind::kInstantaneousReward:
      result.value = ctmc::expected_instantaneous_reward(
          quotient, q_initial, lumping.aggregate_rewards(rewards[0]), time_bound(),
          options.transient);
      break;
    case PropertyKind::kSteadyStateReward:
      result.value = ctmc::steady_state_reward(quotient, q_initial,
                                               lumping.aggregate_rewards(rewards[0]),
                                               options.steady_state);
      break;
    case PropertyKind::kReachabilityReward: {
      const std::vector<bool> target = right_mask();
      // Same exact Prob1 classification as the full engine: infinite iff the
      // target is missed with positive probability, and the linear system is
      // restricted to the Prob1 states (see EngineSession::check_reward).
      const std::vector<bool> certain =
          ctmc::almost_sure_reachability(quotient.rates(), target);
      const size_t n = quotient.state_count();
      bool infinite = false;
      for (size_t i = 0; i < n; ++i) {
        if (q_initial[i] > 0.0 && !certain[i]) {
          infinite = true;
          break;
        }
      }
      if (infinite) {
        result.value = std::numeric_limits<double>::infinity();
        break;
      }
      const std::vector<double> q_rewards = lumping.aggregate_rewards(rewards[0]);
      const linalg::CsrMatrix embedded = quotient.embedded_dtmc();
      linalg::CsrBuilder block(n, n);
      std::vector<double> base(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (target[i] || !certain[i]) continue;
        base[i] = q_rewards[i] / quotient.exit_rate(i);
        const auto cols = embedded.row_columns(i);
        const auto vals = embedded.row_values(i);
        for (size_t k = 0; k < cols.size(); ++k) {
          if (!target[cols[k]]) block.add(i, cols[k], vals[k]);
        }
      }
      auto solved = linalg::solve_fixpoint(std::move(block).build(), base,
                                           options.steady_state.solver);
      if (!solved.converged) throw PropertyError("lumped reward fixpoint diverged");
      result.value = linalg::dot(q_initial, solved.x);
      break;
    }
  }
  return result;
}

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               std::string_view property_text,
                               const SessionOptions& options) {
  return check_lumped(space, parse_property(property_text), options);
}

}  // namespace autosec::csl
