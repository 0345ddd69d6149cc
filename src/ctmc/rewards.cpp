#include "ctmc/rewards.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "ctmc/poisson.hpp"
#include "linalg/vector_ops.hpp"
#include "util/cancel.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {

std::vector<double> expected_cumulative_rewards(
    const Uniformized& uniformized, const std::vector<double>& initial,
    std::span<const std::vector<double>> state_rewards, double t,
    const TransientOptions& options) {
  const size_t n = uniformized.state_count;
  if (initial.size() != n) {
    throw std::invalid_argument("cumulative_reward: size mismatch");
  }
  for (const std::vector<double>& rewards : state_rewards) {
    if (rewards.size() != n) {
      throw std::invalid_argument("cumulative_reward: size mismatch");
    }
  }
  if (t < 0.0) throw std::invalid_argument("cumulative_reward: negative time");
  std::vector<double> values(state_rewards.size(), 0.0);
  if (t == 0.0 || state_rewards.empty()) return values;

  const auto weights = poisson_weights_cached(uniformized.q * t, options.epsilon);

  // E_r = (1/q) Σ_{k=0..R} (1 − CDF(k)) (π₀ Pᵏ)·r = (w·r)/q with the weighted
  // iterate sum w shared by every reward. Since the normalized weights sum
  // to 1 over [L,R], the factor (1 − CDF(k)) is 1 for k < L and 0 for k ≥ R;
  // running the cumulative sum incrementally avoids the quadratic cdf() scan.
  std::vector<double> ceilings(state_rewards.size(), 0.0);
  for (size_t r = 0; r < state_rewards.size(); ++r) {
    for (const double value : state_rewards[r]) {
      ceilings[r] = std::max(ceilings[r], std::abs(value));
    }
  }
  std::vector<bool> closed(state_rewards.size(), false);
  size_t open = state_rewards.size();
  std::vector<double> current = initial;
  std::vector<double> next(n, 0.0);
  std::vector<double> weighted(n, 0.0);
  double cdf = 0.0;
  size_t steps = 0;
  for (size_t k = 0; k <= weights->right && open > 0; ++k) {
    if (options.cancelled && options.cancelled()) {
      throw util::Cancelled("cumulative_reward");
    }
    cdf += weights->weight(k);
    const double factor = 1.0 - cdf;
    if (factor > 0.0) linalg::axpy(factor, current, weighted);
    if (k == weights->right) break;
    uniformized.step(current, next);
    ++steps;
    // Steady-state detection, with the quadratic tail bound this sum needs:
    // the collapsed-tail error is Σ_j (1−CDF(j))·(j−k−1)·δ·‖r‖∞/q
    // ≤ δ·(remaining)²·‖r‖∞/q (L1-contracting step deltas, as in
    // transient_distribution). The tail itself has the closed form
    // Σ_j (1−CDF(j)) · π_{k+1}·r. Each reward closes on its own ‖r‖∞, so
    // its value does not depend on the other rewards of the pass.
    if (options.steady_state_detection && (k & 3) == 3 && k + 1 < weights->right) {
      double delta = 0.0;
      for (size_t i = 0; i < n; ++i) delta += std::abs(next[i] - current[i]);
      const double remaining = static_cast<double>(weights->right - (k + 1));
      const double bound = delta * remaining * remaining / uniformized.q;
      std::optional<double> tail_factor;
      for (size_t r = 0; r < state_rewards.size(); ++r) {
        if (closed[r] ||
            bound * std::max(1.0, ceilings[r]) > options.steady_state_epsilon) {
          continue;
        }
        if (!tail_factor) {
          double sum = 0.0;
          double tail_cdf = cdf;
          for (size_t j = k + 1; j <= weights->right; ++j) {
            tail_cdf += weights->weight(j);
            const double f = 1.0 - tail_cdf;
            if (f > 0.0) sum += f;
          }
          tail_factor = sum;
        }
        values[r] = (linalg::dot(weighted, state_rewards[r]) +
                     *tail_factor * linalg::dot(next, state_rewards[r])) /
                    uniformized.q;
        closed[r] = true;
        --open;
        util::metrics::registry().add("solve.steady_state_truncations");
      }
      if (open == 0) {
        util::metrics::registry().add("solve.steady_state_steps_saved",
                                      weights->right - (k + 1));
      }
    }
    current.swap(next);
  }
  for (size_t r = 0; r < state_rewards.size(); ++r) {
    if (!closed[r]) values[r] = linalg::dot(weighted, state_rewards[r]) / uniformized.q;
  }
  util::metrics::registry().add("ctmc.matrix_vector_products", steps);
  return values;
}

double expected_cumulative_reward(const Uniformized& uniformized,
                                  const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options) {
  return expected_cumulative_rewards(uniformized, initial, {&state_rewards, 1}, t,
                                     options)[0];
}

double expected_cumulative_reward(const Ctmc& chain, const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options) {
  const size_t n = chain.state_count();
  if (initial.size() != n || state_rewards.size() != n) {
    throw std::invalid_argument("cumulative_reward: size mismatch");
  }
  if (t < 0.0) throw std::invalid_argument("cumulative_reward: negative time");
  if (t == 0.0) return 0.0;
  if (chain.max_exit_rate() == 0.0) {
    // No movement: the chain sits in the initial distribution for all of [0,t].
    return t * linalg::dot(initial, state_rewards);
  }
  // A temporary stage: hand its bytes back to the budget once used.
  const Uniformized uniformized = uniformize(chain, options);
  const double reward =
      expected_cumulative_reward(uniformized, initial, state_rewards, t, options);
  if (options.budget) options.budget->release_bytes(uniformized.bytes());
  return reward;
}

double expected_instantaneous_reward(const Ctmc& chain,
                                     const std::vector<double>& initial,
                                     const std::vector<double>& state_rewards, double t,
                                     const TransientOptions& options) {
  if (state_rewards.size() != chain.state_count()) {
    throw std::invalid_argument("instantaneous_reward: size mismatch");
  }
  const std::vector<double> dist = transient_distribution(chain, initial, t, options);
  return linalg::dot(dist, state_rewards);
}

double steady_state_reward(const Ctmc& chain, const std::vector<double>& initial,
                           const std::vector<double>& state_rewards,
                           const SteadyStateOptions& options) {
  if (state_rewards.size() != chain.state_count()) {
    throw std::invalid_argument("steady_state_reward: size mismatch");
  }
  const SteadyStateResult result = steady_state(chain, initial, options);
  return linalg::dot(result.distribution, state_rewards);
}

double expected_time_fraction(const Ctmc& chain, const std::vector<double>& initial,
                              const std::vector<bool>& mask, double t,
                              const TransientOptions& options) {
  if (mask.size() != chain.state_count()) {
    throw std::invalid_argument("expected_time_fraction: mask size mismatch");
  }
  if (!(t > 0.0)) throw std::invalid_argument("expected_time_fraction: t must be > 0");
  std::vector<double> rewards(mask.size(), 0.0);
  for (size_t i = 0; i < mask.size(); ++i) rewards[i] = mask[i] ? 1.0 : 0.0;
  return expected_cumulative_reward(chain, initial, rewards, t, options) / t;
}

}  // namespace autosec::ctmc
