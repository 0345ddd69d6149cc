#include "ctmc/rewards.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ctmc/poisson.hpp"
#include "linalg/vector_ops.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {

double expected_cumulative_reward(const Uniformized& uniformized,
                                  const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards, double t,
                                  const TransientOptions& options) {
  const size_t n = uniformized.state_count;
  if (initial.size() != n || state_rewards.size() != n) {
    throw std::invalid_argument("cumulative_reward: size mismatch");
  }
  if (t < 0.0) throw std::invalid_argument("cumulative_reward: negative time");
  if (t == 0.0) return 0.0;

  const auto weights = poisson_weights_cached(uniformized.q * t, options.epsilon);

  // E = (1/q) Σ_{k=0..R} (1 − CDF(k)) (π₀ Pᵏ)·r.  Since the normalized
  // weights sum to 1 over [L,R], the factor (1 − CDF(k)) is 1 for k < L and 0
  // for k ≥ R; running the cumulative sum incrementally avoids the quadratic
  // cdf() scan.
  std::vector<double> current = initial;
  double reward_ceiling = 0.0;
  for (const double r : state_rewards) {
    reward_ceiling = std::max(reward_ceiling, std::abs(r));
  }
  std::vector<double> next(n, 0.0);
  double cdf = 0.0;
  double acc = 0.0;
  size_t steps = 0;
  for (size_t k = 0; k <= weights->right; ++k) {
    cdf += weights->weight(k);
    const double factor = 1.0 - cdf;
    if (factor > 0.0) acc += factor * linalg::dot(current, state_rewards);
    if (k < weights->right) {
      uniformized.step(current, next);
      ++steps;
      // Steady-state detection, with the quadratic tail bound this sum
      // needs: the collapsed-tail error is Σ_j (1−CDF(j))·(j−k−1)·δ·‖r‖∞/q
      // ≤ δ·(remaining)²·‖r‖∞/q (L1-contracting step deltas, as in
      // transient_distribution). The tail itself has the closed form
      // Σ_j (1−CDF(j)) · π_{k+1}·r.
      if (options.steady_state_detection && (k & 3) == 3 &&
          k + 1 < weights->right) {
        double delta = 0.0;
        for (size_t i = 0; i < n; ++i) delta += std::abs(next[i] - current[i]);
        const double remaining = static_cast<double>(weights->right - (k + 1));
        if (delta * remaining * remaining * std::max(1.0, reward_ceiling) /
                uniformized.q <=
            options.steady_state_epsilon) {
          double tail_factor = 0.0;
          double tail_cdf = cdf;
          for (size_t j = k + 1; j <= weights->right; ++j) {
            tail_cdf += weights->weight(j);
            const double f = 1.0 - tail_cdf;
            if (f > 0.0) tail_factor += f;
          }
          acc += tail_factor * linalg::dot(next, state_rewards);
          util::metrics::Registry& metrics = util::metrics::registry();
          if (metrics.enabled()) {
            metrics.add("solve.steady_state_truncations");
            metrics.add("solve.steady_state_steps_saved", weights->right - (k + 1));
          }
          break;
        }
      }
      current.swap(next);
    }
  }
  util::metrics::registry().add("ctmc.matrix_vector_products", steps);
  return acc / uniformized.q;
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
  return expected_cumulative_reward(uniformize(chain, options), initial,
                                    state_rewards, t, options);
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
