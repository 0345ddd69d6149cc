// Independent dense oracle for CTMC measures, used by the differential
// harness to cross-check the sparse uniformization/Krylov engine the way
// Storm validates its engines against each other. Every measure is computed
// through a different numerical route than the engine takes:
//
//   transient          π(t) = π(0) · e^{Qt}        (dense scaling-and-squaring
//                                                   matrix exponential)
//   cumulative reward  π(0) · [∫₀ᵗ e^{Qs} ds] · r  (Van Loan augmented-matrix
//                                                   exponential: the integral
//                                                   is the top-right block of
//                                                   exp([[Q, r],[0, 0]] t))
//   steady state       π(0) · P^{2^k}, P = I + Q/q (repeated dense squaring of
//                                                   the uniformized DTMC until
//                                                   the distribution is a
//                                                   fixpoint; aperiodicity is
//                                                   guaranteed by q strictly
//                                                   above every exit rate)
//   reachability       (I − P_UU) x = P_U→1 · 1     (Gaussian elimination on
//                                                   the embedded chain, with
//                                                   Prob0/Prob1 from the
//                                                   oracle's own graph walks)
//   reachability       (I − P_UU) e = r_U / E_U     (likewise; infinite when the
//     reward                                        target is missed with
//                                                   positive probability)
//
// All of it is O(n^3)-dense and only feasible for small chains; the harness
// keeps generated models at or below a couple hundred states.
#pragma once

#include <vector>

#include "ctmc/ctmc.hpp"
#include "mdp/mdp.hpp"

namespace autosec::testing {

struct OracleOptions {
  /// Refuse (by throwing std::invalid_argument) chains above this many
  /// states, as a guard against accidentally cubing a large state space.
  size_t max_states = 512;
  /// Fixpoint threshold for the steady-state squaring iteration.
  double steady_tolerance = 1e-12;
};

/// Distribution over states at time t: π(0)·e^{Qt}.
std::vector<double> oracle_transient(const ctmc::Ctmc& chain,
                                     const std::vector<double>& initial, double t,
                                     const OracleOptions& options = {});

/// Probability of being in a `target` state at time exactly t.
double oracle_transient_probability(const ctmc::Ctmc& chain,
                                    const std::vector<double>& initial,
                                    const std::vector<bool>& target, double t,
                                    const OracleOptions& options = {});

/// Time-bounded reachability Pr[ reach target within t through allowed ],
/// via the same absorbing-chain construction as the engine but dense-expm
/// numerics.
double oracle_bounded_reachability(const ctmc::Ctmc& chain,
                                   const std::vector<double>& initial,
                                   const std::vector<bool>& allowed,
                                   const std::vector<bool>& target, double t,
                                   const OracleOptions& options = {});

/// Long-run distribution from `initial`, by squaring the uniformized DTMC
/// until π is a fixpoint. Handles reducible chains (the limit of P^k exists
/// for any aperiodic DTMC, reducible or not).
std::vector<double> oracle_steady_state(const ctmc::Ctmc& chain,
                                        const std::vector<double>& initial,
                                        const OracleOptions& options = {});

/// Expected accumulated state reward over [0, t] via the augmented-matrix
/// exponential.
double oracle_cumulative_reward(const ctmc::Ctmc& chain,
                                const std::vector<double>& initial,
                                const std::vector<double>& state_rewards, double t,
                                const OracleOptions& options = {});

/// Expected instantaneous reward at time t: π(t)·r.
double oracle_instantaneous_reward(const ctmc::Ctmc& chain,
                                   const std::vector<double>& initial,
                                   const std::vector<double>& state_rewards, double t,
                                   const OracleOptions& options = {});

/// Long-run average reward: π∞·r.
double oracle_steady_reward(const ctmc::Ctmc& chain, const std::vector<double>& initial,
                            const std::vector<double>& state_rewards,
                            const OracleOptions& options = {});

/// Pr[F target] = 1 from the `initial` distribution: with the target
/// absorbing, every state a forward walk from the initial mass visits can
/// still reach a target state (finite-chain almost-sure reachability) — a
/// forward walk rather than the engine's two backward closures. Graph-only,
/// so it has no state limit.
bool oracle_almost_surely_reaches(const ctmc::Ctmc& chain,
                                  const std::vector<double>& initial,
                                  const std::vector<bool>& target);

/// Unbounded reachability Pr[F target] from `initial` (P=? [ F target ]).
double oracle_reachability(const ctmc::Ctmc& chain, const std::vector<double>& initial,
                           const std::vector<bool>& target,
                           const OracleOptions& options = {});

/// Expected state reward accumulated until the first target visit
/// (R=? [ F target ]); +infinity when the target is missed with positive
/// probability from `initial` (the PRISM convention).
double oracle_reachability_reward(const ctmc::Ctmc& chain,
                                  const std::vector<double>& initial,
                                  const std::vector<double>& state_rewards,
                                  const std::vector<bool>& target,
                                  const OracleOptions& options = {});

/// Per-state optimal unbounded reachability probabilities of an MDP, computed
/// the slowest honest way: enumerate every memoryless scheduler (a uniformly
/// optimal one exists for this objective), solve each induced DTMC's
/// reachability system with dense Gaussian elimination, and take the
/// elementwise max (maximize) or min. The scheduler count — the product of
/// per-state action counts — must stay at or below 1<<17, or the oracle
/// refuses by throwing std::invalid_argument. Cross-checks value iteration
/// through a route that shares neither the fixpoint iteration nor the
/// qualitative precomputation.
std::vector<double> oracle_mdp_reachability(const mdp::Mdp& mdp,
                                            const std::vector<bool>& target,
                                            bool maximize,
                                            const OracleOptions& options = {});

}  // namespace autosec::testing
