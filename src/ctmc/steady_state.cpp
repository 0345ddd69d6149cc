#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "ctmc/scc.hpp"
#include "ctmc/transient.hpp"
#include "linalg/vector_ops.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autosec::ctmc {

namespace {

/// A steady-state solve under the linalg failure contract (stage
/// "steady_state"), with every rung beyond the first added to `fallbacks`.
std::vector<double> solve_counted(const linalg::CsrMatrix& A,
                                  const std::vector<double>& b,
                                  const linalg::IterativeOptions& solver,
                                  std::atomic<size_t>& fallbacks,
                                  const char* what) {
  linalg::IterativeResult solved =
      linalg::solve_fixpoint_or_throw(A, b, solver, "steady_state", what);
  fallbacks.fetch_add(solved.attempts.size() - 1, std::memory_order_relaxed);
  return std::move(solved.x);
}

/// Stationary distribution within one BSCC, returned over the BSCC's local
/// state indices. The BSCC has no outgoing edges, so its embedded jump chain
/// P_ij = R_ij / E_i is stochastic and irreducible. Fixing a reference state
/// r, the visit measure ν of P scaled to ν_r = 1 solves
///   ν_j = Σ_{i≠r} ν_i·P_ij + P_rj   for every j ≠ r,
/// an x = A·x + b system with A = (P restricted to the non-r states)ᵀ,
/// substochastic because P_r· is cut away. It goes to linalg::solve_fixpoint
/// like every other unbounded solve, and π_j ∝ ν_j / E_j.
///
/// r is the state with the largest one-step in-flow Σ_i P_ir. Cutting r out
/// stops the chain each time it would enter r, so the iteration contracts at
/// the rate the chain returns to r: a rarely visited reference leaves A with
/// spectral radius near 1 and ν spanning orders of magnitude (a 36-state
/// random BSCC with r = its lowest state stalled Gauss-Seidel at Δ≈5e-7),
/// while a heavily entered one converges in a few dozen sweeps.
std::vector<double> bscc_stationary(const Ctmc& chain,
                                    const std::vector<uint32_t>& members,
                                    const linalg::IterativeOptions& solver,
                                    std::atomic<size_t>& fallbacks) {
  const size_t m = members.size();
  if (m == 1) return {1.0};

  std::vector<uint32_t> local_of(chain.state_count(), UINT32_MAX);
  for (uint32_t i = 0; i < m; ++i) local_of[members[i]] = i;
  const std::vector<double>& exit_rates = chain.exit_rates();

  // Pass 1: in-degree and one-step in-flow of every member.
  std::vector<uint32_t> in_degree(m, 0);
  std::vector<double> inflow(m, 0.0);
  for (uint32_t i = 0; i < m; ++i) {
    const auto cols = chain.rates().row_columns(members[i]);
    const auto vals = chain.rates().row_values(members[i]);
    for (size_t k = 0; k < cols.size(); ++k) {
      if (vals[k] == 0.0) continue;
      const uint32_t j = local_of[cols[k]];
      if (j == UINT32_MAX) {
        throw std::logic_error("bscc_stationary: edge leaves the BSCC");
      }
      ++in_degree[j];
      inflow[j] += vals[k] / exit_rates[members[i]];
    }
  }
  const uint32_t r = static_cast<uint32_t>(
      std::max_element(inflow.begin(), inflow.end()) - inflow.begin());
  // Unknown index of a non-reference member.
  const auto unknown = [r](uint32_t j) { return j - (j > r ? 1u : 0u); };

  // Row j of A holds P_ij for the sources i ≠ r; the reference row is b.
  const auto r_cols = chain.rates().row_columns(members[r]);
  const auto r_vals = chain.rates().row_values(members[r]);
  for (size_t k = 0; k < r_cols.size(); ++k) {
    if (r_vals[k] != 0.0) --in_degree[local_of[r_cols[k]]];
  }
  std::vector<uint32_t> offsets(m, 0);  // m−1 rows
  for (uint32_t j = 0; j < m; ++j) {
    if (j != r) offsets[unknown(j) + 1] = in_degree[j];
  }
  for (size_t u = 0; u + 1 < m; ++u) offsets[u + 1] += offsets[u];

  // Pass 2: counting-sort scatter. Sources are scanned in ascending order
  // and unknown() is monotone, so every row comes out with strictly
  // ascending columns (no local self-loops exist) — no builder sort.
  std::vector<uint32_t> columns(offsets[m - 1]);
  std::vector<double> values(offsets[m - 1]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<double> b(m - 1, 0.0);
  for (uint32_t i = 0; i < m; ++i) {
    const auto cols = chain.rates().row_columns(members[i]);
    const auto vals = chain.rates().row_values(members[i]);
    const double exit_i = exit_rates[members[i]];
    for (size_t k = 0; k < cols.size(); ++k) {
      if (vals[k] == 0.0) continue;
      const uint32_t j = local_of[cols[k]];
      if (j == r) continue;
      if (i == r) {
        b[unknown(j)] = vals[k] / exit_i;
        continue;
      }
      const uint32_t pos = cursor[unknown(j)]++;
      columns[pos] = unknown(i);
      values[pos] = vals[k] / exit_i;
    }
  }
  const linalg::CsrMatrix A(m - 1, m - 1, std::move(offsets), std::move(columns),
                            std::move(values));
  const std::vector<double> visits =
      solve_counted(A, b, solver, fallbacks, "stationary");

  std::vector<double> pi(m);
  for (uint32_t j = 0; j < m; ++j) {
    pi[j] = (j == r ? 1.0 : visits[unknown(j)]) / exit_rates[members[j]];
  }
  linalg::normalize_l1(pi);
  return pi;
}

}  // namespace

SteadyStateResult steady_state(const Ctmc& chain, const std::vector<double>& initial,
                               const SteadyStateOptions& options) {
  const size_t n = chain.state_count();
  // Same contract as transient analysis: reject negative entries and mass
  // above 1 instead of silently folding them into the BSCC weighting.
  check_distribution(n, initial, "steady_state");

  const SccDecomposition sccs = strongly_connected_components(chain.rates());
  const std::vector<uint32_t> bottoms = sccs.bottom_components();

  SteadyStateResult result;
  result.bscc_count = bottoms.size();
  result.distribution.assign(n, 0.0);
  std::atomic<size_t> fallbacks{0};

  // Map component id -> index into `bottoms` (or UINT32_MAX for transient).
  std::vector<uint32_t> bottom_index(sccs.component_count, UINT32_MAX);
  for (uint32_t b = 0; b < bottoms.size(); ++b) bottom_index[bottoms[b]] = b;

  // Qualitative pre-pass: which BSCCs are reachable from each component?
  // Tarjan ids are in reverse topological order (edges go from higher id to
  // lower id), so a single sweep in increasing id order propagates the
  // reach-sets. Components that can reach exactly one BSCC are absorbed into
  // it with probability 1 — no numerics needed. This matters beyond speed:
  // nearly-absorbing transient layers (e.g. an unpatchable broken-protection
  // flag whose only escape rate is tiny) make the fixpoint iteration
  // arbitrarily slow, while the graph argument settles them exactly.
  std::vector<std::vector<uint32_t>> reachable_bsccs(sccs.component_count);
  for (uint32_t c = 0; c < sccs.component_count; ++c) {
    if (bottom_index[c] != UINT32_MAX) {
      reachable_bsccs[c] = {bottom_index[c]};
      continue;
    }
    std::vector<uint32_t> merged;
    for (uint32_t s : sccs.members[c]) {
      const auto cols = chain.rates().row_columns(s);
      const auto vals = chain.rates().row_values(s);
      for (size_t k = 0; k < cols.size(); ++k) {
        if (vals[k] == 0.0) continue;
        const uint32_t target_component = sccs.component_of[cols[k]];
        if (target_component == c) continue;
        // target_component < c in Tarjan numbering: already computed.
        for (uint32_t b : reachable_bsccs[target_component]) merged.push_back(b);
      }
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    reachable_bsccs[c] = std::move(merged);
  }

  // Absorption probability per state into each BSCC. States inside a BSCC
  // and states that can reach only one BSCC are settled by the pre-pass; only
  // genuinely branching transient states enter the linear system
  // x = A·x + r on the embedded DTMC (A = branching-transient block, r = the
  // one-step probability of entering the BSCC or a state already determined
  // to be absorbed into it).
  std::vector<uint32_t> transient_states;  // branching transient states only
  std::vector<uint32_t> transient_local(n, UINT32_MAX);
  // determined_bscc[s] = the unique BSCC state s is absorbed into, or
  // UINT32_MAX when branching.
  std::vector<uint32_t> determined_bscc(n, UINT32_MAX);
  for (uint32_t s = 0; s < n; ++s) {
    const uint32_t component = sccs.component_of[s];
    if (bottom_index[component] != UINT32_MAX) {
      determined_bscc[s] = bottom_index[component];
    } else if (reachable_bsccs[component].size() == 1) {
      determined_bscc[s] = reachable_bsccs[component][0];
    } else {
      transient_local[s] = static_cast<uint32_t>(transient_states.size());
      transient_states.push_back(s);
    }
  }

  {
    util::metrics::Registry& metrics = util::metrics::registry();
    if (metrics.enabled()) {
      metrics.add("steady_state.solves");
      metrics.add("steady_state.bsccs", bottoms.size());
      metrics.add("steady_state.absorption_states", transient_states.size());
      metrics.gauge("steady_state.last_bsccs", static_cast<double>(bottoms.size()));
      metrics.gauge("steady_state.last_absorption_size",
                    static_cast<double>(transient_states.size()));
    }
  }

  std::vector<std::vector<double>> absorb(bottoms.size());

  // Transient-to-transient block of the embedded DTMC (shared across BSCC
  // targets), assembled row by row straight from the rates — the embedded
  // DTMC itself is never built, and with no branching transient state (a
  // single BSCC covering the chain, as in every paper architecture) the
  // block is empty. A branching state always has a positive exit rate, and
  // transient_local is monotone in the global id, so each filtered row keeps
  // ascending columns.
  const std::vector<double>& exit_rates = chain.exit_rates();
  const size_t t = transient_states.size();
  std::vector<uint32_t> offsets(t + 1, 0);
  for (uint32_t local = 0; local < t; ++local) {
    uint32_t count = 0;
    for (const uint32_t col : chain.rates().row_columns(transient_states[local])) {
      if (transient_local[col] != UINT32_MAX) ++count;
    }
    offsets[local + 1] = offsets[local] + count;
  }
  std::vector<uint32_t> columns(offsets[t]);
  std::vector<double> values(offsets[t]);
  for (uint32_t local = 0; local < t; ++local) {
    const uint32_t global = transient_states[local];
    const auto cols = chain.rates().row_columns(global);
    const auto vals = chain.rates().row_values(global);
    uint32_t pos = offsets[local];
    for (size_t k = 0; k < cols.size(); ++k) {
      const uint32_t tl = transient_local[cols[k]];
      if (tl == UINT32_MAX) continue;
      columns[pos] = tl;
      values[pos++] = vals[k] / exit_rates[global];
    }
  }
  const linalg::CsrMatrix transient_block(t, t, std::move(offsets),
                                          std::move(columns), std::move(values));

  // Independent per-BSCC absorption solves: each b writes only absorb[b], so
  // fanning them across the pool keeps results identical to the serial sweep.
  util::parallel_for(0, bottoms.size(), 1, [&](size_t b_begin, size_t b_end) {
    for (size_t b = b_begin; b < b_end; ++b) {
      absorb[b].assign(n, 0.0);
      for (uint32_t s = 0; s < n; ++s) {
        if (determined_bscc[s] == b) absorb[b][s] = 1.0;
      }
      if (t == 0) continue;

      std::vector<double> one_step(t, 0.0);
      for (uint32_t local = 0; local < t; ++local) {
        const uint32_t global = transient_states[local];
        const auto cols = chain.rates().row_columns(global);
        const auto vals = chain.rates().row_values(global);
        for (size_t k = 0; k < cols.size(); ++k) {
          if (determined_bscc[cols[k]] == b) {
            one_step[local] += vals[k] / exit_rates[global];
          }
        }
      }
      const std::vector<double> solved = solve_counted(
          transient_block, one_step, options.solver, fallbacks, "absorption");
      for (uint32_t local = 0; local < t; ++local) {
        absorb[b][transient_states[local]] = solved[local];
      }
    }
  });

  result.bscc_probability.assign(bottoms.size(), 0.0);
  for (uint32_t b = 0; b < bottoms.size(); ++b) {
    result.bscc_probability[b] = linalg::dot(initial, absorb[b]);
    result.bscc_states.push_back(sccs.members[bottoms[b]]);
  }

  // Per-BSCC stationary solves are likewise independent; BSCC member sets are
  // disjoint, so the distribution writes never overlap.
  util::parallel_for(0, bottoms.size(), 1, [&](size_t b_begin, size_t b_end) {
    for (size_t b = b_begin; b < b_end; ++b) {
      const double weight = result.bscc_probability[b];
      if (weight <= 0.0) continue;
      const std::vector<double> local_pi = bscc_stationary(
          chain, sccs.members[bottoms[b]], options.solver, fallbacks);
      const auto& members = sccs.members[bottoms[b]];
      for (size_t i = 0; i < members.size(); ++i) {
        result.distribution[members[i]] += weight * local_pi[i];
      }
    }
  });
  result.solver_fallbacks = fallbacks.load(std::memory_order_relaxed);
  return result;
}

std::vector<double> stationary_distribution(const Ctmc& chain,
                                            const SteadyStateOptions& options) {
  const SccDecomposition sccs = strongly_connected_components(chain.rates());
  if (sccs.component_count != 1) {
    throw std::invalid_argument(
        "stationary_distribution: chain is reducible; use steady_state()");
  }
  std::vector<uint32_t> all(chain.state_count());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  std::atomic<size_t> fallbacks{0};
  return bscc_stationary(chain, all, options.solver, fallbacks);
}

}  // namespace autosec::ctmc
