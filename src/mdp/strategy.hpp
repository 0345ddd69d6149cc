// Memoryless strategy extraction and the induced-chain cross-check. The
// optimizing scheduler of a reachability query is the counterexample the
// security analysis reports (the attack path a worst-case adversary walks);
// extracting it and re-checking the induced Markov chain against the reported
// probability is how the engine proves the exported strategy is the one it
// solved for.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "mdp/mdp.hpp"
#include "mdp/value_iteration.hpp"

namespace autosec::mdp {

/// Memoryless strategy for an unbounded reachability objective, as chosen row
/// per state (-1 = no choice needed; induced chain self-loops there).
///
/// Greedy argopt over a converged value vector can tie-break into a cycle
/// that never reaches the target, so extraction runs as an attractor: starting
/// from the target, a state is committed only when one of its value-optimal
/// rows (within `tolerance`) moves into the already-committed region. For the
/// minimizing direction, Pmin-zero states get a witness row of the Prob0E
/// fixpoint (all successors stay in the zero set) instead.
std::vector<int32_t> extract_reachability_strategy(const Mdp& mdp,
                                                   const std::vector<bool>& target,
                                                   const ViResult& result,
                                                   bool maximize,
                                                   double tolerance);

/// DTMC induced by a memoryless strategy: state s keeps exactly its chosen
/// row; rows[s] == -1 becomes a probability-1 self-loop. Its unbounded
/// reachability (ctmc::reachability_probabilities) is the independent
/// re-check of a value-iteration answer. Throws
/// std::invalid_argument on a size mismatch or a row outside its state.
linalg::CsrMatrix induced_chain(const Mdp& mdp, const std::vector<int32_t>& rows);

/// Pr[F<=steps target] from `initial` under a per-step schedule (as produced
/// by bounded_reachability), by backward recursion over the elapsed step.
/// Throws std::invalid_argument when a step does not cover every state or a
/// chosen row does not belong to its state.
double induced_bounded_reachability(const Mdp& mdp,
                                    const std::vector<std::vector<int32_t>>& schedule,
                                    const std::vector<bool>& target, size_t initial);

}  // namespace autosec::mdp
