// Strongly connected components of the CTMC transition graph (Tarjan's
// algorithm, iterative so deep chains do not overflow the stack) and
// identification of bottom SCCs (BSCCs) — the recurrent classes a CTMC's
// long-run behavior is confined to.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"

namespace autosec::ctmc {

struct SccDecomposition {
  /// Component id per state; ids are in reverse topological order of the
  /// condensation (an edge between components goes from the higher id to the
  /// lower id — Tarjan numbering).
  std::vector<uint32_t> component_of;
  size_t component_count = 0;
  /// True for components with no edge leaving them (bottom SCCs).
  std::vector<bool> is_bottom;
  /// States of each component.
  std::vector<std::vector<uint32_t>> members;

  /// Indices of the bottom components.
  std::vector<uint32_t> bottom_components() const;
};

/// Decompose the directed graph given by the nonzero pattern of `adjacency`
/// (must be square). Zero-weight entries are ignored.
SccDecomposition strongly_connected_components(const linalg::CsrMatrix& adjacency);

/// The standard Prob0/Prob1 reachability precomputation (graph analysis, no
/// numerics), over the target-absorbed graph.
struct ReachabilityClassification {
  /// Pr[F target] > 0: the state can reach the target at all.
  std::vector<bool> possible;
  /// Pr[F target] = 1: no state reachable from here (without first passing
  /// through the target) is itself unable to reach the target. Target states
  /// are always in the set.
  std::vector<bool> certain;
};

ReachabilityClassification classify_reachability(const linalg::CsrMatrix& adjacency,
                                                 const std::vector<bool>& target);

/// Pr[F target] per state of a probability matrix — the embedded DTMC of a
/// CTMC, or the DTMC a memoryless strategy induces on an MDP. Prob0/Prob1
/// (classify_reachability) settle the 0 and 1 states exactly; only the
/// uncertain states enter x = A·x + b, with A the uncertain-to-uncertain
/// block and b the one-step mass into the Prob1 set. Besides making the 0/1
/// answers exact, this strips every recurrent class out of the linear system,
/// so the solver never sees the near-1 eigenmodes of an almost-closed set.
/// The solve runs under linalg::solve_fixpoint_or_throw at `stage`; when
/// `fallbacks` is set, the rungs taken beyond the first are added to it.
std::vector<double> reachability_probabilities(
    const linalg::CsrMatrix& probabilities, const std::vector<bool>& target,
    const linalg::IterativeOptions& solver, const char* stage,
    size_t* fallbacks = nullptr);

}  // namespace autosec::ctmc
