// Strongly connected components of the CTMC transition graph (Tarjan's
// algorithm, iterative so deep chains do not overflow the stack) and
// identification of bottom SCCs (BSCCs) — the recurrent classes a CTMC's
// long-run behavior is confined to.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.hpp"

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

/// The Prob1 set alone; see ReachabilityClassification::certain.
std::vector<bool> almost_sure_reachability(const linalg::CsrMatrix& adjacency,
                                           const std::vector<bool>& target);

}  // namespace autosec::ctmc
