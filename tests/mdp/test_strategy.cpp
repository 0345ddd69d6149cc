#include "mdp/strategy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ctmc/scc.hpp"
#include "mdp/mdp.hpp"
#include "mdp/value_iteration.hpp"

namespace autosec::mdp {
namespace {

/// The shared gadget (see test_precompute.cpp): Pmax[F s2] = 1/2 from s0 via
/// the advance row, Pmin = 0 via stay.
Mdp gadget() {
  Mdp m;
  linalg::CsrBuilder builder(5, 4);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, 0.5);
  builder.add(1, 3, 0.5);
  builder.add(2, 2, 1.0);
  builder.add(3, 2, 1.0);
  builder.add(4, 3, 1.0);
  m.transitions = std::move(builder).build();
  m.state_of_row = {0, 0, 1, 2, 3};
  m.state_offsets = {0, 2, 3, 4, 5};
  m.action_labels = {"stay", "advance", "go", "loop", "loop"};
  m.validate();
  return m;
}

const std::vector<bool> kTarget = {false, false, true, false};

std::vector<double> induced_reachability(const linalg::CsrMatrix& chain,
                                         const std::vector<bool>& target) {
  return ctmc::reachability_probabilities(chain, target, {}, "solve");
}

TEST(Strategy, ExtractedMaxStrategyReproducesTheValue) {
  const Mdp m = gadget();
  const ViResult result = reachability(m, kTarget, /*maximize=*/true);
  const std::vector<int32_t> rows =
      extract_reachability_strategy(m, kTarget, result, true, 1e-8);
  EXPECT_EQ(rows[0], 1);  // s0 must pick its advance row, not the tie-safe loop
  // Independent re-check: the induced DTMC's reachability equals the MDP value.
  const std::vector<double> induced =
      induced_reachability(induced_chain(m, rows), kTarget);
  ASSERT_EQ(induced.size(), result.values.size());
  for (size_t s = 0; s < induced.size(); ++s) {
    EXPECT_NEAR(induced[s], result.values[s], 1e-9) << "state " << s;
  }
}

TEST(Strategy, ExtractedMinStrategyStaysInTheZeroSet) {
  const Mdp m = gadget();
  const ViResult result = reachability(m, kTarget, /*maximize=*/false);
  const std::vector<int32_t> rows =
      extract_reachability_strategy(m, kTarget, result, false, 1e-8);
  EXPECT_EQ(rows[0], 0);  // the Prob0E witness: stay forever
  const std::vector<double> induced =
      induced_reachability(induced_chain(m, rows), kTarget);
  EXPECT_DOUBLE_EQ(induced[0], 0.0);
  EXPECT_DOUBLE_EQ(induced[1], 1.0);
}

TEST(Strategy, InducedChainSelfLoopsOnIndifferentStates) {
  const Mdp m = gadget();
  const std::vector<int32_t> rows = {1, 2, -1, -1};
  const linalg::CsrMatrix chain = induced_chain(m, rows);
  EXPECT_EQ(chain.rows(), 4u);
  // -1 states become probability-1 self-loops.
  const auto cols = chain.row_columns(2);
  const auto vals = chain.row_values(2);
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0], 2u);
  EXPECT_DOUBLE_EQ(vals[0], 1.0);
  // Chosen states keep exactly their chosen row's distribution.
  EXPECT_EQ(chain.row_columns(0).size(), 2u);
}

TEST(Strategy, InducedBoundedReachabilityFollowsTheSchedule) {
  const Mdp m = gadget();
  const BoundedViResult bounded = bounded_reachability(m, kTarget, 2, true);
  const double induced =
      induced_bounded_reachability(m, bounded.schedule, kTarget, 0);
  EXPECT_NEAR(induced, bounded.values[0], 1e-12);
  EXPECT_NEAR(induced, 0.5, 1e-12);
}

TEST(Strategy, InducedBoundedReachabilityRejectsForeignRows) {
  const Mdp m = gadget();
  // A row index past the matrix (as an edited document could carry) and a
  // real row that belongs to another state are both refused up front,
  // never read.
  EXPECT_THROW(induced_bounded_reachability(m, {{2000000000, 2, -1, -1}}, kTarget, 0),
               std::invalid_argument);
  EXPECT_THROW(induced_bounded_reachability(m, {{2, 2, -1, -1}}, kTarget, 0),
               std::invalid_argument);
  // A step that does not cover every state.
  EXPECT_THROW(induced_bounded_reachability(m, {{1, 2, -1}}, kTarget, 0),
               std::invalid_argument);
  EXPECT_THROW(induced_chain(m, {2000000000, 2, -1, -1}), std::invalid_argument);
  EXPECT_THROW(induced_chain(m, {3, 2, -1, -1}), std::invalid_argument);
}

}  // namespace
}  // namespace autosec::mdp
