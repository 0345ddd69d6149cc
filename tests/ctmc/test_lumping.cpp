#include "ctmc/lumping.hpp"

#include <gtest/gtest.h>

#include "ctmc/rewards.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmc_test_helpers.hpp"

namespace autosec::ctmc {
namespace {

/// Two independent identical components (on/off with rates a/b): 4 states
/// (00, 01, 10, 11). With a signature that only observes "how many are on",
/// states 01 and 10 are lumpable.
Ctmc two_identical_components(double a, double b) {
  // State encoding: bit0 = component 1, bit1 = component 2.
  linalg::CsrBuilder builder(4, 4);
  auto add = [&](int from, int to, double rate) { builder.add(from, to, rate); };
  add(0b00, 0b01, a);
  add(0b00, 0b10, a);
  add(0b01, 0b00, b);
  add(0b01, 0b11, a);
  add(0b10, 0b00, b);
  add(0b10, 0b11, a);
  add(0b11, 0b01, b);
  add(0b11, 0b10, b);
  return Ctmc(std::move(builder).build());
}

std::vector<std::vector<double>> count_signature() {
  // signature = number of components that are on.
  return {{0.0}, {1.0}, {1.0}, {2.0}};
}

TEST(Lumping, SymmetricComponentsCollapse) {
  const Ctmc chain = two_identical_components(2.0, 3.0);
  const LumpingResult result = lump(chain, count_signature());
  EXPECT_EQ(result.block_count, 3u);
  EXPECT_EQ(result.block_of[0b01], result.block_of[0b10]);
  EXPECT_NE(result.block_of[0b00], result.block_of[0b11]);
  // Quotient is the birth-death chain 0 -2a-> 1 -a-> 2 with b / 2b back.
  const uint32_t b0 = result.block_of[0b00];
  const uint32_t b1 = result.block_of[0b01];
  const uint32_t b2 = result.block_of[0b11];
  EXPECT_DOUBLE_EQ(result.quotient.rates().at(b0, b1), 4.0);
  EXPECT_DOUBLE_EQ(result.quotient.rates().at(b1, b2), 2.0);
  EXPECT_DOUBLE_EQ(result.quotient.rates().at(b1, b0), 3.0);
  EXPECT_DOUBLE_EQ(result.quotient.rates().at(b2, b1), 6.0);
}

TEST(Lumping, AsymmetricRatesPreventCollapse) {
  // Make component 2 slower: 01 and 10 now behave differently.
  linalg::CsrBuilder builder(4, 4);
  builder.add(0b00, 0b01, 2.0);
  builder.add(0b00, 0b10, 1.0);  // different rate
  builder.add(0b01, 0b00, 3.0);
  builder.add(0b10, 0b00, 3.0);
  const Ctmc chain(std::move(builder).build());
  const LumpingResult result = lump(chain, count_signature());
  // 01 and 10 must split: their incoming structure differs... ordinary
  // lumpability is about *outgoing* rates; 01 and 10 both go to block{00} at
  // rate 3, so they actually stay lumped. Verify the quotient is still exact.
  const auto original =
      transient_distribution(chain, testing::start_in(4, 0), 0.7);
  const auto quotient_dist = transient_distribution(
      result.quotient, result.aggregate_distribution(testing::start_in(4, 0)), 0.7);
  for (size_t s = 0; s < 4; ++s) {
    // compare block-aggregated probabilities
    double agg = 0.0;
    for (size_t t = 0; t < 4; ++t) {
      if (result.block_of[t] == result.block_of[s]) agg += original[t];
    }
    EXPECT_NEAR(agg, quotient_dist[result.block_of[s]], 1e-10);
  }
}

TEST(Lumping, SplitsWhenOutgoingRatesDiffer) {
  linalg::CsrBuilder builder(3, 3);
  builder.add(0, 2, 1.0);
  builder.add(1, 2, 5.0);  // same signature as state 0 but different rate
  const Ctmc chain(std::move(builder).build());
  const LumpingResult result =
      lump(chain, {{0.0}, {0.0}, {1.0}});
  EXPECT_EQ(result.block_count, 3u);
  EXPECT_NE(result.block_of[0], result.block_of[1]);
}

TEST(Lumping, TransientPreservedOnFigure3WithCoarseSignature) {
  // Observing only "s2 or not" lumps s0 and s1? They differ in rate into s2
  // (0 vs 2), so refinement must keep them apart — and results stay exact.
  const Ctmc chain = testing::figure3_chain();
  const LumpingResult result = lump(chain, {{0.0}, {0.0}, {1.0}});
  EXPECT_EQ(result.block_count, 3u);  // no reduction possible
}

TEST(Lumping, RewardAndSteadyStatePreserved) {
  const Ctmc chain = two_identical_components(1.5, 4.0);
  const std::vector<double> rewards = {0.0, 1.0, 1.0, 2.0};  // block-constant
  const LumpingResult result = lump(chain, count_signature());

  const auto initial = testing::start_in(4, 0);
  const auto lumped_initial = result.aggregate_distribution(initial);
  // Block-constant rewards carry over at each block's representative.
  std::vector<double> lumped_rewards;
  for (const uint32_t representative : result.representative) {
    lumped_rewards.push_back(rewards[representative]);
  }

  EXPECT_NEAR(expected_cumulative_reward(chain, initial, rewards, 2.0),
              expected_cumulative_reward(result.quotient, lumped_initial,
                                         lumped_rewards, 2.0),
              1e-10);

  const auto full = steady_state(chain, initial);
  const auto quotient = steady_state(result.quotient, lumped_initial);
  for (uint32_t b = 0; b < result.block_count; ++b) {
    double aggregated = 0.0;
    for (size_t s = 0; s < 4; ++s) {
      if (result.block_of[s] == b) aggregated += full.distribution[s];
    }
    EXPECT_NEAR(aggregated, quotient.distribution[b], 1e-9);
  }
}

TEST(Lumping, MaskAggregation) {
  // A mask that is part of the signatures is block-constant, so reading it
  // at each block's representative (what the lumped checker's quotient space
  // does) gives every member's value.
  const Ctmc chain = two_identical_components(1.0, 1.0);
  const std::vector<bool> mask = {false, true, true, true};
  const LumpingResult result = lump_preserving(chain, {mask}, {});
  EXPECT_EQ(result.block_count, 3u);  // {00}, {01,10}, {11}
  ASSERT_EQ(result.representative.size(), result.block_count);
  for (size_t s = 0; s < mask.size(); ++s) {
    EXPECT_EQ(mask[result.representative[result.block_of[s]]], mask[s]) << s;
  }
}

TEST(Lumping, LumpPreservingBuildsSignaturesFromMasksAndRewards) {
  const Ctmc chain = two_identical_components(2.0, 3.0);
  const std::vector<std::vector<bool>> masks = {{false, false, false, true}};
  const std::vector<std::vector<double>> rewards = {{0.0, 1.0, 1.0, 2.0}};
  const auto initial = testing::start_in(4, 0);
  const LumpingResult result = lump_preserving(chain, masks, rewards, &initial);
  EXPECT_EQ(result.block_count, 3u);
}

TEST(Lumping, InitialDistributionSignatureKeepsPointMassExact) {
  // Without the initial marker, state 0 could lump with others sharing its
  // observations; the marker forces it apart so the quotient initial
  // distribution is well-defined.
  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  const Ctmc chain(std::move(builder).build());
  const auto initial = testing::start_in(2, 0);
  // Identical observations for both states:
  const LumpingResult blind = lump(chain, {{0.0}, {0.0}});
  EXPECT_EQ(blind.block_count, 1u);
  const LumpingResult aware = lump_preserving(chain, {}, {}, &initial);
  EXPECT_EQ(aware.block_count, 2u);
}

TEST(Lumping, SizeMismatchRejected) {
  const Ctmc chain = testing::two_state(1.0, 1.0);
  EXPECT_THROW(lump(chain, {{0.0}}), std::invalid_argument);
}

class LumpingRandom : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LumpingRandom, QuotientPreservesTransientOnReplicatedChains) {
  // K identical independent 2-state components; signature = #on. The lumped
  // chain must reproduce the aggregated transient exactly.
  const int k = 2 + static_cast<int>(GetParam() % 3);
  const double a = 0.5 + 0.3 * GetParam();
  const double b = 2.0 + 0.2 * GetParam();
  const size_t n = 1u << k;
  linalg::CsrBuilder builder(n, n);
  for (size_t s = 0; s < n; ++s) {
    for (int bit = 0; bit < k; ++bit) {
      const size_t flipped = s ^ (1u << bit);
      builder.add(s, flipped, (s >> bit & 1u) ? b : a);
    }
  }
  const Ctmc chain(std::move(builder).build());
  std::vector<std::vector<double>> signatures(n);
  for (size_t s = 0; s < n; ++s) {
    signatures[s] = {static_cast<double>(__builtin_popcountll(s))};
  }
  const LumpingResult result = lump(chain, signatures);
  EXPECT_EQ(result.block_count, static_cast<size_t>(k + 1));

  const auto initial = testing::start_in(n, 0);
  const auto original = transient_distribution(chain, initial, 0.9);
  const auto quotient = transient_distribution(
      result.quotient, result.aggregate_distribution(initial), 0.9);
  std::vector<double> aggregated(result.block_count, 0.0);
  for (size_t s = 0; s < n; ++s) aggregated[result.block_of[s]] += original[s];
  for (size_t blk = 0; blk < result.block_count; ++blk) {
    EXPECT_NEAR(aggregated[blk], quotient[blk], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LumpingRandom, ::testing::Range(1u, 7u));

}  // namespace
}  // namespace autosec::ctmc
