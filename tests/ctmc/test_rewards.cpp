#include "ctmc/rewards.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ctmc/poisson.hpp"
#include "ctmc_test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/metrics.hpp"

namespace autosec::ctmc {
namespace {

using testing::start_in;
using testing::two_state;
using testing::two_state_occupancy1;
using testing::two_state_p1;

TEST(CumulativeReward, TwoStateOccupancyMatchesClosedForm) {
  const double a = 1.9, b = 52.0;  // telematics-like rates
  const Ctmc chain = two_state(a, b);
  const std::vector<double> reward = {0.0, 1.0};
  for (double T : {0.1, 0.5, 1.0, 2.0}) {
    const double expected = two_state_occupancy1(a, b, T);
    const double actual = expected_cumulative_reward(chain, start_in(2, 0), reward, T);
    EXPECT_NEAR(actual, expected, 1e-10) << "T=" << T;
  }
}

TEST(CumulativeReward, ConstantRewardAccumulatesLinearly) {
  const Ctmc chain = two_state(2.0, 3.0);
  const std::vector<double> reward = {5.0, 5.0};
  const double value = expected_cumulative_reward(chain, start_in(2, 0), reward, 2.0);
  EXPECT_NEAR(value, 10.0, 1e-9);
}

TEST(CumulativeReward, LargeHorizonExercisesTruncationTail) {
  // At large q·t the Fox–Glynn window starts at left > 0: every Poisson index
  // below `left` has weight 0 but still contributes full survivor mass
  // (1 − PoisCDF(k) = 1) to the cumulative sum. A bug in that tail handling
  // is invisible to the small-q·t tests where left == 0.
  const double a = 40.0, b = 10.0;
  const Ctmc chain = two_state(a, b);
  const double t = 60.0;

  // Premise check: this horizon really has a truncated left tail.
  const double qt = chain.default_uniformization_rate() * t;
  const PoissonWeights window = poisson_weights(qt, 1e-12);
  ASSERT_GT(window.left, 0u);

  // Closed form from p0(s) = pi0 + (1 - pi0) e^{-(a+b)s} started in state 0:
  // E[∫r] = r0 ∫p0 + r1 (t - ∫p0).
  const std::vector<double> reward = {2.0, 5.0};
  const double rate_sum = a + b;
  const double pi0 = b / rate_sum;
  const double int_p0 =
      pi0 * t + (1.0 - pi0) * (1.0 - std::exp(-rate_sum * t)) / rate_sum;
  const double expected = reward[0] * int_p0 + reward[1] * (t - int_p0);

  const double actual = expected_cumulative_reward(chain, start_in(2, 0), reward, t);
  EXPECT_NEAR(actual, expected, 1e-8 * expected);
}

TEST(CumulativeReward, ZeroHorizonIsZero) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_DOUBLE_EQ(expected_cumulative_reward(chain, start_in(2, 0), {1.0, 1.0}, 0.0),
                   0.0);
}

TEST(CumulativeReward, FrozenChainAccumulatesInitialReward) {
  linalg::CsrBuilder builder(2, 2);
  const Ctmc chain(std::move(builder).build());
  const double value = expected_cumulative_reward(chain, start_in(2, 1), {3.0, 7.0}, 2.0);
  EXPECT_DOUBLE_EQ(value, 14.0);
}

TEST(CumulativeReward, RejectsBadArguments) {
  const Ctmc chain = two_state(1.0, 1.0);
  EXPECT_THROW(expected_cumulative_reward(chain, start_in(2, 0), {1.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(expected_cumulative_reward(chain, start_in(2, 0), {1.0, 1.0}, -1.0),
               std::invalid_argument);
}

/// Uniformization products the call `solve` performs.
template <typename Solve>
uint64_t products_of(Solve solve) {
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.set_enabled(true);
  const uint64_t before = metrics.counter_value("ctmc.matrix_vector_products");
  solve();
  const uint64_t after = metrics.counter_value("ctmc.matrix_vector_products");
  metrics.set_enabled(false);
  return after - before;
}

TEST(CumulativeRewards, BatchMatchesSingleSolvesBitForBit) {
  // A long horizon on a fast-mixing chain, so steady-state detection closes
  // each reward early — the larger ‖r‖∞ later. Each batch value must equal
  // the reward solved alone, and the pass must run exactly as long as its
  // slowest member.
  const Ctmc chain = testing::figure3_chain();
  const Uniformized stage = uniformize(chain);
  const std::vector<double> initial = start_in(3, 0);
  const std::vector<std::vector<double>> rewards = {
      {0.0, 0.0, 1.0}, {1000.0, 0.0, 0.0}, {1.0, 2.0, 3.0}};
  const double t = 50.0;

  std::vector<double> singles;
  std::vector<uint64_t> single_products;
  for (const std::vector<double>& reward : rewards) {
    single_products.push_back(products_of([&] {
      singles.push_back(expected_cumulative_reward(stage, initial, reward, t));
    }));
  }
  ASSERT_LT(single_products[0], single_products[1])
      << "premise: the larger reward ceiling closes later";

  std::vector<double> batch;
  const uint64_t batch_products = products_of([&] {
    batch = expected_cumulative_rewards(stage, initial, rewards, t);
  });
  ASSERT_EQ(batch.size(), rewards.size());
  for (size_t r = 0; r < rewards.size(); ++r) {
    EXPECT_EQ(batch[r], singles[r]) << "reward " << r;
  }
  EXPECT_EQ(batch_products,
            *std::max_element(single_products.begin(), single_products.end()));
  // Same answers as the exhaustive sum, within the detection bound.
  TransientOptions exhaustive;
  exhaustive.steady_state_detection = false;
  for (size_t r = 0; r < rewards.size(); ++r) {
    const double full =
        expected_cumulative_reward(stage, initial, rewards[r], t, exhaustive);
    EXPECT_NEAR(batch[r], full, 1e-6) << "reward " << r;
  }
}

TEST(CumulativeRewards, EmptyBatchAndZeroHorizonDoNoWork) {
  const Uniformized stage = uniformize(two_state(1.0, 2.0));
  const std::vector<double> initial = start_in(2, 0);
  const std::vector<std::vector<double>> rewards = {{1.0, 0.0}, {0.0, 1.0}};
  std::vector<double> empty_batch;
  std::vector<double> zero_horizon;
  const uint64_t products = products_of([&] {
    empty_batch = expected_cumulative_rewards(stage, initial, {}, 1.0);
    zero_horizon = expected_cumulative_rewards(stage, initial, rewards, 0.0);
  });
  EXPECT_EQ(products, 0u);
  EXPECT_TRUE(empty_batch.empty());
  EXPECT_EQ(zero_horizon, (std::vector<double>{0.0, 0.0}));
  const std::vector<std::vector<double>> mismatched = {{1.0, 0.0}, {1.0}};
  EXPECT_THROW(expected_cumulative_rewards(stage, initial, mismatched, 1.0),
               std::invalid_argument);
}

TEST(CumulativeRewards, CancelHookStopsTheSweep) {
  // The hook is polled once per uniformization step; when it fires on the
  // N-th poll the sweep unwinds there with util::Cancelled.
  const Uniformized stage = uniformize(testing::figure3_chain());
  const std::vector<double> reward = {0.0, 0.0, 1.0};
  constexpr int kFireAt = 5;
  int polls = 0;
  TransientOptions options;
  options.cancelled = [&polls] { return ++polls == kFireAt; };
  EXPECT_THROW(expected_cumulative_reward(stage, start_in(3, 0), reward, 50.0, options),
               util::Cancelled);
  EXPECT_EQ(polls, kFireAt);
}

TEST(InstantaneousReward, MatchesTransientDistribution) {
  const double a = 2.0, b = 6.0, t = 0.4;
  const Ctmc chain = two_state(a, b);
  const double value =
      expected_instantaneous_reward(chain, start_in(2, 0), {0.0, 10.0}, t);
  EXPECT_NEAR(value, 10.0 * two_state_p1(a, b, t), 1e-10);
}

TEST(SteadyStateReward, TwoStateLongRunAverage) {
  const double a = 2.0, b = 6.0;
  const Ctmc chain = two_state(a, b);
  const double value = steady_state_reward(chain, start_in(2, 0), {1.0, 5.0});
  EXPECT_NEAR(value, 1.0 * 0.75 + 5.0 * 0.25, 1e-9);
}

TEST(ExpectedTimeFraction, PaperStyleExposureMetric) {
  // Fraction of a 1-year horizon spent "exploited" for a 2-state chain.
  const double a = 1.9, b = 52.0;
  const Ctmc chain = two_state(a, b);
  const double fraction =
      expected_time_fraction(chain, start_in(2, 0), {false, true}, 1.0);
  EXPECT_NEAR(fraction, two_state_occupancy1(a, b, 1.0), 1e-10);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, a / (a + b));  // below the stationary share within year 1
}

TEST(ExpectedTimeFraction, FullMaskIsOne) {
  const Ctmc chain = two_state(1.0, 2.0);
  EXPECT_NEAR(expected_time_fraction(chain, start_in(2, 0), {true, true}, 3.0), 1.0,
              1e-10);
}

TEST(ExpectedTimeFraction, RequiresPositiveHorizon) {
  const Ctmc chain = two_state(1.0, 2.0);
  EXPECT_THROW(expected_time_fraction(chain, start_in(2, 0), {true, true}, 0.0),
               std::invalid_argument);
}

TEST(CumulativeReward, Figure3ExposureConsistentWithLongRun) {
  // Over a long horizon the time fraction in s2 approaches the stationary
  // probability 0.000699 (Eq. 15).
  const Ctmc chain = testing::figure3_chain();
  const double fraction =
      expected_time_fraction(chain, start_in(3, 0), {false, false, true}, 200.0);
  EXPECT_NEAR(fraction, 0.000699, 2e-5);
}

class OccupancySweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(OccupancySweep, MatchesClosedFormAcrossRates) {
  const auto [eta, phi] = GetParam();
  const Ctmc chain = two_state(eta, phi);
  const double actual = expected_time_fraction(chain, start_in(2, 0), {false, true}, 1.0);
  EXPECT_NEAR(actual, two_state_occupancy1(eta, phi, 1.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRateGrid, OccupancySweep,
    ::testing::Combine(::testing::Values(0.1, 1.2, 1.9, 3.8, 12.0),
                       ::testing::Values(0.1, 4.0, 12.0, 52.0, 8760.0)));

}  // namespace
}  // namespace autosec::ctmc
