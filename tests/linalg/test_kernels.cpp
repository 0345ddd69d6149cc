// Property tests for the hardware-speed solve kernels: the SELL-C-σ blocked
// layout must be bit-identical to the CSR reference at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/sell_matrix.hpp"
#include "util/parallel.hpp"

namespace autosec::linalg {
namespace {

/// Seeded random sparse matrix with irregular row lengths, including empty
/// rows (every kernel must predicate on true length, not chunk width).
CsrMatrix random_matrix(uint64_t seed, size_t rows, size_t cols,
                        double density) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  CsrBuilder builder(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    if (coin(rng) < 0.15) continue;  // empty row
    for (size_t c = 0; c < cols; ++c) {
      if (coin(rng) < density) builder.add(r, c, value(rng));
    }
  }
  return std::move(builder).build();
}

std::vector<double> random_vector(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = value(rng);
  return v;
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

TEST(SellMatrix, BitIdenticalToCsrAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Sizes straddle the chunk (8) and sort-window (64) boundaries.
  for (const size_t n : {1u, 5u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    const CsrMatrix A = random_matrix(1000 + n, n, n, 0.2);
    const SellMatrix sell(A);
    EXPECT_EQ(sell.rows(), A.rows());
    EXPECT_EQ(sell.nonzeros(), A.nonzeros());

    const std::vector<double> x = random_vector(7 * n + 1, n);
    std::vector<double> reference(n, 0.0);
    util::set_thread_count(1);
    A.right_multiply(x, reference);

    for (const size_t threads : {1u, 4u, 8u}) {
      util::set_thread_count(threads);
      std::vector<double> y(n, -1.0);
      sell.right_multiply(x, y);
      for (size_t i = 0; i < n; ++i) {
        // Bitwise: the contract is exact equality, not closeness.
        EXPECT_EQ(y[i], reference[i]) << "n=" << n << " threads=" << threads
                                      << " row=" << i;
      }
    }
  }
}

TEST(SellMatrix, EmptyMatrixAndSingleState) {
  const CsrMatrix empty(1, 1, {0, 0}, {}, {});
  const SellMatrix sell(empty);
  std::vector<double> y(1, 5.0);
  sell.right_multiply(std::vector<double>{3.0}, y);
  EXPECT_EQ(y[0], 0.0);

  CsrBuilder builder(1, 1);
  builder.add(0, 0, 0.25);
  const SellMatrix single(std::move(builder).build());
  single.right_multiply(std::vector<double>{4.0}, y);
  EXPECT_EQ(y[0], 1.0);
}

TEST(SellMatrix, ResolveLayoutIsAFunctionOfTheMatrixAlone) {
  const CsrMatrix small = random_matrix(3, 8, 8, 0.5);
  EXPECT_EQ(resolve_layout(MatrixLayout::kAuto, small), MatrixLayout::kCsr);
  EXPECT_EQ(resolve_layout(MatrixLayout::kBlocked, small), MatrixLayout::kBlocked);
  const CsrMatrix large = random_matrix(4, 128, 128, 0.4);
  ASSERT_GE(large.nonzeros(), 512u);
  EXPECT_EQ(resolve_layout(MatrixLayout::kAuto, large), MatrixLayout::kBlocked);
  EXPECT_EQ(resolve_layout(MatrixLayout::kCsr, large), MatrixLayout::kCsr);
}

TEST(KernelOptions, TokensRoundTrip) {
  EXPECT_EQ(parse_layout_token("blocked"), MatrixLayout::kBlocked);
  EXPECT_EQ(layout_token(MatrixLayout::kBlocked), "blocked");
  EXPECT_FALSE(parse_layout_token("fancy").has_value());
}

}  // namespace
}  // namespace autosec::linalg
