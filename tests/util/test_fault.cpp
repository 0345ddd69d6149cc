#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace autosec::util::fault {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm_all(); }
  void TearDown() override {
    disarm_all();
    set_accounting(false);
  }
};

TEST_F(FaultTest, DisarmedSiteNeverTriggers) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(triggered("explore.alloc"));
  }
}

TEST_F(FaultTest, ArmedSiteFiresExactlyOnceThenSelfDisarms) {
  arm_site("explore.alloc");
  EXPECT_TRUE(triggered("explore.alloc"));
  // One-shot: the fault was absorbed; later visits pass clean.
  EXPECT_FALSE(triggered("explore.alloc"));
  EXPECT_FALSE(triggered("explore.alloc"));
}

TEST_F(FaultTest, NthVisitSemantics) {
  arm_site("krylov.breakdown", 3);
  EXPECT_FALSE(triggered("krylov.breakdown"));
  EXPECT_FALSE(triggered("krylov.breakdown"));
  EXPECT_TRUE(triggered("krylov.breakdown"));
  EXPECT_FALSE(triggered("krylov.breakdown"));
}

TEST_F(FaultTest, OnlyTheArmedSiteFires) {
  arm_site("uniformize.alloc");
  EXPECT_FALSE(triggered("explore.alloc"));
  EXPECT_FALSE(triggered("solve.cancel"));
  EXPECT_TRUE(triggered("uniformize.alloc"));
}

TEST_F(FaultTest, RearmingResetsVisitCounter) {
  arm_site("gauss_seidel.diverge", 2);
  EXPECT_FALSE(triggered("gauss_seidel.diverge"));  // visit 1
  arm_site("gauss_seidel.diverge", 2);              // reset: next visit is 1 again
  EXPECT_FALSE(triggered("gauss_seidel.diverge"));
  EXPECT_TRUE(triggered("gauss_seidel.diverge"));
}

TEST_F(FaultTest, SpecParsing) {
  arm("explore.alloc,krylov.breakdown:2");
  EXPECT_TRUE(triggered("explore.alloc"));
  EXPECT_FALSE(triggered("krylov.breakdown"));
  EXPECT_TRUE(triggered("krylov.breakdown"));
}

TEST_F(FaultTest, BadSpecsThrow) {
  EXPECT_THROW(arm("no.such.site"), std::invalid_argument);
  EXPECT_THROW(arm("explore.alloc:0"), std::invalid_argument);
  EXPECT_THROW(arm("explore.alloc:potato"), std::invalid_argument);
  // An empty spec (AUTOSEC_FAULT= in the environment) is a no-op, not an
  // error: nothing is armed.
  EXPECT_NO_THROW(arm(""));
  EXPECT_FALSE(triggered("explore.alloc"));
}

TEST_F(FaultTest, KnownSitesAreNonEmptyAndArmable) {
  const std::vector<std::string>& sites = known_sites();
  ASSERT_FALSE(sites.empty());
  for (const std::string& site : sites) {
    arm_site(site);
    EXPECT_TRUE(triggered(site.c_str())) << site;
  }
}

TEST_F(FaultTest, AccountingCountsPolls) {
  set_accounting(true);
  reset_poll_count();
  const uint64_t before = poll_count();
  triggered("explore.alloc");
  triggered("explore.alloc");
  triggered("uniformize.alloc");
  EXPECT_EQ(poll_count() - before, 3u);
  set_accounting(false);
}

}  // namespace
}  // namespace autosec::util::fault
