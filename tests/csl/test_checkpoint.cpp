// Crash-durable solves (csl/checkpoint.hpp): the ledger round-trips doubles
// bit-exactly through its snapshot file, every fault-safepoint interruption
// resumes to results bit-identical with an uninterrupted run (ctmc and mdp),
// corruption degrades to cold recomputation (never a wrong answer), and a
// changed job identity or changed stage identity misses instead of replaying
// stale values.
#include "csl/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "csl/session.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/parser.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace autosec::csl {
namespace {

namespace fs = std::filesystem;
using symbolic::Expr;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::disarm_all();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("autosec_checkpoint_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    util::fault::disarm_all();
    fs::remove_all(dir_);
  }

  CheckpointOptions options(const std::string& identity = "job-1") const {
    CheckpointOptions out;
    out.dir = dir_.string();
    out.identity = identity;
    out.interval_ms = 0;  // persist on every record — what resume tests need
    return out;
  }

  fs::path dir_;
};

/// A one-thread pool for the scope: check_all then solves in input order, so
/// a fault armed at the n-th solve interrupts deterministically.
struct OneThreadPool {
  OneThreadPool() { util::set_thread_count(1); }
  ~OneThreadPool() { util::set_thread_count(0); }
};

symbolic::Model repair_model() {
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(1),
                       Expr::literal(1.0));
  builder.state_reward("uptime", Expr::ident("x") == Expr::literal(0),
                       Expr::literal(1.0));
  return builder.build();
}

const std::vector<std::string> kCtmcProperties = {
    "P=? [ F<=0.5 \"broken\" ]",
    "P=? [ F \"broken\" ]",
    "S=? [ \"broken\" ]",
    "R{\"downtime\"}=? [ C<=1 ]",
};

constexpr const char* kMdpModel = R"(mdp

module coin
  x : [0..2] init 0;
  [safe] x=0 -> 1:(x'=0);
  [risky] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [go] x=1 -> 1:(x'=2);
endmodule

label "done" = x=2;
)";

const std::vector<std::string> kMdpProperties = {
    "Pmax=? [ F \"done\" ]",
    "Pmin=? [ F \"done\" ]",
};

TEST_F(CheckpointTest, LedgerRoundTripsDoublesBitExactly) {
  const std::vector<double> values = {
      0.1, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
      std::nextafter(1.0, 2.0)};
  {
    CheckpointLedger ledger(options());
    for (size_t i = 0; i < values.size(); ++i) {
      ledger.record("k" + std::to_string(i), values[i]);
    }
    ledger.flush();
  }
  CheckpointLedger resumed(options());
  EXPECT_EQ(resumed.load(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    double recovered = 0.0;
    ASSERT_TRUE(resumed.lookup("k" + std::to_string(i), &recovered));
    // Bitwise, not approximate: signed zeros and denormals must survive.
    uint64_t a, b;
    std::memcpy(&a, &values[i], sizeof(a));
    std::memcpy(&b, &recovered, sizeof(b));
    EXPECT_EQ(a, b) << "k" << i;
  }
  EXPECT_FALSE(resumed.lookup("absent", nullptr));
  EXPECT_EQ(resumed.resumed_hits(), values.size());
}

TEST_F(CheckpointTest, DifferentIdentitiesKeepSeparateSnapshots) {
  {
    CheckpointLedger ledger(options("job-a"));
    ledger.record("k", 1.0);
    ledger.flush();
  }
  CheckpointLedger other(options("job-b"));
  EXPECT_EQ(other.load(), 0u) << "a different job identity must resume cold";
}

TEST_F(CheckpointTest, CorruptSnapshotResumesColdAndIsUnlinked) {
  std::string path;
  {
    CheckpointLedger ledger(options());
    ledger.record("k", 0.25);
    ledger.flush();
    path = ledger.path();
  }
  ASSERT_TRUE(fs::exists(path));
  std::ofstream(path, std::ios::trunc) << "garbage, not a snapshot\n";
  CheckpointLedger resumed(options());
  EXPECT_EQ(resumed.load(), 0u);
  EXPECT_FALSE(fs::exists(path)) << "invalid snapshots are unlinked";
}

TEST_F(CheckpointTest, TamperedPayloadFailsTheDigestAndResumesCold) {
  std::string path;
  {
    CheckpointLedger ledger(options());
    ledger.record("k", 0.25);
    ledger.flush();
    path = ledger.path();
  }
  std::ifstream in(path);
  std::string header, identity, payload_digest, payload;
  std::getline(in, header);
  std::getline(in, identity);
  std::getline(in, payload_digest);
  std::getline(in, payload);
  in.close();
  // Flip a recorded bit but keep the format shape: the payload digest
  // mismatch must reject the whole snapshot.
  payload[payload.find(':') + 2] ^= 1;
  std::ofstream(path, std::ios::trunc)
      << header << "\n" << identity << "\n" << payload_digest << "\n"
      << payload << "\n";
  CheckpointLedger resumed(options());
  EXPECT_EQ(resumed.load(), 0u);
}

/// Interrupt a ctmc batch at every solve-stage safepoint, then resume: the
/// resumed run must replay the already-recorded solves and produce values
/// bit-identical with an uninterrupted run.
TEST_F(CheckpointTest, CtmcResumeAfterSolveCancelIsBitIdentical) {
  EngineSession reference(repair_model());
  const std::vector<double> fresh = reference.check_all(kCtmcProperties);

  for (uint64_t interrupt_at = 1; interrupt_at <= kCtmcProperties.size();
       ++interrupt_at) {
    const std::string identity = "ctmc-" + std::to_string(interrupt_at);
    {
      auto ledger = std::make_shared<CheckpointLedger>(options(identity));
      ledger->load();
      const OneThreadPool serial;  // deterministic interrupt
      EngineSession session(repair_model());
      session.set_checkpoint(ledger);
      util::fault::arm_site("solve.cancel", interrupt_at);
      EXPECT_THROW(session.check_all(kCtmcProperties), util::Cancelled);
      util::fault::disarm_all();
    }
    auto resumed = std::make_shared<CheckpointLedger>(options(identity));
    EXPECT_EQ(resumed->load(), interrupt_at - 1)
        << "solves finished before the interrupt were persisted";
    EngineSession session(repair_model());
    session.set_checkpoint(resumed);
    const std::vector<double> values = session.check_all(kCtmcProperties);
    ASSERT_EQ(values.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(values[i], fresh[i]) << kCtmcProperties[i];
    }
    EXPECT_EQ(resumed->resumed_hits(), interrupt_at - 1);
  }
}

/// The same contract for the members of a shared cumulative-reward pass:
/// each member passes its own solve safepoint, in input order, before its
/// value is recorded, so an interrupt at the n-th visit still leaves n−1
/// records and the resume replays them bit-identically.
TEST_F(CheckpointTest, GroupedCumulativeRewardsResumeBitIdentically) {
  const std::vector<std::string> properties = {
      "R{\"downtime\"}=? [ C<=1 ]", "P=? [ F<=0.5 \"broken\" ]",
      "R{\"uptime\"}=? [ C<=1 ]",   "R{\"downtime\"}=? [ C<=2 ]",
      "R{\"uptime\"}=? [ C<=2 ]",   "S=? [ \"broken\" ]",
  };
  EngineSession reference(repair_model());
  const std::vector<double> fresh = reference.check_all(properties);

  for (uint64_t interrupt_at = 1; interrupt_at <= properties.size(); ++interrupt_at) {
    const std::string identity = "grouped-" + std::to_string(interrupt_at);
    {
      auto ledger = std::make_shared<CheckpointLedger>(options(identity));
      ledger->load();
      const OneThreadPool serial;  // deterministic interrupt
      EngineSession session(repair_model());
      session.set_checkpoint(ledger);
      util::fault::arm_site("solve.cancel", interrupt_at);
      EXPECT_THROW(session.check_all(properties), util::Cancelled);
      util::fault::disarm_all();
    }
    auto resumed = std::make_shared<CheckpointLedger>(options(identity));
    EXPECT_EQ(resumed->load(), interrupt_at - 1)
        << "solves finished before the interrupt were persisted";
    EngineSession session(repair_model());
    session.set_checkpoint(resumed);
    const std::vector<double> values = session.check_all(properties);
    ASSERT_EQ(values.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(values[i], fresh[i]) << properties[i];
    }
    EXPECT_EQ(resumed->resumed_hits(), interrupt_at - 1);
  }
}

/// Same resume contract for the mdp model family (value iteration).
TEST_F(CheckpointTest, MdpResumeAfterSolveCancelIsBitIdentical) {
  EngineSession reference(symbolic::parse_model(kMdpModel));
  const std::vector<double> fresh = reference.check_all(kMdpProperties);

  const std::string identity = "mdp-resume";
  {
    auto ledger = std::make_shared<CheckpointLedger>(options(identity));
    ledger->load();
    const OneThreadPool serial;
    EngineSession session(symbolic::parse_model(kMdpModel));
    session.set_checkpoint(ledger);
    util::fault::arm_site("solve.cancel", 2);  // first property lands
    EXPECT_THROW(session.check_all(kMdpProperties), util::Cancelled);
    util::fault::disarm_all();
  }
  auto resumed = std::make_shared<CheckpointLedger>(options(identity));
  EXPECT_EQ(resumed->load(), 1u);
  EngineSession session(symbolic::parse_model(kMdpModel));
  session.set_checkpoint(resumed);
  const std::vector<double> values = session.check_all(kMdpProperties);
  ASSERT_EQ(values.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(values[i], fresh[i]) << kMdpProperties[i];
  }
  EXPECT_EQ(resumed->resumed_hits(), 1u);
}

/// Interrupts below the solve stage (exploration, uniformization) leave no
/// records — nothing was solved — and the resume recomputes everything to
/// the same values.
TEST_F(CheckpointTest, StageFailuresBeforeAnySolveResumeCold) {
  EngineSession reference(repair_model());
  const std::vector<double> fresh = reference.check_all(kCtmcProperties);

  for (const char* site : {"explore.alloc", "uniformize.alloc"}) {
    const std::string identity = std::string("stage-") + site;
    {
      auto ledger = std::make_shared<CheckpointLedger>(options(identity));
      ledger->load();
      EngineSession session(repair_model());
      session.set_checkpoint(ledger);
      util::fault::arm_site(site);
      EXPECT_THROW(session.check_all(kCtmcProperties), std::exception) << site;
      util::fault::disarm_all();
    }
    auto resumed = std::make_shared<CheckpointLedger>(options(identity));
    EXPECT_EQ(resumed->load(), 0u) << site;
    EngineSession session(repair_model());
    session.set_checkpoint(resumed);
    const std::vector<double> values = session.check_all(kCtmcProperties);
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(values[i], fresh[i]) << site << ": " << kCtmcProperties[i];
    }
  }
}

/// The record key folds in the stage identity (state/transition counts), so
/// a snapshot taken against a different model misses instead of replaying a
/// wrong answer — even under the same job identity.
TEST_F(CheckpointTest, ChangedStateSpaceMissesInsteadOfReplayingStaleValues) {
  {
    auto ledger = std::make_shared<CheckpointLedger>(options("shared"));
    ledger->load();
    EngineSession session(repair_model());
    session.set_checkpoint(ledger);
    session.check_all(kCtmcProperties);
  }

  // A 3-state variant: same property texts, different state space.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(1.0),
            {{"x", Expr::literal(2)}});
  m.command(Expr::ident("x") == Expr::literal(2), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(2));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(2),
                       Expr::literal(1.0));

  const symbolic::Model variant = builder.build();
  EngineSession plain(variant);
  const std::vector<double> expected = plain.check_all(kCtmcProperties);

  auto resumed = std::make_shared<CheckpointLedger>(options("shared"));
  EXPECT_GT(resumed->load(), 0u);
  EngineSession session(variant);
  session.set_checkpoint(resumed);
  const std::vector<double> values = session.check_all(kCtmcProperties);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(values[i], expected[i]) << kCtmcProperties[i];
  }
  EXPECT_EQ(resumed->resumed_hits(), 0u)
      << "stale records must never replay against a changed state space";
}

}  // namespace
}  // namespace autosec::csl
