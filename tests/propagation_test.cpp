// Tests for the error-propagation analysis over detail traces (§3.3) and
// for the campaign-resume behaviour (Fig. 7 "restart").
#include <gtest/gtest.h>

#include "core/goofi.hpp"
#include "db/database.hpp"
#include "util/strings.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {
namespace {

class PropagationTest : public ::testing::Test {
 protected:
  PropagationTest() : store_(&db_), target_(&store_, &card_) {
    EXPECT_TRUE(store_
                    .PutTargetSystem(ThorRdTarget::DescribeTarget(
                        card_, ThorRdTarget::kTargetName))
                    .ok());
    CampaignData campaign;
    campaign.name = "prop";
    campaign.target_name = ThorRdTarget::kTargetName;
    campaign.workload = "fibonacci";
    campaign.locations = {{"internal_regfile", ""}};
    campaign.num_experiments = 12;
    campaign.inject_min_instr = 1;
    campaign.inject_max_instr = 80;
    campaign.timeout_cycles = 50000;
    EXPECT_TRUE(store_.PutCampaign(campaign).ok());
    EXPECT_TRUE(target_.FaultInjectorScifi("prop").ok());
    EXPECT_TRUE(target_.RerunDetailed(CampaignStore::ReferenceName("prop")).ok());
  }

  db::Database db_;
  CampaignStore store_;
  testcard::SimTestCard card_;
  ThorRdTarget target_;
};

TEST_F(PropagationTest, RequiresBothDetailTraces) {
  // Experiment trace missing.
  EXPECT_FALSE(AnalyzeErrorPropagation(store_, "prop/e0000").ok());
  ASSERT_TRUE(target_.RerunDetailed("prop/e0000").ok());
  EXPECT_TRUE(AnalyzeErrorPropagation(store_, "prop/e0000").ok());
}

TEST_F(PropagationTest, UnknownExperimentFails) {
  EXPECT_FALSE(AnalyzeErrorPropagation(store_, "prop/ghost").ok());
}

TEST_F(PropagationTest, EveryExperimentProducesConsistentReport) {
  for (int i = 0; i < 12; ++i) {
    const std::string name = util::Format("prop/e%04d", i);
    ASSERT_TRUE(target_.RerunDetailed(name).ok());
    const auto report = AnalyzeErrorPropagation(store_, name).ValueOrDie();
    EXPECT_GT(report.steps_compared, 0) << name;
    EXPECT_LE(report.diverged_steps, report.steps_compared) << name;
    if (report.first_divergence_step > 0) {
      EXPECT_LE(report.first_divergence_step, report.steps_compared) << name;
      EXPECT_GE(report.diverged_steps, 1) << name;
    } else {
      EXPECT_EQ(report.diverged_steps, 0) << name;
    }
    if (report.detection_step > 0 && report.first_divergence_step > 0) {
      EXPECT_GE(report.detection_latency_steps, 0) << name;
    }
    // The human-readable rendering never crashes and mentions the step count.
    EXPECT_NE(report.ToString().find("steps compared"), std::string::npos);
  }
}

TEST_F(PropagationTest, RegisterFaultDivergesVisiblyWhenEffective) {
  // Find an escaped experiment (wrong outputs): its trace must diverge.
  const auto reference = store_.GetExperiment("prop/ref").ValueOrDie();
  auto rows = store_.ExperimentsOf("prop").ValueOrDie();
  for (const auto& row : rows) {
    if (!row.parent_experiment.empty() ||
        row.experiment_name == reference.experiment_name) {
      continue;
    }
    const auto cls = Classify(reference.state, row.state);
    if (cls.outcome != Outcome::kEscaped) continue;
    ASSERT_TRUE(target_.RerunDetailed(row.experiment_name).ok());
    const auto report =
        AnalyzeErrorPropagation(store_, row.experiment_name).ValueOrDie();
    EXPECT_GT(report.first_divergence_step, 0) << row.experiment_name;
    return;
  }
  GTEST_SKIP() << "no escaped experiment in this campaign";
}

// --- campaign resume (Fig. 7: pause/restart) ---------------------------------

class ResumeTest : public ::testing::Test {
 protected:
  ResumeTest() : store_(&db_), target_(&store_, &card_) {
    EXPECT_TRUE(store_
                    .PutTargetSystem(ThorRdTarget::DescribeTarget(
                        card_, ThorRdTarget::kTargetName))
                    .ok());
    CampaignData campaign;
    campaign.name = "resume";
    campaign.target_name = ThorRdTarget::kTargetName;
    campaign.workload = "bubblesort";
    campaign.locations = {{"internal_regfile", ""}};
    campaign.num_experiments = 20;
    campaign.timeout_cycles = 100000;
    EXPECT_TRUE(store_.PutCampaign(campaign).ok());
  }

  db::Database db_;
  CampaignStore store_;
  testcard::SimTestCard card_;
  ThorRdTarget target_;
};

TEST_F(ResumeTest, RestartedCampaignSkipsLoggedExperiments) {
  CountingMonitor stopper(/*limit=*/8);
  target_.SetProgressMonitor(&stopper);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  target_.SetProgressMonitor(nullptr);
  EXPECT_EQ(target_.stats().experiments_run, 8);

  // Restart: the first 8 (plus the reference) are kept, 12 more run.
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  EXPECT_EQ(target_.stats().experiments_resumed, 8);
  EXPECT_EQ(target_.stats().experiments_run, 12);

  const auto report = AnalyzeCampaign(store_, "resume").ValueOrDie();
  EXPECT_EQ(report.total, 20);
}

TEST_F(ResumeTest, ResumedExperimentsMatchUninterruptedRun) {
  // Run interrupted + resumed, then compare against a one-shot campaign with
  // the same seed: the logged fault lists must be identical.
  CountingMonitor stopper(5);
  target_.SetProgressMonitor(&stopper);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  target_.SetProgressMonitor(nullptr);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());

  CampaignData oneshot = store_.GetCampaign("resume").ValueOrDie();
  oneshot.name = "oneshot";
  ASSERT_TRUE(store_.PutCampaign(oneshot).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("oneshot").ok());

  for (int i = 0; i < 20; ++i) {
    const auto a =
        store_.GetExperiment(util::Format("resume/e%04d", i)).ValueOrDie();
    const auto b =
        store_.GetExperiment(util::Format("oneshot/e%04d", i)).ValueOrDie();
    EXPECT_EQ(a.experiment_data, b.experiment_data) << i;
    EXPECT_EQ(a.state.Serialize(), b.state.Serialize()) << i;
  }
}

TEST_F(ResumeTest, MalformedLoggedRowCountsAsResumed) {
  CountingMonitor stopper(/*limit=*/3);
  target_.SetProgressMonitor(&stopper);
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  target_.SetProgressMonitor(nullptr);
  ASSERT_TRUE(store_.statement_cache()
                  .Execute(db_,
                           "UPDATE LoggedSystemState SET stateVector = 'garbage' "
                           "WHERE experimentName = 'resume/e0001'")
                  .ok());

  // The row is logged, so the resume skips it instead of re-running it into
  // a duplicate key; the analysis then reports the damaged row.
  const util::Status resumed = target_.FaultInjectorScifi("resume");
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  EXPECT_EQ(target_.stats().experiments_resumed, 3);
  EXPECT_EQ(target_.stats().experiments_run, 17);
  EXPECT_EQ(db_.GetTable("LoggedSystemState")->size(), 21u);
  const auto report = AnalyzeCampaign(store_, "resume");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(report.status().message().find("resume/e0001"), std::string::npos)
      << report.status().ToString();
}

TEST_F(ResumeTest, CompletedCampaignRerunIsANoOp) {
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("resume").ok());
  EXPECT_EQ(target_.stats().experiments_run, 0);
  EXPECT_EQ(target_.stats().experiments_resumed, 20);
}

}  // namespace
}  // namespace goofi::core
