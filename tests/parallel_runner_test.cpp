// Determinism and semantics tests for core::ParallelCampaignRunner.
//
// The headline property: a parallel campaign run leaves the database
// byte-identical to a serial FaultInjectionAlgorithms::RunCampaign of the
// same campaign — same LoggedSystemState rows (names, experimentData,
// stateVector), same insertion order, same Stats — at any worker count.
#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/goofi.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {
namespace {

CampaignData ScifiCampaign() {
  CampaignData campaign;
  campaign.name = "par_scifi";
  campaign.target_name = ThorRdTarget::kTargetName;
  campaign.technique = Technique::kScifi;
  campaign.num_experiments = 12;
  campaign.workload = "bubblesort";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 1000;
  campaign.timeout_cycles = 100000;
  return campaign;
}

/// One register-file cell, many experiments over a narrow window: on the
/// composed stack multi-member equivalence classes form, so the committer
/// synthesizes member rows.
CampaignData DenseScifiCampaign() {
  CampaignData campaign = ScifiCampaign();
  campaign.name = "par_dense";
  campaign.locations = {{"internal_regfile", "regfile.r2"}};
  campaign.num_experiments = 24;
  campaign.inject_max_instr = 400;
  return campaign;
}

CampaignData SwifiCampaign() {
  CampaignData campaign;
  campaign.name = "par_swifi";
  campaign.target_name = SwifiSimTarget::kTargetName;
  campaign.technique = Technique::kSwifiPreRuntime;
  campaign.num_experiments = 12;
  campaign.workload = "fibonacci";
  campaign.locations = {{"memory.text", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 500;
  campaign.timeout_cycles = 100000;
  return campaign;
}

/// Everything a run leaves behind that determinism is asserted over.
struct RunResult {
  util::Status status;
  std::vector<CampaignStore::ExperimentRow> rows;  ///< insertion order
  FaultInjectionAlgorithms::Stats stats;
  std::string db_bytes;  ///< the Save() file, CRC trailer and all
  int64_t synthesized = 0;  ///< equivalence-class members synthesized
};

/// One self-contained session: fresh database + store + registered target.
struct Session {
  db::Database db;
  CampaignStore store;

  explicit Session(const CampaignData& campaign) : store(&db) {
    if (campaign.target_name == ThorRdTarget::kTargetName) {
      testcard::SimTestCard card;
      EXPECT_TRUE(store
                      .PutTargetSystem(ThorRdTarget::DescribeTarget(
                          card, ThorRdTarget::kTargetName))
                      .ok());
    } else {
      EXPECT_TRUE(store.PutTargetSystem(SwifiSimTarget::Describe()).ok());
    }
    EXPECT_TRUE(store.PutCampaign(campaign).ok());
  }

  RunResult Snapshot(util::Status status,
                     const FaultInjectionAlgorithms::Stats& stats,
                     const std::string& campaign_name) {
    RunResult result;
    result.status = std::move(status);
    result.stats = stats;
    auto rows = store.ExperimentsOf(campaign_name);
    if (rows.ok()) result.rows = std::move(rows).value();
    const std::string path =
        testing::TempDir() + "goofi_parallel_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".db";
    EXPECT_TRUE(db.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    result.db_bytes = buf.str();
    std::remove(path.c_str());
    return result;
  }
};

ParallelCampaignRunner::TargetFactory FactoryFor(const CampaignData& campaign,
                                                 CampaignStore* store) {
  return campaign.target_name == ThorRdTarget::kTargetName
             ? MakeSimThorFactory(store)
             : MakeSwifiSimFactory(store);
}

RunResult RunSerial(const CampaignData& campaign,
                    ProgressMonitor* monitor = nullptr) {
  Session session(campaign);
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    target.SetProgressMonitor(monitor);
    return session.Snapshot(target.RunCampaign(campaign.name), target.stats(),
                            campaign.name);
  }
  SwifiSimTarget target(&session.store);
  target.SetProgressMonitor(monitor);
  return session.Snapshot(target.RunCampaign(campaign.name), target.stats(),
                          campaign.name);
}

/// The dispatch-loop tests run twice: on the plain runner, where every
/// pending experiment is its own unit of work, and on the composed stack
/// (warm start + convergence pruning + equivalence classing with an access
/// timeline), where each equivalence class is one unit.
constexpr bool kBothPaths[] = {false, true};

void Compose(ParallelCampaignRunner& runner, const CampaignData& campaign) {
  runner.SetForceWarmStart(true);
  runner.SetConvergencePruning(true);
  runner.SetEquivalenceClassing(true);
  runner.SetEquivalenceTimeline(
      LivenessAnalyzer::Build(
          campaign.workload, cpu::CpuConfig(),
          std::max<uint64_t>(200000, campaign.timeout_cycles),
          campaign.max_iterations)
          .ValueOrDie());
}

RunResult RunParallel(const CampaignData& campaign, int workers,
                      int batch_rows = 0, ProgressMonitor* monitor = nullptr,
                      bool composed = false) {
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                FactoryFor(campaign, &session.store), workers);
  if (batch_rows > 0) runner.SetCommitBatchRows(batch_rows);
  runner.SetProgressMonitor(monitor);
  if (composed) Compose(runner, campaign);
  RunResult result = session.Snapshot(runner.Run(campaign.name),
                                      runner.stats(), campaign.name);
  result.synthesized = runner.dedup_stats().experiments_synthesized;
  return result;
}

void ExpectIdentical(const RunResult& serial, const RunResult& parallel) {
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].experiment_name, parallel.rows[i].experiment_name)
        << "row " << i << " out of order";
    EXPECT_EQ(serial.rows[i].parent_experiment,
              parallel.rows[i].parent_experiment);
    EXPECT_EQ(serial.rows[i].experiment_data, parallel.rows[i].experiment_data);
    EXPECT_EQ(serial.rows[i].state.Serialize(),
              parallel.rows[i].state.Serialize());
  }
  EXPECT_EQ(serial.stats, parallel.stats);
  EXPECT_EQ(serial.db_bytes, parallel.db_bytes)
      << "database files must be byte-identical";
}

TEST(ParallelRunnerTest, ScifiMatchesSerialAtEveryWorkerCount) {
  const CampaignData campaign = ScifiCampaign();
  const RunResult serial = RunSerial(campaign);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectIdentical(serial, RunParallel(campaign, workers));
  }
}

TEST(ParallelRunnerTest, SwifiPreRuntimeMatchesSerialAtEveryWorkerCount) {
  const CampaignData campaign = SwifiCampaign();
  const RunResult serial = RunSerial(campaign);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectIdentical(serial, RunParallel(campaign, workers));
  }
}

TEST(ParallelRunnerTest, CommitBatchSizeDoesNotAffectContents) {
  const CampaignData campaign = DenseScifiCampaign();
  const RunResult serial = RunSerial(campaign);
  for (bool composed : kBothPaths) {
    SCOPED_TRACE(composed ? "composed" : "plain");
    const RunResult small =
        RunParallel(campaign, 4, /*batch_rows=*/1, nullptr, composed);
    ExpectIdentical(serial, small);
    ExpectIdentical(serial, RunParallel(campaign, 4, /*batch_rows=*/1000,
                                        nullptr, composed));
    if (composed) {
      EXPECT_GT(small.synthesized, 0) << "no class formed";
    }
  }
}

TEST(ParallelRunnerTest, DetailModeRowsCommitInOrder) {
  CampaignData campaign = ScifiCampaign();
  campaign.name = "par_detail";
  campaign.log_mode = LogMode::kDetail;
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 200;
  const RunResult serial = RunSerial(campaign);
  // Detail rows reference their main row via parentExperiment — the batched
  // insert path must resolve those intra-batch foreign keys.
  ASSERT_GT(serial.rows.size(), 4u) << "expected detail rows";
  ExpectIdentical(serial, RunParallel(campaign, 2));
}

TEST(ParallelRunnerTest, ResumeSkipsLoggedExperimentsAndCompletesCampaign) {
  const CampaignData campaign = DenseScifiCampaign();

  // A full serial run is the reference picture.
  const RunResult full = RunSerial(campaign);

  for (bool composed : kBothPaths) {
    SCOPED_TRACE(composed ? "composed" : "plain");
    // Serially run the first 5 experiments, then let the parallel runner
    // resume the rest in the same session.
    Session session(campaign);
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    CountingMonitor stopper(/*limit=*/5);
    target.SetProgressMonitor(&stopper);
    ASSERT_TRUE(target.RunCampaign(campaign.name).ok());
    ASSERT_EQ(target.stats().experiments_run, 5);

    ParallelCampaignRunner runner(&session.store,
                                  MakeSimThorFactory(&session.store), 3);
    if (composed) Compose(runner, campaign);
    const RunResult resumed = session.Snapshot(runner.Run(campaign.name),
                                               runner.stats(), campaign.name);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
    EXPECT_EQ(resumed.stats.experiments_resumed, 5);
    EXPECT_EQ(resumed.stats.experiments_run, campaign.num_experiments - 5);
    EXPECT_EQ(full.db_bytes, resumed.db_bytes);
  }
}

TEST(ParallelRunnerTest, ResumeCountsMalformedLoggedRowAsDone) {
  const CampaignData campaign = DenseScifiCampaign();
  const std::string damaged = CampaignStore::ExperimentName(campaign.name, 1);
  for (bool composed : kBothPaths) {
    SCOPED_TRACE(composed ? "composed" : "plain");
    Session session(campaign);
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    CountingMonitor stopper(/*limit=*/3);
    target.SetProgressMonitor(&stopper);
    ASSERT_TRUE(target.RunCampaign(campaign.name).ok());
    ASSERT_TRUE(session.store.statement_cache()
                    .Execute(session.db,
                             "UPDATE LoggedSystemState SET stateVector = "
                             "'garbage' WHERE experimentName = ?",
                             {db::Value::Text(damaged)})
                    .ok());

    ParallelCampaignRunner runner(&session.store,
                                  MakeSimThorFactory(&session.store), 3);
    if (composed) Compose(runner, campaign);
    const util::Status resumed = runner.Run(campaign.name);
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    EXPECT_EQ(runner.stats().experiments_resumed, 3);
    EXPECT_EQ(runner.stats().experiments_run, campaign.num_experiments - 3);
    EXPECT_EQ(session.db.GetTable("LoggedSystemState")->size(),
              static_cast<size_t>(campaign.num_experiments + 1));
    const auto report = AnalyzeCampaign(session.store, campaign.name);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kParseError);
    EXPECT_NE(report.status().message().find(damaged), std::string::npos)
        << report.status().ToString();
  }
}

/// Records the state handed over with every progress callback.
class RecordingMonitor final : public ProgressMonitor {
 public:
  bool OnExperiment(int done, int, const LoggedState& last) override {
    states.emplace_back(done, last);
    return true;
  }
  std::vector<std::pair<int, LoggedState>> states;
};

/// Each callback's state equals the logged row of that experiment, as the
/// store reads it back.
void ExpectMonitorSawLoggedStates(const RecordingMonitor& monitor,
                                  const RunResult& result,
                                  const CampaignData& campaign) {
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(monitor.states.size(),
            static_cast<size_t>(campaign.num_experiments));
  for (const auto& [done, state] : monitor.states) {
    const std::string name = CampaignStore::ExperimentName(campaign.name, done - 1);
    const auto row = std::find_if(
        result.rows.begin(), result.rows.end(),
        [&name](const CampaignStore::ExperimentRow& r) {
          return r.experiment_name == name;
        });
    ASSERT_NE(row, result.rows.end()) << name;
    EXPECT_EQ(state, row->state) << name;
  }
}

TEST(ParallelRunnerTest, MonitorReceivesTheLoggedState) {
  for (const CampaignData& campaign : {DenseScifiCampaign(), SwifiCampaign()}) {
    SCOPED_TRACE(campaign.name);
    RecordingMonitor serial_monitor;
    ExpectMonitorSawLoggedStates(serial_monitor,
                                 RunSerial(campaign, &serial_monitor), campaign);
    for (bool composed : kBothPaths) {
      SCOPED_TRACE(composed ? "composed" : "plain");
      RecordingMonitor monitor;
      ExpectMonitorSawLoggedStates(
          monitor, RunParallel(campaign, 3, /*batch_rows=*/0, &monitor, composed),
          campaign);
    }
  }
}

TEST(ParallelRunnerTest, EarlyStopMatchesSeriallyStoppedRun) {
  const CampaignData campaign = DenseScifiCampaign();
  CountingMonitor serial_stopper(/*limit=*/4);
  const RunResult serial = RunSerial(campaign, &serial_stopper);
  for (bool composed : kBothPaths) {
    SCOPED_TRACE(composed ? "composed" : "plain");
    CountingMonitor parallel_stopper(/*limit=*/4);
    const RunResult parallel = RunParallel(campaign, 4, /*batch_rows=*/0,
                                           &parallel_stopper, composed);
    EXPECT_EQ(parallel_stopper.calls(), 4);
    ExpectIdentical(serial, parallel);
    EXPECT_EQ(parallel.stats.experiments_run, 4);
  }
}

TEST(ParallelRunnerTest, ProgressCallbacksArriveInExperimentOrder) {
  class OrderMonitor final : public ProgressMonitor {
   public:
    bool OnExperiment(int done, int, const LoggedState&) override {
      ordered_ = ordered_ && done == last_ + 1;
      last_ = done;
      return true;
    }
    bool ordered() const { return ordered_; }
    int last() const { return last_; }

   private:
    bool ordered_ = true;
    int last_ = 0;
  };
  const CampaignData campaign = DenseScifiCampaign();
  for (bool composed : kBothPaths) {
    SCOPED_TRACE(composed ? "composed" : "plain");
    OrderMonitor monitor;
    const RunResult result =
        RunParallel(campaign, 8, /*batch_rows=*/0, &monitor, composed);
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(monitor.ordered());
    EXPECT_EQ(monitor.last(), campaign.num_experiments);
  }
}

TEST(ParallelRunnerTest, UnknownCampaignFails) {
  CampaignData campaign = ScifiCampaign();
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                MakeSimThorFactory(&session.store), 2);
  EXPECT_FALSE(runner.Run("ghost").ok());
}

TEST(ParallelRunnerTest, BadLocationSelectorFailsBeforeDispatch) {
  CampaignData campaign = ScifiCampaign();
  campaign.name = "par_bad";
  campaign.locations = {{"no_such_chain", ""}};
  Session session(campaign);
  ParallelCampaignRunner runner(&session.store,
                                MakeSimThorFactory(&session.store), 2);
  EXPECT_FALSE(runner.Run(campaign.name).ok());
}

TEST(ParallelRunnerTest, LivenessFilterStatsMatchSerial) {
  // r9 is dead at many draws and still forms classes.
  CampaignData campaign = DenseScifiCampaign();
  campaign.locations = {{"internal_regfile", "regfile.r9"}};
  auto analyzer =
      LivenessAnalyzer::Build(campaign.workload, cpu::CpuConfig()).ValueOrDie();

  Session serial_session(campaign);
  testcard::SimTestCard card;
  ThorRdTarget target(&serial_session.store, &card);
  target.SetLivenessFilter(analyzer->MakeFilter());
  const RunResult serial = serial_session.Snapshot(
      target.RunCampaign(campaign.name), target.stats(), campaign.name);

  ASSERT_TRUE(serial.stats.injections_skipped_dead > 0);
  for (bool composed : kBothPaths) {
    SCOPED_TRACE(composed ? "composed" : "plain");
    Session parallel_session(campaign);
    ParallelCampaignRunner runner(&parallel_session.store,
                                  MakeSimThorFactory(&parallel_session.store),
                                  4);
    runner.SetLivenessFilter(analyzer->MakeFilter());
    if (composed) Compose(runner, campaign);
    const RunResult parallel = parallel_session.Snapshot(
        runner.Run(campaign.name), runner.stats(), campaign.name);
    ExpectIdentical(serial, parallel);
    if (composed) {
      EXPECT_GT(runner.dedup_stats().experiments_synthesized, 0);
    }
  }
}

}  // namespace
}  // namespace goofi::core
