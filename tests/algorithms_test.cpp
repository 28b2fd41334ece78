// End-to-end tests for the fault-injection algorithms (paper Fig. 2) driving
// the simulated Thor RD target.
#include <gtest/gtest.h>

#include "core/goofi.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {
namespace {

class AlgorithmsTest : public ::testing::Test {
 protected:
  AlgorithmsTest() : store_(&db_), target_(&store_, &card_) {
    EXPECT_TRUE(store_
                    .PutTargetSystem(ThorRdTarget::DescribeTarget(
                        card_, ThorRdTarget::kTargetName))
                    .ok());
  }

  CampaignData BaseCampaign(const std::string& name) {
    CampaignData campaign;
    campaign.name = name;
    campaign.target_name = ThorRdTarget::kTargetName;
    campaign.technique = Technique::kScifi;
    campaign.fault_model = FaultModelKind::kTransientBitFlip;
    campaign.num_experiments = 20;
    campaign.workload = "bubblesort";
    campaign.locations = {{"internal_regfile", ""}};
    campaign.inject_min_instr = 1;
    campaign.inject_max_instr = 1000;
    campaign.timeout_cycles = 100000;
    return campaign;
  }

  /// Non-detail experiment rows of a campaign, excluding the reference.
  std::vector<CampaignStore::ExperimentRow> MainRows(const std::string& name) {
    std::vector<CampaignStore::ExperimentRow> out;
    auto rows = store_.ExperimentsOf(name).ValueOrDie();
    for (auto& row : rows) {
      if (!row.parent_experiment.empty()) continue;
      if (row.experiment_name == CampaignStore::ReferenceName(name)) continue;
      out.push_back(std::move(row));
    }
    return out;
  }

  db::Database db_;
  CampaignStore store_;
  testcard::SimTestCard card_;
  ThorRdTarget target_;
};

TEST_F(AlgorithmsTest, ScifiCampaignLogsReferencePlusExperiments) {
  ASSERT_TRUE(store_.PutCampaign(BaseCampaign("c")).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("c").ok());
  EXPECT_TRUE(store_.GetExperiment("c/ref").ok());
  EXPECT_EQ(MainRows("c").size(), 20u);
  EXPECT_EQ(target_.stats().experiments_run, 20);
}

TEST_F(AlgorithmsTest, ReferenceRunIsFaultFreeAndHalts) {
  ASSERT_TRUE(store_.PutCampaign(BaseCampaign("c")).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("c").ok());
  const auto reference = store_.GetExperiment("c/ref").ValueOrDie();
  EXPECT_TRUE(reference.state.halted);
  EXPECT_FALSE(reference.state.detected);
  ASSERT_EQ(reference.state.outputs.size(), 1u);
  EXPECT_EQ(reference.state.outputs[0], 1881u) << "bubblesort checksum";
  EXPECT_NE(reference.experiment_data.find("faults="), std::string::npos);
}

TEST_F(AlgorithmsTest, CampaignIsDeterministicForFixedSeed) {
  CampaignData a = BaseCampaign("a");
  CampaignData b = BaseCampaign("b");
  b.name = "b";
  ASSERT_TRUE(store_.PutCampaign(a).ok());
  ASSERT_TRUE(store_.PutCampaign(b).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("a").ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("b").ok());
  const auto rows_a = MainRows("a");
  const auto rows_b = MainRows("b");
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].experiment_data, rows_b[i].experiment_data);
    EXPECT_EQ(rows_a[i].state.Serialize(), rows_b[i].state.Serialize());
  }
}

TEST_F(AlgorithmsTest, DifferentSeedsGiveDifferentFaultLists) {
  CampaignData a = BaseCampaign("a");
  CampaignData b = BaseCampaign("b");
  b.seed = a.seed + 1;
  ASSERT_TRUE(store_.PutCampaign(a).ok());
  ASSERT_TRUE(store_.PutCampaign(b).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("a").ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("b").ok());
  const auto rows_a = MainRows("a");
  const auto rows_b = MainRows("b");
  int differing = 0;
  for (size_t i = 0; i < rows_a.size(); ++i) {
    if (rows_a[i].experiment_data != rows_b[i].experiment_data) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST_F(AlgorithmsTest, ExperimentDataRecordsRequestedFaultCount) {
  CampaignData campaign = BaseCampaign("multi");
  campaign.faults_per_experiment = 3;
  campaign.num_experiments = 5;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("multi").ok());
  for (const auto& row : MainRows("multi")) {
    const std::string& data = row.experiment_data;
    const size_t faults = std::count(data.begin(), data.end(), '|') + 1;
    EXPECT_EQ(faults, 3u) << data;
  }
}

TEST_F(AlgorithmsTest, ProgressMonitorCanStopCampaign) {
  CampaignData campaign = BaseCampaign("stopped");
  campaign.num_experiments = 50;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  CountingMonitor monitor(/*limit=*/7);
  target_.SetProgressMonitor(&monitor);
  ASSERT_TRUE(target_.FaultInjectorScifi("stopped").ok());
  target_.SetProgressMonitor(nullptr);
  EXPECT_EQ(monitor.calls(), 7);
  EXPECT_EQ(MainRows("stopped").size(), 7u);
  EXPECT_EQ(monitor.last_total(), 50);
}

TEST_F(AlgorithmsTest, RunCampaignDispatchesOnStoredTechnique) {
  CampaignData campaign = BaseCampaign("swifi");
  campaign.technique = Technique::kSwifiPreRuntime;
  campaign.locations = {{"memory.text", ""}};
  campaign.num_experiments = 10;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.RunCampaign("swifi").ok());
  EXPECT_EQ(MainRows("swifi").size(), 10u);
}

TEST_F(AlgorithmsTest, SwifiPreRuntimeRejectsScanLocations) {
  CampaignData campaign = BaseCampaign("bad");
  campaign.technique = Technique::kSwifiPreRuntime;
  campaign.locations = {{"internal_regfile", ""}};
  campaign.num_experiments = 3;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  EXPECT_FALSE(target_.FaultInjectorSwifiPreRuntime("bad").ok());
}

TEST_F(AlgorithmsTest, SwifiRuntimeInjectsMemoryFaultsAtBreakpoint) {
  CampaignData campaign = BaseCampaign("rt");
  campaign.technique = Technique::kSwifiRuntime;
  campaign.locations = {{"memory.data", ""}};
  campaign.num_experiments = 25;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorSwifiRuntime("rt").ok());
  const auto report = AnalyzeCampaign(store_, "rt").ValueOrDie();
  EXPECT_EQ(report.total, 25);
  // Data faults on a sort workload: a decent share must be effective.
  EXPECT_GT(report.Count(Outcome::kEscaped) + report.Count(Outcome::kDetected) +
                report.Count(Outcome::kLatent),
            0);
}

TEST_F(AlgorithmsTest, UnknownCampaignFails) {
  EXPECT_FALSE(target_.FaultInjectorScifi("ghost").ok());
  EXPECT_FALSE(target_.RunCampaign("ghost").ok());
}

TEST_F(AlgorithmsTest, UnknownLocationSelectorFails) {
  CampaignData campaign = BaseCampaign("badloc");
  campaign.locations = {{"no_such_chain", ""}};
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  EXPECT_FALSE(target_.FaultInjectorScifi("badloc").ok());
}

TEST_F(AlgorithmsTest, UnknownWorkloadFails) {
  CampaignData campaign = BaseCampaign("badwl");
  campaign.workload = "no_such_workload";
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  EXPECT_FALSE(target_.FaultInjectorScifi("badwl").ok());
}

TEST_F(AlgorithmsTest, CellPrefixNarrowsFaultSpace) {
  CampaignData campaign = BaseCampaign("narrow");
  campaign.locations = {{"internal_regfile", "regfile.r3"}};
  campaign.num_experiments = 10;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("narrow").ok());
  for (const auto& row : MainRows("narrow")) {
    EXPECT_NE(row.experiment_data.find("regfile.r3"), std::string::npos)
        << row.experiment_data;
  }
}

TEST_F(AlgorithmsTest, LivenessFilterSkipsDeadDraws) {
  auto analyzer =
      LivenessAnalyzer::Build("bubblesort", cpu::CpuConfig()).ValueOrDie();
  CampaignData campaign = BaseCampaign("live");
  campaign.num_experiments = 30;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  target_.SetLivenessFilter(analyzer->MakeFilter());
  ASSERT_TRUE(target_.FaultInjectorScifi("live").ok());
  target_.SetLivenessFilter(nullptr);
  EXPECT_GT(target_.stats().injections_skipped_dead, 0);

  // With the filter, the overwritten fraction should be low.
  const auto report = AnalyzeCampaign(store_, "live").ValueOrDie();
  EXPECT_LT(report.Count(Outcome::kOverwritten), report.total / 2);
}

TEST_F(AlgorithmsTest, RejectingFilterFailsGracefully) {
  CampaignData campaign = BaseCampaign("allfiltered");
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  target_.SetLivenessFilter([](const FaultCandidate&, uint64_t) { return false; });
  EXPECT_FALSE(target_.FaultInjectorScifi("allfiltered").ok());
  target_.SetLivenessFilter(nullptr);
}

TEST_F(AlgorithmsTest, RerunDetailedLogsPerInstructionRows) {
  CampaignData campaign = BaseCampaign("det");
  campaign.num_experiments = 5;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("det").ok());
  ASSERT_TRUE(target_.RerunDetailed("det/e0000").ok());

  const auto rerun = store_.GetExperiment("det/e0000/detail").ValueOrDie();
  EXPECT_EQ(rerun.parent_experiment, "det/e0000");

  int detail_rows = 0;
  for (const auto& row : store_.ExperimentsOf("det").ValueOrDie()) {
    if (row.parent_experiment == "det/e0000/detail") {
      ++detail_rows;
      EXPECT_TRUE(row.state.scan_images.contains("internal_core"));
    }
  }
  EXPECT_GT(detail_rows, 0);
}

TEST_F(AlgorithmsTest, RerunDetailedReproducesOutcome) {
  CampaignData campaign = BaseCampaign("repro");
  campaign.num_experiments = 15;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("repro").ok());
  for (const auto& row : MainRows("repro")) {
    ASSERT_TRUE(target_.RerunDetailed(row.experiment_name).ok());
    const auto rerun =
        store_.GetExperiment(row.experiment_name + "/detail").ValueOrDie();
    EXPECT_EQ(rerun.state.detected, row.state.detected) << row.experiment_name;
    EXPECT_EQ(rerun.state.edm, row.state.edm) << row.experiment_name;
    EXPECT_EQ(rerun.state.outputs, row.state.outputs) << row.experiment_name;
  }
}

TEST_F(AlgorithmsTest, RerunRejectsFaultBitOutsideItsChain) {
  // experimentData is read back from the database, which archives and SQL
  // edits can change: a fault bit past the end of its chain is refused
  // before the image is touched.
  CampaignData campaign = BaseCampaign("bad");
  campaign.num_experiments = 1;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("bad").ok());
  FaultInstance fault;
  fault.chain = "internal_regfile";
  fault.chain_bit = 5000;
  fault.cell_name = "regfile.r1";
  fault.inject_instr = 10;
  ASSERT_TRUE(store_
                  .PutExperiment("bad/tampered", "", "bad",
                                 "faults=" + fault.Serialize(), LoggedState())
                  .ok());
  const util::Status status = target_.RerunDetailed("bad/tampered");
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "fault bit 5000 outside chain internal_regfile");
}

// --- fault models ---------------------------------------------------------------

TEST_F(AlgorithmsTest, IntermittentModelRunsToCompletion) {
  CampaignData campaign = BaseCampaign("interm");
  campaign.fault_model = FaultModelKind::kIntermittentBitFlip;
  campaign.burst_length = 4;
  campaign.burst_spacing = 30;
  campaign.num_experiments = 15;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("interm").ok());
  EXPECT_EQ(MainRows("interm").size(), 15u);
}

TEST_F(AlgorithmsTest, PermanentModelIsAtLeastAsEffectiveAsTransient) {
  CampaignData transient = BaseCampaign("trans");
  transient.num_experiments = 60;
  CampaignData permanent = BaseCampaign("perm");
  permanent.name = "perm";
  permanent.num_experiments = 60;
  permanent.fault_model = FaultModelKind::kPermanentStuckAt;
  permanent.burst_spacing = 25;
  ASSERT_TRUE(store_.PutCampaign(transient).ok());
  ASSERT_TRUE(store_.PutCampaign(permanent).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("trans").ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("perm").ok());
  const auto report_t = AnalyzeCampaign(store_, "trans").ValueOrDie();
  const auto report_p = AnalyzeCampaign(store_, "perm").ValueOrDie();
  // A stuck-at fault that is re-imposed cannot be less effective than a
  // single flip of the same population (statistically, with 60 samples the
  // ordering is stable for this workload).
  EXPECT_GE(report_p.EffectivenessRatio() + 0.15, report_t.EffectivenessRatio());
}

// --- control workload campaigns ---------------------------------------------------

TEST_F(AlgorithmsTest, ControlWorkloadCampaignServicesEnvironment) {
  CampaignData campaign = BaseCampaign("ctrl");
  campaign.workload = "pendulum_pd";
  campaign.num_experiments = 10;
  campaign.max_iterations = 100;
  campaign.inject_min_instr = 10;
  campaign.inject_max_instr = 1500;
  campaign.timeout_cycles = 400000;
  ASSERT_TRUE(store_.PutCampaign(campaign).ok());
  ASSERT_TRUE(target_.FaultInjectorScifi("ctrl").ok());
  const auto reference = store_.GetExperiment("ctrl/ref").ValueOrDie();
  EXPECT_EQ(reference.state.iterations, 100);
  EXPECT_FALSE(reference.state.env_failed);
  EXPECT_FALSE(reference.state.halted) << "infinite-loop workload never halts";
  ASSERT_EQ(reference.state.outputs.size(), 1u) << "actuator-trace checksum";
  EXPECT_NE(reference.state.outputs[0], 0u);
}

// --- noisy test-card link -----------------------------------------------------

/// Forwards every call to a SimTestCard and counts scan writes whose image
/// does not fit the chain (the card refuses those).
class WriteCheckingCard final : public testcard::TestCard {
 public:
  explicit WriteCheckingCard(const testcard::LinkConfig& link)
      : inner_(cpu::CpuConfig(), link) {}

  int misfit_writes() const { return misfit_writes_; }

  util::Status Init() override { return inner_.Init(); }
  util::Status LoadWorkload(const isa::AssembledProgram& program) override {
    return inner_.LoadWorkload(program);
  }
  util::Status ResetTarget() override { return inner_.ResetTarget(); }
  util::Status WriteMemory(uint32_t address,
                           const std::vector<uint32_t>& words) override {
    return inner_.WriteMemory(address, words);
  }
  util::Result<std::vector<uint32_t>> ReadMemory(uint32_t address,
                                                 uint32_t num_words) override {
    return inner_.ReadMemory(address, num_words);
  }
  int AddTrigger(const scan::Trigger& trigger) override {
    return inner_.AddTrigger(trigger);
  }
  void ClearTriggers() override { inner_.ClearTriggers(); }
  scan::DebugRunResult Run(uint64_t max_cycles) override {
    return inner_.Run(max_cycles);
  }
  cpu::StepOutcome SingleStep() override { return inner_.SingleStep(); }
  util::Result<util::BitVec> ReadScanChain(const std::string& chain,
                                           bool restore) override {
    return inner_.ReadScanChain(chain, restore);
  }
  util::Status WriteScanChain(const std::string& chain,
                              const util::BitVec& image) override {
    const scan::ScanChain* target = inner_.chains().Find(chain);
    if (target != nullptr && image.size() != target->length_bits()) {
      ++misfit_writes_;
    }
    return inner_.WriteScanChain(chain, image);
  }
  util::Status MarkMemoryBaseline() override {
    return inner_.MarkMemoryBaseline();
  }
  const scan::ScanChainSet& chains() const override { return inner_.chains(); }
  const cpu::Cpu& cpu() const override { return inner_.cpu(); }
  cpu::Cpu& mutable_cpu() override { return inner_.mutable_cpu(); }
  double link_time_us() const override { return inner_.link_time_us(); }

 private:
  testcard::SimTestCard inner_;
  int misfit_writes_ = 0;
};

TEST(NoisyLinkTest, RedirectedInjectionReadFailsBeforeTouchingTheImage) {
  // At a 2% bit error rate the SCAN_N select scan of an injection read can
  // be redirected to another chain, which returns that chain's image (this
  // seed does so in the 4th experiment). Injecting into it must fail with
  // the status the card's write check gives, before any bit of the
  // misfitting image is flipped and without attempting the write.
  testcard::LinkConfig link;
  link.bit_error_rate = 0.02;
  link.noise_seed = 8;
  WriteCheckingCard card(link);
  db::Database db;
  CampaignStore store(&db);
  ASSERT_TRUE(store
                  .PutTargetSystem(ThorRdTarget::DescribeTarget(
                      card, ThorRdTarget::kTargetName))
                  .ok());
  CampaignData campaign;
  campaign.name = "noisy";
  campaign.target_name = ThorRdTarget::kTargetName;
  campaign.technique = Technique::kScifi;
  campaign.num_experiments = 10;
  campaign.workload = "bubblesort";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 1000;
  campaign.timeout_cycles = 100000;
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  ThorRdTarget target(&store, &card);
  const util::Status status = target.RunCampaign("noisy");
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "image size mismatch for chain internal_regfile");
  EXPECT_EQ(target.stats().experiments_run, 3);
  EXPECT_EQ(card.misfit_writes(), 0);
}

}  // namespace
}  // namespace goofi::core
