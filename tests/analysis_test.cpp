// Tests for the §3.4 analysis phase: experiment classification and campaign
// aggregation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/analysis.hpp"
#include "util/strings.hpp"

namespace goofi::core {
namespace {

LoggedState Reference() {
  LoggedState state;
  state.halted = true;
  state.cycles = 1000;
  state.instret = 800;
  state.outputs = {0x1234};
  state.scan_images["internal_core"] = "0101";
  return state;
}

TEST(ClassifyTest, DetectedWinsOverEverything) {
  LoggedState exp = Reference();
  exp.detected = true;
  exp.edm = "cache_parity_instr";
  exp.outputs = {0xBAD};      // even with wrong outputs...
  exp.env_failed = true;      // ...and a fallen plant
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kDetected);
  EXPECT_EQ(cls.mechanism, "cache_parity_instr");
}

TEST(ClassifyTest, WrongOutputsEscapeAsValueFailure) {
  LoggedState exp = Reference();
  exp.outputs = {0x9999};
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kEscaped);
  EXPECT_TRUE(cls.value_failure);
}

TEST(ClassifyTest, EnvFailureEscapesAsValueFailure) {
  LoggedState exp = Reference();
  exp.env_failed = true;
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kEscaped);
  EXPECT_TRUE(cls.value_failure);
}

TEST(ClassifyTest, TimeoutEscapesAsTimelinessViolation) {
  LoggedState exp = Reference();
  exp.halted = false;
  exp.timed_out = true;
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kEscaped);
  EXPECT_TRUE(cls.timeliness_violation);
}

TEST(ClassifyTest, StateDifferenceIsLatent) {
  LoggedState exp = Reference();
  exp.scan_images["internal_core"] = "0111";
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kLatent);
}

TEST(ClassifyTest, IdenticalStateIsOverwritten) {
  const auto cls = Classify(Reference(), Reference());
  EXPECT_EQ(cls.outcome, Outcome::kOverwritten);
}

TEST(ClassifyTest, CycleCountDifferenceAloneIsNotAnError) {
  // Timing may legitimately differ (cache effects); only the observable
  // state vector and outputs matter.
  LoggedState exp = Reference();
  exp.cycles += 50;
  exp.instret += 10;
  const auto cls = Classify(Reference(), exp);
  EXPECT_EQ(cls.outcome, Outcome::kOverwritten);
}

// --- report aggregation --------------------------------------------------------

TEST(ReportTest, CoverageMath) {
  AnalysisReport report;
  report.total = 10;
  report.by_outcome[Outcome::kDetected] = 3;
  report.by_outcome[Outcome::kEscaped] = 1;
  report.by_outcome[Outcome::kLatent] = 2;
  report.by_outcome[Outcome::kOverwritten] = 4;
  EXPECT_DOUBLE_EQ(report.ErrorCoverage(), 0.75);
  EXPECT_DOUBLE_EQ(report.EffectivenessRatio(), 0.4);
  EXPECT_EQ(report.Count(Outcome::kLatent), 2);
}

TEST(ReportTest, CoverageWithNoEffectiveErrorsIsOne) {
  AnalysisReport report;
  report.total = 5;
  report.by_outcome[Outcome::kOverwritten] = 5;
  EXPECT_DOUBLE_EQ(report.ErrorCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(report.EffectivenessRatio(), 0.0);
}

TEST(ReportTest, ToStringListsMechanisms) {
  AnalysisReport report;
  report.campaign = "camp";
  report.total = 2;
  report.by_outcome[Outcome::kDetected] = 2;
  report.detected_by_mechanism["illegal_opcode"] = 1;
  report.detected_by_mechanism["watchdog_timeout"] = 1;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("illegal_opcode"), std::string::npos);
  EXPECT_NE(text.find("watchdog_timeout"), std::string::npos);
  EXPECT_NE(text.find("camp"), std::string::npos);
}

// --- campaign-level analysis over a store ---------------------------------------

class AnalyzeCampaignTest : public ::testing::Test {
 protected:
  AnalyzeCampaignTest() : store_(&db_) {
    TargetSystemData target;
    target.name = "t";
    EXPECT_TRUE(store_.PutTargetSystem(target).ok());
    CampaignData campaign;
    campaign.name = "c";
    campaign.target_name = "t";
    campaign.workload = "w";
    EXPECT_TRUE(store_.PutCampaign(campaign).ok());
    EXPECT_TRUE(store_
                    .PutExperiment(CampaignStore::ReferenceName("c"), "", "c",
                                   "", Reference())
                    .ok());
  }

  void AddExperiment(const std::string& name, const LoggedState& state,
                     const std::string& data = "", const std::string& parent = "") {
    ASSERT_TRUE(store_.PutExperiment(name, parent, "c", data, state).ok());
  }

  /// Logs a row with a raw stateVector text, as an external writer could.
  void AddRaw(const std::string& name, const std::string& parent,
              const std::string& data, const std::string& state_vector) {
    ASSERT_TRUE(store_.statement_cache()
                    .Execute(db_,
                             "INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?)",
                             {db::Value::Text(name),
                              parent.empty() ? db::Value::Null()
                                             : db::Value::Text(parent),
                              db::Value::Text("c"), db::Value::Text(data),
                              db::Value::Text(state_vector)})
                    .ok());
  }

  db::Database db_;
  CampaignStore store_;
};

TEST_F(AnalyzeCampaignTest, AggregatesAllOutcomeKinds) {
  LoggedState detected = Reference();
  detected.detected = true;
  detected.edm = "illegal_opcode";
  AddExperiment("c/e0", detected,
                "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0");

  LoggedState escaped = Reference();
  escaped.outputs = {0xBAD};
  AddExperiment("c/e1", escaped,
                "faults=transient_bitflip,internal_regfile,40,regfile.r1,0,0,5,0");

  LoggedState latent = Reference();
  latent.scan_images["internal_core"] = "1111";
  AddExperiment("c/e2", latent,
                "faults=transient_bitflip,internal_regfile,70,regfile.r2,0,0,5,0");

  AddExperiment("c/e3", Reference(),
                "faults=transient_bitflip,internal_regfile,70,regfile.r2,0,0,9,0");

  const auto report = AnalyzeCampaign(store_, "c").ValueOrDie();
  EXPECT_EQ(report.total, 4);
  EXPECT_EQ(report.Count(Outcome::kDetected), 1);
  EXPECT_EQ(report.Count(Outcome::kEscaped), 1);
  EXPECT_EQ(report.Count(Outcome::kLatent), 1);
  EXPECT_EQ(report.Count(Outcome::kOverwritten), 1);
  EXPECT_EQ(report.detected_by_mechanism.at("illegal_opcode"), 1);
  EXPECT_DOUBLE_EQ(report.ErrorCoverage(), 0.5);
}

TEST_F(AnalyzeCampaignTest, DetailRowsExcluded) {
  AddExperiment("c/e0", Reference(), "f");
  LoggedState step;
  AddExperiment("c/e0/d0", step, "detail_step", "c/e0");
  const auto report = AnalyzeCampaign(store_, "c").ValueOrDie();
  EXPECT_EQ(report.total, 1);
}

TEST_F(AnalyzeCampaignTest, MissingReferenceIsError) {
  EXPECT_FALSE(AnalyzeCampaign(store_, "nope").ok());
}

TEST_F(AnalyzeCampaignTest, ByLocationGroupSplitsOnCellPrefix) {
  LoggedState detected = Reference();
  detected.detected = true;
  detected.edm = "illegal_opcode";
  AddExperiment("c/e0", detected,
                "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0");
  AddExperiment("c/e1", Reference(),
                "faults=transient_bitflip,internal_regfile,40,regfile.r1,0,0,5,0");
  AddExperiment(
      "c/e2", Reference(),
      "faults=transient_bitflip,,0,memory.text@0x00000010,16,3,0,0");

  const auto by_group = AnalyzeByLocationGroup(store_, "c").ValueOrDie();
  ASSERT_EQ(by_group.size(), 3u);
  EXPECT_EQ(by_group.at("core").Count(Outcome::kDetected), 1);
  EXPECT_EQ(by_group.at("regfile").Count(Outcome::kOverwritten), 1);
  EXPECT_EQ(by_group.at("memory.text").total, 1);
}

TEST_F(AnalyzeCampaignTest, MalformedMainRowIsAParseErrorNamingIt) {
  AddExperiment("c/e0", Reference(),
                "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0");
  AddRaw("c/e1", "", "faults=transient_bitflip,internal_core,3,core.ir,0,0,5,0",
         "halted=1;garbage");
  AddExperiment("c/e2", Reference());
  const auto report = AnalyzeCampaign(store_, "c");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(report.status().message().find("c/e1"), std::string::npos)
      << report.status().ToString();
  const auto by_group = AnalyzeByLocationGroup(store_, "c");
  ASSERT_FALSE(by_group.ok());
  EXPECT_EQ(by_group.status(), report.status());
}

TEST_F(AnalyzeCampaignTest, MalformedDetailRowIsNotParsed) {
  AddExperiment("c/e0", Reference(), "f");
  AddRaw("c/e0/d0", "c/e0", "detail_step", "garbage");
  // Detail rows are not classified, so their stateVector is never read;
  // ExperimentsOf, which parses every row, still refuses the campaign.
  EXPECT_EQ(AnalyzeCampaign(store_, "c").ValueOrDie().total, 1);
  EXPECT_EQ(AnalyzeByLocationGroup(store_, "c").ValueOrDie().at("none").total, 1);
  EXPECT_FALSE(store_.ExperimentsOf("c").ok());
}

TEST_F(AnalyzeCampaignTest, ReorderedKeysClassifyLikeDeserializeAndClassify) {
  const LoggedState reference = Reference();
  // Every key of the reference, scan image first and the rest reversed.
  std::vector<std::string> pairs = util::Split(reference.Serialize(), ';');
  pairs.pop_back();  // the empty field after the final ';'
  std::reverse(pairs.begin(), pairs.end());
  AddRaw("c/e0", "", "", util::Join(pairs, ";"));
  // Chains out of Serialize's order: the extra chain makes the row latent.
  AddRaw("c/e1", "", "",
         "scan.internal_core=0101;scan.boundary=11;halted=1;cycles=1000;"
         "instret=800;outputs=00001234;");
  // A repeated chain: the last image wins.
  AddRaw("c/e2", "", "",
         "halted=1;outputs=00001234;scan.internal_core=1111;"
         "scan.internal_core=0101;");
  AddRaw("c/e3", "", "",
         "scan.internal_core=0101;halted=1;outputs=00001234;scan.a=1;");

  AnalysisReport expected;
  for (const CampaignStore::ExperimentRow& row :
       store_.ExperimentsOf("c").ValueOrDie()) {
    if (row.experiment_name == CampaignStore::ReferenceName("c")) continue;
    const ExperimentClassification cls = Classify(reference, row.state);
    ++expected.total;
    ++expected.by_outcome[cls.outcome];
  }
  const auto report = AnalyzeCampaign(store_, "c").ValueOrDie();
  EXPECT_EQ(report.total, expected.total);
  EXPECT_EQ(report.by_outcome, expected.by_outcome);
  EXPECT_EQ(report.Count(Outcome::kOverwritten), 2);
  EXPECT_EQ(report.Count(Outcome::kLatent), 2);
}

}  // namespace
}  // namespace goofi::core
