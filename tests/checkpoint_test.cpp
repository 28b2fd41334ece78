// Equivalence and semantics tests for the golden-run checkpoint engine.
//
// The headline property: a warm-started campaign — every experiment
// fast-forwarded from the nearest golden-run checkpoint before its injection
// time — leaves the database byte-identical to a cold run of the same
// campaign, with equal Stats, for every technique, fault model, workload
// class, checkpoint interval and worker count.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/goofi.hpp"
#include "cpu/state_hash.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"
#include "util/strings.hpp"

namespace goofi::core {
namespace {

CampaignData ThorScifiCampaign(const std::string& name) {
  CampaignData campaign;
  campaign.name = name;
  campaign.target_name = ThorRdTarget::kTargetName;
  campaign.technique = Technique::kScifi;
  campaign.num_experiments = 8;
  campaign.workload = "bubblesort";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 1000;
  campaign.timeout_cycles = 100000;
  return campaign;
}

CampaignData ThorControlCampaign(const std::string& name) {
  CampaignData campaign = ThorScifiCampaign(name);
  campaign.workload = "pendulum_pd";
  campaign.num_experiments = 6;
  campaign.inject_max_instr = 2000;
  campaign.max_iterations = 40;
  return campaign;
}

CampaignData SwifiRuntimeCampaign(const std::string& name) {
  CampaignData campaign;
  campaign.name = name;
  campaign.target_name = SwifiSimTarget::kTargetName;
  campaign.technique = Technique::kSwifiRuntime;
  campaign.num_experiments = 8;
  campaign.workload = "fibonacci";
  campaign.locations = {{"memory.text", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 500;
  campaign.timeout_cycles = 100000;
  return campaign;
}

CampaignData SwifiControlCampaign(const std::string& name) {
  CampaignData campaign = SwifiRuntimeCampaign(name);
  campaign.workload = "cruise_pi";
  campaign.locations = {{"memory.data", ""}};
  campaign.num_experiments = 6;
  campaign.inject_max_instr = 2000;
  campaign.max_iterations = 40;
  return campaign;
}

/// Everything a run leaves behind that equivalence is asserted over.
struct RunResult {
  util::Status status;
  std::vector<CampaignStore::ExperimentRow> rows;  ///< insertion order
  FaultInjectionAlgorithms::Stats stats;
  int warm_starts = 0;
  std::string db_bytes;  ///< the Save() file, CRC trailer and all
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
                     int warm_starts, const std::string& campaign_name) {
    RunResult result;
    result.status = std::move(status);
    result.stats = stats;
    result.warm_starts = warm_starts;
    auto rows = store.ExperimentsOf(campaign_name);
    if (rows.ok()) result.rows = std::move(rows).value();
    const std::string path =
        testing::TempDir() + "goofi_checkpoint_" +
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

/// Serial run with checkpointing configured explicitly. `interval` 0 is the
/// cold baseline; `force` engages warm-start regardless of the injection
/// window.
RunResult RunSerial(const CampaignData& campaign, uint64_t interval,
                    bool force) {
  Session session(campaign);
  auto drive = [&](FaultInjectionAlgorithms& target) {
    target.SetCheckpointInterval(interval);
    target.SetForceWarmStart(force);
    // Sequence the run before reading the counters (argument evaluation
    // order is unspecified).
    util::Status status = target.RunCampaign(campaign.name);
    return session.Snapshot(std::move(status), target.stats(),
                            target.warm_starts(), campaign.name);
  };
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    testcard::SimTestCard card;
    ThorRdTarget target(&session.store, &card);
    return drive(target);
  }
  SwifiSimTarget target(&session.store);
  return drive(target);
}

RunResult RunCold(const CampaignData& campaign) {
  return RunSerial(campaign, /*interval=*/0, /*force=*/false);
}

RunResult RunWarm(const CampaignData& campaign, uint64_t interval) {
  return RunSerial(campaign, interval, /*force=*/true);
}

RunResult RunParallelWarm(const CampaignData& campaign, int workers,
                          uint64_t interval) {
  Session session(campaign);
  const auto factory = campaign.target_name == ThorRdTarget::kTargetName
                           ? MakeSimThorFactory(&session.store)
                           : MakeSwifiSimFactory(&session.store);
  ParallelCampaignRunner runner(&session.store, factory, workers);
  runner.SetCheckpointInterval(interval);
  runner.SetForceWarmStart(true);
  util::Status status = runner.Run(campaign.name);
  return session.Snapshot(std::move(status), runner.stats(),
                          runner.warm_starts(), campaign.name);
}

void ExpectIdentical(const RunResult& cold, const RunResult& warm) {
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ASSERT_EQ(cold.rows.size(), warm.rows.size());
  for (size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(cold.rows[i].experiment_name, warm.rows[i].experiment_name)
        << "row " << i << " out of order";
    EXPECT_EQ(cold.rows[i].experiment_data, warm.rows[i].experiment_data)
        << "row " << i;
    EXPECT_EQ(cold.rows[i].state.Serialize(), warm.rows[i].state.Serialize())
        << "row " << i;
  }
  EXPECT_EQ(cold.stats, warm.stats) << "warm Stats must equal cold Stats";
  EXPECT_EQ(cold.db_bytes, warm.db_bytes)
      << "database files must be byte-identical";
}

TEST(CheckpointTest, ScifiBatchWorkloadWarmMatchesColdAtEveryInterval) {
  for (uint64_t seed : {0x600F1ull, 0xBADF00Dull}) {
    CampaignData campaign = ThorScifiCampaign("cp_scifi");
    campaign.seed = seed;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunResult cold = RunCold(campaign);
    EXPECT_EQ(cold.warm_starts, 0);
    for (uint64_t interval : {1ull, 64ull, 4096ull}) {
      SCOPED_TRACE("interval=" + std::to_string(interval));
      const RunResult warm = RunWarm(campaign, interval);
      EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
      ExpectIdentical(cold, warm);
    }
  }
}

TEST(CheckpointTest, ScifiControlWorkloadWarmMatchesCold) {
  // Environment-in-the-loop workload: checkpoints must carry the plant
  // state, the iteration count and the actuator CRC accumulator.
  const CampaignData campaign = ThorControlCampaign("cp_scifi_env");
  const RunResult cold = RunCold(campaign);
  for (uint64_t interval : {64ull, 4096ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    const RunResult warm = RunWarm(campaign, interval);
    EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
    ExpectIdentical(cold, warm);
  }
}

TEST(CheckpointTest, RuntimeSwifiWarmMatchesColdAtEveryInterval) {
  for (uint64_t seed : {0x600F1ull, 0x5EEDull}) {
    CampaignData campaign = SwifiRuntimeCampaign("cp_swifi");
    campaign.seed = seed;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunResult cold = RunCold(campaign);
    for (uint64_t interval : {1ull, 64ull, 4096ull}) {
      SCOPED_TRACE("interval=" + std::to_string(interval));
      const RunResult warm = RunWarm(campaign, interval);
      EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
      ExpectIdentical(cold, warm);
    }
  }
}

TEST(CheckpointTest, RuntimeSwifiControlWorkloadWarmMatchesCold) {
  const CampaignData campaign = SwifiControlCampaign("cp_swifi_env");
  const RunResult cold = RunCold(campaign);
  const RunResult warm = RunWarm(campaign, 64);
  EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
  ExpectIdentical(cold, warm);
}

TEST(CheckpointTest, PermanentAndIntermittentModelsWarmMatchCold) {
  // Non-transient models re-activate faults after injection via the
  // reactivation trigger; the restored debug unit must replay that exactly.
  for (FaultModelKind model : {FaultModelKind::kPermanentStuckAt,
                               FaultModelKind::kIntermittentBitFlip}) {
    CampaignData campaign = ThorScifiCampaign("cp_model");
    campaign.fault_model = model;
    SCOPED_TRACE(FaultModelName(model));
    const RunResult cold = RunCold(campaign);
    ExpectIdentical(cold, RunWarm(campaign, 64));
  }
}

TEST(CheckpointTest, DetailModeWarmMatchesCold) {
  CampaignData campaign = ThorScifiCampaign("cp_detail");
  campaign.log_mode = LogMode::kDetail;
  campaign.num_experiments = 3;
  campaign.inject_max_instr = 200;
  const RunResult cold = RunCold(campaign);
  ASSERT_GT(cold.rows.size(), 4u) << "expected detail rows";
  ExpectIdentical(cold, RunWarm(campaign, 64));
}

TEST(CheckpointTest, ParallelWarmSharesCacheAndMatchesCold) {
  const CampaignData campaign = ThorScifiCampaign("cp_par");
  const RunResult cold = RunCold(campaign);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunResult warm = RunParallelWarm(campaign, workers, 64);
    EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
    ExpectIdentical(cold, warm);
  }
}

TEST(CheckpointTest, ParallelWarmSwifiMatchesCold) {
  const CampaignData campaign = SwifiRuntimeCampaign("cp_par_swifi");
  const RunResult cold = RunCold(campaign);
  const RunResult warm = RunParallelWarm(campaign, 4, 64);
  EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
  ExpectIdentical(cold, warm);
}

TEST(CheckpointTest, WarmStartEngagesByDefaultForLateInjections) {
  // All faults inject at or after the first interval, so PrepareCampaign
  // auto-builds the cache without SetForceWarmStart.
  CampaignData campaign = ThorScifiCampaign("cp_auto");
  campaign.inject_min_instr = 600;
  const RunResult cold = RunCold(campaign);
  const RunResult warm =
      RunSerial(campaign, /*interval=*/64, /*force=*/false);
  EXPECT_EQ(warm.warm_starts, campaign.num_experiments);
  ExpectIdentical(cold, warm);
}

TEST(CheckpointTest, DefaultStaysColdForEarlyInjections) {
  // inject_min_instr < interval: building a cache could not serve every
  // experiment, so the default configuration stays entirely cold.
  const CampaignData campaign = ThorScifiCampaign("cp_early");
  const RunResult run = RunSerial(
      campaign, FaultInjectionAlgorithms::kDefaultCheckpointInterval,
      /*force=*/false);
  ASSERT_TRUE(run.status.ok());
  EXPECT_EQ(run.warm_starts, 0);
}

TEST(CheckpointTest, FindBeforeIsStrictlyBelow) {
  struct DummyPayload final : CheckpointPayload {
    size_t MemoryBytes() const override { return sizeof(DummyPayload); }
  };
  CheckpointCache cache(100);
  for (uint64_t instret : {0ull, 100ull, 200ull}) {
    Checkpoint cp;
    cp.instret = instret;
    cp.payload = std::make_shared<DummyPayload>();
    cache.Add(std::move(cp));
  }
  EXPECT_EQ(cache.FindBefore(0), nullptr);
  ASSERT_NE(cache.FindBefore(1), nullptr);
  EXPECT_EQ(cache.FindBefore(1)->instret, 0u);
  // A checkpoint AT the injection instruction must not be used: the debug
  // unit evaluates triggers after stepping, so restoring there would fire
  // the breakpoint one instruction late.
  ASSERT_NE(cache.FindBefore(100), nullptr);
  EXPECT_EQ(cache.FindBefore(100)->instret, 0u);
  EXPECT_EQ(cache.FindBefore(101)->instret, 100u);
  EXPECT_EQ(cache.FindBefore(5000)->instret, 200u);
}

TEST(CheckpointTest, CacheMemoryIsBoundedByPageDeltas) {
  // A full TRD32 memory image is 1 MiB; dirty-page deltas must keep each
  // snapshot far below that.
  db::Database db;
  CampaignStore store(&db);
  testcard::SimTestCard card;
  ASSERT_TRUE(store
                  .PutTargetSystem(ThorRdTarget::DescribeTarget(
                      card, ThorRdTarget::kTargetName))
                  .ok());
  CampaignData campaign = ThorScifiCampaign("cp_mem");
  campaign.inject_max_instr = 20000;
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  ThorRdTarget target(&store, &card);
  target.SetCheckpointInterval(0);  // build explicitly below
  ASSERT_TRUE(target.PrepareCampaign(campaign).ok());
  CheckpointCache cache(256);
  ASSERT_TRUE(target.BuildCheckpoints(256, &cache).ok());
  ASSERT_GT(cache.size(), 4u);
  EXPECT_EQ(cache.interval(), 256u);
  EXPECT_LT(cache.MemoryBytes(), cache.size() * 256 * 1024)
      << "snapshots must store page deltas, not full memory images";
}

// ---------------------------------------------------------------------------
// One golden pass: a combined BuildGoldenRun(cache, trace) yields exactly the
// products of separate cache-only and trace-only builds.
// ---------------------------------------------------------------------------

/// Forwards every TestCard call to a SimTestCard, counting ResetTarget.
class ResetCountingCard final : public testcard::TestCard {
 public:
  explicit ResetCountingCard(const testcard::LinkConfig& link)
      : inner_(cpu::CpuConfig(), link) {}

  testcard::SimTestCard& inner() { return inner_; }
  int resets() const { return resets_; }

  util::Status Init() override { return inner_.Init(); }
  util::Status LoadWorkload(const isa::AssembledProgram& program) override {
    return inner_.LoadWorkload(program);
  }
  util::Status ResetTarget() override {
    ++resets_;
    return inner_.ResetTarget();
  }
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
  bool use_fast_run() const override { return inner_.use_fast_run(); }
  cpu::StepOutcome SingleStep() override { return inner_.SingleStep(); }
  util::Result<util::BitVec> ReadScanChain(const std::string& chain,
                                           bool restore) override {
    return inner_.ReadScanChain(chain, restore);
  }
  util::Status WriteScanChain(const std::string& chain,
                              const util::BitVec& image) override {
    return inner_.WriteScanChain(chain, image);
  }
  util::Status ReadScanChainInto(const std::string& chain, bool restore,
                                 util::BitVec* out) override {
    return inner_.ReadScanChainInto(chain, restore, out);
  }
  util::Status MarkMemoryBaseline() override {
    return inner_.MarkMemoryBaseline();
  }
  util::Result<testcard::CardSnapshot> SaveSnapshot() override {
    return inner_.SaveSnapshot();
  }
  util::Status RestoreSnapshot(
      const testcard::CardSnapshot& snapshot) override {
    return inner_.RestoreSnapshot(snapshot);
  }
  bool SupportsStateHash() const override {
    return inner_.SupportsStateHash();
  }
  util::Status HashTargetState(cpu::StateHasher* hasher) override {
    return inner_.HashTargetState(hasher);
  }
  const scan::ScanChainSet& chains() const override { return inner_.chains(); }
  const cpu::Cpu& cpu() const override { return inner_.cpu(); }
  cpu::Cpu& mutable_cpu() override { return inner_.mutable_cpu(); }
  double link_time_us() const override { return inner_.link_time_us(); }

 private:
  testcard::SimTestCard inner_;
  int resets_ = 0;
};

/// Exposes checkpoint restore and state collection to the test. Golden
/// builds never touch the store, so the targets get none.
template <typename Target>
class ProbeTarget final : public Target {
 public:
  using Target::Target;
  using Target::CollectState;
  using Target::RestoreCheckpoint;
};

/// What one BuildGoldenRun produced, in comparable form.
struct GoldenProducts {
  int resets = 0;
  std::vector<uint64_t> checkpoint_instrets;
  /// Per checkpoint, after restoring it: the StateHasher capture blob of the
  /// target state, then the collected LoggedState.
  std::vector<std::vector<uint8_t>> restored_blobs;
  std::vector<std::string> restored_states;
  GoldenTrace trace;
};

struct GoldenConfig {
  CampaignData campaign;
  bool fast = true;
  bool noisy = false;  ///< Thor only: the link flips shifted bits
};

constexpr uint64_t kGoldenInterval = 64;

template <typename Target>
void CollectGolden(ProbeTarget<Target>& target, const GoldenConfig& config,
                   bool want_cache, bool want_trace,
                   const std::function<void(cpu::StateHasher*)>& hash_target,
                   GoldenProducts* out) {
  target.SetCheckpointInterval(0);  // build explicitly below
  ASSERT_TRUE(target.PrepareCampaign(config.campaign).ok());
  CheckpointCache cache(kGoldenInterval);
  ASSERT_TRUE(target
                  .BuildGoldenRun(kGoldenInterval,
                                  want_cache ? &cache : nullptr,
                                  want_trace ? &out->trace : nullptr)
                  .ok());
  if (!want_cache) return;
  for (uint64_t instret = 0;; instret += kGoldenInterval) {
    const Checkpoint* checkpoint = cache.FindBefore(instret + 1);
    if (checkpoint == nullptr || checkpoint->instret != instret) break;
    out->checkpoint_instrets.push_back(instret);
    ASSERT_TRUE(target.RestoreCheckpoint(*checkpoint).ok());
    cpu::StateHasher hasher(/*capture=*/true);
    hash_target(&hasher);
    out->restored_blobs.push_back(hasher.TakeBlob());
    out->restored_states.push_back(
        target.CollectState().ValueOrDie().Serialize());
  }
  EXPECT_EQ(out->checkpoint_instrets.size(), cache.size());
}

GoldenProducts BuildThorGolden(const GoldenConfig& config, bool want_cache,
                               bool want_trace) {
  testcard::LinkConfig link;
  if (config.noisy) link.bit_error_rate = 1e-3;
  ResetCountingCard card(link);
  card.inner().set_use_fast_run(config.fast);
  ProbeTarget<ThorRdTarget> target(nullptr, &card);
  GoldenProducts products;
  CollectGolden(
      target, config, want_cache, want_trace,
      [&](cpu::StateHasher* hasher) {
        ASSERT_TRUE(card.HashTargetState(hasher).ok());
      },
      &products);
  products.resets = card.resets();
  return products;
}

GoldenProducts BuildSwifiGolden(const GoldenConfig& config, bool want_cache,
                                bool want_trace) {
  ProbeTarget<SwifiSimTarget> target(nullptr);
  target.set_use_fast_run(config.fast);
  GoldenProducts products;
  CollectGolden(
      target, config, want_cache, want_trace,
      [&](cpu::StateHasher* hasher) {
        // Hashing canonicalizes the memory delta in place without changing
        // its contents; the target exposes its CPU read-only.
        const_cast<cpu::Cpu&>(target.cpu()).HashExecutionState(hasher);
      },
      &products);
  return products;
}

void ExpectSameGoldenProducts(const GoldenProducts& combined,
                              const GoldenProducts& cache_only,
                              const GoldenProducts& trace_only) {
  ASSERT_FALSE(cache_only.checkpoint_instrets.empty());
  EXPECT_EQ(combined.checkpoint_instrets, cache_only.checkpoint_instrets);
  EXPECT_EQ(combined.restored_blobs, cache_only.restored_blobs);
  EXPECT_EQ(combined.restored_states, cache_only.restored_states);

  const GoldenTrace& a = combined.trace;
  const GoldenTrace& b = trace_only.trace;
  ASSERT_TRUE(b.has_final_state());
  EXPECT_EQ(a.interval(), b.interval());
  EXPECT_EQ(a.campaign_name(), b.campaign_name());
  ASSERT_EQ(a.boundaries().size(), b.boundaries().size());
  for (size_t i = 0; i < a.boundaries().size(); ++i) {
    EXPECT_EQ(a.boundaries()[i].instret, b.boundaries()[i].instret) << i;
    EXPECT_EQ(a.boundaries()[i].hash, b.boundaries()[i].hash) << i;
    EXPECT_EQ(a.boundaries()[i].blob, b.boundaries()[i].blob) << i;
  }
  EXPECT_EQ(a.final_state().Serialize(), b.final_state().Serialize());
  ASSERT_EQ(a.detail_rows().size(), b.detail_rows().size());
  for (size_t i = 0; i < a.detail_rows().size(); ++i) {
    EXPECT_EQ(a.detail_rows()[i].Serialize(), b.detail_rows()[i].Serialize())
        << i;
  }
  EXPECT_EQ(a.detail_complete(), b.detail_complete());
}

TEST(CheckpointTest, ThorCombinedGoldenRunMatchesSeparateBuilds) {
  for (bool plant : {false, true}) {
    for (LogMode mode : {LogMode::kNormal, LogMode::kDetail}) {
      for (bool fast : {true, false}) {
        for (bool noisy : {false, true}) {
          GoldenConfig config;
          config.campaign = plant ? ThorControlCampaign("gp_thor")
                                  : ThorScifiCampaign("gp_thor");
          config.campaign.log_mode = mode;
          config.fast = fast;
          config.noisy = noisy;
          SCOPED_TRACE(util::Format("plant=%d detail=%d fast=%d noisy=%d",
                                    plant, mode == LogMode::kDetail, fast,
                                    noisy));
          const GoldenProducts combined = BuildThorGolden(config, true, true);
          ExpectSameGoldenProducts(combined,
                                   BuildThorGolden(config, true, false),
                                   BuildThorGolden(config, false, true));
          if (mode == LogMode::kDetail) {
            EXPECT_FALSE(combined.trace.detail_rows().empty());
            // The trace comes from the detail loop; the cache from RunLoop.
            EXPECT_EQ(combined.resets, 2);
          } else {
            EXPECT_EQ(combined.resets, 1) << "one golden pass, one reset";
          }
        }
      }
    }
  }
}

TEST(CheckpointTest, SwifiCombinedGoldenRunMatchesSeparateBuilds) {
  for (bool plant : {false, true}) {
    for (bool fast : {true, false}) {
      GoldenConfig config;
      config.campaign = plant ? SwifiControlCampaign("gp_swifi")
                              : SwifiRuntimeCampaign("gp_swifi");
      config.fast = fast;
      SCOPED_TRACE(util::Format("plant=%d fast=%d", plant, fast));
      ExpectSameGoldenProducts(BuildSwifiGolden(config, true, true),
                               BuildSwifiGolden(config, true, false),
                               BuildSwifiGolden(config, false, true));
    }
  }
}

}  // namespace
}  // namespace goofi::core
