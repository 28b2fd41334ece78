// Out-of-program tracing for the campaign benchmark.
//
// Every span is recorded from the benchmark's own files, around calls into a
// layer of the library: bench subclasses of the two targets override each
// FaultInjectionAlgorithms building block and call the base, a forwarding
// TestCard decorator wraps the simulated test card, and a forwarding
// DatabaseObserver sits in front of the campaign archive. src/ is untouched,
// and the untraced benchmark modes use the library's own targets, so tracing
// costs nothing there.
//
// Spans are aggregated in memory per thread (per worker) while the run goes
// and merged when it ends: per span kind, the inclusive time and the self
// time (inclusive minus the time of child spans on the same thread).
// Core-level spans do not nest: a building block that a target calls from
// inside another one (the cold prologue inside BuildGoldenRun or
// RestoreCheckpoint) counts as part of the outer block.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/parallel_runner.hpp"
#include "core/swifi_target.hpp"
#include "core/thor_target.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"

namespace perfbench {

enum class SpanKind : int {
  // core: FaultInjectionAlgorithms building blocks (inclusive time)
  kPrologue,     ///< InitTestCard + LoadWorkload + WriteMemory + RunWorkload
  kRestore,      ///< RestoreCheckpoint
  kToInjection,  ///< WaitForBreakpoint
  kInject,       ///< Read/Inject/WriteScanChain before termination,
                 ///< InjectMemoryFault, MutateImage
  kToEnd,        ///< WaitForTermination
  kCollect,      ///< ReadMemory + CollectState + observation ReadScanChain
  kGolden,       ///< BuildGoldenRun + PrepareGoldenBaseline
  kTimeline,     ///< LivenessAnalyzer build (timed by campaign_bench)
  kStatic,       ///< StaticAnalysisCache::Get (timed by campaign_bench)
  // testcard / scan: leaf calls on the TestCard decorator
  kSim,       ///< Run + SingleStep
  kHash,      ///< HashTargetState
  kSnapshot,  ///< SaveSnapshot + RestoreSnapshot + MarkMemoryBaseline
  kReset,     ///< Init + LoadWorkload + ResetTarget
  kMemIo,     ///< WriteMemory + ReadMemory
  kScan,      ///< ReadScanChain(Into) + WriteScanChain
  // db: observer callbacks
  kDbInsert,  ///< InsertBatch bracket, or a single-row insert callback
  kNumKinds,
};
constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kNumKinds);

/// Per-thread (and, after Collect, merged) aggregates.
struct TraceTotals {
  std::array<double, kNumSpanKinds> inclusive_s{};
  std::array<double, kNumSpanKinds> self_s{};
  uint64_t run_calls = 0;   ///< TestCard::Run invocations
  uint64_t instret = 0;     ///< instructions retired inside simulation calls
  uint64_t chain_ops = 0;   ///< scan-chain reads + writes
  uint64_t scan_bits = 0;   ///< bits shifted by those operations
  uint64_t db_rows = 0;     ///< rows seen by the insert observer
  /// Durations of top-level experiments (first prologue/restore block to
  /// CollectState), in microseconds.
  std::vector<double> experiment_us;

  void Merge(const TraceTotals& other);
  double SelfSum() const;
};

/// Process-wide trace collector. Reset() starts a fresh collection; spans of
/// any thread then land in that thread's buffer; Collect() merges them. Call
/// both only while no traced work runs.
class Trace {
 public:
  static void Reset();
  static TraceTotals Collect();
  /// The calling thread's spans of the current collection.
  static TraceTotals CollectCurrentThread();
};

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanKind kind_;
  bool active_;
};

/// Unscoped spans for callback brackets that open and close in different
/// calls on one thread (the observer's insert-batch bracket).
void OpenSpan(SpanKind kind);
void CloseSpan();

/// Counter hooks for the decorators.
void CountRun(uint64_t instret);
void CountInstret(uint64_t instret);
void CountScan(uint64_t bits);
void CountDbRow();

/// Whether a core-level span is open on this thread.
bool InCoreSpan();
/// Records one finished top-level experiment.
void RecordExperiment(std::chrono::steady_clock::time_point start);

/// Forwarding TestCard decorator that times every call into the card.
class TracingCard final : public goofi::testcard::TestCard {
 public:
  explicit TracingCard(goofi::testcard::TestCard* inner) : inner_(inner) {}

  goofi::util::Status Init() override;
  goofi::util::Status LoadWorkload(
      const goofi::isa::AssembledProgram& program) override;
  goofi::util::Status ResetTarget() override;
  goofi::util::Status WriteMemory(uint32_t address,
                                  const std::vector<uint32_t>& words) override;
  goofi::util::Result<std::vector<uint32_t>> ReadMemory(
      uint32_t address, uint32_t num_words) override;
  int AddTrigger(const goofi::scan::Trigger& trigger) override {
    return inner_->AddTrigger(trigger);
  }
  void ClearTriggers() override { inner_->ClearTriggers(); }
  goofi::scan::DebugRunResult Run(uint64_t max_cycles) override;
  bool use_fast_run() const override { return inner_->use_fast_run(); }
  goofi::cpu::StepOutcome SingleStep() override;
  goofi::util::Result<goofi::util::BitVec> ReadScanChain(
      const std::string& chain, bool restore) override;
  goofi::util::Status WriteScanChain(const std::string& chain,
                                     const goofi::util::BitVec& image) override;
  goofi::util::Status ReadScanChainInto(const std::string& chain, bool restore,
                                        goofi::util::BitVec* out) override;
  goofi::util::Status MarkMemoryBaseline() override;
  goofi::util::Result<goofi::testcard::CardSnapshot> SaveSnapshot() override;
  goofi::util::Status RestoreSnapshot(
      const goofi::testcard::CardSnapshot& snapshot) override;
  bool SupportsStateHash() const override {
    return inner_->SupportsStateHash();
  }
  goofi::util::Status HashTargetState(goofi::cpu::StateHasher* hasher) override;
  const goofi::scan::ScanChainSet& chains() const override {
    return inner_->chains();
  }
  const goofi::cpu::Cpu& cpu() const override { return inner_->cpu(); }
  goofi::cpu::Cpu& mutable_cpu() override { return inner_->mutable_cpu(); }
  double link_time_us() const override { return inner_->link_time_us(); }

 private:
  goofi::testcard::TestCard* inner_;
};

/// Forwarding DatabaseObserver: times inserts, then hands every event to
/// the wrapped observer (the campaign archive), if any.
class TracingObserver final : public goofi::db::DatabaseObserver {
 public:
  explicit TracingObserver(goofi::db::DatabaseObserver* inner) : inner_(inner) {}

  void OnInsert(const goofi::db::Table& table,
                const goofi::db::Row& row) override;
  void OnDelete(const goofi::db::Table& table,
                const std::vector<goofi::db::Row>& removed) override;
  void OnUpdate(const goofi::db::Table& table,
                const std::vector<std::pair<goofi::db::Row, goofi::db::Row>>&
                    changes) override;
  void OnInsertBatchBegin(const goofi::db::Table& table) override;
  void OnInsertBatchEnd(const goofi::db::Table& table, bool committed) override;
  void OnCreateTable(const goofi::db::Schema& schema) override;
  void OnDropTable(const std::string& name) override;
  void OnCreateIndex(const goofi::db::Table& table, const std::string& name,
                     const std::vector<std::string>& columns,
                     goofi::db::IndexKind kind) override;
  void OnDropIndex(const goofi::db::Table& table,
                   const std::string& name) override;

 private:
  goofi::db::DatabaseObserver* inner_;
  bool in_batch_ = false;
};

/// Builds traced Thor RD stacks (ThorRdTarget subclass + TracingCard around a
/// SimTestCard) sharing one golden-image registry, like
/// core::MakeSimThorFactory.
goofi::core::ParallelCampaignRunner::TargetFactory MakeTracedThorFactory(
    goofi::core::CampaignStore* store);
/// Builds traced SwifiSimTarget subclasses, like core::MakeSwifiSimFactory.
goofi::core::ParallelCampaignRunner::TargetFactory MakeTracedSwifiFactory(
    goofi::core::CampaignStore* store);

}  // namespace perfbench
