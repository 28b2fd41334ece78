#include "tracing.hpp"

#include <atomic>
#include <mutex>

namespace perfbench {

namespace core = goofi::core;
namespace db = goofi::db;
namespace util = goofi::util;
using Clock = std::chrono::steady_clock;

void TraceTotals::Merge(const TraceTotals& other) {
  for (int k = 0; k < kNumSpanKinds; ++k) {
    inclusive_s[k] += other.inclusive_s[k];
    self_s[k] += other.self_s[k];
  }
  run_calls += other.run_calls;
  instret += other.instret;
  chain_ops += other.chain_ops;
  scan_bits += other.scan_bits;
  db_rows += other.db_rows;
  experiment_us.insert(experiment_us.end(), other.experiment_us.begin(),
                       other.experiment_us.end());
}

double TraceTotals::SelfSum() const {
  double sum = 0;
  for (double s : self_s) sum += s;
  return sum;
}

namespace {

bool IsCore(SpanKind kind) { return kind < SpanKind::kSim; }

struct Frame {
  SpanKind kind;
  Clock::time_point start;
  double child_s;
};

struct ThreadState {
  TraceTotals totals;
  std::vector<Frame> stack;
  int core_depth = 0;
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_mutex
std::atomic<uint64_t> g_generation{1};

thread_local ThreadState* t_state = nullptr;
thread_local uint64_t t_generation = 0;

// The calling thread's buffer for the current collection. A thread seen for
// the first time since Reset() registers a fresh one.
ThreadState& State() {
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (t_state == nullptr || t_generation != generation) {
    auto fresh = std::make_unique<ThreadState>();
    std::lock_guard<std::mutex> lock(g_mutex);
    t_state = fresh.get();
    t_generation = generation;
    g_threads.push_back(std::move(fresh));
  }
  return *t_state;
}

// Opens a frame unless `kind` is a core span nested in another core span.
bool Open(SpanKind kind) {
  ThreadState& state = State();
  if (IsCore(kind) && ++state.core_depth > 1) return false;
  state.stack.push_back({kind, Clock::now(), 0.0});
  return true;
}

void Close(SpanKind kind, bool active) {
  ThreadState& state = State();
  if (IsCore(kind)) --state.core_depth;
  if (!active || state.stack.empty()) return;
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const double duration =
      std::chrono::duration<double>(Clock::now() - frame.start).count();
  const int k = static_cast<int>(frame.kind);
  state.totals.inclusive_s[k] += duration;
  state.totals.self_s[k] += duration - frame.child_s;
  if (!state.stack.empty()) state.stack.back().child_s += duration;
}

}  // namespace

void Trace::Reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_threads.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

TraceTotals Trace::Collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  TraceTotals totals;
  for (const auto& state : g_threads) totals.Merge(state->totals);
  return totals;
}

TraceTotals Trace::CollectCurrentThread() {
  const ThreadState& state = State();
  std::lock_guard<std::mutex> lock(g_mutex);
  return state.totals;
}

Span::Span(SpanKind kind) : kind_(kind), active_(Open(kind)) {}
Span::~Span() { Close(kind_, active_); }

void OpenSpan(SpanKind kind) { (void)Open(kind); }
void CloseSpan() {
  ThreadState& state = State();
  if (!state.stack.empty()) Close(state.stack.back().kind, true);
}

void CountRun(uint64_t instret) {
  ThreadState& state = State();
  ++state.totals.run_calls;
  state.totals.instret += instret;
}
void CountInstret(uint64_t instret) { State().totals.instret += instret; }
void CountScan(uint64_t bits) {
  ThreadState& state = State();
  ++state.totals.chain_ops;
  state.totals.scan_bits += bits;
}
void CountDbRow() { ++State().totals.db_rows; }

bool InCoreSpan() { return State().core_depth > 0; }

void RecordExperiment(Clock::time_point start) {
  State().totals.experiment_us.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - start).count());
}

// --- TracingCard -------------------------------------------------------------

util::Status TracingCard::Init() {
  Span span(SpanKind::kReset);
  return inner_->Init();
}

util::Status TracingCard::LoadWorkload(
    const goofi::isa::AssembledProgram& program) {
  Span span(SpanKind::kReset);
  return inner_->LoadWorkload(program);
}

util::Status TracingCard::ResetTarget() {
  Span span(SpanKind::kReset);
  return inner_->ResetTarget();
}

util::Status TracingCard::WriteMemory(uint32_t address,
                                      const std::vector<uint32_t>& words) {
  Span span(SpanKind::kMemIo);
  return inner_->WriteMemory(address, words);
}

util::Result<std::vector<uint32_t>> TracingCard::ReadMemory(
    uint32_t address, uint32_t num_words) {
  Span span(SpanKind::kMemIo);
  return inner_->ReadMemory(address, num_words);
}

goofi::scan::DebugRunResult TracingCard::Run(uint64_t max_cycles) {
  Span span(SpanKind::kSim);
  const uint64_t before = inner_->cpu().instructions_retired();
  goofi::scan::DebugRunResult result = inner_->Run(max_cycles);
  CountRun(inner_->cpu().instructions_retired() - before);
  return result;
}

goofi::cpu::StepOutcome TracingCard::SingleStep() {
  Span span(SpanKind::kSim);
  const uint64_t before = inner_->cpu().instructions_retired();
  const goofi::cpu::StepOutcome outcome = inner_->SingleStep();
  CountInstret(inner_->cpu().instructions_retired() - before);
  return outcome;
}

util::Result<util::BitVec> TracingCard::ReadScanChain(const std::string& chain,
                                                      bool restore) {
  Span span(SpanKind::kScan);
  auto image = inner_->ReadScanChain(chain, restore);
  if (image.ok()) CountScan(image.value().size());
  return image;
}

util::Status TracingCard::WriteScanChain(const std::string& chain,
                                         const util::BitVec& image) {
  Span span(SpanKind::kScan);
  CountScan(image.size());
  return inner_->WriteScanChain(chain, image);
}

util::Status TracingCard::ReadScanChainInto(const std::string& chain,
                                            bool restore, util::BitVec* out) {
  Span span(SpanKind::kScan);
  util::Status status = inner_->ReadScanChainInto(chain, restore, out);
  if (status.ok()) CountScan(out->size());
  return status;
}

util::Status TracingCard::MarkMemoryBaseline() {
  Span span(SpanKind::kSnapshot);
  return inner_->MarkMemoryBaseline();
}

util::Result<goofi::testcard::CardSnapshot> TracingCard::SaveSnapshot() {
  Span span(SpanKind::kSnapshot);
  return inner_->SaveSnapshot();
}

util::Status TracingCard::RestoreSnapshot(
    const goofi::testcard::CardSnapshot& snapshot) {
  Span span(SpanKind::kSnapshot);
  return inner_->RestoreSnapshot(snapshot);
}

util::Status TracingCard::HashTargetState(goofi::cpu::StateHasher* hasher) {
  Span span(SpanKind::kHash);
  return inner_->HashTargetState(hasher);
}

// --- TracingObserver -----------------------------------------------------------

void TracingObserver::OnInsert(const db::Table& table, const db::Row& row) {
  CountDbRow();
  if (in_batch_) {
    if (inner_ != nullptr) inner_->OnInsert(table, row);
    return;
  }
  // A single-row insert reports after the row is in the table, so only the
  // callback (the archive's WAL append) is visible from here.
  Span span(SpanKind::kDbInsert);
  if (inner_ != nullptr) inner_->OnInsert(table, row);
}

void TracingObserver::OnDelete(const db::Table& table,
                               const std::vector<db::Row>& removed) {
  if (inner_ != nullptr) inner_->OnDelete(table, removed);
}

void TracingObserver::OnUpdate(
    const db::Table& table,
    const std::vector<std::pair<db::Row, db::Row>>& changes) {
  if (inner_ != nullptr) inner_->OnUpdate(table, changes);
}

void TracingObserver::OnInsertBatchBegin(const db::Table& table) {
  OpenSpan(SpanKind::kDbInsert);
  in_batch_ = true;
  if (inner_ != nullptr) inner_->OnInsertBatchBegin(table);
}

void TracingObserver::OnInsertBatchEnd(const db::Table& table, bool committed) {
  if (inner_ != nullptr) inner_->OnInsertBatchEnd(table, committed);
  in_batch_ = false;
  CloseSpan();
}

void TracingObserver::OnCreateTable(const db::Schema& schema) {
  if (inner_ != nullptr) inner_->OnCreateTable(schema);
}

void TracingObserver::OnDropTable(const std::string& name) {
  if (inner_ != nullptr) inner_->OnDropTable(name);
}

void TracingObserver::OnCreateIndex(const db::Table& table,
                                    const std::string& name,
                                    const std::vector<std::string>& columns,
                                    db::IndexKind kind) {
  if (inner_ != nullptr) inner_->OnCreateIndex(table, name, columns, kind);
}

void TracingObserver::OnDropIndex(const db::Table& table,
                                  const std::string& name) {
  if (inner_ != nullptr) inner_->OnDropIndex(table, name);
}

// --- traced targets ------------------------------------------------------------

namespace {

/// Overrides every building block of `Base` with a timed call to the base.
/// A top-level InitTestCard or RestoreCheckpoint opens an experiment and the
/// top-level CollectState that follows closes it.
template <class Base>
class Traced : public Base {
 public:
  using Base::Base;

  util::Status BuildGoldenRun(uint64_t interval, core::CheckpointCache* cache,
                              core::GoldenTrace* trace) override {
    Span span(SpanKind::kGolden);
    return Base::BuildGoldenRun(interval, cache, trace);
  }
  util::Status PrepareGoldenBaseline() override {
    Span span(SpanKind::kGolden);
    return Base::PrepareGoldenBaseline();
  }

 protected:
  util::Status RestoreCheckpoint(const core::Checkpoint& checkpoint) override {
    StartExperiment();
    Span span(SpanKind::kRestore);
    return Base::RestoreCheckpoint(checkpoint);
  }
  util::Status InitTestCard() override {
    StartExperiment();
    Span span(SpanKind::kPrologue);
    return Base::InitTestCard();
  }
  util::Status LoadWorkload() override {
    Span span(SpanKind::kPrologue);
    return Base::LoadWorkload();
  }
  util::Status WriteMemory() override {
    Span span(SpanKind::kPrologue);
    return Base::WriteMemory();
  }
  util::Status RunWorkload() override {
    Span span(SpanKind::kPrologue);
    return Base::RunWorkload();
  }
  util::Status WaitForBreakpoint() override {
    Span span(SpanKind::kToInjection);
    return Simulate([this] { return Base::WaitForBreakpoint(); });
  }
  util::Status ReadScanChain() override {
    // The SCIFI body reads chains twice: to inject, and to observe after
    // termination.
    Span span(after_end_ ? SpanKind::kCollect : SpanKind::kInject);
    return Base::ReadScanChain();
  }
  util::Status InjectFault() override {
    Span span(SpanKind::kInject);
    return Base::InjectFault();
  }
  util::Status WriteScanChain() override {
    Span span(SpanKind::kInject);
    return Base::WriteScanChain();
  }
  util::Status InjectMemoryFault() override {
    Span span(SpanKind::kInject);
    return Base::InjectMemoryFault();
  }
  util::Status MutateImage() override {
    Span span(SpanKind::kInject);
    return Base::MutateImage();
  }
  util::Status WaitForTermination() override {
    if (!InCoreSpan()) after_end_ = true;
    Span span(SpanKind::kToEnd);
    return Simulate([this] { return Base::WaitForTermination(); });
  }
  util::Status ReadMemory() override {
    Span span(SpanKind::kCollect);
    return Base::ReadMemory();
  }
  util::Result<core::LoggedState> CollectState() override {
    const bool top_level = !InCoreSpan();
    util::Result<core::LoggedState> state = [this] {
      Span span(SpanKind::kCollect);
      return Base::CollectState();
    }();
    if (top_level && experiment_open_) {
      RecordExperiment(experiment_start_);
      experiment_open_ = false;
    }
    return state;
  }

 private:
  void StartExperiment() {
    if (InCoreSpan()) return;
    experiment_open_ = true;
    experiment_start_ = Clock::now();
    after_end_ = false;
  }

  // Targets without a test card simulate inside the run blocks; count their
  // retired instructions here (the TracingCard counts them for the others).
  template <class Fn>
  util::Status Simulate(Fn&& run) {
    if constexpr (requires(const Base& b) { b.cpu().instructions_retired(); }) {
      const uint64_t before = this->cpu().instructions_retired();
      util::Status status = run();
      CountInstret(this->cpu().instructions_retired() - before);
      return status;
    } else {
      return run();
    }
  }

  bool after_end_ = false;
  bool experiment_open_ = false;
  Clock::time_point experiment_start_;
};

/// ThorRdTarget holds a non-owning TestCard*; this bundles the simulated
/// card and its decorator with the target, as core::MakeSimThorFactory does.
class TracedThorStack final : public Traced<core::ThorRdTarget> {
 public:
  TracedThorStack(core::CampaignStore* store,
                  std::unique_ptr<goofi::testcard::SimTestCard> card,
                  std::unique_ptr<TracingCard> tracing)
      : Traced<core::ThorRdTarget>(store, tracing.get()),
        card_(std::move(card)),
        tracing_(std::move(tracing)) {}

 private:
  std::unique_ptr<goofi::testcard::SimTestCard> card_;
  std::unique_ptr<TracingCard> tracing_;
};

goofi::cpu::CpuConfig SharedConfig() {
  goofi::cpu::CpuConfig config;
  config.golden_registry = std::make_shared<goofi::cpu::GoldenRegistry>();
  return config;
}

}  // namespace

core::ParallelCampaignRunner::TargetFactory MakeTracedThorFactory(
    core::CampaignStore* store) {
  const goofi::cpu::CpuConfig config = SharedConfig();
  return [store, config]() -> std::unique_ptr<core::FaultInjectionAlgorithms> {
    auto card = std::make_unique<goofi::testcard::SimTestCard>(config);
    auto tracing = std::make_unique<TracingCard>(card.get());
    return std::make_unique<TracedThorStack>(store, std::move(card),
                                             std::move(tracing));
  };
}

core::ParallelCampaignRunner::TargetFactory MakeTracedSwifiFactory(
    core::CampaignStore* store) {
  const goofi::cpu::CpuConfig config = SharedConfig();
  return [store, config]() -> std::unique_ptr<core::FaultInjectionAlgorithms> {
    return std::make_unique<Traced<core::SwifiSimTarget>>(store, config);
  };
}

}  // namespace perfbench
