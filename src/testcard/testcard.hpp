// The test card: host-side adapter between GOOFI and the target system.
//
// In the paper's setup, the host talks to the Thor RD board through a test
// card that drives the IEEE 1149.1 test logic. The `initTestCard()` abstract
// method in FaultInjectionAlgorithms (Fig. 2) initializes exactly this
// object. `TestCard` is the interface the TargetSystemInterface classes
// program against; `SimTestCard` binds it to the simulated TRD32 target,
// routing every scan access through the TAP controller and accounting link
// time the way a real probe would: one TCK per clock, with each full-length
// Shift-DR applied as one block that counts one TCK per bit.
#pragma once

#include <memory>

#include "cpu/cpu.hpp"
#include "isa/assembler.hpp"
#include "scan/chain.hpp"
#include "scan/debug.hpp"
#include "scan/tap.hpp"
#include "util/rng.hpp"

namespace goofi::testcard {

/// Everything the test card and its target hold at one point in time: CPU
/// state (with memory as a dirty-page delta), TAP controller, debug-unit
/// triggers + occurrence counters, link-noise RNG and card bookkeeping.
/// Captured by the checkpoint engine during the golden run.
struct CardSnapshot {
  cpu::CpuSnapshot cpu;
  scan::TapController::Snapshot tap;
  scan::DebugUnit::Snapshot debug;
  util::Rng noise{0};
  uint32_t chain_select = 0;
  uint32_t entry = 0;
  double extra_us = 0.0;

  /// Approximate heap footprint, for checkpoint-store accounting.
  size_t MemoryBytes() const {
    return sizeof(CardSnapshot) + cpu.MemoryBytes() +
           debug.triggers.size() * sizeof(scan::Trigger) +
           debug.hit_counts.size() * sizeof(uint64_t);
  }
};

/// Host-visible target operations.
class TestCard {
 public:
  virtual ~TestCard() = default;

  /// Powers up / resets the card and the target test logic.
  virtual util::Status Init() = 0;

  /// Downloads a workload image and records its entry point.
  virtual util::Status LoadWorkload(const isa::AssembledProgram& program) = 0;

  /// Resets the target CPU to the loaded workload's entry point.
  virtual util::Status ResetTarget() = 0;

  /// Host memory access (through the test logic, bypassing CPU protection).
  virtual util::Status WriteMemory(uint32_t address,
                                   const std::vector<uint32_t>& words) = 0;
  virtual util::Result<std::vector<uint32_t>> ReadMemory(uint32_t address,
                                                         uint32_t num_words) = 0;

  /// Debug-event configuration (breakpoints / triggers).
  virtual int AddTrigger(const scan::Trigger& trigger) = 0;
  virtual void ClearTriggers() = 0;

  /// Runs the target until a debug event, halt, detection or cycle budget.
  virtual scan::DebugRunResult Run(uint64_t max_cycles) = 0;

  /// Whether Run() drives the target through the predecoded superblock fast
  /// path. Nothing in the library reads it: SimTestCard, whose Run() has one
  /// loop, reports a constant true and real hardware reports false. It stays
  /// only because the campaign benchmark's forwarding card overrides it
  /// (perfbench/tracing.hpp); drop it when that file is next edited.
  virtual bool use_fast_run() const { return false; }

  /// Executes exactly one instruction (detail mode logging).
  virtual cpu::StepOutcome SingleStep() = 0;

  /// Scan-chain access. `restore` re-writes the captured image after the
  /// (destructive) read shift so target state is preserved; the SCIFI
  /// read-modify-write path passes restore=false and follows up with
  /// WriteScanChain, exactly like the paper's
  /// readScanChain/injectFault/writeScanChain sequence.
  virtual util::Result<util::BitVec> ReadScanChain(const std::string& chain,
                                                   bool restore) = 0;
  virtual util::Status WriteScanChain(const std::string& chain,
                                      const util::BitVec& image) = 0;

  /// Like ReadScanChain but fills a caller-owned buffer, so per-instruction
  /// capture loops (detail-mode logging) avoid an allocation per read. The
  /// default forwards to ReadScanChain.
  virtual util::Status ReadScanChainInto(const std::string& chain, bool restore,
                                         util::BitVec* out) {
    auto captured = ReadScanChain(chain, restore);
    if (!captured.ok()) return captured.status();
    *out = std::move(captured).value();
    return util::Status::Ok();
  }

  // --- checkpointing (optional capability) ---------------------------------
  // Cards for real hardware cannot snapshot a live board; only simulated
  // cards implement these, and the defaults fail accordingly.

  /// Declares the target's current memory contents as the delta baseline.
  virtual util::Status MarkMemoryBaseline() {
    return util::FailedPrecondition(
        "this test card does not support checkpointing");
  }

  /// Captures the full card + target state.
  virtual util::Result<CardSnapshot> SaveSnapshot() {
    return util::FailedPrecondition(
        "this test card does not support checkpointing");
  }

  /// Restores a snapshot captured on an identically configured card whose
  /// memory baseline matches.
  virtual util::Status RestoreSnapshot(const CardSnapshot& snapshot) {
    (void)snapshot;
    return util::FailedPrecondition(
        "this test card does not support checkpointing");
  }

  // --- convergence hashing (optional capability) ---------------------------
  // Like checkpointing: requires full observability of the target, so only
  // simulated cards support it.

  /// Whether HashTargetState works on this card.
  virtual bool SupportsStateHash() const { return false; }

  /// Appends every piece of card + target state that can influence future
  /// execution to `hasher`. Two cards with equal digested streams behave
  /// identically from here on (given identical host-side driving).
  virtual util::Status HashTargetState(cpu::StateHasher* hasher) {
    (void)hasher;
    return util::FailedPrecondition(
        "this test card does not support state hashing");
  }

  /// Chain topology (for campaign configuration).
  virtual const scan::ScanChainSet& chains() const = 0;

  /// Target observation.
  virtual const cpu::Cpu& cpu() const = 0;
  virtual cpu::Cpu& mutable_cpu() = 0;

  /// Total host-side microseconds spent on link traffic so far (simulated).
  virtual double link_time_us() const = 0;
};

/// Link timing/noise model for the simulated card.
struct LinkConfig {
  double tck_mhz = 10.0;          ///< TCK frequency for scan traffic
  double op_overhead_us = 50.0;   ///< per-operation host/driver overhead
  double bit_error_rate = 0.0;    ///< probability a shifted TDI bit flips
  uint64_t noise_seed = 0xBADC0DE;
};

/// The simulated test card around a TRD32 target.
class SimTestCard final : public TestCard, private scan::TapController::DrHandler {
 public:
  explicit SimTestCard(const cpu::CpuConfig& cpu_config = cpu::CpuConfig(),
                       const LinkConfig& link_config = LinkConfig());

  util::Status Init() override;
  util::Status LoadWorkload(const isa::AssembledProgram& program) override;
  util::Status ResetTarget() override;
  util::Status WriteMemory(uint32_t address,
                           const std::vector<uint32_t>& words) override;
  util::Result<std::vector<uint32_t>> ReadMemory(uint32_t address,
                                                 uint32_t num_words) override;
  int AddTrigger(const scan::Trigger& trigger) override;
  void ClearTriggers() override;
  scan::DebugRunResult Run(uint64_t max_cycles) override;
  cpu::StepOutcome SingleStep() override;
  util::Result<util::BitVec> ReadScanChain(const std::string& chain,
                                           bool restore) override;
  util::Status WriteScanChain(const std::string& chain,
                              const util::BitVec& image) override;
  util::Status ReadScanChainInto(const std::string& chain, bool restore,
                                 util::BitVec* out) override;
  util::Status MarkMemoryBaseline() override;
  util::Result<CardSnapshot> SaveSnapshot() override;
  util::Status RestoreSnapshot(const CardSnapshot& snapshot) override;
  bool SupportsStateHash() const override { return true; }
  util::Status HashTargetState(cpu::StateHasher* hasher) override;
  const scan::ScanChainSet& chains() const override { return chains_; }
  const cpu::Cpu& cpu() const override { return *cpu_; }
  cpu::Cpu& mutable_cpu() override { return *cpu_; }
  double link_time_us() const override;

  /// TCK cycles issued so far (scan-cost accounting for benches).
  uint64_t tck_count() const { return tap_.tck_count(); }

  uint32_t workload_entry() const { return entry_; }

  bool use_fast_run() const override { return true; }

 private:
  // TapController::DrHandler:
  uint32_t DrLength(scan::TapInstruction instruction) override;
  util::BitVec CaptureDr(scan::TapInstruction instruction) override;
  void UpdateDr(scan::TapInstruction instruction,
                const util::BitVec& value) override;

  /// DR scan through the TAP with link noise applied to the TDI and TDO
  /// bits, one noise draw per bit in shift order. Writes the captured bits
  /// into `*captured`.
  void ShiftWithNoiseInto(const util::BitVec& out, util::BitVec* captured);

  /// Points INTEST at chain `index`: SCAN_N load plus a select scan, then
  /// the INTEST load.
  void SelectChain(int index);

  const scan::ScanChain* SelectedChain() const;

  std::unique_ptr<cpu::Cpu> cpu_;
  cpu::StateRegistry registry_;
  scan::ScanChainSet chains_;
  scan::TapController tap_;
  scan::DebugUnit debug_;
  LinkConfig link_;
  util::Rng noise_;

  uint32_t chain_select_ = 0;
  uint32_t entry_ = 0;
  double extra_us_ = 0.0;  ///< op overheads accumulated

  // Scratch buffers recycled across scan reads and writes.
  util::BitVec select_scratch_;
  util::BitVec shift_scratch_;
  util::BitVec zeros_scratch_;
  util::BitVec noisy_scratch_;  ///< TDI image after link noise
};

}  // namespace goofi::testcard
