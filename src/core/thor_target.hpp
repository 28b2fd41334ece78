// ThorRdTarget: the TargetSystemInterface for the (simulated) Thor RD
// target system.
//
// In the paper's architecture, each supported target system contributes one
// TargetSystemInterface class that inherits FaultInjectionAlgorithms and
// implements its abstract methods (Fig. 1-3). This class binds them to the
// simulated test card: scan access goes through the IEEE 1149.1 TAP, debug
// events through the scan-logic breakpoint unit, memory access through the
// host port, and loop-iteration boundaries exchange data with the workload's
// environment simulator (Fig. 1).
#pragma once

#include <map>
#include <memory>

#include "core/algorithms.hpp"
#include "env/environment.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"
#include "testcard/testcard.hpp"
#include "util/crc32.hpp"

namespace goofi::core {

class ThorRdTarget : public FaultInjectionAlgorithms {
 public:
  /// `card` must outlive the target.
  ThorRdTarget(CampaignStore* store, testcard::TestCard* card);

  /// Configuration-phase output (paper Fig. 5): the target description that
  /// is stored in the TargetSystemData table, listing every scan chain cell
  /// with its width and read-only flag.
  static TargetSystemData DescribeTarget(const testcard::TestCard& card,
                                         const std::string& name);

  /// The default name this target registers under.
  static constexpr const char* kTargetName = "thor-rd-sim";

  /// Checkpoint fast-forward support: the golden run snapshots the full
  /// card state (CPU, caches, memory delta, TAP, debug unit) plus the
  /// environment simulator, iteration count and actuator CRC. The same pass
  /// records the convergence-pruning GoldenTrace (per-boundary state digests
  /// + golden final outcome) when asked for one; only a detail-mode build of
  /// both products takes a second pass (see GoldenPass).
  bool SupportsCheckpoints() const override { return true; }
  util::Status BuildGoldenRun(uint64_t interval, CheckpointCache* cache,
                              GoldenTrace* trace) override;
  util::Status PrepareGoldenBaseline() override { return EnsureWarmBaseline(); }

  /// COW memory observability: the simulated CPU's main memory.
  const cpu::Memory* TargetMemory() const override {
    return &card_->cpu().memory();
  }

 protected:
  util::Status RestoreCheckpoint(const Checkpoint& checkpoint) override;

  util::Status InitTestCard() override;
  util::Status LoadWorkload() override;
  util::Status WriteMemory() override;
  util::Status RunWorkload() override;
  util::Status WaitForBreakpoint() override;
  util::Status ReadScanChain() override;
  util::Status InjectFault() override;
  util::Status WriteScanChain() override;
  util::Status WaitForTermination() override;
  util::Status ReadMemory() override;
  util::Status MutateImage() override;
  util::Status InjectMemoryFault() override;
  util::Result<std::vector<FaultCandidate>> EnumerateFaultSpace(
      const FaultLocationSelector& selector) override;
  util::Result<LoggedState> CollectState() override;

 private:
  /// Assembles the campaign's workload if not already cached and resolves
  /// its I/O layout (environment words, loop boundary, result location).
  util::Status EnsureWorkload();

  /// Reads actuator words, advances the environment, writes sensor words.
  util::Status ServiceIteration();

  /// Arms the debug triggers appropriate for the current phase.
  void ArmTriggers(bool with_injection_breakpoint, bool with_reactivation);

  /// Re-applies non-transient faults during WaitForTermination.
  util::Status ReactivateFaults();

  /// Runs the target until an event, servicing iteration boundaries.
  /// Returns when the injection breakpoint fires (`stop_at_breakpoint`) or a
  /// termination condition is reached.
  util::Status RunLoop(bool stop_at_breakpoint);

  /// Detail-mode variant: single-steps, logging state per instruction.
  util::Status RunLoopDetail();

  /// True when a termination condition has been reached.
  bool Terminated() const;

  /// Establishes the memory delta baseline for the prepared workload (the
  /// deterministic cold prologue: InitTestCard/LoadWorkload/WriteMemory +
  /// MarkMemoryBaseline). Each worker runs this once per workload, so a
  /// shared cache's deltas restore against an identical baseline — and so
  /// canonical memory hashing has a baseline to digest against.
  util::Status EnsureWarmBaseline();

  /// Captures the current golden-run state into `cache`.
  util::Status CaptureCheckpoint(CheckpointCache* cache);

  /// One golden pass: the fault-free workload driven through the experiment
  /// run loop (RunLoopDetail when recording a detail-mode `trace`, RunLoop
  /// otherwise) with the loop-top boundary hook filling `cache` and/or
  /// `trace`. Using the experiment loops guarantees the boundary program
  /// points, the branch-order corner cases around iteration servicing and
  /// the final outcome are exactly what an experiment reaches.
  util::Status GoldenPass(uint64_t interval, CheckpointCache* cache,
                          GoldenTrace* trace);

  /// Digests everything that can shape the rest of this experiment: the card
  /// state (CPU + conditional link-noise RNG) plus the host-side per-
  /// experiment accumulators (actuator CRC, iteration count, plant state).
  util::Status HashTargetNow(cpu::StateHasher* hasher);

  /// Whether the experiment that just finished injecting qualifies for
  /// convergence pruning against the installed golden trace.
  bool CanPruneExperiment() const;

  /// Boundary action for the run loops when prune_next_check_ is reached:
  /// capture (golden pass) or compare-and-maybe-converge (experiment).
  /// Advances prune_next_check_ to the next interval multiple; may set
  /// converged_ or clear prune_active_. Does not re-arm triggers.
  util::Status AtBoundary();

  testcard::TestCard* card_;

  // Cached workload.
  env::WorkloadSpec workload_;
  isa::AssembledProgram program_;
  bool workload_ready_ = false;

  std::unique_ptr<env::EnvironmentSimulator> environment_;
  uint32_t input_addr_ = 0;
  uint32_t output_addr_ = 0;
  uint32_t loop_end_addr_ = 0;
  uint32_t result_addr_ = 0;

  // Per-experiment bookkeeping.
  int iterations_ = 0;
  bool timed_out_ = false;
  bool injection_done_ = false;
  bool terminated_before_injection_ = false;
  uint32_t activations_done_ = 0;
  uint64_t next_activation_ = 0;
  util::Crc32 actuator_crc_;
  std::vector<uint32_t> outputs_;
  std::map<std::string, util::BitVec> inject_images_;  ///< read-modify-write
  std::map<std::string, std::string> observe_images_;  ///< logged at the end

  int iteration_trigger_ = -1;
  int breakpoint_trigger_ = -1;
  int reactivation_trigger_ = -1;
  int prune_trigger_ = -1;

  // Convergence-pruning state for the current run phase. prune_active_ turns
  // the boundary machinery on; converged_ means the rest of the run is
  // synthesized from synth_state_ (ReadMemory/ReadScanChain/CollectState
  // short-circuit). reactivation_armed_ mirrors the last ArmTriggers
  // reactivation flag so boundary re-arms preserve it.
  bool prune_active_ = false;
  bool converged_ = false;
  uint64_t prune_next_check_ = 0;
  bool reactivation_armed_ = false;
  LoggedState synth_state_;
  // Golden-pass products; golden_interval_ is nonzero only during GoldenPass.
  uint64_t golden_interval_ = 0;
  CheckpointCache* capture_cache_ = nullptr;
  GoldenTrace* capture_trace_ = nullptr;

  // First post-injection boundary whose state diverged from golden: the
  // cross-experiment memo candidate, inserted with the experiment's final
  // LoggedState in CollectState.
  bool memo_pending_ = false;
  uint64_t memo_instret_ = 0;
  uint64_t memo_hash_ = 0;
  std::vector<uint8_t> memo_blob_;

  /// Plant-state buffer reused across boundary hashes.
  std::vector<double> env_state_scratch_;

  /// Workload the memory baseline was established for; empty = none yet.
  std::string warm_ready_workload_;

  /// Workload whose downloaded image was declared the shared golden set
  /// (once per workload, at first LoadWorkload); empty = none yet.
  std::string golden_image_workload_;

  /// Capture buffer reused across detail-mode scan-chain reads.
  util::BitVec detail_capture_;
};

}  // namespace goofi::core
