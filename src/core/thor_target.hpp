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
#include "core/workload_binding.hpp"
#include "testcard/testcard.hpp"

namespace goofi::core {

class ThorRdTarget : public FaultInjectionAlgorithms,
                     private BoundaryEngine::Host {
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
  /// Reads actuator words, advances the environment, writes sensor words.
  util::Status ServiceIteration();

  /// Arms the debug triggers appropriate for the current phase.
  void ArmTriggers(bool with_injection_breakpoint, bool with_reactivation);

  /// Re-applies non-transient faults during WaitForTermination.
  util::Status ReactivateFaults();

  /// Applies the scan faults of `faults_` to the chain images in `images`
  /// (one per faulted chain). An image whose size is not its chain's length
  /// (link noise redirected the read to another chain) is refused before
  /// any bit is touched, with the status WriteScanChain would give it.
  util::Status FlipScanFaults(std::map<std::string, util::BitVec>* images) const;

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

  /// One golden pass: the fault-free workload driven through the experiment
  /// run loop (RunLoopDetail when recording a detail-mode `trace`, RunLoop
  /// otherwise) with the loop-top boundary hook filling `cache` and/or
  /// `trace`. Using the experiment loops guarantees the boundary program
  /// points, the branch-order corner cases around iteration servicing and
  /// the final outcome are exactly what an experiment reaches.
  util::Status GoldenPass(uint64_t interval, CheckpointCache* cache,
                          GoldenTrace* trace);

  /// Whether the experiment that just finished injecting qualifies for
  /// convergence pruning against the installed golden trace.
  bool CanPruneExperiment() const;

  /// The run loops' boundary stop: the engine's boundary action, with the
  /// compare held back while an intermittent burst is still re-activating
  /// (future behaviour then depends on host-side reactivation state the
  /// digest does not cover).
  util::Status AtBoundary();

  // BoundaryEngine::Host: the card state (CPU + conditional link-noise RNG)
  // plus the host-side accumulators; the full card snapshot plus the same
  // accumulators.
  util::Status HashBoundaryState(cpu::StateHasher* hasher) override;
  util::Status CaptureCheckpoint(CheckpointCache* cache) override;

  testcard::TestCard* card_;
  WorkloadBinding workload_;
  BoundaryEngine boundary_;

  // Per-experiment bookkeeping.
  bool timed_out_ = false;
  bool injection_done_ = false;
  bool terminated_before_injection_ = false;
  uint32_t activations_done_ = 0;
  uint64_t next_activation_ = 0;
  std::vector<uint32_t> outputs_;
  std::map<std::string, util::BitVec> inject_images_;  ///< read-modify-write
  std::map<std::string, std::string> observe_images_;  ///< logged at the end

  int iteration_trigger_ = -1;
  int breakpoint_trigger_ = -1;
  int reactivation_trigger_ = -1;
  int prune_trigger_ = -1;
  /// The last ArmTriggers reactivation flag, so boundary re-arms keep it.
  bool reactivation_armed_ = false;

  /// Workload the memory baseline was established for; empty = none yet.
  std::string warm_ready_workload_;

  /// Workload whose downloaded image was declared the shared golden set
  /// (once per workload, at first LoadWorkload); empty = none yet.
  std::string golden_image_workload_;

  /// Capture buffer reused across detail-mode scan-chain reads.
  util::BitVec detail_capture_;
};

}  // namespace goofi::core
