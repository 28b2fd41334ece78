// SwifiSimTarget: a second target system, built from the Framework template.
//
// The paper's central genericity claim (§2.2) is that adapting GOOFI to a
// new target system means copying the Framework class and implementing
// "only the abstract methods used by the fault injection algorithms". This
// class demonstrates exactly that: a simulator-only target that supports the
// two SWIFI techniques but has *no scan-chain test logic*. It therefore:
//
//   - inherits FrameworkTarget (paper Fig. 3), not ThorRdTarget;
//   - implements the blocks the SWIFI algorithms use (InitTestCard,
//     LoadWorkload, WriteMemory, RunWorkload, WaitForBreakpoint,
//     WaitForTermination, ReadMemory, MutateImage, InjectMemoryFault,
//     EnumerateFaultSpace, CollectState);
//   - leaves the SCIFI-only injection blocks (InjectFault / WriteScanChain)
//     as Framework placeholders, so running a SCIFI campaign against it
//     fails with a precise "not implemented" diagnosis instead of undefined
//     behaviour.
//
// Because the simulator host can observe everything, the logged state vector
// is the full register file plus pc, serialized under the pseudo-chain name
// "sim.regfile".
#pragma once

#include <memory>

#include "core/framework.hpp"
#include "core/workload_binding.hpp"
#include "cpu/cpu.hpp"

namespace goofi::core {

class SwifiSimTarget : public FrameworkTarget,
                       private BoundaryEngine::Host {
 public:
  SwifiSimTarget(CampaignStore* store,
                 const cpu::CpuConfig& config = cpu::CpuConfig());

  static constexpr const char* kTargetName = "trd32-sim-swifi";

  /// Configuration-phase record: no scan chains, only memory fault spaces.
  static TargetSystemData Describe(const std::string& name = kTargetName);

  const cpu::Cpu& cpu() const { return *cpu_; }

  /// Checkpoint fast-forward support: the golden run snapshots the CPU
  /// (registers, caches, memory delta) plus the environment simulator,
  /// iteration count and actuator CRC. SCIFI is not offered by this target,
  /// so only runtime SWIFI campaigns warm-start. The same pass records the
  /// convergence-pruning GoldenTrace when asked for one: BuildGoldenRun
  /// drives the fault-free workload through RunUntil once, with the loop-top
  /// boundary hook filling both products.
  bool SupportsCheckpoints() const override { return true; }
  util::Status BuildGoldenRun(uint64_t interval, CheckpointCache* cache,
                              GoldenTrace* trace) override;
  util::Status PrepareGoldenBaseline() override { return EnsureWarmBaseline(); }

  /// COW memory observability: the simulated CPU's main memory.
  const cpu::Memory* TargetMemory() const override {
    return cpu_ != nullptr ? &cpu_->memory() : nullptr;
  }

 protected:
  util::Status RestoreCheckpoint(const Checkpoint& checkpoint) override;

  util::Status InitTestCard() override;
  util::Status LoadWorkload() override;
  util::Status WriteMemory() override;
  util::Status RunWorkload() override;
  util::Status WaitForBreakpoint() override;
  util::Status WaitForTermination() override;
  util::Status ReadMemory() override;
  /// The SWIFI algorithm bodies end with an observation ReadScanChain; this
  /// target has no chains — the simulator host snapshots state directly in
  /// CollectState — so the observation step is a no-op here.
  util::Status ReadScanChain() override { return util::Status::Ok(); }
  util::Status MutateImage() override;
  util::Status InjectMemoryFault() override;
  util::Result<std::vector<FaultCandidate>> EnumerateFaultSpace(
      const FaultLocationSelector& selector) override;
  util::Result<LoggedState> CollectState() override;

  // Note: InjectFault / WriteScanChain intentionally NOT overridden — this
  // target has no scan logic, so SCIFI campaigns fail at InjectFault with
  // the Framework's diagnostic (see class comment).

 private:
  util::Status ServiceIteration();
  /// Runs until `stop_instr` retired instructions (0 = no breakpoint),
  /// servicing environment exchanges and convergence boundaries; sets
  /// bookkeeping on termination.
  util::Status RunUntil(uint64_t stop_instr);
  bool Terminated() const;
  util::Status ApplyMemoryFaults();
  /// Establishes the memory delta baseline for the prepared workload (the
  /// deterministic cold prologue: InitTestCard/LoadWorkload/WriteMemory +
  /// MarkMemoryBaseline), once per workload per target instance.
  util::Status EnsureWarmBaseline();
  /// Whether the experiment entering WaitForTermination qualifies for
  /// convergence pruning against the installed golden trace.
  bool CanPruneExperiment() const;

  // BoundaryEngine::Host: the CPU's full execution state plus the host-side
  // accumulators; the CPU snapshot plus the same accumulators.
  util::Status HashBoundaryState(cpu::StateHasher* hasher) override;
  util::Status CaptureCheckpoint(CheckpointCache* cache) override;

  std::unique_ptr<cpu::Cpu> cpu_;
  WorkloadBinding workload_;
  BoundaryEngine boundary_;

  bool timed_out_ = false;
  std::vector<uint32_t> outputs_;

  /// Workload the memory baseline was established for; empty = none yet.
  std::string warm_ready_workload_;

  /// Workload whose downloaded image was declared the shared golden set
  /// (once per workload, at first LoadWorkload); empty = none yet.
  std::string golden_image_workload_;
};

}  // namespace goofi::core
