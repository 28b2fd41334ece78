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
#include "cpu/cpu.hpp"
#include "env/environment.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"
#include "util/crc32.hpp"

namespace goofi::core {

class SwifiSimTarget : public FrameworkTarget {
 public:
  SwifiSimTarget(CampaignStore* store,
                 const cpu::CpuConfig& config = cpu::CpuConfig());

  static constexpr const char* kTargetName = "trd32-sim-swifi";

  /// Configuration-phase record: no scan chains, only memory fault spaces.
  static TargetSystemData Describe(const std::string& name = kTargetName);

  const cpu::Cpu& cpu() const { return *cpu_; }

  /// Superblock fast path on/off (on by default). Off runs the reference
  /// Step() loops, for differential byte-identical-DB suites.
  bool use_fast_run() const { return use_fast_run_; }
  void set_use_fast_run(bool enabled) { use_fast_run_ = enabled; }

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
  util::Status EnsureWorkload();
  util::Status ServiceIteration();
  /// Steps until `stop_instr` retired instructions (0 = no breakpoint),
  /// servicing environment exchanges; sets bookkeeping on termination.
  util::Status RunUntil(uint64_t stop_instr);
  bool Terminated() const;
  util::Status ApplyMemoryFaults();
  /// Establishes the memory delta baseline for the prepared workload (the
  /// deterministic cold prologue: InitTestCard/LoadWorkload/WriteMemory +
  /// MarkMemoryBaseline), once per workload per target instance.
  util::Status EnsureWarmBaseline();
  util::Status CaptureCheckpoint(CheckpointCache* cache);
  /// Digests everything that can shape the rest of this experiment: the
  /// CPU's full execution state plus the host-side per-experiment
  /// accumulators (actuator CRC, iteration count, plant state).
  util::Status HashTargetNow(cpu::StateHasher* hasher);
  /// Whether the experiment entering WaitForTermination qualifies for
  /// convergence pruning against the installed golden trace.
  bool CanPruneExperiment() const;
  /// Boundary action for RunUntil when prune_next_check_ is reached:
  /// capture (golden pass) or compare-and-maybe-converge
  /// (experiment). Advances prune_next_check_; may set converged_ or clear
  /// prune_active_.
  util::Status AtBoundary();

  std::unique_ptr<cpu::Cpu> cpu_;

  env::WorkloadSpec workload_;
  isa::AssembledProgram program_;
  bool workload_ready_ = false;
  std::unique_ptr<env::EnvironmentSimulator> environment_;
  uint32_t input_addr_ = 0;
  uint32_t output_addr_ = 0;
  uint32_t loop_end_addr_ = 0;
  uint32_t result_addr_ = 0;

  int iterations_ = 0;
  bool timed_out_ = false;
  util::Crc32 actuator_crc_;
  std::vector<uint32_t> outputs_;
  bool use_fast_run_ = true;

  // Convergence-pruning state for the current run phase (see ThorRdTarget
  // for the full protocol). converged_ means the rest of the run is
  // synthesized from synth_state_.
  bool prune_active_ = false;
  bool converged_ = false;
  uint64_t prune_next_check_ = 0;
  LoggedState synth_state_;
  // Golden-pass products; golden_interval_ is nonzero only during
  // BuildGoldenRun.
  uint64_t golden_interval_ = 0;
  CheckpointCache* capture_cache_ = nullptr;
  GoldenTrace* capture_trace_ = nullptr;

  // First post-injection boundary whose state diverged from golden: the
  // cross-experiment memo candidate, inserted in CollectState.
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
};

}  // namespace goofi::core
