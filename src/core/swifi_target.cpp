#include "core/swifi_target.hpp"

#include <algorithm>

#include "cpu/state_hash.hpp"
#include "util/strings.hpp"

namespace goofi::core {

namespace {

/// Checkpoint payload for the simulator-only SWIFI target: the CPU snapshot
/// (registers, caches, memory delta) plus the host-side per-experiment state
/// the golden run accumulates. Built and consumed in this translation unit
/// only.
struct SwifiPayload final : CheckpointPayload {
  cpu::CpuSnapshot cpu;
  WorkloadBinding::HostState host;

  size_t MemoryBytes() const override {
    return sizeof(SwifiPayload) + cpu.MemoryBytes() +
           host.env_state.size() * sizeof(double);
  }
};

}  // namespace

SwifiSimTarget::SwifiSimTarget(CampaignStore* store,
                               const cpu::CpuConfig& config)
    : FrameworkTarget(store),
      cpu_(std::make_unique<cpu::Cpu>(config)),
      boundary_(this, &prune_stats_) {}

TargetSystemData SwifiSimTarget::Describe(const std::string& name) {
  TargetSystemData data;
  data.name = name;
  data.description =
      "TRD32 simulator without scan logic (pre-runtime and runtime SWIFI only)";
  data.chain_data = "memory.text - - -\nmemory.data - - -\n";
  return data;
}

util::Status SwifiSimTarget::InitTestCard() {
  // No physical card: "init" means power-cycling the simulator instance.
  cpu_->PowerCycle();
  workload_.ResetAccumulators();
  timed_out_ = false;
  outputs_.clear();
  boundary_.Reset();
  return util::Status::Ok();
}

util::Status SwifiSimTarget::LoadWorkload() {
  GOOFI_RETURN_IF_ERROR(workload_.Bind(campaign_.workload));
  const isa::AssembledProgram& program = workload_.program();
  uint32_t text_bytes = 0;
  const auto etext = program.symbols.find("_etext");
  if (etext != program.symbols.end() && etext->second > program.base_address) {
    text_bytes = etext->second - program.base_address;
  }
  GOOFI_RETURN_IF_ERROR(
      cpu_->LoadProgram(program.base_address, program.words, text_bytes));
  if (workload_.environment() != nullptr) workload_.environment()->Reset();
  if (golden_image_workload_ != campaign_.workload) {
    // Declare the pristine downloaded image as the shared golden page set,
    // once per workload (pre-runtime image mutations land as private pages
    // on top). See ThorRdTarget::LoadWorkload for the sharing rationale.
    cpu_->MarkMemoryBaseline();
    golden_image_workload_ = campaign_.workload;
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::WriteMemory() {
  if (workload_.environment() == nullptr) return util::Status::Ok();
  const std::vector<uint32_t> inputs = workload_.environment()->Sense();
  for (size_t i = 0; i < inputs.size(); ++i) {
    GOOFI_RETURN_IF_ERROR(cpu_->HostWriteWord(
        workload_.input_addr() + static_cast<uint32_t>(i) * 4, inputs[i]));
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::RunWorkload() {
  cpu_->Reset(workload_.program().entry);
  return util::Status::Ok();
}

bool SwifiSimTarget::Terminated() const {
  return cpu_->halted() || cpu_->detected() || timed_out_ ||
         (workload_.environment() != nullptr &&
          workload_.iterations() >= campaign_.max_iterations);
}

util::Status SwifiSimTarget::ServiceIteration() {
  std::vector<uint32_t> outputs;
  for (uint32_t i = 0; i < workload_.spec().output_words; ++i) {
    auto word = cpu_->memory().HostRead(workload_.output_addr() + i * 4);
    if (!word.ok()) return word.status();
    outputs.push_back(word.value());
  }
  const std::vector<uint32_t> inputs = workload_.Exchange(outputs);
  for (size_t i = 0; i < inputs.size(); ++i) {
    GOOFI_RETURN_IF_ERROR(cpu_->HostWriteWord(
        workload_.input_addr() + static_cast<uint32_t>(i) * 4, inputs[i]));
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::RunUntil(uint64_t stop_instr) {
  // The per-step interior runs in the superblock primitive. Every condition
  // this loop acts on can only change at a primitive stop: halt/detection
  // end the primitive, the retired-instruction breakpoint and the next
  // convergence boundary are its instret budget, the timeout its cycle
  // budget (cycles are compared against the timeout without a zero guard,
  // so 0 means "stop after one step", not "off"), and boundary-iteration
  // servicing is a pc watch.
  cpu::RunFastRequest request;
  request.max_cycles = std::max<uint64_t>(campaign_.timeout_cycles, 1);
  if (workload_.environment() != nullptr) {
    request.watch_pc_enabled = true;
    request.watch_pc = workload_.loop_end_addr();
  }
  while (!Terminated()) {
    if (stop_instr != 0 && cpu_->instructions_retired() >= stop_instr) {
      return util::Status::Ok();
    }
    // Convergence boundary: checked at the loop top, i.e. after the step
    // that reached the boundary count and its iteration servicing — the
    // same program point the golden trace captured at.
    if (boundary_.Due(cpu_->instructions_retired())) {
      GOOFI_RETURN_IF_ERROR(
          boundary_.AtBoundary(cpu_->instructions_retired()));
      if (boundary_.converged()) return util::Status::Ok();
    }
    request.max_instret = boundary_.Budget(stop_instr);
    const cpu::RunFastResult fast = cpu_->RunFastEx(request);
    // The boundary iteration is serviced even when the step faulted: the
    // exchange happens before the outcome is inspected.
    if (workload_.environment() != nullptr &&
        fast.exec_pc == workload_.loop_end_addr()) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
    }
    if (cpu_->cycles() >= campaign_.timeout_cycles) {
      timed_out_ = true;
      return util::Status::Ok();
    }
    if (fast.outcome != cpu::StepOutcome::kOk) return util::Status::Ok();
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::EnsureWarmBaseline() {
  if (warm_ready_workload_ == campaign_.workload) return util::Status::Ok();
  // The deterministic cold prologue every experiment shares. Running it once
  // per worker makes each worker's baseline image identical to the one the
  // cache's deltas were captured against.
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  cpu_->MarkMemoryBaseline();
  warm_ready_workload_ = campaign_.workload;
  return util::Status::Ok();
}

util::Status SwifiSimTarget::CaptureCheckpoint(CheckpointCache* cache) {
  auto payload = std::make_shared<SwifiPayload>();
  payload->cpu = cpu_->SaveSnapshot();
  payload->host = workload_.SaveHostState();
  Checkpoint checkpoint;
  checkpoint.instret = cpu_->instructions_retired();
  checkpoint.payload = std::move(payload);
  cache->Add(std::move(checkpoint));
  return util::Status::Ok();
}

util::Status SwifiSimTarget::BuildGoldenRun(uint64_t interval,
                                            CheckpointCache* cache,
                                            GoldenTrace* trace) {
  if (interval == 0 || (cache == nullptr && trace == nullptr)) {
    return util::InvalidArgument("checkpoint interval must be positive");
  }
  // Drive the fault-free workload through RunUntil with boundary capture
  // active; the experiment loop itself decides every stop.
  faults_.clear();
  warm_ready_workload_.clear();
  GOOFI_RETURN_IF_ERROR(EnsureWarmBaseline());
  // RunWorkload, minus re-downloading memory.
  cpu_->Reset(workload_.program().entry);
  if (trace != nullptr) {
    trace->set_interval(interval);
    trace->set_campaign_name(campaign_.name);
  }
  GOOFI_RETURN_IF_ERROR(boundary_.RunGoldenPass(
      interval, campaign_.inject_max_instr, cache, trace,
      [this] { return RunUntil(0); }));
  if (trace == nullptr) return util::Status::Ok();
  // The standard experiment epilogue, so the golden final state is row-
  // identical to a full fault-free experiment. This target never logs detail
  // rows, so the trace carries none (and needs none for detail-mode
  // synthesis).
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  auto state = CollectState();
  if (!state.ok()) return state.status();
  trace->SetFinalState(std::move(state).value());
  return util::Status::Ok();
}

util::Status SwifiSimTarget::HashBoundaryState(cpu::StateHasher* hasher) {
  cpu_->HashExecutionState(hasher);
  workload_.HashHostState(hasher);
  return util::Status::Ok();
}

bool SwifiSimTarget::CanPruneExperiment() const {
  // No fault-model restriction: this target applies each fault exactly once
  // (it has no reactivation machinery), so once WaitForTermination starts
  // the rest of the run is a pure function of the hashed state for every
  // model, permanent stuck-at included. Canonical memory hashing digests
  // against the workload's baseline.
  return convergence_pruning_ && golden_trace_ != nullptr &&
         golden_trace_->Covers(campaign_.name) && !faults_.empty() &&
         warm_ready_workload_ == campaign_.workload;
}

util::Status SwifiSimTarget::RestoreCheckpoint(const Checkpoint& checkpoint) {
  const auto* payload =
      dynamic_cast<const SwifiPayload*>(checkpoint.payload.get());
  if (payload == nullptr) {
    return util::Internal("checkpoint payload is not a SWIFI sim snapshot");
  }
  GOOFI_RETURN_IF_ERROR(EnsureWarmBaseline());
  cpu_->RestoreSnapshot(payload->cpu);
  // Per-experiment bookkeeping exactly as a cold run carries it to this
  // instruction. This target has no debug triggers to re-arm: RunUntil polls
  // the retired-instruction counter directly.
  workload_.RestoreHostState(payload->host);
  timed_out_ = false;
  outputs_.clear();
  boundary_.Reset();
  return util::Status::Ok();
}

util::Status SwifiSimTarget::WaitForBreakpoint() {
  return RunUntil(faults_.empty() ? 0 : faults_.front().inject_instr);
}

util::Status SwifiSimTarget::WaitForTermination() {
  boundary_.BeginSuffix(cpu_->instructions_retired(),
                        CanPruneExperiment() ? golden_trace_.get() : nullptr,
                        convergence_memo_.get());
  return RunUntil(0);
}

util::Status SwifiSimTarget::ReadMemory() {
  // A converged run takes its outputs from the synthesized state.
  if (boundary_.converged()) return util::Status::Ok();
  if (workload_.environment() != nullptr) {
    outputs_ = {workload_.actuator_crc()};
    return util::Status::Ok();
  }
  outputs_.clear();
  for (uint32_t i = 0; i < workload_.spec().result_words; ++i) {
    auto word = cpu_->memory().HostRead(workload_.result_addr() + i * 4);
    if (!word.ok()) return word.status();
    outputs_.push_back(word.value());
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::ApplyMemoryFaults() {
  for (const FaultInstance& fault : faults_) {
    if (fault.IsScanFault()) {
      return util::InvalidArgument(
          "target " + std::string(kTargetName) +
          " has no scan chains; use memory.text / memory.data selectors");
    }
    auto word = cpu_->memory().HostRead(fault.address);
    if (!word.ok()) return word.status();
    GOOFI_RETURN_IF_ERROR(
        cpu_->HostWriteWord(fault.address, fault.ApplyToWord(word.value())));
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::MutateImage() { return ApplyMemoryFaults(); }

util::Status SwifiSimTarget::InjectMemoryFault() {
  if (Terminated()) return util::Status::Ok();
  return ApplyMemoryFaults();
}

util::Result<std::vector<FaultCandidate>> SwifiSimTarget::EnumerateFaultSpace(
    const FaultLocationSelector& selector) {
  GOOFI_RETURN_IF_ERROR(workload_.Bind(campaign_.workload));
  if (selector.chain != "memory.text" && selector.chain != "memory.data") {
    return util::InvalidArgument("target " + std::string(kTargetName) +
                                 " only supports memory.text / memory.data, got " +
                                 selector.chain);
  }
  return workload_.MemoryFaultSpace(selector);
}

util::Result<LoggedState> SwifiSimTarget::CollectState() {
  LoggedState state;
  if (boundary_.converged()) {
    state = boundary_.synth_state();
  } else {
    state = workload_.RunOutcome(*cpu_, timed_out_, outputs_);
    // The simulator host observes the architectural state directly.
    util::BitVec image;
    image.Reserve((isa::kNumRegisters + 1) * 32);
    for (int reg = 0; reg < isa::kNumRegisters; ++reg) {
      image.AppendWord(cpu_->reg(reg), 32);
    }
    image.AppendWord(cpu_->pc(), 32);
    state.scan_images["sim.regfile"] = image.ToString();
  }
  boundary_.RecordOutcome(state);
  return state;
}

}  // namespace goofi::core
