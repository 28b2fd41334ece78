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
  int iterations = 0;
  uint32_t crc_state = 0;
  std::vector<double> env_state;

  size_t MemoryBytes() const override {
    return sizeof(SwifiPayload) + cpu.MemoryBytes() +
           env_state.size() * sizeof(double);
  }
};

}  // namespace

SwifiSimTarget::SwifiSimTarget(CampaignStore* store,
                               const cpu::CpuConfig& config)
    : FrameworkTarget(store), cpu_(std::make_unique<cpu::Cpu>(config)) {}

TargetSystemData SwifiSimTarget::Describe(const std::string& name) {
  TargetSystemData data;
  data.name = name;
  data.description =
      "TRD32 simulator without scan logic (pre-runtime and runtime SWIFI only)";
  data.chain_data = "memory.text - - -\nmemory.data - - -\n";
  return data;
}

util::Status SwifiSimTarget::EnsureWorkload() {
  if (workload_ready_ && workload_.name == campaign_.workload) {
    return util::Status::Ok();
  }
  auto spec = env::GetWorkload(campaign_.workload);
  if (!spec.ok()) return spec.status();
  workload_ = std::move(spec).value();
  auto program = isa::Assemble(workload_.source);
  if (!program.ok()) return program.status();
  program_ = std::move(program).value();

  environment_.reset();
  input_addr_ = output_addr_ = loop_end_addr_ = result_addr_ = 0;
  if (workload_.infinite_loop) {
    if (workload_.environment == "inverted_pendulum") {
      environment_ = std::make_unique<env::InvertedPendulum>();
    } else if (workload_.environment == "cruise_control") {
      environment_ = std::make_unique<env::CruiseControl>();
    } else if (!workload_.environment.empty()) {
      return util::InvalidArgument("unknown environment " + workload_.environment);
    }
    auto io = program_.Symbol(workload_.input_symbol);
    if (!io.ok()) return io.status();
    input_addr_ = io.value();
    output_addr_ = input_addr_ + workload_.input_words * 4;
    auto boundary = program_.Symbol(workload_.iteration_symbol);
    if (!boundary.ok()) return boundary.status();
    loop_end_addr_ = boundary.value();
  } else if (!workload_.result_symbol.empty()) {
    auto result = program_.Symbol(workload_.result_symbol);
    if (!result.ok()) return result.status();
    result_addr_ = result.value();
  }
  workload_ready_ = true;
  return util::Status::Ok();
}

util::Status SwifiSimTarget::InitTestCard() {
  // No physical card: "init" means power-cycling the simulator instance.
  cpu_->PowerCycle();
  iterations_ = 0;
  timed_out_ = false;
  actuator_crc_.Reset();
  outputs_.clear();
  prune_active_ = false;
  converged_ = false;
  prune_next_check_ = 0;
  memo_pending_ = false;
  memo_blob_.clear();
  return util::Status::Ok();
}

util::Status SwifiSimTarget::LoadWorkload() {
  GOOFI_RETURN_IF_ERROR(EnsureWorkload());
  uint32_t text_bytes = 0;
  const auto etext = program_.symbols.find("_etext");
  if (etext != program_.symbols.end() && etext->second > program_.base_address) {
    text_bytes = etext->second - program_.base_address;
  }
  GOOFI_RETURN_IF_ERROR(
      cpu_->LoadProgram(program_.base_address, program_.words, text_bytes));
  if (environment_) environment_->Reset();
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
  if (environment_ == nullptr) return util::Status::Ok();
  const std::vector<uint32_t> inputs = environment_->Sense();
  for (size_t i = 0; i < inputs.size(); ++i) {
    GOOFI_RETURN_IF_ERROR(
        cpu_->HostWriteWord(input_addr_ + static_cast<uint32_t>(i) * 4, inputs[i]));
  }
  return util::Status::Ok();
}

util::Status SwifiSimTarget::RunWorkload() {
  cpu_->Reset(program_.entry);
  return util::Status::Ok();
}

bool SwifiSimTarget::Terminated() const {
  return cpu_->halted() || cpu_->detected() || timed_out_ ||
         (environment_ != nullptr && iterations_ >= campaign_.max_iterations);
}

util::Status SwifiSimTarget::ServiceIteration() {
  std::vector<uint32_t> outputs;
  for (uint32_t i = 0; i < workload_.output_words; ++i) {
    auto word = cpu_->memory().HostRead(output_addr_ + i * 4);
    if (!word.ok()) return word.status();
    outputs.push_back(word.value());
    actuator_crc_.UpdateWord(word.value());
  }
  const std::vector<uint32_t> inputs = environment_->Exchange(outputs);
  for (size_t i = 0; i < inputs.size(); ++i) {
    GOOFI_RETURN_IF_ERROR(
        cpu_->HostWriteWord(input_addr_ + static_cast<uint32_t>(i) * 4, inputs[i]));
  }
  ++iterations_;
  return util::Status::Ok();
}

util::Status SwifiSimTarget::RunUntil(uint64_t stop_instr) {
  if (!use_fast_run_) {
    while (!Terminated()) {
      if (stop_instr != 0 && cpu_->instructions_retired() >= stop_instr) {
        return util::Status::Ok();
      }
      // Convergence boundary: checked at the loop top, i.e. after the step
      // that reached the boundary count and its iteration servicing — the
      // same program point the golden trace captured at.
      if (prune_active_ && !converged_ &&
          cpu_->instructions_retired() >= prune_next_check_) {
        GOOFI_RETURN_IF_ERROR(AtBoundary());
        if (converged_) return util::Status::Ok();
      }
      const uint32_t exec_pc = cpu_->pc();
      const cpu::StepOutcome outcome = cpu_->Step();
      if (environment_ != nullptr && exec_pc == loop_end_addr_) {
        GOOFI_RETURN_IF_ERROR(ServiceIteration());
      }
      if (cpu_->cycles() >= campaign_.timeout_cycles) {
        timed_out_ = true;
        return util::Status::Ok();
      }
      if (outcome != cpu::StepOutcome::kOk) return util::Status::Ok();
    }
    return util::Status::Ok();
  }

  // Fast path: same loop, with the per-step interior handled by the
  // superblock primitive. Every condition the reference loop checks per
  // step can only change at a primitive stop: halt/detection end the
  // primitive, the retired-instruction breakpoint is its instret budget,
  // the timeout its cycle budget (the reference compares cycles >= timeout
  // without a zero guard, so 0 means "stop after one step", not "off"),
  // and boundary-iteration servicing is a pc watch.
  cpu::RunFastRequest request;
  request.max_cycles = std::max<uint64_t>(campaign_.timeout_cycles, 1);
  if (environment_ != nullptr) {
    request.watch_pc_enabled = true;
    request.watch_pc = loop_end_addr_;
  }
  while (!Terminated()) {
    if (stop_instr != 0 && cpu_->instructions_retired() >= stop_instr) {
      return util::Status::Ok();
    }
    if (prune_active_ && !converged_ &&
        cpu_->instructions_retired() >= prune_next_check_) {
      GOOFI_RETURN_IF_ERROR(AtBoundary());
      if (converged_) return util::Status::Ok();
    }
    // The instret budget is the nearer of the caller's breakpoint and the
    // next convergence boundary, so the primitive stops exactly where the
    // reference loop would act (0 = unbounded).
    uint64_t budget = stop_instr;
    if (prune_active_ && !converged_) {
      budget = budget == 0 ? prune_next_check_
                           : std::min(budget, prune_next_check_);
    }
    request.max_instret = budget;
    const cpu::RunFastResult fast = cpu_->RunFastEx(request);
    // The boundary iteration is serviced even when the step faulted — the
    // exchange happens before the outcome is inspected, as in the slow loop.
    if (environment_ != nullptr && fast.exec_pc == loop_end_addr_) {
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
  payload->iterations = iterations_;
  payload->crc_state = actuator_crc_.raw_state();
  if (environment_ != nullptr) payload->env_state = environment_->SaveState();
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
  cpu_->Reset(program_.entry);  // RunWorkload, minus re-downloading memory
  if (trace != nullptr) {
    trace->set_interval(interval);
    trace->set_campaign_name(campaign_.name);
  }
  golden_interval_ = interval;
  capture_cache_ = cache;
  capture_trace_ = trace;
  prune_active_ = true;
  converged_ = false;
  prune_next_check_ = 0;  // first capture at instret 0, then every interval
  const util::Status run = RunUntil(0);
  golden_interval_ = 0;
  capture_cache_ = nullptr;
  capture_trace_ = nullptr;
  prune_active_ = false;
  converged_ = false;
  GOOFI_RETURN_IF_ERROR(run);
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

util::Status SwifiSimTarget::HashTargetNow(cpu::StateHasher* hasher) {
  cpu_->HashExecutionState(hasher);
  hasher->U32(actuator_crc_.raw_state());
  hasher->I32(iterations_);
  if (environment_ != nullptr) {
    environment_->SaveStateInto(&env_state_scratch_);
    hasher->U64(env_state_scratch_.size());
    for (double value : env_state_scratch_) hasher->Double(value);
  }
  return util::Status::Ok();
}

bool SwifiSimTarget::CanPruneExperiment() const {
  if (!convergence_pruning_ || golden_trace_ == nullptr) return false;
  const GoldenTrace& trace = *golden_trace_;
  if (trace.interval() == 0 || !trace.has_final_state()) return false;
  if (trace.campaign_name() != campaign_.name) return false;
  if (faults_.empty()) return false;
  // No model restriction: this target applies each fault exactly once (it
  // has no reactivation machinery), so once WaitForTermination starts the
  // rest of the run is a pure function of the hashed state for every model,
  // permanent stuck-at included.
  // Canonical memory hashing digests against the workload's baseline.
  return warm_ready_workload_ == campaign_.workload;
}

util::Status SwifiSimTarget::AtBoundary() {
  const uint64_t instret = cpu_->instructions_retired();
  if (golden_interval_ != 0) {
    // Golden pass (see ThorRdTarget::AtBoundary).
    if (capture_cache_ != nullptr) {
      GOOFI_RETURN_IF_ERROR(CaptureCheckpoint(capture_cache_));
      if (instret + golden_interval_ >= campaign_.inject_max_instr) {
        capture_cache_ = nullptr;
        if (capture_trace_ == nullptr) converged_ = true;
      }
    }
    if (capture_trace_ != nullptr) {
      cpu::StateHasher hasher(/*capture=*/true);
      GOOFI_RETURN_IF_ERROR(HashTargetNow(&hasher));
      GoldenBoundary boundary;
      boundary.instret = instret;
      boundary.hash = hasher.hash();
      boundary.blob = hasher.TakeBlob();
      capture_trace_->AddBoundary(std::move(boundary));
    }
    prune_next_check_ = (instret / golden_interval_ + 1) * golden_interval_;
    return util::Status::Ok();
  }
  const uint64_t interval = golden_trace_->interval();
  const uint64_t next = (instret / interval + 1) * interval;
  if (instret != prune_next_check_) {
    // Overshot the boundary (instret budgets stop exactly, so this should
    // not happen); skip rather than compare at a non-boundary point.
    prune_next_check_ = next;
    return util::Status::Ok();
  }
  prune_next_check_ = next;
  const GoldenBoundary* golden = golden_trace_->FindBoundary(instret);
  if (golden == nullptr) {
    prune_active_ = false;  // golden terminated before this point
    return util::Status::Ok();
  }
  ++prune_stats_.boundary_checks;
  cpu::StateHasher hasher(/*capture=*/true);
  GOOFI_RETURN_IF_ERROR(HashTargetNow(&hasher));
  if (hasher.hash() == golden->hash) {
    if (hasher.blob() == golden->blob) {
      synth_state_ = golden_trace_->final_state();
      converged_ = true;
      ++prune_stats_.pruned_golden;
      return util::Status::Ok();
    }
    ++prune_stats_.collision_rejects;
  }
  if (convergence_memo_ != nullptr &&
      convergence_memo_->Lookup(instret, hasher.hash(), hasher.blob(),
                                &synth_state_)) {
    converged_ = true;
    ++prune_stats_.pruned_memo;
    return util::Status::Ok();
  }
  if (!memo_pending_) {
    memo_pending_ = true;
    memo_instret_ = instret;
    memo_hash_ = hasher.hash();
    memo_blob_ = hasher.TakeBlob();
  }
  return util::Status::Ok();
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
  iterations_ = payload->iterations;
  timed_out_ = false;
  actuator_crc_.set_raw_state(payload->crc_state);
  outputs_.clear();
  prune_active_ = false;
  converged_ = false;
  prune_next_check_ = 0;
  memo_pending_ = false;
  memo_blob_.clear();
  if (environment_ != nullptr) environment_->RestoreState(payload->env_state);
  return util::Status::Ok();
}

util::Status SwifiSimTarget::WaitForBreakpoint() {
  return RunUntil(faults_.empty() ? 0 : faults_.front().inject_instr);
}

util::Status SwifiSimTarget::WaitForTermination() {
  converged_ = false;
  memo_pending_ = false;
  prune_active_ = false;
  if (CanPruneExperiment()) {
    // First boundary strictly after the injection point: a faulty run can
    // only have rejoined the golden trajectory after the fault landed.
    const uint64_t interval = golden_trace_->interval();
    prune_next_check_ =
        (cpu_->instructions_retired() / interval + 1) * interval;
    prune_active_ = true;
  }
  return RunUntil(0);
}

util::Status SwifiSimTarget::ReadMemory() {
  // A converged run takes its outputs from the synthesized state.
  if (converged_) return util::Status::Ok();
  if (environment_ != nullptr) {
    outputs_ = {actuator_crc_.Value()};
    return util::Status::Ok();
  }
  outputs_.clear();
  for (uint32_t i = 0; i < workload_.result_words; ++i) {
    auto word = cpu_->memory().HostRead(result_addr_ + i * 4);
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
    uint32_t value = word.value();
    if (fault.kind == FaultModelKind::kPermanentStuckAt) {
      if (fault.stuck_value) {
        value |= (1u << fault.bit);
      } else {
        value &= ~(1u << fault.bit);
      }
    } else {
      value ^= (1u << fault.bit);
    }
    GOOFI_RETURN_IF_ERROR(cpu_->HostWriteWord(fault.address, value));
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
  GOOFI_RETURN_IF_ERROR(EnsureWorkload());
  if (selector.chain != "memory.text" && selector.chain != "memory.data") {
    return util::InvalidArgument("target " + std::string(kTargetName) +
                                 " only supports memory.text / memory.data, got " +
                                 selector.chain);
  }
  uint32_t begin = program_.base_address;
  uint32_t end = program_.base_address + program_.size_bytes();
  const auto etext = program_.symbols.find("_etext");
  if (etext != program_.symbols.end()) {
    if (selector.chain == "memory.text") {
      end = etext->second;
    } else {
      begin = etext->second;
    }
  } else if (selector.chain == "memory.data") {
    return util::InvalidArgument("workload has no _etext marker");
  }
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  if (end > begin) ranges.emplace_back(begin, end);
  // Control workloads keep their working data in the environment I/O buffer
  // (see ThorRdTarget::EnumerateFaultSpace).
  if (selector.chain == "memory.data" && workload_.infinite_loop) {
    const uint32_t io_end =
        input_addr_ + (workload_.input_words + workload_.output_words) * 4;
    ranges.emplace_back(input_addr_, io_end);
  }
  if (ranges.empty()) {
    return util::InvalidArgument("selector matches no words: " +
                                 selector.ToString());
  }
  std::vector<FaultCandidate> out;
  for (const auto& [range_begin, range_end] : ranges) {
    for (uint32_t address = range_begin; address < range_end; address += 4) {
      for (uint32_t bit = 0; bit < 32; ++bit) {
        FaultCandidate candidate;
        candidate.scan = false;
        candidate.address = address;
        candidate.bit = bit;
        candidate.cell_name =
            util::Format("%s@0x%08x", selector.chain.c_str(), address);
        out.push_back(std::move(candidate));
      }
    }
  }
  return out;
}

util::Result<LoggedState> SwifiSimTarget::CollectState() {
  LoggedState state;
  if (converged_) {
    state = synth_state_;
  } else {
    state.detected = cpu_->detected();
    state.halted = cpu_->halted() && !cpu_->detected();
    if (state.detected) {
      state.edm = cpu::EdmTypeName(cpu_->edm_event().type);
      state.edm_code = cpu_->edm_event().code;
    }
    state.timed_out = timed_out_;
    state.env_failed = environment_ != nullptr && environment_->Failed();
    state.cycles = cpu_->cycles();
    state.instret = cpu_->instructions_retired();
    state.iterations = iterations_;
    state.outputs = outputs_;
    // The simulator host observes the architectural state directly.
    util::BitVec image;
    image.Reserve((isa::kNumRegisters + 1) * 32);
    for (int reg = 0; reg < isa::kNumRegisters; ++reg) {
      image.AppendWord(cpu_->reg(reg), 32);
    }
    image.AppendWord(cpu_->pc(), 32);
    state.scan_images["sim.regfile"] = image.ToString();
  }
  // Memoize the deterministic outcome of the first divergent boundary state
  // recorded in AtBoundary (whether this run later converged or ran out).
  if (memo_pending_) {
    if (convergence_memo_ != nullptr &&
        convergence_memo_->Insert(memo_instret_, memo_hash_,
                                  std::move(memo_blob_), state)) {
      ++prune_stats_.memo_inserts;
    }
    memo_pending_ = false;
    memo_blob_.clear();
  }
  return state;
}

}  // namespace goofi::core
