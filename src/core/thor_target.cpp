#include "core/thor_target.hpp"

#include <algorithm>

#include "cpu/state_hash.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace goofi::core {

namespace {

/// Checkpoint payload for the Thor RD stack: the full test-card snapshot
/// plus the host-side per-experiment state the golden run accumulates
/// (iteration count, actuator-CRC accumulator, plant state). Built and
/// consumed in this translation unit only.
struct ThorPayload final : CheckpointPayload {
  testcard::CardSnapshot card;
  WorkloadBinding::HostState host;

  size_t MemoryBytes() const override {
    return sizeof(ThorPayload) + card.MemoryBytes() +
           host.env_state.size() * sizeof(double);
  }
};

}  // namespace

ThorRdTarget::ThorRdTarget(CampaignStore* store, testcard::TestCard* card)
    : FaultInjectionAlgorithms(store),
      card_(card),
      boundary_(this, &prune_stats_) {}

TargetSystemData ThorRdTarget::DescribeTarget(const testcard::TestCard& card,
                                              const std::string& name) {
  TargetSystemData data;
  data.name = name;
  data.description = "Simulated Thor RD (TRD32) with IEEE 1149.1 scan logic";
  std::string lines;
  for (const scan::ScanChain& chain : card.chains().chains()) {
    for (const scan::ScanCell& cell : chain.cells()) {
      lines += util::Format("%s %s %u %d\n", chain.name().c_str(),
                            cell.name.c_str(), cell.bits, cell.read_only ? 1 : 0);
    }
  }
  data.chain_data = std::move(lines);
  return data;
}

util::Status ThorRdTarget::InitTestCard() {
  GOOFI_RETURN_IF_ERROR(card_->Init());
  workload_.ResetAccumulators();
  timed_out_ = false;
  injection_done_ = false;
  terminated_before_injection_ = false;
  activations_done_ = 0;
  next_activation_ = 0;
  outputs_.clear();
  inject_images_.clear();
  observe_images_.clear();
  reactivation_armed_ = false;
  boundary_.Reset();
  return util::Status::Ok();
}

util::Status ThorRdTarget::LoadWorkload() {
  GOOFI_RETURN_IF_ERROR(workload_.Bind(campaign_.workload));
  GOOFI_RETURN_IF_ERROR(card_->LoadWorkload(workload_.program()));
  if (workload_.environment() != nullptr) workload_.environment()->Reset();
  if (golden_image_workload_ != campaign_.workload) {
    // Declare the downloaded image as the shared golden page set, once per
    // workload: every later download of the same image repoints at it
    // (golden adoption) instead of copying, and sibling workers intern the
    // identical image through the factory's registry. Purely a
    // memory-sharing declaration — results are unaffected, and warm paths
    // re-baseline after WriteMemory (EnsureWarmBaseline) as before.
    GOOFI_RETURN_IF_ERROR(card_->MarkMemoryBaseline());
    golden_image_workload_ = campaign_.workload;
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::WriteMemory() {
  if (workload_.environment() == nullptr) return util::Status::Ok();
  // "the workload and initial input data is downloaded to the system" (§3.3).
  return card_->WriteMemory(workload_.input_addr(),
                            workload_.environment()->Sense());
}

void ThorRdTarget::ArmTriggers(bool with_injection_breakpoint,
                               bool with_reactivation) {
  card_->ClearTriggers();
  iteration_trigger_ = breakpoint_trigger_ = reactivation_trigger_ = -1;
  prune_trigger_ = -1;
  reactivation_armed_ = with_reactivation;
  if (workload_.environment() != nullptr) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kPcBreakpoint;
    trigger.address = workload_.loop_end_addr();
    trigger.occurrence = 1;
    iteration_trigger_ = card_->AddTrigger(trigger);
  }
  if (with_injection_breakpoint && !faults_.empty()) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = faults_.front().inject_instr;
    breakpoint_trigger_ = card_->AddTrigger(trigger);
  }
  if (with_reactivation) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = next_activation_;
    reactivation_trigger_ = card_->AddTrigger(trigger);
  }
  // Convergence-boundary stop. Added LAST: DebugUnit reports the first fired
  // trigger index, so when a boundary coincides with an iteration breakpoint
  // or a reactivation, RunLoop services those first and the boundary action
  // runs at the loop top afterwards — the same post-servicing program point
  // the golden trace captured at.
  if (boundary_.watching()) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = boundary_.next_check();
    prune_trigger_ = card_->AddTrigger(trigger);
  }
}

util::Status ThorRdTarget::RunWorkload() {
  GOOFI_RETURN_IF_ERROR(card_->ResetTarget());
  const bool needs_breakpoint =
      campaign_.technique != Technique::kSwifiPreRuntime && !faults_.empty();
  ArmTriggers(needs_breakpoint, false);
  return util::Status::Ok();
}

bool ThorRdTarget::Terminated() const {
  return card_->cpu().halted() || card_->cpu().detected() || timed_out_ ||
         (workload_.environment() != nullptr &&
          workload_.iterations() >= campaign_.max_iterations);
}

util::Status ThorRdTarget::ServiceIteration() {
  auto outputs =
      card_->ReadMemory(workload_.output_addr(), workload_.spec().output_words);
  if (!outputs.ok()) return outputs.status();
  return card_->WriteMemory(workload_.input_addr(),
                            workload_.Exchange(outputs.value()));
}

util::Status ThorRdTarget::ReactivateFaults() {
  // Group scan faults per chain: one read-modify-write per chain.
  std::map<std::string, util::BitVec> images;
  for (const FaultInstance& fault : faults_) {
    if (!fault.IsScanFault()) continue;
    if (!images.contains(fault.chain)) {
      auto image = card_->ReadScanChain(fault.chain, /*restore=*/false);
      if (!image.ok()) return image.status();
      images.emplace(fault.chain, std::move(image).value());
    }
  }
  GOOFI_RETURN_IF_ERROR(FlipScanFaults(&images));
  for (const auto& [chain, image] : images) {
    GOOFI_RETURN_IF_ERROR(card_->WriteScanChain(chain, image));
  }
  // Memory-space faults (runtime SWIFI with non-transient models).
  for (const FaultInstance& fault : faults_) {
    if (fault.IsScanFault()) continue;
    auto word = card_->ReadMemory(fault.address, 1);
    if (!word.ok()) return word.status();
    GOOFI_RETURN_IF_ERROR(
        card_->WriteMemory(fault.address, {fault.ApplyToWord(word.value()[0])}));
  }
  ++activations_done_;
  return util::Status::Ok();
}

util::Status ThorRdTarget::FlipScanFaults(
    std::map<std::string, util::BitVec>* images) const {
  for (const auto& [chain, image] : *images) {
    const scan::ScanChain* target = card_->chains().Find(chain);
    if (target == nullptr) return util::NotFound("no scan chain " + chain);
    if (image.size() != target->length_bits()) {
      return util::InvalidArgument("image size mismatch for chain " + chain);
    }
  }
  for (const FaultInstance& fault : faults_) {
    if (!fault.IsScanFault()) continue;
    auto it = images->find(fault.chain);
    if (it == images->end()) {
      return util::Internal("InjectFault before ReadScanChain for chain " +
                            fault.chain);
    }
    if (fault.chain_bit >= it->second.size()) {
      return util::InvalidArgument(util::Format(
          "fault bit %u outside chain %s", fault.chain_bit, fault.chain.c_str()));
    }
    if (fault.kind == FaultModelKind::kPermanentStuckAt) {
      it->second.Set(fault.chain_bit, fault.stuck_value);
    } else {
      it->second.Flip(fault.chain_bit);
    }
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::RunLoop(bool stop_at_breakpoint) {
  for (;;) {
    if (Terminated()) return util::Status::Ok();
    // Convergence boundary: this check runs at the loop top, i.e. after any
    // iteration servicing or fault reactivation that stopped the run at the
    // same retirement count — the exact program point the golden trace
    // captured at. The re-arm is unconditional: it drops the fired (level-
    // comparing) boundary trigger and installs one for the next boundary
    // while preserving the iteration and reactivation triggers.
    if (boundary_.Due(card_->cpu().instructions_retired())) {
      GOOFI_RETURN_IF_ERROR(AtBoundary());
      if (boundary_.converged()) return util::Status::Ok();
      ArmTriggers(/*with_injection_breakpoint=*/false, reactivation_armed_);
    }
    const scan::DebugRunResult result = card_->Run(campaign_.timeout_cycles);
    if (result.outcome != cpu::StepOutcome::kOk) {
      return util::Status::Ok();  // halted or detected
    }
    if (result.timed_out) {
      timed_out_ = true;
      return util::Status::Ok();
    }
    if (result.fired_trigger == iteration_trigger_ && iteration_trigger_ >= 0) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
      continue;  // the loop top ends the run at max_iterations
    }
    if (stop_at_breakpoint && result.fired_trigger == breakpoint_trigger_ &&
        breakpoint_trigger_ >= 0) {
      return util::Status::Ok();
    }
    if (result.fired_trigger == reactivation_trigger_ &&
        reactivation_trigger_ >= 0) {
      const bool more =
          campaign_.fault_model == FaultModelKind::kPermanentStuckAt ||
          activations_done_ < campaign_.burst_length;
      if (more) {
        GOOFI_RETURN_IF_ERROR(ReactivateFaults());
      }
      next_activation_ = card_->cpu().instructions_retired() +
                         std::max<uint64_t>(1, campaign_.burst_spacing);
      const bool keep_reactivating =
          campaign_.fault_model == FaultModelKind::kPermanentStuckAt ||
          activations_done_ < campaign_.burst_length;
      ArmTriggers(false, keep_reactivating);
      continue;
    }
    // A trigger fired that this phase does not care about (e.g. the
    // breakpoint trigger after injection); ignore and resume.
  }
}

util::Status ThorRdTarget::RunLoopDetail() {
  // Detail mode (§3.3): "the system state is logged as frequently as the
  // target system allows, typically after the execution of each machine
  // instruction".
  while (!Terminated() && detail_log_.size() < kMaxDetailRows) {
    // Convergence boundary, post-step and post-servicing like RunLoop's
    // loop-top check (row instret values are post-step, so the state here is
    // the state after retiring exactly the boundary's instruction count). No
    // triggers to re-arm on this path: single-stepping checks every
    // retirement, so the boundary hits exactly.
    if (boundary_.Due(card_->cpu().instructions_retired())) {
      GOOFI_RETURN_IF_ERROR(AtBoundary());
      if (boundary_.converged()) return util::Status::Ok();
    }
    const uint32_t exec_pc = card_->cpu().pc();
    const cpu::StepOutcome outcome = card_->SingleStep();
    if (workload_.environment() != nullptr &&
        exec_pc == workload_.loop_end_addr()) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
    }
    if (card_->cpu().cycles() >= campaign_.timeout_cycles) timed_out_ = true;

    LoggedState snapshot;
    snapshot.cycles = card_->cpu().cycles();
    snapshot.instret = card_->cpu().instructions_retired();
    snapshot.iterations = workload_.iterations();
    snapshot.halted = outcome == cpu::StepOutcome::kHalted;
    snapshot.detected = outcome == cpu::StepOutcome::kDetected;
    if (snapshot.detected) {
      snapshot.edm = cpu::EdmTypeName(card_->cpu().edm_event().type);
      snapshot.edm_code = card_->cpu().edm_event().code;
    }
    // Log the same chains the campaign observes at termination, so detail
    // traces expose fault propagation in every selected location class.
    // The capture buffer is reused across instructions: this loop runs per
    // retired instruction, so a fresh BitVec per read would dominate the
    // detail-mode allocation profile.
    for (const std::string& chain : campaign_.observe_chains) {
      GOOFI_RETURN_IF_ERROR(
          card_->ReadScanChainInto(chain, /*restore=*/true, &detail_capture_));
      snapshot.scan_images[chain] = detail_capture_.ToString();
    }
    detail_log_.push_back(std::move(snapshot));

    if (outcome != cpu::StepOutcome::kOk) break;
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::EnsureWarmBaseline() {
  if (warm_ready_workload_ == campaign_.workload) return util::Status::Ok();
  // The deterministic cold prologue every experiment shares. Running it once
  // per worker makes each worker's baseline image identical to the one the
  // cache's deltas were captured against.
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(card_->MarkMemoryBaseline());
  warm_ready_workload_ = campaign_.workload;
  return util::Status::Ok();
}

util::Status ThorRdTarget::CaptureCheckpoint(CheckpointCache* cache) {
  auto card = card_->SaveSnapshot();
  if (!card.ok()) return card.status();
  auto payload = std::make_shared<ThorPayload>();
  payload->card = std::move(card).value();
  payload->host = workload_.SaveHostState();
  Checkpoint checkpoint;
  checkpoint.instret = card_->cpu().instructions_retired();
  checkpoint.payload = std::move(payload);
  cache->Add(std::move(checkpoint));
  return util::Status::Ok();
}

util::Status ThorRdTarget::BuildGoldenRun(uint64_t interval,
                                          CheckpointCache* cache,
                                          GoldenTrace* trace) {
  if (interval == 0 || (cache == nullptr && trace == nullptr)) {
    return util::InvalidArgument("checkpoint interval must be positive");
  }
  if (trace != nullptr) {
    trace->set_interval(interval);
    trace->set_campaign_name(campaign_.name);
    // A card without state-hash support leaves the trace without a final
    // state, which CanPruneExperiment treats as "pruning unavailable".
    if (!card_->SupportsStateHash()) trace = nullptr;
  }
  if (campaign_.log_mode == LogMode::kDetail && cache != nullptr &&
      trace != nullptr) {
    // Detail mode records its trace through RunLoopDetail, whose per-step
    // scan reads draw from the link-noise RNG on a noisy link. A cold
    // experiment reaches its injection point through RunLoop, and a card
    // snapshot includes that RNG, so the cache takes a RunLoop pass of its
    // own.
    GOOFI_RETURN_IF_ERROR(GoldenPass(interval, cache, nullptr));
    cache = nullptr;
  }
  if (cache == nullptr && trace == nullptr) return util::Status::Ok();
  return GoldenPass(interval, cache, trace);
}

util::Status ThorRdTarget::GoldenPass(uint64_t interval, CheckpointCache* cache,
                                      GoldenTrace* trace) {
  faults_.clear();
  warm_ready_workload_.clear();
  GOOFI_RETURN_IF_ERROR(EnsureWarmBaseline());
  GOOFI_RETURN_IF_ERROR(card_->ResetTarget());
  detail_log_.clear();
  const bool detail =
      trace != nullptr && campaign_.log_mode == LogMode::kDetail;
  GOOFI_RETURN_IF_ERROR(boundary_.RunGoldenPass(
      interval, campaign_.inject_max_instr, cache, trace, [&] {
        ArmTriggers(/*with_injection_breakpoint=*/false,
                    /*with_reactivation=*/false);
        return detail ? RunLoopDetail() : RunLoop(/*stop_at_breakpoint=*/false);
      }));
  if (trace == nullptr) return util::Status::Ok();
  // The standard experiment epilogue, so the golden final state is row-
  // identical to what a full fault-free experiment would log.
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  auto state = CollectState();
  if (!state.ok()) return state.status();
  trace->SetFinalState(std::move(state).value());
  if (detail) {
    // A golden run truncated by the row cap has no usable suffix: a faulty
    // run converging late would need rows the trace never recorded.
    trace->set_detail_complete(
        !(detail_log_.size() >= kMaxDetailRows && !Terminated()));
    *trace->mutable_detail_rows() = std::move(detail_log_);
    detail_log_.clear();
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::HashBoundaryState(cpu::StateHasher* hasher) {
  GOOFI_RETURN_IF_ERROR(card_->HashTargetState(hasher));
  workload_.HashHostState(hasher);
  return util::Status::Ok();
}

bool ThorRdTarget::CanPruneExperiment() const {
  // Permanent faults re-activate forever: the target can never rejoin the
  // golden trajectory while the stuck-at keeps being re-applied. Canonical
  // memory hashing digests against the workload's baseline; no baseline for
  // this workload means no comparable hash.
  return convergence_pruning_ && golden_trace_ != nullptr &&
         golden_trace_->Covers(campaign_.name) && !faults_.empty() &&
         injection_done_ && !terminated_before_injection_ &&
         campaign_.fault_model != FaultModelKind::kPermanentStuckAt &&
         card_->SupportsStateHash() &&
         warm_ready_workload_ == campaign_.workload;
}

util::Status ThorRdTarget::AtBoundary() {
  const bool burst_settled =
      campaign_.fault_model != FaultModelKind::kIntermittentBitFlip ||
      activations_done_ >= campaign_.burst_length;
  return boundary_.AtBoundary(card_->cpu().instructions_retired(),
                              burst_settled);
}

util::Status ThorRdTarget::RestoreCheckpoint(const Checkpoint& checkpoint) {
  const auto* payload =
      dynamic_cast<const ThorPayload*>(checkpoint.payload.get());
  if (payload == nullptr) {
    return util::Internal("checkpoint payload is not a Thor RD snapshot");
  }
  GOOFI_RETURN_IF_ERROR(EnsureWarmBaseline());
  GOOFI_RETURN_IF_ERROR(card_->RestoreSnapshot(payload->card));
  // Per-experiment bookkeeping exactly as a cold run carries it to this
  // instruction: injection still ahead, no timeout, accumulated iteration
  // count / CRC / plant state from the fault-free prefix.
  workload_.RestoreHostState(payload->host);
  timed_out_ = false;
  injection_done_ = false;
  terminated_before_injection_ = false;
  activations_done_ = 0;
  next_activation_ = 0;
  outputs_.clear();
  inject_images_.clear();
  observe_images_.clear();
  boundary_.Reset();
  // Re-arm as RunWorkload would. The PC breakpoint fires on every execution
  // of the loop boundary regardless of its occurrence counter (occurrence
  // 1), and instruction-count triggers are level-comparators, so fresh
  // counters behave identically to counters carried from instruction 0.
  ArmTriggers(/*with_injection_breakpoint=*/!faults_.empty(),
              /*with_reactivation=*/false);
  return util::Status::Ok();
}

util::Status ThorRdTarget::WaitForBreakpoint() {
  GOOFI_RETURN_IF_ERROR(RunLoop(/*stop_at_breakpoint=*/true));
  if (Terminated()) terminated_before_injection_ = true;
  return util::Status::Ok();
}

util::Status ThorRdTarget::ReadScanChain() {
  // A converged run takes its observation images from the synthesized state.
  if (boundary_.converged()) return util::Status::Ok();
  const bool injection_read = !faults_.empty() && !injection_done_ &&
                              !terminated_before_injection_ &&
                              campaign_.technique == Technique::kScifi;
  if (injection_read) {
    inject_images_.clear();
    for (const FaultInstance& fault : faults_) {
      if (!fault.IsScanFault() || inject_images_.contains(fault.chain)) continue;
      auto image = card_->ReadScanChain(fault.chain, /*restore=*/false);
      if (!image.ok()) return image.status();
      inject_images_.emplace(fault.chain, std::move(image).value());
    }
    return util::Status::Ok();
  }
  // Observation read at experiment end (§3.3: the logged system state
  // includes all observable locations selected in the set-up phase).
  observe_images_.clear();
  for (const std::string& chain : campaign_.observe_chains) {
    auto image = card_->ReadScanChain(chain, /*restore=*/true);
    if (!image.ok()) return image.status();
    observe_images_[chain] = image.value().ToString();
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::InjectFault() {
  if (terminated_before_injection_) return util::Status::Ok();
  return FlipScanFaults(&inject_images_);
}

util::Status ThorRdTarget::WriteScanChain() {
  if (terminated_before_injection_) return util::Status::Ok();
  for (const auto& [chain, image] : inject_images_) {
    GOOFI_RETURN_IF_ERROR(card_->WriteScanChain(chain, image));
  }
  if (!faults_.empty()) {
    injection_done_ = true;
    ++activations_done_;
  }
  return util::Status::Ok();
}

util::Status ThorRdTarget::WaitForTermination() {
  const bool reactivate =
      injection_done_ &&
      campaign_.fault_model != FaultModelKind::kTransientBitFlip;
  if (reactivate) {
    next_activation_ = card_->cpu().instructions_retired() +
                       std::max<uint64_t>(1, campaign_.burst_spacing);
  }
  const bool detail = campaign_.log_mode == LogMode::kDetail;
  boundary_.BeginSuffix(card_->cpu().instructions_retired(),
                        CanPruneExperiment() ? golden_trace_.get() : nullptr,
                        convergence_memo_.get(),
                        detail ? &detail_log_ : nullptr, kMaxDetailRows);
  ArmTriggers(false, reactivate);
  if (detail) return RunLoopDetail();
  return RunLoop(/*stop_at_breakpoint=*/false);
}

util::Status ThorRdTarget::ReadMemory() {
  // A converged run takes its outputs from the synthesized state.
  if (boundary_.converged()) return util::Status::Ok();
  if (workload_.environment() != nullptr) {
    // Control workloads: the trace of actuator commands is the output.
    outputs_ = {workload_.actuator_crc()};
    return util::Status::Ok();
  }
  if (workload_.spec().result_words == 0) {
    outputs_.clear();
    return util::Status::Ok();
  }
  auto words =
      card_->ReadMemory(workload_.result_addr(), workload_.spec().result_words);
  if (!words.ok()) return words.status();
  outputs_ = std::move(words).value();
  return util::Status::Ok();
}

util::Status ThorRdTarget::MutateImage() {
  // Pre-runtime SWIFI: corrupt the downloaded program/data image before the
  // workload starts executing (§1).
  for (const FaultInstance& fault : faults_) {
    if (fault.IsScanFault()) {
      return util::InvalidArgument(
          "pre-runtime SWIFI campaign selected a scan-chain location; use "
          "memory.text / memory.data selectors");
    }
    auto word = card_->ReadMemory(fault.address, 1);
    if (!word.ok()) return word.status();
    GOOFI_RETURN_IF_ERROR(
        card_->WriteMemory(fault.address, {fault.ApplyToWord(word.value()[0])}));
  }
  injection_done_ = true;
  ++activations_done_;
  return util::Status::Ok();
}

util::Status ThorRdTarget::InjectMemoryFault() {
  if (terminated_before_injection_) return util::Status::Ok();
  return MutateImage();
}

util::Result<std::vector<FaultCandidate>> ThorRdTarget::EnumerateFaultSpace(
    const FaultLocationSelector& selector) {
  GOOFI_RETURN_IF_ERROR(workload_.Bind(campaign_.workload));
  if (selector.chain == "memory.text" || selector.chain == "memory.data") {
    return workload_.MemoryFaultSpace(selector);
  }

  const scan::ScanChain* chain = card_->chains().Find(selector.chain);
  if (chain == nullptr) {
    return util::NotFound("no scan chain or memory space named " +
                          selector.chain);
  }
  std::vector<FaultCandidate> out;
  for (const scan::ScanCell& cell : chain->cells()) {
    if (cell.read_only) continue;
    if (!selector.cell_prefix.empty() &&
        !util::StartsWith(cell.name, selector.cell_prefix)) {
      continue;
    }
    for (uint32_t bit = 0; bit < cell.bits; ++bit) {
      FaultCandidate candidate;
      candidate.scan = true;
      candidate.chain = selector.chain;
      candidate.chain_bit = cell.offset + bit;
      candidate.cell_name = cell.name;
      out.push_back(std::move(candidate));
    }
  }
  if (out.empty()) {
    return util::InvalidArgument("selector " + selector.ToString() +
                                 " matches no injectable bits");
  }
  return out;
}

util::Result<LoggedState> ThorRdTarget::CollectState() {
  LoggedState state;
  if (boundary_.converged()) {
    state = boundary_.synth_state();
  } else {
    state = workload_.RunOutcome(card_->cpu(), timed_out_, outputs_);
    state.scan_images = observe_images_;
  }
  boundary_.RecordOutcome(state);
  return state;
}

}  // namespace goofi::core
