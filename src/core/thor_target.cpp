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
  int iterations = 0;
  uint32_t crc_state = 0;
  std::vector<double> env_state;

  size_t MemoryBytes() const override {
    return sizeof(ThorPayload) + card.MemoryBytes() +
           env_state.size() * sizeof(double);
  }
};

}  // namespace

ThorRdTarget::ThorRdTarget(CampaignStore* store, testcard::TestCard* card)
    : FaultInjectionAlgorithms(store), card_(card) {}

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

util::Status ThorRdTarget::EnsureWorkload() {
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
      return util::InvalidArgument("unknown environment simulator " +
                                   workload_.environment);
    }
    auto io = program_.Symbol(workload_.input_symbol);
    if (!io.ok()) return io.status();
    input_addr_ = io.value();
    output_addr_ = input_addr_ + workload_.input_words * 4;
    auto loop_end = program_.Symbol(workload_.iteration_symbol);
    if (!loop_end.ok()) return loop_end.status();
    loop_end_addr_ = loop_end.value();
  } else if (!workload_.result_symbol.empty()) {
    auto result = program_.Symbol(workload_.result_symbol);
    if (!result.ok()) return result.status();
    result_addr_ = result.value();
  }
  workload_ready_ = true;
  return util::Status::Ok();
}

util::Status ThorRdTarget::InitTestCard() {
  GOOFI_RETURN_IF_ERROR(card_->Init());
  iterations_ = 0;
  timed_out_ = false;
  injection_done_ = false;
  terminated_before_injection_ = false;
  activations_done_ = 0;
  next_activation_ = 0;
  actuator_crc_.Reset();
  outputs_.clear();
  inject_images_.clear();
  observe_images_.clear();
  prune_active_ = false;
  converged_ = false;
  prune_next_check_ = 0;
  reactivation_armed_ = false;
  memo_pending_ = false;
  memo_blob_.clear();
  return util::Status::Ok();
}

util::Status ThorRdTarget::LoadWorkload() {
  GOOFI_RETURN_IF_ERROR(EnsureWorkload());
  GOOFI_RETURN_IF_ERROR(card_->LoadWorkload(program_));
  if (environment_) environment_->Reset();
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
  if (environment_ == nullptr) return util::Status::Ok();
  // "the workload and initial input data is downloaded to the system" (§3.3).
  return card_->WriteMemory(input_addr_, environment_->Sense());
}

void ThorRdTarget::ArmTriggers(bool with_injection_breakpoint,
                               bool with_reactivation) {
  card_->ClearTriggers();
  iteration_trigger_ = breakpoint_trigger_ = reactivation_trigger_ = -1;
  prune_trigger_ = -1;
  reactivation_armed_ = with_reactivation;
  if (environment_ != nullptr) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kPcBreakpoint;
    trigger.address = loop_end_addr_;
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
  if (prune_active_ && !converged_) {
    scan::Trigger trigger;
    trigger.kind = scan::TriggerKind::kInstrCount;
    trigger.count = prune_next_check_;
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
         (environment_ != nullptr && iterations_ >= campaign_.max_iterations);
}

util::Status ThorRdTarget::ServiceIteration() {
  auto outputs = card_->ReadMemory(output_addr_, workload_.output_words);
  if (!outputs.ok()) return outputs.status();
  for (uint32_t word : outputs.value()) actuator_crc_.UpdateWord(word);
  const std::vector<uint32_t> inputs = environment_->Exchange(outputs.value());
  GOOFI_RETURN_IF_ERROR(card_->WriteMemory(input_addr_, inputs));
  ++iterations_;
  return util::Status::Ok();
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
    util::BitVec& image = images.at(fault.chain);
    if (fault.kind == FaultModelKind::kPermanentStuckAt) {
      image.Set(fault.chain_bit, fault.stuck_value);
    } else {
      image.Flip(fault.chain_bit);
    }
  }
  for (const auto& [chain, image] : images) {
    GOOFI_RETURN_IF_ERROR(card_->WriteScanChain(chain, image));
  }
  // Memory-space faults (runtime SWIFI with non-transient models).
  for (const FaultInstance& fault : faults_) {
    if (fault.IsScanFault()) continue;
    auto word = card_->ReadMemory(fault.address, 1);
    if (!word.ok()) return word.status();
    uint32_t value = word.value()[0];
    if (fault.kind == FaultModelKind::kPermanentStuckAt) {
      if (fault.stuck_value) {
        value |= (1u << fault.bit);
      } else {
        value &= ~(1u << fault.bit);
      }
    } else {
      value ^= (1u << fault.bit);
    }
    GOOFI_RETURN_IF_ERROR(card_->WriteMemory(fault.address, {value}));
  }
  ++activations_done_;
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
    if (prune_active_ && !converged_ &&
        card_->cpu().instructions_retired() >= prune_next_check_) {
      GOOFI_RETURN_IF_ERROR(AtBoundary());
      if (converged_) return util::Status::Ok();
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
      if (iterations_ >= campaign_.max_iterations) return util::Status::Ok();
      continue;
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
    // the state after retiring exactly prune_next_check_ instructions). No
    // triggers to re-arm on this path: single-stepping checks every
    // retirement, so the boundary hits exactly.
    if (prune_active_ && !converged_ &&
        card_->cpu().instructions_retired() >= prune_next_check_) {
      GOOFI_RETURN_IF_ERROR(AtBoundary());
      if (converged_) return util::Status::Ok();
    }
    const uint32_t exec_pc = card_->cpu().pc();
    const cpu::StepOutcome outcome = card_->SingleStep();
    if (environment_ != nullptr && exec_pc == loop_end_addr_) {
      GOOFI_RETURN_IF_ERROR(ServiceIteration());
    }
    if (card_->cpu().cycles() >= campaign_.timeout_cycles) timed_out_ = true;

    LoggedState snapshot;
    snapshot.cycles = card_->cpu().cycles();
    snapshot.instret = card_->cpu().instructions_retired();
    snapshot.iterations = iterations_;
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
  payload->iterations = iterations_;
  payload->crc_state = actuator_crc_.raw_state();
  if (environment_ != nullptr) payload->env_state = environment_->SaveState();
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
  golden_interval_ = interval;
  capture_cache_ = cache;
  capture_trace_ = trace;
  prune_active_ = true;
  converged_ = false;
  prune_next_check_ = 0;  // first capture at instret 0, then every interval
  ArmTriggers(/*with_injection_breakpoint=*/false, /*with_reactivation=*/false);
  const bool detail =
      trace != nullptr && campaign_.log_mode == LogMode::kDetail;
  const util::Status run =
      detail ? RunLoopDetail() : RunLoop(/*stop_at_breakpoint=*/false);
  golden_interval_ = 0;
  capture_cache_ = nullptr;
  capture_trace_ = nullptr;
  prune_active_ = false;
  converged_ = false;
  GOOFI_RETURN_IF_ERROR(run);
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

util::Status ThorRdTarget::HashTargetNow(cpu::StateHasher* hasher) {
  GOOFI_RETURN_IF_ERROR(card_->HashTargetState(hasher));
  // Host-side per-experiment accumulators that shape the remaining run and
  // the logged outcome: actuator-CRC state, iteration count, plant state.
  hasher->U32(actuator_crc_.raw_state());
  hasher->I32(iterations_);
  if (environment_ != nullptr) {
    environment_->SaveStateInto(&env_state_scratch_);
    hasher->U64(env_state_scratch_.size());
    for (double value : env_state_scratch_) hasher->Double(value);
  }
  return util::Status::Ok();
}

bool ThorRdTarget::CanPruneExperiment() const {
  if (!convergence_pruning_ || golden_trace_ == nullptr) return false;
  const GoldenTrace& trace = *golden_trace_;
  if (trace.interval() == 0 || !trace.has_final_state()) return false;
  if (trace.campaign_name() != campaign_.name) return false;
  if (faults_.empty() || !injection_done_ || terminated_before_injection_) {
    return false;
  }
  // Permanent faults re-activate forever: the target can never rejoin the
  // golden trajectory while the stuck-at keeps being re-applied.
  if (campaign_.fault_model == FaultModelKind::kPermanentStuckAt) return false;
  if (!card_->SupportsStateHash()) return false;
  // Canonical memory hashing digests against the workload's baseline; no
  // baseline for this workload means no comparable hash.
  if (warm_ready_workload_ != campaign_.workload) return false;
  // Detail mode additionally needs the golden suffix rows to synthesize.
  if (campaign_.log_mode == LogMode::kDetail &&
      (!trace.detail_complete() || trace.detail_rows().empty())) {
    return false;
  }
  return true;
}

util::Status ThorRdTarget::AtBoundary() {
  const uint64_t instret = card_->cpu().instructions_retired();
  if (golden_interval_ != 0) {
    // Golden pass. Checkpoints stop at the injection window: no experiment
    // can use one at or past inject_max_instr (FindBefore is strict).
    if (capture_cache_ != nullptr) {
      GOOFI_RETURN_IF_ERROR(CaptureCheckpoint(capture_cache_));
      if (instret + golden_interval_ >= campaign_.inject_max_instr) {
        capture_cache_ = nullptr;
        // Nothing left to record: end a cache-only pass here.
        if (capture_trace_ == nullptr) converged_ = true;
      }
    }
    if (capture_trace_ != nullptr) {
      // Record the digest (and its capture blob, the collision guard).
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
    // Overshot the boundary (instruction-count stops are exact, so this
    // should not happen); skip rather than compare at a non-boundary point.
    prune_next_check_ = next;
    return util::Status::Ok();
  }
  prune_next_check_ = next;
  // An intermittent burst still in flight keeps future behavior dependent on
  // host-side reactivation state the hash does not cover; compare only once
  // the burst has fully fired.
  if (campaign_.fault_model == FaultModelKind::kIntermittentBitFlip &&
      activations_done_ < campaign_.burst_length) {
    return util::Status::Ok();
  }
  const GoldenBoundary* golden = golden_trace_->FindBoundary(instret);
  if (golden == nullptr) {
    // The golden run terminated before this point; no later boundary can
    // match either.
    prune_active_ = false;
    return util::Status::Ok();
  }
  ++prune_stats_.boundary_checks;
  cpu::StateHasher hasher(/*capture=*/true);
  GOOFI_RETURN_IF_ERROR(HashTargetNow(&hasher));
  if (hasher.hash() == golden->hash) {
    if (hasher.blob() == golden->blob) {
      if (campaign_.log_mode == LogMode::kDetail) {
        // Synthesize the remaining detail rows from the golden suffix
        // (rows past this boundary; row instret values increase strictly).
        const std::vector<LoggedState>& rows = golden_trace_->detail_rows();
        const auto suffix_begin = std::upper_bound(
            rows.begin(), rows.end(), instret,
            [](uint64_t value, const LoggedState& row) {
              return value < row.instret;
            });
        const size_t suffix = static_cast<size_t>(rows.end() - suffix_begin);
        if (detail_log_.size() + suffix > kMaxDetailRows) {
          // A full run would hit the row cap mid-suffix and stop with that
          // row's state; synthesizing that is not worth the complexity, and
          // the overflow persists at every later boundary — give up.
          prune_active_ = false;
          return util::Status::Ok();
        }
        detail_log_.insert(detail_log_.end(), suffix_begin, rows.end());
      }
      synth_state_ = golden_trace_->final_state();
      converged_ = true;
      ++prune_stats_.pruned_golden;
      return util::Status::Ok();
    }
    ++prune_stats_.collision_rejects;
  }
  // Divergent state: try the cross-experiment memo (normal mode only —
  // detail rows are not memoized), and remember the first such boundary as
  // this experiment's memo candidate.
  if (campaign_.log_mode != LogMode::kNormal) return util::Status::Ok();
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
  iterations_ = payload->iterations;
  timed_out_ = false;
  injection_done_ = false;
  terminated_before_injection_ = false;
  activations_done_ = 0;
  next_activation_ = 0;
  actuator_crc_.set_raw_state(payload->crc_state);
  outputs_.clear();
  inject_images_.clear();
  observe_images_.clear();
  prune_active_ = false;
  converged_ = false;
  prune_next_check_ = 0;
  memo_pending_ = false;
  memo_blob_.clear();
  if (environment_ != nullptr) environment_->RestoreState(payload->env_state);
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
  if (converged_) return util::Status::Ok();
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
  for (const FaultInstance& fault : faults_) {
    if (!fault.IsScanFault()) continue;
    auto it = inject_images_.find(fault.chain);
    if (it == inject_images_.end()) {
      return util::Internal("InjectFault before ReadScanChain for chain " +
                            fault.chain);
    }
    if (fault.kind == FaultModelKind::kPermanentStuckAt) {
      it->second.Set(fault.chain_bit, fault.stuck_value);
    } else {
      it->second.Flip(fault.chain_bit);
    }
  }
  return util::Status::Ok();
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
  converged_ = false;
  memo_pending_ = false;
  prune_active_ = false;
  if (CanPruneExperiment()) {
    // First boundary strictly after the injection point: a faulty run can
    // only have rejoined the golden trajectory after the fault landed.
    const uint64_t interval = golden_trace_->interval();
    prune_next_check_ =
        (card_->cpu().instructions_retired() / interval + 1) * interval;
    prune_active_ = true;
  }
  ArmTriggers(false, reactivate);
  if (campaign_.log_mode == LogMode::kDetail) {
    return RunLoopDetail();
  }
  return RunLoop(/*stop_at_breakpoint=*/false);
}

util::Status ThorRdTarget::ReadMemory() {
  // A converged run takes its outputs from the synthesized state.
  if (converged_) return util::Status::Ok();
  if (environment_ != nullptr) {
    // Control workloads: the trace of actuator commands is the output.
    outputs_ = {actuator_crc_.Value()};
    return util::Status::Ok();
  }
  if (workload_.result_words == 0) {
    outputs_.clear();
    return util::Status::Ok();
  }
  auto words = card_->ReadMemory(result_addr_, workload_.result_words);
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
    uint32_t value = word.value()[0];
    if (fault.kind == FaultModelKind::kPermanentStuckAt) {
      if (fault.stuck_value) {
        value |= (1u << fault.bit);
      } else {
        value &= ~(1u << fault.bit);
      }
    } else {
      value ^= (1u << fault.bit);
    }
    GOOFI_RETURN_IF_ERROR(card_->WriteMemory(fault.address, {value}));
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
  GOOFI_RETURN_IF_ERROR(EnsureWorkload());
  std::vector<FaultCandidate> out;

  if (selector.chain == "memory.text" || selector.chain == "memory.data") {
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
      return util::InvalidArgument(
          "workload has no _etext marker; memory.data is empty");
    }
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    if (end > begin) ranges.emplace_back(begin, end);
    // Control workloads keep their working data in the environment I/O
    // buffer rather than the image; that buffer is part of the "data area"
    // the paper's pre-runtime SWIFI targets.
    if (selector.chain == "memory.data" && workload_.infinite_loop) {
      const uint32_t io_end =
          input_addr_ + (workload_.input_words + workload_.output_words) * 4;
      ranges.emplace_back(input_addr_, io_end);
    }
    if (ranges.empty()) {
      return util::InvalidArgument("selector matches no words: " +
                                   selector.ToString());
    }
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

  const scan::ScanChain* chain = card_->chains().Find(selector.chain);
  if (chain == nullptr) {
    return util::NotFound("no scan chain or memory space named " +
                          selector.chain);
  }
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
  if (converged_) {
    state = synth_state_;
  } else {
    const cpu::Cpu& cpu = card_->cpu();
    state.detected = cpu.detected();
    state.halted = cpu.halted() && !cpu.detected();
    if (state.detected) {
      state.edm = cpu::EdmTypeName(cpu.edm_event().type);
      state.edm_code = cpu.edm_event().code;
    }
    state.timed_out = timed_out_;
    state.env_failed = environment_ != nullptr && environment_->Failed();
    state.cycles = cpu.cycles();
    state.instret = cpu.instructions_retired();
    state.iterations = iterations_;
    state.outputs = outputs_;
    state.scan_images = observe_images_;
  }
  // The experiment's final state is the deterministic outcome of the first
  // divergent boundary state recorded in AtBoundary — memoize it, whether
  // this run later converged (via golden or memo) or simulated to the end.
  if (memo_pending_) {
    if (convergence_memo_ != nullptr &&
        campaign_.log_mode == LogMode::kNormal &&
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
