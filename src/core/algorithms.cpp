#include "core/algorithms.hpp"

#include "util/log.hpp"
#include "util/strings.hpp"

namespace goofi::core {

namespace {
std::string ExperimentName(const std::string& campaign, int index) {
  return CampaignStore::ExperimentName(campaign, index);
}
}  // namespace

// ---------------------------------------------------------------------------
// Per-technique experiment bodies: the block sequences of paper Fig. 2.
// ---------------------------------------------------------------------------

util::Status FaultInjectionAlgorithms::ScifiExperiment() {
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(RunWorkload());
  if (!faults_.empty()) {
    GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
    GOOFI_RETURN_IF_ERROR(ReadScanChain());
    GOOFI_RETURN_IF_ERROR(InjectFault());
    GOOFI_RETURN_IF_ERROR(WriteScanChain());
  }
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::SwifiPreRuntimeExperiment() {
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  if (!faults_.empty()) {
    GOOFI_RETURN_IF_ERROR(MutateImage());
  }
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(RunWorkload());
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::SwifiRuntimeExperiment() {
  GOOFI_RETURN_IF_ERROR(InitTestCard());
  GOOFI_RETURN_IF_ERROR(LoadWorkload());
  GOOFI_RETURN_IF_ERROR(WriteMemory());
  GOOFI_RETURN_IF_ERROR(RunWorkload());
  if (!faults_.empty()) {
    GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
    GOOFI_RETURN_IF_ERROR(InjectMemoryFault());
  }
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

// Warm-start bodies: RestoreCheckpoint stands in for the cold prefix
// (InitTestCard/LoadWorkload/WriteMemory/RunWorkload plus the fault-free
// execution up to the checkpoint); every block from the breakpoint on is the
// cold sequence verbatim, so the logged state is bit-for-bit identical.

util::Status FaultInjectionAlgorithms::ScifiExperimentFrom(
    const Checkpoint& checkpoint) {
  GOOFI_RETURN_IF_ERROR(RestoreCheckpoint(checkpoint));
  GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  GOOFI_RETURN_IF_ERROR(InjectFault());
  GOOFI_RETURN_IF_ERROR(WriteScanChain());
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::SwifiRuntimeExperimentFrom(
    const Checkpoint& checkpoint) {
  GOOFI_RETURN_IF_ERROR(RestoreCheckpoint(checkpoint));
  GOOFI_RETURN_IF_ERROR(WaitForBreakpoint());
  GOOFI_RETURN_IF_ERROR(InjectMemoryFault());
  GOOFI_RETURN_IF_ERROR(WaitForTermination());
  GOOFI_RETURN_IF_ERROR(ReadMemory());
  GOOFI_RETURN_IF_ERROR(ReadScanChain());
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::RunBody(ExperimentBody body) {
  // Warm-start applies only to injecting experiments of the stop-inject-
  // resume techniques; the reference run and pre-runtime SWIFI stay cold.
  if (checkpoint_cache_ != nullptr && !faults_.empty() &&
      SupportsCheckpoints() &&
      (campaign_.technique == Technique::kScifi ||
       campaign_.technique == Technique::kSwifiRuntime)) {
    const Checkpoint* checkpoint =
        checkpoint_cache_->FindBefore(faults_.front().inject_instr);
    if (checkpoint != nullptr) {
      ++warm_starts_;
      return campaign_.technique == Technique::kScifi
                 ? ScifiExperimentFrom(*checkpoint)
                 : SwifiRuntimeExperimentFrom(*checkpoint);
    }
  }
  return (this->*body)();
}

bool FaultInjectionAlgorithms::ShouldAutoCheckpoint() const {
  if (checkpoint_interval_ == 0 || !SupportsCheckpoints()) return false;
  if (campaign_.technique != Technique::kScifi &&
      campaign_.technique != Technique::kSwifiRuntime) {
    return false;
  }
  // Default policy: warm-start when every fault injects at or after the
  // first checkpoint interval, so each experiment is guaranteed to skip at
  // least one interval's worth of re-simulation.
  return force_warm_start_ ||
         static_cast<uint64_t>(campaign_.inject_min_instr) >=
             checkpoint_interval_;
}

// ---------------------------------------------------------------------------
// Campaign driver.
// ---------------------------------------------------------------------------

util::Status FaultInjectionAlgorithms::GenerateFaults(
    const std::vector<FaultCandidate>& space, int index) {
  faults_.clear();
  if (space.empty()) {
    return util::FailedPrecondition("campaign has an empty fault space");
  }
  // Derive a per-experiment stream so experiments are independent of each
  // other and reproducible from (campaign seed, index).
  util::Rng rng(campaign_.seed * 0x9E3779B97F4A7C15ULL +
                static_cast<uint64_t>(index));

  const int wanted = std::max(1, campaign_.faults_per_experiment);
  // Retry sampling when the liveness filter rejects a draw; bounded so a
  // filter that rejects everything cannot hang the campaign.
  const int max_attempts = 200 * wanted;
  int attempts = 0;
  while (static_cast<int>(faults_.size()) < wanted && attempts < max_attempts) {
    ++attempts;
    const FaultCandidate& candidate =
        space[rng.NextBelow(space.size())];
    const uint64_t inject_instr = static_cast<uint64_t>(rng.NextInRange(
        static_cast<int64_t>(campaign_.inject_min_instr),
        static_cast<int64_t>(
            std::max(campaign_.inject_min_instr, campaign_.inject_max_instr))));
    if (liveness_filter_ && !liveness_filter_(candidate, inject_instr)) {
      ++stats_.injections_skipped_dead;
      continue;
    }
    // Distinct locations within one experiment.
    bool duplicate = false;
    for (const FaultInstance& have : faults_) {
      if (have.chain == candidate.chain && have.chain_bit == candidate.chain_bit &&
          have.address == candidate.address && have.bit == candidate.bit) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;

    FaultInstance fault;
    fault.kind = campaign_.fault_model;
    fault.chain = candidate.scan ? candidate.chain : "";
    fault.chain_bit = candidate.chain_bit;
    fault.cell_name = candidate.cell_name;
    fault.address = candidate.address;
    fault.bit = candidate.bit;
    fault.inject_instr = inject_instr;
    fault.stuck_value = rng.NextBool();
    faults_.push_back(std::move(fault));
  }
  if (static_cast<int>(faults_.size()) < wanted) {
    return util::FailedPrecondition(
        "liveness filter rejected the entire fault space");
  }
  // All faults of a multi-fault experiment are injected at one breakpoint
  // (the paper's multiple-bit-flip model): align times to the earliest.
  uint64_t t = faults_.front().inject_instr;
  for (const FaultInstance& fault : faults_) t = std::min(t, fault.inject_instr);
  for (FaultInstance& fault : faults_) fault.inject_instr = t;
  return util::Status::Ok();
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
FaultInjectionAlgorithms::BuildRecords(const std::string& experiment_name,
                                       const std::string& parent) {
  auto state = CollectState();
  if (!state.ok()) return state.status();

  const std::string experiment_data =
      ExperimentData(campaign_.technique, faults_);

  std::vector<CampaignStore::ExperimentRow> rows;
  rows.reserve(1 + detail_log_.size());
  rows.push_back({experiment_name, parent, campaign_.name, experiment_data,
                  std::move(state).value()});
  // Detail rows, one per instruction, each pointing at the main experiment.
  for (size_t i = 0; i < detail_log_.size(); ++i) {
    rows.push_back({util::Format("%s/d%06zu", experiment_name.c_str(), i),
                    experiment_name, campaign_.name, "detail_step",
                    std::move(detail_log_[i])});
  }
  detail_log_.clear();
  // The stateVector text is built here, once per row, on the thread that
  // ran the experiment; the store and the spot check use it as is.
  for (CampaignStore::ExperimentRow& row : rows) {
    row.state.AppendTo(&row.state_text);
  }
  return rows;
}

std::string FaultInjectionAlgorithms::ExperimentData(
    Technique technique, const std::vector<FaultInstance>& faults) {
  std::vector<std::string> fault_texts;
  fault_texts.reserve(faults.size());
  for (const FaultInstance& fault : faults) {
    fault_texts.push_back(fault.Serialize());
  }
  return "technique=" + std::string(TechniqueName(technique)) +
         ";faults=" + util::Join(fault_texts, "|");
}

util::Result<LoggedState> FaultInjectionAlgorithms::LogExperiment(
    const std::string& experiment_name, const std::string& parent) {
  auto rows = BuildRecords(experiment_name, parent);
  if (!rows.ok()) return rows.status();
  for (const CampaignStore::ExperimentRow& row : rows.value()) {
    GOOFI_RETURN_IF_ERROR(store_->PutExperiment(row));
  }
  return std::move(rows.value().front().state);
}

util::Status FaultInjectionAlgorithms::MakeReferenceRun(ExperimentBody body) {
  faults_.clear();
  detail_log_.clear();
  GOOFI_RETURN_IF_ERROR((this->*body)());
  return LogExperiment(CampaignStore::ReferenceName(campaign_.name), "")
      .status();
}

util::Status FaultInjectionAlgorithms::PrepareCampaign(
    const CampaignData& campaign) {
  campaign_ = campaign;
  stats_ = Stats{};
  checkpoint_cache_.reset();
  warm_starts_ = 0;
  golden_trace_.reset();
  convergence_memo_.reset();
  prune_stats_ = ConvergenceStats{};

  // Enumerate the fault space once per campaign.
  fault_space_.clear();
  for (const FaultLocationSelector& selector : campaign_.locations) {
    auto part = EnumerateFaultSpace(selector);
    if (!part.ok()) return part.status();
    fault_space_.insert(fault_space_.end(), part.value().begin(),
                        part.value().end());
  }

  // Build the golden-run products once per campaign: the checkpoint cache
  // (warm-start) and/or the golden trace (convergence pruning), in a single
  // fault-free pass. A campaign driven by ParallelCampaignRunner suppresses
  // this (interval 0 on the workers) and installs shared products instead.
  const bool want_cache = ShouldAutoCheckpoint();
  const bool want_trace =
      convergence_pruning_ && checkpoint_interval_ > 0 && SupportsCheckpoints();
  if (want_cache || want_trace) {
    std::shared_ptr<CheckpointCache> cache;
    if (want_cache) cache = std::make_shared<CheckpointCache>(checkpoint_interval_);
    std::shared_ptr<GoldenTrace> trace;
    if (want_trace) trace = std::make_shared<GoldenTrace>();
    GOOFI_RETURN_IF_ERROR(
        BuildGoldenRun(checkpoint_interval_, cache.get(), trace.get()));
    checkpoint_cache_ = std::move(cache);
    golden_trace_ = std::move(trace);
  }
  if (golden_trace_ != nullptr && convergence_memo_ == nullptr) {
    convergence_memo_ = std::make_shared<ConvergenceMemo>();
  }
  return util::Status::Ok();
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
FaultInjectionAlgorithms::ExecuteExperiment(int index) {
  const ExperimentBody body = BodyForTechnique(campaign_.technique);
  detail_log_.clear();
  std::string name;
  if (index < 0) {
    faults_.clear();
    name = CampaignStore::ReferenceName(campaign_.name);
  } else {
    GOOFI_RETURN_IF_ERROR(GenerateFaults(fault_space_, index));
    name = ExperimentName(campaign_.name, index);
  }
  GOOFI_RETURN_IF_ERROR(RunBody(body));
  return BuildRecords(name, "");
}

util::Result<std::vector<FaultInstance>> FaultInjectionAlgorithms::PlanFaults(
    int index) {
  if (index < 0) {
    return util::InvalidArgument("reference runs have no fault list to plan");
  }
  GOOFI_RETURN_IF_ERROR(GenerateFaults(fault_space_, index));
  return faults_;
}

util::Result<std::vector<CampaignStore::ExperimentRow>>
FaultInjectionAlgorithms::ExecutePlanned(int index,
                                         std::vector<FaultInstance> faults) {
  if (index < 0) {
    return util::InvalidArgument("ExecutePlanned needs an experiment index");
  }
  const ExperimentBody body = BodyForTechnique(campaign_.technique);
  detail_log_.clear();
  faults_ = std::move(faults);
  GOOFI_RETURN_IF_ERROR(RunBody(body));
  return BuildRecords(ExperimentName(campaign_.name, index), "");
}

FaultInjectionAlgorithms::ExperimentBody
FaultInjectionAlgorithms::BodyForTechnique(Technique technique) {
  switch (technique) {
    case Technique::kScifi:
      return &FaultInjectionAlgorithms::ScifiExperiment;
    case Technique::kSwifiPreRuntime:
      return &FaultInjectionAlgorithms::SwifiPreRuntimeExperiment;
    case Technique::kSwifiRuntime:
      return &FaultInjectionAlgorithms::SwifiRuntimeExperiment;
  }
  return &FaultInjectionAlgorithms::ScifiExperiment;
}

util::Status FaultInjectionAlgorithms::DriveCampaign(
    const std::string& campaign_name, ExperimentBody body) {
  // readCampaignData(campaignNr) — Fig. 2.
  auto campaign = store_->GetCampaign(campaign_name);
  if (!campaign.ok()) return campaign.status();
  GOOFI_RETURN_IF_ERROR(PrepareCampaign(campaign.value()));

  // makeReferenceRun() — Fig. 2. A campaign that was paused or stopped can
  // be restarted (the progress window of Fig. 7 offers exactly that): rows
  // already in LoggedSystemState are kept and their experiments skipped.
  // Resume checks read the key only: a logged row counts as done even when
  // its stateVector does not parse.
  if (!store_->HasExperiment(CampaignStore::ReferenceName(campaign_.name))) {
    GOOFI_RETURN_IF_ERROR(MakeReferenceRun(body));
  }

  for (int i = 0; i < campaign_.num_experiments; ++i) {
    const std::string name = ExperimentName(campaign_.name, i);
    if (store_->HasExperiment(name)) {
      ++stats_.experiments_resumed;
      continue;
    }
    GOOFI_RETURN_IF_ERROR(GenerateFaults(fault_space_, i));
    detail_log_.clear();
    GOOFI_RETURN_IF_ERROR(RunBody(body));
    auto logged = LogExperiment(name, "");
    if (!logged.ok()) return logged.status();
    ++stats_.experiments_run;
    if (monitor_ != nullptr &&
        !monitor_->OnExperiment(i + 1, campaign_.num_experiments,
                                logged.value())) {
      util::Log::Info("campaign " + campaign_name + " ended by user after " +
                      std::to_string(i + 1) + " experiments");
      break;
    }
  }
  return util::Status::Ok();
}

util::Status FaultInjectionAlgorithms::FaultInjectorScifi(
    const std::string& campaign_name) {
  return DriveCampaign(campaign_name,
                       &FaultInjectionAlgorithms::ScifiExperiment);
}

util::Status FaultInjectionAlgorithms::FaultInjectorSwifiPreRuntime(
    const std::string& campaign_name) {
  return DriveCampaign(campaign_name,
                       &FaultInjectionAlgorithms::SwifiPreRuntimeExperiment);
}

util::Status FaultInjectionAlgorithms::FaultInjectorSwifiRuntime(
    const std::string& campaign_name) {
  return DriveCampaign(campaign_name,
                       &FaultInjectionAlgorithms::SwifiRuntimeExperiment);
}

util::Status FaultInjectionAlgorithms::RunCampaign(
    const std::string& campaign_name) {
  auto campaign = store_->GetCampaign(campaign_name);
  if (!campaign.ok()) return campaign.status();
  switch (campaign.value().technique) {
    case Technique::kScifi:
      return FaultInjectorScifi(campaign_name);
    case Technique::kSwifiPreRuntime:
      return FaultInjectorSwifiPreRuntime(campaign_name);
    case Technique::kSwifiRuntime:
      return FaultInjectorSwifiRuntime(campaign_name);
  }
  return util::Internal("bad technique");
}

util::Status FaultInjectionAlgorithms::RerunDetailed(
    const std::string& experiment_name) {
  auto row = store_->GetExperiment(experiment_name);
  if (!row.ok()) return row.status();
  auto campaign = store_->GetCampaign(row.value().campaign_name);
  if (!campaign.ok()) return campaign.status();
  campaign_ = std::move(campaign).value();
  campaign_.log_mode = LogMode::kDetail;

  // Reconstruct the experiment's exact faults from experimentData.
  faults_.clear();
  for (const std::string& field : util::Split(row.value().experiment_data, ';')) {
    if (!util::StartsWith(field, "faults=")) continue;
    const std::string list = field.substr(7);
    if (list.empty()) continue;
    for (const std::string& text : util::Split(list, '|')) {
      auto fault = FaultInstance::Parse(text);
      if (!fault.ok()) return fault.status();
      faults_.push_back(std::move(fault).value());
    }
  }

  ExperimentBody body = &FaultInjectionAlgorithms::ScifiExperiment;
  switch (campaign_.technique) {
    case Technique::kScifi:
      break;
    case Technique::kSwifiPreRuntime:
      body = &FaultInjectionAlgorithms::SwifiPreRuntimeExperiment;
      break;
    case Technique::kSwifiRuntime:
      body = &FaultInjectionAlgorithms::SwifiRuntimeExperiment;
      break;
  }
  detail_log_.clear();
  GOOFI_RETURN_IF_ERROR((this->*body)());
  // Log the re-run with parentExperiment = the original experiment (§2.3).
  return LogExperiment(experiment_name + "/detail", experiment_name).status();
}

}  // namespace goofi::core
