#include "core/equivalence.hpp"

#include <algorithm>

#include "core/algorithms.hpp"
#include "core/static_analysis.hpp"
#include "isa/isa.hpp"
#include "util/strings.hpp"

namespace goofi::core {

EquivalenceClasser::EquivalenceClasser(const LivenessAnalyzer* timeline,
                                       Config config)
    : timeline_(timeline), config_(config) {}

std::optional<EquivalenceClasser::Key> EquivalenceClasser::Classify(
    const std::vector<FaultInstance>& faults) const {
  // Eligibility gates (mirroring PR 4's pruning gates): only a transient
  // single-bit flip has the one-shot, self-contained effect the window
  // argument relies on. Intermittent bursts and permanent stuck-ats keep
  // re-applying at times derived from the injection time; multi-flip
  // experiments couple several windows.
  if (config_.fault_model != FaultModelKind::kTransientBitFlip) {
    return std::nullopt;
  }
  if (faults.size() != 1 || config_.faults_per_experiment > 1) {
    return std::nullopt;
  }
  const FaultInstance& fault = faults.front();

  if (config_.technique == Technique::kSwifiPreRuntime) {
    // Pre-runtime SWIFI mutates the image before the workload runs and
    // ignores inject_instr entirely: identical (address, bit) means an
    // identical experiment, no timeline needed. A word the static analysis
    // proves never-read is stronger still: the mutated image executes
    // exactly like the golden one, whatever the address or bit — one class
    // for all of them.
    if (fault.IsScanFault()) return std::nullopt;
    if (config_.static_analysis != nullptr &&
        config_.static_analysis->MemoryWordNeverRead(fault.address)) {
      return Key{7, 0, 0, 0, 0};
    }
    return Key{3, fault.address, fault.bit, 0, 0};
  }

  // Runtime injection (SCIFI breakpoint, runtime SWIFI stop): whether and
  // where the flip lands depends on the injection time, so time-window
  // reasoning needs the golden run's final retirement count.
  if (!config_.has_golden_end) return std::nullopt;
  const uint64_t t = fault.inject_instr;
  const uint64_t end = config_.golden_end_instret;
  if (t == end) {
    // The run terminates on the very step the breakpoint would fire on;
    // which one the debug logic reports first is a target corner we do not
    // model. Conservatively a singleton.
    return std::nullopt;
  }
  if (t > end) {
    // The fault-free prefix terminates before the breakpoint count is
    // reached, so the injection never happens (both targets check
    // termination before the breakpoint stop): the run is the golden run,
    // whatever the location. One class for all of them.
    return Key{4, 0, 0, 0, 0};
  }
  // Static no-effect classes (t < end established above). A flip into a
  // register no reachable instruction touches stays in place untouched: the
  // final scan image is golden ^ flip for every injection time, so one class
  // per (register, chain bit). A flip into a memory word that is never
  // loaded, fetched or host-read is invisible outright — memory is not part
  // of the logged state — so every such (address, bit, time) collapses into
  // a single class. Neither needs the execution timeline.
  if (config_.static_analysis != nullptr) {
    if (config_.technique == Technique::kScifi && fault.IsScanFault() &&
        util::StartsWith(fault.cell_name, "regfile.")) {
      const auto reg = isa::ParseRegister(fault.cell_name.substr(8));
      if (reg && config_.static_analysis->RegisterNeverAccessed(*reg)) {
        return Key{5, static_cast<uint32_t>(*reg), fault.chain_bit, 0, 0};
      }
    }
    if (config_.technique == Technique::kSwifiRuntime && !fault.IsScanFault() &&
        config_.static_analysis->MemoryWordNeverRead(fault.address)) {
      return Key{6, 0, 0, 0, 0};
    }
  }

  if (timeline_ == nullptr || timeline_->trace_length() < end) {
    // No (or truncated) access timeline: no window reasoning.
    return std::nullopt;
  }
  if (config_.technique == Technique::kScifi) {
    // Only register-file cells have exact access semantics in the timeline;
    // pc/ir/pipeline/cache/watchdog cells stay singletons.
    if (!fault.IsScanFault()) return std::nullopt;
    if (!util::StartsWith(fault.cell_name, "regfile.")) return std::nullopt;
    const auto reg = isa::ParseRegister(fault.cell_name.substr(8));
    if (!reg) return std::nullopt;
    return Key{1, static_cast<uint32_t>(*reg), fault.chain_bit,
               static_cast<uint64_t>(timeline_->RegisterAccessWindow(*reg, t)),
               0};
  }
  if (config_.technique == Technique::kSwifiRuntime) {
    if (fault.IsScanFault()) return std::nullopt;
    // A memory word is consumed by data accesses (LDW/STW, host exchange)
    // and by instruction fetches; both windows must match.
    return Key{
        2, fault.address, fault.bit,
        static_cast<uint64_t>(timeline_->MemoryAccessWindow(fault.address, t)),
        static_cast<uint64_t>(timeline_->FetchAccessWindow(fault.address, t))};
  }
  return std::nullopt;
}

void EquivalenceClasser::Add(int id, const std::vector<FaultInstance>& faults) {
  const std::optional<Key> key = Classify(faults);
  const uint64_t time = faults.empty() ? 0 : faults.front().inject_instr;

  if (key) {
    const auto [it, inserted] = keyed_.emplace(*key, classes_.size());
    if (!inserted) {
      const size_t index = it->second;
      Class& cls = classes_[index];
      if (cls.members.size() == 1) ++multi_member_classes_;
      cls.members.push_back(id);
      // The representative is the earliest injection: every later member's
      // detail rows are then a suffix of the representative's.
      if (time < representative_time_[index]) {
        representative_time_[index] = time;
        cls.representative = id;
      }
      class_of_.push_back(index);
      return;
    }
  }
  class_of_.push_back(classes_.size());
  Class cls;
  cls.members = {id};
  cls.representative = id;
  cls.suffix_filtered = !key || (key->kind != 3 && key->kind != 7);
  cls.static_no_effect = key && key->kind >= 5;
  classes_.push_back(std::move(cls));
  representative_time_.push_back(time);
}

std::vector<CampaignStore::ExperimentRow> SynthesizeMemberRows(
    const std::vector<CampaignStore::ExperimentRow>& representative_rows,
    const CampaignData& campaign, int member_index,
    const std::vector<FaultInstance>& member_faults, bool suffix_filtered) {
  const std::string name =
      CampaignStore::ExperimentName(campaign.name, member_index);
  std::vector<CampaignStore::ExperimentRow> rows;
  rows.push_back({name, "", campaign.name,
                  FaultInjectionAlgorithms::ExperimentData(campaign.technique,
                                                           member_faults),
                  representative_rows.front().state,
                  representative_rows.front().state_text});
  // Detail rows: the representative's rows strictly past the member's
  // injection time (the member's machine is byte-identical to the
  // representative's from there on; rows at or before it belong to the
  // member's fault-free prefix and are never logged). Row instret values
  // increase strictly, so the suffix is one upper_bound away.
  auto begin = representative_rows.begin() + 1;
  if (suffix_filtered && begin != representative_rows.end()) {
    const uint64_t t =
        member_faults.empty() ? 0 : member_faults.front().inject_instr;
    begin = std::upper_bound(
        begin, representative_rows.end(), t,
        [](uint64_t value, const CampaignStore::ExperimentRow& row) {
          return value < row.state.instret;
        });
  }
  rows.reserve(1 + static_cast<size_t>(representative_rows.end() - begin));
  size_t i = 0;
  for (auto it = begin; it != representative_rows.end(); ++it, ++i) {
    rows.push_back({util::Format("%s/d%06zu", name.c_str(), i), name,
                    campaign.name, "detail_step", it->state, it->state_text});
  }
  return rows;
}

}  // namespace goofi::core
