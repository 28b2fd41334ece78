// Fault-list equivalence classing (DESIGN.md "Equivalence-classing
// invariants").
//
// For a transient single-bit flip, every injection time inside the window
// between two consecutive accesses of the faulted location is provably
// equivalent: the flipped machines are byte-identical from the later
// injection time onward, so only one representative per class needs to be
// executed — the remaining experiments' database rows are synthesized from
// the representative's by rewriting the injection-time-derived fields
// (experiment name, serialized fault list, detail-row suffix). The classer
// consumes the LivenessAnalyzer access timeline (data + instruction-fetch
// windows) and the planned fault list of every experiment; the
// ParallelCampaignRunner dispatches one work unit per class and synthesizes
// members at commit time, keeping the database byte-identical to an
// undeduplicated run.
#pragma once

#include <optional>
#include <vector>

#include "core/campaign_store.hpp"
#include "core/preinjection.hpp"
#include "core/types.hpp"

namespace goofi::core {

class StaticAnalysis;

/// Dedup observability counters. Deliberately outside
/// FaultInjectionAlgorithms::Stats — deduped and plain runs must compare
/// equal on Stats.
struct EquivalenceStats {
  int64_t classes_formed = 0;          ///< classes with >= 2 members
  int64_t experiments_synthesized = 0; ///< member rows rewritten, not run
  /// Of experiments_synthesized: members of static no-effect classes (key
  /// kinds 5-7), which needed no golden-run timeline at all.
  int64_t static_synthesized = 0;
  int64_t spot_checks_run = 0;
  int64_t spot_checks_passed = 0;

  EquivalenceStats& operator+=(const EquivalenceStats& other) {
    classes_formed += other.classes_formed;
    experiments_synthesized += other.experiments_synthesized;
    static_synthesized += other.static_synthesized;
    spot_checks_run += other.spot_checks_run;
    spot_checks_passed += other.spot_checks_passed;
    return *this;
  }
  bool operator==(const EquivalenceStats&) const = default;
};

class EquivalenceClasser {
 public:
  struct Config {
    Technique technique = Technique::kScifi;
    FaultModelKind fault_model = FaultModelKind::kTransientBitFlip;
    int faults_per_experiment = 1;
    /// Final retired-instruction count of the fault-free (reference) run.
    /// Runtime injection at a time past it provably never happens; without
    /// it no time-window reasoning is possible and runtime-injection
    /// experiments stay singletons.
    bool has_golden_end = false;
    uint64_t golden_end_instret = 0;
    /// Optional static workload analysis (core/static_analysis). Enables the
    /// static no-effect classes — flips into statically never-accessed
    /// registers (kind 5) and never-read memory words (kinds 6/7) — which
    /// need no execution timeline. Must outlive the classer.
    const StaticAnalysis* static_analysis = nullptr;
  };

  struct Class {
    /// Experiment ids in the order they were Add()ed (the runner adds
    /// pending-list positions in commit order).
    std::vector<int> members;
    /// Member with the earliest injection time (ties: first added) — the one
    /// that must execute so every other member's detail suffix is a suffix
    /// of its rows.
    int representative = 0;
    /// Whether member detail rows are the representative's suffix past the
    /// member's injection time (runtime injection) or a verbatim copy
    /// (pre-runtime SWIFI, which ignores injection times entirely).
    bool suffix_filtered = true;
    /// Formed from a static no-effect key (kinds 5-7): the flip is provably
    /// invisible, so members synthesize from a golden-identical
    /// representative. Counted separately in EquivalenceStats.
    bool static_no_effect = false;
  };

  /// `timeline` may be null: only past-end and pre-runtime classes form
  /// then. The analyzer must cover the golden run (trace_length() >=
  /// golden_end_instret) for access-window classes to form; shorter
  /// timelines conservatively degrade to singletons.
  EquivalenceClasser(const LivenessAnalyzer* timeline, Config config);

  /// Adds experiment `id` with its planned fault list. Ids must be unique
  /// and are reported back verbatim in classes().
  void Add(int id, const std::vector<FaultInstance>& faults);

  /// All classes, singletons included, ordered by first Add()ed member.
  const std::vector<Class>& classes() const { return classes_; }

  /// Index into classes() for the n-th Add()ed experiment.
  size_t class_of(size_t add_ordinal) const { return class_of_[add_ordinal]; }

  /// Classes with >= 2 members.
  int64_t multi_member_classes() const { return multi_member_classes_; }

 private:
  struct Key {
    // 1 reg window, 2 mem window, 3 pre-runtime, 4 past-end,
    // 5 static never-accessed register, 6 static never-read word (runtime),
    // 7 static never-read word (pre-runtime)
    int kind = 0;
    uint32_t location = 0;  // register index or byte address
    uint32_t bit = 0;       // chain bit or word bit
    uint64_t window = 0;    // data-access window ordinal
    uint64_t fetch_window = 0;  // instruction-fetch window ordinal
    bool operator<(const Key& o) const {
      if (kind != o.kind) return kind < o.kind;
      if (location != o.location) return location < o.location;
      if (bit != o.bit) return bit < o.bit;
      if (window != o.window) return window < o.window;
      return fetch_window < o.fetch_window;
    }
  };

  /// The class key for a fault list, or nullopt when the experiment must
  /// stay a singleton (eligibility gates: transient single-flip only, known
  /// location semantics, timeline coverage).
  std::optional<Key> Classify(const std::vector<FaultInstance>& faults) const;

  const LivenessAnalyzer* timeline_;
  Config config_;
  std::vector<Class> classes_;
  std::vector<size_t> class_of_;
  std::vector<uint64_t> representative_time_;  // per class
  std::map<Key, size_t> keyed_;
  int64_t multi_member_classes_ = 0;
};

/// Rewrites a representative's result rows into class-member rows: the main
/// row gets the member's experiment name and its own serialized fault list;
/// detail rows become the representative's suffix strictly past the member's
/// injection time (or a verbatim copy when `suffix_filtered` is false),
/// renumbered under the member's name. Everything else, the state and its
/// stateVector text included, is copied as is — see DESIGN.md for the proof.
std::vector<CampaignStore::ExperimentRow> SynthesizeMemberRows(
    const std::vector<CampaignStore::ExperimentRow>& representative_rows,
    const CampaignData& campaign, int member_index,
    const std::vector<FaultInstance>& member_faults, bool suffix_filtered);

}  // namespace goofi::core
