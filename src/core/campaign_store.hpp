// Database bindings for the GOOFI tables (paper Fig. 4).
//
//   TargetSystemData(targetName PK, description, chainData)
//   CampaignData(campaignName PK, targetName FK -> TargetSystemData, ...)
//   LoggedSystemState(experimentName PK,
//                     parentExperiment FK -> LoggedSystemState,
//                     campaignName FK -> CampaignData,
//                     experimentData, stateVector)
//
// "Through the foreign keys, we prevent inconsistencies in the database"
// (§2.3) — the embedded engine enforces them on insert and delete.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "core/types.hpp"
#include "db/database.hpp"
#include "db/prepared.hpp"

namespace goofi::db {
class Archive;
}

namespace goofi::core {

/// Description of a configured target system (the configuration phase,
/// Fig. 5): the scan-chain layout with per-cell name/width/read-only flags.
struct TargetSystemData {
  std::string name;
  std::string description;
  /// One line per cell: "<chain> <cell> <bits> <ro>".
  std::string chain_data;
};

class CampaignStore {
 public:
  /// Creates the three tables in `database` if missing (via EnsureSchema).
  explicit CampaignStore(db::Database* database);

  db::Database& database() { return *database_; }

  /// Creates missing tables and the secondary indexes the analysis queries
  /// rely on. Idempotent. Must be called again after Database::Load —
  /// persistence stores rows only, so indexes exist in memory only.
  util::Status EnsureSchema();

  /// The store's prepared-statement cache. The shell routes ad-hoc `sql`
  /// commands through it so repeated queries skip parsing and planning.
  db::StatementCache& statement_cache() const { return cache_; }

  /// Attaches (or with nullptr detaches) the durable archive backing the
  /// database. While attached, PutExperiment/PutExperiments group-commit its
  /// WAL after each successful write, so a killed campaign recovers every
  /// committed batch. The caller owns the archive (and its attachment as the
  /// database's observer); this is only the commit-point hook.
  void AttachArchive(db::Archive* archive) { archive_ = archive; }
  db::Archive* archive() const { return archive_; }

  // --- TargetSystemData ----------------------------------------------------
  util::Status PutTargetSystem(const TargetSystemData& target);
  util::Result<TargetSystemData> GetTargetSystem(const std::string& name) const;
  std::vector<std::string> TargetSystemNames() const;

  // --- CampaignData --------------------------------------------------------
  util::Status PutCampaign(const CampaignData& campaign);
  util::Result<CampaignData> GetCampaign(const std::string& name) const;
  std::vector<std::string> CampaignNames() const;

  /// Merges the location selectors and experiment counts of `sources` into a
  /// new campaign named `merged_name` (set-up phase: "merge campaign data
  /// from several fault injection campaigns into a new ... campaign", §3.2).
  /// All sources must share target, technique and workload.
  util::Status MergeCampaigns(const std::vector<std::string>& sources,
                              const std::string& merged_name);

  // --- LoggedSystemState ---------------------------------------------------
  util::Status PutExperiment(const std::string& experiment_name,
                             const std::string& parent_experiment,
                             const std::string& campaign_name,
                             const std::string& experiment_data,
                             const LoggedState& state);

  struct ExperimentRow {
    std::string experiment_name;
    std::string parent_experiment;
    std::string campaign_name;
    std::string experiment_data;
    LoggedState state;
    /// `state` as stored in stateVector (LoggedState::Serialize bytes),
    /// built once where the row is made and stored as is. Empty when the
    /// row's maker did not build it; the store then serializes `state`.
    std::string state_text{};
  };

  util::Status PutExperiment(const ExperimentRow& row);

  /// Batched insert into LoggedSystemState: one schema/foreign-key resolution
  /// for the whole batch instead of one per row, and all-or-nothing semantics
  /// (on any failure the rows of this batch already inserted are removed).
  /// Rows may reference earlier rows of the same batch via parentExperiment.
  util::Status PutExperiments(const std::vector<ExperimentRow>& rows);

  /// Whether a row named `name` is logged; reads the key only, so a row
  /// whose stateVector does not parse still counts.
  bool HasExperiment(const std::string& name) const;

  util::Result<ExperimentRow> GetExperiment(const std::string& name) const;
  /// One LoggedSystemState row read in place: views into the table's
  /// storage, valid during the ForEachExperimentOf callback only.
  struct ExperimentView {
    std::string_view experiment_name;
    std::string_view parent_experiment;  ///< empty when NULL
    std::string_view experiment_data;
    std::string_view state_text;         ///< the stateVector column
  };
  /// Calls `fn` on every row of a campaign in insertion order, read in place
  /// from the idx_lss_campaign posting list: no row is copied or parsed.
  /// Stops at, and returns, the first error `fn` returns.
  util::Status ForEachExperimentOf(
      const std::string& campaign_name,
      const std::function<util::Status(const ExperimentView&)>& fn) const;

  /// All experiments of a campaign, in insertion order.
  util::Result<std::vector<ExperimentRow>> ExperimentsOf(
      const std::string& campaign_name) const;
  /// All rows logged under `parent_experiment` (a detail-mode rerun's
  /// per-instruction trace), in insertion order.
  util::Result<std::vector<ExperimentRow>> DetailRowsOf(
      const std::string& parent_experiment) const;

  /// Name used for a campaign's reference (fault-free) run.
  static std::string ReferenceName(const std::string& campaign_name) {
    return campaign_name + "/ref";
  }

  /// Name of experiment `index` of a campaign ("<campaign>/e0042"). The
  /// serial driver and the parallel runner share this so resume works across
  /// both.
  static std::string ExperimentName(const std::string& campaign_name,
                                    int index);

 private:
  util::Result<std::vector<ExperimentRow>> ExperimentQuery(
      const std::string& sql, const std::string& param) const;

  db::Database* database_;
  mutable db::StatementCache cache_;
  db::Archive* archive_ = nullptr;  ///< not owned
};

}  // namespace goofi::core
