// Golden-trace convergence pruning (PR 4).
//
// Rationale: every post-injection suffix is deterministic. Once a faulty
// target's complete execution-visible state equals the golden (fault-free)
// run's state *at the same retired-instruction count*, the remainder of the
// experiment is bit-for-bit identical to the golden remainder — the fault
// was overwritten or masked, and simulating further cannot produce a
// different outcome. PrepareCampaign therefore records a cheap incremental
// state hash (plus the exact hashed byte stream as a collision guard) at
// every checkpoint boundary of the golden run, together with the golden
// final readouts; experiments compare their own hash at those boundaries and
// terminate early on a verified match, synthesizing the remaining database
// rows from the recorded golden data so the database stays byte-identical to
// a full run.
//
// A cross-experiment memoization table (ConvergenceMemo) layers on top: two
// experiments whose *faulty* states collide at the same instret share one
// simulated suffix, even when neither converges with golden.
//
// BoundaryEngine is the protocol itself, written once for every simulated
// target: golden-pass capture, the exact-boundary compare with its collision
// guard, memo lookup and insert, and the per-experiment state they share.
// A target contributes only its state digest, its checkpoint capture and the
// boundary stops of its run loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/status.hpp"

namespace goofi::cpu {
class StateHasher;
}

namespace goofi::core {

class CheckpointCache;

/// One golden-run observation point: the state digest at an exact
/// retired-instruction count (always a multiple of the trace interval).
/// `blob` is the exact byte stream the hash digested (see cpu::StateHasher):
/// comparing blobs is full-state equality over precisely the hashed scope,
/// so a 64-bit hash collision can never cause a false convergence.
struct GoldenBoundary {
  uint64_t instret = 0;
  uint64_t hash = 0;
  std::vector<uint8_t> blob;
};

/// True iff the candidate state matches the boundary exactly — hash first
/// (cheap reject), then the full-state blob (collision guard).
inline bool ConvergenceMatch(const GoldenBoundary& boundary, uint64_t hash,
                             const std::vector<uint8_t>& blob) {
  return boundary.hash == hash && boundary.blob == blob;
}

/// Everything recorded about the golden run for convergence pruning:
/// per-boundary state digests, the golden final LoggedState (the outcome an
/// experiment converging at any boundary would reach), and — for detail-mode
/// campaigns — the golden per-instruction readout rows. Built once by
/// PrepareCampaign / ParallelCampaignRunner, then shared read-only.
class GoldenTrace {
 public:
  void set_interval(uint64_t interval) { interval_ = interval; }
  uint64_t interval() const { return interval_; }

  /// Campaign this trace was built for; targets refuse to prune with a trace
  /// from another campaign (RerunDetailed re-binds campaigns under the same
  /// target object).
  void set_campaign_name(std::string name) { campaign_name_ = std::move(name); }
  const std::string& campaign_name() const { return campaign_name_; }

  /// Whether experiments of `campaign` can prune against this trace: it was
  /// built for that campaign, with boundaries and a golden final state.
  bool Covers(const std::string& campaign) const {
    return interval_ != 0 && has_final_state_ && campaign_name_ == campaign;
  }

  /// Boundaries must be added in strictly increasing instret order.
  void AddBoundary(GoldenBoundary boundary);
  const std::vector<GoldenBoundary>& boundaries() const { return boundaries_; }

  /// Exact-instret lookup (binary search); nullptr when the golden run never
  /// reached a boundary at `instret`.
  const GoldenBoundary* FindBoundary(uint64_t instret) const;

  /// Golden final outcome, captured by running the full experiment epilogue
  /// (ReadMemory + observation ReadScanChain + CollectState) once after the
  /// golden run terminates.
  void SetFinalState(LoggedState state) {
    final_state_ = std::move(state);
    has_final_state_ = true;
  }
  bool has_final_state() const { return has_final_state_; }
  const LoggedState& final_state() const { return final_state_; }

  /// Golden detail-mode rows (one per executed instruction, whole run).
  /// Only recorded for detail-mode campaigns. `detail_complete` is false
  /// when the golden detail log hit the row cap before termination — pruned
  /// synthesis would then diverge from an unpruned run, so targets must not
  /// prune detail experiments against an incomplete trace.
  std::vector<LoggedState>* mutable_detail_rows() { return &detail_rows_; }
  const std::vector<LoggedState>& detail_rows() const { return detail_rows_; }
  void set_detail_complete(bool complete) { detail_complete_ = complete; }
  bool detail_complete() const { return detail_complete_; }

  /// Approximate heap footprint, for accounting next to the checkpoint cache.
  size_t MemoryBytes() const;

 private:
  uint64_t interval_ = 0;
  std::string campaign_name_;
  std::vector<GoldenBoundary> boundaries_;
  LoggedState final_state_;
  bool has_final_state_ = false;
  std::vector<LoggedState> detail_rows_;
  bool detail_complete_ = true;
};

/// Cross-experiment suffix memoization: hash-at-first-divergent-boundary →
/// recorded final outcome. When an experiment fails to converge with golden
/// at a boundary, its (instret, digest) there keys the *faulty* suffix; any
/// later experiment reaching an identical faulty state at the same instret
/// must produce the identical final LoggedState and can stop immediately.
///
/// Thread-safe: shared across ParallelCampaignRunner workers. Inserts are
/// single-writer per entry (first experiment to finish wins); lookups verify
/// the full-state blob, so a hash collision degrades to a miss, never to a
/// wrong outcome.
class ConvergenceMemo {
 public:
  /// Bounds the table so adversarial campaigns cannot grow it unboundedly.
  static constexpr size_t kMaxEntries = 4096;

  /// Returns true and fills `out` on a verified hit.
  bool Lookup(uint64_t instret, uint64_t hash,
              const std::vector<uint8_t>& blob, LoggedState* out) const;

  /// Returns true if the entry was stored (false when full or already
  /// present — both benign).
  bool Insert(uint64_t instret, uint64_t hash, std::vector<uint8_t> blob,
              LoggedState final_state);

  size_t size() const;

 private:
  struct Entry {
    std::vector<uint8_t> blob;
    LoggedState final_state;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<uint64_t, uint64_t>, Entry> entries_;
};

/// Pruning observability, surfaced through the shell `stats` command.
/// Deliberately outside FaultInjectionAlgorithms::Stats (which pruned and
/// unpruned runs must compare equal on), like warm_starts(): how often
/// pruning fired is order- and configuration-dependent, the logged results
/// are not.
struct ConvergenceStats {
  int64_t boundary_checks = 0;    ///< hash comparisons performed
  int64_t pruned_golden = 0;      ///< experiments ended by golden convergence
  int64_t pruned_memo = 0;        ///< experiments ended by a memo hit
  int64_t collision_rejects = 0;  ///< hash matched but full state differed
  int64_t memo_inserts = 0;       ///< suffix outcomes recorded in the memo

  int64_t pruned_total() const { return pruned_golden + pruned_memo; }

  ConvergenceStats& operator+=(const ConvergenceStats& other) {
    boundary_checks += other.boundary_checks;
    pruned_golden += other.pruned_golden;
    pruned_memo += other.pruned_memo;
    collision_rejects += other.collision_rejects;
    memo_inserts += other.memo_inserts;
    return *this;
  }
};

/// The convergence-boundary protocol of one target instance, and its per-
/// experiment state. Boundaries sit at the multiples of the trace interval;
/// the owning run loop stops at each one (Due) after servicing everything
/// else that happens at that retirement count, and calls AtBoundary there —
/// the same program point in the golden pass and in every experiment.
///
///   - Golden pass (RunGoldenPass): every boundary captures a checkpoint
///     while below `capture_limit`, and records the state digest plus its
///     capture blob into the trace.
///   - Experiment (BeginSuffix after injection): every boundary compares the
///     digest with the golden one at the same instret, hash first, then the
///     blob (a collision is counted and rejected). A match converges the run
///     on the golden final state; otherwise a memo hit converges it on the
///     memoized outcome, and the first miss becomes this experiment's memo
///     candidate, inserted with its final state by RecordOutcome.
///
/// A converged run stops simulating; the target takes its logged outcome
/// from synth_state().
class BoundaryEngine {
 public:
  /// What the owning target supplies at a boundary.
  class Host {
   public:
    /// Digests everything that can shape the rest of the run: the target
    /// state plus the host-side per-experiment accumulators.
    virtual util::Status HashBoundaryState(cpu::StateHasher* hasher) = 0;
    /// Adds a checkpoint of the current golden-run state to `cache`.
    virtual util::Status CaptureCheckpoint(CheckpointCache* cache) = 0;

   protected:
    ~Host() = default;
  };

  /// `host` and `stats` must outlive the engine.
  BoundaryEngine(Host* host, ConvergenceStats* stats)
      : host_(host), stats_(stats) {}

  /// Clears the per-experiment state (cold prologue, checkpoint restore).
  void Reset();

  /// Runs `run`, the fault-free workload driven through the target's
  /// experiment run loop, as the golden pass: the first boundary is at
  /// instret 0, then every `interval`. Checkpoints go into `cache` (if any)
  /// while the next boundary is below `capture_limit`; a cache-only pass
  /// then converges, which ends the run. Digests go into `trace` (if any).
  util::Status RunGoldenPass(uint64_t interval, uint64_t capture_limit,
                             CheckpointCache* cache, GoldenTrace* trace,
                             const std::function<util::Status()>& run);

  /// Starts the post-injection phase at `instret`. With a `trace` (the
  /// target has checked that the experiment qualifies), the first boundary
  /// strictly after the injection point is armed — a faulty run can only
  /// have rejoined the golden trajectory after the fault landed. Without
  /// one, this phase never prunes.
  ///
  /// `detail_log` is the detail-mode row log, when the target logs one: a
  /// golden match then appends the golden suffix rows to it (at most
  /// `max_detail_rows` in all, else pruning gives up), a trace without a
  /// complete detail suffix disables pruning, and the memo stays off (it
  /// stores no rows).
  void BeginSuffix(uint64_t instret, const GoldenTrace* trace,
                   ConvergenceMemo* memo,
                   std::vector<LoggedState>* detail_log = nullptr,
                   size_t max_detail_rows = 0);

  /// Whether a boundary stop is armed.
  bool watching() const { return active_ && !converged_; }
  /// The next boundary's instret.
  uint64_t next_check() const { return next_check_; }
  /// Whether the run loop, at `instret`, has reached the next boundary.
  bool Due(uint64_t instret) const {
    return watching() && instret >= next_check_;
  }
  /// The nearer of `stop_instr` (0 = none) and the next boundary: the
  /// retired-instruction budget that stops a run loop exactly where it must
  /// act next (0 = unbounded).
  uint64_t Budget(uint64_t stop_instr) const;

  /// The boundary action at `instret`: capture (golden pass) or compare
  /// (experiment). Advances next_check(); may converge the run or end
  /// pruning for this experiment. `may_compare` false skips the compare at
  /// this boundary — for target state the digest does not cover (Thor: an
  /// intermittent burst still re-activating).
  util::Status AtBoundary(uint64_t instret, bool may_compare = true);

  bool converged() const { return converged_; }
  /// The converged run's logged outcome.
  const LoggedState& synth_state() const { return synth_state_; }

  /// CollectState's tail: memoizes `state`, the deterministic outcome of
  /// this experiment's first divergent boundary state, if it recorded one —
  /// whether the run later converged or simulated to the end.
  void RecordOutcome(const LoggedState& state);

 private:
  util::Status CompareAtBoundary(uint64_t instret);

  Host* host_;
  ConvergenceStats* stats_;

  bool active_ = false;
  bool converged_ = false;
  uint64_t next_check_ = 0;
  LoggedState synth_state_;

  // Golden-pass products; golden_interval_ is nonzero only during a pass.
  uint64_t golden_interval_ = 0;
  uint64_t capture_limit_ = 0;
  CheckpointCache* capture_cache_ = nullptr;
  GoldenTrace* capture_trace_ = nullptr;

  // Experiment phase inputs (BeginSuffix).
  const GoldenTrace* trace_ = nullptr;
  ConvergenceMemo* memo_ = nullptr;
  std::vector<LoggedState>* detail_log_ = nullptr;
  size_t max_detail_rows_ = 0;

  // First post-injection boundary whose state diverged from golden: the
  // cross-experiment memo candidate.
  bool memo_pending_ = false;
  uint64_t memo_instret_ = 0;
  uint64_t memo_hash_ = 0;
  std::vector<uint8_t> memo_blob_;
};

}  // namespace goofi::core
