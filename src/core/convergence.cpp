#include "core/convergence.hpp"

#include <algorithm>
#include <cassert>

#include "cpu/state_hash.hpp"

namespace goofi::core {

void GoldenTrace::AddBoundary(GoldenBoundary boundary) {
  assert((boundaries_.empty() ||
          boundaries_.back().instret < boundary.instret) &&
         "boundaries must arrive in strictly increasing instret order");
  boundaries_.push_back(std::move(boundary));
}

const GoldenBoundary* GoldenTrace::FindBoundary(uint64_t instret) const {
  auto it = std::lower_bound(
      boundaries_.begin(), boundaries_.end(), instret,
      [](const GoldenBoundary& b, uint64_t value) { return b.instret < value; });
  if (it == boundaries_.end() || it->instret != instret) return nullptr;
  return &*it;
}

size_t GoldenTrace::MemoryBytes() const {
  size_t bytes = sizeof(GoldenTrace);
  for (const GoldenBoundary& boundary : boundaries_) {
    bytes += sizeof(GoldenBoundary) + boundary.blob.size();
  }
  for (const LoggedState& row : detail_rows_) {
    bytes += sizeof(LoggedState);
    bytes += row.outputs.size() * sizeof(uint32_t);
    for (const auto& [chain, image] : row.scan_images) {
      bytes += chain.size() + image.size();
    }
  }
  return bytes;
}

bool ConvergenceMemo::Lookup(uint64_t instret, uint64_t hash,
                             const std::vector<uint8_t>& blob,
                             LoggedState* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find({instret, hash});
  if (it == entries_.end()) return false;
  // Full-state verify: an entry whose digest collides but whose state
  // differs is a miss, not a wrong answer.
  if (it->second.blob != blob) return false;
  *out = it->second.final_state;
  return true;
}

bool ConvergenceMemo::Insert(uint64_t instret, uint64_t hash,
                             std::vector<uint8_t> blob,
                             LoggedState final_state) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= kMaxEntries) return false;
  auto [it, inserted] = entries_.try_emplace(
      std::make_pair(instret, hash), Entry{std::move(blob), std::move(final_state)});
  (void)it;
  return inserted;
}

size_t ConvergenceMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void BoundaryEngine::Reset() {
  active_ = false;
  converged_ = false;
  next_check_ = 0;
  memo_pending_ = false;
  memo_blob_.clear();
}

util::Status BoundaryEngine::RunGoldenPass(
    uint64_t interval, uint64_t capture_limit, CheckpointCache* cache,
    GoldenTrace* trace, const std::function<util::Status()>& run) {
  golden_interval_ = interval;
  capture_limit_ = capture_limit;
  capture_cache_ = cache;
  capture_trace_ = trace;
  active_ = true;
  converged_ = false;
  next_check_ = 0;  // first capture at instret 0, then every interval
  const util::Status status = run();
  golden_interval_ = 0;
  capture_cache_ = nullptr;
  capture_trace_ = nullptr;
  active_ = false;
  converged_ = false;
  return status;
}

void BoundaryEngine::BeginSuffix(uint64_t instret, const GoldenTrace* trace,
                                 ConvergenceMemo* memo,
                                 std::vector<LoggedState>* detail_log,
                                 size_t max_detail_rows) {
  converged_ = false;
  memo_pending_ = false;
  active_ = false;
  // Detail mode synthesizes the golden suffix rows, so it needs all of them.
  if (trace != nullptr && detail_log != nullptr &&
      (!trace->detail_complete() || trace->detail_rows().empty())) {
    trace = nullptr;
  }
  trace_ = trace;
  memo_ = memo;
  detail_log_ = detail_log;
  max_detail_rows_ = max_detail_rows;
  if (trace_ == nullptr) return;
  const uint64_t interval = trace_->interval();
  next_check_ = (instret / interval + 1) * interval;
  active_ = true;
}

uint64_t BoundaryEngine::Budget(uint64_t stop_instr) const {
  if (!watching()) return stop_instr;
  return stop_instr == 0 ? next_check_ : std::min(stop_instr, next_check_);
}

util::Status BoundaryEngine::AtBoundary(uint64_t instret, bool may_compare) {
  if (golden_interval_ != 0) {
    // Golden pass. Checkpoints stop at the injection window: no experiment
    // can use one at or past the capture limit (FindBefore is strict).
    if (capture_cache_ != nullptr) {
      GOOFI_RETURN_IF_ERROR(host_->CaptureCheckpoint(capture_cache_));
      if (instret + golden_interval_ >= capture_limit_) {
        capture_cache_ = nullptr;
        // Nothing left to record: end a cache-only pass here.
        if (capture_trace_ == nullptr) converged_ = true;
      }
    }
    if (capture_trace_ != nullptr) {
      // Record the digest (and its capture blob, the collision guard).
      cpu::StateHasher hasher(/*capture=*/true);
      GOOFI_RETURN_IF_ERROR(host_->HashBoundaryState(&hasher));
      GoldenBoundary boundary;
      boundary.instret = instret;
      boundary.hash = hasher.hash();
      boundary.blob = hasher.TakeBlob();
      capture_trace_->AddBoundary(std::move(boundary));
    }
    next_check_ = (instret / golden_interval_ + 1) * golden_interval_;
    return util::Status::Ok();
  }
  const uint64_t interval = trace_->interval();
  const uint64_t next = (instret / interval + 1) * interval;
  if (instret != next_check_) {
    // Overshot the boundary (run loops stop on exact instruction counts, so
    // this should not happen); skip rather than compare at a non-boundary
    // point.
    next_check_ = next;
    return util::Status::Ok();
  }
  next_check_ = next;
  if (!may_compare) return util::Status::Ok();
  return CompareAtBoundary(instret);
}

util::Status BoundaryEngine::CompareAtBoundary(uint64_t instret) {
  const GoldenBoundary* golden = trace_->FindBoundary(instret);
  if (golden == nullptr) {
    // The golden run terminated before this point; no later boundary can
    // match either.
    active_ = false;
    return util::Status::Ok();
  }
  ++stats_->boundary_checks;
  cpu::StateHasher hasher(/*capture=*/true);
  GOOFI_RETURN_IF_ERROR(host_->HashBoundaryState(&hasher));
  if (hasher.hash() == golden->hash) {
    if (hasher.blob() == golden->blob) {
      if (detail_log_ != nullptr) {
        // Synthesize the remaining detail rows from the golden suffix
        // (rows past this boundary; row instret values increase strictly).
        const std::vector<LoggedState>& rows = trace_->detail_rows();
        const auto suffix_begin = std::upper_bound(
            rows.begin(), rows.end(), instret,
            [](uint64_t value, const LoggedState& row) {
              return value < row.instret;
            });
        const size_t suffix = static_cast<size_t>(rows.end() - suffix_begin);
        if (detail_log_->size() + suffix > max_detail_rows_) {
          // A full run would hit the row cap mid-suffix and stop with that
          // row's state; synthesizing that is not worth the complexity, and
          // the overflow persists at every later boundary — give up.
          active_ = false;
          return util::Status::Ok();
        }
        detail_log_->insert(detail_log_->end(), suffix_begin, rows.end());
      }
      synth_state_ = trace_->final_state();
      converged_ = true;
      ++stats_->pruned_golden;
      return util::Status::Ok();
    }
    ++stats_->collision_rejects;
  }
  // Divergent state: try the cross-experiment memo (not in detail mode —
  // the memo stores no rows), and remember the first such boundary as this
  // experiment's memo candidate.
  if (detail_log_ != nullptr) return util::Status::Ok();
  if (memo_ != nullptr &&
      memo_->Lookup(instret, hasher.hash(), hasher.blob(), &synth_state_)) {
    converged_ = true;
    ++stats_->pruned_memo;
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

void BoundaryEngine::RecordOutcome(const LoggedState& state) {
  if (!memo_pending_) return;
  if (memo_ != nullptr &&
      memo_->Insert(memo_instret_, memo_hash_, std::move(memo_blob_), state)) {
    ++stats_->memo_inserts;
  }
  memo_pending_ = false;
  memo_blob_.clear();
}

}  // namespace goofi::core
