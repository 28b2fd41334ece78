// Debug-event unit: breakpoints and fault triggers evaluated via the scan
// logic.
//
// Paper §3.2: "A fault injection experiment can be terminated by a debug
// event generated via the scan chains i.e., when a time-out value has been
// reached, an error has been detected or the execution of the workload
// ends". §3.3: "The breakpoint is obtained by analysing the workload code
// and is set via the scan-chains." §4 lists additional planned triggers —
// "access of certain data values, execution of branch instructions or
// subprogram calls ... or at specific times determined by a real-time
// clock" — all of which are implemented here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cpu.hpp"

namespace goofi::scan {

enum class TriggerKind {
  kPcBreakpoint,   ///< executed instruction at a given address
  kInstrCount,     ///< N instructions retired
  kCycleCount,     ///< target cycle counter reached a value (real-time clock)
  kDataAccess,     ///< load/store touching a given address
  kDataValue,      ///< load/store moving a given data value
  kBranch,         ///< any branch instruction executed
  kCall,           ///< any subprogram call (jal) executed
};

const char* TriggerKindName(TriggerKind kind);

struct Trigger {
  TriggerKind kind = TriggerKind::kPcBreakpoint;
  uint32_t address = 0;   ///< kPcBreakpoint / kDataAccess
  uint64_t count = 0;     ///< kInstrCount / kCycleCount
  uint32_t value = 0;     ///< kDataValue
  /// For kPcBreakpoint: fire on the `occurrence`-th execution of the address
  /// (1-based). Lets campaigns break in a chosen loop iteration.
  uint64_t occurrence = 1;

  std::string Describe() const;
};

/// Result of running the target until a debug event.
struct DebugRunResult {
  cpu::StepOutcome outcome = cpu::StepOutcome::kOk;
  int fired_trigger = -1;     ///< index into the trigger list, or -1
  bool timed_out = false;     ///< max_cycles elapsed with no event
};

/// Watches a Cpu while stepping it. The unit observes the *executed*
/// instruction of every step (address, opcode, memory traffic), which is
/// what hardware debug comparators on the scan path see.
class DebugUnit {
 public:
  explicit DebugUnit(cpu::Cpu* cpu) : cpu_(cpu) {}

  int AddTrigger(Trigger trigger);
  void ClearTriggers();
  const std::vector<Trigger>& triggers() const { return triggers_; }

  /// Steps the CPU once and evaluates all triggers against the executed
  /// instruction. Returns the index of the first trigger that fired, or -1.
  int StepAndCheck(cpu::StepOutcome* outcome);

  /// Runs until any trigger fires, the workload halts, an EDM fires, or
  /// `max_cycles` elapse (0 = unbounded — only sensible with triggers).
  ///
  /// Runs the CPU through the superblock primitive (Cpu::RunFastEx) with the
  /// trigger list compiled into its watch conditions, and re-evaluates the
  /// triggers with the exact StepAndCheck logic at every superblock exit, so
  /// the fired index, hit counts and CPU state equal those of a StepAndCheck
  /// loop. A trigger list the watch compiler cannot express — more than one
  /// distinct pc-breakpoint address — runs as 1-instruction superblocks.
  DebugRunResult RunUntilEvent(uint64_t max_cycles);

  /// Resets per-run occurrence counters. Call when the target is reset.
  void ResetCounters();

  /// Trigger configuration plus accumulated occurrence counters, for
  /// checkpointing — restored breakpoints behave exactly as if the run had
  /// executed up to the capture point.
  ///
  /// Deliberately *not* covered by the convergence hash
  /// (SimTestCard::HashTargetState): the targets clear and re-arm all
  /// triggers via ArmTriggers before every run phase, so leftover trigger or
  /// hit-count state never survives into comparable execution.
  struct Snapshot {
    std::vector<Trigger> triggers;
    std::vector<uint64_t> hit_counts;
  };

  Snapshot SaveSnapshot() const { return {triggers_, hit_counts_}; }
  void RestoreSnapshot(const Snapshot& snapshot) {
    triggers_ = snapshot.triggers;
    hit_counts_ = snapshot.hit_counts;
  }

 private:
  /// Evaluates all triggers against one executed instruction (address plus
  /// classification); shared verbatim between StepAndCheck and
  /// RunUntilEvent so occurrence counting cannot diverge. Returns the first fired
  /// trigger index, or -1.
  int EvaluateTriggers(uint32_t exec_pc, bool is_mem, bool is_branch,
                       bool is_call);

  cpu::Cpu* cpu_;
  std::vector<Trigger> triggers_;
  std::vector<uint64_t> hit_counts_;  ///< per-trigger occurrence counters
};

}  // namespace goofi::scan
