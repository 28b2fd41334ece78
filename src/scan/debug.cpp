#include "scan/debug.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace goofi::scan {

const char* TriggerKindName(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kPcBreakpoint:
      return "pc_breakpoint";
    case TriggerKind::kInstrCount:
      return "instr_count";
    case TriggerKind::kCycleCount:
      return "cycle_count";
    case TriggerKind::kDataAccess:
      return "data_access";
    case TriggerKind::kDataValue:
      return "data_value";
    case TriggerKind::kBranch:
      return "branch";
    case TriggerKind::kCall:
      return "call";
  }
  return "?";
}

std::string Trigger::Describe() const {
  switch (kind) {
    case TriggerKind::kPcBreakpoint:
      return util::Format("pc==0x%08x (occurrence %llu)", address,
                          static_cast<unsigned long long>(occurrence));
    case TriggerKind::kInstrCount:
      return util::Format("instret>=%llu", static_cast<unsigned long long>(count));
    case TriggerKind::kCycleCount:
      return util::Format("cycles>=%llu", static_cast<unsigned long long>(count));
    case TriggerKind::kDataAccess:
      return util::Format("mem access @0x%08x", address);
    case TriggerKind::kDataValue:
      return util::Format("mem data ==0x%08x", value);
    case TriggerKind::kBranch:
      return "any branch";
    case TriggerKind::kCall:
      return "any call";
  }
  return "?";
}

int DebugUnit::AddTrigger(Trigger trigger) {
  triggers_.push_back(trigger);
  hit_counts_.push_back(0);
  return static_cast<int>(triggers_.size()) - 1;
}

void DebugUnit::ClearTriggers() {
  triggers_.clear();
  hit_counts_.clear();
}

void DebugUnit::ResetCounters() {
  for (uint64_t& count : hit_counts_) count = 0;
}

int DebugUnit::StepAndCheck(cpu::StepOutcome* outcome) {
  // Observe the instruction about to execute (the prefetched ir at pc).
  const uint32_t exec_pc = cpu_->pc();
  const uint32_t exec_ir = cpu_->ir();
  *outcome = cpu_->Step();

  // Predecode is infallible and allocation-free — a per-step isa::Decode
  // would build error strings whenever a fault corrupted the executed word.
  const isa::Predecoded decoded = isa::Predecode(exec_ir);
  const bool valid = decoded.fault == isa::PredecodeFault::kNone;
  const bool is_branch = valid && decoded.ins.op >= isa::Opcode::kBeq &&
                         decoded.ins.op <= isa::Opcode::kBgeu;
  const bool is_call = valid && decoded.ins.op == isa::Opcode::kJal;
  const bool is_mem = valid && (decoded.ins.op == isa::Opcode::kLdw ||
                                decoded.ins.op == isa::Opcode::kStw);
  return EvaluateTriggers(exec_pc, is_mem, is_branch, is_call);
}

int DebugUnit::EvaluateTriggers(uint32_t exec_pc, bool is_mem, bool is_branch,
                                bool is_call) {
  // The data-path latches hold the executed access's address and data.
  const uint32_t mem_addr = cpu_->latch_mem_addr();
  const uint32_t mem_data = cpu_->latch_mem_data();

  for (size_t i = 0; i < triggers_.size(); ++i) {
    const Trigger& trigger = triggers_[i];
    bool fired = false;
    switch (trigger.kind) {
      case TriggerKind::kPcBreakpoint:
        if (exec_pc == trigger.address) {
          ++hit_counts_[i];
          fired = hit_counts_[i] >= trigger.occurrence;
        }
        break;
      case TriggerKind::kInstrCount:
        fired = cpu_->instructions_retired() >= trigger.count;
        break;
      case TriggerKind::kCycleCount:
        fired = cpu_->cycles() >= trigger.count;
        break;
      case TriggerKind::kDataAccess:
        fired = is_mem && mem_addr == trigger.address;
        break;
      case TriggerKind::kDataValue:
        fired = is_mem && mem_data == trigger.value;
        break;
      case TriggerKind::kBranch:
        fired = is_branch;
        break;
      case TriggerKind::kCall:
        fired = is_call;
        break;
    }
    if (fired) return static_cast<int>(i);
  }
  return -1;
}

DebugRunResult DebugUnit::RunUntilEvent(uint64_t max_cycles) {
  DebugRunResult result;
  if (cpu_->halted()) {
    // A terminated CPU executes nothing, yet the triggers are still
    // evaluated against its (stale) pc and instruction word, exactly as one
    // StepAndCheck reports them.
    result.fired_trigger = StepAndCheck(&result.outcome);
    return result;
  }

  // Compile the trigger list into watch conditions. Count triggers become
  // absolute budgets (a count of 0 is already-true level semantics: any
  // step satisfies it, so stop after one). Data/branch/call triggers watch
  // the instruction class; the precise address/value/occurrence conditions
  // are re-checked by EvaluateTriggers at each stop, so over-approximating
  // the watch set costs only extra stops, never wrong results.
  cpu::RunFastRequest request;
  request.max_cycles = max_cycles;
  bool have_pc = false;
  for (const Trigger& trigger : triggers_) {
    switch (trigger.kind) {
      case TriggerKind::kPcBreakpoint:
        if (have_pc && request.watch_pc != trigger.address) {
          // Two distinct breakpoint addresses: one hardware comparator
          // cannot watch both, so stop after every instruction.
          request.max_steps = 1;
        }
        have_pc = true;
        request.watch_pc = trigger.address;
        request.watch_pc_enabled = true;
        break;
      case TriggerKind::kInstrCount: {
        const uint64_t count = trigger.count != 0 ? trigger.count : 1;
        request.max_instret = request.max_instret == 0
                                  ? count
                                  : std::min(request.max_instret, count);
        break;
      }
      case TriggerKind::kCycleCount: {
        const uint64_t count = trigger.count != 0 ? trigger.count : 1;
        request.max_cycles = request.max_cycles == 0
                                 ? count
                                 : std::min(request.max_cycles, count);
        break;
      }
      case TriggerKind::kDataAccess:
      case TriggerKind::kDataValue:
        request.watch_mem = true;
        break;
      case TriggerKind::kBranch:
        request.watch_branch = true;
        break;
      case TriggerKind::kCall:
        request.watch_call = true;
        break;
    }
  }

  for (;;) {
    const cpu::RunFastResult fast = cpu_->RunFastEx(request);
    result.outcome = fast.outcome;
    // Same order as a StepAndCheck loop: triggers first (evaluated even on
    // a halting/detecting step), then outcome, then timeout.
    result.fired_trigger = EvaluateTriggers(fast.exec_pc, fast.exec_mem,
                                            fast.exec_branch, fast.exec_call);
    if (result.fired_trigger >= 0) return result;
    if (result.outcome != cpu::StepOutcome::kOk) return result;
    if (max_cycles != 0 && cpu_->cycles() >= max_cycles) {
      result.timed_out = true;
      return result;
    }
    // Spurious stop (e.g. breakpoint occurrence not yet reached): resume.
  }
}

}  // namespace goofi::scan
