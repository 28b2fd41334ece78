// TRD32 microprocessor simulator — the fault-injection target.
//
// The core uses a prefetch model: `ir` always holds the next instruction to
// execute (already fetched through the instruction cache) and `pc` its
// address. Step() executes `ir`, then fetches the following instruction.
// This matters for fault injection: SCIFI stops the target at a breakpoint,
// flips bits via the scan chains, and resumes — a flip in `ir` therefore
// corrupts a real in-flight instruction, exactly like a flip in a hardware
// pipeline register would.
//
// All architectural and micro-architectural state is exported through
// BuildStateRegistry() for the scan-chain logic (src/scan).
#pragma once

#include <array>
#include <cstdint>

#include "cpu/cache.hpp"
#include "cpu/decode_cache.hpp"
#include "cpu/edm.hpp"
#include "cpu/memory.hpp"
#include "cpu/state.hpp"
#include "isa/isa.hpp"

namespace goofi::cpu {

class StateHasher;

struct CpuConfig {
  uint32_t memory_bytes = 1u << 20;  ///< 1 MiB
  uint32_t icache_lines = 64;        ///< power of two
  uint32_t dcache_lines = 64;        ///< power of two
  uint32_t cache_miss_penalty = 4;   ///< extra cycles per miss
  uint64_t watchdog_limit = 0;       ///< cycles between watchdog kicks; 0 = off
  uint32_t stack_limit = 0;          ///< sp below this trips kStackOverflow; 0 = off
  EdmConfig edms;
  /// Golden-image intern pool shared between CPUs (see cpu/memory.hpp):
  /// targets built from the same config instance share one physical baseline
  /// image per workload. Null keeps baselines target-local. Purely a
  /// memory-sharing knob — simulation results are unaffected.
  std::shared_ptr<GoldenRegistry> golden_registry;
};

/// Outcome of one Step().
enum class StepOutcome {
  kOk,        ///< executed one instruction, still running
  kHalted,    ///< executed HALT (normal workload termination)
  kDetected,  ///< an EDM fired; see edm_event()
};

/// Stop conditions for Cpu::RunFastEx. A zero budget means "no limit"; all
/// budgets are absolute counter values (stop once the counter reaches the
/// value after a full step), matching the post-step checks the reference
/// Step() drivers perform.
struct RunFastRequest {
  uint64_t max_cycles = 0;   ///< stop once cycles() >= this
  uint64_t max_instret = 0;  ///< stop once instructions_retired() >= this
  uint64_t max_steps = 0;    ///< stop after this many instructions executed here
  uint32_t watch_pc = 0;     ///< stop after executing the instruction at this pc
  bool watch_pc_enabled = false;
  bool watch_mem = false;     ///< stop after any LDW/STW
  bool watch_branch = false;  ///< stop after any conditional branch
  bool watch_call = false;    ///< stop after any JAL
};

/// Result of Cpu::RunFastEx: why control returned plus the classification of
/// the last executed instruction (what DebugUnit::StepAndCheck derives by
/// re-decoding — the fast path hands it out for free).
struct RunFastResult {
  /// What a reference Step() of the last instruction would have returned.
  StepOutcome outcome = StepOutcome::kOk;
  enum class Stop {
    kOutcome,  ///< halted or detected
    kWatch,    ///< a watch_* condition matched the last executed instruction
    kCycles,   ///< max_cycles reached
    kInstret,  ///< max_instret reached
    kSteps,    ///< max_steps reached
  };
  Stop stop = Stop::kOutcome;
  uint64_t steps = 0;    ///< instructions executed by this call
  uint32_t exec_pc = 0;  ///< pc of the last executed instruction
  bool exec_mem = false;
  bool exec_branch = false;
  bool exec_call = false;
};

/// Complete execution state of a Cpu at one point in time, captured for the
/// checkpoint engine. Memory is stored as a dirty-page delta against the
/// baseline image (Memory::MarkCleanBaseline), not a full copy.
struct CpuSnapshot {
  std::array<uint32_t, isa::kNumRegisters> regs{};
  uint32_t pc = 0;
  uint32_t ir = 0;
  uint32_t next_pc = 0;
  uint32_t latch_operand_a = 0;
  uint32_t latch_operand_b = 0;
  uint32_t latch_alu_result = 0;
  uint32_t latch_mem_addr = 0;
  uint32_t latch_mem_data = 0;
  uint32_t watchdog_counter = 0;
  uint64_t cycles = 0;
  uint64_t instret = 0;
  bool halted = false;
  EdmEvent edm_event;
  uint32_t text_start = 0;
  uint32_t text_end = 0;
  ParityCache::Snapshot icache;
  ParityCache::Snapshot dcache;
  Memory::Delta memory;

  /// Approximate heap footprint, for checkpoint-store accounting.
  size_t MemoryBytes() const {
    return sizeof(CpuSnapshot) + icache.MemoryBytes() + dcache.MemoryBytes() +
           memory.MemoryBytes() + edm_event.detail.size();
  }
};

class Cpu {
 public:
  explicit Cpu(const CpuConfig& config = CpuConfig());

  // Not copyable (state registry closures bind to `this`).
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  const CpuConfig& config() const { return config_; }

  // --- program setup (host side, via test card) ---------------------------

  /// Writes `words` at `base` (byte address). The first `text_bytes` of the
  /// image are the text segment: marked read-only for CPU stores and used as
  /// the legal range for control-flow checking. `text_bytes == 0` treats the
  /// whole image as text (code-only workloads).
  util::Status LoadProgram(uint32_t base, const std::vector<uint32_t>& words,
                           uint32_t text_bytes = 0);

  /// Resets architectural state and prefetches from `entry`. Memory contents
  /// are preserved (workload download happens separately).
  void Reset(uint32_t entry);

  /// Full power-cycle: also zeroes memory, caches and statistics.
  void PowerCycle();

  /// Host-side word write that keeps the caches coherent: the test logic
  /// bypasses the cache hierarchy, so a bare Memory::HostWrite would leave
  /// stale lines behind. All host writes to a live target go through here.
  util::Status HostWriteWord(uint32_t address, uint32_t value);

  // --- execution -----------------------------------------------------------

  /// Executes exactly one instruction. Once halted or detected, further
  /// calls return the same outcome without advancing state.
  StepOutcome Step();

  /// Runs until halt/detection or until `max_cycles` elapse (0 = unbounded).
  /// Returns the final outcome; if the budget expires while running, returns
  /// StepOutcome::kOk (the GOOFI layer treats that as a timeout).
  StepOutcome Run(uint64_t max_cycles);

  /// Superblock fast path: executes through the predecoded DecodeCache with
  /// the watchdog / stack-limit / budget checks hoisted out of the per-step
  /// path (re-established at every superblock exit), producing bit-identical
  /// architectural state, counters and EDM events to an equivalent reference
  /// Step() loop. Returns on halt/detection, on any budget in `request`, or
  /// after a step matching a watch condition.
  RunFastResult RunFastEx(const RunFastRequest& request);

  /// Predecoded-instruction cache (fast path). Exposed so mutation sites
  /// outside the core (scan-chain writes) can invalidate, and so tools can
  /// report hit/miss/flush counters next to the icache/dcache stats.
  DecodeCache& decode_cache() { return decode_cache_; }
  const DecodeCache& decode_cache() const { return decode_cache_; }

  bool halted() const { return halted_; }
  bool detected() const { return edm_event_.Detected(); }
  const EdmEvent& edm_event() const { return edm_event_; }

  // --- architectural state -------------------------------------------------

  uint32_t reg(int index) const { return regs_[static_cast<size_t>(index)]; }
  void set_reg(int index, uint32_t value) { regs_[static_cast<size_t>(index)] = value; }
  uint32_t pc() const { return pc_; }
  uint32_t ir() const { return ir_; }
  uint64_t cycles() const { return cycles_; }
  uint64_t instructions_retired() const { return instret_; }

  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  ParityCache& icache() { return icache_; }
  ParityCache& dcache() { return dcache_; }

  uint32_t text_start() const { return text_start_; }
  uint32_t text_end() const { return text_end_; }

  /// Data-path latches after the last executed instruction; the debug unit's
  /// data-access/data-value comparators observe these.
  uint32_t latch_mem_addr() const { return latch_mem_addr_; }
  uint32_t latch_mem_data() const { return latch_mem_data_; }

  /// Builds the scan-visible state-element list. The returned registry holds
  /// accessors bound to this Cpu instance and must not outlive it.
  StateRegistry BuildStateRegistry();

  // --- checkpointing -------------------------------------------------------

  /// Declares the current memory contents as the delta baseline. Call once
  /// after the workload image is downloaded, before any SaveSnapshot.
  void MarkMemoryBaseline() { memory_.MarkCleanBaseline(); }

  /// Captures every execution-visible piece of state: registers, pc/ir/
  /// next_pc, data-path latches, counters, EDM/halt state, text bounds, full
  /// cache state and the memory delta.
  CpuSnapshot SaveSnapshot() const;

  /// Restores a SaveSnapshot taken on a Cpu with the same configuration and
  /// memory baseline. Afterwards execution is bit-for-bit identical to the
  /// original run from the capture point.
  void RestoreSnapshot(const CpuSnapshot& snapshot);

  /// Appends every execution-visible piece of state to a convergence hash:
  /// the same coverage as SaveSnapshot (registers, pc/ir/next_pc, latches,
  /// watchdog, cycle/instret counters, halt/EDM state, text bounds, both
  /// parity caches, canonical memory-vs-baseline delta). Two Cpus with equal
  /// digested streams execute bit-identically from here on. The DecodeCache
  /// is deliberately excluded: it is a pure performance structure with a
  /// raw-word tag check, so its contents never affect architectural results.
  /// Non-const: memory hashing scrubs dirty bits of pages that still equal
  /// the baseline (see Memory::HashCanonicalState).
  /// Precondition: MarkMemoryBaseline() was called.
  void HashExecutionState(StateHasher* hasher);

 private:
  /// Fetches the instruction at `address` into ir_ through the icache;
  /// raises EDMs on bad addresses / parity errors.
  void Fetch(uint32_t address);

  /// Raises `type` if enabled; halts the core on detection.
  void RaiseEdm(EdmType type, int32_t code, const std::string& detail);

  /// Data-path load/store through the dcache.
  bool LoadWord(uint32_t address, uint32_t* value);
  bool StoreWord(uint32_t address, uint32_t value);

  /// Control-flow check for a jump/branch/return target.
  bool CheckControlFlow(uint32_t target);

  void ExecuteInstruction();

  /// Execute paths shared between Step() and RunFastEx(): a predecoded valid
  /// instruction, and an illegal word (EDM or NOP; the error string is only
  /// built when an enabled detection consumes it).
  void ExecuteValid(const isa::Instruction& ins, uint8_t base_cycles);
  void ExecuteIllegal(uint32_t word, isa::PredecodeFault fault);

  CpuConfig config_;
  Memory memory_;
  ParityCache icache_;
  ParityCache dcache_;
  DecodeCache decode_cache_;

  std::array<uint32_t, isa::kNumRegisters> regs_{};
  uint32_t pc_ = 0;
  uint32_t ir_ = 0;          ///< prefetched instruction word (scannable)
  uint32_t next_pc_ = 0;     ///< computed during execute

  // Pipeline latches: refreshed every instruction, scannable. Flips in these
  // are usually overwritten before use — deliberately so; scan-chain studies
  // (paper ref [10]) report a large non-effective fraction from such latches.
  uint32_t latch_operand_a_ = 0;
  uint32_t latch_operand_b_ = 0;
  uint32_t latch_alu_result_ = 0;
  uint32_t latch_mem_addr_ = 0;
  uint32_t latch_mem_data_ = 0;

  uint32_t watchdog_counter_ = 0;

  uint64_t cycles_ = 0;
  uint64_t instret_ = 0;
  bool halted_ = false;
  EdmEvent edm_event_;

  uint32_t text_start_ = 0;
  uint32_t text_end_ = 0;
};

}  // namespace goofi::cpu
