#include "cpu/cpu.hpp"

#include <algorithm>

#include "cpu/state_hash.hpp"
#include "util/strings.hpp"

namespace goofi::cpu {

namespace {
constexpr uint32_t kAddressBits = 20;  // matches the 1 MiB default memory

// Upper bound on uninterrupted fast-path steps between superblock exits.
// Bounds how stale the lazily-materialized watchdog counter can get and how
// far budget re-evaluation can drift; large enough that per-exit costs
// amortize to nothing.
constexpr uint64_t kMaxBurst = 1u << 15;
}

Cpu::Cpu(const CpuConfig& config)
    : config_(config),
      memory_(config.memory_bytes, config.golden_registry),
      icache_(config.icache_lines, kAddressBits, EdmType::kCacheParityInstr),
      dcache_(config.dcache_lines, kAddressBits, EdmType::kCacheParityData) {}

util::Status Cpu::LoadProgram(uint32_t base, const std::vector<uint32_t>& words,
                              uint32_t text_bytes) {
  const uint32_t image_bytes = static_cast<uint32_t>(words.size()) * 4;
  if (text_bytes == 0 || text_bytes > image_bytes) text_bytes = image_bytes;
  // Bulk download: one range write instead of a word loop. After the first
  // experiment's baseline is interned, the repeated PowerCycle+LoadProgram
  // prologue adopts the golden image's pages without copying.
  GOOFI_RETURN_IF_ERROR(
      memory_.HostWriteRange(base, words.data(), words.size()));
  memory_.ClearProtection();
  text_start_ = base;
  text_end_ = base + text_bytes;
  memory_.Protect(text_start_, text_bytes);
  decode_cache_.Configure(text_start_, text_end_);
  return util::Status::Ok();
}

void Cpu::Reset(uint32_t entry) {
  regs_.fill(0);
  // Stack starts at the top of memory, empty-descending.
  regs_[isa::kStackPointer] = memory_.size_bytes();
  pc_ = entry;
  ir_ = 0;
  next_pc_ = entry;
  latch_operand_a_ = latch_operand_b_ = latch_alu_result_ = 0;
  latch_mem_addr_ = latch_mem_data_ = 0;
  watchdog_counter_ = 0;
  cycles_ = 0;
  instret_ = 0;
  halted_ = false;
  edm_event_ = EdmEvent{};
  icache_.Flush();
  dcache_.Flush();
  Fetch(entry);
  // The initial prefetch is part of reset, not of the measured execution:
  // cycle/instruction counters start at zero when the first Step() runs.
  cycles_ = 0;
  instret_ = 0;
  icache_.ResetStats();
  dcache_.ResetStats();
}

void Cpu::PowerCycle() {
  memory_.Reset();
  text_start_ = text_end_ = 0;
  decode_cache_.Configure(0, 0);
  Reset(0);
}

util::Status Cpu::HostWriteWord(uint32_t address, uint32_t value) {
  GOOFI_RETURN_IF_ERROR(memory_.HostWrite(address, value));
  dcache_.WriteThrough(address / 4, value);
  icache_.WriteThrough(address / 4, value);
  // Pre-runtime SWIFI code mutations and host-side input downloads funnel
  // through here; a flip inside the text segment must drop the predecode.
  decode_cache_.InvalidateWord(address);
  return util::Status::Ok();
}

CpuSnapshot Cpu::SaveSnapshot() const {
  CpuSnapshot snapshot;
  snapshot.regs = regs_;
  snapshot.pc = pc_;
  snapshot.ir = ir_;
  snapshot.next_pc = next_pc_;
  snapshot.latch_operand_a = latch_operand_a_;
  snapshot.latch_operand_b = latch_operand_b_;
  snapshot.latch_alu_result = latch_alu_result_;
  snapshot.latch_mem_addr = latch_mem_addr_;
  snapshot.latch_mem_data = latch_mem_data_;
  snapshot.watchdog_counter = watchdog_counter_;
  snapshot.cycles = cycles_;
  snapshot.instret = instret_;
  snapshot.halted = halted_;
  snapshot.edm_event = edm_event_;
  snapshot.text_start = text_start_;
  snapshot.text_end = text_end_;
  snapshot.icache = icache_.SaveSnapshot();
  snapshot.dcache = dcache_.SaveSnapshot();
  snapshot.memory = memory_.CaptureDelta();
  return snapshot;
}

void Cpu::RestoreSnapshot(const CpuSnapshot& snapshot) {
  regs_ = snapshot.regs;
  pc_ = snapshot.pc;
  ir_ = snapshot.ir;
  next_pc_ = snapshot.next_pc;
  latch_operand_a_ = snapshot.latch_operand_a;
  latch_operand_b_ = snapshot.latch_operand_b;
  latch_alu_result_ = snapshot.latch_alu_result;
  latch_mem_addr_ = snapshot.latch_mem_addr;
  latch_mem_data_ = snapshot.latch_mem_data;
  watchdog_counter_ = snapshot.watchdog_counter;
  cycles_ = snapshot.cycles;
  instret_ = snapshot.instret;
  halted_ = snapshot.halted;
  edm_event_ = snapshot.edm_event;
  text_start_ = snapshot.text_start;
  text_end_ = snapshot.text_end;
  icache_.RestoreSnapshot(snapshot.icache);
  dcache_.RestoreSnapshot(snapshot.dcache);
  memory_.RestoreDelta(snapshot.memory);
  // The restored image may differ arbitrarily from what was predecoded
  // (checkpoint restore rewinds memory); rebind and flush.
  decode_cache_.Configure(text_start_, text_end_);
}

void Cpu::HashExecutionState(StateHasher* hasher) {
  for (uint32_t reg : regs_) hasher->U32(reg);
  hasher->U32(pc_);
  hasher->U32(ir_);
  hasher->U32(next_pc_);
  hasher->U32(latch_operand_a_);
  hasher->U32(latch_operand_b_);
  hasher->U32(latch_alu_result_);
  hasher->U32(latch_mem_addr_);
  hasher->U32(latch_mem_data_);
  hasher->U32(watchdog_counter_);
  hasher->U64(cycles_);
  hasher->U64(instret_);
  hasher->Bool(halted_);
  hasher->U8(static_cast<uint8_t>(edm_event_.type));
  hasher->U64(edm_event_.cycle);
  hasher->U32(edm_event_.pc);
  hasher->I32(edm_event_.code);
  hasher->Str(edm_event_.detail);
  hasher->U32(text_start_);
  hasher->U32(text_end_);
  icache_.HashState(hasher);
  dcache_.HashState(hasher);
  memory_.HashCanonicalState(hasher, /*scrub_clean_pages=*/true);
}

void Cpu::RaiseEdm(EdmType type, int32_t code, const std::string& detail) {
  if (!config_.edms.Enabled(type)) return;
  if (edm_event_.Detected()) return;  // first detection wins
  edm_event_.type = type;
  edm_event_.cycle = cycles_;
  edm_event_.pc = pc_;
  edm_event_.code = code;
  edm_event_.detail = detail;
  halted_ = true;
}

void Cpu::Fetch(uint32_t address) {
  if (address % 4 != 0) {
    RaiseEdm(EdmType::kMisalignedAccess, 0,
             util::Format("fetch from 0x%08x", address));
    // Even with the EDM disabled a misaligned fetch cannot proceed; force-align.
    address &= ~3u;
  }
  const uint32_t word_address = address / 4;
  ParityCache::LookupResult hit = icache_.Lookup(word_address);
  if (hit.hit) {
    if (hit.parity_error) {
      RaiseEdm(icache_.parity_edm(), 0,
               util::Format("icache parity at 0x%08x", address));
      if (halted_) return;
      // Parity EDM disabled: the corrupted word is consumed as-is.
    }
    ir_ = hit.value;
    return;
  }
  cycles_ += config_.cache_miss_penalty;
  const MemAccess access = memory_.Read(address);
  if (!access.ok()) {
    RaiseEdm(access.violation, 0, util::Format("fetch from 0x%08x", address));
    ir_ = 0;
    return;
  }
  icache_.Fill(word_address, access.value);
  ir_ = access.value;
}

bool Cpu::LoadWord(uint32_t address, uint32_t* value) {
  latch_mem_addr_ = address;
  if (address % 4 != 0) {
    RaiseEdm(EdmType::kMisalignedAccess, 0, util::Format("load 0x%08x", address));
    if (halted_) return false;
    address &= ~3u;
  }
  const uint32_t word_address = address / 4;
  ParityCache::LookupResult hit = dcache_.Lookup(word_address);
  if (hit.hit) {
    if (hit.parity_error) {
      RaiseEdm(dcache_.parity_edm(), 0,
               util::Format("dcache parity at 0x%08x", address));
      if (halted_) return false;
    }
    *value = hit.value;
    latch_mem_data_ = hit.value;
    return true;
  }
  cycles_ += config_.cache_miss_penalty;
  const MemAccess access = memory_.Read(address);
  if (!access.ok()) {
    RaiseEdm(access.violation, 0, util::Format("load 0x%08x", address));
    return false;
  }
  dcache_.Fill(word_address, access.value);
  *value = access.value;
  latch_mem_data_ = access.value;
  return true;
}

bool Cpu::StoreWord(uint32_t address, uint32_t value) {
  latch_mem_addr_ = address;
  latch_mem_data_ = value;
  if (address % 4 != 0) {
    RaiseEdm(EdmType::kMisalignedAccess, 0, util::Format("store 0x%08x", address));
    if (halted_) return false;
    address &= ~3u;
  }
  const MemAccess access = memory_.Write(address, value);
  if (!access.ok()) {
    RaiseEdm(access.violation, 0, util::Format("store 0x%08x", address));
    return false;
  }
  dcache_.WriteThrough(address / 4, value);
  // Text is normally store-protected, so this only triggers when protection
  // is off (code-in-data setups); stale predecodes must still be impossible.
  decode_cache_.InvalidateWord(address);
  return true;
}

bool Cpu::CheckControlFlow(uint32_t target) {
  if (text_end_ == text_start_) return true;  // no text segment registered
  if (target < text_start_ || target >= text_end_ || target % 4 != 0) {
    RaiseEdm(EdmType::kControlFlowError, 0,
             util::Format("control transfer to 0x%08x", target));
    return !halted_;
  }
  return true;
}

StepOutcome Cpu::Step() {
  if (halted_) {
    return edm_event_.Detected() ? StepOutcome::kDetected : StepOutcome::kHalted;
  }
  ExecuteInstruction();
  if (edm_event_.Detected()) return StepOutcome::kDetected;
  if (halted_) return StepOutcome::kHalted;

  // Watchdog: counts steps since the last kick (TRAP 0 below). Saturating
  // add without the clamp branch; the fast path batches this increment into
  // a per-superblock budget (see RunFastEx).
  if (config_.watchdog_limit != 0) {
    watchdog_counter_ += (watchdog_counter_ != UINT32_MAX) ? 1u : 0u;
    if (watchdog_counter_ >= config_.watchdog_limit) {
      RaiseEdm(EdmType::kWatchdogTimeout, 0, "watchdog expired");
      return StepOutcome::kDetected;
    }
  }

  // Stack-limit check (stack grows downwards from the top of memory).
  if (config_.stack_limit != 0 &&
      regs_[isa::kStackPointer] < config_.stack_limit) {
    RaiseEdm(EdmType::kStackOverflow, 0,
             util::Format("sp=0x%08x below limit", regs_[isa::kStackPointer]));
    return StepOutcome::kDetected;
  }

  Fetch(next_pc_);
  if (edm_event_.Detected()) return StepOutcome::kDetected;
  pc_ = next_pc_;
  return StepOutcome::kOk;
}

StepOutcome Cpu::Run(uint64_t max_cycles) {
  for (;;) {
    const StepOutcome outcome = Step();
    if (outcome != StepOutcome::kOk) return outcome;
    if (max_cycles != 0 && cycles_ >= max_cycles) return StepOutcome::kOk;
  }
}

RunFastResult Cpu::RunFastEx(const RunFastRequest& request) {
  RunFastResult result;
  if (halted_) {
    result.outcome =
        edm_event_.Detected() ? StepOutcome::kDetected : StepOutcome::kHalted;
    return result;
  }

  // Like Step(), the watchdog/stack checks are driven by the configured
  // limits alone: with the corresponding EDM disabled they still terminate
  // the step (returning kDetected without recording an event), so the gates
  // here must not consult EdmConfig.
  const uint64_t wd_limit = config_.watchdog_limit;
  const bool wd_active = wd_limit != 0;
  const bool stack_active = config_.stack_limit != 0;

  uint8_t stop_flag_mask = 0;
  if (request.watch_mem) stop_flag_mask |= DecodeCache::kMem;
  if (request.watch_branch) stop_flag_mask |= DecodeCache::kBranch;
  if (request.watch_call) stop_flag_mask |= DecodeCache::kCall;
  const bool watch_pc_on = request.watch_pc_enabled;
  const uint8_t sp_mask = stack_active ? DecodeCache::kWritesSp : 0;

  // Worst-case cycles one step can cost (for the cycle-budget fuel bound):
  // the largest base_cycles plus one instruction- and one data-cache miss.
  const uint64_t max_step_cycles = static_cast<uint64_t>(isa::kMaxBaseCycles) +
                                   2ull * config_.cache_miss_penalty;

  // Satellite of the superblock design: the per-step saturating watchdog
  // increment is batched. `wd_pending` counts steps since the counter was
  // last materialized; fuel never exceeds the steps remaining until the
  // counter could reach the limit, so the precise >= check only needs to run
  // at superblock exits.
  uint64_t wd_pending = 0;
  auto materialize_watchdog = [&] {
    if (wd_pending == 0) return;
    watchdog_counter_ = static_cast<uint32_t>(std::min<uint64_t>(
        static_cast<uint64_t>(watchdog_counter_) + wd_pending, UINT32_MAX));
    wd_pending = 0;
  };

  // Steps that can run before any hoisted check could possibly fire. Always
  // >= 1; requires the watchdog counter to be materialized.
  auto compute_fuel = [&]() -> uint64_t {
    uint64_t fuel = kMaxBurst;
    if (wd_active) {
      fuel = std::min(fuel, wd_limit > watchdog_counter_
                                ? wd_limit - watchdog_counter_
                                : uint64_t{1});
    }
    if (request.max_cycles != 0) {
      fuel = std::min(
          fuel, cycles_ < request.max_cycles
                    ? std::max<uint64_t>(
                          (request.max_cycles - cycles_) / max_step_cycles, 1)
                    : uint64_t{1});
    }
    if (request.max_instret != 0) {
      fuel = std::min(fuel, instret_ < request.max_instret
                                ? request.max_instret - instret_
                                : uint64_t{1});
    }
    if (request.max_steps != 0) {
      fuel = std::min(fuel, request.max_steps > result.steps
                                ? request.max_steps - result.steps
                                : uint64_t{1});
    }
    return fuel;
  };

  // Step() checks the stack limit after every instruction; after the first
  // step here only sp-writing instructions (flagged) can change sp, so the
  // check is hoisted behind the flag with a one-shot check on step one.
  bool stack_check_pending = stack_active;
  uint64_t fuel = compute_fuel();
  uint32_t exec_pc = pc_;
  uint8_t exec_flags = 0;

  for (;;) {
    exec_pc = pc_;
    const uint32_t word = ir_;
    // The raw-word tag check inside Resolve() is the correctness backstop:
    // scan-chain flips into ir_ or icache line data change the executed word
    // without passing any invalidation hook.
    const DecodeCache::Entry& entry = decode_cache_.Resolve(exec_pc, word);
    exec_flags = entry.flags;

    if (exec_flags & DecodeCache::kWatchdogKick) {
      // TRAP 0 zeroes the counter inside execute; flush the pending
      // increments first so they land before the reset, not after.
      materialize_watchdog();
    }
    if (exec_flags & DecodeCache::kIllegal) {
      ExecuteIllegal(word, entry.fault);
    } else {
      ExecuteValid(entry.ins, entry.base_cycles);
    }
    ++result.steps;
    if (edm_event_.Detected()) {
      result.outcome = StepOutcome::kDetected;
      break;
    }
    if (halted_) {
      result.outcome = StepOutcome::kHalted;
      break;
    }
    if (wd_active) ++wd_pending;

    const bool stop_after = (exec_flags & stop_flag_mask) != 0 ||
                            (watch_pc_on && exec_pc == request.watch_pc);
    if (--fuel == 0 || stop_after || (exec_flags & sp_mask) != 0 ||
        stack_check_pending) {
      // Superblock exit: re-establish the hoisted checks in exactly the
      // order Step() performs them — watchdog, stack limit, then fetch.
      materialize_watchdog();
      if (wd_active && watchdog_counter_ >= wd_limit) {
        RaiseEdm(EdmType::kWatchdogTimeout, 0, "watchdog expired");
        result.outcome = StepOutcome::kDetected;
        break;
      }
      stack_check_pending = false;
      if (stack_active && regs_[isa::kStackPointer] < config_.stack_limit) {
        RaiseEdm(
            EdmType::kStackOverflow, 0,
            util::Format("sp=0x%08x below limit", regs_[isa::kStackPointer]));
        result.outcome = StepOutcome::kDetected;
        break;
      }
      Fetch(next_pc_);
      if (edm_event_.Detected()) {
        result.outcome = StepOutcome::kDetected;
        break;
      }
      pc_ = next_pc_;
      if (stop_after) {
        result.stop = RunFastResult::Stop::kWatch;
        break;
      }
      if (request.max_instret != 0 && instret_ >= request.max_instret) {
        result.stop = RunFastResult::Stop::kInstret;
        break;
      }
      if (request.max_cycles != 0 && cycles_ >= request.max_cycles) {
        result.stop = RunFastResult::Stop::kCycles;
        break;
      }
      if (request.max_steps != 0 && result.steps >= request.max_steps) {
        result.stop = RunFastResult::Stop::kSteps;
        break;
      }
      fuel = compute_fuel();
    } else {
      // Hot fetch: an aligned, clean icache hit needs none of Fetch()'s
      // misalignment / miss / parity handling — FastHit performs the same
      // statistics accounting inline and anything unusual falls back to the
      // full path, which re-runs the lookup with identical observable
      // effects.
      const uint32_t fetch_addr = next_pc_;
      uint32_t fetched;
      if ((fetch_addr & 3u) == 0 && icache_.FastHit(fetch_addr / 4, &fetched)) {
        ir_ = fetched;
        pc_ = fetch_addr;
      } else {
        Fetch(fetch_addr);
        if (edm_event_.Detected()) {
          result.outcome = StepOutcome::kDetected;
          break;
        }
        pc_ = next_pc_;
      }
    }
  }

  materialize_watchdog();
  result.exec_pc = exec_pc;
  result.exec_mem = (exec_flags & DecodeCache::kMem) != 0;
  result.exec_branch = (exec_flags & DecodeCache::kBranch) != 0;
  result.exec_call = (exec_flags & DecodeCache::kCall) != 0;
  return result;
}

void Cpu::ExecuteInstruction() {
  const isa::Predecoded pre = isa::Predecode(ir_);
  if (pre.fault != isa::PredecodeFault::kNone) {
    ExecuteIllegal(ir_, pre.fault);
    return;
  }
  ExecuteValid(pre.ins, pre.base_cycles);
}

void Cpu::ExecuteIllegal(uint32_t word, isa::PredecodeFault fault) {
  // The Decode() error string is only materialized if an enabled EDM will
  // actually record it — undefined words executing as NOPs (EDM disabled)
  // must not allocate per step.
  if (config_.edms.Enabled(EdmType::kIllegalOpcode) && !edm_event_.Detected()) {
    RaiseEdm(EdmType::kIllegalOpcode, 0, isa::IllegalDecodeMessage(word, fault));
  }
  if (halted_) return;
  // EDM disabled: undefined instructions execute as NOP.
  next_pc_ = pc_ + 4;
  cycles_ += 1;
  ++instret_;
}

void Cpu::ExecuteValid(const isa::Instruction& ins, uint8_t base_cycles) {
  using isa::Opcode;

  cycles_ += static_cast<uint64_t>(base_cycles);
  ++instret_;
  next_pc_ = pc_ + 4;

  const uint32_t a = regs_[ins.rs1];
  const uint32_t b = regs_[ins.rs2];
  latch_operand_a_ = a;
  latch_operand_b_ = b;

  auto set_rd = [&](uint32_t value) {
    latch_alu_result_ = value;
    // r0 is hardwired to zero (writes are discarded); its scan cell is
    // read-only accordingly.
    if (ins.rd != 0) regs_[ins.rd] = value;
  };
  auto signed_overflow_add = [&](int32_t x, int32_t y) {
    int32_t result;
    return __builtin_add_overflow(x, y, &result);
  };
  auto signed_overflow_sub = [&](int32_t x, int32_t y) {
    int32_t result;
    return __builtin_sub_overflow(x, y, &result);
  };

  switch (ins.op) {
    case Opcode::kNop:
      break;
    case Opcode::kAdd:
      if (signed_overflow_add(static_cast<int32_t>(a), static_cast<int32_t>(b))) {
        RaiseEdm(EdmType::kArithmeticOverflow, 0, "add overflow");
        if (halted_) return;
      }
      set_rd(a + b);
      break;
    case Opcode::kSub:
      if (signed_overflow_sub(static_cast<int32_t>(a), static_cast<int32_t>(b))) {
        RaiseEdm(EdmType::kArithmeticOverflow, 0, "sub overflow");
        if (halted_) return;
      }
      set_rd(a - b);
      break;
    case Opcode::kMul: {
      const int64_t wide = static_cast<int64_t>(static_cast<int32_t>(a)) *
                           static_cast<int64_t>(static_cast<int32_t>(b));
      if (wide != static_cast<int64_t>(static_cast<int32_t>(wide))) {
        RaiseEdm(EdmType::kArithmeticOverflow, 0, "mul overflow");
        if (halted_) return;
      }
      set_rd(static_cast<uint32_t>(wide));
      break;
    }
    case Opcode::kDiv:
      if (b == 0) {
        RaiseEdm(EdmType::kArithmeticOverflow, 0, "divide by zero");
        if (halted_) return;
        set_rd(0);
      } else {
        set_rd(static_cast<uint32_t>(static_cast<int32_t>(a) /
                                     static_cast<int32_t>(b)));
      }
      break;
    case Opcode::kAnd:
      set_rd(a & b);
      break;
    case Opcode::kOr:
      set_rd(a | b);
      break;
    case Opcode::kXor:
      set_rd(a ^ b);
      break;
    case Opcode::kSll:
      set_rd(a << (b & 31));
      break;
    case Opcode::kSrl:
      set_rd(a >> (b & 31));
      break;
    case Opcode::kSra:
      set_rd(static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31)));
      break;
    case Opcode::kSlt:
      set_rd(static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0);
      break;
    case Opcode::kSltu:
      set_rd(a < b ? 1 : 0);
      break;

    case Opcode::kAddi: {
      const int32_t imm = ins.imm;
      latch_operand_b_ = static_cast<uint32_t>(imm);
      if (signed_overflow_add(static_cast<int32_t>(a), imm)) {
        RaiseEdm(EdmType::kArithmeticOverflow, 0, "addi overflow");
        if (halted_) return;
      }
      set_rd(a + static_cast<uint32_t>(imm));
      break;
    }
    case Opcode::kAndi:
      set_rd(a & static_cast<uint32_t>(ins.imm));
      break;
    case Opcode::kOri:
      set_rd(a | static_cast<uint32_t>(ins.imm));
      break;
    case Opcode::kXori:
      set_rd(a ^ static_cast<uint32_t>(ins.imm));
      break;
    case Opcode::kSlli:
      set_rd(a << (static_cast<uint32_t>(ins.imm) & 31));
      break;
    case Opcode::kSrli:
      set_rd(a >> (static_cast<uint32_t>(ins.imm) & 31));
      break;
    case Opcode::kLui:
      set_rd(static_cast<uint32_t>(ins.imm) << 14);
      break;
    case Opcode::kSlti:
      set_rd(static_cast<int32_t>(a) < ins.imm ? 1 : 0);
      break;

    case Opcode::kLdw: {
      uint32_t value = 0;
      if (!LoadWord(a + static_cast<uint32_t>(ins.imm), &value)) return;
      set_rd(value);
      break;
    }
    case Opcode::kStw:
      if (!StoreWord(a + static_cast<uint32_t>(ins.imm), regs_[ins.rd])) return;
      break;

    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: {
      const uint32_t lhs = regs_[ins.rd];
      const uint32_t rhs = a;  // rs1
      bool taken = false;
      switch (ins.op) {
        case Opcode::kBeq:
          taken = lhs == rhs;
          break;
        case Opcode::kBne:
          taken = lhs != rhs;
          break;
        case Opcode::kBlt:
          taken = static_cast<int32_t>(lhs) < static_cast<int32_t>(rhs);
          break;
        case Opcode::kBge:
          taken = static_cast<int32_t>(lhs) >= static_cast<int32_t>(rhs);
          break;
        case Opcode::kBltu:
          taken = lhs < rhs;
          break;
        default:
          taken = lhs >= rhs;
          break;
      }
      if (taken) {
        const uint32_t target =
            pc_ + 4 + static_cast<uint32_t>(ins.imm) * 4;
        if (!CheckControlFlow(target)) return;
        next_pc_ = target;
      }
      break;
    }

    case Opcode::kJmp: {
      const uint32_t target = static_cast<uint32_t>(ins.imm) * 4;
      if (!CheckControlFlow(target)) return;
      next_pc_ = target;
      break;
    }
    case Opcode::kJal: {
      const uint32_t target = static_cast<uint32_t>(ins.imm) * 4;
      if (!CheckControlFlow(target)) return;
      regs_[isa::kLinkRegister] = pc_ + 4;
      next_pc_ = target;
      break;
    }
    case Opcode::kJr: {
      const uint32_t target = regs_[ins.rs1];
      if (!CheckControlFlow(target)) return;
      next_pc_ = target;
      break;
    }

    case Opcode::kHalt:
      halted_ = true;
      break;
    case Opcode::kTrap:
      if (ins.imm == 0) {
        // TRAP 0 kicks the watchdog (the workload's "I am alive" signal).
        watchdog_counter_ = 0;
      } else {
        RaiseEdm(EdmType::kSoftwareAssertion, ins.imm,
                 util::Format("assertion %d failed", ins.imm));
        if (halted_) return;
      }
      break;
  }
}

StateRegistry Cpu::BuildStateRegistry() {
  StateRegistry registry;

  auto add_u32 = [&](std::string name, std::string group, uint32_t* storage,
                     bool read_only = false) {
    StateElement element;
    element.name = std::move(name);
    element.group = std::move(group);
    element.bits = 32;
    element.read_only = read_only;
    element.get = [storage]() { return static_cast<uint64_t>(*storage); };
    if (!read_only) {
      element.set = [storage](uint64_t v) { *storage = static_cast<uint32_t>(v); };
    }
    registry.Add(std::move(element));
  };

  for (int r = 0; r < isa::kNumRegisters; ++r) {
    // r0 is hardwired zero: observable on the chain but not injectable.
    add_u32("regfile." + *isa::RegisterName(r), "regfile",
            &regs_[static_cast<size_t>(r)], /*read_only=*/r == 0);
  }
  add_u32("core.pc", "core", &pc_);
  add_u32("core.ir", "core", &ir_);
  add_u32("pipeline.operand_a", "pipeline", &latch_operand_a_);
  add_u32("pipeline.operand_b", "pipeline", &latch_operand_b_);
  add_u32("pipeline.alu_result", "pipeline", &latch_alu_result_);
  add_u32("pipeline.mem_addr", "pipeline", &latch_mem_addr_);
  add_u32("pipeline.mem_data", "pipeline", &latch_mem_data_);
  add_u32("core.watchdog", "core", &watchdog_counter_);

  // Observation-only counters (read-only scan cells, paper §3.1).
  {
    StateElement element;
    element.name = "core.cycles";
    element.group = "core";
    element.bits = 64;
    element.read_only = true;
    element.get = [this]() { return cycles_; };
    registry.Add(std::move(element));
  }
  {
    StateElement element;
    element.name = "core.instret";
    element.group = "core";
    element.bits = 64;
    element.read_only = true;
    element.get = [this]() { return instret_; };
    registry.Add(std::move(element));
  }
  {
    StateElement element;
    element.name = "core.halted";
    element.group = "core";
    element.bits = 1;
    element.read_only = true;
    element.get = [this]() { return halted_ ? 1u : 0u; };
    registry.Add(std::move(element));
  }

  auto add_cache = [&](const char* prefix, ParityCache* cache) {
    for (uint32_t line = 0; line < cache->num_lines(); ++line) {
      const std::string base = util::Format("%s.line%u", prefix, line);
      {
        StateElement element;
        element.name = base + ".valid";
        element.group = prefix;
        element.bits = 1;
        element.get = [cache, line]() {
          return cache->line_valid(line) ? 1u : 0u;
        };
        element.set = [cache, line](uint64_t v) {
          cache->set_line_valid(line, v & 1u);
        };
        registry.Add(std::move(element));
      }
      {
        StateElement element;
        element.name = base + ".tag";
        element.group = prefix;
        element.bits = cache->tag_bits();
        element.get = [cache, line]() {
          return static_cast<uint64_t>(cache->line_tag(line));
        };
        element.set = [cache, line](uint64_t v) {
          cache->set_line_tag(line, static_cast<uint32_t>(v));
        };
        registry.Add(std::move(element));
      }
      {
        StateElement element;
        element.name = base + ".data";
        element.group = prefix;
        element.bits = 32;
        element.get = [cache, line]() {
          return static_cast<uint64_t>(cache->line_data(line));
        };
        element.set = [cache, line](uint64_t v) {
          cache->set_line_data(line, static_cast<uint32_t>(v));
        };
        registry.Add(std::move(element));
      }
      {
        StateElement element;
        element.name = base + ".parity";
        element.group = prefix;
        element.bits = 1;
        element.get = [cache, line]() {
          return cache->line_parity(line) ? 1u : 0u;
        };
        element.set = [cache, line](uint64_t v) {
          cache->set_line_parity(line, v & 1u);
        };
        registry.Add(std::move(element));
      }
    }
  };
  add_cache("icache", &icache_);
  add_cache("dcache", &dcache_);

  return registry;
}

}  // namespace goofi::cpu
