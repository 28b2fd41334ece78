// Differential tests for the predecoded superblock fast path.
//
// The contract under test: Cpu::RunFastEx produces *bit-identical* state to
// an equivalent reference Step() loop — every register, latch, counter,
// cache line, memory word and EDM event — for arbitrary programs, arbitrary
// fault injections into code and data, and every stop-condition mix. At the
// campaign level, each injection technique's result rows must equal the
// pinned digest of the rows the step-by-step run loops logged.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/goofi.hpp"
#include "cpu/cpu.hpp"
#include "cpu/decode_cache.hpp"
#include "db/database.hpp"
#include "isa/assembler.hpp"
#include "testcard/testcard.hpp"
#include "util/rng.hpp"

namespace goofi::cpu {
namespace {

// --- decode cache unit tests -------------------------------------------------

uint32_t Word(isa::Opcode op, uint8_t rd = 0, uint8_t rs1 = 0, uint8_t rs2 = 0,
              int32_t imm = 0) {
  isa::Instruction ins;
  ins.op = op;
  ins.rd = rd;
  ins.rs1 = rs1;
  ins.rs2 = rs2;
  ins.imm = imm;
  return isa::Encode(ins);
}

TEST(DecodeCacheTest, EntryFlags) {
  using E = DecodeCache;
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kAdd, 3, 1, 2)).flags, 0);
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kLdw, 1, 2, 0, 8)).flags,
            E::kMem);
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kStw, 1, 2, 0, 8)).flags,
            E::kMem);
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kBeq, 1, 2, 0, -4)).flags,
            E::kBranch);
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kJal, 0, 0, 0, 16)).flags,
            E::kCall);
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kTrap, 0, 0, 0, 0)).flags,
            E::kWatchdogKick);
  // TRAP with a nonzero code is an assertion, not a watchdog kick.
  EXPECT_EQ(DecodeCache::MakeEntry(Word(isa::Opcode::kTrap, 0, 0, 0, 3)).flags,
            0);
  // Writes to sp are flagged; the same ALU op to another register is not.
  EXPECT_EQ(
      DecodeCache::MakeEntry(Word(isa::Opcode::kAddi, isa::kStackPointer, 15, 0, -4))
          .flags,
      E::kWritesSp);
  // Stores never write a register, even with rd == sp (rd is the source).
  EXPECT_EQ(
      DecodeCache::MakeEntry(Word(isa::Opcode::kStw, isa::kStackPointer, 1, 0, 0))
          .flags,
      E::kMem);
  const DecodeCache::Entry illegal = DecodeCache::MakeEntry(0xFFFFFFFFu);
  EXPECT_EQ(illegal.flags, E::kIllegal);
  EXPECT_NE(illegal.fault, isa::PredecodeFault::kNone);
}

TEST(DecodeCacheTest, CountersAndInvalidation) {
  DecodeCache cache;
  cache.Configure(0x100, 0x200);  // counts as the initial flush
  EXPECT_EQ(cache.stats().flushes, 1u);
  const uint32_t add = Word(isa::Opcode::kAdd, 1, 2, 3);

  EXPECT_EQ(cache.Resolve(0x100, add).flags, 0);  // miss installs
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  (void)cache.Resolve(0x100, add);  // hit
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different raw word at the same address (fault into code) must re-decode.
  const uint32_t sub = Word(isa::Opcode::kSub, 1, 2, 3);
  const DecodeCache::Entry& entry = cache.Resolve(0x100, sub);
  EXPECT_EQ(entry.ins.op, isa::Opcode::kSub);
  EXPECT_EQ(cache.stats().misses, 2u);

  cache.InvalidateWord(0x100);
  EXPECT_EQ(cache.stats().flushes, 2u);
  (void)cache.Resolve(0x100, sub);
  EXPECT_EQ(cache.stats().misses, 3u);

  // Out-of-range invalidations don't count a flush.
  cache.InvalidateWord(0x300);
  cache.InvalidateRange(0x400, 0x500);
  EXPECT_EQ(cache.stats().flushes, 2u);

  cache.InvalidateRange(0x0, 0x1000);  // clamps to the text window
  EXPECT_EQ(cache.stats().flushes, 3u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.stats().flushes, 4u);

  // Addresses outside the text window resolve through the scratch entry:
  // counted as misses, never installed.
  const uint64_t misses_before = cache.stats().misses;
  (void)cache.Resolve(0x2000, add);
  (void)cache.Resolve(0x2000, add);
  EXPECT_EQ(cache.stats().misses, misses_before + 2);
}

// --- lockstep differential fuzzer -------------------------------------------

/// Asserts every piece of execution-visible state matches between two CPUs.
void ExpectSameState(Cpu& fast, Cpu& ref, const std::string& context) {
  const CpuSnapshot a = fast.SaveSnapshot();
  const CpuSnapshot b = ref.SaveSnapshot();
  ASSERT_EQ(a.regs, b.regs) << context;
  ASSERT_EQ(a.pc, b.pc) << context;
  ASSERT_EQ(a.ir, b.ir) << context;
  ASSERT_EQ(a.next_pc, b.next_pc) << context;
  ASSERT_EQ(a.latch_operand_a, b.latch_operand_a) << context;
  ASSERT_EQ(a.latch_operand_b, b.latch_operand_b) << context;
  ASSERT_EQ(a.latch_alu_result, b.latch_alu_result) << context;
  ASSERT_EQ(a.latch_mem_addr, b.latch_mem_addr) << context;
  ASSERT_EQ(a.latch_mem_data, b.latch_mem_data) << context;
  ASSERT_EQ(a.watchdog_counter, b.watchdog_counter) << context;
  ASSERT_EQ(a.cycles, b.cycles) << context;
  ASSERT_EQ(a.instret, b.instret) << context;
  ASSERT_EQ(a.halted, b.halted) << context;
  ASSERT_EQ(a.edm_event.type, b.edm_event.type) << context;
  ASSERT_EQ(a.edm_event.cycle, b.edm_event.cycle) << context;
  ASSERT_EQ(a.edm_event.pc, b.edm_event.pc) << context;
  ASSERT_EQ(a.edm_event.code, b.edm_event.code) << context;
  ASSERT_EQ(a.edm_event.detail, b.edm_event.detail) << context;
  ASSERT_EQ(a.text_start, b.text_start) << context;
  ASSERT_EQ(a.text_end, b.text_end) << context;

  auto expect_cache_eq = [&](const ParityCache::Snapshot& x,
                             const ParityCache::Snapshot& y,
                             const char* which) {
    ASSERT_EQ(x.hits, y.hits) << context << " " << which;
    ASSERT_EQ(x.misses, y.misses) << context << " " << which;
    ASSERT_EQ(x.lines.size(), y.lines.size()) << context << " " << which;
    for (size_t i = 0; i < x.lines.size(); ++i) {
      ASSERT_EQ(x.lines[i].valid, y.lines[i].valid) << context << " " << which << i;
      ASSERT_EQ(x.lines[i].tag, y.lines[i].tag) << context << " " << which << i;
      ASSERT_EQ(x.lines[i].data, y.lines[i].data) << context << " " << which << i;
      ASSERT_EQ(x.lines[i].parity, y.lines[i].parity) << context << " " << which << i;
    }
  };
  expect_cache_eq(a.icache, b.icache, "icache line ");
  expect_cache_eq(a.dcache, b.dcache, "dcache line ");

  ASSERT_EQ(a.memory.pages.size(), b.memory.pages.size()) << context;
  for (size_t i = 0; i < a.memory.pages.size(); ++i) {
    ASSERT_EQ(a.memory.pages[i].index, b.memory.pages[i].index) << context;
    ASSERT_EQ(a.memory.pages[i].words, b.memory.pages[i].words)
        << context << " page " << a.memory.pages[i].index;
  }
}

/// A constrained-random instruction word: mostly valid encodings, some pure
/// garbage (illegal opcodes / reserved bits — the EDM-relevant space).
uint32_t RandomWord(util::Rng& rng, uint32_t num_words) {
  if (rng.NextBelow(8) == 0) return static_cast<uint32_t>(rng.Next());
  static constexpr isa::Opcode kOps[] = {
      isa::Opcode::kNop,  isa::Opcode::kAdd,  isa::Opcode::kSub,
      isa::Opcode::kMul,  isa::Opcode::kDiv,  isa::Opcode::kAnd,
      isa::Opcode::kOr,   isa::Opcode::kXor,  isa::Opcode::kSll,
      isa::Opcode::kSrl,  isa::Opcode::kSra,  isa::Opcode::kSlt,
      isa::Opcode::kSltu, isa::Opcode::kAddi, isa::Opcode::kAndi,
      isa::Opcode::kOri,  isa::Opcode::kXori, isa::Opcode::kSlli,
      isa::Opcode::kSrli, isa::Opcode::kLui,  isa::Opcode::kSlti,
      isa::Opcode::kLdw,  isa::Opcode::kStw,  isa::Opcode::kBeq,
      isa::Opcode::kBne,  isa::Opcode::kBlt,  isa::Opcode::kBge,
      isa::Opcode::kBltu, isa::Opcode::kBgeu, isa::Opcode::kJmp,
      isa::Opcode::kJal,  isa::Opcode::kJr,   isa::Opcode::kTrap,
  };
  isa::Instruction ins;
  ins.op = kOps[rng.NextBelow(sizeof(kOps) / sizeof(kOps[0]))];
  ins.rd = static_cast<uint8_t>(rng.NextBelow(isa::kNumRegisters));
  ins.rs1 = static_cast<uint8_t>(rng.NextBelow(isa::kNumRegisters));
  ins.rs2 = static_cast<uint8_t>(rng.NextBelow(isa::kNumRegisters));
  switch (ins.op) {
    case isa::Opcode::kSlli:
    case isa::Opcode::kSrli:
      ins.imm = static_cast<int32_t>(rng.NextBelow(32));
      break;
    case isa::Opcode::kBeq:
    case isa::Opcode::kBne:
    case isa::Opcode::kBlt:
    case isa::Opcode::kBge:
    case isa::Opcode::kBltu:
    case isa::Opcode::kBgeu:
      ins.imm = static_cast<int32_t>(rng.NextBelow(17)) - 8;
      break;
    case isa::Opcode::kJmp:
    case isa::Opcode::kJal:
      ins.imm = static_cast<int32_t>(rng.NextBelow(num_words));
      break;
    case isa::Opcode::kTrap:
      // Mostly watchdog kicks (code 0); assertions end the run immediately.
      ins.imm = rng.NextBelow(16) == 0 ? 1 : 0;
      break;
    default:
      ins.imm = static_cast<int32_t>(rng.NextBelow(201)) - 100;
      break;
  }
  return isa::Encode(ins);
}

CpuConfig RandomConfig(util::Rng& rng) {
  CpuConfig config;
  config.icache_lines = 16;
  config.dcache_lines = 16;
  config.cache_miss_penalty = 1 + static_cast<uint32_t>(rng.NextBelow(6));
  switch (rng.NextBelow(4)) {
    case 0: config.watchdog_limit = 0; break;
    case 1: config.watchdog_limit = 1; break;
    case 2: config.watchdog_limit = 7; break;
    default: config.watchdog_limit = 100; break;
  }
  if (rng.NextBelow(2) == 0) config.stack_limit = 0x80;
  // Randomly ablate detection so the "limit configured, EDM disabled"
  // step-terminates-without-event quirk is exercised too.
  config.edms.watchdog = rng.NextBelow(4) != 0;
  config.edms.stack_overflow = rng.NextBelow(4) != 0;
  config.edms.illegal_opcode = rng.NextBelow(4) != 0;
  config.edms.control_flow = rng.NextBelow(4) != 0;
  config.edms.arithmetic_overflow = rng.NextBelow(4) != 0;
  config.edms.out_of_range_access = rng.NextBelow(4) != 0;
  return config;
}

/// Drives `fast` with RunFastEx bursts and `ref` with the same number of
/// reference Step()s, comparing full state after every superblock.
void RunLockstep(Cpu& fast, Cpu& ref, util::Rng& rng, int max_bursts,
                 const std::string& context) {
  for (int burst = 0; burst < max_bursts; ++burst) {
    RunFastRequest request;
    request.max_steps = 1 + rng.NextBelow(29);
    const RunFastResult result = fast.RunFastEx(request);
    StepOutcome ref_outcome = StepOutcome::kOk;
    for (uint64_t i = 0; i < result.steps; ++i) {
      ref_outcome = ref.Step();
    }
    const std::string where = context + " burst " + std::to_string(burst);
    if (result.steps > 0) {
      ASSERT_EQ(result.outcome, ref_outcome) << where;
    }
    ExpectSameState(fast, ref, where);
    if (result.outcome != StepOutcome::kOk) {
      // Terminal: further fast calls must keep reporting the same outcome
      // without advancing state, exactly like Step().
      ASSERT_EQ(fast.RunFastEx(request).outcome, result.outcome) << where;
      ASSERT_EQ(ref.Step(), ref_outcome) << where;
      ExpectSameState(fast, ref, where + " post-terminal");
      return;
    }
  }
}

TEST(CpuFastPathFuzz, RandomProgramsLockstep) {
  util::Rng rng(0x600F1);
  for (int trial = 0; trial < 40; ++trial) {
    const CpuConfig config = RandomConfig(rng);
    const uint32_t num_words = 32 + static_cast<uint32_t>(rng.NextBelow(64));
    std::vector<uint32_t> words(num_words);
    for (uint32_t& word : words) word = RandomWord(rng, num_words);

    Cpu fast(config);
    Cpu ref(config);
    ASSERT_TRUE(fast.LoadProgram(0, words).ok());
    ASSERT_TRUE(ref.LoadProgram(0, words).ok());
    fast.Reset(0);
    ref.Reset(0);
    // Start sp above the stack limit so sp-decrementing garbage can cross it.
    fast.set_reg(isa::kStackPointer, 0x100);
    ref.set_reg(isa::kStackPointer, 0x100);
    RunLockstep(fast, ref, rng, 60, "trial " + std::to_string(trial));
  }
}

TEST(CpuFastPathFuzz, FaultsIntoCodeAndStateLockstep) {
  util::Rng rng(0xFA57);
  for (int trial = 0; trial < 30; ++trial) {
    const CpuConfig config = RandomConfig(rng);
    const uint32_t num_words = 48;
    std::vector<uint32_t> words(num_words);
    for (uint32_t& word : words) word = RandomWord(rng, num_words);

    Cpu fast(config);
    Cpu ref(config);
    ASSERT_TRUE(fast.LoadProgram(0, words, num_words * 4).ok());
    ASSERT_TRUE(ref.LoadProgram(0, words, num_words * 4).ok());
    fast.Reset(0);
    ref.Reset(0);
    auto fast_registry = fast.BuildStateRegistry();
    auto ref_registry = ref.BuildStateRegistry();
    ASSERT_EQ(fast_registry.size(), ref_registry.size());

    for (int burst = 0; burst < 40; ++burst) {
      // Identical fault in both CPUs: half the time a host write into the
      // image (pre-runtime SWIFI into text exercises invalidation), half the
      // time a scan-style corruption of a random writable state element
      // (flips into ir_ / icache lines exercise the raw-word tag backstop).
      if (rng.NextBelow(2) == 0) {
        const uint32_t address = static_cast<uint32_t>(rng.NextBelow(num_words)) * 4;
        const uint32_t value = static_cast<uint32_t>(rng.Next());
        ASSERT_TRUE(fast.HostWriteWord(address, value).ok());
        ASSERT_TRUE(ref.HostWriteWord(address, value).ok());
      } else {
        const size_t index = rng.NextBelow(fast_registry.size());
        const auto& fast_element = fast_registry.elements()[index];
        const auto& ref_element = ref_registry.elements()[index];
        if (!fast_element.read_only) {
          const uint64_t value = rng.Next();
          fast_element.set(value);
          ref_element.set(value);
        }
      }
      RunFastRequest request;
      request.max_steps = 1 + rng.NextBelow(17);
      const RunFastResult result = fast.RunFastEx(request);
      StepOutcome ref_outcome = StepOutcome::kOk;
      for (uint64_t i = 0; i < result.steps; ++i) ref_outcome = ref.Step();
      const std::string where =
          "trial " + std::to_string(trial) + " burst " + std::to_string(burst);
      if (result.steps > 0) {
        ASSERT_EQ(result.outcome, ref_outcome) << where;
      }
      ExpectSameState(fast, ref, where);
      if (result.outcome != StepOutcome::kOk) break;
    }
  }
}

TEST(CpuFastPathFuzz, SelfModifyingCodeLockstep) {
  // Code placed *outside* the protected text segment rewrites its own
  // upcoming instructions; the fast path must execute the freshly stored
  // words (out-of-text fetches resolve through the uncached scratch entry).
  CpuConfig config;
  config.edms.control_flow = false;     // allow executing past text_end
  config.edms.memory_protection = false;
  const std::string source =
      "_start:\n"
      "  jmp patcher\n"
      "_etext:\n"
      "patcher:\n"
      "  li r1, target\n"
      "  li r2, 0\n"        // encoding of NOP
      "  stw r2, [r1]\n"    // overwrite the ADDI below with NOP
      "target:\n"
      "  addi r3, r0, 99\n" // replaced at runtime
      "  addi r4, r0, 7\n"
      "  halt\n";
  const auto program = isa::Assemble(source).ValueOrDie();
  const uint32_t text_bytes =
      program.symbols.at("_etext") - program.base_address;

  Cpu fast(config);
  Cpu ref(config);
  ASSERT_TRUE(
      fast.LoadProgram(program.base_address, program.words, text_bytes).ok());
  ASSERT_TRUE(
      ref.LoadProgram(program.base_address, program.words, text_bytes).ok());
  fast.Reset(program.entry);
  ref.Reset(program.entry);

  const StepOutcome ref_outcome = ref.Run(0);
  const RunFastResult result = fast.RunFastEx(RunFastRequest{});
  EXPECT_EQ(ref_outcome, StepOutcome::kHalted);
  EXPECT_EQ(result.outcome, StepOutcome::kHalted);
  EXPECT_EQ(fast.reg(3), 0u) << "store into upcoming instruction not observed";
  EXPECT_EQ(fast.reg(4), 7u);
  ExpectSameState(fast, ref, "self-modifying code");
}

TEST(CpuFastPathFuzz, StoreIntoProtectedTextDroppedIdentically) {
  // CPU stores inside the text segment are dropped at the memory layer no
  // matter what the EDM config says; with kMemoryProtection *disabled* the
  // step silently continues (RaiseEdm no-ops, the write never lands). The
  // fast path must reproduce that exactly: the old instruction keeps
  // executing, memory and the decode cache stay coherent.
  CpuConfig config;
  config.edms.memory_protection = false;
  const std::string source =
      "_start:\n"
      "  li r1, target\n"
      "  li r2, 0\n"
      "  stw r2, [r1]\n"
      "target:\n"
      "  addi r3, r0, 99\n"
      "  halt\n";
  const auto program = isa::Assemble(source).ValueOrDie();
  const uint32_t target_addr = program.symbols.at("target");

  Cpu fast(config);
  Cpu ref(config);
  // Whole image is text (text_bytes = 0).
  ASSERT_TRUE(fast.LoadProgram(program.base_address, program.words).ok());
  ASSERT_TRUE(ref.LoadProgram(program.base_address, program.words).ok());
  for (int round = 0; round < 2; ++round) {
    // Round 1 reuses the same CPUs: the decode cache stays warm across
    // Reset, and a host write (which *does* bypass protection) rewrites the
    // target word — the HostWriteWord invalidation hook must land.
    if (round == 1) {
      ASSERT_TRUE(fast.HostWriteWord(target_addr, 0 /* NOP */).ok());
      ASSERT_TRUE(ref.HostWriteWord(target_addr, 0 /* NOP */).ok());
    }
    fast.Reset(program.entry);
    ref.Reset(program.entry);
    const StepOutcome ref_outcome = ref.Run(0);
    const RunFastResult result = fast.RunFastEx(RunFastRequest{});
    EXPECT_EQ(ref_outcome, StepOutcome::kHalted);
    EXPECT_EQ(result.outcome, StepOutcome::kHalted);
    // Round 0: the CPU store is dropped, the old ADDI still runs (r3 = 99).
    // Round 1: the host write landed, the patched NOP runs (r3 stays 0).
    EXPECT_EQ(fast.reg(3), round == 0 ? 99u : 0u) << "round " << round;
    ExpectSameState(fast, ref, "store into text, round=" + std::to_string(round));
  }
}

TEST(CpuFastPathFuzz, WatchdogFiresAtExactReferenceStep) {
  CpuConfig config;
  config.watchdog_limit = 37;
  const std::string source =
      "_start:\n"
      "  trap 0\n"        // kick
      "loop:\n"
      "  addi r1, r1, 1\n"
      "  jmp loop\n";     // no further kicks: the watchdog must fire
  const auto program = isa::Assemble(source).ValueOrDie();

  Cpu fast(config);
  Cpu ref(config);
  ASSERT_TRUE(fast.LoadProgram(program.base_address, program.words).ok());
  ASSERT_TRUE(ref.LoadProgram(program.base_address, program.words).ok());
  fast.Reset(program.entry);
  ref.Reset(program.entry);

  const StepOutcome ref_outcome = ref.Run(0);
  const RunFastResult result = fast.RunFastEx(RunFastRequest{});
  EXPECT_EQ(ref_outcome, StepOutcome::kDetected);
  EXPECT_EQ(result.outcome, StepOutcome::kDetected);
  EXPECT_EQ(fast.edm_event().type, EdmType::kWatchdogTimeout);
  ExpectSameState(fast, ref, "watchdog");
}

// --- Run(max_cycles) overshoot pin (satellite) -------------------------------

TEST(CpuRunBudgetTest, BudgetCheckedOnlyAfterFullStep) {
  // MUL costs several cycles; a budget that lands mid-instruction is only
  // honoured after the instruction completes, so cycles() overshoots the
  // budget rather than stopping at it. This is the semantics every campaign
  // timeout is calibrated against — pin it.
  const std::string source =
      "loop:\n"
      "  mul r1, r2, r3\n"
      "  jmp loop\n";
  const auto program = isa::Assemble(source).ValueOrDie();

  Cpu ref;
  ASSERT_TRUE(ref.LoadProgram(program.base_address, program.words).ok());
  ref.Reset(program.entry);
  ASSERT_EQ(ref.Step(), StepOutcome::kOk);
  const uint64_t one_mul = ref.cycles();
  ASSERT_GT(one_mul, 1u);

  // Budget of one cycle: the first step must still complete in full.
  Cpu cpu;
  ASSERT_TRUE(cpu.LoadProgram(program.base_address, program.words).ok());
  cpu.Reset(program.entry);
  EXPECT_EQ(cpu.Run(1), StepOutcome::kOk);
  EXPECT_EQ(cpu.cycles(), one_mul);
  EXPECT_EQ(cpu.instructions_retired(), 1u);

  // A budget mid-way through step N+1 runs through the end of step N+1.
  Cpu cpu2;
  ASSERT_TRUE(cpu2.LoadProgram(program.base_address, program.words).ok());
  cpu2.Reset(program.entry);
  EXPECT_EQ(cpu2.Run(one_mul + 1), StepOutcome::kOk);
  EXPECT_GT(cpu2.cycles(), one_mul + 1);

  // A RunFastEx cycle budget has identical overshoot behaviour and
  // identical state.
  for (uint64_t budget : {uint64_t{1}, one_mul, one_mul + 1, uint64_t{200}}) {
    Cpu a;
    Cpu b;
    ASSERT_TRUE(a.LoadProgram(program.base_address, program.words).ok());
    ASSERT_TRUE(b.LoadProgram(program.base_address, program.words).ok());
    a.Reset(program.entry);
    b.Reset(program.entry);
    EXPECT_EQ(a.Run(budget), b.RunFastEx(RunFastRequest{.max_cycles = budget})
                                 .outcome)
        << budget;
    EXPECT_EQ(a.cycles(), b.cycles()) << budget;
    EXPECT_EQ(a.instructions_retired(), b.instructions_retired()) << budget;
    EXPECT_EQ(a.pc(), b.pc()) << budget;
  }
}

}  // namespace
}  // namespace goofi::cpu

// --- campaign-level byte-identical databases ---------------------------------

namespace goofi::core {
namespace {

CampaignData DigestCampaign(Technique technique) {
  CampaignData campaign;
  campaign.name = "fastslow";
  campaign.fault_model = FaultModelKind::kTransientBitFlip;
  campaign.num_experiments = 8;
  campaign.technique = technique;
  campaign.inject_min_instr = 1;
  campaign.timeout_cycles = 100000;
  switch (technique) {
    case Technique::kScifi:
      campaign.target_name = ThorRdTarget::kTargetName;
      campaign.workload = "bubblesort";
      campaign.locations = {{"internal_regfile", ""}, {"internal_icache", ""}};
      campaign.inject_max_instr = 800;
      break;
    case Technique::kSwifiPreRuntime:
      campaign.target_name = SwifiSimTarget::kTargetName;
      campaign.workload = "fibonacci";
      campaign.locations = {{"memory.text", ""}};
      campaign.inject_max_instr = 400;
      break;
    case Technique::kSwifiRuntime:
      campaign.target_name = SwifiSimTarget::kTargetName;
      campaign.workload = "checksum";
      campaign.locations = {{"memory.text", ""}, {"memory.data", ""}};
      campaign.inject_max_instr = 600;
      break;
  }
  return campaign;
}

/// FNV-1a over a campaign's result rows in insertion order: name, parent,
/// experiment data and serialized state of each, every field terminated.
uint64_t RowsDigest(const CampaignStore& store, const std::string& campaign,
                    size_t* rows_out) {
  const auto rows = store.ExperimentsOf(campaign);
  EXPECT_TRUE(rows.ok());
  if (!rows.ok()) return 0;
  *rows_out = rows.value().size();
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](const std::string& text) {
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xffu;
    hash *= 1099511628211ull;
  };
  for (const CampaignStore::ExperimentRow& row : rows.value()) {
    mix(row.experiment_name);
    mix(row.parent_experiment);
    mix(row.experiment_data);
    mix(row.state.Serialize());
  }
  return hash;
}

/// Row count and RowsDigest of each technique's campaign, recorded from the
/// reference run loops, which stepped the CPU one StepAndCheck (Thor) or one
/// Step() (SWIFI) at a time.
struct PinnedDigest {
  size_t rows;
  uint64_t digest;
};

PinnedDigest StepLoopDigest(Technique technique) {
  switch (technique) {
    case Technique::kScifi:
      return {9, 0x859bf722be46603eull};
    case Technique::kSwifiPreRuntime:
      return {9, 0x0653d6b89ee5e1bbull};
    case Technique::kSwifiRuntime:
      return {9, 0x174b5246c961773dull};
  }
  return {0, 0};
}

class StepLoopDigestTest : public ::testing::TestWithParam<Technique> {};

// Each target's single superblock run loop must log the rows the step loops
// logged.
TEST_P(StepLoopDigestTest, ResultRowsMatchPinnedDigest) {
  const CampaignData campaign = DigestCampaign(GetParam());
  db::Database db;
  CampaignStore store(&db);
  testcard::SimTestCard card;
  std::unique_ptr<FaultInjectionAlgorithms> target;
  if (campaign.target_name == ThorRdTarget::kTargetName) {
    ASSERT_TRUE(store
                    .PutTargetSystem(ThorRdTarget::DescribeTarget(
                        card, ThorRdTarget::kTargetName))
                    .ok());
    target = std::make_unique<ThorRdTarget>(&store, &card);
  } else {
    ASSERT_TRUE(store.PutTargetSystem(SwifiSimTarget::Describe()).ok());
    target = std::make_unique<SwifiSimTarget>(&store);
  }
  ASSERT_TRUE(store.PutCampaign(campaign).ok());
  ASSERT_TRUE(target->RunCampaign(campaign.name).ok());
  size_t rows = 0;
  const uint64_t digest = RowsDigest(store, campaign.name, &rows);
  const PinnedDigest pinned = StepLoopDigest(GetParam());
  EXPECT_EQ(rows, pinned.rows);
  EXPECT_EQ(digest, pinned.digest)
      << "result rows diverged from the step-loop reference for technique "
      << TechniqueName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, StepLoopDigestTest,
                         ::testing::Values(Technique::kScifi,
                                           Technique::kSwifiPreRuntime,
                                           Technique::kSwifiRuntime),
                         [](const auto& info) {
                           switch (info.param) {
                             case Technique::kScifi: return std::string("Scifi");
                             case Technique::kSwifiPreRuntime:
                               return std::string("SwifiPreRuntime");
                             case Technique::kSwifiRuntime:
                               return std::string("SwifiRuntime");
                           }
                           return std::string("Unknown");
                         });

}  // namespace
}  // namespace goofi::core
