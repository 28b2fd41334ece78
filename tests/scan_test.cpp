// Tests for the IEEE 1149.1 TAP controller, scan chains and the debug unit.
#include <gtest/gtest.h>

#include "cpu/cpu.hpp"
#include "isa/assembler.hpp"
#include "scan/chain.hpp"
#include "scan/debug.hpp"
#include "scan/tap.hpp"
#include "util/rng.hpp"

namespace goofi::scan {
namespace {

// --- TAP FSM -------------------------------------------------------------

/// Minimal DR handler: one 8-bit register.
class FakeDr : public TapController::DrHandler {
 public:
  uint32_t DrLength(TapInstruction) override { return 8; }
  util::BitVec CaptureDr(TapInstruction) override {
    util::BitVec bits(8);
    bits.DepositWord(0, value, 8);
    return bits;
  }
  void UpdateDr(TapInstruction, const util::BitVec& image) override {
    value = static_cast<uint8_t>(image.ExtractWord(0, 8));
    ++updates;
  }
  uint8_t value = 0;
  int updates = 0;
};

TEST(TapTest, FiveTmsOnesAlwaysReachTestLogicReset) {
  FakeDr dr;
  TapController tap(&dr);
  // Wander into a few states first.
  tap.Clock(false, false);
  tap.Clock(true, false);
  tap.Clock(false, false);
  for (int i = 0; i < 5; ++i) tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kTestLogicReset);
}

TEST(TapTest, ResetLandsInRunTestIdle) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
  EXPECT_EQ(tap.instruction(), TapInstruction::kIdcode);
}

TEST(TapTest, CanonicalDrScanPath) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kSelectDrScan);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kCaptureDr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kShiftDr);
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kExit1Dr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kPauseDr);
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kExit2Dr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kShiftDr);
  tap.Clock(true, false);
  tap.Clock(true, false);
  EXPECT_EQ(tap.state(), TapState::kUpdateDr);
  tap.Clock(false, false);
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
}

TEST(TapTest, IrScanPathLoadsInstruction) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  tap.LoadInstruction(TapInstruction::kIntest);
  EXPECT_EQ(tap.state(), TapState::kRunTestIdle);
  EXPECT_EQ(tap.instruction(), TapInstruction::kIntest);
  tap.LoadInstruction(TapInstruction::kBypass);
  EXPECT_EQ(tap.instruction(), TapInstruction::kBypass);
}

TEST(TapTest, TestLogicResetRestoresIdcode) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  tap.LoadInstruction(TapInstruction::kIntest);
  for (int i = 0; i < 5; ++i) tap.Clock(true, false);
  EXPECT_EQ(tap.instruction(), TapInstruction::kIdcode);
}

TEST(TapTest, ShiftDataExchangesRegisterContents) {
  FakeDr dr;
  dr.value = 0xA5;
  TapController tap(&dr);
  tap.Reset();
  tap.LoadInstruction(TapInstruction::kIntest);
  util::BitVec in(8);
  in.DepositWord(0, 0x3C, 8);
  const util::BitVec captured = tap.ShiftData(in);
  EXPECT_EQ(captured.ExtractWord(0, 8), 0xA5u);
  EXPECT_EQ(dr.value, 0x3C);
  EXPECT_EQ(dr.updates, 1);
}

TEST(TapTest, TckCountGrowsWithTraffic) {
  FakeDr dr;
  TapController tap(&dr);
  tap.Reset();
  const uint64_t before = tap.tck_count();
  tap.LoadInstruction(TapInstruction::kIntest);
  tap.ShiftData(util::BitVec(8));
  EXPECT_GT(tap.tck_count(), before + 8);
  // IR load from Run-Test/Idle: 4 in, 4 shifting, 2 out. DR scan: 3 in, 8
  // shifting, 2 out.
  EXPECT_EQ(tap.tck_count(), before + 10 + 13);
}

// --- block Shift-DR against a clock-by-clock reference ----------------------

/// DR handler whose declared register length and capture image size are set
/// independently, so a scan can shift more or fewer bits than the capture
/// stage holds.
class MismatchedDr : public TapController::DrHandler {
 public:
  uint32_t DrLength(TapInstruction) override { return length; }
  util::BitVec CaptureDr(TapInstruction) override { return capture; }
  void UpdateDr(TapInstruction, const util::BitVec& image) override {
    updated = image;
    ++updates;
  }
  uint32_t length = 1;
  util::BitVec capture;
  util::BitVec updated;
  int updates = 0;
};

util::BitVec RandomBits(util::Rng* rng, size_t size) {
  util::BitVec bits(size);
  for (size_t i = 0; i < size; ++i) bits.Set(i, rng->NextBool());
  return bits;
}

/// The DR scan ShiftDataInto performs, driven one Clock() per TCK: three
/// clocks into Shift-DR, `length` shifting clocks (TMS=1 on the last, TDI 0
/// past the end of `out`), two clocks back to Run-Test/Idle.
util::BitVec ReferenceShift(TapController* tap, uint32_t length,
                            const util::BitVec& out) {
  tap->Clock(true, false);
  tap->Clock(false, false);
  tap->Clock(false, false);
  util::BitVec captured(length);
  for (uint32_t i = 0; i < length; ++i) {
    const bool tdi = i < out.size() && out.Get(i);
    captured.Set(i, tap->Clock(i == length - 1, tdi));
  }
  tap->Clock(true, false);
  tap->Clock(false, false);
  return captured;
}

void ExpectSameController(const TapController& block,
                          const TapController& ref) {
  EXPECT_EQ(block.state(), ref.state());
  EXPECT_EQ(block.instruction(), ref.instruction());
  EXPECT_EQ(block.tck_count(), ref.tck_count());
  const TapController::Snapshot a = block.SaveSnapshot();
  const TapController::Snapshot b = ref.SaveSnapshot();
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.instruction, b.instruction);
  EXPECT_EQ(a.ir_shift, b.ir_shift);
  EXPECT_EQ(a.dr_shift, b.dr_shift);
  EXPECT_EQ(a.shift_pos, b.shift_pos);
  EXPECT_EQ(a.tck_count, b.tck_count);
}

TEST(TapBlockShiftTest, MatchesClockByClockReference) {
  util::Rng rng(0x7A95CA7);
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    MismatchedDr block_dr;
    MismatchedDr ref_dr;
    TapController block(&block_dr);
    TapController ref(&ref_dr);
    block.Reset();
    ref.Reset();
    // Two consecutive scans per controller pair, so the second starts from
    // the state the first one left behind.
    for (int scan = 0; scan < 2; ++scan) {
      const uint32_t length = 1 + static_cast<uint32_t>(rng.NextBelow(3000));
      // Capture stage equal to, shorter than (possibly empty) or longer
      // than the declared register length.
      size_t capture_size = length;
      switch ((trial + scan) % 3) {
        case 1:
          capture_size = rng.NextBelow(length);
          break;
        case 2:
          capture_size = length + 1 + rng.NextBelow(200);
          break;
        default:
          break;
      }
      block_dr.length = ref_dr.length = length;
      block_dr.capture = ref_dr.capture = RandomBits(&rng, capture_size);
      // TDI image: empty, the register's length, or (as when link noise
      // redirects the chain select) shorter or longer than the register.
      size_t out_size = 0;
      switch ((trial / 3) % 4) {
        case 1:
          out_size = length;
          break;
        case 2:
          out_size = rng.NextBelow(length);
          break;
        case 3:
          out_size = length + 1 + rng.NextBelow(200);
          break;
        default:
          break;
      }
      const util::BitVec out = RandomBits(&rng, out_size);
      if (rng.NextBool()) {
        // Park both in Test-Logic-Reset; LoadInstruction accepts it.
        for (int i = 0; i < 5; ++i) {
          block.Clock(true, false);
          ref.Clock(true, false);
        }
      }
      block.LoadInstruction(TapInstruction::kIntest);
      ref.LoadInstruction(TapInstruction::kIntest);

      util::BitVec captured = RandomBits(&rng, rng.NextBelow(300));
      block.ShiftDataInto(out, &captured);
      const util::BitVec expected = ReferenceShift(&ref, length, out);
      EXPECT_EQ(captured, expected);
      EXPECT_EQ(block_dr.updates, ref_dr.updates);
      EXPECT_EQ(block_dr.updated, ref_dr.updated);
      ExpectSameController(block, ref);
    }
  }
}

// --- scan chains over a CPU -----------------------------------------------

class ChainTest : public ::testing::Test {
 protected:
  ChainTest() : registry_(cpu_.BuildStateRegistry()) {
    chains_ = ScanChainSet::BuildDefault(registry_);
  }
  cpu::Cpu cpu_;
  cpu::StateRegistry registry_;
  ScanChainSet chains_;
};

TEST_F(ChainTest, DefaultLayoutHasFiveChains) {
  EXPECT_EQ(chains_.chains().size(), 5u);
  EXPECT_NE(chains_.Find("boundary"), nullptr);
  EXPECT_NE(chains_.Find("internal_core"), nullptr);
  EXPECT_NE(chains_.Find("internal_regfile"), nullptr);
  EXPECT_NE(chains_.Find("internal_icache"), nullptr);
  EXPECT_NE(chains_.Find("internal_dcache"), nullptr);
  EXPECT_EQ(chains_.Find("nope"), nullptr);
  EXPECT_EQ(chains_.IndexOf("boundary"), 0);
  EXPECT_EQ(chains_.IndexOf("nope"), -1);
}

TEST_F(ChainTest, RegfileChainIs512Bits) {
  EXPECT_EQ(chains_.Find("internal_regfile")->length_bits(), 16u * 32u);
}

TEST_F(ChainTest, CaptureReflectsCpuState) {
  cpu_.Reset(0);
  cpu_.set_reg(3, 0xCAFEBABE);
  const ScanChain* chain = chains_.Find("internal_regfile");
  const util::BitVec image = chain->Capture();
  const auto cell = chain->FindCell("regfile.r3").ValueOrDie();
  EXPECT_EQ(image.ExtractWord(cell.offset, cell.bits), 0xCAFEBABEu);
}

TEST_F(ChainTest, UpdateWritesWritableCells) {
  cpu_.Reset(0);
  const ScanChain* chain = chains_.Find("internal_regfile");
  util::BitVec image = chain->Capture();
  const auto cell = chain->FindCell("regfile.r7").ValueOrDie();
  image.DepositWord(cell.offset, 0x12345678u, cell.bits);
  chain->Update(image);
  EXPECT_EQ(cpu_.reg(7), 0x12345678u);
}

TEST_F(ChainTest, ReadOnlyCellsSurviveUpdate) {
  cpu_.Reset(0);
  cpu_.set_reg(1, 0xFF);
  const ScanChain* chain = chains_.Find("internal_regfile");
  util::BitVec image = chain->Capture();
  const auto r0 = chain->FindCell("regfile.r0").ValueOrDie();
  ASSERT_TRUE(r0.read_only);
  image.DepositWord(r0.offset, 0xFFFFFFFFu, r0.bits);
  chain->Update(image);
  EXPECT_EQ(cpu_.reg(0), 0u) << "read-only cell must not be written";
  EXPECT_EQ(cpu_.reg(1), 0xFFu);
}

TEST_F(ChainTest, CaptureUpdateIdentity) {
  cpu_.Reset(0);
  for (int r = 0; r < 16; ++r) cpu_.set_reg(r, 0x1000u + static_cast<uint32_t>(r));
  const ScanChain* chain = chains_.Find("internal_regfile");
  chain->Update(chain->Capture());
  for (int r = 1; r < 16; ++r) {
    EXPECT_EQ(cpu_.reg(r), 0x1000u + static_cast<uint32_t>(r));
  }
}

TEST_F(ChainTest, LocateMapsBitsToCells) {
  const ScanChain* chain = chains_.Find("internal_regfile");
  const auto location = chain->Locate(32 * 5 + 3);
  ASSERT_NE(location.cell, nullptr);
  EXPECT_EQ(location.cell->name, "regfile.r5");
  EXPECT_EQ(location.bit_in_cell, 3u);
}

TEST_F(ChainTest, FindCellMissingIsError) {
  const ScanChain* chain = chains_.Find("internal_regfile");
  EXPECT_FALSE(chain->FindCell("icache.line0.tag").ok());
}

TEST_F(ChainTest, TotalBitsMatchesRegistry) {
  EXPECT_EQ(chains_.TotalBits(), registry_.TotalBits());
}

TEST_F(ChainTest, CacheChainCoversAllLineFields) {
  const ScanChain* chain = chains_.Find("internal_icache");
  // 64 lines x (valid + tag + data + parity).
  EXPECT_EQ(chain->cells().size(), 64u * 4u);
}

// --- debug unit / triggers --------------------------------------------------

class DebugTest : public ::testing::Test {
 protected:
  void Load(const std::string& source) {
    program_ = isa::Assemble(source).ValueOrDie();
    uint32_t text_bytes = 0;
    const auto etext = program_.symbols.find("_etext");
    if (etext != program_.symbols.end()) text_bytes = etext->second;
    ASSERT_TRUE(
        cpu_.LoadProgram(program_.base_address, program_.words, text_bytes).ok());
    cpu_.Reset(program_.entry);
  }
  cpu::Cpu cpu_;
  isa::AssembledProgram program_;
};

TEST_F(DebugTest, PcBreakpointFiresAtAddress) {
  Load(
      "  addi r1, r0, 1\n"
      "mark:\n"
      "  addi r2, r0, 2\n"
      "  halt\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kPcBreakpoint;
  trigger.address = program_.symbols.at("mark");
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  // The instruction at `mark` has executed when the comparator fires.
  EXPECT_EQ(cpu_.reg(2), 2u);
  EXPECT_FALSE(cpu_.halted());
}

TEST_F(DebugTest, PcBreakpointOccurrenceCountsLoopIterations) {
  Load(
      "  addi r1, r0, 0\n"
      "loop:\n"
      "  addi r1, r1, 1\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kPcBreakpoint;
  trigger.address = program_.symbols.at("loop");
  trigger.occurrence = 5;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.reg(1), 5u);
}

TEST_F(DebugTest, InstrCountTrigger) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kInstrCount;
  trigger.count = 7;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.instructions_retired(), 7u);
}

TEST_F(DebugTest, CycleCountTriggerActsAsRealTimeClock) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kCycleCount;
  trigger.count = 100;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_GE(cpu_.cycles(), 100u);
}

TEST_F(DebugTest, DataAccessTriggerSeesLoadsAndStores) {
  Load(
      "_start:\n"
      "  li r1, target\n"
      "  addi r2, r0, 5\n"
      "  stw r2, [r1]\n"
      "  halt\n"
      "_etext:\n"
      "target:\n"
      "  .word 0\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kDataAccess;
  trigger.address = program_.symbols.at("target");
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_FALSE(cpu_.halted());
}

TEST_F(DebugTest, DataValueTriggerMatchesMovedValue) {
  Load(
      "_start:\n"
      "  li r1, slot\n"
      "  li r2, 0xBEEF\n"
      "  stw r2, [r1]\n"
      "  halt\n"
      "_etext:\n"
      "slot:\n"
      "  .word 0\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kDataValue;
  trigger.value = 0xBEEF;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
}

TEST_F(DebugTest, BranchTriggerFiresOnFirstBranch) {
  Load(
      "  addi r1, r0, 1\n"
      "  addi r2, r0, 1\n"
      "  beq r1, r2, done\n"
      "done:\n"
      "  halt\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kBranch;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.instructions_retired(), 3u);
}

TEST_F(DebugTest, CallTriggerFiresOnJal) {
  Load(
      "_start:\n"
      "  nop\n"
      "  call fn\n"
      "  halt\n"
      "fn:\n"
      "  ret\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kCall;
  debug.AddTrigger(trigger);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
  EXPECT_EQ(cpu_.instructions_retired(), 2u);
}

TEST_F(DebugTest, TerminationWithoutTriggers) {
  Load("halt\n");
  DebugUnit debug(&cpu_);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, -1);
  EXPECT_EQ(result.outcome, cpu::StepOutcome::kHalted);
}

TEST_F(DebugTest, TimeoutReported) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  const DebugRunResult result = debug.RunUntilEvent(500);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.outcome, cpu::StepOutcome::kOk);
}

TEST_F(DebugTest, FirstMatchingTriggerWins) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger a;
  a.kind = TriggerKind::kInstrCount;
  a.count = 3;
  Trigger b;
  b.kind = TriggerKind::kInstrCount;
  b.count = 3;
  debug.AddTrigger(a);
  debug.AddTrigger(b);
  const DebugRunResult result = debug.RunUntilEvent(0);
  EXPECT_EQ(result.fired_trigger, 0);
}

TEST_F(DebugTest, ResetCountersClearsOccurrences) {
  Load(
      "loop:\n"
      "  jmp loop\n");
  DebugUnit debug(&cpu_);
  Trigger trigger;
  trigger.kind = TriggerKind::kPcBreakpoint;
  trigger.address = 0;
  trigger.occurrence = 3;
  debug.AddTrigger(trigger);
  (void)debug.RunUntilEvent(0);
  const uint64_t first = cpu_.instructions_retired();
  cpu_.Reset(0);
  debug.ResetCounters();
  (void)debug.RunUntilEvent(0);
  EXPECT_EQ(cpu_.instructions_retired(), first) << "same occurrence semantics";
}

TEST(TriggerTest, DescribeIsHumanReadable) {
  Trigger trigger;
  trigger.kind = TriggerKind::kDataAccess;
  trigger.address = 0xF000;
  EXPECT_NE(trigger.Describe().find("f000"), std::string::npos);
  EXPECT_STREQ(TriggerKindName(TriggerKind::kBranch), "branch");
}

}  // namespace
}  // namespace goofi::scan
