// Tests for the simulated test card: the host<->target adapter that routes
// all scan access through the TAP controller.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "testcard/testcard.hpp"

namespace goofi::testcard {
namespace {

isa::AssembledProgram Program(const std::string& source) {
  return isa::Assemble(source).ValueOrDie();
}

class TestCardTest : public ::testing::Test {
 protected:
  SimTestCard card_;
};

TEST_F(TestCardTest, InitPowersDownCleanly) {
  ASSERT_TRUE(card_.Init().ok());
  EXPECT_FALSE(card_.cpu().halted());
  EXPECT_EQ(card_.cpu().cycles(), 0u);
}

TEST_F(TestCardTest, LoadWorkloadAndRunToCompletion) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program("addi r1, r0, 3\nhalt\n")).ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  const auto result = card_.Run(0);
  EXPECT_EQ(result.outcome, cpu::StepOutcome::kHalted);
  EXPECT_EQ(card_.cpu().reg(1), 3u);
}

TEST_F(TestCardTest, EtextSplitsTextAndData) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program(
                      "_start:\n"
                      "  li r1, buf\n"
                      "  stw r1, [r1]\n"
                      "  halt\n"
                      "_etext:\n"
                      "buf:\n"
                      "  .word 0\n"))
                  .ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  EXPECT_EQ(card_.Run(0).outcome, cpu::StepOutcome::kHalted)
      << "data segment must be writable";
}

TEST_F(TestCardTest, HostMemoryRoundTrip) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.WriteMemory(0x1000, {1, 2, 3}).ok());
  const auto words = card_.ReadMemory(0x1000, 3).ValueOrDie();
  EXPECT_EQ(words, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_FALSE(card_.ReadMemory(0xFFFFFFF0, 8).ok());
  EXPECT_FALSE(card_.WriteMemory(3, {1}).ok());
}

TEST_F(TestCardTest, ReadScanChainReturnsCpuState) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(4, 0xDEAD);
  const auto image = card_.ReadScanChain("internal_regfile", true).ValueOrDie();
  EXPECT_EQ(image.ExtractWord(4 * 32, 32), 0xDEADu);
}

TEST_F(TestCardTest, RestoringReadPreservesState) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(9, 0x1234);
  (void)card_.ReadScanChain("internal_regfile", true).ValueOrDie();
  EXPECT_EQ(card_.cpu().reg(9), 0x1234u);
}

TEST_F(TestCardTest, DestructiveReadZeroesWritableCells) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(9, 0x1234);
  (void)card_.ReadScanChain("internal_regfile", false).ValueOrDie();
  // The read pass shifted zeros in; the follow-up WriteScanChain in the
  // SCIFI sequence is what restores state.
  EXPECT_EQ(card_.cpu().reg(9), 0u);
}

TEST_F(TestCardTest, ReadModifyWriteInjectsFault) {
  ASSERT_TRUE(card_.Init().ok());
  card_.mutable_cpu().set_reg(5, 0b1000);
  auto image = card_.ReadScanChain("internal_regfile", false).ValueOrDie();
  image.Flip(5 * 32 + 0);  // flip bit 0 of r5
  ASSERT_TRUE(card_.WriteScanChain("internal_regfile", image).ok());
  EXPECT_EQ(card_.cpu().reg(5), 0b1001u);
}

TEST_F(TestCardTest, UnknownChainErrors) {
  ASSERT_TRUE(card_.Init().ok());
  EXPECT_FALSE(card_.ReadScanChain("bogus", true).ok());
  EXPECT_FALSE(card_.WriteScanChain("bogus", util::BitVec(8)).ok());
}

TEST_F(TestCardTest, WriteScanChainChecksImageSize) {
  ASSERT_TRUE(card_.Init().ok());
  EXPECT_FALSE(card_.WriteScanChain("internal_regfile", util::BitVec(7)).ok());
}

TEST_F(TestCardTest, TriggersRunThroughDebugUnit) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program(
                      "loop:\n"
                      "  jmp loop\n"))
                  .ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  scan::Trigger trigger;
  trigger.kind = scan::TriggerKind::kInstrCount;
  trigger.count = 5;
  const int index = card_.AddTrigger(trigger);
  const auto result = card_.Run(0);
  EXPECT_EQ(result.fired_trigger, index);
  card_.ClearTriggers();
  const auto timeout = card_.Run(200);
  EXPECT_TRUE(timeout.timed_out);
}

TEST_F(TestCardTest, SingleStepExecutesOneInstruction) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program("addi r1, r0, 1\nhalt\n")).ok());
  ASSERT_TRUE(card_.ResetTarget().ok());
  EXPECT_EQ(card_.SingleStep(), cpu::StepOutcome::kOk);
  EXPECT_EQ(card_.cpu().instructions_retired(), 1u);
  EXPECT_EQ(card_.SingleStep(), cpu::StepOutcome::kHalted);
}

TEST_F(TestCardTest, LinkTimeGrowsWithScanTraffic) {
  ASSERT_TRUE(card_.Init().ok());
  const double before = card_.link_time_us();
  (void)card_.ReadScanChain("internal_regfile", true).ValueOrDie();
  const double after_small = card_.link_time_us();
  EXPECT_GT(after_small, before);
  (void)card_.ReadScanChain("internal_icache", true).ValueOrDie();
  const double after_large = card_.link_time_us();
  // The icache chain is much longer than the regfile chain.
  EXPECT_GT(after_large - after_small, (after_small - before) * 2);
}

// The link model, pinned exactly. From Run-Test/Idle an IR load is 10 TCK
// and a DR scan of an L-bit register is L + 5 (3 clocks in, L shifting, 2
// out). A chain access is SCAN_N load + 3-bit select scan + INTEST load +
// one full-length chain scan (two for a restored read): 33 + L per write,
// 38 + 2L per restored read.
struct ChainCost {
  const char* chain;
  uint64_t tck_per_read;
  uint64_t tck_per_write;
};
constexpr ChainCost kChainCosts[] = {
    {"boundary", 358, 193},
    {"internal_core", 488, 258},
    {"internal_regfile", 1062, 545},
    {"internal_icache", 5926, 2977},
    {"internal_dcache", 5926, 2977},
};

TEST_F(TestCardTest, TckCountPerRestoredReadIsExact) {
  ASSERT_TRUE(card_.Init().ok());
  for (const ChainCost& cost : kChainCosts) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      const uint64_t before = card_.tck_count();
      const double link_before = card_.link_time_us();
      (void)card_.ReadScanChain(cost.chain, true).ValueOrDie();
      EXPECT_EQ(card_.tck_count() - before, cost.tck_per_read) << cost.chain;
      // 50 us per operation plus one 0.1 us TCK period per clock at 10 MHz.
      EXPECT_DOUBLE_EQ(card_.link_time_us() - link_before,
                       50.0 + static_cast<double>(cost.tck_per_read) / 10.0)
          << cost.chain;
    }
  }
}

TEST_F(TestCardTest, TckCountPerWriteIsExact) {
  ASSERT_TRUE(card_.Init().ok());
  for (const ChainCost& cost : kChainCosts) {
    const util::BitVec image =
        card_.ReadScanChain(cost.chain, true).ValueOrDie();
    const uint64_t before = card_.tck_count();
    ASSERT_TRUE(card_.WriteScanChain(cost.chain, image).ok());
    EXPECT_EQ(card_.tck_count() - before, cost.tck_per_write) << cost.chain;
  }
}

TEST(TestCardNoiseTest, ScriptedNoisySequenceIsPinned) {
  // Read / inject / write / read on a 2% BER link with a fixed noise seed.
  // Every TDI and TDO bit draws from the noise RNG in shift order, so the
  // images, the link time and the RNG state after the sequence are exact.
  LinkConfig link;
  link.bit_error_rate = 0.02;
  link.noise_seed = 0x5EED5EEDull;
  SimTestCard card(cpu::CpuConfig(), link);
  ASSERT_TRUE(card.Init().ok());
  for (int r = 1; r < 16; ++r) {
    card.mutable_cpu().set_reg(r, 0x01010101u * static_cast<uint32_t>(r));
  }
  util::BitVec image =
      card.ReadScanChain("internal_regfile", false).ValueOrDie();
  const std::string read_hex = image.ToHex();
  image.Flip(5 * 32 + 7);
  ASSERT_TRUE(card.WriteScanChain("internal_regfile", image).ok());
  const uint32_t r5_after_write = card.cpu().reg(5);
  const std::string reread_hex =
      card.ReadScanChain("internal_regfile", true).ValueOrDie().ToHex();
  const std::string core_hex =
      card.ReadScanChain("internal_core", true).ValueOrDie().ToHex();
  const util::Rng::State noise =
      card.SaveSnapshot().ValueOrDie().noise.GetState();
  EXPECT_EQ(read_hex,
            "0x0f0f0f0f0a0e0e0e0c0d0d0d0e4c0c2c8b0b0b0b8a0a0b0a09090d0908080808"
            "0747070646061604050505050404042403030303220202020301010100200000");
  // This seed flips a bit of the write's SCAN_N select scan, so the write
  // addresses chain index 6 (no such chain: a 1-bit register) and the
  // register file keeps its destructively read, noise-filled contents.
  EXPECT_EQ(r5_after_write, 4u);
  EXPECT_EQ(reread_hex,
            "0x04a1000000500000020000000000000002200001100000000000012000000004"
            "0000000000000000041000040000100200000040100000000008400000000000");
  EXPECT_EQ(core_hex,
            "0x0000000000000004000000004000004010000000000080000000000000000000");
  EXPECT_EQ(card.tck_count(), 2135u);
  EXPECT_DOUBLE_EQ(card.link_time_us(), 463.5);
  EXPECT_EQ(noise.s[0], 0x9990e92d044de2b7ull);
  EXPECT_EQ(noise.s[1], 0x3ccbd173bc03518cull);
  EXPECT_EQ(noise.s[2], 0x8005aa0288ec8d6dull);
  EXPECT_EQ(noise.s[3], 0x757928ae59eff7a9ull);
}

TEST_F(TestCardTest, WorkloadEntryFollowsStartSymbol) {
  ASSERT_TRUE(card_.Init().ok());
  ASSERT_TRUE(card_.LoadWorkload(Program(
                      ".word 0\n"
                      "_start:\n"
                      "  halt\n"))
                  .ok());
  EXPECT_EQ(card_.workload_entry(), 4u);
}

TEST(TestCardNoiseTest, BitErrorsCorruptScanTraffic) {
  LinkConfig link;
  link.bit_error_rate = 0.02;
  SimTestCard card(cpu::CpuConfig(), link);
  ASSERT_TRUE(card.Init().ok());
  for (int r = 1; r < 16; ++r) {
    card.mutable_cpu().set_reg(r, 0xAAAA5555u);
  }
  const auto image = card.ReadScanChain("internal_regfile", false).ValueOrDie();
  // With a 2% BER over 512 bits, corruption is overwhelmingly likely.
  util::BitVec expected(16 * 32);
  for (int r = 1; r < 16; ++r) {
    expected.DepositWord(static_cast<size_t>(r) * 32, 0xAAAA5555u, 32);
  }
  EXPECT_NE(image, expected);
}

TEST(TestCardNoiseTest, CleanLinkIsExact) {
  SimTestCard card;  // default: BER 0
  ASSERT_TRUE(card.Init().ok());
  for (int r = 1; r < 16; ++r) {
    card.mutable_cpu().set_reg(r, 0x0F0F0F0Fu);
  }
  const auto image = card.ReadScanChain("internal_regfile", true).ValueOrDie();
  for (int r = 1; r < 16; ++r) {
    EXPECT_EQ(image.ExtractWord(static_cast<size_t>(r) * 32, 32), 0x0F0F0F0Fu);
  }
}

}  // namespace
}  // namespace goofi::testcard
