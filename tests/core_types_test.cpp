// Tests for the GOOFI core data model: enums, selectors, fault instances and
// logged-state serialization.
#include <gtest/gtest.h>

#include "core/types.hpp"

namespace goofi::core {
namespace {

TEST(EnumsTest, TechniqueRoundTrip) {
  for (Technique t : {Technique::kScifi, Technique::kSwifiPreRuntime,
                      Technique::kSwifiRuntime}) {
    EXPECT_EQ(TechniqueFromName(TechniqueName(t)).ValueOrDie(), t);
  }
  EXPECT_FALSE(TechniqueFromName("bogus").ok());
}

TEST(EnumsTest, FaultModelRoundTrip) {
  for (FaultModelKind k :
       {FaultModelKind::kTransientBitFlip, FaultModelKind::kIntermittentBitFlip,
        FaultModelKind::kPermanentStuckAt}) {
    EXPECT_EQ(FaultModelFromName(FaultModelName(k)).ValueOrDie(), k);
  }
  EXPECT_FALSE(FaultModelFromName("bogus").ok());
}

TEST(EnumsTest, OutcomeNames) {
  EXPECT_STREQ(OutcomeName(Outcome::kDetected), "detected");
  EXPECT_STREQ(OutcomeName(Outcome::kEscaped), "escaped");
  EXPECT_STREQ(OutcomeName(Outcome::kLatent), "latent");
  EXPECT_STREQ(OutcomeName(Outcome::kOverwritten), "overwritten");
}

TEST(SelectorTest, ParseWithAndWithoutPrefix) {
  auto plain = FaultLocationSelector::Parse("internal_core").ValueOrDie();
  EXPECT_EQ(plain.chain, "internal_core");
  EXPECT_TRUE(plain.cell_prefix.empty());

  auto scoped = FaultLocationSelector::Parse("internal_regfile:regfile.r1")
                    .ValueOrDie();
  EXPECT_EQ(scoped.chain, "internal_regfile");
  EXPECT_EQ(scoped.cell_prefix, "regfile.r1");

  EXPECT_FALSE(FaultLocationSelector::Parse("").ok());
  EXPECT_FALSE(FaultLocationSelector::Parse(":prefix").ok());
}

TEST(SelectorTest, ToStringRoundTrip) {
  for (const char* text : {"internal_core", "memory.text",
                           "internal_icache:icache.line3"}) {
    const auto selector = FaultLocationSelector::Parse(text).ValueOrDie();
    EXPECT_EQ(selector.ToString(), text);
  }
}

TEST(FaultInstanceTest, ScanFaultSerializeRoundTrip) {
  FaultInstance fault;
  fault.kind = FaultModelKind::kIntermittentBitFlip;
  fault.chain = "internal_core";
  fault.chain_bit = 77;
  fault.cell_name = "core.pc";
  fault.inject_instr = 123456;
  const auto back = FaultInstance::Parse(fault.Serialize()).ValueOrDie();
  EXPECT_EQ(back.kind, fault.kind);
  EXPECT_EQ(back.chain, fault.chain);
  EXPECT_EQ(back.chain_bit, fault.chain_bit);
  EXPECT_EQ(back.cell_name, fault.cell_name);
  EXPECT_EQ(back.inject_instr, fault.inject_instr);
  EXPECT_TRUE(back.IsScanFault());
}

TEST(FaultInstanceTest, MemoryFaultSerializeRoundTrip) {
  FaultInstance fault;
  fault.kind = FaultModelKind::kPermanentStuckAt;
  fault.address = 0xF004;
  fault.bit = 31;
  fault.stuck_value = true;
  const auto back = FaultInstance::Parse(fault.Serialize()).ValueOrDie();
  EXPECT_FALSE(back.IsScanFault());
  EXPECT_EQ(back.address, 0xF004u);
  EXPECT_EQ(back.bit, 31u);
  EXPECT_TRUE(back.stuck_value);
}

TEST(FaultInstanceTest, ParseRejectsMalformed) {
  EXPECT_FALSE(FaultInstance::Parse("").ok());
  EXPECT_FALSE(FaultInstance::Parse("a,b,c").ok());
  EXPECT_FALSE(FaultInstance::Parse("bogus_kind,,0,,0,0,0,0").ok());
  EXPECT_FALSE(FaultInstance::Parse("transient_bitflip,,x,,0,0,0,0").ok());
  // Out of range: a memory bit past 31, negative fields, a 33-bit address.
  EXPECT_FALSE(FaultInstance::Parse("transient_bitflip,,0,,0,32,0,0").ok());
  EXPECT_FALSE(FaultInstance::Parse("transient_bitflip,c,-1,,0,0,0,0").ok());
  EXPECT_FALSE(FaultInstance::Parse("transient_bitflip,,0,,-4,0,0,0").ok());
  EXPECT_FALSE(
      FaultInstance::Parse("transient_bitflip,,0,,4294967296,0,0,0").ok());
}

TEST(FaultInstanceTest, DescribeMentionsLocationAndTime) {
  FaultInstance fault;
  fault.chain = "internal_regfile";
  fault.chain_bit = 42;
  fault.cell_name = "regfile.r1";
  fault.inject_instr = 99;
  const std::string text = fault.Describe();
  EXPECT_NE(text.find("internal_regfile"), std::string::npos);
  EXPECT_NE(text.find("regfile.r1"), std::string::npos);
  EXPECT_NE(text.find("99"), std::string::npos);
}

TEST(LoggedStateTest, SerializeRoundTripFull) {
  LoggedState state;
  state.halted = true;
  state.detected = true;
  state.edm = "cache_parity_data";
  state.edm_code = -3;
  state.timed_out = true;
  state.env_failed = true;
  state.cycles = 123456789012ULL;
  state.instret = 987654321ULL;
  state.iterations = 250;
  state.outputs = {0xDEADBEEF, 0, 0xFFFFFFFF};
  state.scan_images["internal_core"] = "0101101";
  state.scan_images["boundary"] = "111";

  const auto back = LoggedState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_EQ(back.halted, state.halted);
  EXPECT_EQ(back.detected, state.detected);
  EXPECT_EQ(back.edm, state.edm);
  EXPECT_EQ(back.edm_code, state.edm_code);
  EXPECT_EQ(back.timed_out, state.timed_out);
  EXPECT_EQ(back.env_failed, state.env_failed);
  EXPECT_EQ(back.cycles, state.cycles);
  EXPECT_EQ(back.instret, state.instret);
  EXPECT_EQ(back.iterations, state.iterations);
  EXPECT_EQ(back.outputs, state.outputs);
  EXPECT_EQ(back.scan_images, state.scan_images);
}

TEST(LoggedStateTest, DefaultRoundTrip) {
  const LoggedState state;
  const auto back = LoggedState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_FALSE(back.halted);
  EXPECT_FALSE(back.detected);
  EXPECT_TRUE(back.edm.empty());
  EXPECT_TRUE(back.outputs.empty());
  EXPECT_TRUE(back.scan_images.empty());
}

TEST(LoggedStateTest, DeserializeRejectsUnknownKey) {
  EXPECT_FALSE(LoggedState::Deserialize("wat=1;").ok());
  EXPECT_FALSE(LoggedState::Deserialize("halted").ok());
  EXPECT_FALSE(LoggedState::Deserialize("cycles=abc;").ok());
}

TEST(LoggedStateTest, EmptyStringIsDefaultState) {
  const auto state = LoggedState::Deserialize("").ValueOrDie();
  EXPECT_FALSE(state.detected);
}

// Parameterized property: Serialize/Deserialize is stable for varying
// output-vector sizes.
class LoggedStateOutputsSweep : public ::testing::TestWithParam<int> {};

TEST_P(LoggedStateOutputsSweep, OutputsRoundTrip) {
  LoggedState state;
  for (int i = 0; i < GetParam(); ++i) {
    state.outputs.push_back(static_cast<uint32_t>(i * 2654435761u));
  }
  const auto back = LoggedState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_EQ(back.outputs, state.outputs);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LoggedStateOutputsSweep,
                         ::testing::Values(0, 1, 2, 9, 64));

}  // namespace
}  // namespace goofi::core
