// Tests for the GOOFI core data model: enums, selectors, fault instances and
// logged-state serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>

#include "core/types.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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

// --- stateVector byte oracle and parse fuzz ----------------------------------
// The oracles are the printf/Split-based serializer and parser the stored
// stateVector format was defined by; AppendTo, Serialize, ParseInto and
// Deserialize must reproduce them exactly.

std::string OracleSerialize(const LoggedState& s) {
  std::string out;
  out += util::Format("halted=%d;detected=%d;edm=%s;code=%d;timeout=%d;",
                      s.halted, s.detected, s.edm.empty() ? "none" : s.edm.c_str(),
                      s.edm_code, s.timed_out);
  out += util::Format("envfail=%d;cycles=%llu;instret=%llu;iters=%d;",
                      s.env_failed, static_cast<unsigned long long>(s.cycles),
                      static_cast<unsigned long long>(s.instret), s.iterations);
  out += "outputs=";
  for (size_t i = 0; i < s.outputs.size(); ++i) {
    if (i > 0) out += ",";
    out += util::Format("%08x", s.outputs[i]);
  }
  out += ";";
  for (const auto& [chain, bits] : s.scan_images) {
    out += "scan." + chain + "=" + bits + ";";
  }
  return out;
}

util::Result<LoggedState> OracleDeserialize(const std::string& text) {
  LoggedState state;
  for (const std::string& pair : util::Split(text, ';')) {
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return util::ParseError("bad LoggedState field: " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    auto as_int = [&]() -> util::Result<int64_t> {
      const auto v = util::ParseInt(value);
      if (!v) return util::ParseError("bad integer in LoggedState: " + pair);
      return *v;
    };
    if (key == "halted" || key == "detected" || key == "timeout" ||
        key == "envfail") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      const bool flag = v.value() != 0;
      if (key == "halted") state.halted = flag;
      if (key == "detected") state.detected = flag;
      if (key == "timeout") state.timed_out = flag;
      if (key == "envfail") state.env_failed = flag;
    } else if (key == "edm") {
      state.edm = value == "none" ? "" : value;
    } else if (key == "code") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.edm_code = static_cast<int32_t>(v.value());
    } else if (key == "cycles") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.cycles = static_cast<uint64_t>(v.value());
    } else if (key == "instret") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.instret = static_cast<uint64_t>(v.value());
    } else if (key == "iters") {
      auto v = as_int();
      if (!v.ok()) return v.status();
      state.iterations = static_cast<int>(v.value());
    } else if (key == "outputs") {
      if (!value.empty()) {
        for (const std::string& hex : util::Split(value, ',')) {
          const auto v = util::ParseInt("0x" + hex);
          if (!v) return util::ParseError("bad output word: " + hex);
          state.outputs.push_back(static_cast<uint32_t>(*v));
        }
      }
    } else if (util::StartsWith(key, "scan.")) {
      state.scan_images[key.substr(5)] = value;
    } else {
      return util::ParseError("unknown LoggedState key: " + key);
    }
  }
  return state;
}

std::string RandomBits(util::Rng& rng, size_t max_len) {
  std::string bits(rng.NextBelow(max_len + 1), '0');
  for (char& c : bits) c = rng.NextBool() ? '1' : '0';
  return bits;
}

LoggedState RandomState(util::Rng& rng) {
  static const char* const kEdms[] = {"", "illegal_opcode", "hw_exception",
                                      "sw_assertion", "cache_parity_data"};
  static const char* const kChains[] = {"internal_core", "internal_regfile",
                                        "boundary", "sim.regfile", "a", ""};
  static const int32_t kCodes[] = {0, -1, 7, INT32_MIN, INT32_MAX};
  static const uint64_t kCounts[] = {0, 1, 652, UINT64_MAX, UINT64_MAX - 1,
                                     uint64_t{1} << 63};
  static const uint32_t kWords[] = {0, 1, 0x80000000u, 0xFFFFFFFFu,
                                    0xDEADBEEFu, 0x0000ABCDu};
  LoggedState s;
  s.halted = rng.NextBool();
  s.detected = rng.NextBool();
  s.timed_out = rng.NextBool();
  s.env_failed = rng.NextBool();
  s.edm = kEdms[rng.NextBelow(std::size(kEdms))];
  s.edm_code = rng.NextBool() ? kCodes[rng.NextBelow(std::size(kCodes))]
                              : static_cast<int32_t>(rng.Next());
  s.cycles = rng.NextBool() ? kCounts[rng.NextBelow(std::size(kCounts))]
                            : rng.Next() >> rng.NextBelow(64);
  s.instret = rng.NextBool() ? kCounts[rng.NextBelow(std::size(kCounts))]
                             : rng.Next() >> rng.NextBelow(64);
  s.iterations = static_cast<int>(rng.Next() >> 32) >> rng.NextBelow(32);
  const size_t outputs = rng.NextBelow(5);
  for (size_t i = 0; i < outputs; ++i) {
    s.outputs.push_back(rng.NextBool() ? kWords[rng.NextBelow(std::size(kWords))]
                                       : static_cast<uint32_t>(rng.Next()));
  }
  const size_t chains = rng.NextBelow(4);
  for (size_t i = 0; i < chains; ++i) {
    s.scan_images[kChains[rng.NextBelow(std::size(kChains))]] =
        RandomBits(rng, 70);
  }
  return s;
}

void ExpectSerializeMatchesOracle(const LoggedState& s) {
  const std::string expected = OracleSerialize(s);
  EXPECT_EQ(s.Serialize(), expected);
  std::string appended = "prefix;";
  s.AppendTo(&appended);
  EXPECT_EQ(appended, "prefix;" + expected);
}

TEST(LoggedStateOracleTest, SerializeEdgeValuesMatchOracleBytes) {
  LoggedState s;
  ExpectSerializeMatchesOracle(s);  // empty edm, no outputs, no chains
  s.edm_code = -5;
  s.cycles = UINT64_MAX;
  s.instret = UINT64_MAX;
  s.iterations = -1;
  ExpectSerializeMatchesOracle(s);
  s.edm_code = INT32_MIN;
  s.outputs = {0x80000000u, 0xFFFFFFFFu, 0, 0x0000000Fu};
  ExpectSerializeMatchesOracle(s);
  s.edm = "sw_assertion";
  s.scan_images["internal_core"] = "";  // empty bit string
  ExpectSerializeMatchesOracle(s);
  s.scan_images["internal_regfile"] = "0110";
  s.scan_images["boundary"] = "";
  ExpectSerializeMatchesOracle(s);
  s.edm = std::string("ab\0cd", 5);  // printf's %s stops at the NUL
  ExpectSerializeMatchesOracle(s);
  EXPECT_EQ(LoggedState::Deserialize(OracleSerialize(s)).ValueOrDie().cycles,
            UINT64_MAX);
}

TEST(LoggedStateOracleTest, RandomStatesMatchOracleBytesAndRoundTrip) {
  util::Rng rng(0x57A7E);
  for (int i = 0; i < 3000; ++i) {
    const LoggedState s = RandomState(rng);
    ExpectSerializeMatchesOracle(s);
    const std::string text = s.Serialize();
    const auto oracle = OracleDeserialize(text);
    ASSERT_TRUE(oracle.ok()) << text;
    EXPECT_EQ(oracle.value(), s) << text;
    EXPECT_EQ(LoggedState::Deserialize(text).ValueOrDie(), s) << text;
    if (HasFailure()) return;
  }
}

/// One seeded mutation of a valid stateVector text.
std::string Mutate(util::Rng& rng, std::string text) {
  static const char kBytes[] = ";=,.-+ x0123456789abcdefABCDEF\t";
  std::vector<std::string> pairs = util::Split(text, ';');
  auto join = [&pairs]() { return util::Join(pairs, ";"); };
  auto pick = [&rng](const std::vector<std::string>& v) {
    return rng.NextBelow(v.size());
  };
  switch (rng.NextBelow(9)) {
    case 0:  // truncation
      return text.substr(0, rng.NextBelow(text.size() + 1));
    case 1: {  // byte flips
      const int flips = 1 + static_cast<int>(rng.NextBelow(3));
      for (int f = 0; f < flips && !text.empty(); ++f) {
        text[rng.NextBelow(text.size())] =
            rng.NextBool(0.8) ? kBytes[rng.NextBelow(sizeof(kBytes) - 1)]
                              : static_cast<char>(rng.Next());
      }
      return text;
    }
    case 2: {  // duplicate key, possibly with another value
      std::string dup = pairs[pick(pairs)];
      if (rng.NextBool() && !dup.empty()) dup.back() = rng.NextBool() ? '1' : '0';
      pairs.insert(pairs.begin() + static_cast<long>(pick(pairs)), dup);
      return join();
    }
    case 3:  // reordered keys
      for (size_t i = pairs.size(); i > 1; --i) {
        std::swap(pairs[i - 1], pairs[rng.NextBelow(i)]);
      }
      return join();
    case 4: {  // unknown key
      static const char* const kUnknown[] = {"wat=1", "scanx=0", "Halted=1",
                                             "halted", "=", "scan"};
      pairs.insert(pairs.begin() + static_cast<long>(pick(pairs)),
                   kUnknown[rng.NextBelow(std::size(kUnknown))]);
      return join();
    }
    case 5: {  // non-canonical hex output words
      static const char* const kHex[] = {"1f",        "1F",       "0x1f",
                                         "  1f",      "1f ",      "123456789",
                                         "-1",        "",         "ABCDEF12",
                                         "00000000000000000001",   "fffffffff",
                                         "+1",        "g0000000", "ffffffffffffffffff"};
      std::string words;
      const size_t n = 1 + rng.NextBelow(3);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) words += ",";
        words += kHex[rng.NextBelow(std::size(kHex))];
      }
      for (std::string& pair : pairs) {
        if (util::StartsWith(pair, "outputs=")) pair = "outputs=" + words;
      }
      return join();
    }
    case 6: {  // non-canonical decimals
      static const char* const kDec[] = {
          "+1", " 1", "1 ", "01", "0x10", "-0", "-1", "", "1e3",
          "99999999999999999999", "18446744073709551615",
          "18446744073709551616", "-9223372036854775808", "--5", "9223372036854775807"};
      std::string& pair = pairs[pick(pairs)];
      const size_t eq = pair.find('=');
      if (eq != std::string::npos) {
        pair = pair.substr(0, eq + 1) + kDec[rng.NextBelow(std::size(kDec))];
      }
      return join();
    }
    case 7:  // a pair dropped
      pairs.erase(pairs.begin() + static_cast<long>(pick(pairs)));
      return join();
    default: {  // an extra scan chain somewhere
      pairs.insert(pairs.begin() + static_cast<long>(pick(pairs)),
                   "scan." + std::string(rng.NextBool() ? "boundary" : "zz") +
                       "=" + RandomBits(rng, 8));
      return join();
    }
  }
}

void ExpectParseMatchesOracle(const std::string& text, LoggedState* reused) {
  const auto oracle = OracleDeserialize(text);
  const auto fresh = LoggedState::Deserialize(text);
  const util::Status in_place = LoggedState::ParseInto(text, reused);
  ASSERT_EQ(fresh.ok(), oracle.ok()) << text;
  ASSERT_EQ(in_place.ok(), oracle.ok()) << text;
  if (!oracle.ok()) {
    EXPECT_EQ(fresh.status(), oracle.status()) << text;
    EXPECT_EQ(in_place, oracle.status()) << text;
    return;
  }
  EXPECT_EQ(fresh.value(), oracle.value()) << text;
  EXPECT_EQ(*reused, oracle.value()) << text;
}

TEST(LoggedStateOracleTest, MutatedTextsParseLikeTheOracle) {
  util::Rng rng(0xF022);
  LoggedState reused;  // carries each input's chains into the next parse
  int errors = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = RandomState(rng).Serialize();
    const int rounds = 1 + static_cast<int>(rng.NextBelow(3));
    for (int r = 0; r < rounds; ++r) text = Mutate(rng, std::move(text));
    if (rng.NextBool(0.2)) reused = RandomState(rng);
    ExpectParseMatchesOracle(text, &reused);
    if (HasFailure()) return;
    if (!OracleDeserialize(text).ok()) ++errors;
  }
  // Both outcomes must be well exercised.
  EXPECT_GT(errors, 2000);
  EXPECT_LT(errors, 18000);
}

TEST(LoggedStateOracleTest, ReusedTargetWithOtherChainsEqualsFreshParse) {
  LoggedState target;
  target.scan_images = {{"a", "1"}, {"internal_core", "0101"}, {"zz", "1"}};
  target.outputs = {1, 2, 3};
  target.edm = "hw_exception";
  LoggedState want;
  want.scan_images = {{"boundary", "01"}, {"internal_core", "1"}};
  ExpectParseMatchesOracle(want.Serialize(), &target);
  EXPECT_EQ(target, want);
  // Chains out of Serialize's order, and a repeated chain (last one wins).
  ExpectParseMatchesOracle("scan.internal_core=1;scan.boundary=01;", &target);
  EXPECT_EQ(target, want);
  ExpectParseMatchesOracle(
      "scan.boundary=11;scan.internal_core=1;scan.boundary=01;", &target);
  EXPECT_EQ(target, want);
  ExpectParseMatchesOracle("", &target);
  EXPECT_EQ(target, LoggedState{});
}

}  // namespace
}  // namespace goofi::core
