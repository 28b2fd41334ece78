#include "core/types.hpp"

#include <charconv>
#include <iterator>
#include <optional>

#include "util/strings.hpp"

namespace goofi::core {

const char* TechniqueName(Technique technique) {
  switch (technique) {
    case Technique::kScifi:
      return "scifi";
    case Technique::kSwifiPreRuntime:
      return "swifi_preruntime";
    case Technique::kSwifiRuntime:
      return "swifi_runtime";
  }
  return "?";
}

util::Result<Technique> TechniqueFromName(const std::string& name) {
  for (Technique t : {Technique::kScifi, Technique::kSwifiPreRuntime,
                      Technique::kSwifiRuntime}) {
    if (name == TechniqueName(t)) return t;
  }
  return util::ParseError("unknown technique: " + name);
}

const char* FaultModelName(FaultModelKind kind) {
  switch (kind) {
    case FaultModelKind::kTransientBitFlip:
      return "transient_bitflip";
    case FaultModelKind::kIntermittentBitFlip:
      return "intermittent_bitflip";
    case FaultModelKind::kPermanentStuckAt:
      return "permanent_stuckat";
  }
  return "?";
}

util::Result<FaultModelKind> FaultModelFromName(const std::string& name) {
  for (FaultModelKind k :
       {FaultModelKind::kTransientBitFlip, FaultModelKind::kIntermittentBitFlip,
        FaultModelKind::kPermanentStuckAt}) {
    if (name == FaultModelName(k)) return k;
  }
  return util::ParseError("unknown fault model: " + name);
}

const char* LogModeName(LogMode mode) {
  return mode == LogMode::kNormal ? "normal" : "detail";
}

std::string FaultLocationSelector::ToString() const {
  return cell_prefix.empty() ? chain : chain + ":" + cell_prefix;
}

util::Result<FaultLocationSelector> FaultLocationSelector::Parse(
    const std::string& text) {
  FaultLocationSelector out;
  const size_t colon = text.find(':');
  if (colon == std::string::npos) {
    out.chain = text;
  } else {
    out.chain = text.substr(0, colon);
    out.cell_prefix = text.substr(colon + 1);
  }
  if (out.chain.empty()) return util::ParseError("empty location selector");
  return out;
}

uint32_t FaultInstance::ApplyToWord(uint32_t word) const {
  const uint32_t mask = 1u << bit;
  if (kind == FaultModelKind::kPermanentStuckAt) {
    return stuck_value ? word | mask : word & ~mask;
  }
  return word ^ mask;
}

std::string FaultInstance::Describe() const {
  std::string when = util::Format("@instr %llu",
                                  static_cast<unsigned long long>(inject_instr));
  std::string what = FaultModelName(kind);
  if (kind == FaultModelKind::kPermanentStuckAt) {
    what += stuck_value ? "(1)" : "(0)";
  }
  if (IsScanFault()) {
    return util::Format("%s %s[%u] (%s) %s", what.c_str(), chain.c_str(),
                        chain_bit, cell_name.c_str(), when.c_str());
  }
  return util::Format("%s mem[0x%08x].bit%u %s", what.c_str(), address, bit,
                      when.c_str());
}

std::string FaultInstance::Serialize() const {
  return util::Format("%s,%s,%u,%s,%u,%u,%llu,%d", FaultModelName(kind),
                      chain.c_str(), chain_bit, cell_name.c_str(), address, bit,
                      static_cast<unsigned long long>(inject_instr),
                      stuck_value ? 1 : 0);
}

util::Result<FaultInstance> FaultInstance::Parse(std::string_view text) {
  std::string_view fields[8];
  size_t count = 0;
  util::FieldCursor cursor(text, ',');
  for (std::string_view field; cursor.Next(&field); ++count) {
    if (count < 8) fields[count] = field;
  }
  if (count != 8) {
    return util::ParseError("bad FaultInstance encoding: " + std::string(text));
  }
  FaultInstance out;
  auto kind = FaultModelFromName(std::string(fields[0]));
  if (!kind.ok()) return kind.status();
  out.kind = kind.value();
  out.chain = fields[1];
  const auto chain_bit = util::ParseInt(fields[2]);
  const auto address = util::ParseInt(fields[4]);
  const auto bit = util::ParseInt(fields[5]);
  const auto inject = util::ParseInt(fields[6]);
  const auto stuck = util::ParseInt(fields[7]);
  if (!chain_bit || !address || !bit || !inject || !stuck) {
    return util::ParseError("bad FaultInstance numbers: " + std::string(text));
  }
  // Stored experiment data is outside input: bit indexes a 32-bit word.
  if (*chain_bit < 0 || *chain_bit > UINT32_MAX || *address < 0 ||
      *address > UINT32_MAX || *bit < 0 || *bit > 31 || *inject < 0) {
    return util::ParseError("FaultInstance field out of range: " +
                            std::string(text));
  }
  out.chain_bit = static_cast<uint32_t>(*chain_bit);
  out.cell_name = fields[3];
  out.address = static_cast<uint32_t>(*address);
  out.bit = static_cast<uint32_t>(*bit);
  out.inject_instr = static_cast<uint64_t>(*inject);
  out.stuck_value = *stuck != 0;
  return out;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kDetected:
      return "detected";
    case Outcome::kEscaped:
      return "escaped";
    case Outcome::kLatent:
      return "latent";
    case Outcome::kOverwritten:
      return "overwritten";
  }
  return "?";
}

// --- LoggedState serialization ---------------------------------------------
// Format: semicolon-separated key=value pairs; scan images as chain@bits;
// outputs as comma-separated hex words. The bytes are fixed: they are the
// stateVector column every stored campaign and byte-identity check holds.

namespace {

void AppendFlag(std::string* out, std::string_view key, bool value) {
  out->append(key);
  out->push_back(value ? '1' : '0');
  out->push_back(';');
}

template <typename Int>
void AppendDecimal(std::string* out, std::string_view key, Int value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out->append(key);
  out->append(digits, end);
  out->push_back(';');
}

// util::ParseInt, with a fast path for the plain decimal digits Serialize
// writes for non-negative fields.
std::optional<int64_t> ParseDecimal(std::string_view text) {
  if (text.empty() || text.size() > 19) return util::ParseInt(text);
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return util::ParseInt(text);
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return static_cast<int64_t>(value);
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// util::ParseInt("0x" + text), with a fast path for the eight hex digits
// Serialize writes per output word.
std::optional<int64_t> ParseHexWord(std::string_view text) {
  if (text.size() == 8) {
    int64_t value = 0;
    for (const char c : text) {
      const int digit = HexDigit(c);
      if (digit < 0) return util::ParseInt("0x" + std::string(text));
      value = value << 4 | digit;
    }
    return value;
  }
  return util::ParseInt("0x" + std::string(text));
}

}  // namespace

util::Status LoggedState::ParseInto(std::string_view text, LoggedState* out) {
  out->halted = false;
  out->detected = false;
  out->edm.clear();
  out->edm_code = 0;
  out->timed_out = false;
  out->env_failed = false;
  out->cycles = 0;
  out->instret = 0;
  out->iterations = 0;
  out->outputs.clear();
  std::map<std::string, std::string>& images = out->scan_images;
  auto next_image = images.begin();  // first image `text` has not set

  util::FieldCursor pairs(text, ';');
  for (std::string_view pair; pairs.Next(&pair);) {
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return util::ParseError("bad LoggedState field: " + std::string(pair));
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    std::optional<int64_t> number;
    if (key == "halted" || key == "detected" || key == "timeout" ||
        key == "envfail" || key == "code" || key == "cycles" ||
        key == "instret" || key == "iters") {
      number = ParseDecimal(value);
      if (!number) {
        return util::ParseError("bad integer in LoggedState: " +
                                std::string(pair));
      }
    }
    if (key == "halted") {
      out->halted = *number != 0;
    } else if (key == "detected") {
      out->detected = *number != 0;
    } else if (key == "timeout") {
      out->timed_out = *number != 0;
    } else if (key == "envfail") {
      out->env_failed = *number != 0;
    } else if (key == "edm") {
      if (value == "none") {
        out->edm.clear();
      } else {
        out->edm.assign(value);
      }
    } else if (key == "code") {
      out->edm_code = static_cast<int32_t>(*number);
    } else if (key == "cycles") {
      out->cycles = static_cast<uint64_t>(*number);
    } else if (key == "instret") {
      out->instret = static_cast<uint64_t>(*number);
    } else if (key == "iters") {
      out->iterations = static_cast<int>(*number);
    } else if (key == "outputs") {
      if (value.empty()) continue;
      util::FieldCursor words(value, ',');
      for (std::string_view hex; words.Next(&hex);) {
        const auto word = ParseHexWord(hex);
        if (!word) return util::ParseError("bad output word: " + std::string(hex));
        out->outputs.push_back(static_cast<uint32_t>(*word));
      }
    } else if (util::StartsWith(key, "scan.")) {
      // Chains that ascend, as Serialize writes them, are assigned over
      // `out`'s images in place, and chains the text skips are erased.
      // Every map entry before `next_image` was set by this text, so a
      // repeated or out-of-order chain lands there by key, and the last
      // image of a chain wins.
      const std::string_view chain = key.substr(5);
      if (next_image != images.begin() &&
          !(std::prev(next_image)->first < chain)) {
        images[std::string(chain)].assign(value);
        continue;
      }
      while (next_image != images.end() && next_image->first < chain) {
        next_image = images.erase(next_image);
      }
      if (next_image != images.end() && next_image->first == chain) {
        next_image->second.assign(value);
        ++next_image;
      } else {
        images.emplace_hint(next_image, chain, value);
      }
    } else {
      return util::ParseError("unknown LoggedState key: " + std::string(key));
    }
  }
  images.erase(next_image, images.end());
  return util::Status::Ok();
}

void LoggedState::AppendTo(std::string* out) const {
  size_t size = 128 + edm.size() + 9 * outputs.size();
  for (const auto& [chain, bits] : scan_images) {
    size += chain.size() + bits.size() + 7;
  }
  out->reserve(out->size() + size);
  AppendFlag(out, "halted=", halted);
  AppendFlag(out, "detected=", detected);
  out->append("edm=");
  // The text ends at an embedded NUL, as printf's %s did.
  out->append(edm.empty() ? "none" : edm.c_str());
  out->push_back(';');
  AppendDecimal(out, "code=", edm_code);
  AppendFlag(out, "timeout=", timed_out);
  AppendFlag(out, "envfail=", env_failed);
  AppendDecimal(out, "cycles=", cycles);
  AppendDecimal(out, "instret=", instret);
  AppendDecimal(out, "iters=", iterations);
  out->append("outputs=");
  static constexpr char kHex[] = "0123456789abcdef";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) out->push_back(',');
    for (int shift = 28; shift >= 0; shift -= 4) {
      out->push_back(kHex[(outputs[i] >> shift) & 0xF]);
    }
  }
  out->push_back(';');
  for (const auto& [chain, bits] : scan_images) {
    out->append("scan.");
    out->append(chain);
    out->push_back('=');
    out->append(bits);
    out->push_back(';');
  }
}

std::string LoggedState::Serialize() const {
  std::string out;
  AppendTo(&out);
  return out;
}

util::Result<LoggedState> LoggedState::Deserialize(std::string_view text) {
  LoggedState state;
  GOOFI_RETURN_IF_ERROR(ParseInto(text, &state));
  return state;
}

}  // namespace goofi::core
