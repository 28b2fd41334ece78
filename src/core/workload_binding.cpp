#include "core/workload_binding.hpp"

#include "cpu/cpu.hpp"
#include "cpu/state_hash.hpp"
#include "util/strings.hpp"

namespace goofi::core {

util::Status WorkloadBinding::Bind(const std::string& workload) {
  if (bound_ && spec_.name == workload) return util::Status::Ok();
  bound_ = false;
  auto spec = env::GetWorkload(workload);
  if (!spec.ok()) return spec.status();
  spec_ = std::move(spec).value();
  auto program = isa::Assemble(spec_.source);
  if (!program.ok()) return program.status();
  program_ = std::move(program).value();

  environment_.reset();
  input_addr_ = output_addr_ = loop_end_addr_ = result_addr_ = 0;
  if (spec_.infinite_loop) {
    if (spec_.environment == "inverted_pendulum") {
      environment_ = std::make_unique<env::InvertedPendulum>();
    } else if (spec_.environment == "cruise_control") {
      environment_ = std::make_unique<env::CruiseControl>();
    } else if (!spec_.environment.empty()) {
      return util::InvalidArgument("unknown environment simulator " +
                                   spec_.environment);
    }
    auto io = program_.Symbol(spec_.input_symbol);
    if (!io.ok()) return io.status();
    input_addr_ = io.value();
    output_addr_ = input_addr_ + spec_.input_words * 4;
    auto loop_end = program_.Symbol(spec_.iteration_symbol);
    if (!loop_end.ok()) return loop_end.status();
    loop_end_addr_ = loop_end.value();
  } else if (!spec_.result_symbol.empty()) {
    auto result = program_.Symbol(spec_.result_symbol);
    if (!result.ok()) return result.status();
    result_addr_ = result.value();
  }
  bound_ = true;
  return util::Status::Ok();
}

util::Result<std::vector<FaultCandidate>> WorkloadBinding::MemoryFaultSpace(
    const FaultLocationSelector& selector) const {
  uint32_t begin = program_.base_address;
  uint32_t end = program_.base_address + program_.size_bytes();
  const auto etext = program_.symbols.find("_etext");
  if (etext != program_.symbols.end()) {
    if (selector.chain == "memory.text") {
      end = etext->second;
    } else {
      begin = etext->second;
    }
  } else if (selector.chain == "memory.data") {
    return util::InvalidArgument(
        "workload has no _etext marker; memory.data is empty");
  }
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  if (end > begin) ranges.emplace_back(begin, end);
  // Control workloads keep their working data in the environment I/O buffer
  // rather than the image; that buffer is part of the "data area" the
  // paper's pre-runtime SWIFI targets.
  if (selector.chain == "memory.data" && spec_.infinite_loop) {
    const uint32_t io_end =
        input_addr_ + (spec_.input_words + spec_.output_words) * 4;
    ranges.emplace_back(input_addr_, io_end);
  }
  if (ranges.empty()) {
    return util::InvalidArgument("selector matches no words: " +
                                 selector.ToString());
  }
  std::vector<FaultCandidate> out;
  for (const auto& [range_begin, range_end] : ranges) {
    for (uint32_t address = range_begin; address < range_end; address += 4) {
      for (uint32_t bit = 0; bit < 32; ++bit) {
        FaultCandidate candidate;
        candidate.scan = false;
        candidate.address = address;
        candidate.bit = bit;
        candidate.cell_name =
            util::Format("%s@0x%08x", selector.chain.c_str(), address);
        out.push_back(std::move(candidate));
      }
    }
  }
  return out;
}

void WorkloadBinding::ResetAccumulators() {
  iterations_ = 0;
  actuator_crc_.Reset();
}

std::vector<uint32_t> WorkloadBinding::Exchange(
    const std::vector<uint32_t>& actuator_words) {
  for (uint32_t word : actuator_words) actuator_crc_.UpdateWord(word);
  std::vector<uint32_t> sensor_words = environment_->Exchange(actuator_words);
  ++iterations_;
  return sensor_words;
}

WorkloadBinding::HostState WorkloadBinding::SaveHostState() const {
  HostState state;
  state.iterations = iterations_;
  state.crc_state = actuator_crc_.raw_state();
  if (environment_ != nullptr) state.env_state = environment_->SaveState();
  return state;
}

void WorkloadBinding::RestoreHostState(const HostState& state) {
  iterations_ = state.iterations;
  actuator_crc_.set_raw_state(state.crc_state);
  if (environment_ != nullptr) environment_->RestoreState(state.env_state);
}

void WorkloadBinding::HashHostState(cpu::StateHasher* hasher) {
  hasher->U32(actuator_crc_.raw_state());
  hasher->I32(iterations_);
  if (environment_ != nullptr) {
    environment_->SaveStateInto(&env_state_scratch_);
    hasher->U64(env_state_scratch_.size());
    for (double value : env_state_scratch_) hasher->Double(value);
  }
}

LoggedState WorkloadBinding::RunOutcome(
    const cpu::Cpu& cpu, bool timed_out,
    const std::vector<uint32_t>& outputs) const {
  LoggedState state;
  state.detected = cpu.detected();
  state.halted = cpu.halted() && !cpu.detected();
  if (state.detected) {
    state.edm = cpu::EdmTypeName(cpu.edm_event().type);
    state.edm_code = cpu.edm_event().code;
  }
  state.timed_out = timed_out;
  state.env_failed = environment_ != nullptr && environment_->Failed();
  state.cycles = cpu.cycles();
  state.instret = cpu.instructions_retired();
  state.iterations = iterations_;
  state.outputs = outputs;
  return state;
}

}  // namespace goofi::core
