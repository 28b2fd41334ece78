// WorkloadBinding: the campaign's workload as a simulated target sees it.
//
// Both simulated targets (ThorRdTarget, SwifiSimTarget) run the same
// built-in workloads the same way; they differ only in how they reach the
// target's memory (through the test card, or straight into the CPU). This
// class holds what they share:
//
//   - the binding, made once per workload: the WorkloadSpec, the assembled
//     image, the environment simulator of a control workload and the image
//     addresses of its sensor/actuator words, loop boundary and results;
//   - the host-side accumulators a control workload's loop exchanges build
//     up during one experiment: the iteration count, the actuator-trace CRC
//     (a control workload's logged output) and the plant state. They shape
//     the rest of a run, so they are checkpointed with the target and
//     digested at every convergence boundary.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "env/environment.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"
#include "util/crc32.hpp"

namespace goofi::cpu {
class Cpu;
class StateHasher;
}

namespace goofi::core {

class WorkloadBinding {
 public:
  /// Looks up and assembles `workload` and resolves its I/O layout, unless
  /// it is already the bound workload.
  util::Status Bind(const std::string& workload);

  const env::WorkloadSpec& spec() const { return spec_; }
  const isa::AssembledProgram& program() const { return program_; }
  /// Plant simulator of a control workload; nullptr for batch workloads.
  env::EnvironmentSimulator* environment() const { return environment_.get(); }

  uint32_t input_addr() const { return input_addr_; }    ///< sensor words
  uint32_t output_addr() const { return output_addr_; }  ///< actuator words
  uint32_t loop_end_addr() const { return loop_end_addr_; }
  uint32_t result_addr() const { return result_addr_; }

  /// The memory-space fault candidates (`memory.text` / `memory.data`, one
  /// per bit of each word) of the bound workload.
  util::Result<std::vector<FaultCandidate>> MemoryFaultSpace(
      const FaultLocationSelector& selector) const;

  // --- per-experiment host-side accumulators --------------------------------

  /// Starts an experiment's accumulators: no iterations, empty actuator
  /// trace. The plant is reset separately, at workload download.
  void ResetAccumulators();

  /// One loop-boundary exchange: folds the actuator words read from the
  /// target into the trace CRC, advances the plant, counts the iteration
  /// and returns the sensor words to write back.
  std::vector<uint32_t> Exchange(const std::vector<uint32_t>& actuator_words);

  int iterations() const { return iterations_; }
  /// The actuator-trace CRC, a control workload's logged output.
  uint32_t actuator_crc() const { return actuator_crc_.Value(); }

  /// The accumulators as a checkpoint carries them.
  struct HostState {
    int iterations = 0;
    uint32_t crc_state = 0;
    std::vector<double> env_state;
  };
  HostState SaveHostState() const;
  void RestoreHostState(const HostState& state);

  /// Appends the accumulators to a convergence hash.
  void HashHostState(cpu::StateHasher* hasher);

  /// The logged outcome of the run that ended on `cpu`: how it terminated,
  /// its counters, loop iterations and plant failure, and `outputs`. The
  /// target adds its observation images.
  LoggedState RunOutcome(const cpu::Cpu& cpu, bool timed_out,
                         const std::vector<uint32_t>& outputs) const;

 private:
  env::WorkloadSpec spec_;
  isa::AssembledProgram program_;
  bool bound_ = false;
  std::unique_ptr<env::EnvironmentSimulator> environment_;
  uint32_t input_addr_ = 0;
  uint32_t output_addr_ = 0;
  uint32_t loop_end_addr_ = 0;
  uint32_t result_addr_ = 0;

  int iterations_ = 0;
  util::Crc32 actuator_crc_;
  /// Plant-state buffer reused across boundary hashes.
  std::vector<double> env_state_scratch_;
};

}  // namespace goofi::core
