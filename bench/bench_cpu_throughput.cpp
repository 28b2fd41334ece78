// E14 — raw simulator throughput: MIPS of the reference Step() interpreter
// vs the predecoded superblock fast path (cpu/decode_cache + Cpu::RunFastEx),
// per batch workload and as a geometric mean.
//
// Per-experiment campaign cost is dominated by instruction simulation (the
// golden run, the fault-free prefix of every cold experiment, the post-
// injection run to termination). The fast path keeps the decode cache warm
// across Cpu::Reset, so everything after the first experiment of a campaign
// re-executes predecoded instructions; "fast (warm)" is the steady-state
// campaign number, the cold column is the first-touch cost including all
// predecode misses.
//
// `--json <path>` writes per-workload speedups, the geomean and the decode
// cache hit rate for scripts/bench.sh and the tier-1 perf gate.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "env/workloads.hpp"
#include "isa/assembler.hpp"

namespace goofi::bench {
namespace {

/// Batch (halt-terminating) workloads; control loops need an environment.
constexpr const char* kWorkloads[] = {"bubblesort", "matmul",    "fibonacci",
                                      "checksum",   "strsearch", "queue"};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Row {
  std::string workload;
  uint64_t instret = 0;   ///< retired instructions per run
  double ref_mips = 0;    ///< reference Step() loop
  double cold_mips = 0;   ///< RunFastEx, first touch (predecode misses)
  double fast_mips = 0;   ///< RunFastEx, decode cache warm
  double hit_rate = 0;    ///< decode-cache hits / accesses over the sweep
  double speedup() const { return ref_mips > 0 ? fast_mips / ref_mips : 0; }
};

Row Measure(const std::string& name) {
  const auto spec = env::GetWorkload(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "workload %s: %s\n", name.c_str(),
                 spec.status().ToString().c_str());
    std::abort();
  }
  const auto program = isa::Assemble(spec.value().source);
  if (!program.ok()) {
    std::fprintf(stderr, "assemble %s: %s\n", name.c_str(),
                 program.status().ToString().c_str());
    std::abort();
  }
  uint32_t text_bytes = 0;
  const auto etext = program.value().symbols.find("_etext");
  if (etext != program.value().symbols.end()) {
    text_bytes = etext->second - program.value().base_address;
  }

  Row row;
  row.workload = name;

  cpu::Cpu ref;
  cpu::Cpu fast;
  for (cpu::Cpu* c : {&ref, &fast}) {
    if (!c->LoadProgram(program.value().base_address, program.value().words,
                        text_bytes)
             .ok()) {
      std::abort();
    }
  }

  // Workloads mutate their data segment in place (bubblesort re-run on its
  // own sorted output takes an early exit), so every rep rewrites the data
  // words before Reset. Raw memory writes suffice: Reset flushes both
  // caches, and data addresses lie outside the decode-cache window.
  const uint32_t data_start_word =
      (program.value().base_address + text_bytes) / 4;
  auto restore_data = [&](cpu::Cpu& cpu) {
    for (uint32_t i = data_start_word * 4 - program.value().base_address;
         i / 4 < program.value().words.size(); i += 4) {
      if (!cpu.memory()
               .HostWrite(program.value().base_address + i,
                          program.value().words[i / 4])
               .ok()) {
        std::abort();
      }
    }
  };

  // One probe run for the per-run instruction count (and correctness).
  ref.Reset(program.value().entry);
  if (ref.Run(0) != cpu::StepOutcome::kHalted) {
    std::fprintf(stderr, "%s did not halt\n", name.c_str());
    std::abort();
  }
  row.instret = ref.instructions_retired();

  // Size the sweep so each timed section simulates ~20M instructions.
  const int reps =
      static_cast<int>(std::max<uint64_t>(20000000 / row.instret, 3));

  // An unbounded superblock run: the same stop conditions as Run(0).
  const cpu::RunFastRequest unbounded{.max_cycles = 0};
  auto time_runs = [&](cpu::Cpu& cpu, bool use_fast, int n) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      restore_data(cpu);
      cpu.Reset(program.value().entry);
      const cpu::StepOutcome outcome =
          use_fast ? cpu.RunFastEx(unbounded).outcome : cpu.Run(0);
      if (outcome != cpu::StepOutcome::kHalted) std::abort();
      if (cpu.instructions_retired() != row.instret) std::abort();
    }
    const double seconds = SecondsSince(start);
    return static_cast<double>(row.instret) * n / seconds / 1e6;
  };

  // Cold: first-ever RunFastEx on this CPU — every predecode is a miss.
  restore_data(fast);
  const auto cold_start = std::chrono::steady_clock::now();
  fast.Reset(program.value().entry);
  if (fast.RunFastEx(unbounded).outcome != cpu::StepOutcome::kHalted) {
    std::abort();
  }
  row.cold_mips =
      static_cast<double>(row.instret) / SecondsSince(cold_start) / 1e6;

  row.ref_mips = time_runs(ref, /*use_fast=*/false, reps);
  fast.decode_cache().ResetStats();
  row.fast_mips = time_runs(fast, /*use_fast=*/true, reps);
  const auto stats = fast.decode_cache().stats();
  const uint64_t accesses = stats.hits + stats.misses;
  row.hit_rate =
      accesses > 0 ? static_cast<double>(stats.hits) / accesses : 0.0;
  return row;
}

}  // namespace
}  // namespace goofi::bench

int main(int argc, char** argv) {
  using namespace goofi::bench;

  std::printf("E14: simulator instruction throughput, reference vs predecoded\n");
  std::printf("%-12s %10s %10s %10s %10s %9s %9s\n", "workload", "instret",
              "ref MIPS", "cold MIPS", "warm MIPS", "speedup", "hit rate");

  JsonReport report;
  std::vector<Row> rows;
  double log_sum = 0;
  for (const char* name : kWorkloads) {
    Row row = Measure(name);
    std::printf("%-12s %10llu %10.2f %10.2f %10.2f %8.2fx %8.1f%%\n",
                row.workload.c_str(),
                static_cast<unsigned long long>(row.instret), row.ref_mips,
                row.cold_mips, row.fast_mips, row.speedup(),
                row.hit_rate * 100.0);
    report.Add("speedup_" + row.workload, row.speedup());
    log_sum += std::log(row.speedup());
    rows.push_back(std::move(row));
  }
  const double geomean = std::exp(log_sum / static_cast<double>(rows.size()));
  std::printf("geomean speedup: %.2fx\n", geomean);
  report.Add("speedup_geomean", geomean);
  report.Add("ref_mips_" + rows.front().workload, rows.front().ref_mips);
  report.Add("warm_mips_" + rows.front().workload, rows.front().fast_mips);

  if (const char* path = JsonOutputPath(argc, argv)) report.Write(path);
  return 0;
}
