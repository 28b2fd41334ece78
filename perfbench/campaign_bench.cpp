// End-to-end GOOFI campaign benchmark (see README.md for every metric).
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Run from the repository root; archives and saved databases go to kWorkDir.
//
// Each repetition runs one campaign of the named workload twice, with the
// same seed: `cold` (the serial FaultInjectionAlgorithms::RunCampaign path,
// checkpointing off — the correctness oracle) and `all` (ParallelCampaignRunner
// with warm start, convergence pruning, equivalence classing, the access
// timeline and the static analysis). Every repetition gates the `all`
// database against the cold one. Repetitions continue until --seconds have
// passed; timings are reported as medians over repetitions.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs traced campaigns
// at one worker (spans recorded from outside the library, see tracing.hpp)
// and prints the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// "# meta" JSON object describing the run.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/parallel_runner.hpp"
#include "core/preinjection.hpp"
#include "core/static_analysis.hpp"
#include "core/swifi_target.hpp"
#include "core/thor_target.hpp"
#include "db/archive.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

namespace core = goofi::core;
namespace db = goofi::db;
namespace util = goofi::util;
using Clock = std::chrono::steady_clock;

/// Seed reserved for confirming claims; never used while tuning.
constexpr uint64_t kHeldOutSeed = 1000003;
/// Workers of the `all` mode in end-to-end runs. Traced runs use one.
constexpr int kAllWorkers = 2;
/// Campaign archives and saved databases, relative to the working directory.
constexpr const char* kWorkDir = ".bench_build/work";
/// Point lookups of experiments by name per analysis pass.
constexpr int kPointLookups = 2000;
/// Analysis time spent per repetition, in whole passes (at least one).
constexpr double kMinAnalysisSeconds = 0.2;

std::string WorkPath(const char* file) {
  return std::string(kWorkDir) + "/" + file;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

// --- workloads -------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  const char* program;  ///< built-in workload (src/env/workloads)
  core::Technique technique;
  std::vector<core::FaultLocationSelector> locations;
  bool swifi_target;  ///< SwifiSimTarget instead of the Thor RD stack
  bool archive;       ///< campaign archive open during the runs
  int experiments;
  int max_iterations;
};

// Why each workload exists is in README.md; in short: long control runs
// (simulation, warm start, pruning), short batch runs (fixed per-experiment
// costs: scan, reset, collection, rows) and dense memory SWIFI with an open
// archive (planning/synthesis, DB insert + WAL, indexed reads).
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"scifi_control", "pendulum_pd", core::Technique::kScifi,
       {{"internal_regfile", ""}, {"internal_core", ""}}, false, false, 500,
       4000},
      {"scifi_batch", "matmul", core::Technique::kScifi,
       {{"internal_regfile", ""}, {"internal_core", ""}}, false, false, 6000,
       200},
      {"swifi_archive", "checksum", core::Technique::kSwifiRuntime,
       {{"memory.data", ""}}, true, true, 30000, 200},
  };
  return specs;
}

struct Golden {
  uint64_t instret = 0;
  uint64_t cycles = 0;
};

core::CampaignData MakeCampaign(const WorkloadSpec& spec, const Golden& golden,
                                uint64_t seed, const std::string& name) {
  core::CampaignData campaign;
  campaign.name = name;
  campaign.target_name = spec.swifi_target ? core::SwifiSimTarget::kTargetName
                                           : core::ThorRdTarget::kTargetName;
  campaign.technique = spec.technique;
  campaign.fault_model = core::FaultModelKind::kTransientBitFlip;
  campaign.num_experiments = spec.experiments;
  campaign.locations = spec.locations;
  campaign.workload = spec.program;
  campaign.max_iterations = spec.max_iterations;
  campaign.seed = seed;
  // Injection window [1, golden instret]; timeout about 4x golden cycles.
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = std::max<uint64_t>(1, golden.instret);
  campaign.timeout_cycles = std::max<uint64_t>(1000, 4 * golden.cycles);
  return campaign;
}

core::ParallelCampaignRunner::TargetFactory Factory(const WorkloadSpec& spec,
                                                    core::CampaignStore* store,
                                                    bool traced) {
  if (traced) {
    return spec.swifi_target ? MakeTracedSwifiFactory(store)
                             : MakeTracedThorFactory(store);
  }
  return spec.swifi_target ? core::MakeSwifiSimFactory(store)
                           : core::MakeSimThorFactory(store);
}

// --- one campaign database ---------------------------------------------------

/// Database + store (+ archive and trace observer) for one campaign run.
class CampaignDb {
 public:
  CampaignDb() : store_(&db_) {}
  ~CampaignDb() { (void)Close(); }
  CampaignDb(const CampaignDb&) = delete;
  CampaignDb& operator=(const CampaignDb&) = delete;

  util::Status Open(const WorkloadSpec& spec,
                    const core::CampaignData& campaign,
                    const std::string& archive_path, bool traced) {
    if (spec.archive) {
      archive_path_ = archive_path;
      RemoveArchiveFiles();
      auto opened = db::Archive::Open(&db_, archive_path_);
      if (!opened.ok()) return opened.status();
      archive_ = std::move(opened).value();
      store_.AttachArchive(archive_.get());
    }
    if (traced) {
      observer_ = std::make_unique<TracingObserver>(archive_.get());
      db_.SetObserver(observer_.get());
    }
    if (spec.swifi_target) {
      GOOFI_RETURN_IF_ERROR(
          store_.PutTargetSystem(core::SwifiSimTarget::Describe()));
    } else {
      goofi::testcard::SimTestCard card;
      GOOFI_RETURN_IF_ERROR(store_.PutTargetSystem(
          core::ThorRdTarget::DescribeTarget(card,
                                             core::ThorRdTarget::kTargetName)));
    }
    return store_.PutCampaign(campaign);
  }

  /// Commits and closes the archive (if any) and removes its files.
  util::Status Close() {
    util::Status status = util::Status::Ok();
    if (archive_ != nullptr) {
      store_.AttachArchive(nullptr);
      status = archive_->Close();
      archive_stats_ = archive_->stats();
      archive_.reset();
      RemoveArchiveFiles();
    }
    db_.SetObserver(nullptr);
    observer_.reset();
    return status;
  }

  /// The database as Database::Save writes it (never the archive files).
  util::Result<std::string> SavedBytes(const std::string& path) const {
    GOOFI_RETURN_IF_ERROR(db_.Save(path));
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const bool read_ok = !in.bad();
    in.close();
    std::filesystem::remove(path);
    if (!read_ok) return util::IoError("cannot read back " + path);
    return bytes;
  }

  core::CampaignStore& store() { return store_; }
  const db::ArchiveStats& archive_stats() const { return archive_stats_; }

 private:
  void RemoveArchiveFiles() {
    if (archive_path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove(archive_path_, ignored);
    std::filesystem::remove(archive_path_ + ".wal", ignored);
  }

  db::Database db_;
  core::CampaignStore store_;
  std::string archive_path_;
  std::unique_ptr<db::Archive> archive_;
  std::unique_ptr<TracingObserver> observer_;
  db::ArchiveStats archive_stats_;
};

/// Records the time of every progress callback.
class TimingMonitor final : public core::ProgressMonitor {
 public:
  bool OnExperiment(int, int, const core::LoggedState&) override {
    times_.push_back(Clock::now());
    return true;
  }
  const std::vector<Clock::time_point>& times() const { return times_; }

 private:
  std::vector<Clock::time_point> times_;
};

/// Golden run length (reference run, checkpointing off) for the campaign
/// window and timeout.
util::Result<Golden> ProbeGolden(const WorkloadSpec& spec) {
  CampaignDb campaign_db;
  // A generous timeout; the reference run ends at the workload's own end.
  const core::CampaignData campaign =
      MakeCampaign(spec, Golden{1, 25'000'000}, 1, "probe");
  GOOFI_RETURN_IF_ERROR(
      campaign_db.Open(spec, campaign, WorkPath("probe.gdb"), false));
  auto target = Factory(spec, &campaign_db.store(), false)();
  target->SetCheckpointInterval(0);
  GOOFI_RETURN_IF_ERROR(target->PrepareCampaign(campaign));
  auto rows = target->ExecuteExperiment(-1);
  if (!rows.ok()) return rows.status();
  GOOFI_RETURN_IF_ERROR(campaign_db.Close());
  const core::LoggedState& state = rows.value().front().state;
  return Golden{state.instret, state.cycles};
}

// --- the two modes -------------------------------------------------------------

struct RunResult {
  util::Status status = util::Status::Ok();
  double wall_s = 0;
  double setup_s = 0;  ///< all: clock start to first progress callback
  core::FaultInjectionAlgorithms::Stats stats;
  core::EquivalenceStats dedup;
  core::ConvergenceStats prune;
  int warm_starts = 0;
  goofi::cpu::MemoryUsageAggregator::Totals memory;
  db::ArchiveStats archive;
  std::string saved;              ///< Database::Save bytes
  std::vector<double> gaps_us;    ///< cold: progress-callback gaps
  double committer_cpu_s = 0;     ///< all: calling thread's CPU time
  TraceTotals committer_spans;    ///< all, traced: calling thread's spans
};

struct AnalysisResult {
  double total_s = 0;
  std::map<std::string, double> query_s;
};

util::Status Analyze(core::CampaignStore& store,
                     const core::CampaignData& campaign,
                     AnalysisResult* out) {
  const int n = campaign.num_experiments;
  const auto start = Clock::now();
  auto phase = start;
  auto lap = [&phase](double* into) {
    const auto now = Clock::now();
    *into = std::chrono::duration<double>(now - phase).count();
    phase = now;
  };

  auto report = core::AnalyzeCampaign(store, campaign.name);
  if (!report.ok()) return report.status();
  if (report.value().total != n) {
    return util::Internal("analysis classified " +
                          std::to_string(report.value().total) + " of " +
                          std::to_string(n) + " experiments");
  }
  lap(&out->query_s["analyze_campaign"]);

  db::StatementCache& cache = store.statement_cache();
  db::Database& database = store.database();
  const db::Value campaign_name = db::Value::Text(campaign.name);

  auto groups = cache.Execute(
      database,
      "SELECT stateVector, COUNT(*) FROM LoggedSystemState "
      "WHERE campaignName = ? AND parentExperiment IS NULL "
      "GROUP BY stateVector",
      {campaign_name});
  if (!groups.ok()) return groups.status();
  int64_t grouped = 0;
  for (const db::Row& row : groups.value().rows) grouped += row[1].as_int();
  if (grouped != n + 1) {
    return util::Internal("outcome groups cover " + std::to_string(grouped) +
                          " rows, expected " + std::to_string(n + 1));
  }
  lap(&out->query_s["outcome_groups"]);

  auto joined = cache.Execute(
      database,
      "SELECT CampaignData.workload, COUNT(*) FROM CampaignData "
      "JOIN LoggedSystemState "
      "ON CampaignData.campaignName = LoggedSystemState.campaignName "
      "WHERE CampaignData.campaignName = ? GROUP BY CampaignData.workload",
      {campaign_name});
  if (!joined.ok()) return joined.status();
  if (joined.value().rows.size() != 1 ||
      joined.value().rows[0][1].as_int() != n + 1) {
    return util::Internal("campaign join returned the wrong row count");
  }
  lap(&out->query_s["campaign_join"]);

  // Point lookups of experiments by name, in a seed-determined order.
  std::mt19937_64 rng(campaign.seed);
  for (int i = 0; i < kPointLookups; ++i) {
    const int index = static_cast<int>(rng() % static_cast<uint64_t>(n));
    auto found = cache.Execute(
        database,
        "SELECT experimentData FROM LoggedSystemState WHERE experimentName = ?",
        {db::Value::Text(core::CampaignStore::ExperimentName(campaign.name,
                                                             index))});
    if (!found.ok()) return found.status();
    if (found.value().rows.size() != 1) {
      return util::Internal("point lookup missed experiment " +
                            std::to_string(index));
    }
  }
  lap(&out->query_s["point_lookup"]);
  out->total_s = Since(start);
  return util::Status::Ok();
}

RunResult RunCold(const WorkloadSpec& spec, const core::CampaignData& campaign,
                  bool traced) {
  RunResult result;
  CampaignDb campaign_db;
  result.status =
      campaign_db.Open(spec, campaign, WorkPath("cold.gdb"), traced);
  if (!result.status.ok()) return result;
  auto target = Factory(spec, &campaign_db.store(), traced)();
  target->SetCheckpointInterval(0);
  TimingMonitor monitor;
  target->SetProgressMonitor(&monitor);
  const auto start = Clock::now();
  result.status = target->RunCampaign(campaign.name);
  result.wall_s = Since(start);
  if (!result.status.ok()) return result;
  result.stats = target->stats();
  const auto& times = monitor.times();
  for (size_t i = 1; i < times.size(); ++i) {
    result.gaps_us.push_back(
        std::chrono::duration<double, std::micro>(times[i] - times[i - 1])
            .count());
  }
  result.status = campaign_db.Close();
  if (!result.status.ok()) return result;
  result.archive = campaign_db.archive_stats();
  auto saved = campaign_db.SavedBytes(WorkPath("cold.save"));
  if (!saved.ok()) {
    result.status = saved.status();
    return result;
  }
  result.saved = std::move(saved).value();
  return result;
}

RunResult RunAll(const WorkloadSpec& spec, const core::CampaignData& campaign,
                 int workers, bool traced, AnalysisResult* analysis) {
  RunResult result;
  CampaignDb campaign_db;
  result.status =
      campaign_db.Open(spec, campaign, WorkPath("all.gdb"), traced);
  if (!result.status.ok()) return result;

  const auto start = Clock::now();
  const double cpu_start = ThreadCpuSeconds();
  std::shared_ptr<const core::LivenessAnalyzer> timeline;
  {
    std::optional<Span> span;
    if (traced) span.emplace(SpanKind::kTimeline);
    // As the shell's run-dedup builds it: a fault-free run bounded by the
    // campaign's own termination conditions.
    core::LivenessCache timelines;
    auto built = timelines.Get(
        campaign.workload, goofi::cpu::CpuConfig(),
        std::max<uint64_t>(200000, campaign.timeout_cycles),
        campaign.max_iterations);
    if (!built.ok()) {
      result.status = built.status();
      return result;
    }
    timeline = std::move(built).value();
  }
  std::shared_ptr<const core::StaticAnalysis> analysis_static;
  {
    std::optional<Span> span;
    if (traced) span.emplace(SpanKind::kStatic);
    core::StaticAnalysisCache analyses;
    auto built = analyses.Get(campaign.workload);
    if (!built.ok()) {
      result.status = built.status();
      return result;
    }
    analysis_static = std::move(built).value();
  }

  core::ParallelCampaignRunner runner(&campaign_db.store(),
                                      Factory(spec, &campaign_db.store(), traced),
                                      workers);
  runner.SetForceWarmStart(true);
  runner.SetConvergencePruning(true);
  runner.SetEquivalenceClassing(true);
  runner.SetEquivalenceTimeline(timeline);
  runner.SetStaticAnalysis(analysis_static);
  TimingMonitor monitor;
  runner.SetProgressMonitor(&monitor);
  result.status = runner.Run(campaign.name);
  result.wall_s = Since(start);
  result.committer_cpu_s = ThreadCpuSeconds() - cpu_start;
  if (traced) result.committer_spans = Trace::CollectCurrentThread();
  if (!result.status.ok()) return result;
  if (monitor.times().empty()) {
    result.status = util::Internal("all mode reported no progress");
    return result;
  }
  result.setup_s = std::chrono::duration<double>(monitor.times().front() - start)
                       .count();
  result.stats = runner.stats();
  result.dedup = runner.dedup_stats();
  result.prune = runner.prune_stats();
  result.warm_starts = runner.warm_starts();
  result.memory = runner.memory_usage();

  if (analysis != nullptr) {
    // Short analyses repeat until kMinAnalysisSeconds have been spent; the
    // median pass is reported.
    std::vector<AnalysisResult> passes;
    double spent = 0;
    do {
      AnalysisResult pass;
      result.status = Analyze(campaign_db.store(), campaign, &pass);
      if (!result.status.ok()) return result;
      spent += pass.total_s;
      passes.push_back(std::move(pass));
    } while (spent < kMinAnalysisSeconds);
    std::sort(passes.begin(), passes.end(),
              [](const AnalysisResult& a, const AnalysisResult& b) {
                return a.total_s < b.total_s;
              });
    *analysis = passes[passes.size() / 2];
  }
  result.status = campaign_db.Close();
  if (!result.status.ok()) return result;
  result.archive = campaign_db.archive_stats();
  auto saved = campaign_db.SavedBytes(WorkPath("all.save"));
  if (!saved.ok()) {
    result.status = saved.status();
    return result;
  }
  result.saved = std::move(saved).value();
  return result;
}

/// The output gate: empty when `all` reproduces the cold oracle.
std::string Gate(const RunResult& cold, const RunResult& all, int n) {
  if (!cold.status.ok()) return "cold run failed: " + cold.status.ToString();
  if (!all.status.ok()) return "all run failed: " + all.status.ToString();
  if (cold.stats.experiments_run != n) {
    return "cold run committed " + std::to_string(cold.stats.experiments_run) +
           " of " + std::to_string(n) + " experiments";
  }
  if (!(all.stats == cold.stats)) return "Stats differ from the cold run";
  if (all.saved != cold.saved) {
    return "database bytes differ from the cold run (" +
           std::to_string(all.saved.size()) + " vs " +
           std::to_string(cold.saved.size()) + ")";
  }
  if (all.dedup.spot_checks_run != all.dedup.spot_checks_passed) {
    return "equivalence spot checks failed";
  }
  return "";
}

// --- output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Small ordered JSON object writer for the meta line.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + raw;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Add(key, Quote(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Add(key, Number(value));
  }
  JsonObject& List(const std::string& key, const std::vector<double>& values) {
    std::string raw = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      raw += (i == 0 ? "" : ", ") + Number(values[i]);
    }
    return Add(key, raw + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  JsonObject values;
  for (const Metric& m : metrics) {
    values.Add(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), values.str().c_str());
  std::fflush(stdout);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

// --- per-layer metrics (traced runs) -----------------------------------------------

double S(const TraceTotals& t, SpanKind kind) {
  return t.inclusive_s[static_cast<int>(kind)];
}
double Self(const TraceTotals& t, SpanKind kind) {
  return t.self_s[static_cast<int>(kind)];
}

/// Time the simulator spends executing: the test card's Run/SingleStep, or,
/// on a target without a test card, the run blocks that contain simulation.
double SimSeconds(const TraceTotals& t) {
  const double sim = S(t, SpanKind::kSim);
  return sim > 0 ? sim
                 : S(t, SpanKind::kToInjection) + S(t, SpanKind::kToEnd);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Span-derived metrics common to both modes, prefixed for the cold mode.
void AddSpanMetrics(const std::string& prefix, const TraceTotals& t, bool all,
                    std::vector<Metric>* out) {
  auto add = [&](const std::string& name, const char* unit, double value) {
    out->push_back({prefix + name, unit, value});
  };
  add("core.prologue_s", "s", S(t, SpanKind::kPrologue));
  if (all) add("core.restore_s", "s", S(t, SpanKind::kRestore));
  add("core.to_injection_s", "s", S(t, SpanKind::kToInjection));
  add("core.inject_s", "s", S(t, SpanKind::kInject));
  add("core.to_end_s", "s", S(t, SpanKind::kToEnd));
  add("core.collect_s", "s", S(t, SpanKind::kCollect));
  if (all) {
    add("core.golden_s", "s", S(t, SpanKind::kGolden));
    add("core.timeline_s", "s", S(t, SpanKind::kTimeline));
    add("core.static_s", "s", S(t, SpanKind::kStatic));
  }
  add("testcard.sim_s", "s", S(t, SpanKind::kSim));
  if (all) {
    add("testcard.hash_s", "s", S(t, SpanKind::kHash));
    add("testcard.snapshot_s", "s", S(t, SpanKind::kSnapshot));
  }
  add("testcard.reset_s", "s", S(t, SpanKind::kReset));
  add("testcard.mem_io_s", "s", S(t, SpanKind::kMemIo));
  add("env.service_s", "s",
      Self(t, SpanKind::kToInjection) + Self(t, SpanKind::kToEnd));
  add("scan.shift_s", "s", S(t, SpanKind::kScan));
  add("db.insert_s", "s", S(t, SpanKind::kDbInsert));
  add("testcard.run_calls", "count", static_cast<double>(t.run_calls));
  add("cpu.instret", "count", static_cast<double>(t.instret));
  add("cpu.mips", "MIPS", Ratio(static_cast<double>(t.instret), SimSeconds(t)) / 1e6);
  add("scan.chain_ops", "count", static_cast<double>(t.chain_ops));
  add("scan.bits", "count", static_cast<double>(t.scan_bits));
  add("db.rows", "count", static_cast<double>(t.db_rows));
}

/// Whether a per-layer metric is a count that must repeat exactly.
bool IsExactCount(const Metric& m) {
  return m.unit == "count" || m.unit == "bytes" || m.unit == "ratio";
}

struct TracedRep {
  std::vector<Metric> metrics;
  std::string gate;
};

TracedRep TracedRepetition(const WorkloadSpec& spec,
                           const core::CampaignData& campaign) {
  TracedRep rep;
  const int n = campaign.num_experiments;

  Trace::Reset();
  const RunResult cold = RunCold(spec, campaign, true);
  const TraceTotals cold_t = Trace::Collect();

  Trace::Reset();
  AnalysisResult analysis;
  const RunResult all = RunAll(spec, campaign, 1, true, &analysis);
  const TraceTotals all_t = Trace::Collect();

  const RunResult untraced = RunAll(spec, campaign, 1, false, nullptr);

  rep.gate = Gate(cold, all, n);
  if (rep.gate.empty()) rep.gate = Gate(cold, untraced, n);
  if (!rep.gate.empty()) return rep;

  std::vector<Metric>& m = rep.metrics;
  AddSpanMetrics("", all_t, true, &m);
  // Committer self time: the calling thread's CPU time during the run minus
  // its own spans (planning, classing, synthesis, row serialization).
  const double committer_self =
      all.committer_cpu_s - all.committer_spans.SelfSum();
  m.push_back({"core.committer_self_s", "s", committer_self});
  m.push_back({"core.exp_p50_us", "us", Percentile(all_t.experiment_us, 50)});
  m.push_back({"core.exp_p99_us", "us", Percentile(all_t.experiment_us, 99)});
  m.push_back({"core.exp_samples", "count",
               static_cast<double>(all_t.experiment_us.size())});
  const double synthesized =
      static_cast<double>(all.dedup.experiments_synthesized);
  const double pruned = static_cast<double>(all.prune.pruned_total());
  const double checks = static_cast<double>(all.prune.boundary_checks);
  m.push_back({"core.executed", "count", n - synthesized});
  m.push_back({"core.synthesized", "count", synthesized});
  m.push_back({"core.static_synthesized", "count",
               static_cast<double>(all.dedup.static_synthesized)});
  m.push_back({"core.pruned", "count", pruned});
  m.push_back({"core.warm_starts", "count",
               static_cast<double>(all.warm_starts)});
  m.push_back({"core.boundary_checks", "count", checks});
  m.push_back({"core.spot_checks", "count",
               static_cast<double>(all.dedup.spot_checks_run)});
  m.push_back({"core.collision_rejects", "count",
               static_cast<double>(all.prune.collision_rejects)});
  m.push_back({"core.synth_ratio", "ratio", Ratio(synthesized, n)});
  m.push_back({"core.prune_ratio", "ratio", Ratio(pruned, checks)});
  m.push_back({"cpu.cow_faults", "count",
               static_cast<double>(all.memory.cow_faults)});
  m.push_back({"cpu.resident_bytes", "bytes",
               static_cast<double>(all.memory.resident_bytes)});
  m.push_back({"db.wal_records", "count",
               static_cast<double>(all.archive.wal_records_appended)});
  m.push_back({"db.wal_bytes", "bytes",
               static_cast<double>(all.archive.wal_bytes)});
  m.push_back({"db.wal_commits", "count",
               static_cast<double>(all.archive.wal_commits)});
  for (const auto& [name, seconds] : analysis.query_s) {
    m.push_back({"db.query_s." + name, "s", seconds});
  }
  m.push_back({"trace.wall_s", "s", all.wall_s});
  m.push_back({"trace.eps_traced", "exp/s", n / all.wall_s});
  m.push_back({"trace.eps_untraced", "exp/s", n / untraced.wall_s});
  m.push_back({"trace.overhead_pct", "%",
               100.0 * (all.wall_s / untraced.wall_s - 1.0)});
  // Signed: at one worker the committer overlaps the worker, which shows as
  // a negative remainder.
  m.push_back({"trace.unattributed_s", "s",
               all.wall_s - all_t.SelfSum() - committer_self});

  AddSpanMetrics("cold.", cold_t, false, &m);
  m.push_back({"cold.trace.wall_s", "s", cold.wall_s});
  m.push_back({"cold.trace.unattributed_s", "s",
               cold.wall_s - cold_t.SelfSum()});
  // ZOFI overhead factor: cold campaign time per unit of simulation time.
  m.push_back({"core.overhead_factor", "x",
               Ratio(cold.wall_s, SimSeconds(cold_t))});
  return rep;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : Workloads()) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code dir_error;
  std::filesystem::create_directories(kWorkDir, dir_error);
  if (dir_error) {
    std::fprintf(stderr, "cannot create %s\n", kWorkDir);
    return 2;
  }

  const util::Result<Golden> probed = ProbeGolden(*spec);
  if (!probed.ok()) {
    std::fprintf(stderr, "golden probe failed: %s\n",
                 probed.status().ToString().c_str());
    return 1;
  }
  const Golden golden = probed.value();
  const core::CampaignData campaign =
      MakeCampaign(*spec, golden, args.seed, std::string(spec->name));
  const int n = campaign.num_experiments;

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  JsonObject meta;
  meta.Str("workload", spec->name)
      .Str("program", spec->program)
      .Num("seed", static_cast<double>(args.seed))
      .Num("held_out_seed", static_cast<double>(kHeldOutSeed))
      .Str("git_sha", EnvOr("PERFBENCH_GIT_SHA", "unknown"))
      .Str("source_digest", EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown"))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Num("nproc", std::thread::hardware_concurrency())
      .Num("workers", args.trace == 0 ? kAllWorkers : 1)
      .Num("experiments", n)
      .Num("golden_instret", static_cast<double>(golden.instret))
      .Num("golden_cycles", static_cast<double>(golden.cycles))
      .Num("inject_max_instr", static_cast<double>(campaign.inject_max_instr))
      .Num("timeout_cycles", static_cast<double>(campaign.timeout_cycles));

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  int reps = 0;
  if (args.trace == 0) {
    std::vector<double> eps, eps_cold, setup, analysis_s, gaps, p50s, p99s;
    int64_t collision_rejects = 0, spot_run = 0, spot_passed = 0;
    do {
      const RunResult cold = RunCold(*spec, campaign, false);
      AnalysisResult analysis;
      const RunResult all =
          RunAll(*spec, campaign, kAllWorkers, false, &analysis);
      attempted += 2 * n;
      ++reps;
      if (!cold.status.ok()) failed += n;
      if (!all.status.ok()) failed += n;
      const std::string gate = Gate(cold, all, n);
      if (!gate.empty()) {
        if (cold.status.ok() && all.status.ok()) failed += n;
        failures.push_back(gate);
        break;
      }
      eps.push_back(n / all.wall_s);
      eps_cold.push_back(n / cold.wall_s);
      setup.push_back(all.setup_s);
      analysis_s.push_back(analysis.total_s);
      gaps.insert(gaps.end(), cold.gaps_us.begin(), cold.gaps_us.end());
      p50s.push_back(Percentile(cold.gaps_us, 50));
      p99s.push_back(Percentile(cold.gaps_us, 99));
      collision_rejects += all.prune.collision_rejects;
      spot_run += all.dedup.spot_checks_run;
      spot_passed += all.dedup.spot_checks_passed;
    } while (Clock::now() < deadline);
    metrics = {
        {"eps", "exp/s", Median(eps)},
        {"eps_cold", "exp/s", Median(eps_cold)},
        {"setup_s", "s", Median(setup)},
        {"analysis_s", "s", Median(analysis_s)},
        {"exp_p50_us", "us", Percentile(gaps, 50)},
        {"exp_p99_us", "us", Percentile(gaps, 99)},
        {"peak_rss_mb", "MiB", PeakRssMiB()},
    };
    meta.Num("reps", reps)
        .Num("exp_latency_samples", static_cast<double>(gaps.size()))
        .Num("collision_rejects", static_cast<double>(collision_rejects))
        .Num("spot_checks_run", static_cast<double>(spot_run))
        .Num("spot_checks_passed", static_cast<double>(spot_passed))
        .List("eps_reps", eps)
        .List("eps_cold_reps", eps_cold)
        .List("setup_s_reps", setup)
        .List("analysis_s_reps", analysis_s)
        .List("exp_p50_us_reps", p50s)
        .List("exp_p99_us_reps", p99s);
  } else {
    std::vector<TracedRep> traced;
    do {
      TracedRep rep = TracedRepetition(*spec, campaign);
      attempted += 3 * n;
      ++reps;
      if (!rep.gate.empty()) {
        failed += n;
        failures.push_back(rep.gate);
        break;
      }
      traced.push_back(std::move(rep));
    } while (Clock::now() < deadline);
    if (failures.empty()) {
      // Medians for times; counts must repeat exactly across repetitions (a
      // drifting count is a determinism bug and fails the run).
      const std::vector<Metric>& first = traced.front().metrics;
      for (size_t i = 0; i < first.size(); ++i) {
        std::vector<double> values;
        for (const TracedRep& rep : traced) {
          values.push_back(rep.metrics[i].value);
        }
        if (IsExactCount(first[i]) &&
            std::any_of(values.begin(), values.end(),
                        [&](double v) { return v != first[i].value; })) {
          failures.push_back("count " + first[i].name +
                             " drifted between repetitions");
        }
        metrics.push_back({first[i].name, first[i].unit,
                           IsExactCount(first[i]) ? first[i].value
                                                  : Median(values)});
      }
      if (!failures.empty()) failed += n;
    }
    meta.Num("reps", reps);
  }

  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  const bool correct = failures.empty() && failed == 0;
  std::printf("# meta %s\n", meta.str().c_str());
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
