// simbench_driver: the in-process half of the Swift-Sim benchmark
// (simbench/run.py is the entry point; see simbench/README.md).
//
// It drives the library only through public calls — BuildWorkload,
// RepeatLaunches, FingerprintApplication, the Simulator constructor and
// Simulator::Run, RunParallelDetailed, and MemoCache/ProfileCache
// Clear/stats — and prints raw records, one JSON object per line. run.py
// checks every simulated result against simbench/expected.json and turns
// the records into metrics; this program computes no statistics.
//
// Modes:
//   run       untraced measured passes of one workload for --seconds
//   overhead  alternating untraced and traced passes of one workload
//   probe     traced passes of every in-process workload plus the layer
//             experiments (serial vs parallel, memo cold vs warm, memo on
//             vs off); spans are kept in memory and printed at exit
//   expect    expected cycles/instructions of every in-process job, plus
//             silicon-oracle cycles, for the first trace seed
//   oracle    cycles/instructions of job objects read from stdin, one per
//             line (the daemon workload's expected values)
//   host      only the host record every mode starts with
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "config/gpu_config.h"
#include "config/ini.h"
#include "config/presets.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/parallel_detailed.h"
#include "swiftsim/service.h"
#include "swiftsim/simulator.h"
#include "trace/fingerprint.h"
#include "workloads/workload.h"

namespace swiftsim::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Workload definitions. The scales keep a pass near a second on a
// 4-thread host; a run measures at least kMinJobs jobs, because the p90
// needs 10 samples beyond it. Changing a workload changes the expected
// values: regenerate with `python3 simbench/run.py --regen`.
constexpr const char* kPreset = "rtx2080ti";
constexpr double kDetailedScale = 0.05;
constexpr double kHybridScale = 0.1;
constexpr unsigned kIterations = 8;  // RepeatLaunches count of iterative apps
constexpr int kSetupReps = 9;
constexpr std::size_t kMinJobs = 100;      // >= 10 samples beyond p90
constexpr double kMaxMeasureSeconds = 120;  // stay inside the run budget
constexpr int kOverheadPairs = 3;  // traced/untraced pass pairs (overhead)

struct JobSpec {
  std::string app;      // registry name
  unsigned iterations;  // 1 = single launch
  SimLevel level;
};

const char* LevelName(SimLevel level) {
  switch (level) {
    case SimLevel::kSilicon:
      return "silicon";
    case SimLevel::kDetailed:
      return "detailed";
    case SimLevel::kSwiftSimBasic:
      return "basic";
    case SimLevel::kSwiftSimMemory:
      return "memory";
  }
  return "?";
}

std::string AppKey(const std::string& app, unsigned iterations) {
  return iterations > 1 ? app + "x" + std::to_string(iterations) : app;
}

/// Expected-value key, e.g. "BFSx8@0.1:memory". The scale is part of it
/// because an app appears at different scales in different workloads.
std::string JobKey(const JobSpec& j, double scale) {
  char s[32];
  std::snprintf(s, sizeof s, "@%g:", scale);
  return AppKey(j.app, j.iterations) + s + LevelName(j.level);
}

/// GEMM and SM, the short jobs, run twice per list: with 12 jobs the job
/// latency p50 falls inside the SM jobs and p90 inside the BFS jobs,
/// instead of on the boundary between two apps as with 8.
std::vector<JobSpec> DetailedJobs() {
  std::vector<JobSpec> jobs;
  for (const char* app : {"BFS", "PAGERANK", "GEMM", "SM", "GEMM", "SM"}) {
    for (SimLevel level : {SimLevel::kDetailed, SimLevel::kSwiftSimBasic}) {
      jobs.push_back({app, 1, level});
    }
  }
  return jobs;
}

/// Longest first (see Setup).
std::vector<JobSpec> HybridJobs() {
  return {{"SSSP", kIterations, SimLevel::kSwiftSimMemory},
          {"BFS", kIterations, SimLevel::kSwiftSimMemory},
          {"PAGERANK", kIterations, SimLevel::kSwiftSimMemory},
          {"NW", 1, SimLevel::kSwiftSimMemory},
          {"GEMM", 1, SimLevel::kSwiftSimMemory}};
}

enum class Runner { kSerial, kParallel, kHybrid };

struct WorkloadDef {
  Runner runner;
  double scale;
  std::vector<JobSpec> jobs;
  /// Job-parallel workloads run the job list once per given trace seed in
  /// each pass, Workers() jobs at a time, each job on one thread. Host
  /// speed drifts independently per CPU on a shared host; several jobs in
  /// flight average that out. Others run one seed, one job at a time.
  bool job_parallel;
};

bool FindWorkload(const std::string& name, WorkloadDef* out) {
  if (name == "detailed_serial") {
    *out = {Runner::kSerial, kDetailedScale, DetailedJobs(), true};
  } else if (name == "detailed_parallel") {
    *out = {Runner::kParallel, kDetailedScale, DetailedJobs(), false};
  } else if (name == "hybrid_memo") {
    *out = {Runner::kHybrid, kHybridScale, HybridJobs(), true};
  } else {
    return false;
  }
  return true;
}

/// min(CPUs this process may run on, 4): all load comes from one process
/// with at most this many threads.
unsigned Workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Emit(const JsonWriter& w) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::cout << w.str() << '\n';
}

// --- Tracing ---------------------------------------------------------------
// Spans around each public call. The parent is the calling thread's
// innermost open span; `job` ties the spans of one job.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  bool on() const { return on_; }

  std::uint64_t Begin(const char* name, std::uint64_t job) {
    if (!on_) return 0;
    const std::uint64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t>& open = open_[std::this_thread::get_id()];
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({name, id, open.empty() ? 0 : open.back(), job, now, 0});
    open.push_back(id);
    return id;
  }

  void End(std::uint64_t id) {
    if (!on_) return;
    const std::uint64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
    open_[std::this_thread::get_id()].pop_back();
  }

  void Flush() const {
    for (const Span& s : spans_) {
      JsonWriter w;
      w.BeginObject()
          .Key("type").String("span")
          .Key("name").String(s.name)
          .Key("id").Uint(s.id)
          .Key("parent").Uint(s.parent)
          .Key("job").Uint(s.job)
          .Key("start_ns").Uint(s.start_ns)
          .Key("end_ns").Uint(s.end_ns)
          .EndObject();
      Emit(w);
    }
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t id, parent, job, start_ns, end_ns;
  };

  std::uint64_t Now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
            .count());
  }

  bool on_;
  Clock::time_point t0_;
  std::mutex mu_;
  std::vector<Span> spans_;                                      // guarded by mu_
  std::map<std::thread::id, std::vector<std::uint64_t>> open_;  // guarded by mu_
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t job)
      : t_(t), id_(t.Begin(name, job)) {}
  ~ScopedSpan() { t_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::uint64_t id_;
};

// --- Set-up ----------------------------------------------------------------

struct Job {
  JobSpec spec;
  std::uint64_t trace_seed;
};

std::string AppKey(const Job& j) {
  return AppKey(j.spec.app, j.spec.iterations) + "/" + std::to_string(j.trace_seed);
}

struct Built {
  double scale = 0;
  GpuConfig cfg;
  std::map<std::string, Application> apps;  // by AppKey(Job)
  std::vector<Job> pass;                     // one pass, in order
};

/// Builds the traces of every job on each of `seeds`.
Built Setup(const WorkloadDef& def, const std::vector<std::uint64_t>& seeds,
            Tracer& tr) {
  ScopedSpan root(tr, "setup", 0);
  Built b;
  b.scale = def.scale;
  {
    ScopedSpan s(tr, "config.PresetByName", 0);
    b.cfg = PresetByName(kPreset);
  }
  // Job-major order: the job list starts with its longest jobs, so a pass
  // ends on short ones and its last jobs leave few threads idle.
  for (const JobSpec& spec : def.jobs) {
    for (std::uint64_t seed : seeds) {
      const Job job{spec, seed};
      b.pass.push_back(job);
      const std::string key = AppKey(job);
      if (b.apps.count(key) != 0) continue;
      Application app;
      {
        ScopedSpan s(tr, "workloads.BuildWorkload", 0);
        app = BuildWorkload(spec.app, {def.scale, seed});
      }
      if (spec.iterations > 1) {
        ScopedSpan s(tr, "workloads.RepeatLaunches", 0);
        app = RepeatLaunches(app, spec.iterations);
      }
      b.apps.emplace(key, std::move(app));
    }
  }
  return b;
}

/// The trace seeds a workload's passes cover.
std::vector<std::uint64_t> SeedsFor(const WorkloadDef& def,
                                    const std::vector<std::uint64_t>& seeds) {
  if (def.job_parallel) return seeds;
  return {seeds.front()};
}

unsigned StreamsFor(const WorkloadDef& def) {
  return def.job_parallel ? Workers() : 1;
}

void EmitApps(const WorkloadDef& def, std::uint64_t trace_seed) {
  std::set<std::string> seen;
  for (const JobSpec& j : def.jobs) {
    if (!seen.insert(j.app).second) continue;
    const Application app = BuildWorkload(j.app, {def.scale, trace_seed});
    std::uint64_t bytes = 0;
    for (const auto& k : app.kernels) bytes += k->TraceBytes();
    JsonWriter w;
    w.BeginObject()
        .Key("type").String("app")
        .Key("app").String(j.app)
        .Key("trace_bytes").Uint(bytes)
        .Key("instructions").Uint(app.TotalInstrs())
        .EndObject();
    Emit(w);
  }
}

// --- Passes ----------------------------------------------------------------

std::uint64_t Metric(const SimResult& r, const char* name) {
  auto it = r.metrics.find(name);
  return it == r.metrics.end() ? 0 : it->second;
}

struct PassResult {
  double seconds = 0;
  double cpu_seconds = 0;
  std::uint64_t instructions = 0;
  std::size_t jobs = 0;
};

/// Runs one job and prints its record; exceptions become a failed record.
std::uint64_t RunJob(const std::string& workload, Runner runner,
                     const Job& job, const Built& b, const GpuConfig& cfg,
                     int pass, std::uint64_t job_id, Tracer& tr) {
  const JobSpec& j = job.spec;
  JsonWriter w;
  w.BeginObject()
      .Key("type").String("job")
      .Key("workload").String(workload)
      .Key("pass").Int(pass)
      .Key("job").Uint(job_id)
      .Key("trace_seed").Uint(job.trace_seed)
      .Key("key").String(JobKey(j, b.scale))
      .Key("app").String(j.app)
      .Key("level").String(LevelName(j.level))
      .Key("memo").Bool(cfg.memo.enabled);
  std::uint64_t instructions = 0;
  // ProfileCache::Clear resets its counters, so count per job. The counts
  // are exact only when one job runs at a time, as in the probe.
  const std::uint64_t ph0 = ProfileCache::Global().hits();
  const std::uint64_t pm0 = ProfileCache::Global().misses();
  const auto t0 = Clock::now();
  try {
    ScopedSpan js(tr, "job", job_id);
    const Application& app = b.apps.at(AppKey(job));
    SimResult r;
    if (runner == Runner::kParallel) {
      ParallelDetailedOptions opt;
      opt.num_threads = Workers();
      opt.slack = 1;
      ScopedSpan s(tr, "parallel.RunParallelDetailed", job_id);
      r = RunParallelDetailed(app, cfg, j.level, opt);
    } else {
      std::optional<Simulator> sim;
      {
        ScopedSpan s(tr, "analytical.Simulator", job_id);
        sim.emplace(app, cfg, j.level);
      }
      ScopedSpan s(tr, "sim.Run", job_id);
      r = sim->Run();
    }
    const double secs = Seconds(t0, Clock::now());
    instructions = r.instructions;
    w.Key("seconds").Double(secs)
        .Key("cycles").Uint(r.total_cycles)
        .Key("instructions").Uint(r.instructions)
        .Key("cycles_skipped").Uint(Metric(r, "driver.cycles_skipped"))
        .Key("memo_hits").Uint(Metric(r, "memo.hits"))
        .Key("memo_misses").Uint(Metric(r, "memo.misses"))
        .Key("tg_rounds").Uint(Metric(r, "driver.tg_rounds"))
        .Key("tg_steals").Uint(Metric(r, "driver.tg_steals"))
        .Key("profile_hits").Uint(ProfileCache::Global().hits() - ph0)
        .Key("profile_misses").Uint(ProfileCache::Global().misses() - pm0);
  } catch (const std::exception& e) {
    w.Key("seconds").Double(Seconds(t0, Clock::now()))
        .Key("error").String(e.what());
  }
  w.EndObject();
  Emit(w);
  return instructions;
}

/// Runs b.pass with `streams` threads, each taking the next job when it
/// finishes one (a closed loop), and prints the pass record.
PassResult RunPass(const std::string& workload, Runner runner, const Built& b,
                   unsigned streams, int pass, std::uint64_t* next_job,
                   Tracer& tr) {
  PassResult p;
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  if (runner == Runner::kHybrid) {
    // A one-shot run starts cold: every pass pays pre-pass, memo record
    // and memo replay. Jobs in flight together are distinct apps, so they
    // share no cache entries.
    ScopedSpan s(tr, "memo.Clear", 0);
    MemoCache::Global().Clear();
    ProfileCache::Global().Clear();
  }
  const std::uint64_t first_id = *next_job;
  *next_job += b.pass.size();
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> instructions{0};
  auto stream = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < b.pass.size();) {
      instructions += RunJob(workload, runner, b.pass[i], b, b.cfg, pass,
                             first_id + i, tr);
    }
  };
  {
    std::vector<std::jthread> others;
    for (unsigned t = 1; t < streams; ++t) others.emplace_back(stream);
    stream();
  }
  p.instructions = instructions;
  p.jobs = b.pass.size();
  p.seconds = Seconds(t0, Clock::now());
  p.cpu_seconds = ProcessCpuSeconds() - cpu0;
  JsonWriter w;
  w.BeginObject()
      .Key("type").String("pass")
      .Key("workload").String(workload)
      .Key("pass").Int(pass)
      .Key("traced").Bool(tr.on())
      .Key("runner").String(runner == Runner::kParallel ? "parallel" : "serial")
      .Key("seconds").Double(p.seconds)
      .Key("cpu_seconds").Double(p.cpu_seconds)
      .Key("instructions").Uint(p.instructions)
      .Key("jobs").Uint(p.jobs)
      .EndObject();
  Emit(w);
  return p;
}

std::uint64_t PeakRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

void EmitHost() {
  JsonWriter w;
  w.BeginObject()
      .Key("type").String("host")
      .Key("hardware_concurrency").Uint(std::thread::hardware_concurrency())
      .Key("workers").Uint(Workers())
      .Key("build_type").String(SIMBENCH_BUILD_TYPE)
      .Key("compiler").String(SIMBENCH_COMPILER)
      .EndObject();
  Emit(w);
}

// --- Modes -----------------------------------------------------------------

int RunMode(const std::string& workload,
            const std::vector<std::uint64_t>& seeds, double seconds) {
  WorkloadDef def;
  FindWorkload(workload, &def);
  Tracer off(false);
  // Set-ups are timed one after each pass rather than back to back, so
  // host speed drifting over the run weighs on them as on the passes.
  int setups = 0;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Built built = Setup(def, SeedsFor(def, seeds), off);
    JsonWriter w;
    w.BeginObject().Key("type").String("setup").Key("seconds")
        .Double(Seconds(t0, Clock::now())).EndObject();
    Emit(w);
    ++setups;
    return built;
  };
  const Built b = timed_setup();
  const unsigned streams = StreamsFor(def);
  std::uint64_t next_job = 1;
  // Warm-up pass (pass -1): thread pool start-up and first-touch page
  // faults are paid once per process, not per job.
  RunPass(workload, def.runner, b, streams, -1, &next_job, off);
  const auto t0 = Clock::now();
  std::size_t jobs = 0;
  for (int pass = 0;; ++pass) {
    jobs += RunPass(workload, def.runner, b, streams, pass, &next_job, off).jobs;
    if (setups < kSetupReps) timed_setup();
    const double elapsed = Seconds(t0, Clock::now());
    if ((elapsed >= seconds && jobs >= kMinJobs) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
  }
  while (setups < kSetupReps) timed_setup();
  JsonWriter w;
  w.BeginObject().Key("type").String("end").Key("peak_rss_kb")
      .Uint(PeakRssKb()).EndObject();
  Emit(w);
  return 0;
}

int OverheadMode(const std::string& workload,
                 const std::vector<std::uint64_t>& seeds) {
  WorkloadDef def;
  FindWorkload(workload, &def);
  Tracer off(false);
  Tracer on(true);
  const Built b = Setup(def, SeedsFor(def, seeds), off);
  const unsigned streams = StreamsFor(def);
  std::uint64_t next_job = 1;
  RunPass(workload, def.runner, b, streams, -1, &next_job, off);
  for (int i = 0; i < kOverheadPairs; ++i) {
    // Alternate which side runs first so drift charges neither.
    Tracer& first = i % 2 == 0 ? off : on;
    Tracer& second = i % 2 == 0 ? on : off;
    RunPass(workload, def.runner, b, streams, i, &next_job, first);
    RunPass(workload, def.runner, b, streams, i, &next_job, second);
  }
  return 0;
}

/// One job at a time on one trace seed, so each span is one call's cost.
int ProbeMode(std::uint64_t trace_seed) {
  Tracer tr(true);
  std::uint64_t next_job = 1;
  WorkloadDef detailed;
  FindWorkload("detailed_serial", &detailed);
  WorkloadDef hybrid;
  FindWorkload("hybrid_memo", &hybrid);
  EmitApps(detailed, trace_seed);
  EmitApps(hybrid, trace_seed);

  const Built db = Setup(detailed, {trace_seed}, tr);
  const Built hb = Setup(hybrid, {trace_seed}, tr);
  // FingerprintApplication is what the daemon pays per request; time it
  // on the built apps of both set-ups.
  for (const Built* b : {&db, &hb}) {
    for (const auto& [key, app] : b->apps) {
      for (int r = 0; r < 3; ++r) {
        ScopedSpan s(tr, "trace.FingerprintApplication", 0);
        FingerprintApplication(app);
      }
    }
  }

  // Serial and parallel passes over the same jobs; the serial pass is the
  // control for parallel.speedup_vs_serial and parallel.wasted_cpu_share.
  // A warm-up pass of each runner comes first, untraced.
  Tracer off(false);
  RunPass("detailed_serial", Runner::kSerial, db, 1, -1, &next_job, off);
  RunPass("detailed_parallel", Runner::kParallel, db, 1, -1, &next_job, off);
  RunPass("detailed_serial", Runner::kSerial, db, 1, 0, &next_job, tr);
  RunPass("detailed_parallel", Runner::kParallel, db, 1, 0, &next_job, tr);

  // hybrid_memo pass (cold caches), then the memo footprint it left.
  RunPass("hybrid_memo", Runner::kHybrid, hb, 1, -1, &next_job, off);
  RunPass("hybrid_memo", Runner::kHybrid, hb, 1, 0, &next_job, tr);
  const std::uint64_t memo_bytes = MemoCache::Global().bytes();

  // Record vs replay cost: each iterative app once cold, once warm.
  // Lookups that never pay back: single-launch apps, memo on vs off.
  for (const Job& j : hb.pass) {
    if (j.spec.iterations > 1) {
      MemoCache::Global().Clear();
      ProfileCache::Global().Clear();
      RunJob("memo.cold", Runner::kHybrid, j, hb, hb.cfg, 0, next_job++, tr);
      RunJob("memo.warm", Runner::kHybrid, j, hb, hb.cfg, 0, next_job++, tr);
    } else {
      GpuConfig no_memo = hb.cfg;
      no_memo.memo.enabled = false;
      for (int r = 0; r < 3; ++r) {
        MemoCache::Global().Clear();
        ProfileCache::Global().Clear();
        RunJob("memo.on", Runner::kHybrid, j, hb, hb.cfg, r, next_job++, tr);
        RunJob("memo.off", Runner::kHybrid, j, hb, no_memo, r, next_job++, tr);
      }
    }
  }
  JsonWriter w;
  w.BeginObject()
      .Key("type").String("caches")
      .Key("memo_bytes").Uint(memo_bytes)
      .EndObject();
  Emit(w);
  tr.Flush();
  return 0;
}

/// Prints the expected result of one job: what the job's own config gives
/// from cold caches (memo replay included, as every run uses it). Where
/// memo replay applies, `fresh_cycles` adds a memo-off simulation; the two
/// differ only where replay is not exact, and run.py reports such keys.
void EmitExpected(const std::string& key, const Application& app,
                  const GpuConfig& cfg, SimLevel level) {
  MemoCache::Global().Clear();
  ProfileCache::Global().Clear();
  const SimResult r = Simulator(app, cfg, level).Run();
  JsonWriter w;
  w.BeginObject()
      .Key("type").String("expected")
      .Key("key").String(key)
      .Key("cycles").Uint(r.total_cycles)
      .Key("instructions").Uint(r.instructions);
  if (cfg.memo.enabled && MemoReplayApplicable(cfg, level)) {
    GpuConfig fresh_cfg = cfg;
    fresh_cfg.memo.enabled = false;
    w.Key("fresh_cycles").Uint(Simulator(app, fresh_cfg, level).Run().total_cycles);
  }
  w.EndObject();
  Emit(w);
}

int ExpectMode(std::uint64_t trace_seed) {
  std::set<std::string> done;
  for (const char* name : {"detailed_serial", "hybrid_memo"}) {
    WorkloadDef def;
    FindWorkload(name, &def);
    Tracer off(false);
    const Built b = Setup(def, {trace_seed}, off);
    for (const Job& job : b.pass) {
      const JobSpec& j = job.spec;
      const Application& app = b.apps.at(AppKey(job));
      for (SimLevel level : {j.level, SimLevel::kSilicon}) {
        const std::string key = JobKey({j.app, j.iterations, level}, def.scale);
        if (!done.insert(key).second) continue;
        EmitExpected(key, app, b.cfg, level);
      }
    }
  }
  return 0;
}

/// Reads {"key","workload","scale","seed","iterations","level","preset",
/// "config"} objects from stdin and prints each job's expected result,
/// resolving the config exactly as the daemon does (preset, then INI
/// overrides).
int OracleMode() {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const JsonValue v = ParseJson(line);
    const std::string& name = v.Find("workload")->AsString();
    const WorkloadScale ws{v.Find("scale")->AsDouble(), v.Find("seed")->AsUint()};
    const unsigned iterations =
        static_cast<unsigned>(v.Find("iterations")->AsUint());
    GpuConfig cfg = PresetByName(v.Find("preset")->AsString());
    if (const JsonValue* c = v.Find("config"); c != nullptr) {
      cfg = GpuConfig::FromIni(IniFile::ParseString(c->AsString()), cfg);
    }
    cfg.Validate();
    Application app = BuildWorkload(name, ws);
    if (iterations > 1) app = RepeatLaunches(app, iterations);
    EmitExpected(v.Find("key")->AsString(), app, cfg,
                 service::SimLevelFromString(v.Find("level")->AsString()));
  }
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr, R"(usage: simbench_driver --mode MODE [options]

  --mode host|run|overhead|probe|expect|oracle
  --workload detailed_serial|detailed_parallel|hybrid_memo  (run, overhead)
  --trace-seeds N[,N...]  workload trace seeds; job-parallel workloads run
                   on all, the rest of the modes on the first
  --seconds S      measured time (run; default 10)
  --help           this text
)");
}

bool ParseUint(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    *out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool ParseUintList(const std::string& s, std::vector<std::uint64_t>* out) {
  out->clear();
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    std::uint64_t v = 0;
    if (!ParseUint(s.substr(start, comma - start), &v)) return false;
    out->push_back(v);
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

int Main(int argc, char** argv) {
  std::string mode;
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      PrintUsage();
      return 2;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "simbench_driver: unknown flag or missing value: %s\n",
                   flag.c_str());
      PrintUsage();
      return 2;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--mode") {
      mode = value;
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--trace-seeds") {
      ok = ParseUintList(value, &seeds);
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      ok = ParseUint(value, &s) && s > 0;
      seconds = static_cast<double>(s);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "simbench_driver: bad flag %s %s\n", flag.c_str(),
                   value.c_str());
      PrintUsage();
      return 2;
    }
  }
  const std::set<std::string> modes = {"host", "run", "overhead", "probe",
                                       "expect", "oracle"};
  WorkloadDef def;
  const bool needs_workload = mode == "run" || mode == "overhead";
  const bool needs_seed = needs_workload || mode == "probe" || mode == "expect";
  if (modes.count(mode) == 0 || (needs_workload && !FindWorkload(workload, &def)) ||
      (needs_seed && seeds.empty())) {
    std::fprintf(stderr, "simbench_driver: unknown --mode, or missing or unknown "
                         "--workload or --trace-seeds for mode '%s'\n", mode.c_str());
    PrintUsage();
    return 2;
  }
  EmitHost();
  if (mode == "run") return RunMode(workload, seeds, seconds);
  if (mode == "overhead") return OverheadMode(workload, seeds);
  if (mode == "probe") return ProbeMode(seeds.front());
  if (mode == "expect") return ExpectMode(seeds.front());
  if (mode == "oracle") return OracleMode();
  return 0;  // host: the stamp above is all
}

}  // namespace
}  // namespace swiftsim::bench

int main(int argc, char** argv) {
  try {
    return swiftsim::bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench_driver: %s\n", e.what());
    return 1;
  }
}
