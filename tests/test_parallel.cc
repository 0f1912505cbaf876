// Determinism, exactness and liveness tests for the parallel runners
// (DESIGN.md §12): the per-cycle stepper must be bit-identical to the
// serial loop at slack=1 for every worker count, with cycle skipping on or
// off and under an armed fault plan; its team must size itself from the
// kernel's active SMs, finish when no pool worker is free, and surface a
// helper's failure on the caller. Also the two-mode batch policy, and the
// SM-parallel analytical-memory runner's thread-count independence.
#include "swiftsim/parallel_detailed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "config/presets.h"
#include "swiftsim/fault_inject.h"
#include "swiftsim/parallel.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

GpuConfig SmallGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 4;
  cfg.num_mem_partitions = 2;
  return cfg;
}

Application SmallApp(const std::string& name) {
  WorkloadScale s;
  s.scale = 0.03;
  return BuildWorkload(name, s);
}

// A GPU and an app whose kernel puts CTAs on all 32 SMs: enough active SMs
// for a team of four, so the stepper's helpers really tick clusters.
GpuConfig WideGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 32;
  cfg.num_mem_partitions = 4;
  return cfg;
}

Application WideApp() {
  WorkloadScale s;
  s.scale = 0.25;  // SM: 36 CTAs
  return BuildWorkload("SM", s);
}

/// Everything except driver telemetry (driver.* describes how the run was
/// executed — rounds, team width, skip spans — not what was simulated).
std::vector<std::pair<std::string, std::uint64_t>> NonDriverMetrics(
    const SimResult& r) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : r.metrics) {
    if (name.rfind("driver.", 0) == 0) continue;
    out.emplace_back(name, value);
  }
  return out;
}

void ExpectIdentical(const SimResult& serial, const SimResult& parallel,
                     const std::string& what) {
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles) << what;
  EXPECT_EQ(serial.instructions, parallel.instructions) << what;
  ASSERT_EQ(serial.kernels.size(), parallel.kernels.size()) << what;
  for (std::size_t k = 0; k < serial.kernels.size(); ++k) {
    EXPECT_EQ(serial.kernels[k].cycles, parallel.kernels[k].cycles)
        << what << " kernel " << serial.kernels[k].name;
    EXPECT_EQ(serial.kernels[k].instructions,
              parallel.kernels[k].instructions)
        << what << " kernel " << serial.kernels[k].name;
  }
}

TEST(ParallelDetailed, SlackOneBitIdenticalToSerialAcrossThreadCounts) {
  const GpuConfig cfg = SmallGpu();
  for (const char* name : {"SM", "BFS"}) {
    const Application app = SmallApp(name);
    for (SimLevel level : {SimLevel::kSwiftSimBasic, SimLevel::kDetailed}) {
      const SimResult serial = RunSimulation(app, cfg, level);
      for (unsigned threads : {1u, 2u, 8u}) {
        ParallelDetailedOptions opt;
        opt.num_threads = threads;
        opt.slack = 1;
        const SimResult par = RunParallelDetailed(app, cfg, level, opt);
        ExpectIdentical(serial, par,
                        std::string(name) + "/" + ToString(level) + "/t" +
                            std::to_string(threads));
      }
    }
  }
}

TEST(ParallelDetailed, SiliconLevelWithLaunchOverheadStaysExact) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("GEMM");
  const SimResult serial = RunSimulation(app, cfg, SimLevel::kSilicon);
  ParallelDetailedOptions opt;
  opt.num_threads = 4;
  const SimResult par =
      RunParallelDetailed(app, cfg, SimLevel::kSilicon, opt);
  ExpectIdentical(serial, par, "GEMM/silicon");
}

TEST(ParallelDetailed, SlackWindowIsThreadCountInvariant) {
  // The slack approximation depends only on the window length, never on
  // how many shards the SMs were split into.
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  ParallelDetailedOptions a;
  a.num_threads = 1;
  a.slack = 8;
  ParallelDetailedOptions b = a;
  b.num_threads = 4;
  const SimResult ra =
      RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic, a);
  const SimResult rb =
      RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic, b);
  ExpectIdentical(ra, rb, "SM/slack8");
}

TEST(ParallelDetailed, SlackBeyondOneStaysNearSerial) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  const SimResult serial =
      RunSimulation(app, cfg, SimLevel::kSwiftSimBasic);
  ParallelDetailedOptions opt;
  opt.num_threads = 2;
  opt.slack = 16;
  const SimResult par =
      RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic, opt);
  EXPECT_EQ(serial.instructions, par.instructions);
  const double rel =
      std::abs(static_cast<double>(par.total_cycles) -
               static_cast<double>(serial.total_cycles)) /
      static_cast<double>(serial.total_cycles);
  EXPECT_LT(rel, 0.15) << "slack=16 drifted " << rel << " from serial";
}

TEST(ParallelDetailed, ReportsMetricsAndLabel) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  ParallelDetailedOptions opt;
  opt.num_threads = 2;
  const SimResult r =
      RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic, opt);
  EXPECT_EQ(r.simulator, ToString(SimLevel::kSwiftSimBasic) + "+parallel");
  EXPECT_FALSE(r.metrics.empty());
  EXPECT_GT(r.metrics.at("sm0.issued_instrs"), 0u);
  EXPECT_GT(r.metrics.at("driver.tg_rounds"), 0u);
  EXPECT_LE(r.metrics.at("driver.tg_rounds"), r.total_cycles);
  // Four CTAs on four SMs: too narrow for helpers.
  EXPECT_EQ(r.metrics.at("driver.team_width_max"), 1u);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(ParallelDetailed, RejectsBadOptionsAndAnalyticalLevels) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  ParallelDetailedOptions zero_slack;
  zero_slack.slack = 0;
  EXPECT_THROW(RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic,
                                   zero_slack),
               SimError);
  EXPECT_THROW(
      RunParallelDetailed(app, cfg, SimLevel::kSwiftSimMemory, {}),
      SimError);
}

// --- The stepper's bit-identity matrix --------------------------------------

TEST(ParallelDriver, BitIdentityAcrossWorkersAndCycleSkip) {
  const Application app = WideApp();
  for (const bool skip : {false, true}) {
    GpuConfig cfg = WideGpu();
    cfg.cycle_skip = skip;
    const SimResult serial = RunSimulation(app, cfg, SimLevel::kDetailed);
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      ParallelDetailedOptions opt;
      opt.num_threads = threads;
      opt.slack = 1;
      const SimResult par =
          RunParallelDetailed(app, cfg, SimLevel::kDetailed, opt);
      const std::string what = std::string("skip=") +
                               (skip ? "on" : "off") + "/t" +
                               std::to_string(threads);
      ExpectIdentical(serial, par, what);
      EXPECT_EQ(NonDriverMetrics(serial), NonDriverMetrics(par)) << what;
      // 32 active SMs: wide enough for a helper per extra worker.
      const std::uint64_t width = par.metrics.at("driver.team_width_max");
      EXPECT_LE(width, threads) << what;
      EXPECT_EQ(width > 1, threads > 1) << what;
    }
  }
}

TEST(ParallelDriver, NarrowKernelsTickOnlyTheirArcExactly) {
  // Fewer CTAs than SMs: every CTA is dispatched at once, onto an arc of
  // the SM ring that the rotor moves from launch to launch (and wraps).
  // Rounds then tick only that arc, at every width.
  const GpuConfig cfg = WideGpu();
  WorkloadScale s;
  s.scale = 0.15;
  const Application app = RepeatLaunches(BuildWorkload("BFS", s), 2);
  const SimResult serial = RunSimulation(app, cfg, SimLevel::kSwiftSimBasic);
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelDetailedOptions opt;
    opt.num_threads = threads;
    const SimResult par =
        RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic, opt);
    const std::string what = "BFS/t" + std::to_string(threads);
    ExpectIdentical(serial, par, what);
    EXPECT_EQ(NonDriverMetrics(serial), NonDriverMetrics(par)) << what;
  }
}

TEST(ParallelDriver, ArmedFaultPlanStaysIdenticalAcrossWorkers) {
  // Fault decisions are stateless hashes, so the stepper must replay the
  // serial fault schedule exactly for any worker count.
  const GpuConfig cfg = WideGpu();
  const Application app = WideApp();
  FaultPlan plan;
  plan.name = "matrix";
  plan.seed = 7;
  plan.resp_delay_p = 0.3;
  plan.resp_delay_cycles = 9;
  plan.resp_drop_p = 0.2;
  plan.resp_retry_cycles = 40;
  plan.resp_max_drops = 2;
  plan.issue_stall_p = 0.1;
  plan.issue_stall_cycles = 12;
  FaultInjector serial_inj(plan, cfg.num_sms);
  GpuModel serial_model(cfg, SelectionFor(SimLevel::kDetailed));
  serial_model.ArmFaults(&serial_inj);
  const SimResult serial = serial_model.RunApplication(app);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    FaultInjector inj(plan, cfg.num_sms);
    ParallelDetailedOptions opt;
    opt.num_threads = threads;
    opt.slack = 1;
    opt.fault = &inj;
    const SimResult par =
        RunParallelDetailed(app, cfg, SimLevel::kDetailed, opt);
    ExpectIdentical(serial, par, "fault/t" + std::to_string(threads));
    EXPECT_FALSE(inj.AnyHeld());
  }
}

// --- The team: width, liveness, failure -------------------------------------

TEST(ParallelDriver, TeamWidthFollowsActiveSms) {
  const GpuConfig cfg = WideGpu();
  ParallelDetailedOptions opt;
  opt.num_threads = 4;

  // PAGERANK's normalisation kernel holds two CTAs: the caller steps alone.
  const Application pagerank = SmallApp("PAGERANK");
  Application narrow;
  narrow.name = "pagerank_norm";
  narrow.kernels = {pagerank.kernels.back()};
  ASSERT_EQ(narrow.kernels[0]->info().num_ctas, 2u);
  const SimResult one =
      RunParallelDetailed(narrow, cfg, SimLevel::kSwiftSimBasic, opt);
  EXPECT_EQ(one.metrics.at("driver.team_width_max"), 1u);
  ExpectIdentical(RunSimulation(narrow, cfg, SimLevel::kSwiftSimBasic), one,
                  "narrow");

  // 36 CTAs on 32 SMs: every SM is active, so the team goes wide.
  const SimResult wide =
      RunParallelDetailed(WideApp(), cfg, SimLevel::kSwiftSimBasic, opt);
  EXPECT_GT(wide.metrics.at("driver.team_width_max"), 1u);
  EXPECT_LE(wide.metrics.at("driver.team_width_max"), 4u);
}

TEST(ParallelDriver, FinishesWhenEveryPoolWorkerIsBusy) {
  // Helpers are a concurrency hint: with every shared-pool worker blocked,
  // the caller must finish every round alone. The helpers it submitted run
  // only after the run returned, and must leave without touching it.
  // (Trace generation itself waits on the pool, so build first.)
  const GpuConfig cfg = WideGpu();
  const Application app = WideApp();
  const SimResult serial = RunSimulation(app, cfg, SimLevel::kSwiftSimBasic);
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(4);
  const unsigned workers = pool.size();
  std::mutex mu;
  std::condition_variable cv;
  unsigned blocked = 0;
  bool release = false;
  for (unsigned i = 0; i < workers; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      --blocked;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == workers; });
  }
  ParallelDetailedOptions opt;
  opt.num_threads = 4;
  const SimResult par =
      RunParallelDetailed(app, cfg, SimLevel::kSwiftSimBasic, opt);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == 0; });
  }
  EXPECT_GT(par.metrics.at("driver.team_width_max"), 1u);
  ExpectIdentical(serial, par, "busy pool");
}

/// Freezes issue on one SM forever; `throw_at` > 0 instead throws from
/// that SM's tick at that cycle — on whichever thread ticks its cluster.
class WedgeOneSm : public FaultHooks {
 public:
  WedgeOneSm(SmId sm, Cycle throw_at) : sm_(sm), throw_at_(throw_at) {}
  bool OnResponse(SmId, const MemResponse&, Cycle) override { return true; }
  void CollectDue(SmId, Cycle, std::vector<MemResponse>*) override {}
  bool FreezeIssue(SmId sm, Cycle now) override {
    if (sm != sm_) return false;
    if (throw_at_ == 0) return true;
    SS_CHECK(now < throw_at_, "injected failure in SM " + std::to_string(sm));
    return false;
  }
  bool StormActive(Cycle) override { return false; }
  bool AnyHeld() const override { return false; }
  Cycle NextDueAfter(Cycle) const override { return kNever; }

 private:
  SmId sm_;
  Cycle throw_at_;
};

TEST(ParallelDriver, WedgedSmRaisesHangOnCallerWhenWide) {
  GpuConfig cfg = WideGpu();
  cfg.watchdog.stall_cycles = 2000;
  const Application app = WideApp();
  WedgeOneSm wedge(/*sm=*/5, /*throw_at=*/0);
  ParallelDetailedOptions opt;
  opt.num_threads = 4;
  opt.fault = &wedge;
  EXPECT_THROW(RunParallelDetailed(app, cfg, SimLevel::kDetailed, opt),
               SimHangError);
}

TEST(ParallelDriver, ClusterFailureIsRethrownOnCaller) {
  // SM 20 lies in a helper's cluster; its failure drains the round and
  // surfaces on the calling thread as the original SimError.
  const GpuConfig cfg = WideGpu();
  const Application app = WideApp();
  WedgeOneSm boom(/*sm=*/20, /*throw_at=*/300);
  ParallelDetailedOptions opt;
  opt.num_threads = 4;
  opt.fault = &boom;
  try {
    RunParallelDetailed(app, cfg, SimLevel::kDetailed, opt);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure in SM 20"),
              std::string::npos)
        << e.what();
  }
}

// --- Two-mode batch policy ------------------------------------------------

TEST(BatchPlanPolicy, DecisionTable) {
  // Analytical-memory levels always run app-parallel.
  BatchPlan p = PlanParallelBatch(2, 8, /*cycle_accurate_mem=*/false,
                                  ParallelMode::kAuto);
  EXPECT_EQ(p.chosen, ParallelMode::kApp);
  EXPECT_EQ(p.app_lanes, 2u);
  EXPECT_EQ(p.threads_per_app, 1u);

  // Auto, apps >= budget: app-parallel fills the machine by itself.
  p = PlanParallelBatch(8, 4, true, ParallelMode::kAuto);
  EXPECT_EQ(p.chosen, ParallelMode::kApp);
  EXPECT_EQ(p.app_lanes, 4u);
  EXPECT_EQ(p.threads_per_app, 1u);

  // Auto, apps < budget: mix — spare threads go inside the lanes.
  p = PlanParallelBatch(2, 8, true, ParallelMode::kAuto);
  EXPECT_EQ(p.chosen, ParallelMode::kIntra);
  EXPECT_EQ(p.app_lanes, 2u);
  EXPECT_EQ(p.threads_per_app, 4u);

  // Non-divisor mix rounds down, never over the budget.
  p = PlanParallelBatch(3, 8, true, ParallelMode::kAuto);
  EXPECT_EQ(p.app_lanes, 3u);
  EXPECT_EQ(p.threads_per_app, 2u);

  // Explicit intra: one app at a time on the whole budget.
  p = PlanParallelBatch(8, 4, true, ParallelMode::kIntra);
  EXPECT_EQ(p.chosen, ParallelMode::kIntra);
  EXPECT_EQ(p.app_lanes, 1u);
  EXPECT_EQ(p.threads_per_app, 4u);

  // Explicit app with spare budget stays one thread per app.
  p = PlanParallelBatch(2, 8, true, ParallelMode::kApp);
  EXPECT_EQ(p.chosen, ParallelMode::kApp);
  EXPECT_EQ(p.app_lanes, 2u);
  EXPECT_EQ(p.threads_per_app, 1u);

  // Degenerate shapes stay sane.
  p = PlanParallelBatch(0, 8, true, ParallelMode::kAuto);
  EXPECT_EQ(p.app_lanes, 1u);
  EXPECT_EQ(p.threads_per_app, 1u);
}

TEST(BatchPlanPolicy, NeverOversubscribesTheThreadBudget) {
  // Satellite fix for the over-subscription bug: apps × per-app workers
  // must never exceed the requested budget, for any shape or mode.
  for (const ParallelMode mode :
       {ParallelMode::kAuto, ParallelMode::kApp, ParallelMode::kIntra}) {
    for (std::size_t apps = 0; apps <= 10; ++apps) {
      for (unsigned threads = 1; threads <= 12; ++threads) {
        const BatchPlan p = PlanParallelBatch(apps, threads, true, mode);
        EXPECT_LE(p.app_lanes * p.threads_per_app, threads)
            << ToString(mode) << " apps=" << apps << " threads=" << threads;
        EXPECT_GE(p.app_lanes, 1u);
        EXPECT_GE(p.threads_per_app, 1u);
      }
    }
  }
}

TEST(BatchModes, IdenticalResultsAcrossModeKnob) {
  // The mode knob moves work between threads, never between models: every
  // mode produces the serial numbers for every app in the batch.
  GpuConfig cfg = SmallGpu();
  const std::vector<Application> apps = {SmallApp("SM"), SmallApp("BFS")};
  std::vector<SimResult> serial;
  for (const Application& app : apps) {
    serial.push_back(RunSimulation(app, cfg, SimLevel::kSwiftSimBasic));
  }
  for (const ParallelMode mode :
       {ParallelMode::kApp, ParallelMode::kAuto, ParallelMode::kIntra}) {
    cfg.parallel.mode = mode;
    const ParallelBatchResult batch =
        RunAppsParallel(apps, cfg, SimLevel::kSwiftSimBasic, 4);
    ASSERT_EQ(batch.results.size(), apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      ExpectIdentical(serial[i], batch.results[i],
                        std::string(ToString(mode)) + "/" + apps[i].name);
    }
  }
}

TEST(BatchModes, IsolatedBatchUsesIntraLanesWhenEligible) {
  GpuConfig cfg = SmallGpu();
  cfg.parallel.mode = ParallelMode::kAuto;
  const std::vector<Application> apps = {SmallApp("SM")};
  const SimResult serial =
      RunSimulation(apps[0], cfg, SimLevel::kSwiftSimBasic);
  BatchOptions options;
  options.isolate_failures = true;
  const ParallelBatchResult batch =
      RunAppsParallel(apps, cfg, SimLevel::kSwiftSimBasic, 4, options);
  ASSERT_EQ(batch.statuses.size(), 1u);
  EXPECT_EQ(batch.statuses[0].status, AppStatus::kOk);
  ExpectIdentical(serial, batch.results[0], "isolated intra");
  // One app, four threads, auto mode → the parallel driver ran it.
  EXPECT_EQ(batch.results[0].simulator,
            ToString(SimLevel::kSwiftSimBasic) + "+parallel");
}

TEST(BatchModes, FaultPlanForcesAppParallelLanes) {
  // Fault injection needs the resilient serial driver; the planner must
  // not route such batches through intra-app sharding.
  GpuConfig cfg = SmallGpu();
  cfg.parallel.mode = ParallelMode::kAuto;
  const std::vector<Application> apps = {SmallApp("SM")};
  FaultPlan plan;  // armed but empty: the seam must still force app mode
  BatchOptions options;
  options.isolate_failures = true;
  options.fault_plan = &plan;
  const ParallelBatchResult batch =
      RunAppsParallel(apps, cfg, SimLevel::kSwiftSimBasic, 4, options);
  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.statuses[0].status, AppStatus::kOk);
  EXPECT_EQ(batch.results[0].simulator,
            ToString(SimLevel::kSwiftSimBasic));
}

TEST(ParallelMemory, DeterministicAcrossThreadCounts) {
  const GpuConfig cfg = SmallGpu();
  for (const char* name : {"SM", "GEMM"}) {
    const Application app = SmallApp(name);
    const SimResult one = RunSmParallelMemory(app, cfg, 1);
    for (unsigned threads : {2u, 8u}) {
      const SimResult many = RunSmParallelMemory(app, cfg, threads);
      ExpectIdentical(one, many,
                      std::string(name) + "/t" + std::to_string(threads));
    }
  }
}

TEST(ParallelMemory, PopulatesPerSmMetrics) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  const SimResult r = RunSmParallelMemory(app, cfg, 2);
  EXPECT_FALSE(r.metrics.empty());
  EXPECT_GT(r.metrics.at("sm0.issued_instrs"), 0u);
  std::uint64_t issued = 0;
  for (const auto& [key, value] : r.metrics) {
    if (key.find("issued_instrs") != std::string::npos) issued += value;
  }
  EXPECT_EQ(issued, r.instructions);
}

}  // namespace
}  // namespace swiftsim
