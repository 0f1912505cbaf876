#include "swiftsim/parallel_detailed.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "swiftsim/memo_cache.h"
#include "trace/fingerprint.h"

namespace swiftsim {

SimResult RunParallelDetailed(const Application& app, const GpuConfig& cfg,
                              SimLevel level,
                              const ParallelDetailedOptions& opt) {
  const ModelSelection sel = SelectionFor(level);
  SS_CHECK(sel.mem == MemModelKind::kCycleAccurate,
           "parallel detailed mode shards the cycle-accurate memory path; "
           "use RunSmParallelMemory for analytical-memory levels");
  SS_CHECK(opt.slack >= 1, "slack window must be at least one cycle");
  const bool never_jump = sel.alu == AluModelKind::kCycleAccurate;
  const bool skip = never_jump && cfg.cycle_skip;
  const Cycle slack = opt.slack;

  const auto t0 = std::chrono::steady_clock::now();
  GpuModel model(cfg, sel);
  if (opt.fault != nullptr) model.ArmFaults(opt.fault);

  // Cross-launch memoization (DESIGN.md §10). This driver is cycle-
  // accurate, so replay is only ever approximate and requires the
  // convergence-mode opt-in on top of memo.enabled. Fault injection
  // disables replay: a replayed launch would dodge the armed plan.
  const bool memo_on = cfg.memo.enabled && cfg.memo.detailed_convergence &&
                       opt.fault == nullptr;
  MemoCache& memo_cache = MemoCache::Global();
  if (memo_on) memo_cache.SetLimits(cfg.memo.max_entries, cfg.memo.max_bytes);
  const std::uint64_t evictions_before = memo_cache.evictions();
  struct {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t replayed_cycles = 0;
    std::uint64_t replayed_instrs = 0;
  } memo_stats;
  if (memo_on) {
    model.metrics().Register("memo", "hits", &memo_stats.hits);
    model.metrics().Register("memo", "misses", &memo_stats.misses);
    model.metrics().Register("memo", "replayed_cycles",
                             &memo_stats.replayed_cycles);
    model.metrics().Register("memo", "replayed_instrs",
                             &memo_stats.replayed_instrs);
  }
  MemoKey memo_key;
  memo_key.cfg_hash = cfg.CanonicalHash();
  memo_key.level = static_cast<std::uint8_t>(level);
  std::vector<Fingerprint> launch_fp;
  if (memo_on) {
    launch_fp = FingerprintLaunches(app);
    memo_key.context = FingerprintApplication(launch_fp).Fold();
  }
  std::map<std::string, std::uint64_t> launch_before;
  std::map<std::string, std::uint64_t> replayed_deltas;

  SimResult result;
  result.app = app.name;
  result.simulator = ToString(level) + "+taskgraph";

  // Builds and stores the launch record for the kernel that just
  // completed, from the metric snapshot taken when it began.
  auto record_launch = [&](Cycle cycles, std::uint64_t instrs) {
    ++memo_stats.misses;
    LaunchRecord rec;
    rec.cycles = cycles;
    rec.instructions = instrs;
    const auto after = model.metrics().Snapshot();
    for (const auto& [name, value] : after) {
      if (name.rfind("memo.", 0) == 0) continue;  // driver, not launch
      const auto bit = launch_before.find(name);
      const std::uint64_t delta =
          value - (bit != launch_before.end() ? bit->second : 0);
      if (delta != 0) rec.metric_deltas.emplace_back(name, delta);
    }
    memo_cache.RecordLaunch(memo_key, std::move(rec), /*exact=*/false,
                            cfg.memo.convergence_min_repeats,
                            cfg.memo.convergence_epsilon);
  };

  unsigned threads = opt.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, cfg.num_sms);
  // Cluster count from thread and SM counts: one contention domain per
  // worker by default, never more clusters than SMs.
  const unsigned clusters =
      opt.clusters != 0 ? std::min(opt.clusters, cfg.num_sms) : threads;

  // Shared driver state. All of it is either written only by the
  // coordinator task (the sink of each round) or by exactly one cluster
  // task per round; the task graph's dependency edges order every access
  // (DESIGN.md §12).
  Cycle now = 0;
  Cycle kernel_start = 0;
  std::uint64_t instrs_before = 0;
  std::size_t kidx = 0;
  bool done = false;
  std::vector<unsigned char> cluster_progress(clusters, 0);

  // Begins kernels starting at kidx until one has work to simulate.
  // Degenerate kernels (e.g. zero CTAs) complete instantly and are
  // recorded without running a window. Launch overhead lands inside the
  // kernel's own cycle count, as in the serial driver.
  auto begin_kernels_until_work = [&] {
    while (kidx < app.kernels.size()) {
      const KernelTrace& kernel = *app.kernels[kidx];
      if (memo_on) {
        memo_key.kernel_fp = launch_fp[kidx];
        if (auto rec = memo_cache.TryReplay(memo_key)) {
          // Converged launch: advance the clock past it without touching
          // the model, exactly as the serial memo driver does.
          now += rec->cycles;
          KernelResult kr;
          kr.name = kernel.info().name;
          kr.cycles = rec->cycles;
          kr.instructions = rec->instructions;
          result.kernels.push_back(kr);
          for (const auto& [name, value] : rec->metric_deltas) {
            replayed_deltas[name] += value;
          }
          ++memo_stats.hits;
          memo_stats.replayed_cycles += rec->cycles;
          memo_stats.replayed_instrs += rec->instructions;
          ++kidx;
          continue;
        }
        launch_before = model.metrics().Snapshot();
      }
      model.SyncClock(now);
      kernel_start = now;
      instrs_before = model.TotalIssuedInstrs();
      model.BeginKernel(kernel);
      now = model.now();
      model.AssignPendingCtas();
      if (!model.KernelDone()) return;
      KernelResult kr;
      kr.name = kernel.info().name;
      kr.cycles = now - kernel_start;
      result.kernels.push_back(kr);
      if (memo_on) {
        record_launch(kr.cycles, model.TotalIssuedInstrs() - instrs_before);
      }
      ++kidx;
    }
    done = true;
  };
  begin_kernels_until_work();

  // --- The per-round task graph (DESIGN.md §12) ---------------------------
  //
  //   cluster[k] tick span ──▶ memory drain ──▶ coordinator
  //
  // One round simulates one slack window. Cluster tasks advance disjoint
  // SM ranges through the window's cycles; the memory-drain task injects
  // their port traffic (SM order, backpressure-exact) and ticks NoC, L2
  // and DRAM; the coordinator advances the clock (including cycle-skip
  // jumps), handles kernel transitions and CTA dispatch, then the round
  // re-arms — or Finish() ends the run. At slack=1 the resulting mutation
  // schedule is exactly the serial loop's, so results stay bit-identical
  // for any worker/cluster count.
  TaskGraph graph;

  // Contiguous, balanced SM ranges — one per cluster (contention domain).
  std::vector<int> cluster_tasks;
  cluster_tasks.reserve(clusters);
  for (unsigned k = 0; k < clusters; ++k) {
    const unsigned base = cfg.num_sms / clusters;
    const unsigned extra = cfg.num_sms % clusters;
    const unsigned first = k * base + std::min(k, extra);
    const unsigned last = first + base + (k < extra ? 1 : 0);
    cluster_tasks.push_back(graph.AddTask(
        "cluster" + std::to_string(k), [&, k, first, last] {
          bool progressed = false;
          for (Cycle w = 0; w < slack; ++w) {
            progressed |= model.TickSmRange(first, last, now + w);
          }
          cluster_progress[k] = progressed ? 1 : 0;
        }));
  }

  const int mem_task = graph.AddTask("mem-drain", [&] {
    for (Cycle w = 0; w < slack; ++w) model.TickSharedMemory(now + w);
  });
  for (const int c : cluster_tasks) graph.AddEdge(c, mem_task);

  const int coord_task = graph.AddTask("coordinator", [&] {
    bool progressed = false;
    for (unsigned char p : cluster_progress) progressed |= p != 0;
    const bool mem_busy = !model.MemQuiescent();
    // Watchdog observation once per window, after the ticks (so a jump
    // landing's progress is already visible). A throw here (or in any
    // task) drains the round and rethrows from graph.Run().
    if (model.WatchdogEnabled()) model.WatchdogPoll(now + slack - 1);
    if (skip && !progressed) {
      // Event-calendar cycle skipping, exactly as in the serial loop:
      // jump over the no-op span beyond this window. The last ticked
      // memory cycle is now + slack - 1, so the calendar starts there;
      // at slack=1 the jump condition and span match the serial driver
      // cycle-for-cycle, preserving bit-identity. A completed kernel
      // must not draw a jump from a standing calendar entry (e.g. the
      // silicon DRAM refresh edge) — the window that reached
      // quiescence just advances past itself, as serially.
      if (model.KernelDone()) {
        now += slack;
      } else {
        Cycle wake = model.MinNextWake();
        wake = std::min(wake, model.MemNextEventAfter(now + slack - 1));
        if (wake == kNever) model.ThrowWedged(now + slack - 1);
        if (wake > now + slack) {
          model.FastForward(wake - (now + slack));
          now = wake;
        } else {
          now += slack;
        }
      }
    } else if (never_jump || progressed || mem_busy) {
      now += slack;
    } else {
      // Hybrid fast-forward, exactly as in the serial loop: nothing can
      // change before the earliest future SM event.
      const Cycle wake = model.MinNextWake();
      if (wake == kNever) {
        if (!model.KernelDone()) model.ThrowWedged(now + slack - 1);
      } else {
        now = std::max(now + slack, wake);
      }
    }
    if (model.KernelDone()) {
      KernelResult kr;
      kr.name = app.kernels[kidx]->info().name;
      kr.cycles = now - kernel_start;
      kr.instructions = model.TotalIssuedInstrs() - instrs_before;
      result.kernels.push_back(kr);
      if (memo_on) record_launch(kr.cycles, kr.instructions);
      ++kidx;
      begin_kernels_until_work();
      if (done) graph.Finish();
      return;
    }
    model.AssignPendingCtas();
  });
  graph.AddEdge(mem_task, coord_task);

  if (!done) {
    ThreadPool& pool = ThreadPool::Shared();
    // Workers beyond the caller join from the pool; they are a concurrency
    // hint, not a requirement (any participant can finish a round alone by
    // stealing), so growing the pool only buys parallelism.
    if (threads > 1) pool.EnsureWorkers(threads - 1);
    graph.Run(pool, threads);
  }

  model.SyncClock(now);
  result.total_cycles = now;
  result.instructions = model.TotalIssuedInstrs() +
                        memo_stats.replayed_instrs;
  result.metrics = model.metrics().Snapshot();
  // Scheduler telemetry rides the driver.* namespace, which bit-identity
  // suites exclude (like the skip counters, it describes how the run was
  // executed, not what was simulated).
  result.metrics["driver.tg_rounds"] = graph.rounds();
  result.metrics["driver.tg_tasks_executed"] = graph.executed();
  result.metrics["driver.tg_steals"] = graph.steals();
  result.metrics["driver.tg_clusters"] = clusters;
  for (const auto& [name, value] : replayed_deltas) {
    result.metrics[name] += value;
  }
  if (memo_on) {
    // Per-run delta: the cache is process-global, so absolute state would
    // leak earlier runs into this result.
    result.metrics["memo.evictions"] =
        memo_cache.evictions() - evictions_before;
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace swiftsim
