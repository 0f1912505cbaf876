#include "swiftsim/simulator.h"

#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "analytical/cache_prepass.h"
#include "common/status.h"
#include "swiftsim/memo_cache.h"

namespace swiftsim {

Simulator::Simulator(const Application& app, const GpuConfig& cfg,
                     SimLevel level)
    : app_(app), cfg_(cfg), level_(level) {
  if (SelectionFor(level).mem == MemModelKind::kAnalytical) {
    if (cfg_.memo.enabled) {
      // Cache-geometry-equal configs and repeated constructions share one
      // profile; the fetch time (hit or build) is the run's pre-pass cost.
      ProfileCache::Global().ApplyConfigMaxEntries(cfg_.memo.max_entries);
      const ProfileCache::Fetch fetch =
          ProfileCache::Global().GetOrBuild(app, cfg_);
      profile_ = fetch.profile;
      prepass_seconds_ = fetch.seconds;
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      profile_ =
          std::make_shared<const MemProfile>(BuildMemProfile(app, cfg_));
      const auto t1 = std::chrono::steady_clock::now();
      prepass_seconds_ = std::chrono::duration<double>(t1 - t0).count();
    }
  }
}

SimResult Simulator::Run() {
  SimResult result;
  const bool resilient = (fault_plan_ != nullptr && fault_plan_->AnyRuntime()) ||
                         cfg_.degrade.on_hang || cfg_.degrade.max_retries > 0;
  if (resilient) {
    result = RunResilient();
    result.simulator = ToString(level_);
    result.wall_seconds += prepass_seconds_;
    return result;
  }
  if (cfg_.memo.enabled && MemoReplayApplicable(cfg_, level_)) {
    result = RunApplicationMemo(app_, cfg_, level_, profile_.get(),
                                MemoCache::Global());
  } else {
    GpuModel model(cfg_, SelectionFor(level_), profile_.get());
    result = model.RunApplication(app_);
  }
  result.simulator = ToString(level_);
  // The pre-pass is part of Swift-Sim-Memory's cost; charge it to the run.
  result.wall_seconds += prepass_seconds_;
  return result;
}

SimResult Simulator::RunResilient() {
  SimResult result;
  result.app = app_.name;
  result.kernels.reserve(app_.kernels.size());
  const auto t0 = std::chrono::steady_clock::now();

  const ModelSelection sel = SelectionFor(level_);
  std::unique_ptr<FaultInjector> injector;
  if (fault_plan_ != nullptr && fault_plan_->AnyRuntime()) {
    injector = std::make_unique<FaultInjector>(*fault_plan_, cfg_.num_sms);
  }
  auto make_model = [&]() {
    auto m = std::make_unique<GpuModel>(cfg_, sel, profile_.get());
    if (injector) m->ArmFaults(injector.get());
    return m;
  };
  // Metrics accumulate across replacement models so a run that degraded
  // still reports its full counter totals.
  std::map<std::string, std::uint64_t> metrics;
  auto fold_metrics = [&](const GpuModel& m) {
    for (const auto& [key, value] : m.metrics().Snapshot()) {
      metrics[key] += value;
    }
  };

  auto model = make_model();
  Cycle clock = 0;  // clock at the last completed-kernel boundary
  for (const auto& kernel : app_.kernels) {
    unsigned attempts = 0;
    for (;;) {
      const std::uint64_t before = model->TotalIssuedInstrs();
      try {
        const Cycle cycles = model->RunKernel(*kernel);
        result.kernels.push_back(
            {kernel->info().name, cycles,
             model->TotalIssuedInstrs() - before});
        clock = model->now();
        break;
      } catch (const SimError& e) {
        std::string dump;
        if (const auto* hang = dynamic_cast<const SimHangError*>(&e)) {
          dump = hang->dump_path();
        }
        fold_metrics(*model);
        if (attempts++ < cfg_.degrade.max_retries) {
          // Bounded retry on a fresh model resumed at the kernel boundary;
          // deterministic faults will recur, transient model-state damage
          // will not.
          model = make_model();
          model->SyncClock(clock);
          continue;
        }
        if (!cfg_.degrade.on_hang) throw;
        // Graceful degradation: finish this kernel analytically (clean
        // model, no injection — the point is to recover a usable estimate),
        // record the event, and resume detailed simulation after it.
        Application one;
        one.name = app_.name;
        one.kernels.push_back(kernel);
        const MemProfile fallback_profile = BuildMemProfile(one, cfg_);
        GpuModel ana(cfg_, SelectionFor(SimLevel::kSwiftSimMemory),
                     &fallback_profile);
        ana.SyncClock(clock);
        const std::uint64_t ana_before = ana.TotalIssuedInstrs();
        const Cycle cycles = ana.RunKernel(*kernel);
        result.kernels.push_back(
            {kernel->info().name, cycles,
             ana.TotalIssuedInstrs() - ana_before});
        clock = ana.now();
        fold_metrics(ana);
        result.degrades.push_back({kernel->info().name, e.what(), dump});
        model = make_model();
        model->SyncClock(clock);
        break;
      }
    }
  }
  fold_metrics(*model);

  const auto t1 = std::chrono::steady_clock::now();
  result.total_cycles = clock;
  for (const auto& kr : result.kernels) result.instructions += kr.instructions;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  metrics["driver.degrade_events"] = result.degrades.size();
  if (injector) {
    metrics["fault.responses_delayed"] = injector->delayed();
    metrics["fault.responses_dropped"] = injector->dropped();
    metrics["fault.responses_redelivered"] = injector->redelivered();
    metrics["fault.issue_freezes"] = injector->freezes();
  }
  result.metrics = std::move(metrics);
  return result;
}

SimResult RunSimulation(const Application& app, const GpuConfig& cfg,
                        SimLevel level) {
  return Simulator(app, cfg, level).Run();
}

}  // namespace swiftsim
