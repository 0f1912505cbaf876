#include "swiftsim/parallel_detailed.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "swiftsim/memo_cache.h"
#include "trace/fingerprint.h"

namespace swiftsim {
namespace {

/// Fewest active SMs per team member: a kernel runs on width
/// active_sms / kMinActiveSmsPerWorker (at least 1, at most num_threads).
/// Calibrated with `bench_parallel_scaling --sweep=0.05,0.1,0.25,0.5
/// --apps=SM,GEMM,BFS,PAGERANK --threads=4` (DESIGN.md §12): 2 and 3 lost
/// up to 20% on 6–7 active SMs, 8 and 16 left the gains at 14 active SMs.
constexpr unsigned kMinActiveSmsPerWorker = 4;

/// Widest team: one bit per cluster in a 64-bit claim mask.
constexpr unsigned kMaxTeamWidth = 64;

/// How long an idle helper spins on the round counter before it parks.
/// It outlasts the caller's memory tick and coordinator between rounds;
/// waking a parked thread (and its vCPU) costs far more than a round.
constexpr std::chrono::microseconds kSpinBudget{200};

/// After this long without news a spinning thread also yields its CPU:
/// right after an idle spell the host may run the whole team on one vCPU,
/// where a pure spin would only delay the thread it waits for.
constexpr std::chrono::microseconds kYieldAfter{20};

/// Spins until `done()` or until `budget` has passed; returns whether
/// `done()` came true. Yields the CPU between polls after kYieldAfter.
template <typename Pred>
bool SpinUntil(Pred done, std::chrono::steady_clock::duration budget =
                              std::chrono::steady_clock::duration::max()) {
  const auto start = std::chrono::steady_clock::now();
  for (unsigned spins = 1; !done(); ++spins) {
    if (spins % 64 != 0) continue;
    const auto waited = std::chrono::steady_clock::now() - start;
    if (waited >= budget) return false;
    if (waited >= kYieldAfter) std::this_thread::yield();
  }
  return true;
}

/// The SMs of one cluster: an arc of the SM ring, stored as the linear
/// range [first, last) plus the part [0, wrapped) that wrapped past the
/// last SM.
struct Cluster {
  unsigned first = 0;
  unsigned last = 0;
  unsigned wrapped = 0;
};

/// Plans the SMs a kernel's rounds tick as `width` arcs of the SM ring
/// holding near-equal numbers of active SMs. The block scheduler fills
/// SMs breadth-first from a rotating start, so after a kernel's first
/// dispatch its active SMs form one arc of the ring. Once every CTA is
/// dispatched, the SMs outside that arc stay idle for the rest of the
/// kernel and their ticks are no-ops, so only the arc is ticked. While
/// CTAs are pending every SM already holds one, and the whole ring is.
std::vector<Cluster> PlanClusters(const GpuModel& model, unsigned width) {
  const auto& sms = model.sms();
  const unsigned n = static_cast<unsigned>(sms.size());
  std::vector<bool> active(n);
  unsigned total = 0;
  for (unsigned i = 0; i < n; ++i) {
    active[i] = sms[i]->Active();
    total += active[i] ? 1 : 0;
  }
  unsigned start = 0;
  unsigned arcs = 0;
  for (unsigned i = 0; i < n; ++i) {
    if (active[i] && !active[(i + n - 1) % n] && arcs++ == 0) start = i;
  }
  const unsigned span = arcs == 1 && model.AllCtasLaunched() ? total : n;
  std::vector<Cluster> clusters(width);
  unsigned pos = 0;  // ring offset from `start`
  for (unsigned k = 0; k < width; ++k) {
    const unsigned begin = pos;
    if (k + 1 == width) {
      pos = span;
    } else {
      const unsigned share = total * (k + 1) / width - total * k / width;
      for (unsigned got = 0; got < share; ++pos) {
        if (active[(start + pos) % n]) ++got;
      }
    }
    Cluster& c = clusters[k];
    c.first = (start + begin) % n;
    c.last = std::min(n, c.first + (pos - begin));
    c.wrapped = c.first + (pos - begin) - c.last;
  }
  return clusters;
}

/// State shared by the caller and the pool helpers of one run. Helpers
/// hold it by shared_ptr, so one that arrives late — even after the run
/// returned — touches only this block. The model and the round inputs
/// are touched only by helpers counted in `inside`, and the caller does
/// not return before `inside` drops to zero.
struct TeamState {
  // Round inputs, written by the caller between rounds and published by
  // its release store to `open`.
  GpuModel* model = nullptr;
  Cycle now = 0;
  Cycle slack = 1;
  unsigned max_helpers = 0;
  std::vector<Cluster> clusters;
  std::vector<unsigned char> progressed;  // per cluster, this round

  // Clusters of the current round that nobody has claimed yet, one bit
  // each. It is zero between rounds, so a helper that wakes late claims
  // nothing until the next round is published.
  alignas(64) std::atomic<std::uint64_t> open{0};
  alignas(64) std::atomic<unsigned> finished{0};  // clusters ticked
  alignas(64) std::atomic<std::uint32_t> seq{0};  // bumped per round
  alignas(64) std::atomic<unsigned> sleepers{0};  // helpers parked on seq
  std::atomic<unsigned> inside{0};     // helpers that may touch `model`
  std::atomic<unsigned> wanted{0};     // helpers the current width uses
  std::atomic<unsigned> requested{0};  // helpers submitted, not yet left
  std::atomic<unsigned> joins{0};      // hands out helpers' home clusters
  std::atomic<bool> closed{false};

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  // the first exception of any participant

  bool TickCluster(unsigned k) {
    const Cluster& c = clusters[k];
    bool any = false;
    for (Cycle w = 0; w < slack; ++w) {
      any |= model->TickSmRange(c.first, c.last, now + w);
      if (c.wrapped != 0) any |= model->TickSmRange(0, c.wrapped, now + w);
    }
    return any;
  }

  /// Claims and ticks clusters of the published round until none is
  /// left, starting with cluster `home` so that each cluster's SM state
  /// tends to stay in one core's cache. After a failure the remaining
  /// clusters are counted, not ticked, so the round drains.
  void WorkRound(unsigned home) {
    for (;;) {
      const std::uint64_t left = open.load(std::memory_order_relaxed);
      if (left == 0) return;
      const unsigned k =
          (left >> home) & 1 ? home : static_cast<unsigned>(
                                          std::countr_zero(left));
      const std::uint64_t bit = std::uint64_t{1} << k;
      if ((open.fetch_and(~bit, std::memory_order_acq_rel) & bit) == 0) {
        continue;  // another participant took it
      }
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          progressed[k] = TickCluster(k) ? 1 : 0;
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      finished.fetch_add(1, std::memory_order_release);
    }
  }

  /// Waits until the caller publishes a round after `*seen` (or closes
  /// the team): spins for kSpinBudget, then parks.
  void WaitForRound(std::uint32_t* seen) {
    const auto news = [&] {
      return seq.load(std::memory_order_acquire) != *seen;
    };
    if (!SpinUntil(news, kSpinBudget)) {
      sleepers.fetch_add(1);
      seq.wait(*seen);
      sleepers.fetch_sub(1);
    }
    *seen = seq.load(std::memory_order_acquire);
  }

  /// A pool helper's whole life: join, work rounds until the team closes
  /// or the current width no longer wants it, leave.
  void HelperMain() {
    inside.fetch_add(1);
    const unsigned home = 1 + joins.fetch_add(1) % max_helpers;
    std::uint32_t seen = seq.load(std::memory_order_acquire);
    while (!closed.load()) {
      unsigned r = requested.load();
      if (r > wanted.load()) {
        if (requested.compare_exchange_weak(r, r - 1)) break;
        continue;
      }
      WorkRound(home);
      WaitForRound(&seen);
    }
    inside.fetch_sub(1);
  }
};

/// The caller's handle on the team: sets its width per kernel, runs the
/// cluster phase of each round, and on destruction (normal or unwinding)
/// closes the team and waits out every helper that joined.
class Team {
 public:
  Team(GpuModel& model, Cycle slack, unsigned max_width)
      : state_(std::make_shared<TeamState>()) {
    state_->model = &model;
    state_->slack = slack;
    state_->max_helpers = max_width - 1;
  }
  ~Team() {
    if (!used_pool_) return;
    TeamState& t = *state_;
    t.closed.store(true);
    t.seq.fetch_add(1);
    t.seq.notify_all();
    SpinUntil([&] { return t.inside.load() == 0; });
  }
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Re-forms the team for the kernel that just began (after its first
  /// CTA dispatch): `width` clusters balanced over its active SMs, and
  /// width - 1 pool helpers.
  void Resize(unsigned width) {
    TeamState& t = *state_;
    t.clusters = PlanClusters(*t.model, width);
    t.progressed.assign(width, 0);
    width_max_ = std::max(width_max_, width);
    const unsigned helpers = width - 1;
    if (!used_pool_ && helpers == 0) return;
    const unsigned before = t.wanted.exchange(helpers);
    if (helpers < before) {
      // Surplus helpers wake to leave rather than park on pool workers
      // that nested lanes and service lanes also need.
      t.seq.fetch_add(1);
      t.seq.notify_all();
    }
    unsigned r = t.requested.load();
    while (r < helpers && !t.requested.compare_exchange_weak(r, helpers)) {
    }
    if (r >= helpers) return;
    ThreadPool& pool = ThreadPool::Shared();
    pool.EnsureWorkers(helpers);
    for (; r < helpers; ++r) {
      pool.Submit([state = state_] { state->HelperMain(); });
    }
    used_pool_ = true;
  }

  /// Ticks every cluster through the window starting at `now`; returns
  /// whether any SM progressed. Rethrows the first exception of any
  /// participant once the round has drained.
  bool Tick(Cycle now) {
    TeamState& t = *state_;
    t.now = now;
    const unsigned n = static_cast<unsigned>(t.clusters.size());
    if (n == 1) return t.TickCluster(0);
    t.finished.store(0, std::memory_order_relaxed);
    t.open.store(~std::uint64_t{0} >> (64 - n), std::memory_order_release);
    t.seq.fetch_add(1);
    if (t.sleepers.load() != 0) t.seq.notify_all();
    t.WorkRound(0);
    SpinUntil([&] { return t.finished.load(std::memory_order_acquire) == n; });
    if (t.failed.load(std::memory_order_relaxed)) {
      std::rethrow_exception(t.error);
    }
    bool any = false;
    for (const unsigned char p : t.progressed) any |= p != 0;
    return any;
  }

  unsigned width_max() const { return width_max_; }

 private:
  std::shared_ptr<TeamState> state_;
  unsigned width_max_ = 1;
  bool used_pool_ = false;
};

}  // namespace

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

  GpuModel model(cfg, sel);
  if (opt.fault != nullptr) model.ArmFaults(opt.fault);
  // Like GpuModel::RunApplication, time the run, not the model's set-up.
  const auto t0 = std::chrono::steady_clock::now();

  // Cross-launch memoization (DESIGN.md §10). This driver is cycle-
  // accurate, so replay is only ever approximate and requires the
  // convergence-mode opt-in on top of memo.enabled. Fault injection
  // disables replay: a replayed launch would dodge the armed plan.
  const bool memo_on = cfg.memo.enabled && cfg.memo.detailed_convergence &&
                       opt.fault == nullptr;
  MemoCache& memo_cache = MemoCache::Global();
  if (memo_on) {
    memo_cache.ApplyConfigLimits(cfg.memo.max_entries, cfg.memo.max_bytes);
  }
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
  result.simulator = ToString(level) + "+parallel";

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
  threads = std::min({threads, cfg.num_sms, kMaxTeamWidth});

  // Driver state, touched only by the calling thread. Declared before the
  // team: its destructor waits out the helpers before the model dies.
  Cycle now = 0;
  Cycle kernel_start = 0;
  std::uint64_t instrs_before = 0;
  std::size_t kidx = 0;
  bool done = false;
  Team team(model, slack, threads);

  // Begins kernels starting at kidx until one has work to simulate, then
  // sizes the team from its active SMs. Degenerate kernels (e.g. zero
  // CTAs) complete instantly and are recorded without running a round.
  // Launch overhead lands inside the kernel's own cycle count, as in the
  // serial driver.
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
      if (!model.KernelDone()) {
        const unsigned active_sms =
            std::min<unsigned>(cfg.num_sms, kernel.info().num_ctas);
        team.Resize(std::clamp(active_sms / kMinActiveSmsPerWorker, 1u,
                               threads));
        return;
      }
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

  // --- The per-cycle stepper (DESIGN.md §12) -------------------------------
  //
  // One round simulates one slack window: the team ticks the SM clusters;
  // the caller injects their port traffic (SM order, backpressure-exact)
  // and ticks NoC, L2 and DRAM; then the coordinator advances the clock
  // (including cycle-skip jumps), handles kernel transitions and CTA
  // dispatch. At slack=1 this is the serial loop's mutation order, so
  // results stay bit-identical for any team width.
  std::uint64_t rounds = 0;
  while (!done) {
    const bool progressed = team.Tick(now);
    for (Cycle w = 0; w < slack; ++w) model.TickSharedMemory(now + w);
    ++rounds;

    const bool mem_busy = !model.MemQuiescent();
    // Watchdog observation once per window, after the ticks (so a jump
    // landing's progress is already visible).
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
      continue;
    }
    model.AssignPendingCtas();
  }

  model.SyncClock(now);
  result.total_cycles = now;
  result.instructions = model.TotalIssuedInstrs() +
                        memo_stats.replayed_instrs;
  result.metrics = model.metrics().Snapshot();
  // Stepper telemetry rides the driver.* namespace, which bit-identity
  // suites exclude (like the skip counters, it describes how the run was
  // executed, not what was simulated).
  result.metrics["driver.tg_rounds"] = rounds;
  result.metrics["driver.team_width_max"] = team.width_max();
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
