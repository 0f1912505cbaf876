// Parallel cycle-accurate simulation (DESIGN.md §12): one per-cycle
// stepper drives a GpuModel in rounds of one slack window each:
//
//   tick SM clusters  ──▶  drain ports, tick NoC/L2/DRAM  ──▶  coordinator
//
// The clusters are ticked by a team whose width is chosen at each kernel
// start from that kernel's active SMs. A width-1 team is the calling
// thread stepping alone; a wider team adds helpers from the shared thread
// pool that claim clusters from an atomic ticket. The memory tick and the
// coordinator (clock advance, cycle-skip jumps, watchdog, kernel
// transitions, memo record/replay, CTA dispatch) always run on the caller.
//
// At slack == 1 (the default) every round is one cycle and the mutation
// schedule is exactly the serial loop's: results are bit-identical to
// RunSimulation for any worker count. At slack > 1 memory responses are
// delivered up to slack-1 cycles late and CTA dispatch happens only at
// window boundaries — a bounded, documented approximation bought for fewer
// synchronization rounds.
#pragma once

#include "config/gpu_config.h"
#include "sim/gpu_model.h"
#include "sim/model_select.h"
#include "trace/kernel.h"

namespace swiftsim {

struct ParallelDetailedOptions {
  unsigned num_threads = 0;  // team width cap; 0 = hardware concurrency
  Cycle slack = 1;           // window length in cycles; 1 = exact
  /// Chaos scenario armed on the sharded model (DESIGN.md §11); must
  /// outlive the run. Arming one disables memo replay for the run —
  /// replayed launches would dodge injection.
  FaultHooks* fault = nullptr;
};

/// Runs `app` through a cycle-accurate-memory level (kSilicon, kDetailed
/// or kSwiftSimBasic) with SM clusters ticked by a team on the shared
/// thread pool. Rejects analytical-memory levels and slack == 0.
SimResult RunParallelDetailed(const Application& app, const GpuConfig& cfg,
                              SimLevel level,
                              const ParallelDetailedOptions& opt = {});

}  // namespace swiftsim
