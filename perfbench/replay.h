#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include "perfbench/bench.h"
#include "perfbench/workload.h"

namespace perfbench {

/// Re-drives each layer's public functions directly (parse, admission
/// and locality analysis, compile, snapshot pin, run, render, append,
/// retract, view refresh, compact) over `in` for at least `budget_s`
/// seconds, and sets the per-call medians as per-layer metrics.
Status ReplayLayers(const ReplayInputs& in, double budget_s, Metrics* m);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
